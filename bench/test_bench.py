"""Tests of the benchmark itself: python3 -m pytest -q bench"""

import json
import shutil
import subprocess
import sys

import pytest

import runenv

runenv.pin_threads()
runenv.use_checkout_sources()

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from cranbounds import cli, discrete, schemes  # noqa: E402

BENCH = json.loads((runenv.ROOT / "BENCHMARK.json").read_text())


def _outcomes(name, tr=None, reps=1):
    jobs = workloads.WORKLOADS[name].jobs(0, "tiny")
    out = run.Outcomes()
    slices = []
    for _ in range(reps):
        lo = len(tr.spans) if tr else 0
        run.run_jobs(jobs, out, tracer=tr)
        slices.append((lo, len(tr.spans) if tr else 0))
    return out, slices


@pytest.mark.parametrize("name", run.NAMES)
def test_tiny_workload_has_no_failures(name):
    out, _ = _outcomes(name)
    assert out.attempted >= 1
    assert out.failed == 0, out.problems


@pytest.mark.parametrize("name", run.NAMES)
def test_traced_and_untraced_outputs_match(name):
    plain, _ = _outcomes(name)
    with tracer.Tracer() as tr:
        traced, _ = _outcomes(name, tr)
    assert traced.failed == 0, traced.problems
    assert traced.digests == plain.digests
    assert any(span[0] == tracer.JOB_SPAN for span in tr.spans)


@pytest.mark.parametrize("name", run.NAMES)
def test_call_counts_repeat_exactly(name):
    with tracer.Tracer() as tr:
        _, slices = _outcomes(name, tr, reps=2)
    first, second = (tracer.per_layer_metrics(tr, [s]) for s in slices)
    counts = [k for k, m in first.items() if m["unit"] == "count"]
    assert any(first[k]["value"] for k in counts)
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_wrappers_are_removed():
    before = (cli.main, schemes.max_sum_rate, vars(discrete.JointPmf)["make"])
    with tracer.Tracer():
        assert cli.main is not before[0]
        assert isinstance(vars(discrete.JointPmf)["make"], staticmethod)
    assert (cli.main, schemes.max_sum_rate, vars(discrete.JointPmf)["make"]) == before


def test_missing_name_is_absent_not_zero():
    sites = tracer.SITES + (tracer.Site("schemes", "no_such_helper", "schemes.gone"),)
    with tracer.Tracer(sites) as tr:
        pass
    assert tr.absent == ["schemes.no_such_helper"]
    only_missing = tracer.Tracer((tracer.Site("schemes", "no_such_helper",
                                              "schemes.objective"),))
    with only_missing:
        pass
    metrics = tracer.per_layer_metrics(only_missing, [(0, 0)])
    assert metrics["schemes.objective.calls"]["value"] is None
    assert metrics["schemes.search_self.s"]["value"] is None
    assert metrics["polytope.fme.steps"]["value"] == 0


def test_checks_reject_wrong_outputs():
    good = ("C,T,scheme,sum_rate,cutset,rsum_star\n"
            + "".join(f"{c},0,{s},{v},2.0,2.0\n" for c in (1.0, 2.0)
                      for s, v in (("GCOMP", 0.5), ("GDS-I", 0.9), ("GDS-II", 0.8),
                                   ("GDS-III", 0.7), ("GDS-TS", 0.9))))
    assert workloads.check_sweep(good) == []
    assert workloads.check_sweep(good.replace("2.0,0,GDS-I,0.9", "2.0,0,GDS-I,0.1"))
    assert workloads.check_sweep(good.replace("1.0,0,GCOMP,0.5", "1.0,0,GCOMP,2.5"))
    assert workloads.check_sweep(good.replace("2.0,0,GDS-TS,0.9", "2.0,0,GDS-TS,0.85"))
    z = [{"verdict": "sampled-consistent", "values": {
        "gds_hits": 0, "gds_samples": 3, "compression_member": True,
        "compression_min_slack": 0.0}}]
    assert workloads.check_zcheck(json.dumps(z), 3) == []
    z[0]["values"]["gds_hits"] = 1
    assert workloads.check_zcheck(json.dumps(z), 3)
    assert workloads.check_audit(json.dumps({"all_pass": False, "instances": 2,
                                             "worst": {}}), 2)
    assert workloads.check_shaped(json.dumps({"pass": [True, True], "max_gap": [0, 0]}), 2) == []
    assert workloads.check_shaped(json.dumps({"pass": [True, False], "max_gap": [0, 0]}), 2)


def _run_py(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_runner_prints_contract_line(trace, key):
    proc = _run_py(runenv.ROOT, "--workload", "audit", "--seed", "3", "--seconds", "0.1",
                   "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in BENCH[key]}
    for m in BENCH[key]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == 0:
        assert all(m["value"] > 0 for m in last["metrics"].values())
    else:
        assert last["metrics"]["gaussian.capacity_logdet.calls"]["value"] > 0
        assert last["metrics"]["gapaudit.audit.us"]["value"] > 0


def test_runner_fails_without_sources(tmp_path):
    shutil.copytree(runenv.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(runenv.ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_py(tmp_path, "--workload", "sweep", "--seed", "0", "--seconds", "1",
                   "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
