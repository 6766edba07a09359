import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from cranbounds import cli
from cranbounds.discrete import Channel, JointPmf

GOLDEN = Path(__file__).parent / "golden"


def run_cli(args):
    return cli.main(list(args))


def test_fme_roundtrip_identity(tmp_path, capsys):
    src = tmp_path / "sys.txt"
    src.write_text("1*x + 1*y <= 1*a\n-1*x <= 0\n")
    out = tmp_path / "out.txt"
    assert run_cli(["fme", "-i", str(src), "-o", str(out)]) == 0
    from cranbounds.polytope import parse_system
    a = parse_system(src.read_text())
    b = parse_system(out.read_text())
    assert [c.key() for c in a.constraints] == [c.key() for c in b.constraints]


def test_fme_matches_golden_projection(tmp_path):
    out = tmp_path / "proj.txt"
    rc = run_cli(["fme", "-i", str(GOLDEN / "cor4_input.txt"),
                  "-e", "Ru1,Rv1", "-o", str(out)])
    assert rc == 0
    got = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    want = [l for l in (GOLDEN / "cor4_projection.txt").read_text().splitlines()
            if not l.startswith("#")]
    assert got == want


def test_fme_parse_error_reports_location(tmp_path, capsys):
    src = tmp_path / "bad.txt"
    src.write_text("1*x <= 1*a\n2*y <= 3* \n")
    rc = run_cli(["fme", "-i", str(src)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "line 2" in captured.err


def test_fme_unknown_variable(tmp_path, capsys):
    src = tmp_path / "sys.txt"
    src.write_text("1*x <= 1*a\n")
    assert run_cli(["fme", "-i", str(src), "-e", "zz"]) == 2


def test_fme_blowup_is_a_one_line_usage_error(tmp_path, capsys):
    rc = run_cli(["fme", "-i", str(GOLDEN / "cor4_input.txt"), "-e", "Ru1,Rv1",
                  "--max-constraints", "3", "-o", str(tmp_path / "out.txt")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.strip().splitlines() == [
        "error: eliminating 'Ru1' produced more than 3 distinct constraints"]


def sweep_config(tmp_path, **overrides):
    config = {"P": 4.0, "G": [[1.0, 0.5], [0.5, 1.0]], "C_grid": [0.5, 1.0],
              "T": 0.0, "schemes": ["GDS-I"], "seed": 5,
              "budget": {"restarts": 2, "iters": 400}}
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_sweep_csv_deterministic(tmp_path):
    cfg = sweep_config(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["sumrate-sweep", str(cfg), "-o", str(out1)]) == 0
    assert run_cli(["sumrate-sweep", str(cfg), "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "C,T,scheme,sum_rate,cutset,rsum_star"
    assert len(lines) == 1 + 2
    first = lines[1].split(",")
    assert len(first) == 6
    float(first[3])  # parsable sum rate


def test_sweep_rejects_empty_schemes(tmp_path, capsys):
    cfg = sweep_config(tmp_path, schemes=[])
    assert run_cli(["sumrate-sweep", str(cfg)]) == 2


def test_sweep_requires_seed(tmp_path):
    cfg = sweep_config(tmp_path)
    config = json.loads(cfg.read_text())
    del config["seed"]
    cfg.write_text(json.dumps(config))
    assert run_cli(["sumrate-sweep", str(cfg)]) == 2


def test_sweep_merges_reference_csv(tmp_path):
    cfg = sweep_config(tmp_path)
    ref = tmp_path / "ref.csv"
    ref.write_text("C,scheme,sum_rate\n0.5,RCF,0.40\n1.0,RCF,0.80\n")
    out = tmp_path / "merged.csv"
    assert run_cli(["sumrate-sweep", str(cfg), "--rcf-csv", str(ref),
                    "-o", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
    assert sum(1 for r in rows if r[2] == "RCF") == 2


def test_region_with_valuation(tmp_path, capsys):
    val = {"I(U;Y1)": 1.0, "I(V;Y2)": 0.5, "I(U;V)": 0.25, "C1": 2.0}
    vpath = tmp_path / "val.json"
    vpath.write_text(json.dumps(val))
    out = tmp_path / "region.json"
    rc = run_cli(["region", "--scheme", "COR4", "--valuation", str(vpath),
                  "-o", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["variables"] == ["R1", "R2"]
    assert all("rhs_value" in c for c in payload["constraints"])


def test_region_from_pmf_and_channel(tmp_path):
    pmf = JointPmf.make([("U", 2), ("V", 2)], np.full((2, 2), 0.25))
    ch = Channel.from_map([("U", 2), ("V", 2)], [("Y1", 2), ("Y2", 2)],
                          lambda u, v: (u, v))
    ppath = tmp_path / "pmf.json"
    cpath = tmp_path / "ch.json"
    ppath.write_text(pmf.to_json())
    cpath.write_text(ch.to_json())
    out = tmp_path / "region.json"
    rc = run_cli(["region", "--scheme", "COR4", "--pmf", str(ppath),
                  "--channel", str(cpath), "--caps", "C1=1.5", "-o", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    values = {round(c["rhs_value"], 6) for c in payload["constraints"]}
    assert 1.5 in values  # the fronthaul constraint resolved


def test_region_cutset(tmp_path):
    from cranbounds.gaussian import CranNetwork
    net = CranNetwork.make([[1.0, 0.5], [0.5, 1.0]], 2.0, [1.0, 1.0])
    npath = tmp_path / "net.json"
    npath.write_text(net.to_json())
    out = tmp_path / "cut.json"
    assert run_cli(["region", "--scheme", "CUTSET", "--network", str(npath),
                    "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["constraints"]) == 12


def test_region_ddf_shape(tmp_path):
    out = tmp_path / "ddf.json"
    assert run_cli(["region", "--scheme", "DDF-P1", "--n", "3", "--l", "1",
                    "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["variables"] == ["R1"]
    assert len(payload["constraints"]) == 8


def test_verify_examples_exit_code(tmp_path):
    out = tmp_path / "report.json"
    rc = run_cli(["verify-examples", "--example", "1", "--samples", "300",
                  "--seed", "0", "-o", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert {r["example"] for r in payload} == {"one-bs-one-user"}
    assert all(r["verdict"] in ("confirmed", "sampled-consistent") for r in payload)


def test_gap_audit_cli(tmp_path):
    out = tmp_path / "audit.json"
    rc = run_cli(["gap-audit", "--instances", "15", "--seed", "2", "-o", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["all_pass"] and payload["instances"] == 15


def test_usage_errors():
    assert run_cli(["region"]) == 2          # missing --scheme
    assert run_cli(["no-such-command"]) == 2


def test_module_entrypoint_subprocess(tmp_path):
    out = tmp_path / "audit.json"
    proc = subprocess.run(
        [sys.executable, "-m", "cranbounds.cli", "gap-audit", "--instances",
         "5", "--seed", "1", "-o", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(out.read_text())["all_pass"]


def test_missing_scipy_exits_2_with_one_line(monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.optimize", None)
    rc = run_cli(["verify-examples", "--example", "2", "--samples", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "scipy" in err
