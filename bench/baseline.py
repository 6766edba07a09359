"""Seed-commit baseline: per-layer figures next to the ROADMAP "Baseline" table.

    python3 bench/baseline.py    # one traced run of each workload, seed 0

Writes ``bench/baseline.json``.  Traced figures include the wrappers' own
cost (about 1 us per wrapped call), so shares of layers with many tiny
wrapped calls read high; ``untraced_wall_s`` is each job list's untraced
median from the same run and ``speed_probe_s`` the mean time of the runner's
speed probe during it (0.0375 s at the reference speed), so figures taken
while the machine was slow can be told apart.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from collections import defaultdict

import runenv

ROADMAP = {
    "objective_ms": {"GDS-I": 0.57, "GDS-II": 0.73, "GDS-III": 0.96, "GCOMP": 1.17},
    "atom_valuation_us": {"GDS-I": 184, "GDS-II": 409, "GDS-III": 500, "GCOMP": 596},
    "atom_valuation_share": [0.32, 0.51],
    "example2_ms_per_sample": 11.1,
    "example2_split": {"discrete.atom_valuation": 0.69, "verify.lp": 0.19,
                       "verify.pmf_build": 0.12},
}


class Spans:
    def __init__(self, path):
        data = json.loads(path.read_text())
        self.spans = data["spans"]
        self.extra = {int(k): v for k, v in data["extra"].items()}

    def total_s(self, name, job_prefix=""):
        return sum(s[2] - s[1] for s in self.spans
                   if s[0] == name and (s[4] or "").startswith(job_prefix)) / 1e9

    def calls(self, name):
        return sum(1 for s in self.spans if s[0] == name)


def _share(part, whole):
    return round(part / whole, 4) if whole else None


def sweep(sp: Spans) -> dict:
    n, obj_ns, av_ns = defaultdict(int), defaultdict(int), defaultdict(int)
    for sid, (name, t0, t1, parent, _) in enumerate(sp.spans):
        if name == "schemes.objective":
            scheme = sp.extra[sid]["scheme"]
            n[scheme] += 1
            obj_ns[scheme] += t1 - t0
        elif (name == "gaussian.atom_valuation" and parent >= 0
              and sp.spans[parent][0] == "schemes.objective"):
            av_ns[sp.extra[parent]["scheme"]] += t1 - t0
    return {
        "objective_ms": {s: round(obj_ns[s] / n[s] / 1e6, 4) for s in sorted(n)},
        "atom_valuation_us": {s: round(av_ns[s] / n[s] / 1e3, 1) for s in sorted(n)},
        "atom_valuation_share": {s: _share(av_ns[s], obj_ns[s]) for s in sorted(n)},
        "objective_share_of_wall": _share(sum(obj_ns.values()) / 1e9, sp.total_s("job")),
        "rsum_star_share_of_wall": _share(sp.total_s("schemes.rsum_star"), sp.total_s("job")),
    }


def zcheck(sp: Spans) -> dict:
    total = sp.total_s("verify.example2_run")
    samples = sp.calls("verify.pmf_build")
    parts = ("discrete.atom_valuation", "verify.lp", "verify.pmf_build")
    return {
        "ms_per_sample": round(total / samples * 1e3, 4),
        "split": {p: _share(sp.total_s(p), total) for p in parts},
        "parse_atom_per_sample": round(sp.calls("atoms.parse_atom") / samples, 2),
    }


def project(sp: Spans) -> dict:
    jobs = defaultdict(list)
    for name, t0, t1, _, job in sp.spans:
        if name == "job":
            jobs[job].append((t1 - t0) / 1e9)
    per_job = {j: round(statistics.median(v), 4) for j, v in sorted(jobs.items())}
    valuation = sum(sum(v) for j, v in jobs.items() if j.startswith("valuation:"))
    return {
        "job_s": per_job,
        "symbolic_s": round(sum(v for j, v in per_job.items() if j.startswith("symbolic:")), 4),
        "eliminate_all_share_of_valuation_jobs": _share(
            sp.total_s("polytope.eliminate_all", "valuation:"), valuation),
    }


def audit(sp: Spans) -> dict:
    networks = sp.calls("gapaudit.audit")
    logdet = sp.total_s("gaussian.capacity_logdet")
    return {
        "capacity_logdet_per_network": round(sp.calls("gaussian.capacity_logdet") / networks, 2),
        "capacity_logdet_share": _share(logdet, sp.total_s("job")),
    }


DERIVED = {"sweep": sweep, "zcheck": zcheck, "project": project, "audit": audit}


def main() -> int:
    out = {"roadmap": ROADMAP, "workloads": {}}
    for name, derive in DERIVED.items():
        subprocess.run([sys.executable, str(runenv.ROOT / "bench" / "run.py"),
                        "--workload", name, "--seed", "0", "--trace", "1", "--seconds", "20"],
                       check=True, cwd=runenv.ROOT, stdout=subprocess.DEVNULL)
        result = json.loads((runenv.OUT / f"result-{name}-s0-t1.json").read_text())
        out["environment"] = result["environment"]
        out["workloads"][name] = {
            "speed_probe_s": round(result["environment"]["speed_probe_s"], 5),
            "untraced_wall_s": round(statistics.median(result["walls_untraced"]), 4),
            "traced_wall_s": round(statistics.median(result["walls_traced"]), 4),
            "per_layer": {k: m["value"] for k, m in result["metrics"].items()
                          if m["value"] not in (0, 0.0)},
            "derived": derive(Spans(runenv.OUT / f"spans-{name}-s0.json")),
        }
    path = runenv.ROOT / "bench" / "baseline.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(json.dumps({k: v["derived"] for k, v in out["workloads"].items()}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
