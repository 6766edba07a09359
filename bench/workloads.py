"""The benchmark's workloads: seeded job lists and their output checks.

Every job calls the package only through its public entry points
(``cli.main``, ``regions.gds_project``, ``polytope.regions_equal_sampled``,
``gapaudit.audit`` and the discrete valuations that feed them), looked up as
module attributes so that the tracer's wrappers see the calls.  A job
returns its output as text; the workload's check turns that text into a
list of problems, empty when the output is correct.

Why these four workloads:

* ``sweep`` -- the Gaussian sum-rate optimizer (schemes -> gaussian ->
  regions -> polytope.numeric) on the paper's two figure configurations.
  No Fourier-Motzkin and no discrete work.
* ``zcheck`` -- the Z-network data-sharing check: Dirichlet pmf builds,
  discrete entropy atoms and one HiGHS LP per sample; no Gaussian work.
* ``project`` -- exact Fourier-Motzkin projections, symbolic (rows carrying
  atom terms) and per valuation (rows of rational constants), each checked
  against its explicit corollary.
* ``audit`` -- the constant-gap audit of random networks with N, L <= 4:
  many tiny log-determinants, the only workload for ``gapaudit`` and
  ``gaussian.capacity_logdet``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from cranbounds import cli, discrete, gapaudit, gaussian, polytope, regions
from runenv import OUT, ROOT

GOLDEN = ROOT / "tests" / "golden"
REFERENCE = json.loads((ROOT / "bench" / "reference.json").read_text())


class JobError(RuntimeError):
    pass


@dataclass(frozen=True)
class Job:
    id: str
    run: Callable[[], str]
    check: Callable[[str], list]


def run_cli(argv: list[str]) -> str:
    """Run ``cranbounds <argv>`` in process; its standard output is the
    job's output and any exit code but 0 is a failure."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise JobError(f"cranbounds {' '.join(argv)} exited {rc}: {err.getvalue().strip()}")
    return out.getvalue()


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

FIGURES = {
    "fig4": {"P": 1.0, "G": [[1.0, 0.5], [0.5, 1.0]], "T": 0.0},
    "fig6": {"P": 100.0, "G": [[1.0, 0.5], [-0.5, 1.0]], "T": 2.0},
}
SWEEP_SCHEMES = ["GDS-I", "GDS-II", "GDS-III", "GDS-TS", "GCOMP"]
# The seed draws the fronthaul grid: one capacity where the fronthaul binds
# and one where it does not, on both figures.  Restart 0 of the pattern search
# starts from a fixed point, so one restart does the same work for every seed.
# Below 200 iterations the cut-set column (whose rsum_star is searched with the
# same budget) can undercut GDS-II on fig6, so the full size stays at 200.
SWEEP_SIZES = {
    "full": {"restarts": 1, "iters": 200},
    "tiny": {"restarts": 1, "iters": 8},
}
# Sum rates printed with 6 decimals; ROADMAP item 3 allows 1e-6 of drift.
SUMRATE_TOL = 1e-6
CUTSET_TOL = 1e-3


def _write_config(name: str, config: dict) -> str:
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(config))
    return str(path)


def sweep_rows(text: str) -> list[dict]:
    return [{"C": float(r["C"]), "scheme": r["scheme"], "sum_rate": float(r["sum_rate"]),
             "cutset": float(r["cutset"])} for r in csv.DictReader(io.StringIO(text))]


def check_sweep(text: str, reference=None) -> list[str]:
    problems = []
    rows = sweep_rows(text)
    if not rows:
        return ["empty CSV"]
    curves: dict[str, list[dict]] = {}
    for r in rows:
        curves.setdefault(r["scheme"], []).append(r)
        if r["sum_rate"] > r["cutset"] + CUTSET_TOL:
            problems.append(f"{r['scheme']} at C={r['C']} exceeds the cut-set value")
    if sorted(curves) != sorted(SWEEP_SCHEMES):
        problems.append(f"schemes {sorted(curves)}")
    for scheme, pts in curves.items():
        pts.sort(key=lambda r: r["C"])
        vals = [r["sum_rate"] for r in pts]
        if any(b < a - SUMRATE_TOL for a, b in zip(vals, vals[1:])):
            problems.append(f"{scheme} not nondecreasing in C: {vals}")
    for i, ts in enumerate(curves.get("GDS-TS", [])):
        for part in ("GDS-I", "GDS-II", "GDS-III"):
            if ts["sum_rate"] < curves[part][i]["sum_rate"]:
                problems.append(f"GDS-TS below {part} at C={ts['C']}")
    if reference is not None:
        got = [[r["C"], r["scheme"], r["sum_rate"]] for r in rows]
        if len(got) != len(reference) or any(
                g[:2] != w[:2] or abs(g[2] - w[2]) > SUMRATE_TOL
                for g, w in zip(got, reference)):
            problems.append("sum rates differ from the seed-commit reference")
    return problems


class Sweep:
    name = "sweep"

    def warmup(self):
        config = dict(FIGURES["fig4"], C_grid=[1.0], seed=0, schemes=SWEEP_SCHEMES,
                      budget={"restarts": 1, "iters": 1})
        run_cli(["sumrate-sweep", _write_config("warmup-sweep.json", config)])

    def jobs(self, seed: int, size: str) -> list[Job]:
        s = SWEEP_SIZES[size]
        rng = np.random.default_rng(seed)
        c_grid = [round(float(rng.uniform(0.25, 1.0)), 3), round(float(rng.uniform(4.0, 8.0)), 3)]
        ref = REFERENCE["sweep"]
        jobs = []
        for fig, net in FIGURES.items():
            config = dict(net, C_grid=c_grid, seed=seed, schemes=SWEEP_SCHEMES,
                          budget={"restarts": s["restarts"], "iters": s["iters"]})
            path = _write_config(f"sweep-{fig}-{size}-s{seed}.json", config)
            reference = (ref["rows"][fig]
                         if size == ref["size"] and seed == ref["seed"] else None)
            jobs.append(Job(fig, lambda p=path: run_cli(["sumrate-sweep", p]),
                            lambda text, r=reference: check_sweep(text, r)))
        return jobs

    @staticmethod
    def summary(outputs: dict[str, str]) -> dict:
        rates = [r["sum_rate"] for text in outputs.values() for r in sweep_rows(text)]
        return {"sumrate_mean_bits": {"value": float(np.mean(rates)), "unit": "bit"}}


# ---------------------------------------------------------------------------
# zcheck
# ---------------------------------------------------------------------------

ZCHECK_SAMPLES = {"full": 300, "tiny": 4}


def check_zcheck(text: str, samples: int) -> list[str]:
    (report,) = json.loads(text)
    v = report["values"]
    problems = []
    if report["verdict"] != "sampled-consistent":
        problems.append(f"verdict {report['verdict']}")
    if v["gds_hits"] != 0:
        problems.append(f"gds_hits {v['gds_hits']}")
    if v["gds_samples"] != samples:
        problems.append(f"gds_samples {v['gds_samples']}")
    if not (v["compression_member"] and v["compression_min_slack"] == 0.0):
        problems.append("compression witness is not a member with zero slack")
    return problems


class ZCheck:
    name = "zcheck"

    def warmup(self):
        run_cli(["verify-examples", "--example", "2", "--samples", "1"])

    def jobs(self, seed: int, size: str) -> list[Job]:
        n = ZCHECK_SAMPLES[size]
        argv = ["verify-examples", "--example", "2", "--samples", str(n), "--seed", str(seed)]
        return [Job("example2", lambda: run_cli(argv), lambda text: check_zcheck(text, n))]


# ---------------------------------------------------------------------------
# project
# ---------------------------------------------------------------------------

def _independent(rng, aux):
    probs = np.ones(())
    for _, size in aux:
        probs = np.multiply.outer(probs, rng.dirichlet(np.ones(size)))
    return discrete.JointPmf.make(aux, probs)


def _scenario(rng, aux, maps, inputs, outputs, independent=False):
    """Random law over `aux`, binary symbol maps ``X = f(args)``, a random
    channel from `inputs` to `outputs`, marginalized to aux and outputs."""
    p = _independent(rng, aux) if independent else discrete.random_joint_pmf(rng, aux)
    for x, args in maps:
        table = rng.integers(0, 2, size=tuple(p.size_of(a) for a in args))
        p = discrete.add_deterministic(p, x, 2, args, lambda *i, t=table: int(t[i]))
    in_sizes = tuple(p.size_of(x) for x in inputs)
    out_sizes = tuple(s for _, s in outputs)
    t = rng.dirichlet(np.ones(int(np.prod(out_sizes))), size=in_sizes)
    ch = discrete.Channel.make([(x, p.size_of(x)) for x in inputs], outputs,
                               t.reshape(in_sizes + out_sizes))
    p = discrete.compose(p, ch)
    return discrete.marginalize(p, [n for n, _ in aux] + [n for n, _ in outputs])


def _caps(rng, single_bs=False):
    caps = {"C1": float(rng.uniform(0, 2.5)), "C2": float(rng.uniform(0, 2.5)),
            "C12": float(rng.uniform(0, 1.25)), "C21": float(rng.uniform(0, 1.25))}
    if single_bs:
        caps.update(C2=0.0, C12=0.0, C21=0.0)
    return caps


B = 2
YY = [("Y1", 2), ("Y2", 2)]
AUX_II = [(n, B) for n in ("U0", "V0", "U1", "V1", "U2", "V2")]
SCENARIOS = {
    "scheme-I": lambda rng: _scenario(rng, [("U0", B), ("V0", B)],
                                      [("X1", ["U0", "V0"]), ("X2", ["U0", "V0"])],
                                      ["X1", "X2"], YY),
    "scheme-II": lambda rng: _scenario(rng, AUX_II,
                                       [("X1", ["U0", "V0", "U1", "V1"]),
                                        ("X2", ["U0", "V0", "U2", "V2"])],
                                       ["X1", "X2"], YY, independent=True),
    "scheme-III": lambda rng: _scenario(rng, [("U1", B), ("V1", B), ("U2", B), ("V2", B)],
                                        [("X1", ["U1", "V1"]), ("X2", ["U2", "V2"])],
                                        ["X1", "X2"], YY),
    "cor4": lambda rng: _scenario(rng, [("U", 3), ("V", 3)], [("X1", ["U", "V"])],
                                  ["X1"], YY),
    "cor5": lambda rng: _scenario(rng, [("U", B), ("X1", B), ("X2", B)], [],
                                  ["X1", "X2"], [("Y1", 3)]),
}
EXPLICIT = {
    "scheme-I": regions.corollary1_system,
    "scheme-II": regions.corollary2_system,
    "scheme-III": regions.corollary3_system,
    "cor4": regions.corollary4_system,
    "cor5": regions.corollary5_system,
}
PROJECT_SIZES = {
    "full": {"valuations": 3, "per_valuation": 3, "points": 1000},
    "tiny": {"valuations": 1, "per_valuation": 1, "points": 50},
}


def _side_atoms() -> set[str]:
    out = set()
    for lhs, rhs in regions.corollary3_side_conditions():
        out.add(lhs.name)
        out.update(r.name for r in rhs)
    return out


def _draw_inputs(rng, name: str, count: int) -> list:
    """(pmf, caps) pairs; scheme-III keeps only laws meeting its strict side
    conditions, where the explicit region is the right oracle."""
    side = sorted(_side_atoms())
    out = []
    for _ in range(400):
        if len(out) == count:
            return out
        caps = _caps(rng, single_bs=name == "cor4")
        pmf = SCENARIOS[name](rng)
        if name == "scheme-III" and not regions.corollary3_feasible(
                discrete.atom_valuation(pmf, side)):
            continue
        out.append((pmf, caps))
    raise JobError(f"could not draw {count} {name} inputs")


def _compare(proj, explicit, valuations, points: int, seed: int) -> str:
    rep = polytope.regions_equal_sampled(proj, explicit, valuations,
                                         n_points=points, seed=seed)
    return json.dumps({"projection": polytope.format_system(proj),
                       "agree": rep["agree"], "points_checked": rep["points_checked"],
                       "witnesses": rep["witnesses"][:2]}, sort_keys=True)


def check_projection(text: str) -> list[str]:
    rep = json.loads(text)
    if not rep["agree"]:
        return [f"projection disagrees with its corollary: {rep['witnesses']}"]
    return []


def _constraint_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if not line.startswith("#")]


def check_fme(text: str, golden: str) -> list[str]:
    if _constraint_lines(text) != _constraint_lines(golden):
        return ["fme output differs from tests/golden/cor4_projection.txt"]
    return []


class Project:
    name = "project"

    def __init__(self):
        self._theorem1 = None

    def theorem1(self):
        if self._theorem1 is None:
            self._theorem1 = regions.gds_theorem1_system()
        return self._theorem1

    def warmup(self):
        regions.gds_project(self.theorem1(), "cor4")

    def jobs(self, seed: int, size: str) -> list[Job]:
        s = PROJECT_SIZES[size]
        rng = np.random.default_rng(seed)
        t1 = self.theorem1()
        side = _side_atoms()
        jobs = []
        for k, name in enumerate(("scheme-I", "scheme-III", "cor4", "cor5")):
            explicit = EXPLICIT[name]()
            inputs = _draw_inputs(rng, name, s["valuations"])
            extra = side if name == "scheme-III" else set()

            def run(name=name, explicit=explicit, inputs=inputs, extra=extra, k=k):
                proj = regions.gds_project(t1, name)
                atoms = sorted(proj.atoms() | explicit.atoms() | extra)
                vals = [discrete.atom_valuation(pmf, atoms, constants=caps)
                        for pmf, caps in inputs]
                return _compare(proj, explicit, vals, s["points"], seed + k)

            jobs.append(Job(f"symbolic:{name}", run, check_projection))

        golden = (GOLDEN / "cor4_projection.txt").read_text()
        argv = ["fme", "-i", str(GOLDEN / "cor4_input.txt"), "-e", "Ru1,Rv1"]
        jobs.append(Job("fme:cor4", lambda: run_cli(argv), lambda t: check_fme(t, golden)))

        cor2 = EXPLICIT["scheme-II"]()
        atoms2 = sorted(t1.atoms() | cor2.atoms())
        for k, (pmf, caps) in enumerate(_draw_inputs(rng, "scheme-II", s["per_valuation"])):
            def run(pmf=pmf, caps=caps, k=k):
                v = discrete.atom_valuation(pmf, atoms2, constants=caps)
                proj = regions.gds_project(t1, "scheme-II", valuation=v)
                return _compare(proj, cor2, [v], s["points"], seed + 100 + k)

            jobs.append(Job(f"valuation:scheme-II:{k}", run, check_projection))
        return jobs


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

# One gap-audit over random shapes, plus every (N, L) shape with N, L <= 4
# audited equally often.  The cost of a network grows as 2^N (2^L - 1), so
# with shapes drawn at random the work of 1000 networks varies by about 9%
# (quartile spread) from seed to seed; drawing a fixed number of networks
# per shape keeps the work the same for every seed.
AUDIT_SIZES = {
    "full": {"instances": 100, "per_shape": 30},
    "tiny": {"instances": 5, "per_shape": 1},
}
AUDIT_SHAPES = [(n, l) for n in range(1, 5) for l in range(1, 5)]


def shaped_network(rng, N: int, L: int):
    """A network of `gapaudit.random_network`'s law with N base stations
    and L users."""
    G = rng.uniform(-2.0, 2.0, size=(L, N))
    P = float(rng.uniform(0.1, 100.0))
    C = rng.uniform(0.0, 5.0, size=N)
    Ccoop = rng.uniform(0.0, 5.0, size=(N, N))
    np.fill_diagonal(Ccoop, 0.0)
    return gaussian.CranNetwork.make(G, P, C, Ccoop)


def check_audit(text: str, instances: int) -> list[str]:
    report = json.loads(text)
    problems = []
    if not report["all_pass"]:
        problems.append(f"gap audit failed, worst {report['worst']}")
    if report["instances"] != instances:
        problems.append(f"instances {report['instances']}")
    return problems


def check_shaped(text: str, networks: int) -> list[str]:
    report = json.loads(text)
    failed = [i for i, ok in enumerate(report["pass"]) if not ok]
    problems = [f"networks {failed[:5]} fail the gap audit"] if failed else []
    if len(report["pass"]) != networks:
        problems.append(f"{len(report['pass'])} networks audited")
    return problems


class Audit:
    name = "audit"

    def warmup(self):
        run_cli(["gap-audit", "--instances", "1"])

    def jobs(self, seed: int, size: str) -> list[Job]:
        s = AUDIT_SIZES[size]
        n = s["instances"]
        argv = ["gap-audit", "--instances", str(n), "--seed", str(seed),
                "--nmax", "4", "--lmax", "4"]
        jobs = [Job("gap-audit", lambda: run_cli(argv), lambda text: check_audit(text, n))]
        rng = np.random.default_rng([seed, 1])
        for N, L in AUDIT_SHAPES:
            nets = [shaped_network(rng, N, L) for _ in range(s["per_shape"])]

            def run(nets=nets):
                reports = [gapaudit.audit(net) for net in nets]
                return json.dumps({"pass": [r["pass"] for r in reports],
                                   "max_gap": [r["max_gap"] for r in reports]})

            jobs.append(Job(f"shape:{N}x{L}", run,
                            lambda text, k=len(nets): check_shaped(text, k)))
        return jobs


WORKLOADS = {w.name: w for w in (Sweep(), ZCheck(), Project(), Audit())}
