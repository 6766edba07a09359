"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with `pytest tests/test_acceptance.py -v -s`."""

import time

import numpy as np
import pytest

from conftest import (criterion1_networks, rand_caps, scenario_cor4, scenario_cor5,
                      scenario_gcomp, scenario_scheme1, scenario_scheme2,
                      scenario_scheme3)
from cranbounds import discrete, gapaudit, polytope, regions, schemes, verify
from cranbounds.discrete import Channel
from cranbounds.schemes import OptimizerBudget


def report(criterion: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_gds1_closed_form():
    """Optimized common-codeword sum rate equals min(C+T, 2C, Rsum*) on 20
    random symmetric instances, within 1e-3 bits, under 60 s total."""
    t0 = time.monotonic()
    worst = 0.0
    for k, net in enumerate(criterion1_networks()):
        C, T = float(net.C[0]), float(net.Ccoop[0, 1])
        star = schemes.rsum_star(net)
        ev = schemes.optimize_scheme(
            "GDS-I", net, OptimizerBudget(restarts=6, seed=2000 + k))
        target = min(C + T, 2.0 * C, star)
        worst = max(worst, abs(ev.sum_rate - target))
    elapsed = time.monotonic() - t0
    report("1 (closed-form GDS-I)",
           worst <= 1e-3 and elapsed < 60.0,
           f"worst |diff|={worst:.2e}, {elapsed:.1f}s for 20 instances")


def _agreement(proj, explicit, valuations, seed):
    rep = polytope.regions_equal_sampled(proj, explicit, valuations,
                                         n_points=1000, seed=seed)
    return rep


def test_criterion_2_fme_oracle_equivalence(theorem1, projections):
    """Projected data-sharing system matches each explicit corollary region
    on 1000 sampled points x 20 pmf-induced valuations per substitution."""
    rng = np.random.default_rng(1002)
    failures = []
    checked = 0

    # common-codewords / private-codewords / single-BS / diamond: symbolic
    setups = [
        ("scheme-I", regions.corollary1_system(), scenario_scheme1, None),
        ("scheme-III", regions.corollary3_system(), scenario_scheme3, "side"),
        ("cor4", regions.corollary4_system(), scenario_cor4, "cor4caps"),
        ("cor5", regions.corollary5_system(), scenario_cor5, None),
    ]
    side_atoms = set()
    for lhs, rhs in regions.corollary3_side_conditions():
        side_atoms.add(lhs.name)
        side_atoms.update(r.name for r in rhs)
    for name, explicit, scenario, mode in setups:
        proj = projections[name]
        atoms = sorted(proj.atoms() | explicit.atoms() | (side_atoms if mode == "side" else set()))
        vals = []
        guard = 0
        while len(vals) < 20 and guard < 400:
            guard += 1
            caps = rand_caps(rng)
            if mode == "cor4caps":
                caps.update({"C2": 0.0, "C12": 0.0, "C21": 0.0})
            pmf = scenario(rng)
            v = discrete.atom_valuation(pmf, atoms, constants=caps)
            if mode == "side" and not regions.corollary3_feasible(v):
                continue
            vals.append(v)
        rep = _agreement(proj, explicit, vals, seed=3000 + len(name))
        checked += rep["points_checked"]
        if not rep["agree"]:
            failures.append((name, rep["witnesses"][:2]))

    # all-independent structure: resolve atoms per valuation, then project
    cor2 = regions.corollary2_system()
    atoms2 = sorted(theorem1.atoms() | cor2.atoms())
    for k in range(20):
        caps = rand_caps(rng)
        pmf = scenario_scheme2(rng)
        v = discrete.atom_valuation(pmf, atoms2, constants=caps)
        proj = regions.gds_project(theorem1, "scheme-II", valuation=v)
        rep = _agreement(proj, cor2, [v], seed=4000 + k)
        checked += rep["points_checked"]
        if not rep["agree"]:
            failures.append(("scheme-II", rep["witnesses"][:2]))
            break
    report("2 (FME oracle equivalence)", not failures,
           f"{checked} membership comparisons across 5 substitutions"
           + (f"; failures: {failures}" if failures else ""))


def test_criterion_3_ddf_equals_degenerate_cloud_center():
    """Compression region with a degenerate cloud center equals the
    decode-forward region for 2 BSs and 2 users on 20 random pmfs."""
    rng = np.random.default_rng(1003)
    t2 = regions.gcomp_theorem2_system()
    ddf = regions.ddf_p1_system(2, 2)
    atoms = sorted(t2.atoms() | ddf.atoms())
    bad = 0
    checked = 0
    for k in range(20):
        pmf = scenario_gcomp(rng, x0_size=1)
        v = discrete.atom_valuation(pmf, atoms, constants=rand_caps(rng))
        rep = _agreement(t2, ddf, [v], seed=5000 + k)
        checked += rep["points_checked"]
        bad += 0 if rep["agree"] else 1
    report("3 (degenerate cloud center = decode-forward)", bad == 0,
           f"{checked} membership comparisons on 20 pmfs, {bad} disagreements")


def test_criterion_4_zchannel():
    """(1,1) in the compression region with zero tolerance; 10^4 sampled
    data-sharing laws never contain it with slack above 1e-6."""
    rep = verify.example2_run(samples=10_000, seed=1004)
    ok = (rep.values["compression_member"]
          and rep.values["compression_min_slack"] == 0.0
          and rep.values["gds_hits"] == 0)
    report("4 (Z-network rate pair)", ok,
           f"member with slack {rep.values['compression_min_slack']}, "
           f"{rep.values['gds_hits']} of {rep.values['gds_samples']} "
           f"data-sharing laws contain (1,1)")


def test_criterion_5_single_bs_compression_gap():
    """BSC(0.1) with C1=0.3: capacity 0.300000 and the best sampled
    compression rate strictly below; noiseless hop reaches capacity."""
    eps = 0.1
    bsc = Channel.make([("X1", 2)], [("Y1", 2)], [[1 - eps, eps], [eps, 1 - eps]])
    noisy = verify.example1_run(bsc, 0.3, samples=4000, seed=1005)
    ident = Channel.make([("X1", 2)], [("Y1", 2)], np.eye(2))
    clean = verify.example1_run(ident, 0.5, samples=400, seed=1005)
    ok = (abs(noisy.values["capacity"] - 0.300000) <= 1e-6
          and noisy.values["margin"] > 0
          and abs(clean.values["margin"]) <= 1e-6)
    report("5 (single-BS compression gap)", ok,
           f"capacity={noisy.values['capacity']:.6f}, "
           f"margin={noisy.values['margin']:.4f}, "
           f"noiseless gap={clean.values['margin']:.2e}")


def test_criterion_6_gap_audit():
    """200 random networks, N, L in 1..4: inner <= outer on every cut, the
    worst gap within L/2 + min(N, L log2 N)/2, per-cut gap equal to the
    algebraic slack, under 60 s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(1006)
    all_pass = True
    formula_ok = True
    worst_gap, worst_bound = -np.inf, None
    for _ in range(200):
        net = gapaudit.random_network(rng)
        rep = gapaudit.audit(net)
        all_pass &= rep["pass"]
        formula = [[gapaudit.cut_gap_formula(len(s), len(d)) for d in rep["D"]] for s in rep["S"]]
        if np.any(np.abs(rep["outer"] - rep["inner"] - formula) > 1e-9):
            formula_ok = False
        if rep["max_gap"] > worst_gap:
            worst_gap, worst_bound = rep["max_gap"], rep["bound"]
    elapsed = time.monotonic() - t0
    report("6 (constant-gap audit)", all_pass and formula_ok and elapsed < 60.0,
           f"200 instances, worst gap {worst_gap:.3f} <= bound {worst_bound:.3f}, "
           f"{elapsed:.1f}s")


SWEEP_GRID = [0.5, 1.0, 2.0, 4.0, 6.0]


def _run_instance(P, g12, g21, T, seed):
    config = {"P": P, "G": [[1.0, g12], [g21, 1.0]], "C_grid": SWEEP_GRID,
              "T": T, "schemes": ["GDS-I", "GDS-II", "GDS-III", "GDS-TS", "GCOMP"],
              "seed": seed, "budget": {"restarts": 3, "iters": 2000}}
    rows = schemes.sweep_rows(config)
    curves = {}
    for r in rows:
        curves.setdefault(r["scheme"], []).append((r["C"], r["sum_rate"], r["cutset"]))
    return curves


def test_criterion_7_figure_properties():
    """Curve-level properties of the evaluation figures: monotone in C,
    below the cut-set reference, time sharing dominates each component, and
    with strong cooperation the data-sharing family dominates compression
    at every grid point."""
    t0 = time.monotonic()
    problems = []
    fig4 = _run_instance(1.0, 0.5, 0.5, 0.0, seed=1007)
    fig6 = _run_instance(100.0, 0.5, -0.5, 2.0, seed=1008)
    for label, curves in (("fig4", fig4), ("fig6", fig6)):
        for scheme, pts in curves.items():
            values = [v for _, v, _ in pts]
            if any(b < a - 1e-3 for a, b in zip(values, values[1:])):
                problems.append(f"{label}:{scheme} not nondecreasing {values}")
            if any(v > cut + 1e-3 for _, v, cut in pts):
                problems.append(f"{label}:{scheme} exceeds cut-set")
        for i in range(len(SWEEP_GRID)):
            ts = curves["GDS-TS"][i][1]
            for scheme in ("GDS-I", "GDS-II", "GDS-III"):
                if ts < curves[scheme][i][1] - 1e-9:
                    problems.append(f"{label}: time share below {scheme} at index {i}")
    for i, c in enumerate(SWEEP_GRID):
        ts = fig6["GDS-TS"][i][1]
        gc = fig6["GCOMP"][i][1]
        if ts < gc - 1e-3:
            problems.append(f"fig6: GDS-TS {ts:.4f} < GCOMP {gc:.4f} at C={c}")
    elapsed = time.monotonic() - t0
    report("7 (figure-level properties)", not problems,
           f"2 instances x {len(SWEEP_GRID)} grid points in {elapsed:.0f}s"
           + (f"; problems: {problems}" if problems else ""))


def test_criterion_8_information_measure_suite():
    """Chain rule, nonnegativity, total-correlation identity, pair identity,
    and the BSC(0.1) capacity fixed point."""
    rng = np.random.default_rng(1008)
    ok = True
    details = []
    for _ in range(30):
        p = discrete.random_joint_pmf(rng, [("A", 2), ("B", 3), ("C", 2)])
        h_ab = discrete.entropy(p, {"A", "B"})
        h_a = discrete.entropy(p, {"A"})
        h_b_c = discrete.entropy(p, {"A", "B"}) - h_a
        ok &= abs(h_ab - (h_a + h_b_c)) <= 1e-9
        i_ab = discrete.mutual_info(p, {"A"}, {"B"})
        ok &= i_ab >= 0
        gamma = discrete.total_correlation(p, {"A", "B", "C"})
        direct = (discrete.entropy(p, {"A"}) + discrete.entropy(p, {"B"})
                  + discrete.entropy(p, {"C"}) - discrete.entropy(p, {"A", "B", "C"}))
        ok &= abs(gamma - direct) <= 1e-9
        ok &= abs(discrete.total_correlation(p, {"A", "B"}) - i_ab) <= 1e-9
    eps = 0.1
    bsc = Channel.make([("X", 2)], [("Y", 2)], [[1 - eps, eps], [eps, 1 - eps]])
    cap, _ = discrete.blahut_arimoto(bsc, tol=1e-12)
    ok &= abs(cap - 0.531004) <= 1e-5
    details.append(f"BSC(0.1) capacity {cap:.6f}")
    report("8 (information measures)", ok, "; ".join(details))
