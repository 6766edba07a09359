import subprocess
import sys

import numpy as np
import pytest

from cranbounds import discrete, verify
from cranbounds.discrete import Channel


def test_example1_noiseless_hop_reaches_capacity():
    ident = Channel.make([("X1", 2)], [("Y1", 2)], np.eye(2))
    rep = verify.example1_run(ident, 0.5, samples=200, seed=0)
    assert rep.verdict == "confirmed"
    assert rep.values["capacity"] == pytest.approx(0.5, abs=1e-12)
    assert abs(rep.values["margin"]) <= 1e-6


def test_example1_useless_channel():
    bsc_half = Channel.make([("X1", 2)], [("Y1", 2)], np.full((2, 2), 0.5))
    rep = verify.example1_run(bsc_half, 0.4, samples=100, seed=0)
    assert rep.values["capacity"] == pytest.approx(0.0, abs=1e-9)
    assert rep.verdict == "confirmed"


def test_example1_bsc_strict_gap():
    eps = 0.1
    bsc = Channel.make([("X1", 2)], [("Y1", 2)], [[1 - eps, eps], [eps, 1 - eps]])
    rep = verify.example1_run(bsc, 0.3, samples=1500, seed=1)
    assert rep.values["capacity"] == pytest.approx(0.3, abs=1e-9)
    assert rep.values["margin"] > 0
    assert rep.verdict == "sampled-consistent"


def test_example1_rejects_multiterminal():
    ch = Channel.from_map([("X1", 2), ("X2", 2)], [("Y1", 2)], lambda a, b: a)
    with pytest.raises(ValueError):
        verify.example1_run(ch, 0.3)


def test_zchannel_witness_values():
    p = verify.zchannel_pmf()
    assert discrete.entropy(p, {"Y2"}) == 1.0
    assert discrete.mutual_info(p, {"U1"}, {"Y1"}) == 1.0
    assert discrete.mutual_info(p, {"U2"}, {"Y2"}) == 1.0
    assert discrete.mutual_info(p, {"U1"}, {"U2"}) == 0.0


def test_example2_small_sweep():
    rep = verify.example2_run(samples=150, seed=3)
    assert rep.verdict == "sampled-consistent"
    assert rep.values["compression_member"]
    assert rep.values["compression_min_slack"] == 0.0
    assert rep.values["gds_hits"] == 0


def test_gds_membership_degenerate_pmf_is_origin_only():
    member = verify._GdsMembership()
    caps = {"C1": 1.0, "C2": 1.0, "C12": 0.0, "C21": 0.0}
    consts = verify.zchannel_pmf()  # reuse variables; build degenerate below
    deg = discrete.JointPmf.make(
        [("U0", 1), ("V0", 1), ("U1", 1), ("V1", 1), ("U2", 1), ("V2", 1),
         ("Y1", 1), ("Y2", 1)], np.ones(1).reshape(1, 1, 1, 1, 1, 1, 1, 1))
    vec = member.valuation(deg, caps)
    assert member.contains(vec, 0.0, 0.0)
    assert not member.contains(vec, 0.05, 0.0)
    assert not member.contains(vec, 0.0, 0.05)


def test_gds_membership_lp_agrees_with_exact_projection():
    """Cross-check the LP feasibility route against the exact rational
    elimination route on a subsample."""
    from cranbounds import polytope
    member = verify._GdsMembership()
    caps = {"C1": 1.0, "C2": 1.0, "C12": 0.0, "C21": 0.0}
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(15):
        pmf = verify.random_gds_pmf_zchannel(rng)
        vec = member.valuation(pmf, caps)
        for r1, r2 in [(1.0, 1.0), (0.3, 0.3), (0.6, 0.2)]:
            lp = member.contains(vec, r1, r2)
            resolved = polytope.resolve_atoms(
                member.system, dict(zip(member.atoms, vec)))
            cons = []
            for c in resolved.constraints:
                lhs = {k: q for k, q in c.lhs if k in member.aux}
                shift = sum(float(q) * (r1 if k == "R1" else r2)
                            for k, q in c.lhs if k in ("R1", "R2"))
                cons.append(polytope.LinearConstraint.make(
                    lhs, polytope.AffineExpr((), c.rhs.const - polytope.Q(shift))))
            pinned = polytope.ConstraintSystem(list(member.aux), cons)
            for r in member.aux:
                pinned.add({r: -1}, polytope.AffineExpr.constant(0))
            exact = polytope.numeric_feasible(pinned)
            assert lp == exact, (r1, r2)
            checked += 1
    assert checked == 45


def test_package_imports_without_scipy():
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
        "import cranbounds\n"
        "from cranbounds import verify\n"
        "print(verify.example1_run(cranbounds.Channel.make([('X1', 2)], [('Y1', 2)],"
        " [[1.0, 0.0], [0.0, 1.0]]), 0.5, samples=5).verdict)\n"
        "try:\n"
        "    verify.linprog([0.0])\n"
        "except ImportError:\n"
        "    print('linprog needs scipy')\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["confirmed", "linprog needs scipy"]
