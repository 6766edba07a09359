import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fme_oracle
from conftest import rhs_value
from cranbounds import discrete, verify
from cranbounds.discrete import Channel
from lp_oracle import lp_contains


def by_name(member, values):
    """A membership check's atom vector as a valuation by atom name."""
    return dict(zip(member.rows.atoms, values.tolist()))


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


def test_example1_takes_zero_samples_but_not_fewer():
    ident = Channel.make([("X1", 2)], [("Y1", 2)], np.eye(2))
    rep = verify.example1_run(ident, 0.5, samples=0)
    assert rep.verdict == "confirmed" and rep.values["samples"] == 0
    with pytest.raises(ValueError, match="samples must be an integer of at least 0, got -1"):
        verify.example1_run(ident, 0.5, samples=-1)


@pytest.mark.parametrize("samples", [0, -3])
def test_example2_needs_a_sample(samples):
    with pytest.raises(ValueError, match=f"samples must be an integer of at least 1, got {samples}"):
        verify.example2_run(samples=samples)


@pytest.mark.parametrize("samples", [True, 1.5])
def test_sample_counts_take_the_integer_rule(samples):
    """True ran one sample and reported `"samples": true`; 1.5 raised
    TypeError from `range`."""
    ident = Channel.make([("X1", 2)], [("Y1", 2)], np.eye(2))
    for run, lo in ((lambda: verify.example1_run(ident, 0.5, samples=samples), 0),
                    (lambda: verify.example2_run(samples=samples), 1)):
        with pytest.raises(ValueError, match=f"samples must be an integer of at least {lo}, "
                                             f"got {samples!r}"):
            run()


def test_sample_counts_may_be_numpy_integers():
    ident = Channel.make([("X1", 2)], [("Y1", 2)], np.eye(2))
    rep = verify.example1_run(ident, 0.5, samples=np.int64(3))
    assert rep.values["samples"] == 3 and type(rep.values["samples"]) is int
    rep = verify.example2_run(samples=np.int32(2), seed=1)
    assert rep.values["gds_samples"] == 2 and type(rep.values["gds_samples"]) is int


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
    val = member.valuation(deg, caps)
    for r1, r2, inside in [(0.0, 0.0, True), (0.05, 0.0, False), (0.0, 0.05, False)]:
        assert member.contains_screened(val, r1, r2) == inside
        assert lp_contains(member, val, r1, r2) == inside


def test_gds_membership_rhs_is_each_row_evaluated_at_the_rate_pair():
    member = verify._GdsMembership()
    val = member.valuation(verify.random_gds_pmf_zchannel(np.random.default_rng(4)), ZCAPS)
    b = member.rhs(val, 0.7, 0.2, slack=1e-6)
    for bi, c in zip(b, member.system.constraints):
        shift = 0.7 * float(c.coeff("R1")) + 0.2 * float(c.coeff("R2"))
        assert bi == pytest.approx(rhs_value(c.rhs, by_name(member, val)) - shift - 1e-6,
                                   abs=1e-12)
    aux = member.system.variables[2:]
    assert member.A_int.tolist() == [[c.coeff(v) for v in aux] for c in member.system.constraints]


def test_gds_membership_lp_agrees_with_exact_projection():
    """Cross-check the in-package LP against the exact rational elimination
    route on a subsample."""
    from cranbounds import polytope
    member = verify._GdsMembership()
    aux = member.system.variables[2:]
    caps = {"C1": 1.0, "C2": 1.0, "C12": 0.0, "C21": 0.0}
    rng = np.random.default_rng(9)
    checked = []
    for _ in range(15):
        pmf = verify.random_gds_pmf_zchannel(rng)
        val = member.valuation(pmf, caps)
        for r1, r2 in [(0.0, 0.0), (0.01, 0.005), (1.0, 1.0), (0.3, 0.3), (0.6, 0.2)]:
            lp = verify.linprog(member.A, member.rhs(val, r1, r2))[0] <= verify.LP_TOL
            resolved = polytope.resolve_atoms(member.system, by_name(member, val))
            cons = []
            for c in resolved.constraints:
                lhs = {k: q for k, q in c.lhs if k in aux}
                shift = sum(float(q) * (r1 if k == "R1" else r2)
                            for k, q in c.lhs if k in ("R1", "R2"))
                cons.append(polytope.LinearConstraint.make(
                    lhs, polytope.AffineExpr((), c.rhs.const - polytope.Q(shift))))
            pinned = polytope.ConstraintSystem(aux, cons)
            for r in aux:
                pinned.add({r: -1}, polytope.AffineExpr.constant(0))
            exact = fme_oracle.numeric_feasible(pinned)
            assert lp == exact, (r1, r2)
            checked.append(lp)
    assert len(checked) == 75 and 0 < sum(checked) < 75  # both verdicts occur


def test_package_imports_without_scipy():
    """Every module imports, and the data-sharing check runs, with any
    scipy import raising ImportError."""
    code = (
        "import importlib, pkgutil, sys\n"
        "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
        "import cranbounds\n"
        "for m in pkgutil.iter_modules(cranbounds.__path__):\n"
        "    importlib.import_module('cranbounds.' + m.name)\n"
        "from cranbounds import verify\n"
        "print(verify.example2_run(samples=20, seed=0).verdict)\n"
        "print(sorted(n for n, m in sys.modules.items() if n.startswith('scipy') and m))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["sampled-consistent", "[]"]


ZCAPS = {"C1": 1.0, "C2": 1.0, "C12": 0.0, "C21": 0.0}
RATE_PAIRS = [(0.0, 0.0), (0.3, 0.3), (0.6, 0.2), (1.0, 1.0)]


def _banked_member(samples=12, seed=0):
    """A membership check whose bank was filled from earlier samples."""
    member = verify._GdsMembership()
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        val = member.valuation(verify.random_gds_pmf_zchannel(rng), ZCAPS)
        for r1, r2 in RATE_PAIRS:
            member.contains_screened(val, r1, r2, slack=1e-6)
    return member


def _exactly_sound(member, y):
    """y A >= 0 over the auxiliary rates, in the system's own rationals."""
    cols = {v: Fraction(0) for v in member.system.variables[2:]}
    for yi, c in zip(y, member.system.constraints):
        for k, q in c.lhs:
            if k in cols:
                cols[k] += int(yi) * q
    return all(v >= 0 for v in cols.values())


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2**32), st.sampled_from([0.0, 1e-6]))
def test_screened_decision_equals_lp_only_oracle(seed, slack):
    member = _banked_member()
    assert len(member.certificates) > 0
    rng = np.random.default_rng(seed)
    screened_before = member.screened
    for _ in range(3):
        val = member.valuation(verify.random_gds_pmf_zchannel(rng), ZCAPS)
        for r1, r2 in RATE_PAIRS:
            assert (member.contains_screened(val, r1, r2, slack)
                    == lp_contains(member, val, r1, r2, slack)), (r1, r2)
    assert member.screened > screened_before


def test_banked_certificates_are_exact_integer_farkas_vectors():
    member = _banked_member(samples=40)
    assert 0 < len(member.certificates) <= verify._BANK_CAP
    for y in member.certificates:
        assert np.all(y >= 0) and np.array_equal(y, np.round(y))
        assert _exactly_sound(member, y)


def test_bank_refuses_unsound_certificate():
    member = verify._GdsMembership()
    rows = [c.lhs for c in member.system.constraints]
    # a covering row -Ru0 - Ru1 <= ... plus the packing row Ru0 <= ...
    # leaves one negative column of y A: -Ru1
    cover = rows.index(next(r for r in rows if dict(r) == {"Ru0": -1, "Ru1": -1}))
    pack = rows.index(next(r for r in rows if dict(r) == {"Ru0": 1}))
    y = np.zeros(len(rows))
    y[[cover, pack]] = 1.0
    assert (y @ member.A).min() == -1.0
    b = -np.ones(len(rows))  # y screens b, so only y A >= 0 can refuse it
    assert not member.admit(y, b)
    assert len(member.certificates) == 0
    # the certificate the bank learns is admitted; nudged towards the
    # covering row it loses exactness and is refused
    rng = np.random.default_rng(0)
    val = member.valuation(verify.random_gds_pmf_zchannel(rng), ZCAPS)
    b = member.rhs(val, 1.0, 1.0, 1e-6)
    assert not member.contains_screened(val, 1.0, 1.0, 1e-6)
    assert len(member.certificates) == 1  # learnt from the LP's dual
    good = member.certificates[0]
    nudged = good.copy()
    nudged[cover] += 1e-3
    assert not member.admit(nudged, b)
    assert not member.admit(good, -b)  # sound, but proves nothing about -b
    assert len(member.certificates) == 1


def test_bank_refuses_a_certificate_that_float_arithmetic_would_pass():
    """Entries near 2**52: summed in floats in row order, the Ru0 column of
    y A reads 0, since -(2**53 + 1) rounds to -2**53; its exact value is -1."""
    member = verify._GdsMembership()
    rows = [dict(c.lhs) for c in member.system.constraints]
    y = np.zeros(len(rows))
    for lhs, v in [({"Ru0": -1, "Rv1": -1}, 2**52), ({"Ru0": -1, "Rv2": -1}, 2**52 + 1),
                   ({"Ru0": 1}, 2**52), ({"Ru0": 1, "Ru2": 1}, 2**52),
                   ({"Rv1": 1}, 2**52), ({"Rv2": 1}, 2**52 + 1)]:
        y[rows.index(lhs)] = v
    support = np.flatnonzero(y)
    exact = [sum(int(y[i]) * int(member.A[i, j]) for i in support) for j in range(6)]
    in_floats = [sum(float(y[i]) * member.A[i, j] for i in support) for j in range(6)]
    assert exact == [-1, 0, 2**52, 0, 0, 0] and min(in_floats) == 0.0
    b = -np.ones(len(rows))  # y screens b, so only y A >= 0 can refuse it
    assert not member.admit(y, b)
    assert len(member.certificates) == 0
    y[rows.index({"Ru0": 1})] += 1  # now y A >= 0 exactly
    assert member.admit(y, b)
    assert member.certificates.tolist() == [y.tolist()]


def test_example2_run_matches_lp_only_loop():
    samples, seed = 120, 11
    rep = verify.example2_run(samples=samples, seed=seed)
    member = verify._GdsMembership()
    rng = np.random.default_rng(seed)
    hits = sum(lp_contains(member, member.valuation(verify.random_gds_pmf_zchannel(rng), ZCAPS),
                           1.0, 1.0, slack=verify.GDS_SLACK)
               for _ in range(samples))
    assert rep.values["gds_hits"] == hits
    assert rep.verdict == ("sampled-consistent" if hits == 0 else "failed")
    assert rep.values["gds_screened"] > 0
    assert rep.values["gds_certificates"] > 0


def test_full_bank_sends_every_sample_to_the_lp(monkeypatch):
    monkeypatch.setattr(verify, "_BANK_CAP", 0)
    calls = []
    real = verify.linprog

    def counting_linprog(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "linprog", counting_linprog)
    rep = verify.example2_run(samples=10, seed=3)
    assert rep.values["gds_screened"] == 0
    assert rep.values["gds_certificates"] == 0
    assert rep.values["gds_hits"] == 0
    assert len(calls) == 10


def test_containment_cut_is_lp_tol():
    """Raising every row of b by c lowers the LP's t by c, so a slack of
    f * LP_TOL - t puts the sample at t = f * LP_TOL, either side of the cut."""
    member = verify._GdsMembership()
    val = member.valuation(verify.random_gds_pmf_zchannel(np.random.default_rng(0)), ZCAPS)
    t = verify.linprog(member.A, member.rhs(val, 1.0, 1.0))[0]
    assert t > 1e-3
    for f, inside in [(0.5, True), (2.0, False)]:
        assert member.contains_screened(val, 1.0, 1.0, slack=f * verify.LP_TOL - t) == inside


def test_screen_threshold_is_a_millionth_of_the_l1_norm():
    member = verify._GdsMembership()
    rng = np.random.default_rng(0)
    val = member.valuation(verify.random_gds_pmf_zchannel(rng), ZCAPS)
    assert not member.contains_screened(val, 1.0, 1.0)
    y = member.certificates[0]
    b = member.rhs(val, 1.0, 1.0)

    def at_margin(tau):  # b moved along y until y @ b = -tau * ||y||_1
        return b - (y @ b + tau * y.sum()) * y / (y @ y)

    assert member.screens(at_margin(2e-6))
    assert not member.screens(at_margin(0.5e-6))
    assert not member.screens(at_margin(-1.0))
