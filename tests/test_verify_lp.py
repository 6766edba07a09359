"""The in-package phase-1 LP `verify.linprog` on the data-sharing system's
rows, held to HiGHS (`lp_oracle`) and, on a subsample, to exact rational
elimination (`fme_oracle.numeric_feasible`).  Every verdict must carry a
certificate that checks: an x >= 0 whose rows hold to within `LP_TOL`, or a
y >= 0 with y A >= 0 and y b < 0 in floats."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fme_oracle
from cranbounds import discrete, verify
from cranbounds.polytope import AffineExpr, ConstraintSystem, LinearConstraint
from lp_oracle import highs_feasible

ZCAPS = {"C1": 1.0, "C2": 1.0, "C12": 0.0, "C21": 0.0}
MEMBER = verify._GdsMembership()
A = MEMBER.A
AUX = MEMBER.system.variables[2:]


def solve_checked(b):
    """`verify.linprog` on b, with its verdict's certificate checked."""
    t, x, y = verify.linprog(A, b)
    assert x.shape == (A.shape[1],) and y.shape == (A.shape[0],)
    assert np.all(x >= 0) and np.all(y >= 0) and y.sum() <= 1 + 1e-12
    assert t == max(0.0, (A @ x - b).max())
    if t <= verify.LP_TOL:
        assert (A @ x - b).max() <= verify.LP_TOL
    else:
        assert (y @ A).min() >= -1e-9 and y @ b < 0
        assert -(y @ b) == pytest.approx(t, abs=1e-9 * (1 + np.abs(b).max()))
    return t


def exact_feasible(b):
    """Feasibility of ``A x <= b``, x >= 0 with b read exactly as rationals."""
    rows = [LinearConstraint.make({v: int(q) for v, q in zip(AUX, coeffs) if q},
                                  AffineExpr.constant(Fraction(float(bi))))
            for coeffs, bi in zip(MEMBER.A_int, b)]
    rows += [LinearConstraint.make({v: -1}, AffineExpr.constant(0)) for v in AUX]
    return fme_oracle.numeric_feasible(ConstraintSystem(AUX, rows))


def sample_b(seed, r1, r2, slack):
    rng = np.random.default_rng(seed)
    val = MEMBER.valuation(verify.random_gds_pmf_zchannel(rng), ZCAPS)
    return MEMBER.rhs(val, r1, r2, slack)


def random_b(seed):
    """A right-hand side that no pmf gives: |N(0, 1)| rows, up to five of
    them lowered by up to 4."""
    rng = np.random.default_rng(seed)
    b = np.abs(rng.normal(size=len(A)))
    k = rng.integers(0, 6)
    b[rng.integers(0, len(A), k)] -= rng.uniform(0, 4, k)
    return b


# The sampled laws' regions reach at most about 0.08 on the diagonal, so
# rate pairs are drawn where both verdicts occur.
RATE = st.floats(0, 0.08)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), RATE, RATE, st.sampled_from([0.0, 1e-6]), st.booleans())
def test_verdict_agrees_with_highs_and_certificate_checks(seed, r1, r2, slack, synthetic):
    b = random_b(seed) if synthetic else sample_b(seed, r1, r2, slack)
    t = solve_checked(b)
    assume(abs(t - verify.LP_TOL) > 1e-9)
    assert (t <= verify.LP_TOL) == highs_feasible(A, b)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32), RATE, RATE)
def test_verdict_agrees_with_exact_elimination(seed, r1, r2):
    b = sample_b(seed, r1, r2, 0.0)
    t = solve_checked(b)
    assume(not 1e-12 < t <= verify.LP_TOL + 1e-9)  # feasible only within tolerance
    assert (t <= verify.LP_TOL) == exact_feasible(b)


def test_nonnegative_b_is_feasible_at_the_origin():
    b = np.abs(np.random.default_rng(0).normal(size=len(A)))
    b[::3] = 0.0
    t, x, y = verify.linprog(A, b)
    assert t == 0.0 and not x.any() and not y.any()


def test_degenerate_pmf_is_origin_only():
    deg = discrete.JointPmf.make([(n, 1) for n, _ in verify._GDS_VARS], np.ones(1))
    val = MEMBER.valuation(deg, ZCAPS)
    assert solve_checked(MEMBER.rhs(val, 0.0, 0.0)) == 0.0
    for r1, r2 in [(0.05, 0.0), (0.0, 0.05)]:
        assert solve_checked(MEMBER.rhs(val, r1, r2)) > verify.LP_TOL


@pytest.mark.parametrize("seed", range(40))
def test_mostly_zero_b_terminates(seed):
    """Right-hand sides with many zero rows make a degenerate dual: Bland's
    rule must still end, with a checked verdict that HiGHS shares."""
    rng = np.random.default_rng(seed)
    b = rng.choice([-1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0], size=len(A))
    t = solve_checked(b)
    assert (t <= verify.LP_TOL) == highs_feasible(A, b)
    assert solve_checked(np.zeros(len(A))) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_b_raises(bad):
    b = sample_b(0, 1.0, 1.0, 0.0)
    b[7] = bad
    with pytest.raises(ValueError, match="must be finite"):
        verify.linprog(A, b)


def test_pivot_cap_raises(monkeypatch):
    b = sample_b(0, 1.0, 1.0, 0.0)
    assert solve_checked(b) > verify.LP_TOL
    monkeypatch.setattr(verify, "_MAX_PIVOTS", 1)
    with pytest.raises(ArithmeticError, match="passed 1 pivots"):
        verify.linprog(A, b)
