"""The exact sum-rate kernel (`polytope.max_sum_rate`, over one- and
two-rate regions) against `scipy.optimize.linprog`, plus its semantics for
infinite and undefined right-hand sides.

linprog solves max sum(x) over {A x <= b, x >= 0} directly.  The kernel
must agree with it to 1e-9 * max(1, value), give 0.0 where linprog finds
no point, and raise ValueError where linprog finds the sum unbounded.  The
linprog tests are skipped without scipy.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cranbounds import polytope, regions
from cranbounds.polytope import AffineExpr, CompiledSystem, ConstraintSystem

SCHEMES = ("GDS-I", "GDS-II", "GDS-III", "GCOMP-T2", "COR4")
SYSTEMS = {s: regions.make_region(s) for s in SCHEMES}
COMPILED = {s: polytope.CompiledRegion(sys_) for s, sys_ in SYSTEMS.items()}


def lp_verdict(A, b):
    """max sum(x) over {A x <= b, x >= 0} by HiGHS: a value, "empty" or
    "unbounded"."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    n = A.shape[1]
    bounds = [(0, None)] * n
    if linprog(np.zeros(n), A_ub=A, b_ub=b, bounds=bounds, method="highs").status == 2:
        return "empty"
    res = linprog(-np.ones(n), A_ub=A, b_ub=b, bounds=bounds, method="highs")
    if res.status == 3:
        return "unbounded"
    assert res.status == 0, res.message
    return -res.fun


def kernel_verdict(fn, region, valuation):
    try:
        return fn(region, valuation)
    except ValueError as exc:
        assert "unbounded" in str(exc)
        return "unbounded"


def assert_matches_lp(fn, system, valuation, region=None):
    want = lp_verdict(*system.numeric(valuation))
    got = kernel_verdict(fn, system if region is None else region, valuation)
    if want == "empty":
        assert got == 0.0
    elif want == "unbounded":
        assert got == "unbounded"
    else:
        assert got != "unbounded" and abs(got - want) <= 1e-9 * max(1.0, abs(want))


# values on a 1e-3 grid: an empty region misses by far more than the
# tolerances of the kernel (1e-9) and of HiGHS (1e-7)
atom_values = st.floats(-1.0, 3.0).map(lambda x: round(x, 3))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SCHEMES), st.data())
def test_scheme_regions_match_linprog(scheme, data):
    system = SYSTEMS[scheme]
    atoms = sorted(system.atoms())
    valuation = dict(zip(atoms, data.draw(st.lists(atom_values, min_size=len(atoms),
                                                   max_size=len(atoms)))))
    assert_matches_lp(polytope.max_sum_rate, system, valuation, COMPILED[scheme])
    assert_matches_lp(polytope.max_sum_rate, system, valuation)


small_ints = st.integers(-3, 3)


@st.composite
def random_systems(draw, variables):
    """Integer rows over `variables` with right-hand sides a*C1 + c; they
    include empty, unbounded and single-point regions."""
    system = ConstraintSystem(list(variables))
    for _ in range(draw(st.integers(1, 6))):
        lhs = {v: draw(small_ints) for v in variables}
        system.add(lhs, AffineExpr.make({"C1": draw(small_ints)}, draw(st.integers(-6, 6))))
    return system


@settings(max_examples=400, deadline=None)
@given(random_systems(("R1", "R2")), st.integers(-2, 4))
def test_random_two_rate_systems_match_linprog(system, c1):
    assert_matches_lp(polytope.max_sum_rate, system, {"C1": c1})


@settings(max_examples=200, deadline=None)
@given(random_systems(("R1",)), st.integers(-2, 4))
def test_random_one_rate_systems_match_linprog(system, c1):
    assert_matches_lp(polytope.max_sum_rate, system, {"C1": c1})


def max_single_rate_oracle(system, valuation):
    """The one-rate maximum as computed before `CompiledRegion` took one-rate
    systems: `_max_bound` over (coefficient, right-hand side) per row."""
    rows = CompiledSystem(system)
    return polytope._max_bound(zip(rows.A[:, 0].tolist(), rows.rhs(valuation).tolist()))


@settings(max_examples=400, deadline=None)
@given(random_systems(("R1",)),
       st.one_of(st.integers(-2, 4), st.sampled_from([np.inf, -np.inf, np.nan])))
def test_one_rate_max_sum_rate_equals_the_single_rate_loop(system, c1):
    """Bit for bit, including 0.0 for an empty region, for a -inf right-hand
    side and for a NaN one (C1 = NaN), and the same unbounded verdict."""
    got, want = (kernel_verdict(fn, system, {"C1": c1})
                 for fn in (polytope.max_sum_rate, max_single_rate_oracle))
    assert repr(got) == repr(want)


def test_random_cases_cover_every_verdict():
    """The generated systems do reach empty and unbounded regions: the
    strategy is not quietly producing bounded ones only."""
    pytest.importorskip("scipy.optimize")
    verdicts = set()

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(random_systems(("R1", "R2")))
    def collect(system):
        v = lp_verdict(*system.numeric({"C1": 1}))
        verdicts.add(v if isinstance(v, str) else ("zero" if v == 0 else "positive"))

    collect()
    assert verdicts == {"empty", "unbounded", "zero", "positive"}


# ---------------------------------------------------------------------------
# Infinite and undefined right-hand sides (Marton region, single BS)
# ---------------------------------------------------------------------------

COR4 = regions.corollary4_system()
INF = np.inf


def one_rate(*rows):
    system = ConstraintSystem(["R1"])
    for coeff, terms, const in rows:
        system.add({"R1": coeff}, AffineExpr.make(terms, const))
    return system


def test_inf_atom_leaves_rows_without_it_finite():
    # I(U;Y1) = inf appears in two rows; R2 <= I(V;Y2) and R1+R2 <= C1 do
    # not use it and must stay finite (no 0*inf)
    val = {"I(U;Y1)": INF, "I(V;Y2)": 1.0, "I(U;V)": 0.5, "C1": 3.0}
    assert CompiledSystem(COR4).rhs(val).tolist() == [INF, 1.0, INF, 3.0]
    _, b = COR4.numeric(val)
    assert not np.isnan(b).any()
    assert polytope.max_sum_rate(COR4, val) == 3.0
    single = one_rate((1, {"I(U;Y1)": 1}, 0), (1, {"C1": 1}, 0))
    assert polytope.max_sum_rate(single, val) == 3.0


def test_minus_inf_rhs_empties_the_region():
    # I(U;V) = inf makes the Marton sum bound -inf: no point meets it
    val = {"I(U;Y1)": 1.0, "I(V;Y2)": 1.0, "I(U;V)": INF, "C1": 3.0}
    assert polytope.max_sum_rate(COR4, val) == 0.0
    single = one_rate((1, {"C1": 1}, 0), (1, {"I(U;V)": -1}, 0))
    assert polytope.max_sum_rate(single, val) == 0.0
    lower = one_rate((1, {"C1": 1}, 0), (-1, {"I(U;V)": -1}, 0))
    assert polytope.max_sum_rate(lower, val) == 0.0


def test_vacuous_inf_row_bounds_nothing():
    val = {"I(U;Y1)": 1.0, "I(V;Y2)": 1.0, "I(U;V)": 0.5, "C1": INF}
    assert polytope.max_sum_rate(COR4, val) == 1.5
    single = one_rate((1, {"C1": 1}, 0), (1, {"I(U;Y1)": 1}, 0))
    assert polytope.max_sum_rate(single, val) == 1.0
    with pytest.raises(ValueError, match="unbounded"):
        polytope.max_sum_rate(one_rate((1, {"C1": 1}, 0)), val)
    with pytest.raises(ValueError, match="unbounded"):
        polytope.max_sum_rate(COR4, {**val, "I(U;Y1)": INF, "I(V;Y2)": INF})


def test_inf_minus_inf_gives_zero():
    val = {"I(U;Y1)": INF, "I(V;Y2)": 1.0, "I(U;V)": INF, "C1": 3.0}
    assert np.isnan(COR4.numeric(val)[1]).sum() == 1
    assert polytope.max_sum_rate(COR4, val) == 0.0
    single = one_rate((1, {"C1": 1}, 0), (1, {"I(U;Y1)": 1, "I(U;V)": -1}, 0))
    assert polytope.max_sum_rate(single, val) == 0.0


def test_emptiness_is_tested_with_tol():
    system = ConstraintSystem(["R1", "R2"])
    system.add({"R1": 1, "R2": 1}, AffineExpr.make({"C1": 1}))
    system.add({"R1": -1}, AffineExpr.make({"C1": 1}))
    assert polytope.max_sum_rate(system, {"C1": -1e-12}) == 0.0
    assert polytope.max_sum_rate(system, {"C1": -1.0}) == 0.0
    # away from the origin: R1 + R2 >= 1 and R1 + R2 <= 2
    band = ConstraintSystem(["R1", "R2"])
    band.add({"R1": -1, "R2": -1}, AffineExpr.constant(-1))
    band.add({"R1": 1, "R2": 1}, AffineExpr.constant(2))
    assert polytope.max_sum_rate(band, {}) == 2.0


def test_errors():
    with pytest.raises(ValueError, match="unconstrained"):
        polytope.max_sum_rate(ConstraintSystem(["R1", "R2"]), {})
    three = ConstraintSystem(["R1", "R2", "R3"])
    three.add({"R1": 1, "R2": 1, "R3": 1}, AffineExpr.constant(1))
    with pytest.raises(ValueError, match="one- or two-rate"):
        polytope.CompiledRegion(three)
    with pytest.raises(KeyError):
        polytope.max_sum_rate(COMPILED["COR4"], {"C1": 1.0})
    with pytest.raises(KeyError):
        polytope.max_sum_rate(regions.corollary5_system(), {"C1": 1.0})


def test_pairing_weights_are_exact():
    # rows with s-coefficients 1/3 and -2 pair with weights 6/7 and 1/7
    system = ConstraintSystem(["R1", "R2"])
    system.add({"R1": Fraction(1, 3)}, AffineExpr.constant(1))
    system.add({"R2": 2}, AffineExpr.constant(1))
    region = polytope.CompiledRegion(system)
    assert (2 / 7, 0, 6 / 7, 1, 1 / 7) in region.pairs
    assert polytope.max_sum_rate(region, {}) == pytest.approx(3.5, abs=1e-15)
