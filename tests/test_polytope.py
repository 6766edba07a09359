import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rhs_value
from cranbounds import polytope
from cranbounds.polytope import (AffineExpr, ConstraintSystem, LinearConstraint,
                                 SystemParseError, eliminate_all, fme_eliminate,
                                 format_system, is_member, parse_system,
                                 regions_equal_sampled, resolve_atoms,
                                 syntactic_reduce)
from fme_oracle import key, numeric_feasible


def system_of(text):
    return parse_system(text)


def test_fme_single_pair():
    sys_ = system_of("1*x <= 1*a\n-1*x <= -1*b\n")
    out = fme_eliminate(sys_, "x")
    # b <= a, expressed as 0 <= a - b
    assert len(out) == 1
    assert is_member(out, {"a": 2.0, "b": 1.0}, {})
    assert not is_member(out, {"a": 1.0, "b": 2.0}, {})


def test_fme_two_pairings():
    sys_ = system_of("1*y <= 5*a\n1*x - 1*y <= 3\n-1*y <= 0\n")
    out = fme_eliminate(sys_, "y")
    for a, x, member in [(1.0, 7.9, True), (1.0, 8.1, False), (-0.1, 0.0, False)]:
        assert is_member(out, {"a": a}, {"x": x}) == member


def test_fme_unknown_variable():
    with pytest.raises(KeyError):
        fme_eliminate(system_of("1*x <= 1*a\n"), "z")


def test_fme_varfree_identity():
    sys_ = system_of("1*x <= 1*a\n")
    sys_.variables.append("y")
    out = fme_eliminate(sys_, "y")
    assert [str(c) for c in out.constraints] == [str(c) for c in sys_.constraints]
    assert out.variables == ["x"]


def test_reduce_duplicates_and_constant_dominance():
    sys_ = system_of("1*x <= 1*a\n1*x <= 1*a\n1*x <= 1*a + 1\n2*x <= 2*a + 3\n")
    out = syntactic_reduce(sys_)
    assert len(out) == 1
    assert str(out.constraints[0]) == "1*x <= 1*a"


def test_reduce_keeps_distinct_atom_rhs():
    sys_ = system_of("1*x <= 1*a\n1*x <= 1*b\n")
    assert len(syntactic_reduce(sys_)) == 2


def test_reduce_drops_tautology():
    sys_ = system_of("0 <= 3\n1*x <= 1*a\n")
    assert len(syntactic_reduce(sys_)) == 1


def test_membership_closure_and_tolerance():
    sys_ = system_of("1*R1 <= 1*C1\n")
    assert is_member(sys_, {"C1": 1.0}, {"R1": 1.0})
    assert not is_member(sys_, {"C1": 1.0}, {"R1": 1.001}, tol=1e-9)


def test_membership_missing_valuation_entry():
    sys_ = system_of("1*R1 <= 1*C1\n")
    with pytest.raises(KeyError):
        is_member(sys_, {}, {"R1": 0.0})


def test_membership_point_must_be_finite():
    """A 0 * inf in A @ x would make the slack NaN; a NaN coordinate used to
    drop out of the minimum, so the point read as a member."""
    sys_ = system_of("1*R1 <= 1*C1\n1*R2 <= 1*C1\n")
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            polytope.min_slack(sys_, {"C1": 1.0}, {"R1": bad, "R2": 0.0})
        with pytest.raises(ValueError, match="finite"):
            is_member(sys_, {"C1": 1.0}, {"R1": 0.0, "R2": bad})


def test_compiled_rhs_takes_a_vector_in_atom_order():
    """The mapping form is a lookup into the vector form: the same bits,
    and the same KeyError for a missing atom; a vector of the wrong length
    is refused rather than read short."""
    rows = polytope.CompiledSystem(system_of("1*R1 <= 1*b - 1*a + 2\n1*R1 <= 1/3*a + 1*c\n"))
    assert rows.atoms == ["a", "b", "c"]
    val = {"c": 0.1, "a": np.inf, "b": 1.7}
    assert rows.rhs(val).tolist() == rows.rhs([np.inf, 1.7, 0.1]).tolist() == [-np.inf, np.inf]
    with pytest.raises(KeyError, match="valuation missing atom 'c'"):
        rows.rhs({"a": 1.0, "b": 1.0})
    for bad in ([1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [[1.0, 2.0, 3.0]]):
        with pytest.raises(ValueError, match="want 3 atom values"):
            rows.rhs(bad)


def min_slack_oracle(system, valuation, point):
    """`min_slack` as a per-constraint loop: each left-hand side summed in
    Python from its float coefficients, in the constraint's own order."""
    worst = np.inf
    for c, rhs in zip(system.constraints, polytope.CompiledSystem(system).rhs(valuation).tolist()):
        worst = min(worst, rhs - sum(float(q) * point[k] for k, q in c.lhs))
    return worst


@st.composite
def slack_cases(draw, integral):
    """A system over 1-4 rates with rows a.x <= b*C1 + c, a valuation and a
    point; `integral` keeps every number an integer."""
    variables = [f"R{i}" for i in range(draw(st.integers(1, 4)))]
    num = (st.integers(-9, 9) if integral else
           st.fractions(Fraction(-9), Fraction(9), max_denominator=12))
    real = (st.integers(-1000, 1000) if integral else
            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
    system = ConstraintSystem(variables)
    for _ in range(draw(st.integers(0, 6))):
        system.add({v: draw(num) for v in variables},
                   AffineExpr.make({"C1": draw(num)}, draw(num)))
    point = {v: float(draw(real)) for v in variables}
    return system, {"C1": float(draw(real))}, point


@settings(max_examples=300, deadline=None)
@given(slack_cases(integral=False))
def test_min_slack_matches_the_per_constraint_loop(case):
    system, val, point = case
    A, b = system.numeric(val)
    x = np.array([point[v] for v in system.variables])
    scale = 1.0 + max(np.abs(b).max(initial=0.0), (np.abs(A) @ np.abs(x)).max(initial=0.0))
    got, want = polytope.min_slack(system, val, point), min_slack_oracle(system, val, point)
    assert got == want if want == np.inf else abs(got - want) <= 1e-12 * scale


@settings(max_examples=300, deadline=None)
@given(slack_cases(integral=True))
def test_min_slack_is_exact_on_integers(case):
    assert polytope.min_slack(*case) == min_slack_oracle(*case)


@pytest.mark.parametrize("n_points", [0, -1])
def test_regions_equal_sampled_needs_a_point(n_points):
    """0 points used to report agreement after checking nothing, and -1 to
    fail inside numpy with "negative dimensions"."""
    a = system_of("1*R1 <= 1*C1\n")
    with pytest.raises(ValueError, match="n_points"):
        regions_equal_sampled(a, a, [{"C1": 1.0}], n_points=n_points, seed=0)


def test_regions_equal_sampled_identical_and_different():
    a = system_of("1*R1 <= 1*C1\n")
    b = system_of("1*R1 <= 2*C1\n")
    val = {"C1": 1.0}
    rep = regions_equal_sampled(a, a, [val], n_points=200, seed=0)
    assert rep["agree"]
    rep = regions_equal_sampled(a, b, [val], n_points=500, seed=0)
    assert not rep["agree"]
    w = rep["witnesses"][0]
    assert 1.0 < w["point"]["R1"] <= 2.0 + 1e-6


def test_regions_equal_requires_valuations():
    a = system_of("1*R1 <= 1*C1\n")
    with pytest.raises(ValueError):
        regions_equal_sampled(a, a, [], n_points=10, seed=0)


def _interval_feasible(system, val, point, var, lo=-1e9, hi=1e9):
    """Brute interval oracle: does some value of `var` satisfy the system?"""
    for c in system.constraints:
        coeff = float(c.coeff(var))
        rest = sum(float(q) * point[k] for k, q in c.lhs if k != var)
        rhs = rhs_value(c.rhs, val) - rest
        if abs(coeff) < 1e-15:
            if rhs < -1e-12:
                return False
        elif coeff > 0:
            hi = min(hi, rhs / coeff)
        else:
            lo = max(lo, rhs / coeff)
    return lo <= hi + 1e-12


def test_fme_soundness_randomized():
    rng = np.random.default_rng(7)
    for trial in range(40):
        nvars, ncons = 3, 8
        names = ["x", "y", "z"]
        cons = []
        for _ in range(ncons):
            lhs = {names[i]: int(rng.integers(-2, 3)) for i in range(nvars)}
            rhs = AffineExpr.make({"a": int(rng.integers(-2, 3))},
                                  int(rng.integers(-3, 4)))
            cons.append(LinearConstraint.make(lhs, rhs))
        sys_ = ConstraintSystem(names, cons)
        out = fme_eliminate(sys_, "z")
        val = {"a": float(rng.uniform(-2, 2))}
        for _ in range(25):
            pt = {"x": float(rng.uniform(-3, 3)), "y": float(rng.uniform(-3, 3))}
            lhs_member = is_member(out, val, pt, tol=1e-12)
            oracle = _interval_feasible(sys_, val, pt, "z")
            assert lhs_member == oracle, (trial, pt)


def test_fme_order_independence():
    rng = np.random.default_rng(11)
    names = ["x", "y", "z", "w"]
    cons = []
    for _ in range(10):
        lhs = {n: int(rng.integers(-2, 3)) for n in names}
        rhs = AffineExpr.make({"a": int(rng.integers(-1, 2))}, int(rng.integers(-2, 5)))
        cons.append(LinearConstraint.make(lhs, rhs))
    sys_ = ConstraintSystem(names, cons)
    out1 = eliminate_all(eliminate_all(sys_, ["z"]), ["w"])
    out2 = eliminate_all(eliminate_all(sys_, ["w"]), ["z"])
    rep = regions_equal_sampled(out1, out2, [{"a": 0.7}, {"a": -0.4}],
                                n_points=400, seed=3)
    assert rep["agree"], rep["witnesses"][:3]


def test_kohler_pruning_preserves_membership():
    # eliminate several variables with and without history pruning and
    # compare sampled membership of the projections
    rng = np.random.default_rng(23)
    names = ["x", "y", "z", "w", "v"]
    cons = []
    for _ in range(12):
        lhs = {n: int(rng.integers(-1, 2)) for n in names}
        rhs = AffineExpr.make({"a": int(rng.integers(0, 2))}, int(rng.integers(0, 6)))
        cons.append(LinearConstraint.make(lhs, rhs))
    sys_ = ConstraintSystem(names, cons)
    pruned = eliminate_all(sys_, ["z", "w", "v"])
    plain = sys_
    for v in ["z", "w", "v"]:
        plain = fme_eliminate(plain, v)
    rep = regions_equal_sampled(pruned, plain, [{"a": 1.0}], n_points=600, seed=5)
    assert rep["agree"], rep["witnesses"][:3]


def test_resolve_atoms_and_numeric_feasible():
    sys_ = system_of("1*x <= 1*a\n-1*x <= 0\n")
    resolved = resolve_atoms(sys_, {"a": 0.5})
    assert numeric_feasible(resolved)
    assert not numeric_feasible(resolve_atoms(sys_, {"a": -0.5}))
    # shrinking every right-hand side by 1e-6 leaves a = 1e-9 infeasible
    shrunk = [LinearConstraint(c.lhs, AffineExpr((), c.rhs.const - Fraction(1e-6)))
              for c in resolve_atoms(sys_, {"a": 1e-9}).constraints]
    assert not numeric_feasible(ConstraintSystem(sys_.variables, shrunk))


def test_resolve_atoms_converts_only_the_atoms_it_uses():
    sys_ = system_of("1*x <= 1*a\n-1*x <= 0\n")
    resolved = resolve_atoms(sys_, {"a": 0.5, "b": np.inf, "c": np.nan})
    assert [c.rhs.const for c in resolved.constraints] == [Fraction(1, 2), 0]
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="atom 'a' is"):
            resolve_atoms(sys_, {"a": bad})
    with pytest.raises(KeyError):
        resolve_atoms(sys_, {"b": 1.0})


def test_resolve_atoms_names_the_first_missing_atom_in_row_order():
    sys_ = system_of("1*x <= 1*b\n1*x <= 1*a\n")
    with pytest.raises(KeyError, match="'b'"):
        resolve_atoms(sys_, {})


def test_parse_format_roundtrip():
    text = "1*R1 + 1*R2 <= 1*C1 + -1/2*Gamma(U0,V0) + 3/2\n-1*R1 <= 0\n"
    sys_ = parse_system(text)
    again = parse_system(format_system(sys_))
    assert [key(c) for c in sys_.constraints] == [key(c) for c in again.constraints]


def test_parse_decimal_and_bare_names():
    sys_ = parse_system("0.5*x + y <= 2.25*a + 3\n")
    c = sys_.constraints[0]
    assert dict(c.lhs)["x"] == polytope.Q(1, 2)
    assert dict(c.lhs)["y"] == 1
    assert c.rhs.const == polytope.Q(3)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3))
def test_parse_reads_float_reprs_as_fractions(values):
    """repr writes 1e-07 and -2.5e+16, which used to split at the exponent's
    sign into an atom 1e (or 2.5e) and a separate term."""
    x, a, k = map(repr, values)
    c = parse_system(f"{x}*x <= {a}*a + {k}\n").constraints[0]
    assert c.coeff("x") == Fraction(x)
    assert dict(c.rhs.terms).get("a", 0) == Fraction(a)
    assert c.rhs.const == Fraction(k)


def test_parse_error_reports_location():
    with pytest.raises(SystemParseError) as exc:
        parse_system("1*x <= 1*a\n1*x ? 2\n")
    assert exc.value.line == 2
    with pytest.raises(SystemParseError) as exc:
        parse_system("1*x <= 1* \n")
    assert exc.value.line == 1 and exc.value.column is not None


@pytest.mark.parametrize("literal", ["1e10000000", "2.5E-4301", "1e+4301"])
def test_an_exponent_past_4300_is_a_parse_error_at_its_column(literal):
    """`Fraction` read 1e10000000 in 7.7 s; the literal is now refused unread."""
    with pytest.raises(SystemParseError, match=re.escape(f"bad coefficient {literal!r}")) as exc:
        parse_system(f"x <= {literal}*a\n")
    assert (exc.value.line, exc.value.column) == (1, 6)


def test_an_exponent_of_4300_is_read_exactly():
    c = parse_system("x <= 1e4300 + 1e-4300*a\n").constraints[0]
    assert c.rhs.const == 10 ** 4300 and dict(c.rhs.terms)["a"] == Fraction(1, 10 ** 4300)


@pytest.mark.parametrize("text,variables,line,column", [
    ("# variables: x\n1*x <= 1*a\n1*y <= 1*b\n", None, 3, 3),
    ("x + 2*y <= 1\n", ["x"], 1, 7),
    ("x <= 1\n\n  y - x <= a\n", ["x"], 3, 3),
])
def test_undeclared_variable_is_a_parse_error_at_its_column(text, variables, line, column):
    with pytest.raises(SystemParseError, match="undeclared variable 'y'") as exc:
        parse_system(text, variables)
    assert (exc.value.line, exc.value.column) == (line, column)


@pytest.mark.parametrize("line,message,column", [
    ("# variables: x x y", "repeated variable name 'x'", 16),
    ("# variables: x, y", "bad variable name 'x,'", 14),
])
def test_malformed_variables_line_is_a_parse_error_at_its_column(line, message, column):
    """Both lines were accepted: the first declared x twice, the second a
    variable 'x,' that no constraint can use."""
    with pytest.raises(SystemParseError, match=message) as exc:
        parse_system(line + "\n1*y <= 1\n")
    assert (exc.value.line, exc.value.column) == (1, column)


def test_comments_and_blank_lines():
    sys_ = parse_system("# heading\n\n1*x <= 1*a  # trailing\n")
    assert len(sys_) == 1


def test_fme_cap_guard():
    rng = np.random.default_rng(1)
    names = [f"v{i}" for i in range(6)]
    cons = []
    for _ in range(40):
        lhs = {n: int(rng.integers(-3, 4)) for n in names}
        rhs = AffineExpr.make({f"a{rng.integers(0, 20)}": 1}, int(rng.integers(0, 9)))
        cons.append(LinearConstraint.make(lhs, rhs))
    sys_ = ConstraintSystem(names, cons)
    with pytest.raises(polytope.FMEBlowupError):
        eliminate_all(sys_, names, max_constraints=50)


def test_regions_equal_sampled_nan_rhs_raises():
    # I(U;Y1) = I(U;V) = inf leaves the right-hand side inf - inf: the region
    # is undefined, so it must not "agree" with the empty region R1 <= -1
    undefined = system_of("1*R1 + 1*R2 <= 1*C1 + 1*I(U;Y1) - 1*I(U;V)\n")
    empty = ConstraintSystem(["R1", "R2"])
    empty.add({"R1": 1}, AffineExpr.constant(-1))
    finite = {"C1": 1.0, "I(U;Y1)": 1.0, "I(U;V)": 1.0}
    assert not regions_equal_sampled(undefined, empty, [finite],
                                     n_points=100, seed=0)["agree"]
    with pytest.raises(ValueError):
        regions_equal_sampled(undefined, empty,
                              [finite | {"I(U;Y1)": np.inf, "I(U;V)": np.inf}],
                              n_points=100, seed=0)


def test_regions_equal_sampled_inf_rhs_is_vacuous():
    a = system_of("1*R1 <= 1*C1\n1*R1 <= 1*I(U;Y1)\n")
    b = system_of("1*R1 <= 1*C1\n")
    rep = regions_equal_sampled(a, b, [{"C1": 2.0, "I(U;Y1)": np.inf}],
                                n_points=300, seed=0)
    assert rep["agree"]
    rep = regions_equal_sampled(a, b, [{"C1": 2.0, "I(U;Y1)": 1.0}],
                                n_points=300, seed=0)
    assert not rep["agree"]
