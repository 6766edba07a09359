"""The integer-row Fourier-Motzkin kernel against the `Fraction` oracle in
`fme_oracle.py`, plus properties of projections and of the text formats.

The kernel must reproduce the oracle's `format_system` text exactly, row
for row and in the same order, including which pairing raises
`FMEBlowupError` under a small cap.  Golden digests hold the projections of
the data-sharing system byte for byte.
"""

import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fme_oracle
from conftest import rand_caps, scenario_scheme2
from cranbounds import discrete, regions
from cranbounds.atoms import const_atom, gamma_atom, h_atom, mi_atom, parse_atom
from cranbounds.polytope import (AffineExpr, ConstraintSystem, FMEBlowupError,
                                 LinearConstraint, eliminate_all, fme_eliminate,
                                 format_system, is_member, min_slack, parse_system,
                                 syntactic_reduce)

VARS = ("x", "y", "z", "w", "v")
ATOMS = ("C1", "I(U;Y1)", "Gamma(U0,V0)", "I(U0;Y2|V0)")
ROW_KINDS = ("general", "general", "general", "atoms", "infeasible")

coefficients = st.one_of(
    st.just(Fraction(0)), st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=3))


@st.composite
def rows(draw, variables, kinds=ROW_KINDS):
    kind = draw(st.sampled_from(kinds))
    lhs = {} if kind != "general" else {v: draw(coefficients) for v in variables}
    if kind == "infeasible":
        # 0 <= -c with c > 0
        return LinearConstraint.make({}, AffineExpr.constant(
            -draw(st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4))))
    terms = {a: draw(coefficients) for a in draw(st.sets(st.sampled_from(ATOMS), max_size=2))}
    return LinearConstraint.make(lhs, AffineExpr.make(terms, draw(coefficients)))


@st.composite
def systems(draw, kinds=ROW_KINDS):
    variables = list(VARS[:draw(st.integers(3, 5))])
    cons = draw(st.lists(rows(variables, kinds), min_size=2, max_size=9))
    return ConstraintSystem(variables, cons)


@st.composite
def eliminations(draw, kinds=ROW_KINDS):
    system = draw(systems(kinds))
    drop = draw(st.permutations(system.variables))[:draw(st.integers(1, len(system.variables)))]
    return system, drop


def outcome(fn, *args, **kwargs):
    """The format_system text of a projection, or the blow-up message."""
    try:
        return format_system(fn(*args, **kwargs))
    except FMEBlowupError as exc:
        return f"FMEBlowupError: {exc}"


@settings(max_examples=300, deadline=None)
@given(eliminations(), st.sampled_from([2, 4, 8, 100_000]))
def test_eliminate_all_matches_oracle(case, cap):
    system, drop = case
    assert (outcome(eliminate_all, system, drop, max_constraints=cap)
            == outcome(fme_oracle.eliminate_all, system, drop, max_constraints=cap))


@st.composite
def dense_eliminations(draw):
    """Many rows with entries in {-1, 0, 1}: rows then coincide often, so
    which history a duplicate keeps decides what Kohler's rule prunes later."""
    variables = list(VARS) + ["u"]
    unit = st.sampled_from([-1, 0, 0, 1])
    row = st.builds(lambda lhs, a, c: LinearConstraint.make(
        dict(zip(variables, lhs)), AffineExpr.make({"C1": a}, c)),
        st.lists(unit, min_size=6, max_size=6), st.sampled_from([0, 0, 1]),
        st.sampled_from([0, 1, 2]))
    system = ConstraintSystem(variables, draw(st.lists(row, min_size=15, max_size=30)))
    return system, draw(st.permutations(variables))[:draw(st.integers(4, 6))]


@settings(max_examples=100, deadline=None)
@given(dense_eliminations())
def test_eliminate_all_matches_oracle_on_dense_systems(case):
    system, drop = case
    assert outcome(eliminate_all, system, drop) == outcome(fme_oracle.eliminate_all,
                                                           system, drop)


@settings(max_examples=200, deadline=None)
@given(systems(), st.data(), st.sampled_from([3, 100_000]))
def test_fme_eliminate_matches_oracle(system, data, cap):
    var = data.draw(st.sampled_from(system.variables))
    assert (outcome(fme_eliminate, system, var, max_constraints=cap)
            == outcome(fme_oracle.fme_eliminate, system, var, max_constraints=cap))


@settings(max_examples=200, deadline=None)
@given(systems())
def test_syntactic_reduce_matches_oracle(system):
    assert format_system(syntactic_reduce(system)) == format_system(
        fme_oracle.syntactic_reduce(system))


@settings(max_examples=100, deadline=None)
@given(eliminations(kinds=ROW_KINDS[:4]),
       st.lists(st.floats(-2, 2), min_size=len(ATOMS), max_size=len(ATOMS)),
       st.integers(0, 2**31 - 1))
def test_projection_points_lift(case, values, seed):
    """Points of the projection lift to feasible points of the system, and
    feasible points of the system project into the projection.  Systems
    with a `0 <= -c` row are left out: they have no points to check."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    system, drop = case
    keep = [v for v in system.variables if v not in drop]
    assume(keep)
    valuation = dict(zip(ATOMS, values))
    proj = eliminate_all(system, drop)
    A, b = system.numeric(valuation)
    ki = [system.variables.index(v) for v in keep]
    di = [system.variables.index(v) for v in drop]
    rng = np.random.default_rng(seed)

    def lifts(x):
        res = linprog(np.zeros(len(di)), A_ub=A[:, di], b_ub=b - A[:, ki] @ x + 1e-7,
                      bounds=[(None, None)] * len(di), method="highs")
        return res.status == 0

    # the margins stay well above HiGHS's 1e-7 feasibility tolerance, even
    # after a projected row scales a violation by its multipliers
    for x in rng.uniform(-4, 4, size=(40, len(keep))):
        slack = min_slack(proj, valuation, dict(zip(keep, x)))
        if slack >= 0:
            assert lifts(x), x
        elif slack < -0.1:
            assert not lifts(x), x
    # a point of the box-bounded system, tightened by 1e-6 so that solver
    # tolerance cannot leave it outside, lands in the projection
    res = linprog(rng.normal(size=len(system.variables)), A_ub=A, b_ub=b - 1e-6,
                  bounds=[(-10, 10)] * len(system.variables), method="highs")
    if res.status == 0:
        assert is_member(proj, valuation, dict(zip(keep, res.x[ki])), tol=1e-9)


@settings(max_examples=200, deadline=None)
@given(systems())
def test_parse_format_roundtrip_generated(system):
    """The `# variables:` line that `format_system` writes sets the variables
    and their order, unused ones included."""
    text = format_system(system)
    again = parse_system(text)
    assert again == system
    assert format_system(again) == text


@pytest.mark.parametrize("scheme", [s for s in regions.SCHEME_IDS if s != "CUTSET"])
def test_parse_format_roundtrip_regions(scheme):
    """Before the `# variables:` line was read, GDS-T1's rates came back in
    first-appearance order, Rv0 Rv1 R2 Rv2 Ru0 Ru1 R1 Ru2."""
    system = regions.make_region(scheme)
    assert parse_system(format_system(system)) == system


names = st.sets(st.sampled_from(["U0", "U1", "V0", "V2", "X1", "Y1", "Y2"]),
                min_size=1, max_size=3)


@st.composite
def atom_specs(draw):
    kind = draw(st.sampled_from(["H", "I", "I|", "Gamma", "const"]))
    if kind == "H":
        return h_atom(draw(names))
    if kind == "Gamma":
        return gamma_atom(draw(names))
    if kind == "const":
        return const_atom(draw(st.sampled_from(["C1", "C2", "C12", "C21", "P"])))
    a = draw(names)
    b = draw(names.filter(lambda s: not s & a))
    cond = draw(names.filter(lambda s: not s & (a | b))) if kind == "I|" else ()
    return mi_atom(a, b, cond)


@settings(max_examples=200, deadline=None)
@given(atom_specs())
def test_parse_atom_roundtrip(spec):
    assert parse_atom(spec.name) == spec


# ---------------------------------------------------------------------------
# Argument checks
# ---------------------------------------------------------------------------

def test_duplicate_elimination_variable_is_rejected():
    system = parse_system("1*x + 1*z <= 1*a\n-1*z <= 0\n")
    with pytest.raises(ValueError, match="'z'"):
        eliminate_all(system, ["z", "z"])
    with pytest.raises(ValueError, match="'x'"):
        eliminate_all(system, ["x", "z", "x"])


@pytest.mark.parametrize("cap", [0, -5])
def test_nonpositive_cap_is_rejected(cap):
    system = parse_system("1*x + 1*z <= 1*a\n-1*z <= 0\n")
    with pytest.raises(ValueError, match="max_constraints"):
        eliminate_all(system, ["z"], max_constraints=cap)
    with pytest.raises(ValueError, match="max_constraints"):
        fme_eliminate(system, "z", max_constraints=cap)


def test_nothing_to_eliminate_returns_the_system_as_given():
    system = parse_system("2*x <= 2*a\n2*x <= 2*a\n")
    assert format_system(eliminate_all(system, [])) == format_system(system)


# ---------------------------------------------------------------------------
# Golden digests: sha256 of the format_system text of each projection.
# ---------------------------------------------------------------------------

SYMBOLIC_DIGESTS = {
    "scheme-I": (32, "3f2871d91b385524eb5da2ebfa401cc1104ee7a4529b4d290ea07447da5ced23"),
    "scheme-III": (981, "e7dd2b6b18021976a5e096b3471e7639b6be7fd8c5ade131437402ffc23b9bf5"),
    "cor4": (16, "b431feb580e3a613b011ae1221a6f8e0e46754a285af9156906680d818906857"),
    "cor5": (82, "1a6ba4853d2d9d19340d76b79866a357b3e154f3c5a4c3e815263eedddbbb788"),
}
# scheme-II per valuation: the valuation of one `scenario_scheme2` draw with
# `rand_caps`, rounded to 6 decimals so the digest does not hang on the last
# bits of a logarithm
SCHEME2_DIGESTS = {
    11: (13, "eebb58e6afc4dcbc78aa0e7b2a1323c1014ef0a562850a254e62e31c54f1588f"),
    12: (13, "5f1a041c2efbc1121b3bff9dfbbdc3b2179197be4a81c51cb540b31d7e071059"),
    13: (12, "3b3a903b07fe7fb3b9043378880c4803158ecd4fa31e103936cf6da05ffe0797"),
}


def _digest(system):
    return len(system), hashlib.sha256(format_system(system).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SYMBOLIC_DIGESTS))
def test_symbolic_projection_digest(projections, name):
    assert _digest(projections[name]) == SYMBOLIC_DIGESTS[name]


@pytest.mark.parametrize("seed", sorted(SCHEME2_DIGESTS))
def test_scheme2_valuation_projection_digest(theorem1, seed):
    rng = np.random.default_rng(seed)
    caps = rand_caps(rng)
    valuation = discrete.atom_valuation(scenario_scheme2(rng), sorted(theorem1.atoms()),
                                        constants=caps)
    valuation = {k: round(v, 6) for k, v in valuation.items()}
    proj = regions.gds_project(theorem1, "scheme-II", valuation=valuation)
    assert _digest(proj) == SCHEME2_DIGESTS[seed]
