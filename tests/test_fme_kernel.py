"""The integer-row Fourier-Motzkin kernel against the `Fraction` oracle in
`fme_oracle.py`, plus properties of projections and of the text formats.

The kernel must reproduce the oracle's `format_system` text exactly, row
for row and in the same order, including which elimination step raises
`FMEBlowupError` under a small cap.  Golden digests hold the projections of
the data-sharing system byte for byte.
"""

import hashlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fme_oracle
from conftest import rand_caps, scenario_scheme2
from cranbounds import discrete, polytope, regions
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


# exact values of finite floats: subnormals, huge magnitudes and 0 mixed in
# one system, so the kernel's common constant denominator reaches 2^1074
float_constants = st.one_of(
    st.sampled_from([0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False)).map(Fraction)


@st.composite
def rows(draw, variables, kinds=ROW_KINDS, constants=None):
    """A row of the given kind; with `constants`, its constant comes from
    there, and an "infeasible" row is ``0 <= c`` for any drawn c."""
    kind = draw(st.sampled_from(kinds))
    lhs = {} if kind != "general" else {v: draw(coefficients) for v in variables}
    if kind == "infeasible" and constants is None:
        # 0 <= -c with c > 0
        return LinearConstraint.make({}, AffineExpr.constant(
            -draw(st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4))))
    terms = {} if kind == "infeasible" else {
        a: draw(coefficients) for a in draw(st.sets(st.sampled_from(ATOMS), max_size=2))}
    const = draw(coefficients if constants is None else constants)
    return LinearConstraint.make(lhs, AffineExpr.make(terms, const))


@st.composite
def systems(draw, kinds=ROW_KINDS, constants=None):
    variables = list(VARS[:draw(st.integers(3, 5))])
    cons = draw(st.lists(rows(variables, kinds, constants), min_size=2, max_size=9))
    return ConstraintSystem(variables, cons)


@st.composite
def eliminations(draw, kinds=ROW_KINDS, constants=None):
    system = draw(systems(kinds, constants))
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


@settings(max_examples=300, deadline=None)
@given(eliminations(constants=float_constants), st.sampled_from([2, 4, 100_000]))
def test_float_constants_match_oracle(case, cap):
    system, drop = case
    assert (outcome(eliminate_all, system, drop, max_constraints=cap)
            == outcome(fme_oracle.eliminate_all, system, drop, max_constraints=cap))
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


def test_cap_counts_rows_carried_over():
    """Three rows free of x exceed a cap of 2 before any pairing runs; the
    cap used to be checked only after a pairing, so this returned 3 rows."""
    system = parse_system("1*y <= 1\n-1*y <= 0\n1*y <= 1*a\n1*x + 1*y <= 2\n1*x <= 1\n")
    for fme in (fme_eliminate, fme_oracle.fme_eliminate):
        with pytest.raises(FMEBlowupError, match="more than 2 distinct"):
            fme(system, "x", max_constraints=2)


# ---------------------------------------------------------------------------
# The kernel's edge cases and its two head dtypes
# ---------------------------------------------------------------------------

def _pruned_system(k: int) -> ConstraintSystem:
    """2k uppers and 2k lowers in x.  The pairings of the first k of each
    have y = +1 and of the last k y = -1, so when y goes next every
    (upper, lower) pairing joins four input rows and Kohler's rule prunes
    all of them; the mixed pairings carry over."""
    rows = [LinearConstraint.make({"x": sx, "y": sy, "z": 1, "w": w}, AffineExpr.constant(w))
            for sx in (1, -1) for i in range(2 * k)
            for sy, w in [((1 if i < k else -1), (i + 1) * (1 if sx > 0 else 4 * k))]]
    return ConstraintSystem(["x", "y", "z", "w"], rows)


@pytest.mark.parametrize("system,drop", [
    (ConstraintSystem(["x", "y"]), ["x"]),
    (ConstraintSystem(["x", "y"]), ["x", "y"]),
    (parse_system("1*x + 1*y <= 1\n2*x <= 1*a\n-1*y <= 0\n"), ["x"]),  # no lowers
    (parse_system("-1*x + 1*y <= 1\n-2*x <= 1*a\n1*y <= 3\n"), ["x", "y"]),  # no uppers
    (_pruned_system(3), ["x", "y"]),
])
def test_edge_cases_match_oracle(system, drop):
    assert outcome(eliminate_all, system, drop) == outcome(fme_oracle.eliminate_all, system, drop)


def test_every_pairing_pruned(monkeypatch):
    seen, eliminate = [], polytope._eliminate_column

    def spy(heads, consts, hists, j, var, cap, max_history):
        seen.append((var, int((heads[:, j] > 0).sum() * (heads[:, j] < 0).sum())))
        return eliminate(heads, consts, hists, j, var, cap, max_history)

    monkeypatch.setattr(polytope, "_eliminate_column", spy)
    out = eliminate_all(_pruned_system(3), ["x", "y"])
    assert seen == [("x", 36), ("y", 81)]
    assert len(out) == 18  # the mixed pairings of step 1, nothing from step 2


def test_pruned_step_keeps_every_temporary_small():
    """One step of 400 x 400 pairings, all pruned by Kohler's rule, traces a
    peak below 128 KiB: the uppers go in blocks, so no temporary reaches
    glibc's default mmap threshold (one (400, 400) uint64 array is 1.25 MiB)."""
    n = 400
    heads = np.array([[1, i] for i in range(n)] + [[-1, i] for i in range(n)], np.int64)
    hists = np.array([[0b0011]] * n + [[0b1100]] * n, np.uint64)  # 4 bits per pairing
    consts = np.arange(2 * n).astype(object)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = polytope._eliminate_column(heads, consts, hists, 0, "x", 10, 3)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert not out.best
    assert peak < 128 * 1024, peak


def test_heads_past_int64_take_python_ints(monkeypatch):
    """Heads near 2^40 make products near 2^81: such a step runs on Python
    ints, where int64 would wrap, and matches the oracle."""
    rng = np.random.default_rng(7)
    variables = ["x", "y", "z", "w"]
    rows = [LinearConstraint.make({v: int(rng.integers(-2**40, 2**40)) for v in variables},
                                  AffineExpr.make({"C1": 1}, int(rng.integers(-9, 9))))
            for _ in range(8)]
    system = ConstraintSystem(variables, rows)
    steps, eliminate = [], polytope._eliminate_column

    def spy(heads, consts, hists, j, *args):
        steps.append((heads, j))
        return eliminate(heads, consts, hists, j, *args)

    monkeypatch.setattr(polytope, "_eliminate_column", spy)
    assert (outcome(eliminate_all, system, variables[:3])
            == outcome(fme_oracle.eliminate_all, system, variables[:3]))
    assert len(steps) == 3 and all(h.dtype == object for h, _ in steps)
    for heads, j in steps:
        up, lo = heads[heads[:, j] > 0].tolist(), heads[heads[:, j] < 0].tolist()
        assert max(abs(-b[j] * x + a[j] * y) for a in up for b in lo
                   for x, y in zip(a, b)) >= 2**63  # what int64 would wrap


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


def test_valuation_projection_heads_stay_small(theorem1, monkeypatch):
    """A per-valuation projection puts every constant over one common
    denominator, so the rows that FME pairs keep the small integers of their
    own coefficients in their heads.  Scaling a whole row by the lcm of all
    its denominators made its head entries about 2^52, the denominator of a
    float atom."""
    rng = np.random.default_rng(11)
    caps = rand_caps(rng)
    valuation = discrete.atom_valuation(scenario_scheme2(rng), sorted(theorem1.atoms()),
                                        constants=caps)
    heads, consts, eliminate = [], [], polytope._eliminate_column

    def spy(h, c, *args):
        heads.append(h)
        consts.extend(c)
        return eliminate(h, c, *args)

    monkeypatch.setattr(polytope, "_eliminate_column", spy)
    regions.gds_project(theorem1, "scheme-II", valuation=valuation)
    assert heads and max(abs(c) for c in consts) > 2**40  # float constants
    assert all(h.dtype == np.int64 for h in heads)
    assert max(int(np.abs(h).max()) for h in heads) < 2**16
