"""The scheme evaluation path -- one vector of atom values in the compiled
region's atom order, GDS-III's side conditions as rate-free rows -- against
the name-keyed path kept in `scheme_oracle`, and the side rows against
`corollary3_feasible`."""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scheme_oracle
from cranbounds import regions, schemes
from cranbounds.gaussian import CranNetwork
from cranbounds.polytope import CompiledRegion, max_sum_rate
from cranbounds.schemes import (GAUSSIAN_SCHEMES, CompressionParams, DescriptionIIIParams,
                                DescriptionIParams, DescriptionIIParams, _SchemeSpace,
                                scheme_sumrate, sweep_rows)

GOLDEN = Path(__file__).parent / "golden"


def bits(x):
    return float(x).hex()


def outcome(f, *args):
    """f(*args) as its float's bits, or "ValueError"."""
    try:
        return bits(f(*args))
    except ValueError:
        return "ValueError"


def special_points(scheme, net):
    """Zero-variance parameters, parameters with an infinite atom, and
    parameters that break the per-BS power (a ValueError)."""
    z, i2 = np.zeros((2, 2)), np.eye(2)
    if scheme == "GDS-II":
        return [DescriptionIIParams(np.zeros(4), np.zeros(4)),
                DescriptionIIParams(np.array([1.0, 0, 0, 0]), np.array([1.0, 0, 0, 0])),
                DescriptionIIParams(np.full(4, 10.0), np.zeros(4))]
    if scheme == "GDS-I":
        return [DescriptionIParams(z, z), DescriptionIParams(i2, z),
                DescriptionIParams(100 * i2, i2)]
    if scheme == "GDS-III":
        # A = -I makes V = S2 - S1 independent of X's S1 part; A = I doubles it
        return [DescriptionIIIParams(z, z, z), DescriptionIIIParams(i2, i2, -i2),
                DescriptionIIIParams(i2, z, i2), DescriptionIIIParams(i2, i2, z),
                DescriptionIIIParams(100 * i2, i2, z)]
    return [CompressionParams(z, z, z, np.zeros(6)),
            CompressionParams(i2, i2, 0.1 * i2, np.zeros(6)),
            CompressionParams(2 * i2, 2 * i2, z, np.zeros(6)),
            CompressionParams(i2, i2, z, np.array([1.0, 0, 0, 0, 0, 0])),
            CompressionParams(i2, i2, i2, np.array([2.0, 0, 0, 0, 0, 0]))]


@pytest.mark.parametrize("scheme", GAUSSIAN_SCHEMES)
def test_scheme_sumrate_is_the_name_keyed_path_bit_for_bit(scheme):
    rng = np.random.default_rng(300 + GAUSSIAN_SCHEMES.index(scheme))
    nets = [CranNetwork.make(rng.uniform(-1.5, 1.5, size=(2, 2)), P, rng.uniform(0, 8, 2),
                             [[0.0, T], [0.5 * T, 0.0]])
            for P, T in ((0.0, 0.0), (1.0, 0.0), (10.0, 1.0), (100.0, 2.0), (40.0, 0.5))]
    seen = set()
    for r, net in enumerate(nets * 12):
        space = _SchemeSpace(scheme, net)
        points = [space.to_params(space.initial(rng, r))]
        points += special_points(scheme, net) if r < len(nets) else []
        for params in points:
            got = outcome(scheme_sumrate, scheme, params, net)
            assert got == outcome(scheme_oracle.scheme_sumrate, scheme, params, net)
            seen.add("ValueError" if got == "ValueError" else "zero" if got == bits(0.0)
                     else "positive")
    assert seen == {"ValueError", "zero", "positive"}


@pytest.mark.parametrize("scheme", GAUSSIAN_SCHEMES)
def test_objective_is_the_name_keyed_path_bit_for_bit(scheme, monkeypatch):
    """Far-out and non-finite parameter vectors too, where the objective
    reads -inf."""
    rng = np.random.default_rng(400 + GAUSSIAN_SCHEMES.index(scheme))
    net = CranNetwork.make([[1.0, 0.5], [-0.5, 1.0]], 100.0, [4.0, 6.0], [[0, 1.0], [0.5, 0]])
    space = _SchemeSpace(scheme, net)
    xs = [rng.normal(0.0, scale, space.nparams) for scale in (0.1, 3.0, 30.0, 1e4) * 10]
    xs += [np.full(space.nparams, v) for v in (1e200, np.inf, np.nan)]
    with np.errstate(all="ignore"):
        got = [space.objective(x) for x in xs]
        scheme_oracle.dict_path(monkeypatch)
        space.memo.clear()
        assert list(map(bits, got)) == [bits(space.objective(x)) for x in xs]
    assert max(got) > 0.0 and got[-1] == -np.inf


@pytest.mark.parametrize("config", [
    json.loads((GOLDEN / "sweep_fig4_config.json").read_text()),
    {"P": 100.0, "G": [[1.0, 0.5], [-0.5, 1.0]], "C_grid": [0.5, 2.0, 6.0], "T": [0.0, 2.0],
     "schemes": ["GDS-III", "GDS-TS", "GCOMP"], "seed": 3, "budget": {"restarts": 2, "iters": 40}},
], ids=["fig4", "fig6-like"])
def test_sweep_rows_are_the_name_keyed_path_bit_for_bit(config, monkeypatch):
    rows = sweep_rows(config)
    scheme_oracle.dict_path(monkeypatch)
    expect = sweep_rows(config)
    assert [{k: bits(v) if isinstance(v, float) else v for k, v in r.items()} for r in rows] \
        == [{k: bits(v) if isinstance(v, float) else v for k, v in r.items()} for r in expect]


# ---------------------------------------------------------------------------
# GDS-III's side conditions as rate-free rows
# ---------------------------------------------------------------------------

SIDE = regions.corollary3_side_conditions()
PLAIN = CompiledRegion(regions.corollary3_system())
GATED = schemes._compiled("GDS-III")[0]
FIRST_SIDE_ROW = len(regions.corollary3_system().constraints)


def test_only_gds3_has_rate_free_rows():
    for scheme in GAUSSIAN_SCHEMES:
        region = schemes._compiled(scheme)[0]
        rate_free = [i for d, i in region.flat if d == 0.0 and not region.rows.A[i].any()]
        expect = range(FIRST_SIDE_ROW, FIRST_SIDE_ROW + 4) if scheme == "GDS-III" else []
        assert rate_free == list(expect), scheme


def side_verdicts(val):
    """(the compiled row passes, the side condition holds, the margin is
    within rounding of a tie) for each side, in order."""
    e = GATED.rows.rhs(val)[FIRST_SIDE_ROW:].tolist()
    out = []
    for k, (lhs, rhs) in enumerate(SIDE):
        l, (r0, r1) = val[lhs.name], (val[r.name] for r in rhs)
        held = l < sum((r0, r1)) - 1e-9  # corollary3_feasible's test of one side
        passes = e[k] > -math.inf and not e[k] < -1e-9  # _max_bound's test of a row
        tie = False
        if math.isfinite(l + r0 + r1):
            # the two sums round in different orders: a margin within a few
            # ulps of the operands is a tie, and the strict side condition
            # differs from the row at an exact tie
            margin = Fraction(r0) + Fraction(r1) - Fraction(l) - Fraction(1e-9)
            tie = abs(margin) <= 8 * 2.0 ** -52 * (l + r0 + r1 + 1e-8)
        out.append((passes, held, tie))
    return out


def atom_values(top):
    return st.one_of(st.floats(0.0, top), st.sampled_from([0.0, 1e-9, 2e-9, math.inf]))


@st.composite
def side_valuations(draw):
    """Every GDS-III atom and capacity at 1.0, but the eight side-condition
    atoms, drawn (the left-hand sides mostly small, so that all four sides
    often hold); then maybe one side's left-hand side put within a hair of
    its threshold sum(rhs) - 1e-9, on either side of it or on it."""
    val = dict.fromkeys(PLAIN.rows.atoms, 1.0)
    val.update({r.name: draw(atom_values(50.0)) for _, rhs in SIDE for r in rhs})
    val.update({lhs.name: draw(atom_values(2.0)) for lhs, _ in SIDE})
    k = draw(st.integers(0, len(SIDE)))
    if k < len(SIDE):
        lhs, rhs = SIDE[k]
        delta = draw(st.one_of(st.just(0.0), st.floats(-1e-12, 1e-12)))
        val[lhs.name] = max(0.0, sum(val[r.name] for r in rhs) - 1e-9 + delta)
    return val


@settings(max_examples=600, deadline=None)
@given(side_valuations())
def test_each_side_row_gives_the_verdict_of_its_side_condition(val):
    verdicts = side_verdicts(val)
    for passes, held, tie in verdicts:
        assert passes == held or tie
    if any(tie for _, _, tie in verdicts):
        return
    feasible = regions.corollary3_feasible(val)
    assert all(passes for passes, _, _ in verdicts) == feasible
    expect = max_sum_rate(PLAIN, val) if feasible else 0.0
    assert bits(max_sum_rate(GATED, val)) == bits(expect)


@pytest.mark.parametrize("l,r0,r1,held,passes", [
    (math.inf, 1.0, 1.0, False, False),       # +inf on the left
    (1.0, math.inf, 0.0, True, True),         # +inf on the right
    (0.0, 0.0, math.inf, True, True),
    (math.inf, math.inf, 1.0, False, False),  # inf - inf is NaN
    (math.inf, 1.0, math.inf, False, False),
    (0.5, 0.5, 1e-9, False, True),            # an exact tie: only the strict condition fails
    (0.0, 0.5, 0.5, True, True),
])
def test_side_row_at_infinite_and_tied_values(l, r0, r1, held, passes):
    """Each side in turn; the other three hold (left-hand sides 0)."""
    for k, (lhs, (a, b)) in enumerate(SIDE):
        val = dict.fromkeys(PLAIN.rows.atoms, 1.0) | {s.name: 0.0 for s, _ in SIDE}
        val.update({lhs.name: l, a.name: r0, b.name: r1})
        verdicts = side_verdicts(val)
        assert verdicts[k][:2] == (passes, held)
        assert regions.corollary3_feasible(val) == held
        assert all(v[0] for v in verdicts) == passes
        assert (max_sum_rate(GATED, val) > 0.0) == passes
