"""The stacked evaluation and the lockstep search lanes of `schemes`
against the scalar path of `scheme_oracle`, one point at a time.

Every lane of a batch must read the oracle's value bit for bit (a search
accepts a move on a difference of 1e-12), whatever the other lanes hold:
a lane that fails a check reads -inf and moves no other lane, and a
shuffled batch or a sub-batch gives each lane the same value.
"""

import dataclasses
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scheme_oracle
from cranbounds import gaussian, schemes
from cranbounds.gaussian import CranNetwork
from cranbounds.schemes import (GAUSSIAN_SCHEMES, CompressionParams, DescriptionIIIParams,
                                DescriptionIIParams, DescriptionIParams, OptimizerBudget)

G = [[1.0, 0.5], [-0.5, 1.0]]
CAPS = [0.25, 1.0, 2.0, 4.0, 8.0]


def bits(x):
    return float(x).hex()


def nets(P, caps):
    """Networks sharing G and P, one per (C, T) pair of `caps`."""
    return [CranNetwork.make(G, P, [c, c], [[0.0, t], [t, 0.0]]) for c, t in caps]


def oracle_objective(scheme, x, net):
    with np.errstate(all="ignore"):
        return scheme_oracle.objective(scheme, x, net)


def stacked(params):
    """The parameter objects `params` as one stack of lanes."""
    return type(params[0])(*(np.stack([getattr(p, f.name) for p in params])
                             for f in dataclasses.fields(params[0])))


@st.composite
def point_batches(draw, scheme):
    """1 to 6 optimizer vectors around the restart-0 start, or zero (every
    variance 0), one-hot (rank-deficient), far out, huge or non-finite,
    each lane on its own (C, T); P is shared."""
    P = draw(st.sampled_from([0.0, 1e-6, 1.0, 10.0, 100.0]))
    x0 = scheme_oracle.initial(scheme, P, None, 0)
    n = len(x0)
    xs = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["near", "near", "near", "zero", "onehot", "far",
                                     "huge", "nonfinite"]))
        if kind == "near":
            noise = draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n))
            x = x0 + np.array(noise) * math.sqrt(max(P, 1e-12))
        elif kind == "zero":
            x = np.zeros(n)
        elif kind == "onehot":
            x = np.eye(n)[draw(st.integers(0, n - 1))] * draw(st.sampled_from([1.0, 5.0, 1e3]))
        elif kind == "far":
            x = np.array(draw(st.lists(st.floats(-1e4, 1e4), min_size=n, max_size=n)))
        elif kind == "huge":
            x = np.full(n, draw(st.sampled_from([1e150, 1e200, -1e300])))
        else:
            x = x0.copy()
            x[draw(st.integers(0, n - 1))] = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
        xs.append(x)
    caps = [(draw(st.sampled_from(CAPS)), draw(st.sampled_from([0.0, 2.0]))) for _ in xs]
    return np.array(xs), nets(P, caps)


@pytest.mark.parametrize("scheme", GAUSSIAN_SCHEMES)
def test_stacked_objective_is_the_scalar_path_lane_by_lane(scheme):
    seen = set()

    @settings(max_examples=40, deadline=None)
    @given(point_batches(scheme))
    def check(batch):
        X, networks = batch
        want = [bits(oracle_objective(scheme, x, net)) for x, net in zip(X, networks)]
        seen.update("-inf" if w == bits(-math.inf) else "value" for w in want)
        assert list(map(bits, schemes._objective(scheme, X, networks))) == want
        order = np.random.default_rng(len(X)).permutation(len(X))
        shuffled = schemes._objective(scheme, X[order], [networks[i] for i in order])
        assert [want[i] for i in order] == list(map(bits, shuffled))
        for b in range(len(X)):
            assert bits(schemes._objective(scheme, X[b:b + 1], networks[b:b + 1])[0]) == want[b]

    check()
    assert seen == {"-inf", "value"}


def special_params(scheme, rng, P):
    """Parameters given directly: optimizer points, zero-variance and
    rank-deficient ones, non-PSD, power-violating, overflowing and
    non-finite ones."""
    z, i2 = np.zeros((2, 2)), np.eye(2)
    s = math.sqrt(max(P, 1e-12))
    with np.errstate(all="ignore"):
        out = [scheme_oracle.to_params(scheme, scheme_oracle.initial(scheme, P, rng, r), P)
               for r in range(3)]
    if scheme == "GDS-II":
        half = np.full(4, 0.5 * s)
        return out + [DescriptionIIParams(np.zeros(4), np.zeros(4)),
                      DescriptionIIParams(np.eye(4)[0] * s, np.eye(4)[0] * s),
                      DescriptionIIParams(3.0 * half, half),
                      DescriptionIIParams(np.full(4, 1e160), half),
                      DescriptionIIParams(half, np.array([np.nan, 0, 0, 0]))]
    K = 0.25 * P * np.array([[1.0, 0.3], [0.3, 1.0]])
    bad = [z, i2 * 0.0, np.diag([1.0, -0.5]) * P, K * 5.0, np.diag([1e160, 0.0]),
           np.array([[np.inf, 0.0], [0.0, 1.0]]), np.outer([1.0, 1.0], [1.0, 1.0]) * 0.2 * P]
    if scheme == "GDS-I":
        return out + [DescriptionIParams(k, K) for k in bad] + [DescriptionIParams(K, k) for k in bad]
    if scheme == "GDS-III":
        A = np.array([[0.1, -0.2], [0.3, 0.0]])
        return out + [DescriptionIIIParams(k, K, A) for k in bad] + [
            DescriptionIIIParams(K, K, -i2), DescriptionIIIParams(K, z, i2 * 1e160)]
    c = np.full(6, 0.1)
    return out + [CompressionParams(k, K, 0.1 * K, c) for k in bad] + [
        CompressionParams(K, K, k, c) for k in bad] + [
        CompressionParams(K, K, 0.1 * K, np.array([3.0, 0, 0, 0, 0, 0])),
        CompressionParams(K, K, z, np.zeros(6))]


def oracle_outcome(scheme, params, net):
    """The scalar path's sum rate, or its error's type and message."""
    try:
        with np.errstate(all="ignore"):
            return bits(scheme_oracle.scheme_sumrate(scheme, params, net))
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("scheme", GAUSSIAN_SCHEMES)
def test_stacked_checks_fail_the_lanes_the_scalar_path_rejects(scheme):
    """A lane fails where the scalar path raises, with its message, and
    reads its value where it does not; a square that overflows raises
    OverflowError for the batch where it does for one point."""
    seen = set()

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([1.0, 10.0, 100.0]), st.data())
    def check(P, data):
        pool = special_params(scheme, np.random.default_rng(int(P)), P)
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=6))
        params = [pool[i] for i in picks]
        networks = nets(P, [(data.draw(st.sampled_from(CAPS)), 2.0) for _ in picks])
        want = [oracle_outcome(scheme, p, net) for p, net in zip(params, networks)]
        seen.update(w[0] if isinstance(w, tuple) else "value" for w in want)
        verdicts = gaussian.Verdicts(len(params))
        if any(w[0] == "OverflowError" for w in want if isinstance(w, tuple)):
            with pytest.raises(OverflowError), np.errstate(all="ignore"):
                schemes._atom_values(scheme, stacked(params), networks[0], verdicts)
            return
        with np.errstate(all="ignore"):
            values = schemes._atom_values(scheme, stacked(params), networks[0], verdicts)
        got = [bits(schemes._sumrate(scheme, v, net)) if ok else ("ValueError", verdicts.why[b])
               for b, (ok, v, net) in enumerate(zip(verdicts.ok, values, networks))]
        assert got == want

    check()
    assert seen == {"value", "ValueError"} | ({"OverflowError"} if scheme != "GDS-II" else set())


@pytest.mark.parametrize("scheme", GAUSSIAN_SCHEMES)
def test_lockstep_lanes_are_the_sequential_search(scheme):
    """Lanes across C and T with several restarts, run in lockstep with
    their lookahead, against the scalar search one restart after another:
    the same optimum, value, evaluation count and winning restart."""
    for P, budget in ((1.0, OptimizerBudget(3, 90, 5)), (100.0, OptimizerBudget(2, 140, 7))):
        lanes = [(net, dataclasses.replace(budget, seed=budget.seed + k)) for k, net in
                 enumerate(nets(P, [(c, t) for t in (0.0, 2.0) for c in (0.5, 2.0, 6.0)]))]
        for (x, f, diagnostics), (net, b) in zip(schemes.search_lanes(scheme, lanes), lanes):
            with np.errstate(all="ignore"):
                want_x, want_f, evals, best = scheme_oracle.optimize(scheme, net, b)
            assert (want_x is None) == (x is None)
            assert x is None or np.array_equal(x, want_x)
            assert bits(max(0.0, f)) == bits(want_f)
            assert (diagnostics["evals"], diagnostics["best_restart"]) == (evals, best)


def test_a_stacked_eigensolve_that_raises_falls_back_to_one_lane_at_a_time(monkeypatch):
    """LinAlgError from a stacked eigensolve moves no lane: each is taken
    alone, and a lane that raises alone reads -inf."""
    rng = np.random.default_rng(3)
    X = np.array([schemes._initial("GCOMP", 10.0, rng, r) for r in range(4)])
    networks = nets(10.0, [(c, 1.0) for c in CAPS[:4]])
    want = schemes._objective("GCOMP", X, networks)
    params = schemes.optimize_scheme("GCOMP", networks[0], OptimizerBudget(1, 1)).params
    eigvalsh, calls = np.linalg.eigvalsh, []

    def fussy(a):
        calls.append(a.shape[0])
        if a.shape[0] > 1:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", fussy)
    assert list(map(bits, schemes._objective("GCOMP", X, networks))) == list(map(bits, want))
    assert max(calls) == 4 and calls[-1] == 1

    def failing(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    assert schemes._objective("GCOMP", X, networks) == [-math.inf] * 4
    with pytest.raises(np.linalg.LinAlgError):
        schemes.scheme_sumrate("GCOMP", params, networks[0])


def test_stacked_kernel_is_the_scalar_kernel_lane_by_lane():
    """2,000 random covariances over GDS-III's components as one stack:
    every lane's subset log-pdets, ranks and atoms are the scalar kernel's.
    About 3 in 10^4 of the 1x1 and 2x2 blocks' logs would differ through
    np.log2, and a product over all lanes at once rounds the atoms
    otherwise than one matrix-vector product per lane."""
    rng = np.random.default_rng(11)
    components = tuple((n, 1) for n in ("U1", "U2", "V1", "V2", "X1", "X2", "Y1", "Y2"))
    f = rng.normal(size=(2000, 8, 8)) * rng.choice([1e-3, 1.0, 30.0], size=(2000, 1, 1))
    f[::7, :, 5:] = 0.0  # rank-deficient lanes
    m = f @ f.swapaxes(1, 2)
    lanes = [gaussian.JointCovariance.make(components, a) for a in m]
    stack = gaussian.JointCovariance(components, np.array([c.matrix for c in lanes]),
                                     np.array([c.top_eigenvalue for c in lanes]))
    atoms = schemes._compiled("GDS-III")[0].rows.atoms
    plan = gaussian.atom_plan(stack.names, tuple(atoms))
    # every 1x1 and 2x2 block as well: 16,000 and 56,000 closed forms
    subsets = plan.subsets + tuple(itertools.combinations(stack.names, 1)) + tuple(
        itertools.combinations(stack.names, 2))
    logs, ranks = gaussian.subset_logpdets(stack, subsets)
    values = gaussian.atom_values(stack, atoms)
    for b, cov in enumerate(lanes):
        want_logs, want_ranks = scheme_oracle.subset_logpdets(cov, subsets)
        assert logs[b].tolist() == want_logs.tolist() and ranks[b].tolist() == want_ranks.tolist()
        assert values[b].tolist() == scheme_oracle.atom_values(cov, atoms).tolist()


@pytest.mark.parametrize("config", [
    "sweep_lanes_config.json",
    {"P": 10.0, "G": [[1.0, -0.3], [0.8, 0.6]], "C_grid": [0.4, 1.5, 5.0], "T": [0.0, 0.7],
     "seed": 9, "budget": {"restarts": 2, "iters": 50}},
], ids=["lanes golden", "asymmetric"])
def test_sweep_rows_are_the_scalar_path_bit_for_bit(config, monkeypatch):
    """A whole sweep, every (T, C) lane of a scheme in lockstep, against the
    same sweep with every point evaluated alone on the scalar path."""
    if isinstance(config, str):
        config = json.loads((Path(__file__).parent / "golden" / config).read_text())
    rows = schemes.sweep_rows(config)
    scheme_oracle.scalar_path(monkeypatch)
    with np.errstate(all="ignore"):
        expect = schemes.sweep_rows(config)
    assert [{k: bits(v) if isinstance(v, float) else v for k, v in r.items()} for r in rows] \
        == [{k: bits(v) if isinstance(v, float) else v for k, v in r.items()} for r in expect]
