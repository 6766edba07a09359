import math

import numpy as np
import pytest

import scheme_oracle
from conftest import criterion1_networks
from cranbounds import gaussian, schemes
from cranbounds.atoms import atom_plan
from cranbounds.gaussian import CranNetwork
from cranbounds.schemes import (CompressionParams, DescriptionIParams,
                                DescriptionIIParams, DescriptionIIIParams,
                                OptimizerBudget, build_joint_cov,
                                optimize_scheme, rsum_star, scheme_sumrate,
                                sweep_rows)


def sym_net(P=10.0, g12=0.5, g21=-0.5, C=2.0, T=0.0):
    return CranNetwork.symmetric(P, g12, g21, C, T)


def test_param_validation():
    with pytest.raises(ValueError, match="power"):
        build_joint_cov("GDS-I", DescriptionIParams(np.eye(2), np.eye(2)), sym_net(P=1.0))
    with pytest.raises(ValueError, match="power"):
        build_joint_cov("GDS-II", DescriptionIIParams(np.array([2.0, 0, 0, 0]), np.zeros(4)),
                        sym_net(P=1.0))
    with pytest.raises(ValueError, match="power"):
        build_joint_cov("GDS-III", DescriptionIIIParams(np.eye(2), np.eye(2), np.zeros((2, 2))),
                        sym_net(P=1.0))
    # X0 correlation exceeding unit variance breaks joint PSD
    with pytest.raises(ValueError, match=r"\(S1,S2,W,X0\) covariance is not PSD"):
        build_joint_cov("GCOMP", CompressionParams(np.eye(2), np.eye(2), np.eye(2),
                                                   np.array([2.0, 0, 0, 0, 0, 0])),
                        sym_net(P=100.0))
    with pytest.raises(ValueError, match="K1 is not PSD"):
        build_joint_cov("GDS-I", DescriptionIParams(np.diag([1.0, -0.5]), np.eye(2)),
                        sym_net(P=10.0))


@pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("scheme", ["GDS-I", "GDS-III", "GCOMP"])
def test_non_finite_k1_is_a_value_error(scheme, v):
    """A NaN or infinite K1 is named by the PSD check before its 2x2 closed
    form (whose comparisons would pass NaN) or an eigensolve runs: one
    message for every scheme and any GCOMP X0 correlation."""
    K2, A = 0.5 * np.eye(2), np.zeros((2, 2))
    for K1 in (np.array([[v, 0.0], [0.0, 1.0]]), np.array([[1.0, v], [v, 1.0]])):
        params = {"GDS-I": [DescriptionIParams(K1, K2)],
                  "GDS-III": [DescriptionIIIParams(K1, K2, A)],
                  "GCOMP": [CompressionParams(K1, K2, K2, c)
                            for c in (np.zeros(6), np.full(6, 0.1))]}[scheme]
        for p in params:
            with pytest.raises(ValueError, match="^K1 is not finite$"):
                build_joint_cov(scheme, p, sym_net())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["a", "b"])
def test_non_finite_gds2_coefficients_are_named(name, v):
    """A NaN or infinite GDS-II coefficient is named before M B M^T runs,
    where inf * 0 would warn and the covariance check would name no
    parameter."""
    bad = np.array([v, 0.0, 0.0, 0.0])
    a, b = (bad, np.zeros(4)) if name == "a" else (np.zeros(4), bad)
    with pytest.raises(ValueError, match=f"^{name} is not finite$"):
        build_joint_cov("GDS-II", DescriptionIIParams(a, b), sym_net())


@pytest.mark.parametrize("scheme", schemes.GAUSSIAN_SCHEMES)
def test_an_evaluation_builds_no_constant_matrix(scheme, monkeypatch):
    """A scheme's 0/1 row template is built once, at import: scoring a batch
    (restart 0 and two random restarts, the region compiled first) calls no
    `np.eye`."""
    net = sym_net()
    schemes._compiled(scheme)
    rng = np.random.default_rng(26)
    xs = np.array([schemes._initial(scheme, net.P, rng, r) for r in range(3)])
    eye, calls = np.eye, []
    monkeypatch.setattr(np, "eye", lambda *a, **k: calls.append(a) or eye(*a, **k))
    values = schemes._objective(scheme, xs, [net] * 3)
    assert calls == [] and np.isfinite(values).all()


def test_desc1_zero_second_description():
    net = sym_net(P=4.0)
    p = DescriptionIParams(2.0 * np.eye(2), np.zeros((2, 2)))
    cov = build_joint_cov("GDS-I", p, net)
    assert gaussian.gauss_mi(cov, ["V0"], ["Y2"]) == pytest.approx(0.0, abs=1e-9)
    assert gaussian.gauss_mi(cov, ["U0"], ["V0"]) == pytest.approx(0.0, abs=1e-9)


def test_zero_power_kills_all_information():
    net = sym_net(P=0.0)
    p = DescriptionIParams(np.zeros((2, 2)), np.zeros((2, 2)))
    cov = build_joint_cov("GDS-I", p, net)
    for pair in (("U0", "Y1"), ("V0", "Y2")):
        assert gaussian.gauss_mi(cov, [pair[0]], [pair[1]]) == pytest.approx(0.0, abs=1e-12)


def hand_assembled_desc1(params, net):
    """Independent oracle: blockwise covariance assembly from closed-form
    second moments rather than the linear-map route."""
    K1, K2 = params.K1, params.K2
    g1, g2 = net.G[0], net.G[1]
    A = K2 @ np.outer(g2, g2) / (1.0 + float(g2 @ K2 @ g2))
    KX = K1 + K2
    cov_u0_v0 = K1 @ A.T
    cov_u0_x = K1
    cov_v0_x = A @ K1 + K2
    var_v0 = A @ K1 @ A.T + K2
    top = np.block([
        [K1, cov_u0_v0, cov_u0_x],
        [cov_u0_v0.T, var_v0, cov_v0_x],
        [cov_u0_x.T, cov_v0_x.T, KX],
    ])
    # append Y = G X + Z
    Gm = net.G
    cross_y = top[:, 4:6] @ Gm.T
    var_y = Gm @ KX @ Gm.T + np.eye(2)
    full = np.block([[top, cross_y], [cross_y.T, var_y]])
    names = [("U0", 2), ("V0", 2), ("X1", 1), ("X2", 1), ("Y1", 1), ("Y2", 1)]
    return gaussian.JointCovariance.make(names, full)


def test_desc1_matches_hand_assembled_covariance():
    rng = np.random.default_rng(2)
    net = sym_net(P=10.0, g12=0.4, g21=0.7)
    for _ in range(5):
        L1, L2 = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        K1, K2 = L1 @ L1.T, L2 @ L2.T
        scale = np.sqrt(10.0 / max(np.diag(K1 + K2)))
        params = DescriptionIParams(scale ** 2 * K1, scale ** 2 * K2)
        cov = build_joint_cov("GDS-I", params, net)
        oracle = hand_assembled_desc1(params, net)
        assert np.allclose(cov.matrix, oracle.matrix, atol=1e-9)
        for a, b in (("U0", "Y1"), ("V0", "Y2"), ("U0", "V0")):
            assert gaussian.gauss_mi(cov, [a], [b]) == pytest.approx(
                gaussian.gauss_mi(oracle, [a], [b]), abs=1e-9)


def test_dirty_paper_precoder_never_hurts():
    """With the interference precoder, the decodable rate of the second
    description is at least what the unprecoded construction achieves."""
    rng = np.random.default_rng(3)
    for _ in range(10):
        net = sym_net(P=float(rng.uniform(1, 30)), g12=float(rng.uniform(-1, 1)),
                      g21=float(rng.uniform(-1, 1)))
        L1, L2 = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        K1, K2 = L1 @ L1.T, L2 @ L2.T
        scale2 = net.P / max(np.diag(K1 + K2))
        params = DescriptionIParams(scale2 * K1, scale2 * K2)
        cov = build_joint_cov("GDS-I", params, net)
        with_dpc = (gaussian.gauss_mi(cov, ["V0"], ["Y2"])
                    - gaussian.gauss_mi(cov, ["U0"], ["V0"]))
        # unprecoded variant: V0 = S2 alone
        g1, g2 = net.G[0], net.G[1]
        base = np.zeros((6, 6))
        base[0:2, 0:2] = params.K1
        base[2:4, 2:4] = params.K2
        base[4:6, 4:6] = np.eye(2)
        I2, Z2 = np.eye(2), np.zeros((2, 2))
        rows = [np.hstack([I2, Z2, Z2]), np.hstack([Z2, I2, Z2]),
                np.hstack([[g2], [g2], [[0, 1]]])]
        M = np.vstack(rows)
        plain = gaussian.JointCovariance.make(
            [("U0", 2), ("V0", 2), ("Y2", 1)], M @ base @ M.T)
        without = (gaussian.gauss_mi(plain, ["V0"], ["Y2"])
                   - gaussian.gauss_mi(plain, ["U0"], ["V0"]))
        assert with_dpc >= without - 1e-9


def test_scheme_sumrate_closed_form_gds1():
    net = sym_net(P=10.0, C=1.5, T=0.5)
    p = DescriptionIParams(3.0 * np.eye(2), 2.0 * np.eye(2))
    cov = build_joint_cov("GDS-I", p, net)
    i1 = gaussian.gauss_mi(cov, ["U0"], ["Y1"])
    i2 = gaussian.gauss_mi(cov, ["V0"], ["Y2"])
    i12 = gaussian.gauss_mi(cov, ["U0"], ["V0"])
    expect = min(i1 + i2, i1 + i2 - i12, 1.5 + 0.5, 1.5 + 0.5, 3.0)
    assert scheme_sumrate("GDS-I", p, net) == pytest.approx(expect, abs=1e-6)


def test_scheme_sumrate_zero_caps():
    net = sym_net(C=0.0, T=0.0)
    p = DescriptionIParams(3.0 * np.eye(2), 2.0 * np.eye(2))
    assert scheme_sumrate("GDS-I", p, net) == pytest.approx(0.0, abs=1e-9)


def test_optimize_zero_power():
    net = sym_net(P=0.0, C=2.0)
    for scheme in schemes.GAUSSIAN_SCHEMES:
        ev = optimize_scheme(scheme, net, OptimizerBudget(restarts=2, iters=300, seed=0))
        assert ev.sum_rate == pytest.approx(0.0, abs=1e-9)


def test_optimize_rejects_a_non_2x2_network():
    """It used to return sum rate 0.0 with no parameters: every evaluation
    failed.  Its early-exit bound, rsum_star, now rejects the shape."""
    net = CranNetwork.make(np.eye(3), 1.0, [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="2-BS 2-user"):
        optimize_scheme("GDS-I", net, OptimizerBudget(restarts=1, iters=5))


def test_optimizer_monotone_in_restarts():
    net = sym_net(P=20.0, C=3.0, T=0.0)
    small = optimize_scheme("GDS-II", net, OptimizerBudget(restarts=2, iters=1200, seed=5))
    large = optimize_scheme("GDS-II", net, OptimizerBudget(restarts=6, iters=1200, seed=5))
    assert large.sum_rate >= small.sum_rate - 1e-12


def test_optimizer_deterministic():
    net = sym_net(P=5.0, C=1.0)
    a = optimize_scheme("GDS-I", net, OptimizerBudget(restarts=3, iters=600, seed=7))
    b = optimize_scheme("GDS-I", net, OptimizerBudget(restarts=3, iters=600, seed=7))
    assert a.sum_rate == b.sum_rate
    assert a.diagnostics == b.diagnostics


def test_rsum_star_decoupled():
    net = CranNetwork.make(np.eye(2), 3.0, [10, 10])
    star = rsum_star(net)
    assert star == pytest.approx(2.0, abs=2e-4)


def test_rsum_star_single_user_beamforming():
    # second user disconnected: optimum is coherent beamforming,
    # 0.5 log2(1 + P (|g11| + |g12|)^2)
    P = 6.0
    net = CranNetwork.make([[1.0, 0.8], [0.0, 0.0]], P, [10, 10])
    star = rsum_star(net)
    expect = 0.5 * np.log2(1 + P * (1.0 + 0.8) ** 2)
    # fine grid oracle over rank-one splits K = P [[1, s],[s, 1]]
    grid = max(0.5 * np.log2(1 + float(net.G[0] @ (P * np.array([[1, s], [s, 1]])) @ net.G[0]))
               for s in np.arange(-1, 1.0001, 0.01))
    assert star == pytest.approx(expect, abs=2e-3)
    assert star == pytest.approx(grid, abs=2e-3)


@pytest.mark.parametrize("P", [1.0, 100.0])
def test_rsum_star_orthogonal_rows_closed_form(P):
    """With g21 = -g12 and unit direct gains the channel rows are orthogonal
    and the second-hop sum capacity has the closed form
    log2(1 + (1 + g12^2) P): the log-det outer bound is met by steering an
    independent stream along each row."""
    net = sym_net(P=P, g12=0.5, g21=-0.5, C=1e6)
    star = rsum_star(net)
    expect = np.log2(1.0 + 1.25 * P)
    assert star == pytest.approx(expect, abs=1e-3)


def test_rsum_star_never_below_random_search():
    net = sym_net(P=20.0, g12=0.5, g21=0.5, C=1e6)
    star = rsum_star(net)
    rng = np.random.default_rng(29)
    best = 0.0
    for _ in range(4000):
        L1, L2 = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        K1, K2 = L1 @ L1.T, L2 @ L2.T
        d = np.diag(K1 + K2).max()
        K1, K2 = 20.0 / d * K1, 20.0 / d * K2
        for order in (0, 1):
            best = max(best, _dpc_sum_rate(net, K1, K2, order))
    assert star >= best - 1e-3


# ---------------------------------------------------------------------------
# rsum_star against the dirty-paper pattern search it replaced.  The search
# reaches achievable sum rates, so it is a lower oracle for the certified
# Sato value: oracle <= rsum_star <= oracle + 1e-9.
# ---------------------------------------------------------------------------


def _dpc_sum_rate(network, K1, K2, order):
    """Dirty-paper sum rate for one encoding order; the cleanly precoded
    user sees only its own description."""
    g1, g2 = network.G[0], network.G[1]
    if order == 1:
        g1, g2 = g2, g1
        K1, K2 = K2, K1
    s1 = float(g1 @ K1 @ g1)
    n1 = float(g1 @ K2 @ g1)
    r1 = 0.5 * np.log2(1.0 + s1 / (1.0 + n1))
    r2 = 0.5 * np.log2(1.0 + float(g2 @ K2 @ g2))
    return r1 + r2


def dpc_oracle(network, budget=OptimizerBudget(restarts=4)):
    """Best dirty-paper point over both encoding orders and over covariance
    splits respecting the per-BS power, by seeded pattern search.  The
    smallest step shrinks with sqrt(P) so that tiny powers are searched."""
    P = network.P
    seeds = np.random.SeedSequence(budget.seed).spawn(budget.restarts)
    step0 = schemes.STEP0_SCALE * np.sqrt(P)
    min_step = schemes.MIN_STEP * min(1.0, np.sqrt(P))
    best = 0.0
    for order in (0, 1):
        def f(x):
            K1, K2 = scheme_oracle._scale_to_power([scheme_oracle._vec_to_psd(x[0:3]),
                                                    scheme_oracle._vec_to_psd(x[3:6])], P)
            return _dpc_sum_rate(network, K1, K2, order)
        for r in range(budget.restarts):
            rng = np.random.default_rng(seeds[r])
            h = np.sqrt(P) / 2.0
            x0 = np.array([h, 0, h, h, 0, h]) if r == 0 else rng.normal(0, 0.5 * np.sqrt(P), 6)
            _, fx, _ = scheme_oracle.pattern_search(f, x0, step0, min_step, budget.iters)
            best = max(best, fx)
    return best


ORACLE_NETWORKS = (
    [(f"criterion1-{k}", net) for k, net in enumerate(criterion1_networks())]
    + [(name, CranNetwork.make(G, P, [1.0, 1.0])) for name, G, P in [
        ("fig4", [[1.0, 0.5], [0.5, 1.0]], 1.0),
        ("fig6", [[1.0, 0.5], [-0.5, 1.0]], 100.0),
        ("equal-rows", [[1.0, 1.0], [1.0, 1.0]], 5.0),
        ("opposite-rows", [[1.0, 0.5], [-1.0, -0.5]], 3.0),
        ("parallel-rows", [[1.0, 0.5], [2.0, 1.0]], 3.0),
        ("diagonal", [[2.0, 0.0], [0.0, 0.3]], 4.0),
        ("tiny-power", [[1.0, 0.5], [0.5, 1.0]], 1e-9),
    ]])


@pytest.mark.parametrize("name,net", ORACLE_NETWORKS, ids=[n for n, _ in ORACLE_NETWORKS])
def test_rsum_star_between_dpc_oracle_and_oracle_plus_1e9(name, net):
    """The Sato value is never below an achievable dirty-paper rate and is
    within 1e-9 of the best one found; the lower side allows 1e-13 for the
    rounding of the two different log computations."""
    star, oracle = rsum_star(net), dpc_oracle(net)
    assert oracle - 1e-13 <= star <= oracle + 1e-9


@pytest.mark.parametrize("P", [1e-9, 1e-6, 1.0, 5.0, 1e4, 1e8])
@pytest.mark.parametrize("G", [[[1.0, 1.0], [1.0, 1.0]], [[1.0, 0.5], [-1.0, -0.5]],
                               [[0.3, -2.0], [0.3, -2.0]]])
def test_rsum_star_equal_or_opposite_rows_exact(G, P):
    """Equal (opposite) rows put the worst-case noise at rho -> 1 (-1); the
    limit is the beamforming rate 1/2 log2(1 + P (|g11| + |g12|)^2), e.g.
    1/2 log2(21) for G = [[1, 1], [1, 1]] at P = 5.  As det(N + G S G^T) /
    det N the ratio cancels catastrophically near those limits."""
    net = CranNetwork.make(G, P, [1.0, 1.0])
    gain = (abs(G[0][0]) + abs(G[0][1])) ** 2
    expect = 0.5 * math.log1p(gain * P) / math.log(2.0)
    assert rsum_star(net) == pytest.approx(expect, rel=1e-15)


@pytest.mark.parametrize("G,P", [(np.zeros((2, 2)), 5.0), (np.eye(2), 0.0)])
def test_rsum_star_zero_is_positive_zero(G, P):
    star = rsum_star(CranNetwork.make(G, P, [1.0, 1.0]))
    assert star == 0.0 and math.copysign(1.0, star) == 1.0
    assert f"{star:.6f}" == "0.000000"


def test_rsum_star_rejects_non_2x2():
    with pytest.raises(ValueError):
        rsum_star(CranNetwork.make(np.eye(3), 1.0, [1.0, 1.0, 1.0]))


def test_scheme_sum_cap_includes_second_hop_capacity():
    """The early-exit cap is min(fronthaul caps, rsum_star): with ample
    fronthaul it is the second-hop sum capacity itself."""
    wide = sym_net(P=10.0, C=1e6)
    for scheme in schemes.GAUSSIAN_SCHEMES:
        assert schemes.scheme_sum_cap(scheme, wide) == rsum_star(wide)
    narrow = sym_net(P=10.0, C=0.5, T=0.1)
    assert schemes.scheme_sum_cap("GDS-I", narrow) == pytest.approx(0.6)
    assert schemes.scheme_sum_cap("GDS-II", narrow) == pytest.approx(1.0)


@pytest.mark.parametrize("seed", [0, 1])
def test_sweep_cutset_never_undercut_at_small_budget(seed):
    """With a searched rsum_star a 120-iteration fig6 sweep put GDS-II above
    its own cut-set column (by 1.07e-3 at seed 0 and 1.43e-3 at seed 1)."""
    config = {"P": 100.0, "G": [[1.0, 0.5], [-0.5, 1.0]], "T": 2.0,
              "C_grid": [0.728, 5.079], "seed": seed,
              "budget": {"restarts": 1, "iters": 120}}
    rows = sweep_rows(config)
    assert len(rows) == 10
    for r in rows:
        assert r["sum_rate"] <= r["cutset"] + 1e-9, r


def test_sweep_timeshare_is_the_best_gds_scheme():
    """GDS-TS is the maximum of GDS-I/II/III at every C, and the cut-set
    column is min(2C, rsum_star)."""
    config = {"P": 10.0, "G": [[1.0, 0.5], [-0.5, 1.0]], "C_grid": [0.5, 1.5, 4.0],
              "T": 0.5, "seed": 11, "budget": {"restarts": 2, "iters": 300}}
    rows = sweep_rows(config)
    for C in config["C_grid"]:
        at = {r["scheme"]: r for r in rows if r["C"] == C}
        assert at["GDS-TS"]["sum_rate"] == max(at[s]["sum_rate"]
                                               for s in ("GDS-I", "GDS-II", "GDS-III"))
        for r in at.values():
            assert r["cutset"] == min(2.0 * C, r["rsum_star"])


BAD_BUDGET_COUNTS = [("restarts", 0), ("restarts", -2), ("iters", 0),
                     ("iters", 2.5), ("restarts", "3"), ("iters", True)]


@pytest.mark.parametrize("key,value", BAD_BUDGET_COUNTS)
def test_optimizer_budget_rejects_a_count_that_is_not_a_positive_integer(key, value):
    with pytest.raises(ValueError, match=f"budget {key} must be an integer of at least 1"):
        OptimizerBudget(**{key: value})


@pytest.mark.parametrize("key,value", BAD_BUDGET_COUNTS)
def test_sweep_rejects_a_budget_count_that_is_not_a_positive_integer(key, value):
    config = {"P": 1.0, "G": np.eye(2).tolist(), "C_grid": [1.0], "schemes": ["GDS-I"],
              "seed": 0, "budget": {"restarts": 1, "iters": 5, key: value}}
    with pytest.raises(ValueError, match=f"budget {key} must be an integer of at least 1"):
        sweep_rows(config)


def test_every_scheme_below_cutset(monkeypatch):
    # no early exit: the search may run past the cap, so an objective that
    # overshoots the cut-set bound shows up in the assertion
    monkeypatch.setattr(schemes, "scheme_sum_cap", lambda scheme, network: np.inf)
    rng = np.random.default_rng(13)
    for _ in range(2):
        P = float(rng.uniform(1, 40))
        C = float(rng.uniform(0.5, 3))
        net = sym_net(P=P, g12=0.5, g21=float(rng.choice([-0.5, 0.5])), C=C, T=0.0)
        star = rsum_star(net)
        cut = min(2 * C, star)
        for scheme in schemes.GAUSSIAN_SCHEMES:
            ev = optimize_scheme(scheme, net,
                                 OptimizerBudget(restarts=3, iters=1500, seed=19))
            assert ev.sum_rate <= cut + 1e-6


def test_sweep_rows_deterministic_and_sorted():
    config = {"P": 5.0, "G": [[1.0, 0.5], [0.5, 1.0]], "C_grid": [0.5, 1.5],
              "T": 0.0, "schemes": ["GDS-I", "GDS-TS"], "seed": 21,
              "budget": {"restarts": 2, "iters": 500}}
    rows1 = sweep_rows(config)
    rows2 = sweep_rows(config)
    assert rows1 == rows2
    keys = [(r["C"], r["T"], r["scheme"]) for r in rows1]
    assert keys == sorted(keys)
    assert {r["scheme"] for r in rows1} == {"GDS-I", "GDS-TS"}


def test_sweep_rejects_bad_config():
    with pytest.raises(ValueError):
        sweep_rows({"P": 1.0, "G": np.eye(2).tolist(), "C_grid": [],
                    "seed": 0})
    with pytest.raises(ValueError):
        sweep_rows({"P": 1.0, "G": np.eye(2).tolist(), "C_grid": [1.0],
                    "schemes": [], "seed": 0})
    with pytest.raises(ValueError):
        sweep_rows({"P": 1.0, "G": np.eye(2).tolist(), "C_grid": [1.0],
                    "schemes": ["NOPE"], "seed": 0})


@pytest.mark.parametrize("key", ["P", "G", "C_grid", "seed"])
def test_sweep_rows_names_a_missing_required_field(key):
    """Only the CLI used to check these; sweep_rows raised KeyError."""
    config = {"P": 1.0, "G": np.eye(2).tolist(), "C_grid": [1.0], "schemes": ["GDS-I"],
              "seed": 0}
    del config[key]
    with pytest.raises(ValueError, match=f"sweep config is missing required field '{key}'"):
        sweep_rows(config)


def test_gcomp_infinite_atom_when_compression_noise_vanishes():
    """Zero compression noise makes the channel inputs a deterministic
    function of the descriptions: the fronthaul atoms diverge and the
    region collapses."""
    net = sym_net(P=10.0, C=1.0)
    p = CompressionParams(2.0 * np.eye(2), 2.0 * np.eye(2), np.zeros((2, 2)),
                          np.zeros(6))
    cov = build_joint_cov("GCOMP", p, net)
    val = gaussian.atom_valuation(cov, ["I(U1,U2;X0,X1,X2)"])
    assert np.isinf(val["I(U1,U2;X0,X1,X2)"])
    assert scheme_sumrate("GCOMP", p, net) == 0.0


class NoMemo(dict):
    """A memo that holds nothing."""

    def __contains__(self, key):
        return False

    def __setitem__(self, key, value):
        pass


@pytest.mark.parametrize("scheme", schemes.GAUSSIAN_SCHEMES)
def test_objective_memo_changes_no_result(scheme, monkeypatch):
    """The memo computes each distinct point of a restart once, the
    lookahead points included, and changes nothing else: the same sum rate,
    parameters, evaluation count and winning restart as with no memo, and
    as the scalar search one point after another."""
    # no early exit, so every restart runs its whole budget and steps back
    monkeypatch.setattr(schemes, "scheme_sum_cap", lambda scheme, network: np.inf)
    net = CranNetwork.make([[1.0, 0.5], [-0.5, 1.0]], 100.0, [2.0, 2.5], [[0.0, 1.0], [0.5, 0.0]])
    budget = OptimizerBudget(restarts=3, iters=120, seed=4)
    objective, seen = schemes._objective, []

    def traced(scheme, X, networks):
        seen.extend(x.tobytes() for x in X)
        return objective(scheme, X, networks)

    monkeypatch.setattr(schemes, "_objective", traced)
    memo = optimize_scheme(scheme, net, budget)
    assert len(set(seen)) == len(seen) >= memo.diagnostics["distinct_evals"]
    assert memo.diagnostics["distinct_evals"] < memo.diagnostics["evals"] == 3 * 120

    search = schemes._pattern_search
    monkeypatch.setattr(schemes, "_pattern_search", lambda *a: search(*a[:-1], NoMemo()))
    plain = optimize_scheme(scheme, net, budget)
    x, rate, evals, best = scheme_oracle.optimize(scheme, net, budget)
    for ev in (plain, memo):
        assert ev.sum_rate.hex() == rate.hex()
        assert (ev.diagnostics["evals"], ev.diagnostics["best_restart"]) == (evals, best)
        for name, value in vars(scheme_oracle.to_params(scheme, x, net.P)).items():
            assert np.array_equal(value, getattr(ev.params, name)), name


@pytest.mark.parametrize("scheme", schemes.GAUSSIAN_SCHEMES)
def test_an_evaluation_solves_the_joint_once_and_one_stack_per_block_size(scheme, monkeypatch):
    """The eigenvalue cut reuses the joints' PSD-check spectra, the 2x2
    parameter checks take the closed form, with no eigensolve, and a batch
    of lanes takes one eigensolve for its joints, one for GCOMP's (S1, S2,
    W, X0) covariances and one per block size above 2x2."""
    net, lanes = sym_net(), 3
    rng = np.random.default_rng(0)
    X = np.array([schemes._initial(scheme, net.P, rng, r + 1) for r in range(lanes)])
    with np.errstate(all="ignore"):
        params = schemes._lane(schemes._to_params(scheme, X, net.P), 0)
    cov = schemes.build_joint_cov(scheme, params, net)
    dims = dict(cov.components)
    plan = atom_plan(cov.names, tuple(schemes._compiled(scheme)[0].rows.atoms))
    sizes = {sum(dims[n] for n in s) for s in plan.subsets}
    shapes, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
    assert np.isfinite(schemes._objective(scheme, X, [net] * lanes)).all()
    n, joint = cov.matrix.shape[0], [(lanes, 7, 7)] if scheme == "GCOMP" else []
    joint.append((lanes, n, n))
    assert shapes[:len(joint)] == joint
    stacks = shapes[len(joint):]
    assert all(len(s) == 4 and s[0] == lanes for s in stacks)
    assert sorted(s[-1] for s in stacks) == sorted(k for k in sizes if k > 2)


@pytest.mark.xfail(strict=True, reason="the rank cut, relative to the whole joint's top "
                   "eigenvalue, reads I(U0,U1,U2;Y1) and its conditional forms as infinite")
def test_gds2_sum_rate_at_high_snr_is_finite_information():
    """Y1 - Z1 is a function of (U0, U1, U2), so I(U0,U1,U2;Y1) is
    1/2 log2 var(Y1) = 1/2 log2(1.75e6 + 1); the kernel returns the cut-set
    value 2C = 16 instead."""
    a = np.array([math.sqrt(5e5), 0.0, math.sqrt(5e5), 0.0])
    rate = scheme_sumrate("GDS-II", DescriptionIIParams(a, a.copy()),
                          CranNetwork.symmetric(1e6, 0.5, 0.5, 8))
    assert rate == pytest.approx(0.5 * math.log2(1.75e6 + 1), abs=1e-3)
