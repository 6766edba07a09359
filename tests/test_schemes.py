import numpy as np
import pytest

from cranbounds import gaussian, schemes
from cranbounds.gaussian import CranNetwork
from cranbounds.schemes import (CompressionParams, DescriptionIParams,
                                DescriptionIIParams, DescriptionIIIParams,
                                OptimizerBudget, build_joint_cov,
                                gds_timeshare_sumrate, optimize_scheme,
                                rsum_star, scheme_sumrate, sweep_rows)


def sym_net(P=10.0, g12=0.5, g21=-0.5, C=2.0, T=0.0):
    return CranNetwork.symmetric(P, g12, g21, C, T)


def test_param_validation():
    with pytest.raises(ValueError):
        DescriptionIParams(np.eye(2), np.eye(2)).validate(1.0)
    with pytest.raises(ValueError):
        DescriptionIIParams(np.array([2.0, 0, 0, 0]), np.zeros(4)).validate(1.0)
    with pytest.raises(ValueError):
        DescriptionIIIParams(np.eye(2), np.eye(2), np.zeros((2, 2))).validate(1.0)
    # X0 correlation exceeding unit variance breaks joint PSD
    with pytest.raises(ValueError):
        CompressionParams(np.eye(2), np.eye(2), np.eye(2),
                          np.array([2.0, 0, 0, 0, 0, 0])).validate(100.0)


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
    star = rsum_star(net, OptimizerBudget(restarts=6, seed=1))
    assert star == pytest.approx(2.0, abs=2e-4)


def test_rsum_star_single_user_beamforming():
    # second user disconnected: optimum is coherent beamforming,
    # 0.5 log2(1 + P (|g11| + |g12|)^2)
    P = 6.0
    net = CranNetwork.make([[1.0, 0.8], [0.0, 0.0]], P, [10, 10])
    star = rsum_star(net, OptimizerBudget(restarts=10, seed=2))
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
    star = rsum_star(net, OptimizerBudget(restarts=16, seed=3))
    expect = np.log2(1.0 + 1.25 * P)
    assert star == pytest.approx(expect, abs=1e-3)


def test_rsum_star_never_below_random_search():
    net = sym_net(P=20.0, g12=0.5, g21=0.5, C=1e6)
    star = rsum_star(net, OptimizerBudget(restarts=16, seed=3))
    rng = np.random.default_rng(29)
    best = 0.0
    for _ in range(4000):
        L1, L2 = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        K1, K2 = L1 @ L1.T, L2 @ L2.T
        d = np.diag(K1 + K2).max()
        K1, K2 = 20.0 / d * K1, 20.0 / d * K2
        for order in (0, 1):
            best = max(best, schemes._dpc_sum_rate(net, K1, K2, order))
    assert star >= best - 1e-3


def test_timeshare_dominates_each_scheme():
    net = sym_net(P=10.0, C=1.5, T=0.5)
    budget = OptimizerBudget(restarts=2, iters=800, seed=11)
    ts = gds_timeshare_sumrate(net, budget)
    for scheme in ("GDS-I", "GDS-II", "GDS-III"):
        cap = min(net.C[0] + net.Ccoop[0, 1], 2 * net.C[0]) if scheme == "GDS-I" \
            else 2 * net.C[0]
        ev = optimize_scheme(scheme, net, budget, upper_bound=cap)
        assert ts >= ev.sum_rate - 1e-9


def test_every_scheme_below_cutset():
    rng = np.random.default_rng(13)
    for _ in range(2):
        P = float(rng.uniform(1, 40))
        C = float(rng.uniform(0.5, 3))
        net = sym_net(P=P, g12=0.5, g21=float(rng.choice([-0.5, 0.5])), C=C, T=0.0)
        star = rsum_star(net, OptimizerBudget(restarts=16, seed=17))
        cut = min(2 * C, star)
        for scheme in schemes.GAUSSIAN_SCHEMES:
            ev = optimize_scheme(scheme, net,
                                 OptimizerBudget(restarts=3, iters=1500, seed=19),
                                 upper_bound=2 * C)
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
