"""The linear-Gaussian builder behind `build_joint_cov` against the
hand-written constructions kept in `scheme_oracle`."""

import numpy as np
import pytest

import scheme_oracle
from cranbounds.gaussian import CranNetwork
from cranbounds.schemes import (GAUSSIAN_SCHEMES, CompressionParams,
                                DescriptionIIIParams, DescriptionIIParams,
                                DescriptionIParams, _SchemeSpace,
                                build_joint_cov)


def assert_matches_oracle(scheme, params, net):
    """Same components and matrix as the oracle (GDS-II within 1e-14
    relative: its output rows were written elementwise there), or the same
    ValueError outcome."""
    try:
        expect = scheme_oracle.build_joint_cov(scheme, params, net)
    except ValueError:
        with pytest.raises(ValueError):
            build_joint_cov(scheme, params, net)
        return False
    got = build_joint_cov(scheme, params, net)
    assert got.components == expect.components
    if scheme == "GDS-II":
        scale = np.abs(expect.matrix).max()
        assert np.abs(got.matrix - expect.matrix).max() <= 1e-14 * scale
    else:
        assert np.array_equal(got.matrix, expect.matrix)
    return True


def random_net(rng, P=None):
    P = float(rng.uniform(0.1, 40.0)) if P is None else P
    return CranNetwork.make(rng.uniform(-1.5, 1.5, size=(2, 2)), P, [1.0, 1.0])


def _inflated(scheme, params, factor):
    """The same parameters with every power-carrying entry scaled."""
    if scheme == "GDS-II":
        return DescriptionIIParams(factor * params.a, factor * params.b)
    f2 = factor * factor
    if scheme == "GDS-I":
        return DescriptionIParams(f2 * params.K1, f2 * params.K2)
    if scheme == "GDS-III":
        return DescriptionIIIParams(f2 * params.K1, f2 * params.K2, params.A)
    return CompressionParams(f2 * params.K1, f2 * params.K2, f2 * params.Kw,
                             factor * params.x0cov)


@pytest.mark.parametrize("scheme", GAUSSIAN_SCHEMES)
def test_builder_matches_oracle_on_optimizer_points(scheme):
    rng = np.random.default_rng(90 + GAUSSIAN_SCHEMES.index(scheme))
    valid = 0
    for r in range(150):
        net = random_net(rng)
        space = _SchemeSpace(scheme, net)
        params = space.to_params(space.initial(rng, r))
        valid += assert_matches_oracle(scheme, params, net)
        # the same point pushed over the power budget (or, for GCOMP, past
        # the unit variance of X0) must fail on both sides alike
        assert_matches_oracle(scheme, _inflated(scheme, params, 1.2), net)
    assert valid == 150


def test_builder_matches_oracle_on_edge_cases():
    rng = np.random.default_rng(7)
    Z2, I2 = np.zeros((2, 2)), np.eye(2)
    K = np.array([[2.0, 0.5], [0.5, 1.0]])
    rank1 = np.outer([1.0, 2.0], [0.5, -1.0])
    zero_power = random_net(rng, P=0.0)
    net = random_net(rng, P=5.0)
    cases = [
        # P = 0
        ("GDS-I", DescriptionIParams(Z2, Z2), zero_power),
        ("GDS-II", DescriptionIIParams(np.zeros(4), np.zeros(4)), zero_power),
        ("GDS-III", DescriptionIIIParams(Z2, Z2, rank1), zero_power),
        ("GCOMP", CompressionParams(Z2, Z2, Z2, np.zeros(6)), zero_power),
        # K2 = 0
        ("GDS-I", DescriptionIParams(K, Z2), net),
        ("GDS-III", DescriptionIIIParams(K, Z2, 0.3 * I2), net),
        ("GCOMP", CompressionParams(K, Z2, 0.5 * I2, np.zeros(6)), net),
        # zero compression noise, X0 independent and X0 correlated with S1
        ("GCOMP", CompressionParams(K, 0.5 * I2, Z2, np.zeros(6)), net),
        ("GCOMP", CompressionParams(K, 0.5 * I2, Z2, np.array([0.5, 0, 0, 0, 0, 0])), net),
        # rank-deficient precoder
        ("GDS-III", DescriptionIIIParams(0.4 * K, 0.5 * I2, rank1), net),
        ("GDS-III", DescriptionIIIParams(0.4 * K, 0.5 * I2, -I2), net),
        # per-BS power just inside the 1e-6 slack
        ("GDS-I", DescriptionIParams((2.5 + 5e-7) * I2, 2.5 * I2), net),
        ("GDS-II", DescriptionIIParams(np.sqrt(np.full(4, 1.25 + 2e-7)), np.zeros(4)), net),
    ]
    for scheme, params, n in cases:
        assert assert_matches_oracle(scheme, params, n), scheme
    invalid = [
        ("GDS-I", DescriptionIParams(np.diag([1.0, -0.5]), I2), net),        # K1 not PSD
        ("GDS-I", DescriptionIParams(I2, -0.1 * I2), net),                   # K2 not PSD
        ("GDS-I", DescriptionIParams(4.0 * I2, 2.0 * I2), net),              # power
        ("GDS-I", DescriptionIParams((2.5 + 5e-6) * I2, 2.5 * I2), net),     # power
        ("GDS-II", DescriptionIIParams(np.sqrt(np.full(4, 1.25 + 2e-6)), np.zeros(4)), net),
        ("GDS-II", DescriptionIIParams(np.zeros(4), np.full(4, 1.2)), net),   # power
        ("GDS-III", DescriptionIIIParams(K, -I2, Z2), net),                  # K2 not PSD
        ("GDS-III", DescriptionIIIParams(K, I2, I2), net),                   # power
        ("GCOMP", CompressionParams(K, I2, -0.1 * I2, np.zeros(6)), net),    # Kw not PSD
        ("GCOMP", CompressionParams(K, I2, I2, np.array([2.0, 0, 0, 0, 0, 0])), net),
        ("GDS-IV", DescriptionIParams(K, I2), net),
        ("GDS-I", DescriptionIParams(K, I2), CranNetwork.make(np.ones((3, 2)), 5.0, [1, 1])),
    ]
    for scheme, params, n in invalid:
        assert not assert_matches_oracle(scheme, params, n), scheme
