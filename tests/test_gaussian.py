import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import gap_oracle
from cranbounds import cli, gaussian
from cranbounds.atoms import gamma_atom, mi_atom
from cranbounds.gaussian import (CranNetwork, JointCovariance, capacity_logdet,
                                 gauss_mi, gauss_total_correlation,
                                 schur_conditional)


def cov2(name_dims, matrix):
    return JointCovariance.make(name_dims, np.asarray(matrix, dtype=float))


def test_schur_block_diagonal_unchanged():
    c = cov2([("A", 1), ("B", 1)], [[2.0, 0.0], [0.0, 3.0]])
    out = schur_conditional(c, ["A"], ["B"])
    assert out.matrix[0, 0] == pytest.approx(2.0, abs=1e-12)


def test_schur_correlated_pair():
    rho = 0.5
    c = cov2([("A", 1), ("B", 1)], [[1.0, rho], [rho, 1.0]])
    out = schur_conditional(c, ["A"], ["B"])
    assert out.matrix[0, 0] == pytest.approx(1 - rho ** 2, abs=1e-12)


def test_schur_empty_conditioning_is_identity():
    c = cov2([("A", 2), ("B", 1)], np.diag([1.0, 2.0, 3.0]))
    out = schur_conditional(c, ["A"], [])
    assert np.allclose(out.matrix, np.diag([1.0, 2.0]))
    with pytest.raises(KeyError):
        schur_conditional(c, ["Z"], [])
    with pytest.raises(ValueError):
        schur_conditional(c, ["A"], ["A"])


def test_gauss_mi_independent_blocks():
    c = cov2([("A", 1), ("B", 1)], np.diag([2.0, 5.0]))
    assert gauss_mi(c, ["A"], ["B"]) == pytest.approx(0.0, abs=1e-12)


def test_gauss_mi_scalar_awgn():
    # Y = X + Z, Var X = 3, Var Z = 1: I(X;Y) = 0.5 log2(4) = 1 bit
    c = cov2([("X", 1), ("Y", 1)], [[3.0, 3.0], [3.0, 4.0]])
    assert gauss_mi(c, ["X"], ["Y"]) == pytest.approx(1.0, abs=1e-9)


def test_gauss_mi_symmetry_and_conditional():
    rng = np.random.default_rng(0)
    for _ in range(10):
        m = rng.normal(size=(4, 4))
        c = cov2([("A", 1), ("B", 2), ("C", 1)], m @ m.T + 0.1 * np.eye(4))
        ab = gauss_mi(c, ["A"], ["B"], ["C"])
        ba = gauss_mi(c, ["B"], ["A"], ["C"])
        assert ab == pytest.approx(ba, abs=1e-9)
        assert ab >= 0


def test_gauss_mi_zero_variance_component_is_legal():
    c = cov2([("A", 1), ("B", 1)], [[1.0, 0.0], [0.0, 0.0]])
    assert gauss_mi(c, ["A"], ["B"]) == pytest.approx(0.0, abs=1e-12)


def test_gauss_mi_deterministic_dependence_is_infinite():
    # B = A almost surely
    c = cov2([("A", 1), ("B", 1)], [[1.0, 1.0], [1.0, 1.0]])
    assert np.isinf(gauss_mi(c, ["A"], ["B"]))


def test_total_correlation_gaussian():
    c = cov2([("A", 1), ("B", 1), ("C", 1)], np.eye(3))
    assert gauss_total_correlation(c, ["A", "B", "C"]) == pytest.approx(0.0, abs=1e-12)
    rho = 0.8
    c2 = cov2([("A", 1), ("B", 1)], [[1, rho], [rho, 1]])
    expect = -0.5 * np.log2(1 - rho ** 2)
    assert gauss_total_correlation(c2, ["A", "B"]) == pytest.approx(expect, abs=1e-9)
    assert gauss_total_correlation(c2, ["A"]) == 0.0


def test_capacity_logdet_values():
    assert capacity_logdet(np.array([[1.0]]), np.array([[0.0]])) == 0.0
    assert capacity_logdet(np.array([[1.0]]), np.array([[1.0]])) == pytest.approx(0.5, abs=1e-12)
    assert capacity_logdet(np.eye(2), 3.0 * np.eye(2)) == pytest.approx(2.0, abs=1e-9)
    assert capacity_logdet(np.zeros((0, 0)), np.zeros((0, 0))) == 0.0
    with pytest.raises(ValueError):
        capacity_logdet(np.eye(2), np.eye(3))


@pytest.mark.parametrize("bad", [
    {"P": float("nan")}, {"P": float("inf")},
    {"G": [[1.0, float("nan")], [0.5, 1.0]]}, {"G": [[1.0, 0.5], [-float("inf"), 1.0]]},
    {"C": [float("nan"), 1.0]}, {"C": [1.0, float("inf")]},
    {"Ccoop": [[0.0, float("nan")], [0.0, 0.0]]}, {"Ccoop": [[0.0, 0.0], [float("inf"), 0.0]]},
])
def test_network_rejects_non_finite_inputs(bad):
    """NaN slips through `P < 0` and `C.min() < 0`; the old searched
    rsum_star then returned 0.0 for it, and for P = inf."""
    args = {"G": [[1.0, 0.5], [0.5, 1.0]], "P": 1.0, "C": [1.0, 1.0], "Ccoop": None}
    args.update(bad)
    with pytest.raises(ValueError, match="finite"):
        CranNetwork.make(args["G"], args["P"], args["C"], args["Ccoop"])

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("matrix", [
    [[NAN]], [[INF]], [[1.0, NAN], [NAN, 1.0]], [[1.0, INF], [INF, 1.0]], [[-INF, 0.0], [0.0, 1.0]],
])
def test_covariance_rejects_non_finite_entries(matrix):
    """`make` recorded a NaN top eigenvalue for [[nan]], `gauss_mi` read 0.0
    on [[1, nan], [nan, 1]], and inf - inf warned in the symmetry test."""
    components = [(f"X{k}", 1) for k in range(1, len(matrix) + 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="covariance entries must be finite"):
            JointCovariance.make(components, matrix)


@pytest.mark.parametrize("g,k", [
    (np.eye(2), [[NAN, 0.0], [0.0, 1.0]]),
    (np.eye(2), [[INF, 0.0], [0.0, 1.0]]),
    ([[NAN, 1.0]], np.eye(2)),
    (np.stack([np.eye(2), [[1.0, 0.0], [0.0, NAN]]]), np.eye(2)),
])
def test_capacity_logdet_rejects_non_finite_inputs(g, k):
    """slogdet gave a NaN log or sign, which passed `sign <= 0`: each read 0.0 bits.
    The input is rejected before any linear algebra, which warned on it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite"):
            capacity_logdet(np.asarray(g), np.asarray(k))


def test_sylvester_identity():
    rng = np.random.default_rng(2)
    for _ in range(15):
        g = rng.normal(size=(2, 3))
        m = rng.normal(size=(3, 3))
        k = m @ m.T
        lhs = capacity_logdet(g, k)
        sign, logdet = np.linalg.slogdet(np.eye(3) + g.T @ g @ k)
        assert lhs == pytest.approx(0.5 * logdet / np.log(2.0), abs=1e-9)


def test_capacity_logdet_monotone_in_psd_order():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = rng.normal(size=(2, 2))
        m = rng.normal(size=(2, 2))
        k = m @ m.T
        assert capacity_logdet(g, k + 0.1 * np.eye(2)) >= capacity_logdet(g, k) - 1e-12


def test_gaussian_atom_valuation_matches_direct_routes():
    rng = np.random.default_rng(4)
    m = rng.normal(size=(5, 5))
    c = cov2([("A", 1), ("B", 2), ("C", 1), ("D", 1)], m @ m.T + 0.05 * np.eye(5))
    atoms = [mi_atom(["A"], ["B"]), mi_atom(["A"], ["D"], ["C"]),
             gamma_atom(["A", "C", "D"])]
    v = gaussian.atom_valuation(c, atoms, constants={})
    assert v["I(A;B)"] == pytest.approx(gauss_mi(c, ["A"], ["B"]), abs=1e-9)
    assert v["I(A;D|C)"] == pytest.approx(gauss_mi(c, ["A"], ["D"], ["C"]), abs=1e-9)
    assert v["Gamma(A,C,D)"] == pytest.approx(
        gauss_total_correlation(c, ["A", "C", "D"]), abs=1e-9)
    with pytest.raises(ValueError):
        gaussian.atom_valuation(c, ["H(A)"])


def test_covariance_validation():
    with pytest.raises(ValueError):
        JointCovariance.make([("A", 1), ("B", 1)], [[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(ValueError):
        JointCovariance.make([("A", 1), ("B", 1)], [[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError):
        JointCovariance.make([("A", 1), ("A", 1)], np.eye(2))


def test_network_container():
    net = CranNetwork.make([[1.0, 0.5], [-0.5, 1.0]], 10.0, [1.0, 2.0],
                           [[0.0, 0.3], [0.4, 0.0]])
    assert net.N == 2 and net.L == 2
    again = cli._network('{"G": [[1.0, 0.5], [-0.5, 1.0]], "P": 10.0, '
                         '"C": [1.0, 2.0], "Ccoop": [[0.0, 0.3], [0.4, 0.0]]}')
    for name in ("G", "C", "Ccoop"):
        assert np.array_equal(getattr(again, name), getattr(net, name)), name
    assert again.P == net.P
    assert np.array_equal(cli._network('{"G": [[1.0]], "P": 1.0, "C": [1.0]}').Ccoop,
                          [[0.0]])
    with pytest.raises(ValueError):
        CranNetwork.make([[1.0]], -1.0, [1.0])
    with pytest.raises(ValueError):
        CranNetwork.make([[1.0]], 1.0, [-1.0])
    with pytest.raises(ValueError):
        CranNetwork.make(np.eye(2), 1.0, [1, 1], [[1.0, 0], [0, 0]])
    sym = CranNetwork.symmetric(5.0, 0.5, -0.5, 2.0, 1.0)
    assert sym.C[0] == 2.0 and sym.Ccoop[0, 1] == 1.0 and sym.P == 5.0


@st.composite
def stacked_logdet_case(draw):
    """A stack G of shape lead + (m, n), lead up to (3, 4), and one K that
    is PSD (A A^T) or arbitrary (indefinite, possibly asymmetric)."""
    lead = draw(st.sampled_from([(), (1,), (3,), (1, 4), (3, 4), (2, 1)]))
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entries = st.floats(-3.0, 3.0, allow_nan=False)
    g = draw(hnp.arrays(float, lead + (m, n), elements=entries))
    a = draw(hnp.arrays(float, (n, n), elements=entries))
    return g, (a @ a.T if draw(st.booleans()) else a)


@settings(max_examples=300, deadline=None)
@given(stacked_logdet_case())
def test_stacked_capacity_logdet_equals_per_matrix_calls(case):
    g, k = case
    out = capacity_logdet(g, k)
    if g.ndim == 2:
        assert type(out) is float
        return
    assert out.shape == g.shape[:-2]
    for idx in np.ndindex(*g.shape[:-2]):
        one = capacity_logdet(g[idx], k)
        assert type(one) is float and float(out[idx]).hex() == one.hex()


@st.composite
def diagonal_logdet_case(draw):
    """A stack G as above and a nonnegative diagonal K: zeros, the smallest
    subnormal, arbitrary variances up to 1e8, or P I."""
    lead = draw(st.sampled_from([(), (1,), (3,), (2, 3)]))
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    g = draw(hnp.arrays(float, lead + (m, n), elements=st.floats(-3.0, 3.0, allow_nan=False)))
    variances = st.one_of(st.just(0.0), st.just(5e-324), st.floats(0.0, 1e8))
    if draw(st.booleans()):
        return g, draw(st.sampled_from([0.0, 1e3, 1e6, 1e8]) | variances) * np.eye(n)
    return g, np.diag(draw(hnp.arrays(float, n, elements=variances)))


@settings(max_examples=300, deadline=None)
@given(diagonal_logdet_case())
def test_capacity_logdet_of_a_nonnegative_diagonal_k_equals_the_clipping_oracle(case):
    """A nonnegative diagonal K skips the eigensolve: its clip is K itself, so
    every value equals the always-clipping oracle's bit for bit."""
    g, k = case
    out = np.asarray(capacity_logdet(g, k))
    for idx in np.ndindex(*g.shape[:-2]):
        assert float(out[idx]).hex() == gap_oracle.capacity_logdet(g[idx], k).hex()


def test_stacked_capacity_logdet_sizes_and_shape_errors():
    assert capacity_logdet(np.zeros((0, 3)), np.eye(5)) == 0.0
    for shape in [(2, 0, 3), (2, 3, 0), (0, 2, 2), (3, 1, 0, 0)]:
        out = capacity_logdet(np.ones(shape), np.eye(shape[-1]))
        assert out.shape == shape[:-2] and not out.any()
    with pytest.raises(ValueError, match="matrix"):
        capacity_logdet(np.ones(3), np.eye(3))
    with pytest.raises(ValueError, match="does not match"):
        capacity_logdet(np.ones((4, 2, 3)), np.eye(2))
    with pytest.raises(ValueError, match="does not match"):
        capacity_logdet(np.ones((4, 2, 3)), np.ones((3, 2)))


@st.composite
def psd_check_case(draw):
    """A 2x2 matrix, arbitrary (possibly asymmetric) or A A^T shifted by a
    small multiple of I, so that both verdicts come up, and a tolerance."""
    a = draw(hnp.arrays(float, (2, 2), elements=st.floats(-3.0, 3.0, allow_nan=False)))
    if draw(st.booleans()):
        a = a @ a.T + draw(st.floats(-1e-5, 1e-5)) * np.eye(2)
    return a, draw(st.sampled_from([1e-9, 1e-8, 1e-6]))


@settings(max_examples=500, deadline=None)
@given(psd_check_case())
def test_closed_form_2x2_psd_check_agrees_with_eigvalsh(case):
    """Away from the threshold, the 2x2 closed form gives the verdict (and the
    largest eigenvalue) of an eigensolve of the symmetric part."""
    m, tol = case
    w = np.linalg.eigvalsh(0.5 * (m + m.T))
    scale = max(1.0, abs(w).max())
    assume(abs(w[0] + tol * scale) > 1e-12 * scale)
    if w[0] < -tol * scale:
        with pytest.raises(ValueError, match="^M is not PSD"):
            gaussian.check_psd(m, "M", tol)
    else:
        top = gaussian.check_psd(m, "M", tol)
        assert type(top) is float and top == pytest.approx(max(w[1], 0.0), rel=1e-12, abs=1e-12)


def test_psd_check_exact_cases():
    assert gaussian.check_psd(np.array([[1.0, 1.0], [1.0, 1.0]]), "M", 1e-8) == 2.0
    with pytest.raises(ValueError, match=r"^M is not PSD \(min eigenvalue -1.0\)$"):
        gaussian.check_psd(np.array([[1.0, 2.0], [2.0, 1.0]]), "M", 1e-8)
    # the symmetric part is checked, not one triangle; 2x2 and, padded, 3x3
    ok, bad = np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([[1.0, 4.0], [0.0, 1.0]])
    for pad in (0, 1):
        for m in (np.pad(ok, (0, pad)), np.pad(ok, (0, pad)).T):
            assert gaussian.check_psd(m, "M", 1e-8) == pytest.approx(2.0, rel=1e-15)
        for m in (np.pad(bad, (0, pad)), np.pad(bad, (0, pad)).T):
            with pytest.raises(ValueError, match="^M is not PSD"):
                gaussian.check_psd(m, "M", 1e-8)
    assert gaussian.check_psd(np.zeros((0, 0)), "M", 1e-8) == 0.0


@pytest.mark.parametrize("m", [[[1.0, math.nan], [math.nan, 1.0]], [[math.inf, 0.0], [0.0, 1.0]],
                               [[-math.inf, 0.0], [0.0, 1.0]], np.full((3, 3), math.nan)])
def test_psd_check_rejects_non_finite_entries(m):
    """A 2x2's closed form would read NaN or infinity as PSD and a larger
    matrix fail in the eigensolver unnamed; both are named first."""
    with pytest.raises(ValueError, match="^M is not finite$"):
        gaussian.check_psd(np.array(m), "M", 1e-8)


@pytest.mark.filterwarnings("error")
def test_symmetric_covariance_is_copied_not_symmetrised():
    """(m + m.T) / 2 of a symmetric m near the largest float overflowed."""
    m = 1.797e308 * np.eye(2)
    c = JointCovariance.make([("X1", 1), ("X2", 1)], m)
    assert np.array_equal(c.matrix, m) and c.top_eigenvalue == 1.797e308
    m[0, 0] = 1.0
    assert c.matrix[0, 0] == 1.797e308 and not c.matrix.flags.writeable
    asym = np.array([[2.0, 1.0], [1.0 + 2**-52, 2.0]])
    c = JointCovariance.make([("X1", 1), ("X2", 1)], asym)
    assert c.matrix[0, 1] == c.matrix[1, 0] == 0.5 * (2.0 + 2**-52)


@pytest.mark.filterwarnings("error")
def test_conditioning_on_a_subnormal_variance_treats_it_as_zero():
    """1 / 5e-324 overflows: the pseudo-inverse now drops such an eigenvalue."""
    c = cov2([("A", 1), ("B", 1)], [[10.0, 0.0], [0.0, 5e-324]])
    with np.errstate(over="raise", divide="raise", invalid="raise"):  # as the cli runs
        out = schur_conditional(c, ["A"], ["B"])
        assert gaussian._pinv_psd(np.array([[5e-324]])).tolist() == [[0.0]]
    assert out.matrix.tolist() == [[10.0]]
