"""Reference joint covariances of the four Gaussian schemes, and the
name-keyed path from their atoms to the sum rate.

`build_joint_cov` here is the hand-written construction that
`cranbounds.schemes` replaced with one linear-Gaussian builder: each scheme
spells out its own noise columns, output rows and component list, and
checks its parameters with its own power formula.  The builder test holds
`build_joint_cov` to this oracle's matrices and to its ValueError outcomes.

`scheme_sumrate` is the evaluation that `cranbounds.schemes` replaced with
one vector in the compiled region's atom order: the atoms as a name-keyed
valuation, merged with `caps_valuation`, GDS-III gated by
`corollary3_feasible`, then `max_sum_rate` on the name-keyed valuation.
`dict_path` installs it in `cranbounds.schemes`, so that a sweep runs on it.
"""

from __future__ import annotations

import functools

import numpy as np

from conftest import caps_valuation
from cranbounds import gaussian, schemes
from cranbounds.gaussian import CranNetwork, JointCovariance
from cranbounds.polytope import CompiledRegion, max_sum_rate
from cranbounds.regions import corollary3_feasible, corollary3_side_conditions, make_region


def _check_psd(m: np.ndarray, what: str, tol: float = 1e-8):
    w = np.linalg.eigvalsh(0.5 * (m + m.T))
    if w.min(initial=0.0) < -tol * max(1.0, abs(w).max(initial=1.0)):
        raise ValueError(f"{what} is not PSD")


def base_cov(params) -> np.ndarray:
    """Covariance of (S1, S2, W, X0) of a compression instance."""
    base = np.zeros((7, 7))
    base[0:2, 0:2] = params.K1
    base[2:4, 2:4] = params.K2
    base[4:6, 4:6] = params.Kw
    base[6, 0:6] = params.x0cov
    base[0:6, 6] = params.x0cov
    base[6, 6] = 1.0
    return base


def validate(scheme: str, params, P: float):
    """The per-class parameter checks of the hand-written construction."""
    if scheme == "GDS-II":
        if np.sum(params.a ** 2) > P + 1e-6 or np.sum(params.b ** 2) > P + 1e-6:
            raise ValueError("per-BS power violated: coefficient norm > P")
        return
    _check_psd(params.K1, "K1")
    _check_psd(params.K2, "K2")
    if scheme == "GDS-I":
        power = np.diag(params.K1 + params.K2)
    elif scheme == "GDS-III":
        ia = np.eye(2) + params.A
        power = np.diag(ia @ params.K1 @ ia.T + params.K2)
    else:
        _check_psd(params.Kw, "Kw")
        power = np.diag(params.K1 + params.K2 + params.Kw)
    if np.any(power > P + 1e-6):
        raise ValueError("per-BS power violated")
    if scheme == "GCOMP":
        _check_psd(base_cov(params), "joint (S1,S2,W,X0) covariance", tol=1e-6)


def _dpc_precoder(K2, g2, Kw=None):
    total = K2 if Kw is None else K2 + Kw
    denom = 1.0 + float(g2 @ total @ g2)
    return np.outer(K2 @ g2, g2) / denom


def _assemble(components, rows, base_cov) -> JointCovariance:
    M = np.vstack(rows)
    return JointCovariance.make(components, M @ base_cov @ M.T)


def build_joint_cov(scheme: str, params, network: CranNetwork) -> JointCovariance:
    G = network.G
    if G.shape != (2, 2):
        raise ValueError("Gaussian scheme constructions are 2-BS 2-user")
    g1, g2 = G[0], G[1]
    if scheme not in ("GDS-I", "GDS-II", "GDS-III", "GCOMP"):
        raise ValueError(f"unknown Gaussian scheme {scheme!r}")
    validate(scheme, params, network.P)
    I2, Z2 = np.eye(2), np.zeros((2, 2))
    if scheme == "GDS-I":
        A = _dpc_precoder(params.K2, g2)
        base = np.zeros((6, 6))
        base[0:2, 0:2] = params.K1
        base[2:4, 2:4] = params.K2
        base[4:6, 4:6] = np.eye(2)
        rows = [
            np.hstack([I2, Z2, Z2]),            # U0 = S1
            np.hstack([A, I2, Z2]),             # V0 = S2 + A S1
            np.array([[1, 0, 1, 0, 0, 0]]),     # X1
            np.array([[0, 1, 0, 1, 0, 0]]),     # X2
            np.hstack([[g1], [g1], [[1, 0]]]),  # Y1
            np.hstack([[g2], [g2], [[0, 1]]]),  # Y2
        ]
        comps = [("U0", 2), ("V0", 2), ("X1", 1), ("X2", 1), ("Y1", 1), ("Y2", 1)]
        return _assemble(comps, rows, base)
    if scheme == "GDS-II":
        a, b = params.a, params.b
        base = np.eye(8)  # U0 V0 U1 V1 U2 V2 Z1 Z2
        x1 = np.array([a[0], a[1], a[2], a[3], 0, 0, 0, 0])
        x2 = np.array([b[0], b[1], 0, 0, b[2], b[3], 0, 0])
        y1 = g1[0] * x1 + g1[1] * x2
        y1[6] = 1.0
        y2 = g2[0] * x1 + g2[1] * x2
        y2[7] = 1.0
        rows = [np.eye(8)[i][None, :] for i in range(6)] + [x1[None, :], x2[None, :],
                                                            y1[None, :], y2[None, :]]
        comps = [("U0", 1), ("V0", 1), ("U1", 1), ("V1", 1), ("U2", 1), ("V2", 1),
                 ("X1", 1), ("X2", 1), ("Y1", 1), ("Y2", 1)]
        return _assemble(comps, rows, base)
    if scheme == "GDS-III":
        A = params.A
        base = np.zeros((6, 6))
        base[0:2, 0:2] = params.K1
        base[2:4, 2:4] = params.K2
        base[4:6, 4:6] = np.eye(2)
        U = np.hstack([I2, Z2, Z2])             # (U1,U2) = S1
        V = np.hstack([A, I2, Z2])              # (V1,V2) = S2 + A S1
        X = np.hstack([I2 + A, I2, Z2])         # X = (I+A) S1 + S2
        y1 = g1 @ X
        y1[4] = 1.0
        y2 = g2 @ X
        y2[5] = 1.0
        rows = [U[0][None, :], U[1][None, :], V[0][None, :], V[1][None, :],
                X[0][None, :], X[1][None, :], y1[None, :], y2[None, :]]
        comps = [("U1", 1), ("U2", 1), ("V1", 1), ("V2", 1),
                 ("X1", 1), ("X2", 1), ("Y1", 1), ("Y2", 1)]
        return _assemble(comps, rows, base)
    A = _dpc_precoder(params.K2, g2, params.Kw)
    base = np.zeros((9, 9))  # S1 S2 W X0 Z1 Z2
    base[0:7, 0:7] = base_cov(params)
    base[7, 7] = base[8, 8] = 1.0
    z1 = np.zeros((2, 1))
    U1 = np.hstack([I2, Z2, Z2, z1, z1, z1])      # U1 = S1
    U2 = np.hstack([A, I2, Z2, z1, z1, z1])       # U2 = S2 + A S1
    X = np.hstack([I2, I2, I2, z1, z1, z1])       # X = S1 + S2 + W
    X0 = np.zeros((1, 9))
    X0[0, 6] = 1.0
    y1 = g1 @ X
    y1[7] = 1.0
    y2 = g2 @ X
    y2[8] = 1.0
    rows = [U1, U2, X0, X[0][None, :], X[1][None, :], y1[None, :], y2[None, :]]
    comps = [("U1", 2), ("U2", 2), ("X0", 1), ("X1", 1), ("X2", 1),
             ("Y1", 1), ("Y2", 1)]
    return _assemble(comps, rows, base)


@functools.cache
def _region(scheme: str) -> CompiledRegion:
    return CompiledRegion(make_region("GCOMP-T2" if scheme == "GCOMP" else scheme))


@functools.cache
def region_atoms(scheme: str) -> tuple[str, ...]:
    """The information atoms of a scheme's region and, for GDS-III, of its
    side conditions, sorted by name."""
    atoms = set(_region(scheme).rows.atoms)
    if scheme == "GDS-III":
        for lhs, rhs in corollary3_side_conditions():
            atoms.add(lhs.name)
            atoms.update(r.name for r in rhs)
    return tuple(sorted(atoms - {"C1", "C2", "C12", "C21"}))


def scheme_valuation(scheme: str, params, network: CranNetwork) -> dict[str, float]:
    cov = schemes.build_joint_cov(scheme, params, network)
    return gaussian.atom_valuation(cov, region_atoms(scheme))


def sumrate_from_valuation(scheme: str, mi_val: dict[str, float],
                           network: CranNetwork) -> float:
    val = mi_val | caps_valuation(network)
    if scheme == "GDS-III" and not corollary3_feasible(val):
        return 0.0
    return max_sum_rate(_region(scheme), val)


def scheme_sumrate(scheme: str, params, network: CranNetwork) -> float:
    return sumrate_from_valuation(scheme, scheme_valuation(scheme, params, network), network)


def dict_path(monkeypatch):
    """Route the objective and the pooled evaluations of `schemes` through
    this module's name-keyed path."""
    monkeypatch.setattr(schemes, "scheme_sumrate", scheme_sumrate)
    monkeypatch.setattr(schemes, "_atom_values", scheme_valuation)
    monkeypatch.setattr(schemes, "_sumrate", sumrate_from_valuation)
