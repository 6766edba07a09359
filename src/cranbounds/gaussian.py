"""Joint-Gaussian covariance algebra for log-det information quantities.

Covariances are stored over named components, each of which may be a
vector (dimension >= 1).  Zero-variance components (degenerate auxiliaries
such as a switched-off cloud center) are legal and behave like absent
variables.

Every information atom goes through one kernel, `subset_logpdets`: the
log-pseudo-determinants and ranks of principal blocks, with one eigenvalue
threshold relative to the whole matrix's largest eigenvalue (kept by
`JointCovariance.make` from its PSD check) so ranks stay consistent across
blocks.  1x1 and 2x2 blocks have closed forms; larger blocks are grouped by
size, one stacked eigensolve per size.  `atom_values` evaluates the
`atoms.AtomPlan` that the discrete back end shares (same cache, same
clamp) as kernel, then half a matrix product; the same product over ranks
flags infinite atoms.  `atom_valuation` names those values and adds the
named constants, as the discrete back end does.  `gauss_mi` and
`gauss_total_correlation` are single-atom calls into it.
`schur_conditional` gives conditional covariances via a pseudo-inverse.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

# unused parse_atom stays importable: bench/tracer.py wraps it by this name
from .atoms import H, PLAN_CACHE_SIZE, atom_plan, gamma_atom, mi_atom, parse_atom  # noqa: F401

__all__ = [
    "JointCovariance",
    "CranNetwork",
    "check_psd",
    "schur_conditional",
    "gauss_mi",
    "gauss_total_correlation",
    "capacity_logdet",
    "atom_values",
    "atom_valuation",
    "subset_logpdets",
]

_EIG_REL_TOL = 1e-10


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def check_psd(m: np.ndarray, what: str, tol: float) -> np.ndarray:
    """Eigenvalues of the symmetric part of m; raise ValueError naming `what`
    if one lies below -tol * max(1, largest |eigenvalue|)."""
    w = np.linalg.eigvalsh(_sym(m))
    if w.min(initial=0.0) < -tol * max(1.0, abs(w).max(initial=1.0)):
        raise ValueError(f"{what} is not PSD (min eigenvalue {w.min()})")
    return w


def _pinv_psd(m: np.ndarray) -> np.ndarray:
    """Pseudo-inverse of a symmetric PSD matrix with relative threshold."""
    if m.size == 0:
        return m
    w, v = np.linalg.eigh(_sym(m))
    cut = _EIG_REL_TOL * max(w.max(initial=0.0), 0.0)
    inv = np.where(w > cut, 1.0 / np.where(w > cut, w, 1.0), 0.0)
    return (v * inv) @ v.T


@dataclass(frozen=True)
class JointCovariance:
    """Symmetric PSD matrix over named real-vector components."""

    components: tuple[tuple[str, int], ...]
    matrix: np.ndarray
    top_eigenvalue: float  # largest eigenvalue, or 0: the rank cut's scale

    @staticmethod
    def make(components, matrix) -> "JointCovariance":
        components = tuple((str(n), int(d)) for n, d in components)
        names = [n for n, _ in components]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate component names in {names}")
        dim = sum(d for _, d in components)
        m = np.asarray(matrix, dtype=float).reshape(dim, dim)
        if np.max(np.abs(m - m.T), initial=0.0) > 1e-10 * max(1.0, np.abs(m).max(initial=1.0)):
            raise ValueError("covariance matrix is not symmetric")
        m = _sym(m)
        w = check_psd(m, "covariance matrix", 1e-9)
        m = m.copy()
        m.flags.writeable = False
        return JointCovariance(components, m, max(w.max(initial=0.0), 0.0))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.components)

    def indices(self, names) -> np.ndarray:
        names = list(names)
        unknown = set(names) - set(self.names)
        if unknown:
            raise KeyError(f"unknown components {sorted(unknown)}")
        ends = np.cumsum([d for _, d in self.components])
        offsets = {n: range(e - d, e) for (n, d), e in zip(self.components, ends)}
        return np.asarray([i for n in names for i in offsets[n]], dtype=int)

    def block(self, rows, cols=None) -> np.ndarray:
        r = self.indices(rows)
        c = r if cols is None else self.indices(cols)
        return self.matrix[np.ix_(r, c)]


def schur_conditional(cov: JointCovariance, s_names, t_names) -> JointCovariance:
    """Covariance of X(S) given X(T): Sigma_SS - Sigma_ST Sigma_TT^+ Sigma_TS."""
    s_names, t_names = list(s_names), list(t_names)
    if set(s_names) & set(t_names):
        raise ValueError("S and T must be disjoint")
    ss = cov.block(s_names)
    dims = dict(cov.components)
    sub_components = [(n, dims[n]) for n in s_names]
    if not t_names:
        return JointCovariance.make(sub_components, ss)
    st = cov.block(s_names, t_names)
    tt = cov.block(t_names)
    cond = _sym(ss - st @ _pinv_psd(tt) @ st.T)
    # clip tiny negative eigenvalues introduced by the subtraction
    w, v = np.linalg.eigh(cond)
    cond = (v * np.clip(w, 0.0, None)) @ v.T
    return JointCovariance.make(sub_components, cond)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _block_groups(components, subsets):
    """The principal block of every subset of component names, indices taken
    in sorted name order, grouped by size: (k, i) for a 1x1 block at position
    k, (k, i, j) for a 2x2 block, and for each larger size n the positions
    and the (g, n, 1) row and (g, 1, n) column indices of a stack of g."""
    ends = np.cumsum([d for _, d in components])
    offsets = {n: range(e - d, e) for (n, d), e in zip(components, ends)}
    by_size: dict[int, list] = {}
    for k, s in enumerate(subsets):
        idx = [i for n in sorted(s) for i in offsets[n]]
        by_size.setdefault(len(idx), []).append((k, *idx))
    arrays = (np.array(g, dtype=np.intp) for n, g in by_size.items() if n > 2)
    stacks = tuple((a[:, 0], a[:, 1:, None], a[:, None, 1:]) for a in arrays)
    return tuple(by_size.get(1, ())), tuple(by_size.get(2, ())), stacks


def subset_logpdets(cov: JointCovariance, subsets) -> tuple[np.ndarray, np.ndarray]:
    """Base-2 log pseudo-determinant and rank of the principal block of every
    component subset in `subsets` (0 and 0 for the empty set).

    The one measure kernel of this module.  Eigenvalues at or below one cut,
    relative to the whole matrix's largest, are dropped, so ranks are
    consistent across subsets.  1x1 and 2x2 blocks have closed forms; the
    larger blocks of one size go through one stacked eigensolve.
    """
    m = cov.matrix
    cut = _EIG_REL_TOL * cov.top_eigenvalue
    logs, ranks = [0.0] * len(subsets), [0] * len(subsets)
    singles, pairs, stacks = _block_groups(cov.components, tuple(subsets))
    rows = m.tolist()
    for k, i in singles:
        if rows[i][i] > cut:
            logs[k], ranks[k] = math.log2(rows[i][i]), 1
    for k, i, j in pairs:
        # closed-form symmetric 2x2 eigenvalues
        a, d, off = rows[i][i], rows[j][j], rows[i][j]
        h = 0.5 * (a + d)
        r = math.sqrt(max(0.0, (0.5 * (a - d)) ** 2 + off * off))
        for w in (h - r, h + r):
            if w > cut:
                logs[k] += math.log2(w)
                ranks[k] += 1
    logs, ranks = np.array(logs), np.array(ranks, dtype=float)
    for ks, r, c in stacks:
        w = np.linalg.eigvalsh(m[r, c])
        kept = w > cut
        logs[ks] = np.log2(np.where(kept, w, 1.0)).sum(axis=1)
        ranks[ks] = kept.sum(axis=1)
    return logs, ranks


def atom_values(cov: JointCovariance, atoms) -> np.ndarray:
    """Mutual-information and total-correlation atoms on a joint Gaussian
    law, in the order of `atoms` (a named constant reads 0).
    Differential-entropy atoms are rejected (not bit-valued).

    The atoms are compiled into the shared `atoms.AtomPlan`: every I and
    Gamma atom is half a signed sum of subset log-pseudo-determinants,
    clamped at zero.  The same signed sum of subset ranks is positive
    exactly when the pseudo-Schur decomposition falls short of full rank,
    which signals an almost-sure linear dependence: an infinite value.
    """
    plan = atom_plan(cov.names, tuple(atoms))
    if H in plan.kinds:
        name = plan.names[plan.kinds.index(H)]
        raise ValueError(f"cannot evaluate entropy atom {name} on a Gaussian law")
    logs, ranks = subset_logpdets(cov, plan.subsets)
    values = 0.5 * (plan.coeffs @ logs)
    values[plan.coeffs @ ranks > 0] = np.inf
    return np.maximum(values, 0.0, out=values, where=plan.clamp)


def atom_valuation(cov: JointCovariance, atoms, constants=None) -> dict[str, float]:
    """`atom_values` by name, with the named constants from `constants`."""
    atoms = tuple(atoms)
    return atom_plan(cov.names, atoms).valuation(atom_values(cov, atoms), constants)


def _single_atom(cov: JointCovariance, spec) -> float:
    """Value of one atom on `cov` restricted to the atom's components (an
    unknown component is left out, so the plan raises KeyError for it)."""
    names = spec.variables()
    components = tuple(c for c in cov.components if c[0] in names)
    m = cov.block([n for n, _ in components])
    sub = JointCovariance(components, m, max(np.linalg.eigvalsh(m).max(initial=0.0), 0.0))
    return atom_valuation(sub, [spec])[spec.name]


def gauss_mi(cov: JointCovariance, a, b, cond=()) -> float:
    """I(A;B|C) in bits for jointly Gaussian components, clamped at zero;
    infinite when a linear functional of A equals one of B given C."""
    return _single_atom(cov, mi_atom(a, b, cond))


def gauss_total_correlation(cov: JointCovariance, names) -> float:
    """Total correlation of scalar/vector components in bits: half the log
    ratio of the product of marginal determinants to the joint determinant."""
    return _single_atom(cov, gamma_atom(names))


def capacity_logdet(g_sub: np.ndarray, k_sub: np.ndarray):
    """(1/2) log2 det(I + G K G^T) in bits; K is clipped to the PSD cone once.
    A stack G of shape (..., m, n) gives an array of shape (...), a matrix a float."""
    g = np.asarray(g_sub, dtype=float)
    if g.ndim < 2:
        raise ValueError("G must be a matrix")
    if g.size == 0:
        return 0.0 if g.ndim == 2 else np.zeros(g.shape[:-2])
    k = np.asarray(k_sub, dtype=float)
    if k.shape != (g.shape[-1], g.shape[-1]):
        raise ValueError(f"K shape {k.shape} does not match G columns {g.shape[-1]}")
    w, v = np.linalg.eigh(_sym(k))
    k = (v * np.clip(w, 0.0, None)) @ v.T
    sign, logdet = np.linalg.slogdet(np.eye(g.shape[-2]) + g @ k @ np.swapaxes(g, -1, -2))
    if np.any(sign <= 0):
        raise ValueError("I + G K G^T is numerically singular")
    bits = np.where(logdet > 0.0, logdet / np.log(2.0) * 0.5, 0.0)
    return float(bits) if g.ndim == 2 else bits


@dataclass(frozen=True)
class CranNetwork:
    """Gaussian downlink C-RAN instance.

    N base stations with per-BS power P and unit-variance receiver noise;
    L users; G is the L x N channel matrix (row = user); C[k] is the
    fronthaul capacity into BS k+1; Ccoop[k][j] is the capacity of the
    cooperation link from BS j+1 to BS k+1 (zero diagonal).  Capacities
    are in bits per channel use.
    """

    G: np.ndarray
    P: float
    C: np.ndarray
    Ccoop: np.ndarray

    @staticmethod
    def make(G, P, C, Ccoop=None) -> "CranNetwork":
        G = np.atleast_2d(np.asarray(G, dtype=float))
        L, N = G.shape
        P = float(P)
        C = np.asarray(C, dtype=float).reshape(N)
        if Ccoop is None:
            Ccoop = np.zeros((N, N))
        Ccoop = np.asarray(Ccoop, dtype=float).reshape(N, N)
        if not all(np.isfinite(v).all() for v in (G, P, C, Ccoop)):
            raise ValueError("channel gains, power and capacities must be finite")
        if P < 0:
            raise ValueError("power must be nonnegative")
        if C.min() < 0:
            raise ValueError("fronthaul capacities must be nonnegative")
        if Ccoop.min() < 0:
            raise ValueError("cooperation capacities must be nonnegative")
        if np.any(np.diag(Ccoop) != 0):
            raise ValueError("cooperation matrix must have zero diagonal")
        G2, C2, T2 = G.copy(), C.copy(), Ccoop.copy()
        for a in (G2, C2, T2):
            a.flags.writeable = False
        return CranNetwork(G2, P, C2, T2)

    @property
    def N(self) -> int:
        return self.G.shape[1]

    @property
    def L(self) -> int:
        return self.G.shape[0]

    @staticmethod
    def symmetric(P, g12, g21, C, T=0.0) -> "CranNetwork":
        """2x2 instance with unit direct gains, C1=C2=C and C12=C21=T."""
        return CranNetwork.make([[1.0, g12], [g21, 1.0]], P, [C, C],
                                [[0.0, T], [T, 0.0]])

    def G_cut(self, users, bss) -> np.ndarray:
        users = sorted(users)
        bss = sorted(bss)
        return self.G[np.ix_([u - 1 for u in users], [k - 1 for k in bss])]

    def to_json(self) -> str:
        return json.dumps({"G": self.G.tolist(), "P": self.P, "C": self.C.tolist(),
                           "Ccoop": self.Ccoop.tolist()})

    @staticmethod
    def from_json(text: str) -> "CranNetwork":
        d = json.loads(text)
        return CranNetwork.make(d["G"], d["P"], d["C"], d.get("Ccoop"))
