"""Joint-Gaussian covariance algebra for log-det information quantities.

Covariances are stored over named components, each of which may be a
vector (dimension >= 1).  Zero-variance components (degenerate auxiliaries
such as a switched-off cloud center) are legal and behave like absent
variables.  `CranNetwork.make` builds a network (the `cli` reads its file).

Every information atom goes through one kernel, `subset_logpdets`: the
log-pseudo-determinants and ranks of principal blocks, with one eigenvalue
cut relative to the whole matrix's largest eigenvalue (kept by
`JointCovariance.make` from its PSD test), so ranks agree across blocks.
1x1 and 2x2 blocks have closed forms, larger ones one stacked eigensolve
per size, and the spectra under 8 wide one padded reduction.  `check_psd`,
the one PSD test, rejects a non-finite entry, then reads the two ends of a
spectrum, a 2x2's in closed form.
`atom_values` evaluates the `atoms.AtomPlan` the discrete back end shares
(same cache, same clamp) as kernel, then half a matrix product; the same
product over ranks flags infinite atoms.  `atom_valuation` names them and
adds named constants.  `gauss_mi` and `gauss_total_correlation` are
single-atom calls; `schur_conditional` conditions via a pseudo-inverse.
"""

from __future__ import annotations

import functools
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


def check_psd(m: np.ndarray, what: str, tol: float) -> float:
    """Largest eigenvalue of the symmetric part of m, floored at 0; raise
    ValueError naming `what` if the smallest lies below -tol * max(1, largest
    |eigenvalue|), or if an entry is not finite.  A 2x2 takes the closed
    form h +- r in floats."""
    entries = m.ravel().tolist()
    if not all(map(math.isfinite, entries)):
        raise ValueError(f"{what} is not finite")
    if m.shape != (2, 2):
        return _psd_top(np.linalg.eigvalsh(_sym(m)), what, tol)
    a, b, c, d = entries
    h, off = 0.5 * (a + d), 0.5 * (b + c)
    r = math.sqrt((0.5 * (a - d)) ** 2 + off * off)
    return _psd_top((h - r, h + r), what, tol)


def _psd_top(w, what: str, tol: float) -> float:
    """`check_psd`'s test and result on the ascending spectrum w."""
    lo, hi = (float(w[0]), float(w[-1])) if len(w) else (0.0, 0.0)
    if lo < -tol * max(1.0, -lo, hi):
        raise ValueError(f"{what} is not PSD (min eigenvalue {lo})")
    return max(hi, 0.0)


def _pinv_psd(m: np.ndarray) -> np.ndarray:
    """Pseudo-inverse of a symmetric PSD matrix with relative threshold."""
    if m.size == 0:
        return m
    w, v = np.linalg.eigh(_sym(m))
    # an eigenvalue whose reciprocal would overflow counts as zero
    cut = max(_EIG_REL_TOL * w.max(initial=0.0), 1.0 / np.finfo(float).max)
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
        if not np.isfinite(m).all():
            raise ValueError("covariance entries must be finite")
        asymmetric = (m != m.T).any()
        if asymmetric and np.abs(m - m.T).max() > 1e-10 * max(1.0, np.abs(m).max()):
            raise ValueError("covariance matrix is not symmetric")
        m = _sym(m) if asymmetric else m.copy()  # here _sym(m) is m, but m + m.T may overflow
        top = _psd_top(np.linalg.eigvalsh(m), "covariance matrix", 1e-9)
        m.flags.writeable = False
        return JointCovariance(components, m, top)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.components)

    def indices(self, names) -> np.ndarray:
        names, offsets = list(names), _offsets(self.components)
        unknown = set(names) - offsets.keys()
        if unknown:
            raise KeyError(f"unknown components {sorted(unknown)}")
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
def _offsets(components) -> dict[str, range]:
    """The matrix indices of each named component."""
    ends = np.cumsum([d for _, d in components])
    return {n: range(e - d, e) for (n, d), e in zip(components, ends)}


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _block_groups(components, subsets):
    """The principal block of every subset of component names, indices taken
    in sorted name order, grouped by size: (k, i) for a 1x1 block at position
    k, (k, i, j) for a 2x2 block, for each larger size n the positions and
    the (g, n, 1) row and (g, 1, n) column indices of a stack of g, and the
    positions of all stacks under 8 wide, in stack order."""
    offsets = _offsets(components)
    by_size: dict[int, list] = {}
    for k, s in enumerate(subsets):
        idx = [i for n in sorted(s) for i in offsets[n]]
        by_size.setdefault(len(idx), []).append((k, *idx))
    arrays = [np.array(g, dtype=np.intp) for n, g in by_size.items() if n > 2]
    stacks = tuple((a[:, 0], a[:, 1:, None], a[:, None, 1:]) for a in arrays)
    narrow = np.array([k for a in arrays if a.shape[1] < 9 for k in a[:, 0]], dtype=np.intp)
    return tuple(by_size.get(1, ())), tuple(by_size.get(2, ())), stacks, narrow


def subset_logpdets(cov: JointCovariance, subsets) -> tuple[np.ndarray, np.ndarray]:
    """Base-2 log pseudo-determinant and rank of the principal block of every
    component subset in `subsets` (0 and 0 for the empty set).

    The one measure kernel of this module.  Eigenvalues at or below one cut,
    relative to the whole matrix's largest, are dropped, so ranks are
    consistent across subsets.  1x1 and 2x2 blocks have closed forms; the
    larger blocks of one size go through one stacked eigensolve.  Spectra
    under 8 wide share one reduction, padded to 7 with -1, never above the
    cut: the padding adds log2(1) = 0 and no rank.
    """
    m = cov.matrix
    cut = _EIG_REL_TOL * cov.top_eigenvalue
    logs, ranks = [0.0] * len(subsets), [0] * len(subsets)
    singles, pairs, stacks, narrow = _block_groups(cov.components, tuple(subsets))
    rows = m.tolist()
    for k, i in singles:
        if rows[i][i] > cut:
            logs[k], ranks[k] = math.log2(rows[i][i]), 1
    for k, i, j in pairs:  # closed-form symmetric 2x2 eigenvalues
        a, d, off = rows[i][i], rows[j][j], rows[i][j]
        h, r = 0.5 * (a + d), math.sqrt(max(0.0, (0.5 * (a - d)) ** 2 + off * off))
        for w in (h - r, h + r):
            if w > cut:
                logs[k] += math.log2(w)
                ranks[k] += 1
    logs, ranks = np.array(logs), np.array(ranks, dtype=float)
    spectra, at = [(narrow, np.full((len(narrow), 7), -1.0))], 0
    for ks, r, c in stacks:
        w = np.linalg.eigvalsh(m[r, c])
        if w.shape[1] < 8:
            spectra[0][1][at:at + len(w), :w.shape[1]] = w
            at += len(w)
        else:  # numpy's pairwise sum would add the padding in another order
            spectra.append((ks, w))
    for ks, w in spectra:
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
    if not (np.isfinite(g).all() and np.isfinite(k).all()):
        raise ValueError("G or K is not finite")
    w, v = np.linalg.eigh(_sym(k))
    k = (v * np.clip(w, 0.0, None)) @ v.T
    sign, logdet = np.linalg.slogdet(np.eye(g.shape[-2]) + g @ k @ np.swapaxes(g, -1, -2))
    if not (np.all(sign > 0) and np.isfinite(logdet).all()):  # an overflow fails too
        raise ValueError("I + G K G^T is numerically singular or not finite")
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
