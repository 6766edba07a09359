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

A `JointCovariance` may carry a leading lane axis: `JointCovariance.stack`
runs `make`'s checks on every lane of a stack, `psd_tops` runs `check_psd`
on stacks, and `subset_logpdets` and `atom_values` keep the lane axis in
front.  `Verdicts` records which lanes failed which check, in place of an
exception.  Each lane takes the arithmetic of one matrix (closed forms in
Python floats, one matrix-vector product per lane, eigensolves stacked),
so its values are the same to the last bit in any stack.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# unused parse_atom stays importable: bench/tracer.py wraps it by this name
from .atoms import H, PLAN_CACHE_SIZE, atom_plan, gamma_atom, mi_atom, parse_atom  # noqa: F401
from .atoms import checked_axes, checked_reals

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
    return 0.5 * (m + m.swapaxes(-1, -2))


class Verdicts:
    """The checks of a stack of lanes: `ok` marks the lanes that passed every
    check so far, `why` holds each other lane's ValueError message, that of
    its first failed check."""

    def __init__(self, lanes: int):
        self.ok, self.why = np.ones(lanes, dtype=bool), {}

    def reject(self, b: int, message: str):
        """Fail lane b with `message`, unless it failed before."""
        if self.ok[b]:
            self.ok[b], self.why[b] = False, message

    def raise_first(self):
        """Raise the ValueError of the first failed lane, if any."""
        if self.why:
            raise ValueError(self.why[min(self.why)])


def _ends(lo: float, hi: float, what: str, tol: float) -> str | None:
    """The PSD test on the two ends lo <= hi of a spectrum: its failure
    message, or None."""
    if lo < -tol * max(1.0, -lo, hi):
        return f"{what} is not PSD (min eigenvalue {lo})"
    return None


def psd_tops(mats, names, tol: float, verdicts: Verdicts) -> np.ndarray:
    """`check_psd` on the stacks `mats` (lanes, k, k), one per name of
    `names`, at every lane still ok in `verdicts`, in that order: a lane
    fails at its first matrix that fails, with that check's message.  2x2
    matrices take the closed form, reached lane by lane, larger ones one
    stacked eigensolve of their symmetric parts.  Returns the largest
    eigenvalues (lanes, q), floored at 0 (0 past a lane's failure)."""
    m = np.stack(mats, axis=1)
    lanes, q, k = m.shape[:3]
    ok = np.isfinite(m).all(axis=(2, 3))
    if k == 2:
        entries = m.reshape(lanes, q, 4).tolist()

        def spectrum(b, j):  # h -+ r of the symmetric part, in floats (C pow squares)
            a, c, e, d = entries[b][j]
            h, off = 0.5 * (a + d), 0.5 * (c + e)
            r = math.sqrt((0.5 * (a - d)) ** 2 + off * off)
            return h - r, h + r
    else:
        w = np.linalg.eigvalsh(_sym(np.where(ok[..., None, None], m, 0.0)))
        ends = np.stack((w[..., 0], w[..., -1]), axis=2).tolist() if k else np.zeros((lanes, q, 2))

        def spectrum(b, j):
            return ends[b][j]
    finite, tops = ok.tolist(), [[0.0] * q for _ in range(lanes)]
    for b, ok in enumerate(verdicts.ok.tolist()):
        for j in range(q) if ok else ():
            if not finite[b][j]:
                verdicts.reject(b, f"{names[j]} is not finite")
                break
            lo, hi = spectrum(b, j)
            if failure := _ends(lo, hi, names[j], tol):
                verdicts.reject(b, failure)
                break
            tops[b][j] = max(hi, 0.0)
    return np.array(tops)


def check_psd(m: np.ndarray, what: str, tol: float) -> float:
    """Largest eigenvalue of the symmetric part of m, floored at 0; raise
    ValueError naming `what` if the smallest lies below -tol * max(1, largest
    |eigenvalue|), or if an entry is not finite.  A 2x2 takes the closed
    form h +- r in floats."""
    verdicts = Verdicts(1)
    top = psd_tops([np.asarray(m, dtype=float)[None]], (what,), tol, verdicts)
    verdicts.raise_first()
    return float(top[0, 0])


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
        components = tuple(components)
        try:  # an unhashable or malformed entry takes the uncached check, which names it
            components = _checked_components(components, tuple(type(d) for _, d in components))
        except (TypeError, ValueError):
            components = checked_axes(components, "covariance components")
        dim = sum(d for _, d in components)
        m = checked_reals(matrix, "covariance entries").reshape(dim, dim)[None]
        verdicts = Verdicts(1)
        cov = JointCovariance.stack(components, m, verdicts)
        verdicts.raise_first()
        m = cov.matrix[0]
        m.flags.writeable = False
        return JointCovariance(components, m, float(cov.top_eigenvalue[0]))

    @staticmethod
    def stack(components, m: np.ndarray, verdicts: Verdicts) -> "JointCovariance":
        """`make`'s checks on every lane of the float stack m (lanes, dim,
        dim) still ok in `verdicts`, over checked `components`: finite
        entries, symmetry within 1e-10 relative, then PSD within 1e-9.  The
        result carries the lane axis in its matrix and top eigenvalues."""
        lanes, flat = len(m), m.reshape(len(m), -1)
        if not np.isfinite(flat).all():
            for b in np.flatnonzero(~np.isfinite(flat).all(axis=1)).tolist():
                try:  # for checked_reals' message
                    checked_reals(m[b], "covariance entries")
                except ValueError as exc:
                    verdicts.reject(b, str(exc))
        diff = m - m.swapaxes(1, 2)
        if diff.any():  # _sym of a symmetric lane is itself, but m + m.T may overflow
            asymmetric = diff.reshape(lanes, -1).any(axis=1)
            spread = np.abs(diff).reshape(lanes, -1).max(axis=1).tolist()
            for b, (asym, big) in enumerate(zip(asymmetric.tolist(),
                                                np.abs(flat).max(axis=1).tolist())):
                if asym and spread[b] > 1e-10 * max(1.0, big):
                    verdicts.reject(b, "covariance matrix is not symmetric")
            m = _sym(m) if asymmetric.all() else np.where(asymmetric[:, None, None], _sym(m), m)
        w = np.linalg.eigvalsh(np.where(verdicts.ok[:, None, None], m, 0.0))
        lo, hi = (w[:, 0].tolist(), w[:, -1].tolist()) if w.shape[1] else ([0.0] * lanes,) * 2
        for b in range(lanes):
            if failure := _ends(lo[b], hi[b], "covariance matrix", 1e-9):
                verdicts.reject(b, failure)
        return JointCovariance(components, m, np.array([max(h, 0.0) for h in hi]))

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
def _checked_components(components, size_types):
    """`checked_axes` of a components tuple, cached per tuple and the types of
    its sizes: True == 1 and 2.0 == 2, so the tuple alone would let them pass."""
    return checked_axes(components, "covariance components")


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _offsets(components) -> dict[str, range]:
    """The matrix indices of each named component."""
    ends = np.cumsum([d for _, d in components])
    return {n: range(e - d, e) for (n, d), e in zip(components, ends)}


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _block_groups(components, subsets):
    """The principal block of every subset of component names, indices taken
    in sorted name order, grouped by size: the positions of the 1x1 and of
    the 2x2 blocks and the flat matrix indices their closed forms read (each
    1x1's entry, then each 2x2's two diagonal entries and off-diagonal
    entry), for each larger size the positions and flat (g, n, n) indices
    of a stack of g, and the positions of all stacks under 8 wide, in stack
    order."""
    offsets, dim = _offsets(components), sum(d for _, d in components)
    by_size: dict[int, list] = {1: [], 2: []}
    for k, s in enumerate(subsets):
        idx = [i for n in sorted(s) for i in offsets[n]]
        by_size.setdefault(len(idx), []).append((k, *idx))
    arrays = {n: np.array(g, dtype=np.intp).reshape(len(g), n + 1) for n, g in by_size.items()}
    (k1, i1), (k2, i2, j2) = arrays[1].T, arrays[2].T
    pairs = np.stack((i2 * (dim + 1), j2 * (dim + 1), i2 * dim + j2), axis=1).ravel()
    stacks = tuple((a[:, 0], a[:, 1:, None] * dim + a[:, None, 1:])
                   for n, a in arrays.items() if n > 2)
    narrow = np.array([k for n, a in arrays.items() if 2 < n < 8 for k in a[:, 0]], dtype=np.intp)
    return k1.tolist(), k2.tolist(), np.r_[i1 * (dim + 1), pairs], stacks, narrow


def subset_logpdets(cov: JointCovariance, subsets) -> tuple[np.ndarray, np.ndarray]:
    """Base-2 log pseudo-determinant and rank of the principal block of every
    component subset in `subsets` (0 and 0 for the empty set), behind the
    leading lane axes of a stacked `cov` (matrix (..., n, n), top
    eigenvalues (...)).

    The one measure kernel of this module.  Eigenvalues at or below one cut,
    relative to the whole matrix's largest, are dropped, so ranks are
    consistent across subsets.  1x1 and 2x2 blocks have closed forms, lane
    by lane in Python floats (math.log2 rounds otherwise than np.log2 on
    about 3 in 10^4 values, C pow's square otherwise than t * t on about 1
    in 1,000); the larger blocks of one size go through one stacked
    eigensolve.  Spectra under 8 wide share one reduction, padded to 7 with
    -1, never above the cut: the padding adds log2(1) = 0 and no rank.
    """
    n = cov.matrix.shape[-1]
    m = cov.matrix.reshape(-1, n * n)
    cut = _EIG_REL_TOL * np.reshape(cov.top_eigenvalue, (-1, 1))
    k1, k2, entries, stacks, narrow = _block_groups(cov.components, tuple(subsets))
    logs, ranks = [], []
    for e, c in zip(m[:, entries].tolist(), cut[:, 0].tolist()):
        lg, rk = [0.0] * len(subsets), [0.0] * len(subsets)
        for k, v in zip(k1, e):
            if v > c:
                lg[k], rk[k] = math.log2(v), 1.0
        for k, t in zip(k2, range(len(k1), len(e), 3)):  # closed-form symmetric 2x2 eigenvalues
            a, d, off = e[t:t + 3]
            h, r = 0.5 * (a + d), math.sqrt(max(0.0, (0.5 * (a - d)) ** 2 + off * off))
            for w in (h - r, h + r):
                if w > c:
                    lg[k] += math.log2(w)
                    rk[k] += 1.0
        logs.append(lg)
        ranks.append(rk)
    logs, ranks = np.array(logs).reshape(len(m), -1), np.array(ranks).reshape(len(m), -1)
    spectra, at = [(narrow, np.full((len(m), len(narrow), 7), -1.0))], 0
    for ks, idx in stacks:
        w = np.linalg.eigvalsh(m[:, idx])
        if w.shape[2] < 8:
            spectra[0][1][:, at:at + len(ks), :w.shape[2]] = w
            at += len(ks)
        else:  # numpy's pairwise sum would add the padding in another order
            spectra.append((ks, w))
    for ks, w in spectra:
        kept = w > cut[:, :, None]
        logs[:, ks] = np.log2(np.where(kept, w, 1.0)).sum(axis=2)
        ranks[:, ks] = kept.sum(axis=2)
    shape = cov.matrix.shape[:-2] + (len(subsets),)
    return logs.reshape(shape), ranks.reshape(shape)


def atom_values(cov: JointCovariance, atoms) -> np.ndarray:
    """Mutual-information and total-correlation atoms on a joint Gaussian
    law, in the order of `atoms` (a named constant reads 0), with the
    leading lane axes of a stacked `cov` in front.
    Differential-entropy atoms are rejected (not bit-valued).

    The atoms are compiled into the shared `atoms.AtomPlan`: every I and
    Gamma atom is half a signed sum of subset log-pseudo-determinants,
    clamped at zero; one matrix-vector product per lane, since a product
    over all lanes at once rounds otherwise.  The same signed sum of subset
    ranks is positive exactly when the pseudo-Schur decomposition falls
    short of full rank, which signals an almost-sure linear dependence: an
    infinite value.
    """
    plan = atom_plan(cov.names, tuple(atoms))
    if H in plan.kinds:
        name = plan.names[plan.kinds.index(H)]
        raise ValueError(f"cannot evaluate entropy atom {name} on a Gaussian law")
    logs, ranks = subset_logpdets(cov, plan.subsets)
    values = 0.5 * (plan.coeffs @ logs[..., None])[..., 0]
    values[ranks @ plan.coeffs.T > 0] = np.inf
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
    """(1/2) log2 det(I + G K G^T) in bits, K clipped to the PSD cone by an eigensolve unless
    it is nonnegative diagonal; a stack G (..., m, n) gives an array (...), a matrix a float."""
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
    if np.count_nonzero(k) != np.count_nonzero(d := np.diagonal(k)) or d.min() < 0.0:
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
        G = np.atleast_2d(checked_reals(G, "network G"))
        L, N = G.shape
        P = float(checked_reals(P, "network P", 0.0, shape=()))
        C = checked_reals(C, "network C", 0.0).reshape(N)
        Ccoop = np.zeros((N, N)) if Ccoop is None else Ccoop
        Ccoop = checked_reals(Ccoop, "network Ccoop", 0.0).reshape(N, N)
        if np.any(np.diag(Ccoop) != 0):
            raise ValueError("cooperation matrix must have zero diagonal")
        return CranNetwork(G, P, C, Ccoop)

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
