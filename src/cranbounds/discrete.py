"""Finite-alphabet joint distributions and discrete information measures.

Joint pmfs are dense numpy tensors with named axes, built by `make`, which
shares one check of axes and probabilities with `Channel.make` (the `cli`
reads pmf and channel files).  All logarithms are base two and
0*log(0) is taken as 0.  Distributions are immutable after construction;
every measure below is a pure function of its inputs.

Every entropy-based measure goes through one kernel, `subset_entropies`,
which marginalises the flat probability vector onto many variable subsets
with a single `np.bincount` over precomputed cell indices.  `atom_values`
takes the compiled `atoms.AtomPlan` of its atom list from the cache shared
with the Gaussian back end (the subsets it needs, a coefficient matrix and a
clamp mask) and evaluates it as kernel, matrix product, clamp at zero, into
a vector in the order of the list; `atom_valuation` names that vector and
fills in the named constants.  `entropy`, `mutual_info` and
`total_correlation` are single-atom calls into the same path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# unused parse_atom stays importable: bench/tracer.py wraps it by this name
from .atoms import PLAN_CACHE_SIZE, atom_plan, gamma_atom, mi_atom, parse_atom  # noqa: F401

__all__ = [
    "JointPmf",
    "Channel",
    "marginalize",
    "compose",
    "add_deterministic",
    "entropy",
    "mutual_info",
    "total_correlation",
    "blahut_arimoto",
    "atom_values",
    "atom_valuation",
    "subset_entropies",
    "random_joint_pmf",
]

MAX_CELLS = 10_000_000
# Largest (subset, cell) index one bincount call marginalises (2 MB); above
# it each subset gets its own uncached index, so memory stays O(cells).
_INDEX_BUDGET = 1 << 18


def _law(axes, probs, what: str):
    """The one constructor check: `axes` as a tuple of (string name, integer
    size >= 1, not a bool) pairs, no name twice, at most MAX_CELLS cells, and
    a read-only float copy of `probs` in their shape, none negative or NaN
    (None for None); else ValueError, naming `what` for a bad pair or entry."""
    axes = tuple(axes)
    if bad := [(n, s) for n, s in axes if not isinstance(n, str)
               or type(s) is not int and not isinstance(s, np.integer)]:  # bool is not int
        raise ValueError(f"{what} axes want string names and integer sizes, got {bad[0]!r}")
    axes = tuple((str(n), int(s)) for n, s in axes)
    names, shape = [n for n, _ in axes], tuple(s for _, s in axes)
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable names in {names}")
    if min(shape, default=1) < 1:
        raise ValueError("alphabet sizes must be >= 1")
    if math.prod(shape) > MAX_CELLS:
        raise ValueError(f"state space {math.prod(shape)} exceeds guard {MAX_CELLS}")
    if probs is None:
        return axes, None
    p = np.array(probs, dtype=float, order="C").reshape(shape)
    if not p.min() >= 0:  # also false for NaN
        raise ValueError(f"{what} probabilities must be nonnegative numbers")
    p.flags.writeable = False
    return axes, p


@dataclass(frozen=True)
class JointPmf:
    """Joint distribution over named finite-alphabet variables."""

    variables: tuple[tuple[str, int], ...]
    probs: np.ndarray

    @staticmethod
    def make(variables, probs) -> "JointPmf":
        variables, p = _law(variables, probs, "pmf")
        total = p.sum()
        if abs(total - 1.0) > 1e-12 * p.size:
            raise ValueError(f"probabilities sum to {total}, not 1")
        return JointPmf(variables, p)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.variables)

    def size_of(self, name: str) -> int:
        for n, s in self.variables:
            if n == name:
                return s
        raise KeyError(f"unknown variable {name!r}")


@dataclass(frozen=True)
class Channel:
    """Conditional pmf p(outputs | inputs) as a dense tensor.

    Tensor axes are inputs first, then outputs; every conditional slice
    sums to one.
    """

    inputs: tuple[tuple[str, int], ...]
    outputs: tuple[tuple[str, int], ...]
    probs: np.ndarray

    @staticmethod
    def make(inputs, outputs, probs) -> "Channel":
        inputs, outputs = tuple(inputs), tuple(outputs)
        if not outputs:
            raise ValueError("channel needs at least one output")
        axes, p = _law(inputs + outputs, probs, "channel")
        k = len(inputs)
        sums = p.sum(axis=tuple(range(k, len(axes))))
        if np.max(np.abs(sums - 1.0)) > 1e-12:
            raise ValueError("conditional slices must sum to 1")
        return Channel(axes[:k], axes[k:], p)

    @staticmethod
    def from_map(inputs, outputs, func) -> "Channel":
        """Deterministic channel: func maps an input index tuple to an output
        index tuple (or a single index when there is one output)."""
        inputs = tuple(inputs)
        axes, _ = _law(inputs + tuple(outputs), None, "channel")
        shape, k = tuple(s for _, s in axes), len(inputs)
        probs = np.zeros(shape)
        for idx in np.ndindex(*shape[:k]):
            y = func(*idx)
            probs[idx + (y if isinstance(y, tuple) else (y,))] = 1.0
        return Channel.make(axes[:k], axes[k:], probs)


def marginalize(pmf: JointPmf, keep) -> JointPmf:
    """Sum out every variable not in `keep` (order of `pmf` is preserved)."""
    keep = set(keep)
    unknown = keep - set(pmf.names)
    if unknown:
        raise KeyError(f"unknown variables {sorted(unknown)}")
    drop_axes = tuple(i for i, (n, _) in enumerate(pmf.variables) if n not in keep)
    if not drop_axes:
        return pmf
    new_vars = [(n, s) for n, s in pmf.variables if n in keep]
    return JointPmf.make(new_vars, pmf.probs.sum(axis=drop_axes))


def compose(pmf: JointPmf, channel: Channel) -> JointPmf:
    """Joint distribution of pmf's variables together with channel outputs."""
    in_names = [n for n, _ in channel.inputs]
    missing = set(in_names) - set(pmf.names)
    if missing:
        raise ValueError(f"channel inputs {sorted(missing)} not in pmf")
    clash = {n for n, _ in channel.outputs} & set(pmf.names)
    if clash:
        raise ValueError(f"channel outputs {sorted(clash)} already present")
    for n, s in channel.inputs:
        if pmf.size_of(n) != s:
            raise ValueError(f"alphabet mismatch on {n!r}: {pmf.size_of(n)} vs {s}")
    # Align channel input axes with their position in the pmf tensor, with
    # broadcast dimensions for the pmf variables the channel does not read.
    pmf_ordered_inputs = [n for n in pmf.names if n in in_names]
    src = [in_names.index(n) for n in pmf_ordered_inputs]
    ch = np.moveaxis(channel.probs, src, range(len(src)))
    bshape = tuple(s if n in in_names else 1 for n, s in pmf.variables)
    bshape += tuple(s for _, s in channel.outputs)
    ch = ch.reshape(bshape)
    joint = pmf.probs.reshape(pmf.probs.shape + (1,) * len(channel.outputs)) * ch
    return JointPmf.make(list(pmf.variables) + list(channel.outputs), joint)


def add_deterministic(pmf: JointPmf, name: str, size: int, args, func) -> JointPmf:
    """Extend a pmf with `name` = func(values of `args`)."""
    ch = Channel.from_map([(a, pmf.size_of(a)) for a in args], [(name, size)], func)
    return compose(pmf, ch)


def _marginal_index(variables, subsets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map every (subset, flat cell) pair to its cell in the concatenated
    marginals of `subsets`; also return where each marginal starts and a
    weights scratch.  Both stay writeable: `np.bincount` copies a read-only
    array, and a temporary of that size can cost fresh pages on every call."""
    axis = {n: i for i, (n, _) in enumerate(variables)}
    shape = tuple(s for _, s in variables)
    parts, starts, offset = [], [], 0
    for subset in subsets:
        unknown = set(subset) - axis.keys()
        if unknown:
            raise KeyError(f"unknown variables {sorted(unknown)}")
        index = np.full(shape, offset, dtype=np.intp)
        stride = 1
        for i in sorted({axis[n] for n in subset}, reverse=True):
            digit = np.arange(shape[i]) * stride
            index += digit.reshape([-1 if j == i else 1 for j in range(len(shape))])
            stride *= shape[i]
        parts.append(index.reshape(-1))
        starts.append(offset)
        offset += stride
    index, starts = np.concatenate(parts), np.array(starts, dtype=np.intp)
    starts.flags.writeable = False
    return index, starts, np.empty(index.size)


_cached_marginal_index = functools.lru_cache(maxsize=PLAN_CACHE_SIZE)(_marginal_index)


def _entropies(flat: np.ndarray, index: np.ndarray, starts: np.ndarray,
               weights: np.ndarray) -> np.ndarray:
    """Entropies of the marginals that `index` sums `flat` into."""
    weights.reshape(-1, flat.size)[:] = flat
    marg = np.bincount(index, weights=weights)
    plogp = np.zeros_like(marg)
    np.log2(marg, out=plogp, where=marg > 0)
    plogp *= marg
    return 0.0 - np.add.reduceat(plogp, starts)


def subset_entropies(pmf: JointPmf, subsets) -> np.ndarray:
    """H(X(S)) in bits for every S in `subsets` (0 for the empty set).

    The one entropy kernel of this module.  When the index of every
    (subset, cell) pair fits in _INDEX_BUDGET it is cached per (variables,
    subsets), so a repeated call costs one bincount, one log2 and one
    reduceat; past it, each subset is marginalised in turn.
    """
    subsets = tuple(map(tuple, subsets))
    if not subsets:
        return np.zeros(0)
    flat = pmf.probs.reshape(-1)
    if flat.size * len(subsets) <= _INDEX_BUDGET:
        groups = [_cached_marginal_index(pmf.variables, subsets)]
    else:
        groups = (_marginal_index(pmf.variables, (s,)) for s in subsets)
    return np.concatenate([_entropies(flat, *g) for g in groups])


def entropy(pmf: JointPmf, subset) -> float:
    """H(X(subset)) in bits."""
    return float(subset_entropies(pmf, [subset])[0])


def mutual_info(pmf: JointPmf, a, b, cond=()) -> float:
    """I(A;B|C) in bits; C may be empty.  Clamped at zero."""
    spec = mi_atom(a, b, cond)
    return atom_valuation(pmf, [spec])[spec.name]


def total_correlation(pmf: JointPmf, subset) -> float:
    """Gamma(X(subset)) = sum_i H(X_i) - H(X(subset)), in bits."""
    spec = gamma_atom(subset)
    return atom_valuation(pmf, [spec])[spec.name]


def blahut_arimoto(channel: Channel, tol: float = 1e-10):
    """Capacity of a single-input single-output channel, in bits.

    Runs the classic alternating maximization; the lower bound on capacity
    is nondecreasing and the iteration stops once the upper/lower gap drops
    below `tol`, within 10,000 iterations.  Returns (capacity, input_pmf).
    """
    if len(channel.inputs) != 1 or len(channel.outputs) != 1:
        raise ValueError("blahut_arimoto expects a single-input single-output channel")
    W = channel.probs  # (|X|, |Y|)
    m = W.shape[0]
    r = np.full(m, 1.0 / m)
    logW = np.where(W > 0, np.log2(np.where(W > 0, W, 1.0)), 0.0)
    last_low = -np.inf
    for _ in range(10_000):
        q = r @ W  # output marginal
        with np.errstate(divide="ignore"):
            logq = np.where(q > 0, np.log2(np.where(q > 0, q, 1.0)), 0.0)
        # D_x = D(W(.|x) || q)
        D = np.einsum("xy,xy->x", W, logW - logq[None, :])
        low = float(r @ D)
        up = float(D.max())
        if up - low < tol:
            return max(0.0, low), r
        if low < last_low - 1e-12:
            raise RuntimeError("Blahut-Arimoto lower bound decreased")
        last_low = low
        r = r * np.exp2(D - D.max())
        r = r / r.sum()
    raise RuntimeError("Blahut-Arimoto did not converge in 10,000 iterations")


def atom_values(pmf: JointPmf, atoms) -> np.ndarray:
    """The atoms (AtomSpecs or canonical names) on a pmf, in bits, in the
    order of `atoms`; I and Gamma atoms are clamped at zero and a named
    constant reads 0."""
    plan = atom_plan(pmf.names, tuple(atoms))
    values = plan.coeffs @ subset_entropies(pmf, plan.subsets)
    return np.maximum(values, 0.0, out=values, where=plan.clamp)


def atom_valuation(pmf: JointPmf, atoms, constants=None) -> dict[str, float]:
    """`atom_values` by canonical name, with the constants from `constants`."""
    atoms = tuple(atoms)
    return atom_plan(pmf.names, atoms).valuation(atom_values(pmf, atoms), constants)


def random_joint_pmf(rng: np.random.Generator, variables) -> JointPmf:
    """Random joint pmf over the given variables, from the flat Dirichlet law."""
    variables, _ = _law(variables, None, "pmf")
    probs = rng.dirichlet(np.ones(math.prod(s for _, s in variables)))
    return JointPmf.make(variables, probs)
