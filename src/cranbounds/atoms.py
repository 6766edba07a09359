"""Canonical names for information-measure atoms.

Rate-region constraint systems keep their right-hand sides symbolic: each
symbol ("atom") stands for one information quantity such as I(U0;Y1),
Gamma(U0,V0) or a capacity constant C1.  The polyhedral core treats atom
names as opaque strings, so every producer (region generators) and every
consumer (discrete / Gaussian valuation builders) must agree on a single
spelling per quantity.  This module is that agreement: variable lists are
sorted, and the two sides of a mutual information are ordered, so the same
quantity always canonicalizes to the same name.

`compile_atoms` turns an atom list into a linear map over subset measures:
every H, I and Gamma atom is a signed sum of the measures of a few variable
subsets.  Each back end has one kernel for those measures (entropies of a
pmf, log-pseudo-determinants of a covariance); `atom_plan` caches the
compiled plan per (variable names, atoms) for both back ends, and
`AtomPlan.valuation` is their shared tail (names and named constants).
`checked_axes`, `checked_reals` and `checked_int` are the one rule for the
names, sizes and numbers of every law and config, in both back ends.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

H = "H"
I = "I"
GAMMA = "Gamma"
CONST = "const"

_KINDS = (H, I, GAMMA, CONST)
# Compiled plans kept by `atom_plan`.
PLAN_CACHE_SIZE = 32


@dataclass(frozen=True)
class AtomSpec:
    """Structured form of one atom.

    kind/groups:
      * ("H", (A,))          entropy of the variable set A
      * ("I", (A, B))        mutual information I(A;B)
      * ("I", (A, B, C))     conditional mutual information I(A;B|C)
      * ("Gamma", (S,))      total correlation of the variable set S
      * ("const", ())        named constant (capacities); the name is kept
                             in `const_name`
    """

    kind: str
    groups: tuple[tuple[str, ...], ...]
    const_name: str = ""

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown atom kind {self.kind!r}")

    @property
    def name(self) -> str:
        if self.kind == CONST:
            return self.const_name
        if self.kind == H:
            return f"H({','.join(self.groups[0])})"
        if self.kind == GAMMA:
            return f"Gamma({','.join(self.groups[0])})"
        a, b = self.groups[0], self.groups[1]
        cond = self.groups[2] if len(self.groups) == 3 else ()
        body = f"{','.join(a)};{','.join(b)}"
        if cond:
            body += f"|{','.join(cond)}"
        return f"I({body})"

    def variables(self) -> set[str]:
        out: set[str] = set()
        for g in self.groups:
            out.update(g)
        return out


def _grp(names) -> tuple[str, ...]:
    return tuple(sorted(set(names)))


def h_atom(variables) -> AtomSpec:
    g = _grp(variables)
    if not g:
        raise ValueError("entropy atom needs at least one variable")
    return AtomSpec(H, (g,))


def mi_atom(a, b, cond=()) -> AtomSpec:
    """I(a;b|cond), canonicalized.  Sides are sorted so I(A;B) == I(B;A)."""
    ga, gb, gc = _grp(a), _grp(b), _grp(cond)
    if not ga or not gb:
        raise ValueError("mutual information atom needs two nonempty sides")
    if set(ga) & set(gb) or set(ga) & set(gc) or set(gb) & set(gc):
        raise ValueError(f"atom groups must be disjoint: {ga} {gb} {gc}")
    if gb < ga:
        ga, gb = gb, ga
    if gc:
        return AtomSpec(I, (ga, gb, gc))
    return AtomSpec(I, (ga, gb))


def gamma_atom(variables) -> AtomSpec:
    g = _grp(variables)
    if not g:
        raise ValueError("total correlation atom needs at least one variable")
    return AtomSpec(GAMMA, (g,))


def const_atom(name: str) -> AtomSpec:
    return AtomSpec(CONST, (), name)


def parse_atom(name: str) -> AtomSpec:
    """Inverse of AtomSpec.name.  Anything not shaped like H/I/Gamma(...) is
    treated as a named constant."""
    name = name.strip()
    for kind in (H, GAMMA):
        prefix = kind + "("
        if name.startswith(prefix) and name.endswith(")"):
            inner = name[len(prefix):-1]
            vs = [v.strip() for v in inner.split(",") if v.strip()]
            return h_atom(vs) if kind == H else gamma_atom(vs)
    if name.startswith("I(") and name.endswith(")"):
        inner = name[2:-1]
        if "|" in inner:
            body, cond = inner.split("|", 1)
            gc = [v.strip() for v in cond.split(",") if v.strip()]
        else:
            body, gc = inner, []
        if ";" not in body:
            raise ValueError(f"malformed mutual information atom: {name!r}")
        sa, sb = body.split(";", 1)
        ga = [v.strip() for v in sa.split(",") if v.strip()]
        gb = [v.strip() for v in sb.split(",") if v.strip()]
        return mi_atom(ga, gb, gc)
    if not name or any(ch in name for ch in "();|, "):
        raise ValueError(f"malformed atom name: {name!r}")
    return const_atom(name)


@dataclass(frozen=True)
class AtomPlan:
    """An atom list compiled into a linear map over subset measures.

    Row k of `coeffs` writes atom k as a signed sum of the measures of
    `subsets` (entropies, or log-determinants up to a factor 1/2); `clamp`
    marks the rows cut at zero (I and Gamma atoms).  The rows of named
    constants are zero and their names are in `constants`.  `names` and
    `kinds` are the canonical names and kinds of the atoms, in input order.
    """

    names: tuple[str, ...]
    kinds: tuple[str, ...]
    subsets: tuple[tuple[str, ...], ...]
    coeffs: np.ndarray
    clamp: np.ndarray
    constants: tuple[str, ...]

    def valuation(self, values: np.ndarray, constants=None) -> dict[str, float]:
        """Name the row values `values` (already clamped where `clamp`) and
        fill in the named constants from `constants`."""
        out = dict(zip(self.names, values.tolist()))
        constants = constants or {}
        for name in self.constants:
            if name not in constants:
                raise KeyError(f"no value for constant atom {name!r}")
            out[name] = float(constants[name])
        return out


def _measure_terms(spec: AtomSpec) -> list[tuple[int, tuple[str, ...]]]:
    """(sign, subset) pairs whose signed subset measures sum to the atom."""
    if spec.kind == CONST:
        return []
    if spec.kind == H:
        return [(1, _grp(spec.groups[0]))]
    if spec.kind == GAMMA:
        g = spec.groups[0]
        return [(1, (v,)) for v in g] + [(-1, _grp(g))] if len(g) > 1 else []
    a, b = spec.groups[0], spec.groups[1]
    c = spec.groups[2] if len(spec.groups) == 3 else ()
    return [(1, _grp(a + c)), (1, _grp(b + c)), (-1, _grp(a + b + c)), (-1, _grp(c))]


def compile_atoms(specs, variables) -> AtomPlan:
    """Compile AtomSpecs over the named `variables` into an AtomPlan.

    Raises TypeError for an element that is not an AtomSpec and KeyError for
    an atom naming a variable outside `variables`.
    """
    known = set(variables)
    col: dict[tuple[str, ...], int] = {}
    entries = []  # (row, column, sign)
    for k, spec in enumerate(specs):
        if not isinstance(spec, AtomSpec):
            raise TypeError(f"bad atom spec {spec!r}")
        unknown = spec.variables() - known
        if unknown:
            raise KeyError(f"atom {spec.name} references unknown variables "
                           f"{sorted(unknown)}")
        for sign, subset in _measure_terms(spec):
            if subset:  # the empty set has measure zero
                entries.append((k, col.setdefault(subset, len(col)), sign))
    coeffs = np.zeros((len(specs), len(col)))
    for k, j, sign in entries:
        coeffs[k, j] += sign
    clamp = np.array([s.kind in (I, GAMMA) for s in specs], dtype=bool)
    coeffs.flags.writeable = clamp.flags.writeable = False
    return AtomPlan(tuple(s.name for s in specs), tuple(s.kind for s in specs),
                    tuple(col), coeffs, clamp,
                    tuple(s.const_name for s in specs if s.kind == CONST))


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def atom_plan(variables: tuple[str, ...], atoms: tuple) -> AtomPlan:
    """`compile_atoms` of `atoms` (AtomSpecs or canonical names) over the
    variable names `variables`, cached per (variables, atoms)."""
    specs = [parse_atom(a) if isinstance(a, str) else a for a in atoms]
    return compile_atoms(specs, variables)


def checked_axes(axes, what: str) -> tuple[tuple[str, int], ...]:
    """`axes` as a tuple of (name, size) pairs, if every name is a string,
    every size an integer of at least 1 (a NumPy integer is one, a bool is
    not) and no name comes twice; else ValueError naming `what`."""
    axes = tuple(axes)
    if bad := [a for a in axes if len(a) != 2 or not isinstance(a[0], str) or isinstance(a[1], bool)
               or not isinstance(a[1], (int, np.integer)) or a[1] < 1]:
        raise ValueError(f"{what} want (string name, integer size >= 1) pairs, got {bad[0]!r}")
    axes = tuple((str(n), int(s)) for n, s in axes)
    if len({n for n, _ in axes}) != len(axes):
        raise ValueError(f"{what} repeat a name: {[n for n, _ in axes]}")
    return axes


def checked_reals(values, what: str, lo: float = -math.inf, shape=None) -> np.ndarray:
    """`values` as a new read-only C-ordered float array, if every entry is a
    number (a string or a bool is not; a float or integer ndarray skips this
    scan), finite and >= `lo`, and the array has the shape `shape` if one is
    given; else ValueError naming `what`."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "fiu") and (bad := [
            x for x in np.asarray(values, object).flat
            if isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating))]):
        raise ValueError(f"{what} must be numbers, got {bad[0]!r}")
    a = np.array(values, dtype=float, order="C")
    if shape is not None and a.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {a.shape}")
    if not np.isfinite(a).all() or lo > -math.inf and a.min(initial=lo) < lo:
        bound = f" and >= {lo:g}" if lo > -math.inf else ""
        bad = a[~(np.isfinite(a) & (a >= lo))][0]
        raise ValueError(f"{what} must be finite{bound}, got {float(bad)!r}")
    a.flags.writeable = False
    return a


def checked_int(value, what: str, lo: int):
    """`value` if it is an integer (a NumPy integer is one, a bool is not)
    of at least `lo`, else ValueError naming `what`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < lo:
        raise ValueError(f"{what} must be an integer of at least {lo}, got {value!r}")
    return value
