"""Linear inequality systems over rate variables with symbolic right-hand sides.

A constraint is ``sum_v lhs[v]*v <= rhs`` where the left side is an exact
rational combination of rate variables and the right side is an exact
rational affine expression in named atoms (information quantities and
capacity constants).  All regions are kept in closure (non-strict) form.
Atoms stay symbolic through Fourier-Motzkin projection; they are resolved
to floats only when membership of a concrete point is tested against an
atom valuation.

Fourier-Motzkin elimination runs on exact integer rows: a constraint is
scaled to a primitive tuple of Python ints over one column order (rate
variables, atoms, constant), and the set of input rows it derives from
(Kohler's redundancy rule) is an int bitmask.  Rows become
`LinearConstraint`s again only when a projection is returned.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

import numpy as np

__all__ = [
    "AffineExpr",
    "LinearConstraint",
    "ConstraintSystem",
    "CompiledSystem",
    "FMEBlowupError",
    "fme_eliminate",
    "syntactic_reduce",
    "is_member",
    "min_slack",
    "regions_equal_sampled",
    "parse_system",
    "format_system",
    "SystemParseError",
]

Q = Fraction
ZERO = Fraction(0)

DEFAULT_FME_CAP = 100_000


class FMEBlowupError(RuntimeError):
    """Raised when an intermediate FME system exceeds the constraint cap."""


def _clean(terms: dict[str, Fraction]) -> dict[str, Fraction]:
    return {k: v for k, v in terms.items() if v != 0}


def _signed_text(terms, const=ZERO) -> str:
    """``q*Name`` terms, then the constant when nonzero or alone, joined
    with their signs: ``-1*a + 1/2*b - 3``.  A Fraction's text carries its
    sign as a leading '-', which becomes the joining sign."""
    parts = [f"{q}*{k}" for k, q in terms]
    if const or not parts:
        parts.append(str(const))
    text = "".join(f" - {p[1:]}" if p[0] == "-" else f" + {p}" for p in parts)
    return "-" + text[3:] if text[1] == "-" else text[3:]


@dataclass(frozen=True)
class AffineExpr:
    """Exact rational affine expression ``sum_a terms[a]*a + const``."""

    terms: tuple[tuple[str, Fraction], ...] = ()
    const: Fraction = ZERO

    @staticmethod
    def make(terms=None, const=0) -> "AffineExpr":
        t = _clean({k: Q(v) for k, v in (terms or {}).items()})
        return AffineExpr(tuple(sorted(t.items())), Q(const))

    @staticmethod
    def constant(c) -> "AffineExpr":
        return AffineExpr.make({}, c)

    def atoms(self) -> set[str]:
        return {k for k, _ in self.terms}

    def __str__(self) -> str:
        return _signed_text(self.terms, self.const)


@dataclass(frozen=True)
class LinearConstraint:
    """``sum_v lhs[v]*v <= rhs`` with exact rational coefficients."""

    lhs: tuple[tuple[str, Fraction], ...]
    rhs: AffineExpr

    @staticmethod
    def make(lhs, rhs: AffineExpr) -> "LinearConstraint":
        t = _clean({k: Q(v) for k, v in dict(lhs).items()})
        return LinearConstraint(tuple(sorted(t.items())), rhs)

    def coeff(self, var: str) -> Fraction:
        return dict(self.lhs).get(var, ZERO)

    def variables(self) -> set[str]:
        return {k for k, _ in self.lhs}

    def atoms(self) -> set[str]:
        return self.rhs.atoms()

    def __str__(self) -> str:
        return f"{_signed_text(self.lhs)} <= {self.rhs}"


@dataclass
class ConstraintSystem:
    """Ordered rate variables plus a list of <=-constraints over them."""

    variables: list[str]
    constraints: list[LinearConstraint] = field(default_factory=list)

    def __post_init__(self):
        seen = set(self.variables)
        for c in self.constraints:
            extra = c.variables() - seen
            if extra:
                raise ValueError(f"constraint uses undeclared variables {sorted(extra)}")

    def atoms(self) -> set[str]:
        out: set[str] = set()
        for c in self.constraints:
            out |= c.atoms()
        return out

    def add(self, lhs, rhs: AffineExpr):
        c = LinearConstraint.make(lhs, rhs)
        extra = c.variables() - set(self.variables)
        if extra:
            raise ValueError(f"constraint uses undeclared variables {sorted(extra)}")
        self.constraints.append(c)

    def numeric(self, valuation: dict[str, float]):
        """Resolve atoms: returns (A, b) with the row order of `constraints`,
        such that membership of x means A @ x <= b (elementwise)."""
        rows = CompiledSystem(self)
        return rows.A, rows.rhs(valuation)

    def __len__(self) -> int:
        return len(self.constraints)

    def __str__(self) -> str:
        return format_system(self)


class CompiledSystem:
    """A system's rows compiled for evaluation under many valuations: the
    left-hand sides `A` in floats, and the right-hand sides as a sparse sum
    with one entry per row for its constant, then one per atom term (row,
    coefficient, index into `atoms`).  An atom absent from a row never
    touches it, so an infinite atom cannot make 0*inf = NaN, and every row
    sums its constant, then its atom terms in order."""

    def __init__(self, system: ConstraintSystem):
        cons, n = system.constraints, len(system.constraints)
        col = {v: i for i, v in enumerate(system.variables)}
        self.A = np.zeros((n, len(system.variables)))
        for i, c in enumerate(cons):
            for k, q in c.lhs:
                self.A[i, col[k]] = float(q)
        self.atoms = sorted(system.atoms())
        index = {a: k for k, a in enumerate(self.atoms)}
        self.rows = np.fromiter(chain(range(n), (i for i, c in enumerate(cons)
                                                 for _ in c.rhs.terms)), np.intp)
        self.const = np.fromiter((c.rhs.const for c in cons), float, n)
        self.coeffs = np.fromiter((q for c in cons for _, q in c.rhs.terms), float)
        self.atom_index = np.fromiter((index[a] for c in cons for a, _ in c.rhs.terms), np.intp)

    def rhs(self, valuation) -> np.ndarray:
        """The right-hand sides, in row order, under `valuation`: a vector of
        atom values in the order of `atoms`, or a mapping from atom names."""
        if isinstance(valuation, Mapping):
            try:
                valuation = [valuation[a] for a in self.atoms]
            except KeyError as exc:
                raise KeyError(f"valuation missing atom {exc.args[0]!r}") from None
        vals = np.asarray(valuation, dtype=float)
        if vals.shape != (len(self.atoms),):
            raise ValueError(f"want {len(self.atoms)} atom values, got shape {vals.shape}")
        weights = np.concatenate((self.const, self.coeffs * vals[self.atom_index]))
        return np.bincount(self.rows, weights, len(self.const))


# ---------------------------------------------------------------------------
# Fourier-Motzkin kernel.  A row is a tuple of ints over the columns of a
# `_Columns` -- rate variables, atoms, then the constant -- standing for
# ``sum row[:nv]*vars <= sum row[nv:-1]*atoms + row[-1]``.
# ---------------------------------------------------------------------------


class _Columns:
    """The fixed column order of one system's integer rows."""

    def __init__(self, system: ConstraintSystem):
        self.variables, self.atoms = list(system.variables), sorted(system.atoms())
        self.nv = len(self.variables)
        self.col = {v: i for i, v in enumerate(self.variables)}
        self.atom_col = {a: self.nv + i for i, a in enumerate(self.atoms)}

    def row(self, c: LinearConstraint) -> tuple[int, ...]:
        """`c` scaled to a primitive integer row."""
        fr = [ZERO] * (self.nv + len(self.atoms)) + [c.rhs.const]
        for k, q in c.lhs:
            fr[self.col[k]] = q
        for k, q in c.rhs.terms:
            fr[self.atom_col[k]] = q
        m = lcm(*(f.denominator for f in fr))
        ints = [f.numerator * (m // f.denominator) for f in fr]
        g = gcd(*ints)
        return tuple(x // g for x in ints) if g > 1 else tuple(ints)

    def constraint(self, row) -> LinearConstraint:
        """Back to a constraint, scaled so its left-hand side (else its atom
        terms, else its constant) is a primitive integer vector."""
        nv = self.nv
        g = gcd(*row[:nv]) or gcd(*row[nv:-1]) or abs(row[-1]) or 1
        lhs = sorted((self.variables[i], Q(x, g)) for i, x in enumerate(row[:nv]) if x)
        terms = sorted((self.atoms[i], Q(x, g)) for i, x in enumerate(row[nv:-1]) if x)
        return LinearConstraint(tuple(lhs), AffineExpr(tuple(terms), Q(row[-1], g)))

    def system(self, variables, rows) -> ConstraintSystem:
        return ConstraintSystem(variables, [self.constraint(r) for r, _, _ in rows])


class _Reducer:
    """Rows deduplicated by head, the non-constant part divided by its gcd,
    in first-insertion order.  Per head the tighter constant wins (compared
    by cross-multiplication); on a tie the newer row wins unless its
    history has more bits.  Tautologies ``0 <= c`` with c >= 0 are dropped.
    """

    def __init__(self):
        self.best: dict[tuple, tuple] = {}  # head -> (row, history, gcd of head)

    def add(self, row: tuple, hist: int = 0):
        head = row[:-1]
        g = gcd(*head)
        if g == 0:
            if row[-1] >= 0:
                return
            g, row = 1, head + (-1,)
        elif g > 1:
            head = tuple(x // g for x in head)
        old = self.best.get(head)
        if old is not None:
            d = row[-1] * old[2] - old[0][-1] * g
            if d > 0 or (d == 0 and hist.bit_count() > old[1].bit_count()):
                return
        h = gcd(g, row[-1])
        if h > 1:
            row, g = tuple(x // h for x in row), g // h
        self.best[head] = (row, hist, g)


def _eliminate_column(rows, j: int, var: str, max_constraints: int, max_history: int):
    """One Fourier-Motzkin step on column j of (row, history, _) triples.

    Every upper row (positive in column j) combines with every lower row
    as ``b*up + a*lo``, where a and -b are their column-j entries; rows
    without column j carry over first.  A pairing whose joint history has
    more than `max_history` bits is skipped before its row is built.
    """
    out = _Reducer()
    uppers, lowers = [], []
    for row, hist, _ in rows:
        a = row[j]
        if a > 0:
            uppers.append((row, hist, a))
        elif a < 0:
            lowers.append((row, hist, -a))
        else:
            out.add(row, hist)
    best = out.best
    for up, hu, a in uppers:
        for lo, hl, b in lowers:
            hist = hu | hl
            if hist.bit_count() > max_history:
                continue
            out.add(tuple(b * x + a * y for x, y in zip(up, lo)), hist)
            if len(best) > max_constraints:
                raise FMEBlowupError(
                    f"eliminating {var!r} produced more than "
                    f"{max_constraints} distinct constraints")
    return out.best.values()


def syntactic_reduce(system: ConstraintSystem) -> ConstraintSystem:
    """Drop exact duplicates (up to positive rescaling), constraints that are
    constant-dominated by another with identical lhs and atom terms, and
    tautologies ``0 <= nonnegative constant``.

    Never changes the solution set for any valuation: only constraints whose
    redundancy is visible without knowing atom values are removed.
    """
    cols, red = _Columns(system), _Reducer()
    for c in system.constraints:
        red.add(cols.row(c))
    return cols.system(list(system.variables), red.best.values())


def fme_eliminate(system: ConstraintSystem, var: str,
                  max_constraints: int = DEFAULT_FME_CAP) -> ConstraintSystem:
    """Project out one rate variable by Fourier-Motzkin elimination.

    Standard pairing of upper bounds (positive coefficient on `var`) with
    lower bounds (negative coefficient); var-free constraints carry over.
    Raises FMEBlowupError if the result would exceed `max_constraints`.
    Kohler's rule prunes nothing in a single step: every combined row
    derives from exactly two input rows.
    """
    return eliminate_all(system, [var], max_constraints)


def eliminate_all(system: ConstraintSystem, drop_vars,
                  max_constraints: int = DEFAULT_FME_CAP) -> ConstraintSystem:
    """Eliminate several variables, in exact integer arithmetic.

    Each step eliminates the variable with the fewest upper*lower pairings,
    ties going to the earliest listed.  Constraints derived from more than
    s+1 of the starting inequalities after s eliminations are redundant
    (Kohler's criterion) and are pruned, which is what keeps multi-variable
    projections of the covering/packing systems tractable.  With nothing to
    eliminate the system is returned as given.
    """
    remaining = list(drop_vars)
    for i, v in enumerate(remaining):
        if v in remaining[:i]:
            raise ValueError(f"variable {v!r} is listed twice for elimination")
        if v not in system.variables:
            raise KeyError(f"unknown variable {v!r}")
    if max_constraints < 1:
        raise ValueError(f"max_constraints must be at least 1, got {max_constraints}")
    if not remaining:
        return ConstraintSystem(list(system.variables), list(system.constraints))
    dropped = set(remaining)
    cols = _Columns(system)
    # input rows enter unreduced, each with its own history bit
    rows = [(cols.row(c), 1 << i, None) for i, c in enumerate(system.constraints)]
    step = 0
    while remaining:
        if len(remaining) > 1:
            def cost(v):
                j = cols.col[v]
                nu = sum(1 for row, _, _ in rows if row[j] > 0)
                nl = sum(1 for row, _, _ in rows if row[j] < 0)
                return nu * nl - nu - nl
            v = min(remaining, key=cost)
        else:
            v = remaining[0]
        remaining.remove(v)
        step += 1
        rows = _eliminate_column(rows, cols.col[v], v, max_constraints, step + 1)
    return cols.system([v for v in system.variables if v not in dropped], rows)


def substitute_atoms(system: ConstraintSystem, f, variables=None) -> ConstraintSystem:
    """The system with each right-hand atom a replaced by f(a).

    f runs once per distinct atom, in first-use order: rows in order, then
    the terms of each row in order.  It returns a new atom name (the
    coefficients of equal names merge), an exact number (added to the
    constant with the atom's coefficient) or None (the term drops).  With
    `variables` the system is over those, and left-hand terms outside them
    drop, which sets those rates to 0."""
    image: dict[str, object] = {}
    out = ConstraintSystem(list(system.variables if variables is None else variables))
    keep = set(out.variables)
    for c in system.constraints:
        terms: dict[str, Fraction] = {}
        const = c.rhs.const
        for name, q in c.rhs.terms:
            if name not in image:
                image[name] = f(name)
            new = image[name]
            if isinstance(new, str):
                terms[new] = terms.get(new, ZERO) + q
            elif new is not None:
                const += q * new
        lhs = tuple(t for t in c.lhs if t[0] in keep)
        out.constraints.append(LinearConstraint(lhs, AffineExpr.make(terms, const)))
    return out


def resolve_atoms(system: ConstraintSystem, valuation: dict[str, float]) -> ConstraintSystem:
    """Substitute exact rational values for the system's atoms, leaving
    constraints with pure-constant right-hand sides.  Floats convert to
    Fractions exactly, so projection after resolution is still exact
    arithmetic.  Atoms the system does not use are ignored; a used one that
    is ±inf or NaN has no rational value and raises ValueError."""
    def value(name):
        try:
            return Q(valuation[name])
        except KeyError:
            raise KeyError(f"valuation missing atom {name!r}") from None
        except (OverflowError, ValueError):
            raise ValueError(f"atom {name!r} is {valuation[name]}, "
                             "which has no exact rational value") from None
    return substitute_atoms(system, value)


def _defined_rhs(system: ConstraintSystem, rows: CompiledSystem,
                 valuation: dict[str, float]) -> np.ndarray:
    b = rows.rhs(valuation)
    undefined = np.flatnonzero(np.isnan(b))
    if undefined.size:
        raise ValueError(f"right-hand side {system.constraints[undefined[0]].rhs} "
                         "is undefined (NaN) under this valuation")
    return b


def min_slack(system: ConstraintSystem, valuation: dict[str, float],
              point: dict[str, float]) -> float:
    """Smallest slack b - A @ x over all constraints (+inf for empty systems).

    Raises ValueError when a right-hand side is NaN (inf - inf): the region
    is then undefined, so no point is a member or a non-member.  A point
    coordinate that is not a finite number raises ValueError too.
    """
    missing = [v for v in system.variables if v not in point]
    if missing:
        raise KeyError(f"point missing variables {missing}")
    x = np.array([point[v] for v in system.variables], dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"point coordinates must be finite numbers, got {point}")
    rows = CompiledSystem(system)
    return float(np.min(_defined_rhs(system, rows, valuation) - rows.A @ x, initial=np.inf))


def is_member(system: ConstraintSystem, valuation: dict[str, float],
              point: dict[str, float], tol: float = 1e-9) -> bool:
    """True iff every constraint holds with slack >= -tol."""
    return min_slack(system, valuation, point) >= -tol


def regions_equal_sampled(sys_a: ConstraintSystem, sys_b: ConstraintSystem,
                          valuations, n_points: int, seed: int) -> dict:
    """Compare membership of two systems, each within 1e-9, on random
    nonnegative rate points.

    Points are sampled uniformly from [0, M]^d per valuation, where M is
    derived from the finite resolved right-hand sides of both systems (an
    infinite one bounds nothing).  Returns a report dict with an `agree`
    flag and up to 10 disagreement witnesses.  Deterministic given the seed.
    Raises ValueError when a right-hand side is NaN (inf - inf), as
    `min_slack` does.
    """
    if set(sys_a.variables) != set(sys_b.variables):
        raise ValueError("systems must share the same variable set")
    if n_points < 1:
        raise ValueError(f"n_points must be at least 1, got {n_points}")
    valuations = list(valuations)
    if not valuations:
        raise ValueError("need at least one valuation")
    order = list(sys_a.variables)
    sys_b_ordered = ConstraintSystem(order, list(sys_b.constraints))
    compiled = [(s, CompiledSystem(s)) for s in (sys_a, sys_b_ordered)]
    rng = np.random.default_rng(seed)
    witnesses = []
    checked = 0
    agree = True
    for vi, val in enumerate(valuations):
        bs = [_defined_rhs(s, rows, val) for s, rows in compiled]
        hi = max([1.0] + [abs(x) for b in bs for x in b[np.isfinite(b)].tolist()])
        pts = rng.uniform(0.0, hi + 0.5, size=(n_points, len(order)))
        in_a, in_b = (np.all(pts @ rows.A.T <= b + 1e-9, axis=1)
                      for (_, rows), b in zip(compiled, bs))
        checked += len(pts)
        diff = np.nonzero(in_a != in_b)[0]
        if diff.size:
            agree = False
            for j in diff[:10 - len(witnesses)]:
                witnesses.append({
                    "valuation_index": vi,
                    "point": dict(zip(order, (float(x) for x in pts[j]))),
                    "in_a": bool(in_a[j]),
                    "in_b": bool(in_b[j]),
                })
            if len(witnesses) >= 10:
                break
    return {"agree": agree, "points_checked": checked, "witnesses": witnesses}


# ---------------------------------------------------------------------------
# Text format: one constraint per line, "<lhs> <= <rhs>", "#" starts a
# comment.  A side is a signed sum of terms "q*Name", "q" or "Name": q is a
# number as `Fraction` reads it ("2", "1/2", "0.25", "1e-6"), a name starts
# with a letter or underscore and may end in one parenthesised group, as in
# "I(U0;Y1|V0)".  Names on the left are rate variables, names on the right
# are atoms.
# ---------------------------------------------------------------------------

_DIGITS = r"\d+(?:_\d+)*"
_NUMBER = (rf"{_DIGITS}/{_DIGITS}"
           rf"|(?:{_DIGITS}(?:\.(?:{_DIGITS})?)?|\.{_DIGITS})(?:[eE][-+]?{_DIGITS})?")
_NAME = r"[A-Za-z_]\w*(?:\([^()]*\))?"
_TERM = re.compile(rf"(?P<signs>[-+\s]*)(?:(?P<q>{_NUMBER})(?:\s*\*\s*(?P<qname>{_NAME}))?"
                   rf"|(?P<name>{_NAME}))")
_SIGNS = re.compile(r"[-+\s]*")


class SystemParseError(ValueError):
    def __init__(self, message, line=None, column=None):
        self.line, self.column = line, column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


def _parse_terms(text: str, lineno: int, offset: int, known=None):
    """Read `text` as `_TERM` matches, each starting where the last ended;
    every term after the first needs a sign of its own.  With `known`, a
    name outside it is an error.  Columns in errors count from 1 at
    `offset` characters before `text`."""
    terms: dict[str, Fraction] = {}
    const, pos = ZERO, 0
    while (m := _TERM.match(text, pos)) and (pos == 0 or m["signs"].strip()):
        try:
            q = Q(m["q"] or 1)
        except (ValueError, ZeroDivisionError):  # 1/0; underscores before Python 3.11
            raise SystemParseError(f"bad coefficient {m['q']!r}", lineno,
                                   offset + m.start("q") + 1) from None
        q = -q if m["signs"].count("-") % 2 else q
        name = m["qname"] or m["name"]
        if not name:
            const += q
        elif known is None or name in known:
            terms[name] = terms.get(name, ZERO) + q
        else:
            raise SystemParseError(f"undeclared variable {name!r}", lineno,
                                   offset + m.start("qname" if m["qname"] else "name") + 1)
        pos = m.end()
    bad = _SIGNS.match(text, pos).end()
    if bad < len(text):
        raise SystemParseError(f"unreadable term {text[bad:].split()[0]!r}", lineno,
                               offset + bad + 1)
    if text[pos:].strip():
        raise SystemParseError("dangling sign", lineno,
                               offset + len(text) - len(text[pos:].lstrip()) + 1)
    if pos == 0:
        raise SystemParseError("empty expression", lineno, offset + 1)
    return _clean(terms), const


def parse_system(text: str, variables=None) -> ConstraintSystem:
    """Parse the text form.  If `variables` is None, a `# variables: ...`
    comment before the first constraint, as `format_system` writes, sets the
    variables and their order; without one the variable set is the union of
    all left-hand-side names, ordered by first appearance.  A left-hand
    name outside declared variables is an error."""
    constraints = []
    seen_vars: list[str] = []
    known = None if variables is None else set(variables)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if known is None and not constraints and raw.startswith("# variables:"):
            variables = raw.split(":", 1)[1].split()
            known = set(variables)
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if "<=" not in line:
            raise SystemParseError("expected '<='", lineno, len(line) + 1)
        left, right = line.split("<=", 1)
        lhs_terms, lhs_const = _parse_terms(left, lineno, 0, known)
        rhs_terms, rhs_const = _parse_terms(right, lineno, len(left) + 2)
        for v in lhs_terms:
            if v not in seen_vars:
                seen_vars.append(v)
        rhs = AffineExpr.make(rhs_terms, rhs_const - lhs_const)
        constraints.append(LinearConstraint.make(lhs_terms, rhs))
    var_list = list(variables) if variables is not None else seen_vars
    return ConstraintSystem(var_list, constraints)


def format_system(system: ConstraintSystem) -> str:
    lines = [f"# variables: {' '.join(system.variables)}"]
    lines += [str(c) for c in system.constraints]
    return "\n".join(lines) + "\n"
