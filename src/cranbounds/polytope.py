"""Linear inequality systems over rate variables with symbolic right-hand sides.

A constraint is ``sum_v lhs[v]*v <= rhs`` where the left side is an exact
rational combination of rate variables and the right side is an exact
rational affine expression in named atoms (information quantities and
capacity constants).  All regions are kept in closure (non-strict) form.
Atoms stay symbolic through Fourier-Motzkin projection; they are resolved
to floats only when membership of a concrete point is tested against an
atom valuation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

import numpy as np

__all__ = [
    "AffineExpr",
    "LinearConstraint",
    "ConstraintSystem",
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

    @staticmethod
    def atom(name, coeff=1) -> "AffineExpr":
        return AffineExpr.make({name: Q(coeff)})

    def as_dict(self) -> dict[str, Fraction]:
        return dict(self.terms)

    def __add__(self, other: "AffineExpr") -> "AffineExpr":
        t = self.as_dict()
        for k, v in other.terms:
            t[k] = t.get(k, ZERO) + v
        return AffineExpr.make(t, self.const + other.const)

    def __sub__(self, other: "AffineExpr") -> "AffineExpr":
        return self + other.scale(-1)

    def scale(self, c) -> "AffineExpr":
        c = Q(c)
        return AffineExpr.make({k: v * c for k, v in self.terms}, self.const * c)

    def atoms(self) -> set[str]:
        return {k for k, _ in self.terms}

    def value(self, valuation: dict[str, float]) -> float:
        total = float(self.const)
        for k, v in self.terms:
            try:
                total += float(v) * valuation[k]
            except KeyError:
                raise KeyError(f"valuation missing atom {k!r}") from None
        return total

    def __str__(self) -> str:
        parts = [(v, f"{abs(v)}*{k}") for k, v in self.terms]
        if self.const != 0 or not parts:
            parts.append((self.const, str(abs(self.const))))
        out = ""
        for i, (sign_val, text) in enumerate(parts):
            if i == 0:
                out = ("-" if sign_val < 0 else "") + text
            else:
                out += (" - " if sign_val < 0 else " + ") + text
        return out


@dataclass(frozen=True)
class LinearConstraint:
    """``sum_v lhs[v]*v <= rhs`` with exact rational coefficients.

    `history` tracks which constraints of an elimination run combined into
    this one (Kohler's redundancy rule); it does not affect equality.
    """

    lhs: tuple[tuple[str, Fraction], ...]
    rhs: AffineExpr
    history: frozenset = field(default=None, compare=False, hash=False)

    @staticmethod
    def make(lhs, rhs: AffineExpr, history=None) -> "LinearConstraint":
        t = _clean({k: Q(v) for k, v in dict(lhs).items()})
        return LinearConstraint(tuple(sorted(t.items())), rhs, history)

    def lhs_dict(self) -> dict[str, Fraction]:
        return dict(self.lhs)

    def coeff(self, var: str) -> Fraction:
        return dict(self.lhs).get(var, ZERO)

    def variables(self) -> set[str]:
        return {k for k, _ in self.lhs}

    def atoms(self) -> set[str]:
        return self.rhs.atoms()

    def scale(self, c) -> "LinearConstraint":
        c = Q(c)
        if c <= 0:
            raise ValueError("constraints may only be scaled by positive rationals")
        return LinearConstraint.make({k: v * c for k, v in self.lhs},
                                     self.rhs.scale(c), self.history)

    def normalized(self) -> "LinearConstraint":
        """Canonical representative under positive rescaling.

        The scale is chosen so the left-hand side (or, for pure atom
        relations, the atom terms) becomes a primitive integer vector.
        Constraints that differ only in their constant then share the same
        normalized head, which lets duplicate detection keep the tightest.
        """
        for basis in ([v for _, v in self.lhs],
                      [v for _, v in self.rhs.terms],
                      [self.rhs.const]):
            basis = [f for f in basis if f != 0]
            if basis:
                break
        else:
            return self
        lcm = 1
        for f in basis:
            d = f.denominator
            lcm = lcm * d // gcd(lcm, d)
        g = 0
        for f in basis:
            g = gcd(g, abs((f * lcm).numerator))
        return self.scale(Q(lcm, g))

    def key(self):
        c = self.normalized()
        return (c.lhs, c.rhs.terms, c.rhs.const)

    def __str__(self) -> str:
        lhs = ""
        for i, (k, v) in enumerate(self.lhs):
            if i == 0:
                lhs = ("-" if v < 0 else "") + f"{abs(v)}*{k}"
            else:
                lhs += (" - " if v < 0 else " + ") + f"{abs(v)}*{k}"
        return f"{lhs or '0'} <= {self.rhs}"


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

    def copy(self) -> "ConstraintSystem":
        return ConstraintSystem(list(self.variables), list(self.constraints))

    def numeric(self, valuation: dict[str, float]):
        """Resolve atoms: returns (A, b) with the row order of `constraints`,
        such that membership of x means A @ x <= b (elementwise)."""
        nv = len(self.variables)
        idx = {v: i for i, v in enumerate(self.variables)}
        A = np.zeros((len(self.constraints), nv))
        b = np.zeros(len(self.constraints))
        for i, c in enumerate(self.constraints):
            for k, q in c.lhs:
                A[i, idx[k]] = float(q)
            b[i] = c.rhs.value(valuation)
        return A, b

    def __len__(self) -> int:
        return len(self.constraints)

    def __str__(self) -> str:
        return format_system(self)


class _Reducer:
    """Streaming duplicate/dominance filter keyed on normalized constraint
    heads (lhs direction plus atom terms); keeps the tightest constant."""

    def __init__(self):
        self.best: dict[tuple, LinearConstraint] = {}
        self.order: list[tuple] = []

    @staticmethod
    def _better(a: LinearConstraint, b: LinearConstraint) -> LinearConstraint:
        if a.rhs.const != b.rhs.const:
            return a if a.rhs.const < b.rhs.const else b
        ha = len(a.history) if a.history is not None else 0
        hb = len(b.history) if b.history is not None else 0
        return a if ha <= hb else b

    def add(self, c: LinearConstraint):
        n = c.normalized()
        if not n.lhs and not n.rhs.terms and n.rhs.const >= 0:
            return
        head = (n.lhs, n.rhs.terms)
        if head in self.best:
            self.best[head] = self._better(n, self.best[head])
        else:
            self.best[head] = n
            self.order.append(head)

    def __len__(self) -> int:
        return len(self.order)

    def system(self, variables) -> ConstraintSystem:
        return ConstraintSystem(list(variables), [self.best[h] for h in self.order])


def syntactic_reduce(system: ConstraintSystem) -> ConstraintSystem:
    """Drop exact duplicates (up to positive rescaling), constraints that are
    constant-dominated by another with identical lhs and atom terms, and
    tautologies ``0 <= nonnegative constant``.

    Never changes the solution set for any valuation: only constraints whose
    redundancy is visible without knowing atom values are removed.
    """
    red = _Reducer()
    for c in system.constraints:
        red.add(c)
    return red.system(system.variables)


def fme_eliminate(system: ConstraintSystem, var: str,
                  max_constraints: int = DEFAULT_FME_CAP,
                  max_history: int | None = None) -> ConstraintSystem:
    """Project out one rate variable by Fourier-Motzkin elimination.

    Standard pairing of upper bounds (positive coefficient on `var`) with
    lower bounds (negative coefficient); var-free constraints carry over.
    Exact rational arithmetic throughout.  Raises FMEBlowupError if the
    intermediate system would exceed `max_constraints`.  When `max_history`
    is set, pairings whose combined derivation history exceeds it are
    skipped (Kohler's redundancy criterion; only sound when the caller
    seeded histories at the start of an elimination sequence).
    """
    if var not in system.variables:
        raise KeyError(f"unknown variable {var!r}")
    uppers, lowers, rest = [], [], []
    for c in system.constraints:
        a = c.coeff(var)
        if a > 0:
            uppers.append(c.scale(Q(1, 1) / a))
        elif a < 0:
            lowers.append(c.scale(Q(-1, 1) / a))
        else:
            rest.append(c)
    red = _Reducer()
    for c in rest:
        red.add(c)
    for up in uppers:
        up_lhs = up.lhs_dict()
        up_lhs.pop(var, None)
        for lo in lowers:
            # up: var + u(x) <= e_u ; lo: -var + l(x) <= e_l  =>  u+l <= e_u+e_l
            hist = None
            if up.history is not None and lo.history is not None:
                hist = up.history | lo.history
                if max_history is not None and len(hist) > max_history:
                    continue
            lhs = dict(up_lhs)
            for k, q in lo.lhs:
                if k == var:
                    continue
                lhs[k] = lhs.get(k, ZERO) + q
            red.add(LinearConstraint.make(lhs, up.rhs + lo.rhs, hist))
            if len(red) > max_constraints:
                raise FMEBlowupError(
                    f"eliminating {var!r} produced more than "
                    f"{max_constraints} distinct constraints")
    return red.system([v for v in system.variables if v != var])


def eliminate_all(system: ConstraintSystem, drop_vars,
                  max_constraints: int = DEFAULT_FME_CAP,
                  greedy: bool = True) -> ConstraintSystem:
    """Eliminate several variables.

    `greedy` picks, at each step, the variable with the fewest upper*lower
    pairings.  Constraints derived from more than s+1 of the starting
    inequalities after s eliminations are redundant (Kohler's criterion)
    and are pruned, which is what keeps multi-variable projections of the
    covering/packing systems tractable.
    """
    remaining = list(drop_vars)
    for v in remaining:
        if v not in system.variables:
            raise KeyError(f"unknown variable {v!r}")
    sys_ = ConstraintSystem(
        list(system.variables),
        [LinearConstraint(c.lhs, c.rhs, frozenset([i]))
         for i, c in enumerate(system.constraints)])
    step = 0
    while remaining:
        if greedy and len(remaining) > 1:
            def cost(v):
                nu = sum(1 for c in sys_.constraints if c.coeff(v) > 0)
                nl = sum(1 for c in sys_.constraints if c.coeff(v) < 0)
                return nu * nl - nu - nl
            v = min(remaining, key=cost)
        else:
            v = remaining[0]
        remaining.remove(v)
        step += 1
        sys_ = fme_eliminate(sys_, v, max_constraints=max_constraints,
                             max_history=step + 1)
    return ConstraintSystem(list(sys_.variables),
                            [LinearConstraint(c.lhs, c.rhs) for c in sys_.constraints])


def resolve_atoms(system: ConstraintSystem, valuation: dict[str, float]) -> ConstraintSystem:
    """Substitute exact rational values for every atom, leaving constraints
    with pure-constant right-hand sides.  Floats convert to Fractions
    exactly, so projection after resolution is still exact arithmetic."""
    vals = {k: Q(v) for k, v in valuation.items()}
    out = ConstraintSystem(list(system.variables))
    for c in system.constraints:
        const = c.rhs.const
        for name, q in c.rhs.terms:
            try:
                const += q * vals[name]
            except KeyError:
                raise KeyError(f"valuation missing atom {name!r}") from None
        out.constraints.append(LinearConstraint(c.lhs, AffineExpr((), const), c.history))
    return out


def numeric_feasible(system: ConstraintSystem, tighten: float = 0.0,
                     max_constraints: int = DEFAULT_FME_CAP) -> bool:
    """Feasibility of a fully-resolved system (no atoms) by eliminating all
    variables; `tighten` shrinks every right-hand side first.  Exact
    rational arithmetic, so the answer is a certificate, not a heuristic."""
    if any(c.rhs.terms for c in system.constraints):
        raise ValueError("numeric_feasible needs a resolved system")
    s = system
    if tighten:
        s = ConstraintSystem(
            list(system.variables),
            [LinearConstraint(c.lhs, AffineExpr((), c.rhs.const - Q(tighten)))
             for c in system.constraints])
    s = eliminate_all(syntactic_reduce(s), list(s.variables),
                      max_constraints=max_constraints, greedy=True)
    return all(c.rhs.const >= 0 for c in s.constraints)


def min_slack(system: ConstraintSystem, valuation: dict[str, float],
              point: dict[str, float]) -> float:
    """Smallest slack rhs - lhs over all constraints (+inf for empty systems).

    Raises ValueError when a right-hand side is NaN (inf - inf): the region
    is then undefined, so no point is a member or a non-member.
    """
    missing = [v for v in system.variables if v not in point]
    if missing:
        raise KeyError(f"point missing variables {missing}")
    worst = np.inf
    for c in system.constraints:
        rhs = c.rhs.value(valuation)
        if np.isnan(rhs):
            raise ValueError(f"right-hand side {c.rhs} is undefined (NaN) "
                             "under this valuation")
        lhs = sum(float(q) * point[k] for k, q in c.lhs)
        worst = min(worst, rhs - lhs)
    return worst


def is_member(system: ConstraintSystem, valuation: dict[str, float],
              point: dict[str, float], tol: float = 1e-9) -> bool:
    """True iff every constraint holds with slack >= -tol."""
    return min_slack(system, valuation, point) >= -tol


def _membership_matrix(system: ConstraintSystem, valuation, points: np.ndarray,
                       tol: float) -> np.ndarray:
    if len(system.constraints) == 0:
        return np.ones(len(points), dtype=bool)
    A, b = system.numeric(valuation)
    return np.all(points @ A.T <= b + tol, axis=1)


def regions_equal_sampled(sys_a: ConstraintSystem, sys_b: ConstraintSystem,
                          valuations, n_points: int, seed: int,
                          tol: float = 1e-9) -> dict:
    """Compare membership of two systems on random nonnegative rate points.

    Points are sampled uniformly from [0, M]^d per valuation, where M is
    derived from the resolved right-hand sides of both systems.  Returns a
    report dict with an `agree` flag and up to 10 disagreement witnesses.
    Deterministic given the seed.
    """
    if set(sys_a.variables) != set(sys_b.variables):
        raise ValueError("systems must share the same variable set")
    valuations = list(valuations)
    if not valuations:
        raise ValueError("need at least one valuation")
    order = list(sys_a.variables)
    sys_b_ordered = ConstraintSystem(order, list(sys_b.constraints))
    rng = np.random.default_rng(seed)
    witnesses = []
    checked = 0
    agree = True
    for vi, val in enumerate(valuations):
        hi = 1.0
        for s in (sys_a, sys_b_ordered):
            for c in s.constraints:
                hi = max(hi, abs(c.rhs.value(val)))
        pts = rng.uniform(0.0, hi + 0.5, size=(n_points, len(order)))
        in_a = _membership_matrix(sys_a, val, pts, tol)
        in_b = _membership_matrix(sys_b_ordered, val, pts, tol)
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
# Text format: one constraint per line, "<lhs> <= <rhs>", terms "q*Name" with
# q a decimal rational ("2", "1/2", "0.25"), "#" starts a comment.  Names on
# the left are rate variables, names on the right are atoms.
# ---------------------------------------------------------------------------


class SystemParseError(ValueError):
    def __init__(self, message, line=None, column=None):
        self.line, self.column = line, column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


def _parse_terms(text: str, lineno: int, offset: int):
    """Split on top-level +/- and parse each term as [q*]Name or bare q."""
    terms: dict[str, Fraction] = {}
    const = ZERO
    depth = 0
    chunks = []
    cur = ""
    cur_start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise SystemParseError("unbalanced ')'", lineno, offset + i + 1)
        if ch in "+-" and depth == 0 and cur.strip():
            chunks.append((cur, cur_start))
            cur, cur_start = ch, i
        else:
            cur += ch
    if depth != 0:
        raise SystemParseError("unbalanced '('", lineno, offset + len(text))
    if cur.strip():
        chunks.append((cur, cur_start))
    if not chunks:
        raise SystemParseError("empty expression", lineno, offset + 1)
    pending = Q(1)
    dangling = None
    for chunk, start in chunks:
        col = offset + start + 1
        t = chunk.strip()
        sign = pending
        pending = Q(1)
        dangling = None
        while t and t[0] in "+-":
            if t[0] == "-":
                sign = -sign
            t = t[1:].strip()
        if not t:
            # sign-only chunk (e.g. from "a + -b"); carry into the next term
            pending = sign
            dangling = col
            continue
        if "*" in t:
            qs, name = t.split("*", 1)
            qs, name = qs.strip(), name.strip()
            try:
                q = Q(qs)
            except (ValueError, ZeroDivisionError):
                raise SystemParseError(f"bad coefficient {qs!r}", lineno, col) from None
            if not name:
                raise SystemParseError("missing name after '*'", lineno, col)
            terms[name] = terms.get(name, ZERO) + sign * q
        else:
            try:
                const += sign * Q(t)
            except (ValueError, ZeroDivisionError):
                # bare name with implicit coefficient 1
                if any(c.isspace() for c in t):
                    raise SystemParseError(f"malformed term {t!r}", lineno, col) from None
                terms[t] = terms.get(t, ZERO) + sign
    if dangling is not None:
        raise SystemParseError("dangling sign", lineno, dangling)
    return _clean(terms), const


def parse_system(text: str, variables=None) -> ConstraintSystem:
    """Parse the text form.  If `variables` is None the variable set is the
    union of all left-hand-side names, ordered by first appearance."""
    constraints = []
    seen_vars: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if "<=" not in line:
            raise SystemParseError("expected '<='", lineno, len(line) + 1)
        left, right = line.split("<=", 1)
        lhs_terms, lhs_const = _parse_terms(left, lineno, 0)
        rhs_terms, rhs_const = _parse_terms(right, lineno, len(left) + 2)
        for v in lhs_terms:
            if v not in seen_vars:
                seen_vars.append(v)
        rhs = AffineExpr.make(rhs_terms, rhs_const - lhs_const)
        constraints.append(LinearConstraint.make(lhs_terms, rhs))
    var_list = list(variables) if variables is not None else seen_vars
    return ConstraintSystem(var_list, constraints)


def format_system(system: ConstraintSystem, header: str | None = None) -> str:
    lines = []
    if header:
        for h in header.splitlines():
            lines.append(f"# {h}")
    lines.append(f"# variables: {' '.join(system.variables)}")
    for c in system.constraints:
        lines.append(str(c))
    return "\n".join(lines) + "\n"
