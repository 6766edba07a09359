"""Reference Fourier-Motzkin elimination over `Fraction` rows.

This is the straightforward exact implementation that `cranbounds.polytope`
replaced with its integer-row kernel: every candidate row is rebuilt as a
`LinearConstraint`, normalised by rescaling, and deduplicated by its head;
Kohler histories are frozensets of input-row indices.  The property and
golden tests hold the kernel to this oracle's output text, row for row.
`key` and `numeric_feasible` compare and decide systems with it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from cranbounds.polytope import (DEFAULT_FME_CAP, AffineExpr, ConstraintSystem,
                                 FMEBlowupError, LinearConstraint)


def scale(c: LinearConstraint, q: Fraction) -> LinearConstraint:
    if q <= 0:
        raise ValueError("constraints may only be scaled by positive rationals")
    return LinearConstraint.make({k: v * q for k, v in c.lhs},
                                 AffineExpr.make({k: v * q for k, v in c.rhs.terms},
                                                 c.rhs.const * q))


def normalized(c: LinearConstraint) -> LinearConstraint:
    """Scale so the left side (else the atom terms, else the constant)
    becomes a primitive integer vector."""
    for basis in ([v for _, v in c.lhs], [v for _, v in c.rhs.terms], [c.rhs.const]):
        basis = [f for f in basis if f != 0]
        if basis:
            break
    else:
        return c
    lcm = 1
    for f in basis:
        lcm = lcm * f.denominator // gcd(lcm, f.denominator)
    g = 0
    for f in basis:
        g = gcd(g, abs((f * lcm).numerator))
    return scale(c, Fraction(lcm, g))


def key(c: LinearConstraint):
    """Canonical form under positive rescaling: the left-hand side (or, for
    pure atom relations, the atom terms) as a primitive integer vector, then
    the atom terms and the constant."""
    n = normalized(c)
    return (n.lhs, n.rhs.terms, n.rhs.const)


class Reducer:
    """Keeps, per normalised head (lhs plus atom terms), the row with the
    tightest constant; on a tie the newer row wins unless its history is
    longer.  Drops tautologies ``0 <= c`` with c >= 0."""

    def __init__(self):
        self.best: dict[tuple, tuple[LinearConstraint, frozenset | None]] = {}
        self.order: list[tuple] = []

    def add(self, c: LinearConstraint, hist: frozenset | None = None):
        n = normalized(c)
        if not n.lhs and not n.rhs.terms and n.rhs.const >= 0:
            return
        head = (n.lhs, n.rhs.terms)
        old = self.best.get(head)
        if old is None:
            self.order.append(head)
        elif old[0].rhs.const != n.rhs.const:
            if old[0].rhs.const < n.rhs.const:
                return
        elif len(hist or ()) > len(old[1] or ()):
            return
        self.best[head] = (n, hist)

    def __len__(self) -> int:
        return len(self.order)

    def rows(self) -> list[tuple[LinearConstraint, frozenset | None]]:
        return [self.best[h] for h in self.order]


def syntactic_reduce(system: ConstraintSystem) -> ConstraintSystem:
    red = Reducer()
    for c in system.constraints:
        red.add(c)
    return ConstraintSystem(list(system.variables), [c for c, _ in red.rows()])


def _sum(a, b) -> dict[str, Fraction]:
    out = dict(a)
    for k, q in b:
        out[k] = out.get(k, Fraction(0)) + q
    return out


def _check_cap(red: Reducer, var, max_constraints):
    if len(red) > max_constraints:
        raise FMEBlowupError(
            f"eliminating {var!r} produced more than "
            f"{max_constraints} distinct constraints")


def _eliminate(variables, rows, var, max_constraints, max_history):
    """One step; the cap is checked after the carried-over rows and after
    every pairing."""
    uppers, lowers, rest = [], [], []
    for c, hist in rows:
        a = c.coeff(var)
        if a > 0:
            uppers.append((scale(c, 1 / a), hist))
        elif a < 0:
            lowers.append((scale(c, -1 / a), hist))
        else:
            rest.append((c, hist))
    red = Reducer()
    for c, hist in rest:
        red.add(c, hist)
    _check_cap(red, var, max_constraints)
    for up, hu in uppers:
        for lo, hl in lowers:
            # up: var + u(x) <= e_u ; lo: -var + l(x) <= e_l  =>  u+l <= e_u+e_l
            hist = None
            if hu is not None and hl is not None:
                hist = hu | hl
                if max_history is not None and len(hist) > max_history:
                    continue
            red.add(LinearConstraint.make(_sum(up.lhs, lo.lhs),
                                          AffineExpr.make(_sum(up.rhs.terms, lo.rhs.terms),
                                                          up.rhs.const + lo.rhs.const)), hist)
            _check_cap(red, var, max_constraints)
    return [v for v in variables if v != var], red.rows()


def fme_eliminate(system: ConstraintSystem, var: str,
                  max_constraints: int = DEFAULT_FME_CAP) -> ConstraintSystem:
    """One elimination step, no Kohler pruning."""
    if var not in system.variables:
        raise KeyError(f"unknown variable {var!r}")
    variables, rows = _eliminate(system.variables, [(c, None) for c in system.constraints],
                                 var, max_constraints, None)
    return ConstraintSystem(variables, [c for c, _ in rows])


def eliminate_all(system: ConstraintSystem, drop_vars,
                  max_constraints: int = DEFAULT_FME_CAP) -> ConstraintSystem:
    """Greedy (fewest upper*lower pairings) elimination with Kohler's rule:
    after s steps, rows derived from more than s+1 input rows are skipped."""
    remaining = list(drop_vars)
    for v in remaining:
        if v not in system.variables:
            raise KeyError(f"unknown variable {v!r}")
    variables = list(system.variables)
    rows = [(c, frozenset([i])) for i, c in enumerate(system.constraints)]
    step = 0
    while remaining:
        if len(remaining) > 1:
            def cost(v):
                nu = sum(1 for c, _ in rows if c.coeff(v) > 0)
                nl = sum(1 for c, _ in rows if c.coeff(v) < 0)
                return nu * nl - nu - nl
            v = min(remaining, key=cost)
        else:
            v = remaining[0]
        remaining.remove(v)
        step += 1
        variables, rows = _eliminate(variables, rows, v, max_constraints, step + 1)
    return ConstraintSystem(variables, [c for c, _ in rows])


def numeric_feasible(system: ConstraintSystem) -> bool:
    """Feasibility of a fully-resolved system (no atoms) by eliminating all
    variables.  Exact rational arithmetic, so the answer is a certificate,
    not a heuristic."""
    if any(c.rhs.terms for c in system.constraints):
        raise ValueError("numeric_feasible needs a resolved system")
    s = eliminate_all(syntactic_reduce(system), list(system.variables))
    return all(c.rhs.const >= 0 for c in s.constraints)
