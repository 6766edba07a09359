"""Constraint-system generators for every rate region and bound in scope.

All generators emit symbolic systems: rate variables on the left, exact
rational combinations of information atoms on the right.  A system becomes
a concrete region only when paired with an atom valuation (from a discrete
pmf, a Gaussian covariance, or by hand), which keeps one generator usable
for both channel families.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations

import numpy as np

from .atoms import GAMMA, AtomSpec, const_atom, gamma_atom, mi_atom, parse_atom, rewrite_atom
from .gaussian import CranNetwork, JointCovariance, capacity_logdet, schur_conditional
from .polytope import (AffineExpr, CompiledSystem, ConstraintSystem,
                       eliminate_all, resolve_atoms, syntactic_reduce)

__all__ = [
    "SCHEME_IDS",
    "Substitution",
    "SUBSTITUTIONS",
    "gds_theorem1_system",
    "apply_substitution",
    "gds_project",
    "corollary1_system",
    "corollary2_system",
    "corollary3_system",
    "corollary3_side_conditions",
    "corollary3_feasible",
    "corollary3_gated_system",
    "corollary4_system",
    "corollary5_system",
    "gcomp_theorem2_system",
    "ddf_p1_system",
    "cutset_region",
    "cut_capacity",
    "CompiledRegion",
    "max_sum_rate",
    "region_to_json",
    "make_region",
]

Q = Fraction

RATE_VARS = ("R1", "R2", "Ru0", "Ru1", "Ru2", "Rv0", "Rv1", "Rv2")

SCHEME_IDS = ("GDS-T1", "GDS-I", "GDS-II", "GDS-III", "COR4", "COR5",
              "GCOMP-T2", "DDF-P1", "CUTSET")


# slack within which a region counts as nonempty, and a side condition as met
_TOL = 1e-9

# the fronthaul and cooperation capacities of the 2-BS regions
C1, C2, C12, C21 = (const_atom(n) for n in ("C1", "C2", "C12", "C21"))


def _subsets_lex(items):
    """All subsets as sorted tuples, in lexicographic order ((), (a,), (a,b), ...)."""
    items = sorted(items)
    subs = chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))
    return sorted(subs)


def _expr(pairs=None, const=0) -> AffineExpr:
    """Affine expression from (AtomSpec-or-None, coeff) pairs; None terms vanish."""
    terms: dict[str, Fraction] = {}
    for spec, coeff in (pairs or []):
        if spec is None:
            continue
        name = spec.name if isinstance(spec, AtomSpec) else str(spec)
        terms[name] = terms.get(name, Q(0)) + Q(coeff)
    return AffineExpr.make(terms, const)


def _gamma_or_none(names) -> AtomSpec | None:
    names = sorted(set(names))
    return gamma_atom(names) if len(names) >= 2 else None


# ---------------------------------------------------------------------------
# G-DS scheme: full multicoding system and its projections
# ---------------------------------------------------------------------------


def gds_theorem1_system() -> ConstraintSystem:
    """Full G-DS constraint system over rate and auxiliary-rate variables.

    Emits, in closure form:
      * the covering family over all (Omega_u, Omega_v) with
        |Omega_u|+|Omega_v| >= 2, with R1 (R2) on the left exactly when
        Omega_u (Omega_v) is the full index set {0,1,2};
      * the two packing families over nonempty Omega_u and Omega_v;
      * the three fronthaul/cooperation budget constraints.
    """
    sys_ = ConstraintSystem(list(RATE_VARS))
    idx = full = (0, 1, 2)
    for omega_u in _subsets_lex(idx):
        for omega_v in _subsets_lex(idx):
            if len(omega_u) + len(omega_v) < 2:
                continue
            lhs: dict[str, int] = {}
            if omega_u == full:
                lhs["R1"] = 1
            if omega_v == full:
                lhs["R2"] = 1
            for i in omega_u:
                lhs[f"Ru{i}"] = lhs.get(f"Ru{i}", 0) - 1
            for j in omega_v:
                lhs[f"Rv{j}"] = lhs.get(f"Rv{j}", 0) - 1
            gam = _gamma_or_none([f"U{i}" for i in omega_u] + [f"V{j}" for j in omega_v])
            sys_.add(lhs, _expr([(gam, -1)]))
    for a, y in (("U", "Y1"), ("V", "Y2")):  # the packing families
        for omega in _subsets_lex(idx)[1:]:
            names = [f"{a}{i}" for i in omega]
            mi = mi_atom(names, [f"{a}{i}" for i in idx if i not in omega] + [y])
            sys_.add({f"R{a.lower()}{i}": 1 for i in omega},
                     _expr([(mi, 1), (_gamma_or_none(names), 1)]))
    g01 = gamma_atom(["U0", "V0", "U1", "V1"])
    g02 = gamma_atom(["U0", "V0", "U2", "V2"])
    g0 = gamma_atom(["U0", "V0"])
    sys_.add({"Ru0": 1, "Ru1": 1, "Rv0": 1, "Rv1": 1}, _expr([(C1, 1), (C12, 1), (g01, 1)]))
    sys_.add({"Ru0": 1, "Ru2": 1, "Rv0": 1, "Rv2": 1}, _expr([(C2, 1), (C21, 1), (g02, 1)]))
    sys_.add({f"Ru{i}": 1 for i in idx} | {f"Rv{j}": 1 for j in idx},
             _expr([(C1, 1), (C2, 1), (g01, 1), (g02, 1), (g0, -1)]))
    return sys_


# the auxiliaries whose degeneracy pins each rate to zero
_RATE_AUX = {"R1": frozenset({"U0", "U1", "U2"}), "R2": frozenset({"V0", "V1", "V2"})}
_RATE_AUX.update({f"R{a.lower()}{i}": frozenset({f"{a}{i}"}) for a in "UV" for i in range(3)})


@dataclass(frozen=True)
class Substitution:
    """Restriction of the full G-DS system to one corollary's structure.

    degenerate:  auxiliary variables forced constant (dropped from atoms)
    rename:      variable renames applied inside atoms
    zero_consts: capacity constants pinned to zero
    zero_gamma:  drop every total-correlation atom (mutually independent
                 auxiliaries)

    The rates it pins to zero and the auxiliary rates it projects out
    follow from `degenerate`.
    """

    name: str
    degenerate: frozenset = frozenset()
    rename: tuple = ()
    zero_consts: frozenset = frozenset()
    zero_gamma: bool = False

    @property
    def zero_rates(self) -> tuple[str, ...]:
        """Rates pinned to zero, in `RATE_VARS` order: Rui (Rvj) for each
        degenerate Ui (Vj), and R1 (R2) once all three U (V) are."""
        return tuple(r for r in RATE_VARS if _RATE_AUX[r] <= self.degenerate)

    @property
    def eliminate(self) -> tuple[str, ...]:
        """The remaining auxiliary rates, in `RATE_VARS` order: greedy FME
        breaks ties by list position."""
        return tuple(r for r in RATE_VARS[2:] if r not in self.zero_rates)


SUBSTITUTIONS = {sub.name: sub for sub in (
    Substitution("scheme-I", frozenset({"U1", "V1", "U2", "V2"})),
    Substitution("scheme-II", zero_gamma=True),
    Substitution("scheme-III", frozenset({"U0", "V0"})),
    Substitution("cor4", frozenset({"U0", "U2", "V0", "V2"}), rename=(("U1", "U"), ("V1", "V")),
                 zero_consts=frozenset({"C2", "C12", "C21"})),
    Substitution("cor5", frozenset({"V0", "V1", "V2"}),
                 rename=(("U0", "U"), ("U1", "X1"), ("U2", "X2"))),
)}


def apply_substitution(system: ConstraintSystem, sub: Substitution) -> ConstraintSystem:
    """Specialize a symbolic system: zero rates, rewrite or drop atoms."""
    rename = dict(sub.rename)
    dropped_rates = set(sub.zero_rates)
    keep_vars = [v for v in system.variables if v not in dropped_rates]
    out = ConstraintSystem(keep_vars)
    for c in system.constraints:
        lhs = {k: q for k, q in c.lhs if k not in dropped_rates}
        terms: dict[str, Fraction] = {}
        for name, q in c.rhs.terms:
            spec = parse_atom(name)
            if spec.kind == "const":
                if spec.const_name in sub.zero_consts:
                    continue
                terms[name] = terms.get(name, Q(0)) + q
                continue
            if sub.zero_gamma and spec.kind == GAMMA:
                continue
            new = rewrite_atom(spec, drop=sub.degenerate, rename=rename)
            if new is None:
                continue
            terms[new.name] = terms.get(new.name, Q(0)) + q
        out.add(lhs, AffineExpr.make(terms, c.rhs.const))
    return syntactic_reduce(out)


def gds_project(system: ConstraintSystem, substitution: str | Substitution,
                valuation: dict[str, float] | None = None) -> ConstraintSystem:
    """Apply a named substitution to the full G-DS system and project out the
    remaining auxiliary rates (which are existentially quantified and
    nonnegative).

    Without a valuation the projection is fully symbolic; this is tractable
    for the substitutions that degenerate some auxiliaries but blows past
    the constraint cap for the all-independent one.  With a valuation, atoms
    are first resolved to exact rationals, after which the projection
    dedups aggressively and stays small.
    """
    sub = SUBSTITUTIONS[substitution] if isinstance(substitution, str) else substitution
    specialized = apply_substitution(system, sub)
    if valuation is not None:
        specialized = resolve_atoms(specialized, valuation)
    for r in sub.eliminate:
        specialized.add({r: -1}, AffineExpr.constant(0))
    return eliminate_all(specialized, list(sub.eliminate))


# ---------------------------------------------------------------------------
# Explicit corollary regions (2-BS 2-user)
# ---------------------------------------------------------------------------


def _system(rows, variables=("R1", "R2")) -> ConstraintSystem:
    sys_ = ConstraintSystem(list(variables))
    for lhs, expr in rows:
        sys_.add(lhs, expr)
    return sys_


def corollary1_system() -> ConstraintSystem:
    """Common-codewords-only region: Marton-style bounds plus the three
    fronthaul budget combinations."""
    iu = mi_atom(["U0"], ["Y1"])
    iv = mi_atom(["V0"], ["Y2"])
    iuv = mi_atom(["U0"], ["V0"])
    return _system([
        ({"R1": 1}, _expr([(iu, 1)])),
        ({"R2": 1}, _expr([(iv, 1)])),
        ({"R1": 1, "R2": 1}, _expr([(iu, 1), (iv, 1), (iuv, -1)])),
        ({"R1": 1, "R2": 1}, _expr([(C1, 1), (C12, 1)])),
        ({"R1": 1, "R2": 1}, _expr([(C2, 1), (C21, 1)])),
        ({"R1": 1, "R2": 1}, _expr([(C1, 1), (C2, 1)])),
    ])


def corollary2_system() -> ConstraintSystem:
    """Independent-codewords region (rate splitting with private and common
    parts; linear-beamforming-style correlation structure)."""
    iu2 = mi_atom(["U2"], ["Y1"], ["U0", "U1"])
    iu1 = mi_atom(["U1"], ["Y1"], ["U0", "U2"])
    iu_all = mi_atom(["U0", "U1", "U2"], ["Y1"])
    iv2 = mi_atom(["V2"], ["Y2"], ["V0", "V1"])
    iv1 = mi_atom(["V1"], ["Y2"], ["V0", "V2"])
    iv_all = mi_atom(["V0", "V1", "V2"], ["Y2"])
    iu12 = mi_atom(["U1", "U2"], ["Y1"], ["U0"])
    iv12 = mi_atom(["V1", "V2"], ["Y2"], ["V0"])
    caps = [(C1, 1), (C2, 1), (C12, 1), (C21, 1)]
    return _system([
        ({"R1": 1}, _expr([(C1, 1), (C12, 1), (iu2, 1)])),
        ({"R1": 1}, _expr([(C2, 1), (C21, 1), (iu1, 1)])),
        ({"R1": 1}, _expr([(iu_all, 1)])),
        ({"R2": 1}, _expr([(C1, 1), (C12, 1), (iv2, 1)])),
        ({"R2": 1}, _expr([(C2, 1), (C21, 1), (iv1, 1)])),
        ({"R2": 1}, _expr([(iv_all, 1)])),
        ({"R1": 1, "R2": 1}, _expr([(C1, 1), (C2, 1)])),
        ({"R1": 1, "R2": 1}, _expr([(C1, 1), (C12, 1), (iu2, 1), (iv2, 1)])),
        ({"R1": 1, "R2": 1}, _expr([(C2, 1), (C21, 1), (iu1, 1), (iv1, 1)])),
        ({"R1": 1, "R2": 2}, _expr(caps + [(iv12, 1)])),
        ({"R1": 2, "R2": 1}, _expr(caps + [(iu12, 1)])),
        ({"R1": 2, "R2": 2}, _expr(caps + [(iu12, 1), (iv12, 1)])),
    ])


def corollary3_system() -> ConstraintSystem:
    """Private-codewords-only region (fully correlated Marton pairs)."""
    u2_u1y1 = mi_atom(["U2"], ["U1", "Y1"])
    u1_u2y1 = mi_atom(["U1"], ["U2", "Y1"])
    v2_v1y2 = mi_atom(["V2"], ["V1", "Y2"])
    v1_v2y2 = mi_atom(["V1"], ["V2", "Y2"])
    u12_y1 = mi_atom(["U1", "U2"], ["Y1"])
    v12_y2 = mi_atom(["V1", "V2"], ["Y2"])
    u2_u1v1 = mi_atom(["U2"], ["U1", "V1"])
    u1_u2v2 = mi_atom(["U1"], ["U2", "V2"])
    v2_u1v1 = mi_atom(["V2"], ["U1", "V1"])
    v1_u2v2 = mi_atom(["V1"], ["U2", "V2"])
    v1_u12 = mi_atom(["V1"], ["U1", "U2"])
    v2_u12 = mi_atom(["V2"], ["U1", "U2"])
    u2_v12 = mi_atom(["U2"], ["V1", "V2"])
    u1_v12 = mi_atom(["U1"], ["V1", "V2"])
    u12_v12 = mi_atom(["U1", "U2"], ["V1", "V2"])
    u1v1_u2v2 = mi_atom(["U1", "V1"], ["U2", "V2"])
    u1v1 = mi_atom(["U1"], ["V1"])
    u2v2 = mi_atom(["U2"], ["V2"])
    u1v2 = mi_atom(["U1"], ["V2"])
    u2v1 = mi_atom(["U2"], ["V1"])
    u1u2 = mi_atom(["U1"], ["U2"])
    v1v2 = mi_atom(["V1"], ["V2"])
    rows = [
        ({"R1": 1}, _expr([(C1, 1), (C12, 1), (u2_u1y1, 1), (u2_u1v1, -1)])),
        ({"R1": 1}, _expr([(C2, 1), (C21, 1), (u1_u2y1, 1), (u1_u2v2, -1)])),
        ({"R1": 1}, _expr([(u12_y1, 1)])),
        ({"R1": 1}, _expr([(u12_y1, 1), (v1_v2y2, 1), (v1_u12, -1)])),
        ({"R1": 1}, _expr([(u12_y1, 1), (v2_v1y2, 1), (v2_u12, -1)])),
        ({"R2": 1}, _expr([(C1, 1), (C12, 1), (v2_v1y2, 1), (v2_u1v1, -1)])),
        ({"R2": 1}, _expr([(C2, 1), (C21, 1), (v1_v2y2, 1), (v1_u2v2, -1)])),
        ({"R2": 1}, _expr([(v12_y2, 1)])),
        ({"R2": 1}, _expr([(v12_y2, 1), (u2_u1y1, 1), (u2_v12, -1)])),
        ({"R2": 1}, _expr([(v12_y2, 1), (u1_u2y1, 1), (u1_v12, -1)])),
        ({"R1": 1, "R2": 1}, _expr([(u12_y1, 1), (v12_y2, 1), (u12_v12, -1)])),
        ({"R1": 1, "R2": 1}, _expr([(C1, 1), (C2, 1), (u1v1_u2v2, -1)])),
    ]
    base12 = [(C1, 1), (C12, 1), (u1v1_u2v2, -1)]
    rows += [
        ({"R1": 1, "R2": 1}, _expr(base12 + [(u2_u1y1, 1), (v2_v1y2, 1), (u2v2, -1)])),
        ({"R1": 1, "R2": 1}, _expr(base12 + [(u2_u1y1, 2), (v12_y2, 1),
                                             (u2v1, -1), (u2v2, -1), (v1v2, 1)])),
        ({"R1": 1, "R2": 1}, _expr(base12 + [(u12_y1, 1), (v2_v1y2, 2),
                                             (u1v2, -1), (u2v2, -1), (u1u2, 1)])),
    ]
    base21 = [(C2, 1), (C21, 1), (u1v1_u2v2, -1)]
    rows += [
        ({"R1": 1, "R2": 1}, _expr(base21 + [(u1_u2y1, 1), (v1_v2y2, 1), (u1v1, -1)])),
        ({"R1": 1, "R2": 1}, _expr(base21 + [(u1_u2y1, 2), (v12_y2, 1),
                                             (u1v1, -1), (u1v2, -1), (v1v2, 1)])),
        ({"R1": 1, "R2": 1}, _expr(base21 + [(u12_y1, 1), (v1_v2y2, 2),
                                             (u1v1, -1), (u2v1, -1), (u1u2, 1)])),
    ]
    return _system(rows)


_COROLLARY3_SIDE = (
    (mi_atom(["U1"], ["V1"]), (mi_atom(["U1"], ["U2", "Y1"]), mi_atom(["V1"], ["V2", "Y2"]))),
    (mi_atom(["U2"], ["V2"]), (mi_atom(["U2"], ["U1", "Y1"]), mi_atom(["V2"], ["V1", "Y2"]))),
    (mi_atom(["U1"], ["V2"]), (mi_atom(["U1"], ["U2", "Y1"]), mi_atom(["V2"], ["V1", "Y2"]))),
    (mi_atom(["U2"], ["V1"]), (mi_atom(["U2"], ["U1", "Y1"]), mi_atom(["V1"], ["V2", "Y2"]))),
)


def corollary3_side_conditions():
    """Strict pmf conditions under which the private-codewords region holds.

    Each entry (lhs_atom, rhs_atoms) encodes lhs < sum(rhs).  The tuple is
    built once, at import."""
    return _COROLLARY3_SIDE


def corollary3_gated_system() -> ConstraintSystem:
    """`corollary3_system` plus each strict side condition lhs < sum(rhs) as
    the rate-free row 0 <= sum(rhs) - lhs - 2e-9.  `max_sum_rate` reads a
    row below -1e-9 as an empty region, so the sum rate is 0.0 exactly where
    `corollary3_feasible` fails, except at a tie lhs = sum(rhs) - 1e-9,
    which the row lets pass."""
    system = corollary3_system()
    for lhs, rhs in _COROLLARY3_SIDE:
        system.add({}, _expr([(r, 1) for r in rhs] + [(lhs, -1)], -2 * Q(_TOL)))
    return system


def corollary3_feasible(valuation: dict[str, float]) -> bool:
    """True iff every strict side condition holds with margin 1e-9.  A NaN
    side (inf - inf) fails its comparison, so the scheme is infeasible."""
    for lhs, rhs in _COROLLARY3_SIDE:
        if not valuation[lhs.name] < sum(valuation[r.name] for r in rhs) - _TOL:
            return False
    return True


def corollary4_system() -> ConstraintSystem:
    """Single-BS two-user region: Marton's inner bound plus the fronthaul
    sum constraint."""
    iu = mi_atom(["U"], ["Y1"])
    iv = mi_atom(["V"], ["Y2"])
    iuv = mi_atom(["U"], ["V"])
    return _system([
        ({"R1": 1}, _expr([(iu, 1)])),
        ({"R2": 1}, _expr([(iv, 1)])),
        ({"R1": 1, "R2": 1}, _expr([(iu, 1), (iv, 1), (iuv, -1)])),
        ({"R1": 1, "R2": 1}, _expr([(C1, 1)])),
    ])


def corollary5_system() -> ConstraintSystem:
    """Two-BS single-user (diamond) region over R1 only."""
    ix1x2_u = mi_atom(["X1"], ["X2"], ["U"])
    ix2_y1 = mi_atom(["X2"], ["Y1"], ["U", "X1"])
    ix1_y1 = mi_atom(["X1"], ["Y1"], ["U", "X2"])
    ix12_y1 = mi_atom(["X1", "X2"], ["Y1"])
    ix12_y1_u = mi_atom(["X1", "X2"], ["Y1"], ["U"])
    half = Q(1, 2)
    return _system([
        ({"R1": 1}, _expr([(C1, 1), (C2, 1), (ix1x2_u, -1)])),
        ({"R1": 1}, _expr([(C1, 1), (C12, 1), (ix2_y1, 1)])),
        ({"R1": 1}, _expr([(C2, 1), (C21, 1), (ix1_y1, 1)])),
        ({"R1": 1}, _expr([(ix12_y1, 1)])),
        ({"R1": 1}, _expr([(C1, half), (C2, half), (C12, half), (C21, half),
                           (ix12_y1_u, half), (ix1x2_u, -half)])),
    ], variables=("R1",))


# ---------------------------------------------------------------------------
# G-Compression region (Theorem-2 family)
# ---------------------------------------------------------------------------


def gcomp_theorem2_system() -> ConstraintSystem:
    """Cloud-center compression region over (R1, R2); the min-expressions of
    the closed form are expanded into one constraint per branch."""
    i1 = mi_atom(["U1"], ["Y1"])
    i2 = mi_atom(["U2"], ["Y2"])
    i12 = mi_atom(["U1"], ["U2"])
    u1_x01 = mi_atom(["U1"], ["X0", "X1"])
    u1_x02 = mi_atom(["U1"], ["X0", "X2"])
    u2_x01 = mi_atom(["U2"], ["X0", "X1"])
    u2_x02 = mi_atom(["U2"], ["X0", "X2"])
    uu_x01 = mi_atom(["U1", "U2"], ["X0", "X1"])
    uu_x02 = mi_atom(["U1", "U2"], ["X0", "X2"])
    uu_x012 = mi_atom(["U1", "U2"], ["X0", "X1", "X2"])
    x1x2_x0 = mi_atom(["X1"], ["X2"], ["X0"])
    u1_x0 = mi_atom(["U1"], ["X0"])
    u2_x0 = mi_atom(["U2"], ["X0"])
    uu_x0 = mi_atom(["U1", "U2"], ["X0"])
    marton = [(i1, 1), (i2, 1), (i12, -1)]
    caps = [(C1, 1), (C2, 1), (C12, 1), (C21, 1)]
    return _system([
        ({"R1": 1}, _expr([(i1, 1)])),
        ({"R1": 1}, _expr([(i1, 1), (C1, 1), (C12, 1), (u1_x01, -1)])),
        ({"R1": 1}, _expr([(i1, 1), (C2, 1), (C21, 1), (u1_x02, -1)])),
        ({"R2": 1}, _expr([(i2, 1)])),
        ({"R2": 1}, _expr([(i2, 1), (C1, 1), (C12, 1), (u2_x01, -1)])),
        ({"R2": 1}, _expr([(i2, 1), (C2, 1), (C21, 1), (u2_x02, -1)])),
        ({"R1": 1, "R2": 1}, _expr(marton)),
        ({"R1": 1, "R2": 1}, _expr(marton + [(C1, 1), (C12, 1), (uu_x01, -1)])),
        ({"R1": 1, "R2": 1}, _expr(marton + [(C2, 1), (C21, 1), (uu_x02, -1)])),
        ({"R1": 1, "R2": 1}, _expr(marton + [(C1, 1), (C2, 1), (uu_x012, -1), (x1x2_x0, -1)])),
        ({"R1": 2, "R2": 1}, _expr(marton + caps + [(uu_x012, -1), (x1x2_x0, -1),
                                                    (i1, 1), (u1_x0, -1)])),
        ({"R1": 1, "R2": 2}, _expr(marton + caps + [(uu_x012, -1), (x1x2_x0, -1),
                                                    (i2, 1), (u2_x0, -1)])),
        ({"R1": 2, "R2": 2}, _expr(marton + marton + caps + [(uu_x012, -1), (x1x2_x0, -1),
                                                             (uu_x0, -1)])),
    ])


# ---------------------------------------------------------------------------
# Distributed decode-forward region for general N-BS L-user networks
# ---------------------------------------------------------------------------


def ddf_p1_system(N: int = 2, L: int = 2) -> ConstraintSystem:
    """Refined decode-forward region: one constraint per cut (S, D),
    S over base stations and D a nonempty user subset."""
    if N < 1 or L < 1:
        raise ValueError("need N, L >= 1")
    if N > 9 or L > 9:
        raise ValueError("capacity atom naming supports at most 9 BSs/users")
    sys_ = ConstraintSystem([f"R{l}" for l in range(1, L + 1)])
    bss = list(range(1, N + 1))
    users = list(range(1, L + 1))
    for s in _subsets_lex(bss):
        s_c = [k for k in bss if k not in s]
        for d in _subsets_lex(users):
            if not d:
                continue
            pairs = [(mi_atom([f"U{l}"], [f"Y{l}"]), 1) for l in d]
            pairs += [(const_atom(f"C{k}"), 1) for k in s_c]
            pairs += [(const_atom(f"C{k}{j}"), 1) for j in s for k in s_c]
            gam = _gamma_or_none([f"X{k}" for k in s_c] + [f"U{l}" for l in d])
            pairs.append((gam, -1))
            sys_.add({f"R{l}": 1 for l in d}, _expr(pairs))
    return sys_


# ---------------------------------------------------------------------------
# Cut-set outer bound (Gaussian)
# ---------------------------------------------------------------------------


def cut_capacity(network: CranNetwork, s) -> float:
    """Capacity term of BS cut S: the fronthaul into every BS outside S plus
    every cooperation link from a BS in S into one outside it."""
    s_c = [k for k in range(1, network.N + 1) if k not in s]
    total = sum(float(network.C[k - 1]) for k in s_c)
    return total + sum(float(network.Ccoop[k - 1][j - 1]) for j in s for k in s_c)


def cutset_region(network: CranNetwork, K: JointCovariance) -> ConstraintSystem:
    """Cut-set bound for a Gaussian input law: one numeric constraint per
    (S, nonempty D) pair."""
    names = [f"X{k}" for k in range(1, network.N + 1)]
    if set(K.names) != set(names) or K.matrix.shape != (network.N, network.N):
        raise ValueError(f"K must cover scalar components {names}")
    diag = np.diag(K.block(names))
    if np.any(diag > network.P + 1e-9):
        raise ValueError("input covariance violates the per-BS power constraint")
    bss = list(range(1, network.N + 1))
    users = list(range(1, network.L + 1))
    sys_ = ConstraintSystem([f"R{l}" for l in users])
    for s in _subsets_lex(bss):
        s_c = [k for k in bss if k not in s]
        cap_term = cut_capacity(network, s)
        if s:  # K(S | S^c) depends on S alone
            k_cond = schur_conditional(K, [f"X{k}" for k in s], [f"X{k}" for k in s_c]).matrix
        for d in _subsets_lex(users)[1:]:
            signal = capacity_logdet(network.G_cut(d, s), k_cond) if s else 0.0
            sys_.add({f"R{l}": 1 for l in d}, AffineExpr.constant(Q(cap_term + signal)))
    return sys_


# ---------------------------------------------------------------------------
# Region utilities
# ---------------------------------------------------------------------------


def _max_bound(rows) -> float:
    """Largest t >= 0 with d*t <= e for every (d, e) in `rows`.

    0.0 when no t satisfies every row within 1e-9, or when some e is -inf
    (a row no point meets) or NaN (inf - inf, an undefined region); raises
    ValueError when no row bounds t above."""
    lo, hi = 0.0, np.inf
    for d, e in rows:
        if not e > -np.inf:
            return 0.0
        if d > 0.0:
            v = e / d
            if v < hi:
                hi = v
        elif d < 0.0:
            v = e / d
            if v > lo:
                lo = v
        elif e < -_TOL:
            return 0.0
    if lo > hi + _TOL:
        return 0.0
    if hi == np.inf:
        raise ValueError("region is unbounded")
    return hi if hi > 0.0 else 0.0


class CompiledRegion:
    """A region over one rate R1, or two rates (R1, R2), compiled once for
    `max_sum_rate`.

    With two rates, s = R1 and t = R1 + R2 turn a row a1*R1 + a2*R2 <= b
    into (a1 - a2)*s + a2*t <= b, and R1, R2 >= 0 add the rows -s <= 0 and
    s - t <= 0 with right-hand side 0.  One Fourier-Motzkin step eliminates
    s: rows free of s carry over as `flat` (d, row), and every row with a
    positive s-coefficient pairs with every row with a negative one as
    (d, row, weight, row, weight), the weights summing to 1.  With one rate,
    t = R1 and every row is `flat`.  Pairs and weights follow from the
    exact left-hand sides alone, so they are fixed here and an evaluation
    only combines right-hand sides.  Every row pairs with a quadrant row or
    carries over, so a NaN or -inf reaches the bounds.
    """

    def __init__(self, system: ConstraintSystem):
        if len(system.variables) not in (1, 2):
            raise ValueError("max_sum_rate expects a one- or two-rate system")
        if not system.constraints:
            raise ValueError("refusing to maximize over an unconstrained region")
        self.rows = CompiledSystem(system)
        if len(system.variables) == 1:
            st = [(Q(0), c.coeff(system.variables[0])) for c in system.constraints]
        else:
            r1, r2 = system.variables
            st = [(c.coeff(r1) - c.coeff(r2), c.coeff(r2)) for c in system.constraints]
            st += [(Q(-1), Q(0)), (Q(1), Q(-1))]
        self.flat = [(float(d), i) for i, (c, d) in enumerate(st) if c == 0]
        self.pairs = [(float(wu * du + wl * dl), i, float(wu), j, float(wl))
                      for i, (cu, du) in enumerate(st) if cu > 0
                      for j, (cl, dl) in enumerate(st) if cl < 0
                      for wu, wl in [(-cl / (cu - cl), cu / (cu - cl))]]


def max_sum_rate(region: ConstraintSystem | CompiledRegion, valuation) -> float:
    """Maximum of the rate sum over a one- or two-rate region intersected
    with the nonnegative orthant: one Fourier-Motzkin step (see
    `CompiledRegion`) leaves bounds on the sum t, and the largest feasible
    t is exact up to float rounding.  The valuation is a mapping from atom
    names, or a vector in the order of the compiled `rows.atoms`.

    Returns 0.0 when the region is empty within 1e-9, or undefined: a
    right-hand side of inf - inf is NaN.  A right-hand side of -inf empties
    the region, one of +inf bounds nothing.  Raises ValueError when the
    region is unbounded in the sum direction, and KeyError when the
    valuation misses an atom of the region.
    """
    if not isinstance(region, CompiledRegion):
        region = CompiledRegion(region)
    b = region.rows.rhs(valuation).tolist() + [0.0, 0.0]
    rows = [(d, b[i]) for d, i in region.flat]
    rows += [(d, wu * b[i] + wl * b[j]) for d, i, wu, j, wl in region.pairs]
    return _max_bound(rows)


def region_to_json(system: ConstraintSystem, valuation: dict[str, float] | None = None):
    """JSON-friendly export; adds resolved numeric right-hand sides when a
    valuation is supplied."""
    rows = [{"lhs": {k: float(v) for k, v in c.lhs}, "rhs": str(c.rhs)}
            for c in system.constraints]
    if valuation is not None:
        for row, value in zip(rows, CompiledSystem(system).rhs(valuation).tolist()):
            row["rhs_value"] = value
    return {"variables": list(system.variables), "constraints": rows}


def make_region(scheme: str, N: int = 2, L: int = 2) -> ConstraintSystem:
    """Symbolic constraint system for a region identifier: DDF-P1 for any
    N, L >= 1, the others for 2 BSs and 2 users (CUTSET excluded: it is tied
    to a concrete network and input covariance)."""
    if scheme not in SCHEME_IDS:
        raise ValueError(f"unknown scheme id {scheme!r}")
    if scheme == "DDF-P1":
        return ddf_p1_system(N, L)
    if scheme == "CUTSET":
        raise ValueError(f"{scheme} requires a network instance; use cutset_region")
    if (N, L) != (2, 2):
        raise ValueError(f"{scheme} is fixed to the 2-BS 2-user shape")
    return {"GDS-T1": gds_theorem1_system, "GDS-I": corollary1_system,
            "GDS-II": corollary2_system, "GDS-III": corollary3_system,
            "COR4": corollary4_system, "COR5": corollary5_system,
            "GCOMP-T2": gcomp_theorem2_system}[scheme]()
