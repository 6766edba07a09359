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
from .polytope import (AffineExpr, ConstraintSystem, eliminate_all,
                       resolve_atoms, syntactic_reduce)

__all__ = [
    "RegionSpec",
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
    "scheme1_region",
    "scheme2_region",
    "scheme3_region",
    "corollary4_system",
    "corollary4_region",
    "corollary5_system",
    "corollary5_rate",
    "gcomp_theorem2_system",
    "gcomp_theorem2_region",
    "ddf_p1_system",
    "ddf_p1_region",
    "cutset_region",
    "cutset_symmetric_sumrate",
    "caps_valuation",
    "max_sum_rate",
    "max_single_rate",
    "region_to_json",
    "make_region",
]

Q = Fraction

AUX_VARS = ("U0", "U1", "U2", "V0", "V1", "V2")
RATE_VARS = ("R1", "R2", "Ru0", "Ru1", "Ru2", "Rv0", "Rv1", "Rv2")

SCHEME_IDS = ("GDS-T1", "GDS-I", "GDS-II", "GDS-III", "COR4", "COR5",
              "GCOMP-T2", "DDF-P1", "CUTSET")


@dataclass(frozen=True)
class RegionSpec:
    """Identifier of one rate region family, plus shape parameters."""

    scheme: str
    N: int = 2
    L: int = 2

    def __post_init__(self):
        if self.scheme not in SCHEME_IDS:
            raise ValueError(f"unknown scheme id {self.scheme!r}")
        if self.scheme in ("DDF-P1", "CUTSET"):
            if self.N < 1 or self.L < 1:
                raise ValueError("DDF-P1 and CUTSET need N, L >= 1")
        elif (self.N, self.L) != (2, 2):
            raise ValueError(f"{self.scheme} is fixed to the 2-BS 2-user shape")


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
    idx = (0, 1, 2)
    full = (0, 1, 2)
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
    for omega_u in _subsets_lex(idx):
        if not omega_u:
            continue
        comp = [f"U{i}" for i in idx if i not in omega_u]
        mi = mi_atom([f"U{i}" for i in omega_u], comp + ["Y1"])
        gam = _gamma_or_none(f"U{i}" for i in omega_u)
        sys_.add({f"Ru{i}": 1 for i in omega_u}, _expr([(mi, 1), (gam, 1)]))
    for omega_v in _subsets_lex(idx):
        if not omega_v:
            continue
        comp = [f"V{j}" for j in idx if j not in omega_v]
        mi = mi_atom([f"V{j}" for j in omega_v], comp + ["Y2"])
        gam = _gamma_or_none(f"V{j}" for j in omega_v)
        sys_.add({f"Rv{j}": 1 for j in omega_v}, _expr([(mi, 1), (gam, 1)]))
    g01 = gamma_atom(["U0", "V0", "U1", "V1"])
    g02 = gamma_atom(["U0", "V0", "U2", "V2"])
    g0 = gamma_atom(["U0", "V0"])
    sys_.add({"Ru0": 1, "Ru1": 1, "Rv0": 1, "Rv1": 1},
             _expr([(const_atom("C1"), 1), (const_atom("C12"), 1), (g01, 1)]))
    sys_.add({"Ru0": 1, "Ru2": 1, "Rv0": 1, "Rv2": 1},
             _expr([(const_atom("C2"), 1), (const_atom("C21"), 1), (g02, 1)]))
    sys_.add({f"Ru{i}": 1 for i in idx} | {f"Rv{j}": 1 for j in idx},
             _expr([(const_atom("C1"), 1), (const_atom("C2"), 1),
                    (g01, 1), (g02, 1), (g0, -1)]))
    return sys_


@dataclass(frozen=True)
class Substitution:
    """Restriction of the full G-DS system to one corollary's structure.

    degenerate:  auxiliary variables forced constant (dropped from atoms)
    zero_rates:  auxiliary-rate variables pinned to zero
    rename:      variable renames applied inside atoms
    zero_consts: capacity constants pinned to zero
    zero_gamma:  drop every total-correlation atom (mutually independent
                 auxiliaries)
    drop_vars:   additional rate variables pinned to zero (e.g. R2 for the
                 single-user topology)
    eliminate:   auxiliary rates to project out afterwards
    """

    name: str
    degenerate: frozenset = frozenset()
    zero_rates: frozenset = frozenset()
    rename: tuple = ()
    zero_consts: frozenset = frozenset()
    zero_gamma: bool = False
    drop_vars: frozenset = frozenset()
    eliminate: tuple = ()


SUBSTITUTIONS = {
    "scheme-I": Substitution(
        name="scheme-I",
        degenerate=frozenset({"U1", "V1", "U2", "V2"}),
        zero_rates=frozenset({"Ru1", "Rv1", "Ru2", "Rv2"}),
        eliminate=("Ru0", "Rv0")),
    "scheme-II": Substitution(
        name="scheme-II",
        zero_gamma=True,
        eliminate=("Ru0", "Ru1", "Ru2", "Rv0", "Rv1", "Rv2")),
    "scheme-III": Substitution(
        name="scheme-III",
        degenerate=frozenset({"U0", "V0"}),
        zero_rates=frozenset({"Ru0", "Rv0"}),
        eliminate=("Ru1", "Ru2", "Rv1", "Rv2")),
    "cor4": Substitution(
        name="cor4",
        degenerate=frozenset({"U0", "U2", "V0", "V2"}),
        zero_rates=frozenset({"Ru0", "Ru2", "Rv0", "Rv2"}),
        rename=(("U1", "U"), ("V1", "V")),
        zero_consts=frozenset({"C2", "C12", "C21"}),
        eliminate=("Ru1", "Rv1")),
    "cor5": Substitution(
        name="cor5",
        degenerate=frozenset({"V0", "V1", "V2"}),
        zero_rates=frozenset({"Rv0", "Rv1", "Rv2"}),
        rename=(("U0", "U"), ("U1", "X1"), ("U2", "X2")),
        drop_vars=frozenset({"R2"}),
        eliminate=("Ru0", "Ru1", "Ru2")),
}


def apply_substitution(system: ConstraintSystem, sub: Substitution) -> ConstraintSystem:
    """Specialize a symbolic system: zero rates, rewrite or drop atoms."""
    rename = dict(sub.rename)
    dropped_rates = sub.zero_rates | sub.drop_vars
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
                valuation: dict[str, float] | None = None,
                max_constraints: int = 100_000) -> ConstraintSystem:
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
    projected = eliminate_all(specialized, list(sub.eliminate),
                              max_constraints=max_constraints, greedy=True)
    return syntactic_reduce(projected)


# ---------------------------------------------------------------------------
# Explicit corollary regions (2-BS 2-user)
# ---------------------------------------------------------------------------


def _system_r1r2(rows) -> ConstraintSystem:
    sys_ = ConstraintSystem(["R1", "R2"])
    for lhs, expr in rows:
        sys_.add(lhs, expr)
    return sys_


def corollary1_system() -> ConstraintSystem:
    """Common-codewords-only region: Marton-style bounds plus the three
    fronthaul budget combinations."""
    iu = mi_atom(["U0"], ["Y1"])
    iv = mi_atom(["V0"], ["Y2"])
    iuv = mi_atom(["U0"], ["V0"])
    c1, c2 = const_atom("C1"), const_atom("C2")
    c12, c21 = const_atom("C12"), const_atom("C21")
    return _system_r1r2([
        ({"R1": 1}, _expr([(iu, 1)])),
        ({"R2": 1}, _expr([(iv, 1)])),
        ({"R1": 1, "R2": 1}, _expr([(iu, 1), (iv, 1), (iuv, -1)])),
        ({"R1": 1, "R2": 1}, _expr([(c1, 1), (c12, 1)])),
        ({"R1": 1, "R2": 1}, _expr([(c2, 1), (c21, 1)])),
        ({"R1": 1, "R2": 1}, _expr([(c1, 1), (c2, 1)])),
    ])


def corollary2_system() -> ConstraintSystem:
    """Independent-codewords region (rate splitting with private and common
    parts; linear-beamforming-style correlation structure)."""
    c1, c2 = const_atom("C1"), const_atom("C2")
    c12, c21 = const_atom("C12"), const_atom("C21")
    iu2 = mi_atom(["U2"], ["Y1"], ["U0", "U1"])
    iu1 = mi_atom(["U1"], ["Y1"], ["U0", "U2"])
    iu_all = mi_atom(["U0", "U1", "U2"], ["Y1"])
    iv2 = mi_atom(["V2"], ["Y2"], ["V0", "V1"])
    iv1 = mi_atom(["V1"], ["Y2"], ["V0", "V2"])
    iv_all = mi_atom(["V0", "V1", "V2"], ["Y2"])
    iu12 = mi_atom(["U1", "U2"], ["Y1"], ["U0"])
    iv12 = mi_atom(["V1", "V2"], ["Y2"], ["V0"])
    caps = [(c1, 1), (c2, 1), (c12, 1), (c21, 1)]
    return _system_r1r2([
        ({"R1": 1}, _expr([(c1, 1), (c12, 1), (iu2, 1)])),
        ({"R1": 1}, _expr([(c2, 1), (c21, 1), (iu1, 1)])),
        ({"R1": 1}, _expr([(iu_all, 1)])),
        ({"R2": 1}, _expr([(c1, 1), (c12, 1), (iv2, 1)])),
        ({"R2": 1}, _expr([(c2, 1), (c21, 1), (iv1, 1)])),
        ({"R2": 1}, _expr([(iv_all, 1)])),
        ({"R1": 1, "R2": 1}, _expr([(c1, 1), (c2, 1)])),
        ({"R1": 1, "R2": 1}, _expr([(c1, 1), (c12, 1), (iu2, 1), (iv2, 1)])),
        ({"R1": 1, "R2": 1}, _expr([(c2, 1), (c21, 1), (iu1, 1), (iv1, 1)])),
        ({"R1": 1, "R2": 2}, _expr(caps + [(iv12, 1)])),
        ({"R1": 2, "R2": 1}, _expr(caps + [(iu12, 1)])),
        ({"R1": 2, "R2": 2}, _expr(caps + [(iu12, 1), (iv12, 1)])),
    ])


def corollary3_system() -> ConstraintSystem:
    """Private-codewords-only region (fully correlated Marton pairs)."""
    c1, c2 = const_atom("C1"), const_atom("C2")
    c12, c21 = const_atom("C12"), const_atom("C21")
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
        ({"R1": 1}, _expr([(c1, 1), (c12, 1), (u2_u1y1, 1), (u2_u1v1, -1)])),
        ({"R1": 1}, _expr([(c2, 1), (c21, 1), (u1_u2y1, 1), (u1_u2v2, -1)])),
        ({"R1": 1}, _expr([(u12_y1, 1)])),
        ({"R1": 1}, _expr([(u12_y1, 1), (v1_v2y2, 1), (v1_u12, -1)])),
        ({"R1": 1}, _expr([(u12_y1, 1), (v2_v1y2, 1), (v2_u12, -1)])),
        ({"R2": 1}, _expr([(c1, 1), (c12, 1), (v2_v1y2, 1), (v2_u1v1, -1)])),
        ({"R2": 1}, _expr([(c2, 1), (c21, 1), (v1_v2y2, 1), (v1_u2v2, -1)])),
        ({"R2": 1}, _expr([(v12_y2, 1)])),
        ({"R2": 1}, _expr([(v12_y2, 1), (u2_u1y1, 1), (u2_v12, -1)])),
        ({"R2": 1}, _expr([(v12_y2, 1), (u1_u2y1, 1), (u1_v12, -1)])),
        ({"R1": 1, "R2": 1}, _expr([(u12_y1, 1), (v12_y2, 1), (u12_v12, -1)])),
        ({"R1": 1, "R2": 1}, _expr([(c1, 1), (c2, 1), (u1v1_u2v2, -1)])),
    ]
    base12 = [(c1, 1), (c12, 1), (u1v1_u2v2, -1)]
    rows += [
        ({"R1": 1, "R2": 1}, _expr(base12 + [(u2_u1y1, 1), (v2_v1y2, 1), (u2v2, -1)])),
        ({"R1": 1, "R2": 1}, _expr(base12 + [(u2_u1y1, 2), (v12_y2, 1),
                                             (u2v1, -1), (u2v2, -1), (v1v2, 1)])),
        ({"R1": 1, "R2": 1}, _expr(base12 + [(u12_y1, 1), (v2_v1y2, 2),
                                             (u1v2, -1), (u2v2, -1), (u1u2, 1)])),
    ]
    base21 = [(c2, 1), (c21, 1), (u1v1_u2v2, -1)]
    rows += [
        ({"R1": 1, "R2": 1}, _expr(base21 + [(u1_u2y1, 1), (v1_v2y2, 1), (u1v1, -1)])),
        ({"R1": 1, "R2": 1}, _expr(base21 + [(u1_u2y1, 2), (v12_y2, 1),
                                             (u1v1, -1), (u1v2, -1), (v1v2, 1)])),
        ({"R1": 1, "R2": 1}, _expr(base21 + [(u12_y1, 1), (v1_v2y2, 2),
                                             (u1v1, -1), (u2v1, -1), (u1u2, 1)])),
    ]
    return _system_r1r2(rows)


def corollary3_side_conditions():
    """Strict pmf conditions under which the private-codewords region holds.

    Each entry (lhs_atom, rhs_atoms) encodes lhs < sum(rhs)."""
    return [
        (mi_atom(["U1"], ["V1"]), (mi_atom(["U1"], ["U2", "Y1"]), mi_atom(["V1"], ["V2", "Y2"]))),
        (mi_atom(["U2"], ["V2"]), (mi_atom(["U2"], ["U1", "Y1"]), mi_atom(["V2"], ["V1", "Y2"]))),
        (mi_atom(["U1"], ["V2"]), (mi_atom(["U1"], ["U2", "Y1"]), mi_atom(["V2"], ["V1", "Y2"]))),
        (mi_atom(["U2"], ["V1"]), (mi_atom(["U2"], ["U1", "Y1"]), mi_atom(["V1"], ["V2", "Y2"]))),
    ]


def corollary3_feasible(valuation: dict[str, float], tol: float = 1e-9) -> bool:
    for lhs, rhs in corollary3_side_conditions():
        if valuation[lhs.name] >= sum(valuation[r.name] for r in rhs) - tol:
            return False
    return True


def _check_atoms(system: ConstraintSystem, valuation: dict[str, float]):
    missing = sorted(system.atoms() - set(valuation))
    if missing:
        raise KeyError(f"valuation missing atoms: {missing}")


def scheme1_region(valuation: dict[str, float]) -> ConstraintSystem:
    sys_ = corollary1_system()
    _check_atoms(sys_, valuation)
    return sys_


def scheme2_region(valuation: dict[str, float]) -> ConstraintSystem:
    sys_ = corollary2_system()
    _check_atoms(sys_, valuation)
    return sys_


def scheme3_region(valuation: dict[str, float], tol: float = 1e-9):
    """Returns (system, feasible).  When the strict side conditions fail the
    parameters are infeasible for this scheme; the system is still returned
    for inspection."""
    sys_ = corollary3_system()
    _check_atoms(sys_, valuation)
    for lhs, _ in corollary3_side_conditions():
        if lhs.name not in valuation:
            raise KeyError(f"valuation missing atoms: [{lhs.name!r}]")
    return sys_, corollary3_feasible(valuation, tol)


def corollary4_system() -> ConstraintSystem:
    """Single-BS two-user region: Marton's inner bound plus the fronthaul
    sum constraint."""
    iu = mi_atom(["U"], ["Y1"])
    iv = mi_atom(["V"], ["Y2"])
    iuv = mi_atom(["U"], ["V"])
    return _system_r1r2([
        ({"R1": 1}, _expr([(iu, 1)])),
        ({"R2": 1}, _expr([(iv, 1)])),
        ({"R1": 1, "R2": 1}, _expr([(iu, 1), (iv, 1), (iuv, -1)])),
        ({"R1": 1, "R2": 1}, _expr([(const_atom("C1"), 1)])),
    ])


def corollary4_region(valuation: dict[str, float]) -> ConstraintSystem:
    sys_ = corollary4_system()
    _check_atoms(sys_, valuation)
    return sys_


def corollary5_system() -> ConstraintSystem:
    """Two-BS single-user (diamond) region over R1 only."""
    c1, c2 = const_atom("C1"), const_atom("C2")
    c12, c21 = const_atom("C12"), const_atom("C21")
    ix1x2_u = mi_atom(["X1"], ["X2"], ["U"])
    ix2_y1 = mi_atom(["X2"], ["Y1"], ["U", "X1"])
    ix1_y1 = mi_atom(["X1"], ["Y1"], ["U", "X2"])
    ix12_y1 = mi_atom(["X1", "X2"], ["Y1"])
    ix12_y1_u = mi_atom(["X1", "X2"], ["Y1"], ["U"])
    sys_ = ConstraintSystem(["R1"])
    sys_.add({"R1": 1}, _expr([(c1, 1), (c2, 1), (ix1x2_u, -1)]))
    sys_.add({"R1": 1}, _expr([(c1, 1), (c12, 1), (ix2_y1, 1)]))
    sys_.add({"R1": 1}, _expr([(c2, 1), (c21, 1), (ix1_y1, 1)]))
    sys_.add({"R1": 1}, _expr([(ix12_y1, 1)]))
    half = Q(1, 2)
    sys_.add({"R1": 1}, _expr([(c1, half), (c2, half), (c12, half), (c21, half),
                               (ix12_y1_u, half), (ix1x2_u, -half)]))
    return sys_


def corollary5_rate(valuation: dict[str, float]) -> float:
    """Largest single-user rate: the minimum of the five cut expressions."""
    sys_ = corollary5_system()
    _check_atoms(sys_, valuation)
    return max_single_rate(sys_, valuation)


# ---------------------------------------------------------------------------
# G-Compression region (Theorem-2 family)
# ---------------------------------------------------------------------------


def gcomp_theorem2_system() -> ConstraintSystem:
    """Cloud-center compression region over (R1, R2); the min-expressions of
    the closed form are expanded into one constraint per branch."""
    c1, c2 = const_atom("C1"), const_atom("C2")
    c12, c21 = const_atom("C12"), const_atom("C21")
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
    caps = [(c1, 1), (c2, 1), (c12, 1), (c21, 1)]
    return _system_r1r2([
        ({"R1": 1}, _expr([(i1, 1)])),
        ({"R1": 1}, _expr([(i1, 1), (c1, 1), (c12, 1), (u1_x01, -1)])),
        ({"R1": 1}, _expr([(i1, 1), (c2, 1), (c21, 1), (u1_x02, -1)])),
        ({"R2": 1}, _expr([(i2, 1)])),
        ({"R2": 1}, _expr([(i2, 1), (c1, 1), (c12, 1), (u2_x01, -1)])),
        ({"R2": 1}, _expr([(i2, 1), (c2, 1), (c21, 1), (u2_x02, -1)])),
        ({"R1": 1, "R2": 1}, _expr(marton)),
        ({"R1": 1, "R2": 1}, _expr(marton + [(c1, 1), (c12, 1), (uu_x01, -1)])),
        ({"R1": 1, "R2": 1}, _expr(marton + [(c2, 1), (c21, 1), (uu_x02, -1)])),
        ({"R1": 1, "R2": 1}, _expr(marton + [(c1, 1), (c2, 1), (uu_x012, -1), (x1x2_x0, -1)])),
        ({"R1": 2, "R2": 1}, _expr(marton + caps + [(uu_x012, -1), (x1x2_x0, -1),
                                                    (i1, 1), (u1_x0, -1)])),
        ({"R1": 1, "R2": 2}, _expr(marton + caps + [(uu_x012, -1), (x1x2_x0, -1),
                                                    (i2, 1), (u2_x0, -1)])),
        ({"R1": 2, "R2": 2}, _expr(marton + marton + caps + [(uu_x012, -1), (x1x2_x0, -1),
                                                             (uu_x0, -1)])),
    ])


def gcomp_theorem2_region(valuation: dict[str, float]) -> ConstraintSystem:
    sys_ = gcomp_theorem2_system()
    _check_atoms(sys_, valuation)
    return sys_


# ---------------------------------------------------------------------------
# Distributed decode-forward region for general N-BS L-user networks
# ---------------------------------------------------------------------------


def _cap_name(k: int, j: int | None = None) -> str:
    if j is None:
        return f"C{k}"
    return f"C{k}{j}"


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
            pairs += [(const_atom(_cap_name(k)), 1) for k in s_c]
            pairs += [(const_atom(_cap_name(k, j)), 1) for j in s for k in s_c]
            gam = _gamma_or_none([f"X{k}" for k in s_c] + [f"U{l}" for l in d])
            pairs.append((gam, -1))
            sys_.add({f"R{l}": 1 for l in d}, _expr(pairs))
    return sys_


def caps_valuation(network: CranNetwork) -> dict[str, float]:
    """Capacity constants of a network as an atom valuation fragment."""
    out: dict[str, float] = {}
    for k in range(1, network.N + 1):
        out[_cap_name(k)] = float(network.C[k - 1])
        for j in range(1, network.N + 1):
            if j != k:
                out[_cap_name(k, j)] = float(network.Ccoop[k - 1][j - 1])
    return out


def ddf_p1_region(network: CranNetwork, valuation: dict[str, float],
                  N: int | None = None, L: int | None = None):
    """DDF region with capacities taken from `network`; returns the system
    and the merged valuation covering all its atoms."""
    N = network.N if N is None else N
    L = network.L if L is None else L
    sys_ = ddf_p1_system(N, L)
    merged = dict(valuation)
    merged.update(caps_valuation(network))
    _check_atoms(sys_, merged)
    return sys_, merged


# ---------------------------------------------------------------------------
# Cut-set outer bound (Gaussian)
# ---------------------------------------------------------------------------


def cutset_region(network: CranNetwork, K: JointCovariance) -> ConstraintSystem:
    """Cut-set bound for a Gaussian input law: one numeric constraint per
    (S, nonempty D) pair."""
    names = [f"X{k}" for k in range(1, network.N + 1)]
    if set(K.names) != set(names) or K.matrix.shape != (network.N, network.N):
        raise ValueError(f"K must cover scalar components {names}")
    diag = np.diag(K.block(names))
    if np.any(diag > network.P + 1e-9):
        raise ValueError("input covariance violates the per-BS power constraint")
    caps = caps_valuation(network)
    bss = list(range(1, network.N + 1))
    users = list(range(1, network.L + 1))
    sys_ = ConstraintSystem([f"R{l}" for l in users])
    for s in _subsets_lex(bss):
        s_c = [k for k in bss if k not in s]
        cap_term = sum(caps[_cap_name(k)] for k in s_c)
        cap_term += sum(caps[_cap_name(k, j)] for j in s for k in s_c)
        for d in _subsets_lex(users):
            if not d:
                continue
            if s:
                k_cond = schur_conditional(K, [f"X{k}" for k in s], [f"X{k}" for k in s_c])
                signal = capacity_logdet(network.G_cut(d, s), k_cond.matrix)
            else:
                signal = 0.0
            sys_.add({f"R{l}": 1 for l in d}, AffineExpr.constant(Q(cap_term + signal)))
    return sys_


def cutset_symmetric_sumrate(C: float, rsum_star: float) -> float:
    """Sum-rate cut-set reference for the symmetric instance: min(2C, R*)."""
    return min(2.0 * C, rsum_star)


# ---------------------------------------------------------------------------
# Region utilities
# ---------------------------------------------------------------------------


class _SumSegment:
    """Feasibility oracle for segments {(s, t-s) : 0 <= s <= t} of A x <= b.

    Each constraint restricts s to one linear interval; the slopes are
    precomputed, and the per-t work is plain scalar arithmetic (constraint
    counts here are tiny, so this beats array operations)."""

    def __init__(self, A: np.ndarray, b: np.ndarray, tol: float):
        self.tol = tol
        self.flat = []   # (a2, b): require b - a2*t >= -tol
        self.pos = []    # (1/coeff, a2, b): s <= (b - a2*t + tol)/coeff
        self.neg = []
        for (a1, a2), bi in zip(A.tolist(), b.tolist()):
            coeff = a1 - a2
            if abs(coeff) <= 1e-15:
                self.flat.append((a2, bi))
            elif coeff > 0:
                self.pos.append((1.0 / coeff, a2, bi))
            else:
                self.neg.append((1.0 / coeff, a2, bi))

    def feasible(self, t: float) -> bool:
        tol = self.tol
        for a2, bi in self.flat:
            if bi - a2 * t < -tol:
                return False
        hi = t
        for inv, a2, bi in self.pos:
            v = (bi - a2 * t + tol) * inv
            if v < hi:
                hi = v
        lo = 0.0
        for inv, a2, bi in self.neg:
            v = (bi - a2 * t - tol) * inv
            if v > lo:
                lo = v
        return lo <= hi + tol


def max_sum_rate(system: ConstraintSystem, valuation: dict[str, float],
                 tol: float = 1e-9, precision: float = 1e-7) -> float:
    """Maximum of R1+R2 over a two-variable region intersected with the
    nonnegative quadrant, by bisection on the sum value with an exact
    feasibility test on each R1+R2 = t segment.

    Returns 0.0 when the region is empty (infeasible parameters achieve
    nothing) or undefined: a right-hand side of inf - inf is NaN.
    """
    if len(system.variables) != 2:
        raise ValueError("max_sum_rate expects a two-variable system")
    if not system.constraints:
        raise ValueError("refusing to maximize over an unconstrained region")
    A, b = system.numeric(valuation)
    if np.isnan(b).any():
        return 0.0
    seg = _SumSegment(A, b, tol)
    if not seg.feasible(0.0):
        return 0.0
    hi = 1.0
    for _ in range(80):
        if not seg.feasible(hi):
            break
        hi *= 2.0
    else:
        raise ValueError("region is unbounded in the sum direction")
    lo = 0.0
    while hi - lo > precision * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if seg.feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def max_single_rate(system: ConstraintSystem, valuation: dict[str, float],
                    tol: float = 1e-9) -> float:
    """Maximum of the single variable of a 1-D region (0.0 when empty, or
    undefined by a NaN right-hand side)."""
    if len(system.variables) != 1:
        raise ValueError("max_single_rate expects a one-variable system")
    best = np.inf
    for c in system.constraints:
        coeff = c.coeff(system.variables[0])
        rhs = c.rhs.value(valuation)
        if np.isnan(rhs):
            return 0.0
        if coeff == 0:
            if rhs < -tol:
                return 0.0
        elif coeff > 0:
            best = min(best, rhs / float(coeff))
    if not np.isfinite(best):
        raise ValueError("region is unbounded")
    return max(0.0, best)


def region_to_json(system: ConstraintSystem, valuation: dict[str, float] | None = None):
    """JSON-friendly export; adds resolved numeric right-hand sides when a
    valuation is supplied."""
    rows = []
    for c in system.constraints:
        row = {
            "lhs": {k: float(v) for k, v in c.lhs},
            "rhs": str(c.rhs),
        }
        if valuation is not None:
            row["rhs_value"] = c.rhs.value(valuation)
        rows.append(row)
    return {"variables": list(system.variables), "constraints": rows}


def make_region(spec: RegionSpec) -> ConstraintSystem:
    """Symbolic constraint system for a region identifier (CUTSET excluded:
    it is tied to a concrete network and input covariance)."""
    if spec.scheme == "GDS-T1":
        return gds_theorem1_system()
    if spec.scheme == "GDS-I":
        return corollary1_system()
    if spec.scheme == "GDS-II":
        return corollary2_system()
    if spec.scheme == "GDS-III":
        return corollary3_system()
    if spec.scheme == "COR4":
        return corollary4_system()
    if spec.scheme == "COR5":
        return corollary5_system()
    if spec.scheme == "GCOMP-T2":
        return gcomp_theorem2_system()
    if spec.scheme == "DDF-P1":
        return ddf_p1_system(spec.N, spec.L)
    raise ValueError(f"{spec.scheme} requires a network instance; use cutset_region")
