"""Gaussian auxiliary constructions, sum-rate optimization, and sweeps.

Every scheme is one linear-Gaussian construction: independent Gaussian
sources S with covariance `base`, auxiliaries and channel inputs W S and
outputs Y = G X S + Z with unit receiver noise.  One table, `_SCHEMES`,
holds each scheme's region, restart-0 start and constant row template W;
`build_joint_cov` states only what varies (`base`, the precoder in W, the
PSD list), then forms the joint covariance, runs the finiteness and PSD
checks on the covariance parameters and the per-BS power check on var(X1),
var(X2).  The Gaussian atom values and the
network's capacities fill one vector in the order of the scheme's compiled
region, whose maximum sum rate is then taken; GDS-III's side conditions
are rate-free rows of that region.
Optimization is seeded multistart plus coordinate pattern search;
covariances are parameterized through lower-triangular factors so PSD
holds by construction, and per-BS power is enforced by projection.  The
second-hop sum capacity `rsum_star` is not searched: it is Sato's bound,
closed form up to a one-dimensional convex minimisation.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import gaussian
# unused parse_atom and corollary3_feasible stay importable: bench/tracer.py
# wraps them by these names
from .atoms import parse_atom  # noqa: F401
from .atoms import checked_int, checked_reals
from .gaussian import CranNetwork, JointCovariance
from .polytope import CompiledRegion, max_sum_rate
from .regions import corollary3_feasible  # noqa: F401
from .regions import (CAPACITIES, corollary1_system, corollary2_system,
                      corollary3_gated_system, gcomp_theorem2_system)

__all__ = [
    "DescriptionIParams",
    "DescriptionIIParams",
    "DescriptionIIIParams",
    "CompressionParams",
    "SchemeEvaluation",
    "OptimizerBudget",
    "GAUSSIAN_SCHEMES",
    "SWEEP_SCHEMES",
    "build_joint_cov",
    "scheme_sumrate",
    "optimize_scheme",
    "rsum_star",
    "sweep_rows",
]

# each Gaussian scheme's region, restart-0 point per unit sqrt(P) (half the
# power to each description, GCOMP's W at 0.01 P; one entry per parameter) and
# row template W over its sources: the auxiliaries U = S1, V = S2 (and GCOMP's
# X0), then X1, X2
_DS_ROWS = np.vstack([np.eye(4), np.eye(2, 4) + np.eye(2, 4, 2)])  # X = S1 + S2
_SCHEMES = {
    "GDS-I": (corollary1_system, np.r_[0.5, 0, 0.5, 0.5, 0, 0.5], _DS_ROWS),
    "GDS-II": (corollary2_system, np.full(8, 0.5), np.eye(8, 6)),
    "GDS-III": (corollary3_gated_system, np.r_[0.5, 0, 0.5, 0.5, 0, 0.5, [0] * 4], _DS_ROWS),
    "GCOMP": (gcomp_theorem2_system, np.r_[0.5, 0, 0.5, 0.5, 0, 0.5, 0.1, 0, 0.1, [0] * 6],
              np.vstack([np.eye(7)[[0, 1, 2, 3, 6]],
                         np.eye(2, 7) + np.eye(2, 7, 2) + np.eye(2, 7, 4)])),  # X = S1 + S2 + W
}
GAUSSIAN_SCHEMES = tuple(_SCHEMES)
_I2 = np.eye(2)
# the schemes a sweep prints unless its config lists them; GDS-TS is the best
# of GDS-I, II and III at each point
SWEEP_SCHEMES = ("GDS-I", "GDS-II", "GDS-III", "GDS-TS", "GCOMP")


@dataclass(frozen=True)
class DescriptionIParams:
    """Common-codeword construction: X = S1 + S2 with independent Gaussian
    vectors S1 ~ K1 and S2 ~ K2; the second description is precoded against
    the first."""

    K1: np.ndarray
    K2: np.ndarray


@dataclass(frozen=True)
class DescriptionIIParams:
    """Independent unit auxiliaries combined linearly at each BS."""

    a: np.ndarray  # coefficients of (U0, V0, U1, V1) at BS 1
    b: np.ndarray  # coefficients of (U0, V0, U2, V2) at BS 2


@dataclass(frozen=True)
class DescriptionIIIParams:
    """Private-codeword construction: U = S1, V = S2 + A S1,
    X = (I+A) S1 + S2 with a free 2x2 precoder A."""

    K1: np.ndarray
    K2: np.ndarray
    A: np.ndarray


@dataclass(frozen=True)
class CompressionParams:
    """Compression construction: X = S1 + S2 + W plus a scalar unit-variance
    cloud center X0 correlated with (S1, S2, W) through `x0cov`."""

    K1: np.ndarray
    K2: np.ndarray
    Kw: np.ndarray
    x0cov: np.ndarray  # covariance of X0 with (S1, S2, W), length 6


@dataclass(frozen=True)
class OptimizerBudget:
    restarts: int = 8
    iters: int = 4000  # objective evaluations per restart
    seed: int = 0

    def __post_init__(self):
        for key in ("restarts", "iters"):
            checked_int(getattr(self, key), f"budget {key}", 1)


STEP0_SCALE = 0.25  # initial pattern-search step = STEP0_SCALE * sqrt(P)
MIN_STEP = 1e-5


@dataclass
class SchemeEvaluation:
    scheme: str
    params: object
    sum_rate: float
    diagnostics: dict = field(default_factory=dict)


def _dpc_precoder(K2: np.ndarray, g2: np.ndarray, Kw: np.ndarray | None = None) -> np.ndarray:
    """Interference precoder A = K2 g2^T (1 + g2 (K2 [+Kw]) g2^T)^{-1} g2."""
    total = K2 if Kw is None else K2 + Kw
    denom = 1.0 + float(g2 @ total @ g2)
    return np.outer(K2 @ g2, g2) / denom


def _blockdiag(*blocks) -> np.ndarray:
    n = sum(len(b) for b in blocks)
    out, i = np.zeros((n, n)), 0
    for b in blocks:
        out[i:i + len(b), i:i + len(b)] = b
        i += len(b)
    return out


def build_joint_cov(scheme: str, params, network: CranNetwork) -> JointCovariance:
    """Joint covariance of the auxiliaries, X1, X2, Y1 and Y2 for one scheme
    instance: the rows W S (auxiliaries, then X1, X2) and the outputs
    G X S + Z, for sources S ~ `base` and unit receiver noise Z.  Raises
    ValueError for a non-finite or non-PSD covariance parameter (checked
    first) or a per-BS power var(Xk) above P."""
    if network.G.shape != (2, 2):
        raise ValueError("Gaussian scheme constructions are 2-BS 2-user")
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown Gaussian scheme {scheme!r}")
    W, g2, psd = _SCHEMES[scheme][2].copy(), network.G[1], ()
    if scheme == "GDS-II":  # the auxiliaries are the unit sources; X rows (a, b)
        for name, v in (("a", params.a), ("b", params.b)):
            if not np.isfinite(v).all():
                raise ValueError(f"{name} is not finite")
        base, comps = W[:6], [(n, 1) for n in ("U0", "V0", "U1", "V1", "U2", "V2")]
        W[6, :4], W[7, [0, 1, 4, 5]] = params.a, params.b
    elif scheme == "GCOMP":  # U1 = S1, U2 = S2 + A S1, X0; X = S1 + S2 + W
        base = _blockdiag(params.K1, params.K2, params.Kw, [[1.0]])  # of (S1, S2, W, X0)
        base[6, 0:6] = base[0:6, 6] = params.x0cov
        comps = [("U1", 2), ("U2", 2), ("X0", 1)]
        W[2:4, 0:2] = _dpc_precoder(params.K2, g2, params.Kw)
        psd = (("Kw", params.Kw, 1e-8), ("joint (S1,S2,W,X0) covariance", base, 1e-6))
    elif scheme == "GDS-I":  # U0 = S1, V0 = S2 + A S1; X = S1 + S2
        base, comps = _blockdiag(params.K1, params.K2), [("U0", 2), ("V0", 2)]
        W[2:4, 0:2] = _dpc_precoder(params.K2, g2)
    else:  # GDS-III: (U1, U2) = S1, (V1, V2) = S2 + A S1; X = U + V = (I+A) S1 + S2
        base = _blockdiag(params.K1, params.K2)
        comps = [(n, 1) for n in ("U1", "U2", "V1", "V2")]
        W[2:4, 0:2] = params.A
        W[4:6, 0:2] += params.A
    if scheme != "GDS-II":
        psd = (("K1", params.K1, 1e-8), ("K2", params.K2, 1e-8), *psd)
    for name, m, tol in psd:
        gaussian.check_psd(m, name, tol)
    n, k = base.shape[0], W.shape[0] - 2
    M = np.zeros((k + 4, n + 2))  # rows W, G X; columns S, Z
    M[:k + 2, :n] = W
    M[k + 2:, :n] = [g @ W[k:] for g in network.G]
    B = np.zeros((n + 2, n + 2))  # blockdiag(base, I)
    B[:n, :n] = base
    M[k + 2, n] = M[k + 3, n + 1] = B[n, n] = B[n + 1, n + 1] = 1.0
    cov = M @ B @ M.T
    if cov[k, k] > network.P + 1e-6 or cov[k + 1, k + 1] > network.P + 1e-6:
        raise ValueError("per-BS power violated: var(X1) or var(X2) > P")
    return JointCovariance.make([*comps, ("X1", 1), ("X2", 1), ("Y1", 1), ("Y2", 1)], cov)


@functools.cache
def _compiled(scheme: str):
    """The scheme's compiled region (GDS-III's with its side conditions as
    rate-free rows) and the positions of C1, C2, C12, C21 in its atoms."""
    region = CompiledRegion(_SCHEMES[scheme][0]())
    return region, np.array([region.rows.atoms.index(c) for c in CAPACITIES])


def _atom_values(scheme: str, params, network: CranNetwork) -> np.ndarray:
    """The atoms of the scheme's compiled region at `params`, in order; the
    capacities read 0."""
    cov = build_joint_cov(scheme, params, network)
    return gaussian.atom_values(cov, _compiled(scheme)[0].rows.atoms)


def _sumrate(scheme: str, values: np.ndarray, network: CranNetwork) -> float:
    """Maximum R1+R2 of the scheme's region under the atom values `values`,
    whose capacities are set to the network's in place."""
    region, caps = _compiled(scheme)
    values[caps] = *network.C, network.Ccoop[0, 1], network.Ccoop[1, 0]
    return max_sum_rate(region, values)


def scheme_sumrate(scheme: str, params, network: CranNetwork) -> float:
    """Maximum R1+R2 of the scheme's region at the given parameters (0.0 for
    private-codeword parameters that break a side condition)."""
    return _sumrate(scheme, _atom_values(scheme, params, network), network)


# ---------------------------------------------------------------------------
# Parameter vectorization, projection, and pattern search
# ---------------------------------------------------------------------------


def _vec_to_psd(vec) -> np.ndarray:
    """L L^T for the lower-triangular factor L with entries (l11, l21, l22)."""
    L = np.array([[vec[0], 0.0], [vec[1], vec[2]]])
    return L @ L.T


def _scale_to_power(mats, P: float):
    """Jointly rescale summand covariances so the diagonal of their sum is
    within the power budget (diagonal congruence scaling keeps PSD)."""
    d = np.diag(sum(mats))
    scale = np.sqrt(np.minimum(1.0, P / np.maximum(d, 1e-300)))
    D = np.diag(scale)
    return [D @ m @ D for m in mats]


class _SchemeSpace:
    """Packs one scheme's parameters into a flat optimizer vector."""

    def __init__(self, scheme: str, network: CranNetwork):
        self.scheme = scheme
        self.network = network
        self.P = network.P
        self.nparams = len(_SCHEMES[scheme][1])
        self.memo: dict[bytes, float] = {}

    def initial(self, rng: np.random.Generator, restart: int) -> np.ndarray:
        s = np.sqrt(max(self.P, 1e-12))
        if restart == 0:
            return _SCHEMES[self.scheme][1] * s
        return rng.normal(0.0, 0.5 * s, size=self.nparams)

    def to_params(self, x: np.ndarray):
        if self.scheme == "GDS-I":
            K1, K2 = _scale_to_power([_vec_to_psd(x[0:3]), _vec_to_psd(x[3:6])], self.P)
            return DescriptionIParams(K1, K2)
        if self.scheme == "GDS-II":
            a, b = x[0:4].copy(), x[4:8].copy()
            na, nb = a @ a, b @ b
            if na > self.P:
                a *= np.sqrt(self.P / na)
            if nb > self.P:
                b *= np.sqrt(self.P / nb)
            return DescriptionIIParams(a, b)
        if self.scheme == "GDS-III":
            K1, K2 = _vec_to_psd(x[0:3]), _vec_to_psd(x[3:6])
            A = x[6:10].reshape(2, 2)
            ia = _I2 + A
            d = np.diag(ia @ K1 @ ia.T + K2)
            worst = d.max(initial=0.0)
            if worst > self.P:
                s = self.P / worst
                K1, K2 = s * K1, s * K2
            return DescriptionIIIParams(K1, K2, A)
        K1, K2, Kw = _scale_to_power([_vec_to_psd(x[i:i + 3]) for i in (0, 3, 6)], self.P)
        base = _blockdiag(K1, K2, Kw)
        # X0 has unit variance; keep the joint PSD by shrinking c if needed
        w, v = np.linalg.eigh(base)
        inv = np.where(w > 1e-12, 1.0 / np.where(w > 1e-12, w, 1.0), 0.0)
        onto = v @ (inv * (v.T @ x[9:15]))
        # zero out components of c outside the range of the base covariance
        c = base @ onto
        q = float(c @ onto)
        if q > 1.0 - 1e-9:
            c = c * np.sqrt((1.0 - 1e-9) / q)
        return CompressionParams(K1, K2, Kw, c)

    def objective(self, x: np.ndarray) -> float:
        """Sum rate at x, -inf where infeasible; memoised, since a pattern
        search steps back onto points it has already evaluated."""
        key = x.tobytes()
        if key not in self.memo:
            try:
                self.memo[key] = scheme_sumrate(self.scheme, self.to_params(x), self.network)
            except ValueError:  # LinAlgError included
                self.memo[key] = -np.inf
        return self.memo[key]


def _pattern_search(f, x0: np.ndarray, step0: float, min_step: float,
                    max_evals: int, stop_at: float = np.inf):
    x = x0.copy()
    fx = f(x)
    evals = 1
    step = step0
    while step > min_step and evals < max_evals:
        if fx >= stop_at:
            break
        improved = False
        for i in range(len(x)):
            for sgn in (1.0, -1.0):
                if evals >= max_evals:
                    return x, fx, evals
                y = x.copy()
                y[i] += sgn * step
                fy = f(y)
                evals += 1
                if fy > fx + 1e-12:
                    x, fx = y, fy
                    improved = True
                    break
            if fx >= stop_at:
                return x, fx, evals
        if not improved:
            step *= 0.5
    return x, fx, evals


def optimize_scheme(scheme: str, network: CranNetwork, budget: OptimizerBudget) -> SchemeEvaluation:
    """Best-effort maximization of a scheme's sum rate.

    Deterministic given the seed: restart r uses the r-th spawned generator,
    and ties between restarts keep the lowest restart index.  The search
    stops early once the objective reaches `scheme_sum_cap`, which it
    provably cannot exceed.  The diagnostics count objective calls (`evals`)
    and the distinct points of each restart, computed once (`distinct_evals`).
    """
    if scheme not in GAUSSIAN_SCHEMES:
        raise ValueError(f"unknown Gaussian scheme {scheme!r}")
    space = _SchemeSpace(scheme, network)
    seeds = np.random.SeedSequence(budget.seed).spawn(budget.restarts)
    step0 = STEP0_SCALE * np.sqrt(max(network.P, 1e-12))
    best_x, best_f, best_r = None, -np.inf, -1
    total_evals = distinct = 0
    stop_at = scheme_sum_cap(scheme, network) - 1e-9
    for r in range(budget.restarts):
        rng = np.random.default_rng(seeds[r])
        x0 = space.initial(rng, r)
        space.memo.clear()  # restarts seldom meet; this bounds the memo by `iters`
        x, fx, ev = _pattern_search(space.objective, x0, step0,
                                    MIN_STEP, budget.iters, stop_at)
        total_evals += ev
        distinct += len(space.memo)
        if fx > best_f + 1e-12:
            best_x, best_f, best_r = x, fx, r
        if best_f >= stop_at:
            break
    params = space.to_params(best_x) if best_x is not None else None
    return SchemeEvaluation(scheme, params, max(0.0, best_f),
                            {"restarts": budget.restarts, "best_restart": best_r,
                             "evals": total_evals, "distinct_evals": distinct})


# ---------------------------------------------------------------------------
# Second-hop MIMO broadcast sum capacity (fronthaul removed)
# ---------------------------------------------------------------------------


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def rsum_star(network: CranNetwork) -> float:
    """Sum capacity of the second hop with unconstrained fronthaul.

    Sato's bound: receivers cooperating under noise N = [[1, r], [r, 1]]
    get 1/2 log2 det(N + G S G^T) / det N, maximised over diag S <= P, and
    the minimum over r is the sum capacity under per-BS power (Sato 1978;
    Yu & Lan 2007).  The optimal S is [[P, c], [c, P]]; in the eigenbasis of
    N the ratio is 1 + h+ S h+/(1+r) + h- S h-/(1-r) + det(G)^2 det S/(1-r^2)
    with h+- = (g1 +- g2)/sqrt2, a concave quadratic in c.  Golden section
    over the convex r-dependence returns the smallest bound it evaluates, so
    the value never undercuts.  Equal (opposite) rows of G put the infimum
    at r = 1 (-1); there h- (h+) is zero, so the search approaches the limit
    with no cancellation and needs no special case.
    """
    if network.G.shape != (2, 2):
        raise ValueError("rsum_star is defined for the 2-BS 2-user model")
    P = network.P
    (g11, g12), (g21, g22) = network.G.tolist()
    p1, p2, m1, m2 = g11 + g21, g12 + g22, g11 - g21, g12 - g22
    pq, pl = 0.5 * P * (p1 * p1 + p2 * p2), p1 * p2
    mq, ml = 0.5 * P * (m1 * m1 + m2 * m2), m1 * m2
    det2 = (g11 * g22 - g12 * g21) ** 2

    def excess(r: float) -> float:  # the ratio minus 1, maximised over c
        a, b = 1.0 + r, 1.0 - r  # exact near r = -1 and r = 1, unlike 1 - r * r
        lin, quad = pl / a + ml / b, det2 / (a * b)
        c = min(P, max(-P, 0.5 * lin / quad)) if quad > 0.0 else math.copysign(P, lin)
        return (pq + c * pl) / a + (mq + c * ml) / b + quad * (P * P - c * c)

    lo, hi, best = -1.0, 1.0, math.inf
    while True:
        x1, x2 = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
        if not (lo < x1 < x2 < hi and hi - lo > 1e-15):
            break
        f1, f2 = excess(x1), excess(x2)
        best = min(best, f1, f2)
        lo, hi = (lo, x2) if f1 <= f2 else (x1, hi)
    value = 0.5 * math.log1p(best) / math.log(2.0)
    return value if value > 0.0 else 0.0


def scheme_sum_cap(scheme: str, network: CranNetwork) -> float:
    """Provable upper bound on a scheme's sum rate from its fronthaul
    budget constraints and the second-hop sum capacity (used for early
    exit, so it must never undercut)."""
    cap = min(float(network.C.sum()), rsum_star(network))
    if scheme == "GDS-I":
        return min(cap, float(network.C[0] + network.Ccoop[0, 1]),
                   float(network.C[1] + network.Ccoop[1, 0]))
    return cap


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def sweep_rows(config: dict) -> list[dict]:
    """Evaluate schemes over a fronthaul-capacity grid.

    Config keys: P, G (2x2), C_grid, T (a number or a list), schemes, seed
    (an integer >= 0) and budget {restarts, iters} (integers >= 1), by the
    rule of `atoms`, with every number finite and P, C_grid and T >= 0; P, G,
    C_grid and seed are required, any other key is an error, and C_grid, T
    and schemes are nonempty lists without repeats.  Within one (scheme, T)
    pair the refined parameters found at every grid point are shared: each C
    reports the best sum rate over the whole pool, which preserves
    monotonicity in C.  Every grid point gets its own derived seed.  The
    `cutset` column is min(2C, rsum_star), a certified upper bound that does
    not depend on the seed or the budget.  Returns rows sorted by (C, T, scheme).
    """
    if not isinstance(config, dict):
        raise ValueError(f"sweep config must be an object, got {config!r}")
    unknown = sorted(set(config) - {"P", "G", "C_grid", "T", "schemes", "seed", "budget"})
    if unknown:
        raise ValueError(f"sweep config has unknown fields {unknown}")
    missing = [k for k in ("P", "G", "C_grid", "seed") if k not in config]
    if missing:
        raise ValueError(f"sweep config is missing required field {missing[0]!r}")

    def listed(key, default, what, check):
        values = config.get(key, default)
        values = [values] if key == "T" and isinstance(values, (int, float)) else values
        with contextlib.suppress(TypeError, ValueError):  # an unhashable entry; a bad one
            if (isinstance(values, (list, tuple)) and len(set(values)) == len(values)
                    and (out := check(values))):
                return out
        raise ValueError(f"sweep config {key} must be a nonempty list of distinct "
                         f"{what}, got {values!r}")

    P = float(checked_reals(config["P"], "sweep config P", 0.0, shape=()))
    G = checked_reals(config["G"], "sweep config G", shape=(2, 2))
    c_grid, t_values = (listed(key, default, "finite numbers >= 0",
                               lambda v: checked_reals(v, key, 0.0, shape=(len(v),)).tolist())
                        for key, default in (("C_grid", None), ("T", 0.0)))
    schemes = listed("schemes", SWEEP_SCHEMES, "scheme names",
                     lambda v: set(v) <= set(SWEEP_SCHEMES) and list(v))
    seed = int(checked_int(config["seed"], "sweep config seed", 0))
    bcfg = config.get("budget", {})
    if not isinstance(bcfg, dict) or bcfg.keys() - {"restarts", "iters"}:
        raise ValueError(f"sweep config budget must map restarts and iters only, got {bcfg!r}")
    budget = OptimizerBudget(**bcfg)

    timeshared = ("GDS-I", "GDS-II", "GDS-III")
    base_schemes = sorted({s for s in schemes if s != "GDS-TS"}
                          | (set(timeshared) if "GDS-TS" in schemes else set()))
    star = rsum_star(CranNetwork.make(G, P, [c_grid[0], c_grid[0]]))
    rows = []
    for ti, T in enumerate(t_values):
        nets = [CranNetwork.make(G, P, [C, C], [[0.0, T], [T, 0.0]]) for C in c_grid]
        best = {}
        for si, scheme in enumerate(base_schemes):
            pool = []  # the atom values of the scheme's optima across the C grid
            for ci, net in enumerate(nets):
                sub_seed = np.random.SeedSequence(seed, spawn_key=(ti, si, ci))
                ev = optimize_scheme(scheme, net,
                                     replace(budget, seed=int(sub_seed.generate_state(1)[0])))
                if ev.params is not None:
                    pool.append(_atom_values(scheme, ev.params, net))
            best[scheme] = [max([0.0] + [_sumrate(scheme, v, net) for v in pool])
                            for net in nets]
        if "GDS-TS" in schemes:
            best["GDS-TS"] = [max(r) for r in zip(*(best[s] for s in timeshared))]
        for ci, C in enumerate(c_grid):
            rows.extend({"C": C, "T": T, "scheme": s, "sum_rate": best[s][ci],
                         "cutset": min(2.0 * C, star), "rsum_star": star} for s in schemes)
    rows.sort(key=lambda r: (r["C"], r["T"], r["scheme"]))
    return rows
