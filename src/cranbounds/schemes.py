"""Gaussian auxiliary constructions, sum-rate optimization, and sweeps.

Each scheme fixes a linear-Gaussian construction of the auxiliary random
variables, turns it into a joint covariance, evaluates the matching rate
region through the shared atom machinery, and extracts the maximum sum
rate.  Optimization is seeded multistart plus coordinate pattern search;
covariances are parameterized through lower-triangular factors so PSD
holds by construction, and per-BS power is enforced by projection.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import gaussian
# unused parse_atom stays importable: bench/tracer.py wraps it by this name
from .atoms import parse_atom  # noqa: F401
from .gaussian import CranNetwork, JointCovariance
from .regions import (caps_valuation, corollary1_system, corollary2_system,
                      corollary3_feasible, corollary3_side_conditions,
                      corollary3_system, cutset_symmetric_sumrate,
                      gcomp_theorem2_system, max_sum_rate)

__all__ = [
    "DescriptionIParams",
    "DescriptionIIParams",
    "DescriptionIIIParams",
    "CompressionParams",
    "SchemeEvaluation",
    "OptimizerBudget",
    "GAUSSIAN_SCHEMES",
    "build_joint_cov",
    "scheme_valuation",
    "scheme_sumrate",
    "optimize_scheme",
    "rsum_star",
    "gds_timeshare_sumrate",
    "sweep_rows",
]

GAUSSIAN_SCHEMES = ("GDS-I", "GDS-II", "GDS-III", "GCOMP")


def _psd_from_factor(L: np.ndarray) -> np.ndarray:
    return L @ L.T


def _check_psd(m: np.ndarray, what: str, tol: float = 1e-8):
    w = np.linalg.eigvalsh(0.5 * (m + m.T))
    if w.min(initial=0.0) < -tol * max(1.0, abs(w).max(initial=1.0)):
        raise ValueError(f"{what} is not PSD")


@dataclass(frozen=True)
class DescriptionIParams:
    """Common-codeword construction: X = S1 + S2 with independent Gaussian
    vectors S1 ~ K1 and S2 ~ K2; the second description is precoded against
    the first."""

    K1: np.ndarray
    K2: np.ndarray

    def validate(self, P: float):
        _check_psd(self.K1, "K1")
        _check_psd(self.K2, "K2")
        if np.any(np.diag(self.K1 + self.K2) > P + 1e-6):
            raise ValueError("per-BS power violated: diag(K1+K2) > P")


@dataclass(frozen=True)
class DescriptionIIParams:
    """Independent unit auxiliaries combined linearly at each BS."""

    a: np.ndarray  # coefficients of (U0, V0, U1, V1) at BS 1
    b: np.ndarray  # coefficients of (U0, V0, U2, V2) at BS 2

    def validate(self, P: float):
        if np.sum(self.a ** 2) > P + 1e-6 or np.sum(self.b ** 2) > P + 1e-6:
            raise ValueError("per-BS power violated: coefficient norm > P")


@dataclass(frozen=True)
class DescriptionIIIParams:
    """Private-codeword construction: U = S1, V = S2 + A S1,
    X = (I+A) S1 + S2 with a free 2x2 precoder A."""

    K1: np.ndarray
    K2: np.ndarray
    A: np.ndarray

    def validate(self, P: float):
        _check_psd(self.K1, "K1")
        _check_psd(self.K2, "K2")
        ia = np.eye(2) + self.A
        if np.any(np.diag(ia @ self.K1 @ ia.T + self.K2) > P + 1e-6):
            raise ValueError("per-BS power violated")


@dataclass(frozen=True)
class CompressionParams:
    """Compression construction: X = S1 + S2 + W plus a scalar unit-variance
    cloud center X0 correlated with (S1, S2, W) through `x0cov`."""

    K1: np.ndarray
    K2: np.ndarray
    Kw: np.ndarray
    x0cov: np.ndarray  # covariance of X0 with (S1, S2, W), length 6

    def validate(self, P: float):
        _check_psd(self.K1, "K1")
        _check_psd(self.K2, "K2")
        _check_psd(self.Kw, "Kw")
        if np.any(np.diag(self.K1 + self.K2 + self.Kw) > P + 1e-6):
            raise ValueError("per-BS power violated: diag(K1+K2+Kw) > P")
        _check_psd(self.base_cov(), "joint (S1,S2,W,X0) covariance", tol=1e-6)

    def base_cov(self) -> np.ndarray:
        base = np.zeros((7, 7))
        base[0:2, 0:2] = self.K1
        base[2:4, 2:4] = self.K2
        base[4:6, 4:6] = self.Kw
        base[6, 0:6] = self.x0cov
        base[0:6, 6] = self.x0cov
        base[6, 6] = 1.0
        return base


@dataclass(frozen=True)
class OptimizerBudget:
    restarts: int = 64
    iters: int = 4000  # objective evaluations per restart
    seed: int = 0
    step0_scale: float = 0.25  # initial step = step0_scale * sqrt(P)
    min_step: float = 1e-5


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


def _assemble(components, rows, base_cov) -> JointCovariance:
    M = np.vstack(rows)
    return JointCovariance.make(components, M @ base_cov @ M.T)


def build_joint_cov(scheme: str, params, network: CranNetwork) -> JointCovariance:
    """Joint covariance over auxiliaries, channel inputs, and outputs for one
    scheme instance; receiver noises are independent with unit variance."""
    G = network.G
    if G.shape != (2, 2):
        raise ValueError("Gaussian scheme constructions are 2-BS 2-user")
    g1, g2 = G[0], G[1]
    if scheme == "GDS-I":
        params.validate(network.P)
        A = _dpc_precoder(params.K2, g2)
        base = np.zeros((6, 6))
        base[0:2, 0:2] = params.K1
        base[2:4, 2:4] = params.K2
        base[4:6, 4:6] = np.eye(2)
        I2, Z2 = np.eye(2), np.zeros((2, 2))
        rows = [
            np.hstack([I2, Z2, Z2]),            # U0 = S1
            np.hstack([A, I2, Z2]),             # V0 = S2 + A S1
            np.array([[1, 0, 1, 0, 0, 0]]),     # X1
            np.array([[0, 1, 0, 1, 0, 0]]),     # X2
            np.hstack([[g1], [g1], [[1, 0]]]),  # Y1
            np.hstack([[g2], [g2], [[0, 1]]]),  # Y2
        ]
        comps = [("U0", 2), ("V0", 2), ("X1", 1), ("X2", 1), ("Y1", 1), ("Y2", 1)]
        return _assemble(comps, rows, base)
    if scheme == "GDS-II":
        params.validate(network.P)
        a, b = params.a, params.b
        base = np.eye(8)  # U0 V0 U1 V1 U2 V2 Z1 Z2
        x1 = np.array([a[0], a[1], a[2], a[3], 0, 0, 0, 0])
        x2 = np.array([b[0], b[1], 0, 0, b[2], b[3], 0, 0])
        y1 = g1[0] * x1 + g1[1] * x2
        y1[6] = 1.0
        y2 = g2[0] * x1 + g2[1] * x2
        y2[7] = 1.0
        rows = [np.eye(8)[i][None, :] for i in range(6)] + [x1[None, :], x2[None, :],
                                                            y1[None, :], y2[None, :]]
        comps = [("U0", 1), ("V0", 1), ("U1", 1), ("V1", 1), ("U2", 1), ("V2", 1),
                 ("X1", 1), ("X2", 1), ("Y1", 1), ("Y2", 1)]
        return _assemble(comps, rows, base)
    if scheme == "GDS-III":
        params.validate(network.P)
        A = params.A
        base = np.zeros((6, 6))
        base[0:2, 0:2] = params.K1
        base[2:4, 2:4] = params.K2
        base[4:6, 4:6] = np.eye(2)
        I2, Z2 = np.eye(2), np.zeros((2, 2))
        U = np.hstack([I2, Z2, Z2])             # (U1,U2) = S1
        V = np.hstack([A, I2, Z2])              # (V1,V2) = S2 + A S1
        X = np.hstack([I2 + A, I2, Z2])         # X = (I+A) S1 + S2
        y1 = g1 @ X
        y1[4] = 1.0
        y2 = g2 @ X
        y2[5] = 1.0
        rows = [U[0][None, :], U[1][None, :], V[0][None, :], V[1][None, :],
                X[0][None, :], X[1][None, :], y1[None, :], y2[None, :]]
        comps = [("U1", 1), ("U2", 1), ("V1", 1), ("V2", 1),
                 ("X1", 1), ("X2", 1), ("Y1", 1), ("Y2", 1)]
        return _assemble(comps, rows, base)
    if scheme == "GCOMP":
        params.validate(network.P)
        A = _dpc_precoder(params.K2, g2, params.Kw)
        base = np.zeros((9, 9))  # S1 S2 W X0 Z1 Z2
        base[0:7, 0:7] = params.base_cov()
        base[7, 7] = base[8, 8] = 1.0
        I2, Z2 = np.eye(2), np.zeros((2, 2))
        z1 = np.zeros((2, 1))
        U1 = np.hstack([I2, Z2, Z2, z1, z1, z1])      # U1 = S1
        U2 = np.hstack([A, I2, Z2, z1, z1, z1])       # U2 = S2 + A S1
        X = np.hstack([I2, I2, I2, z1, z1, z1])       # X = S1 + S2 + W
        X0 = np.zeros((1, 9))
        X0[0, 6] = 1.0
        y1 = g1 @ X
        y1[7] = 1.0
        y2 = g2 @ X
        y2[8] = 1.0
        rows = [U1, U2, X0, X[0][None, :], X[1][None, :], y1[None, :], y2[None, :]]
        comps = [("U1", 2), ("U2", 2), ("X0", 1), ("X1", 1), ("X2", 1),
                 ("Y1", 1), ("Y2", 1)]
        return _assemble(comps, rows, base)
    raise ValueError(f"unknown Gaussian scheme {scheme!r}")


_REGION_BUILDERS = {
    "GDS-I": corollary1_system,
    "GDS-II": corollary2_system,
    "GDS-III": corollary3_system,
    "GCOMP": gcomp_theorem2_system,
}


@functools.cache
def _region_system(scheme: str):
    return _REGION_BUILDERS[scheme]()


@functools.cache
def _region_atoms(scheme: str) -> tuple[str, ...]:
    """Canonical names of the information atoms of a scheme's region."""
    atoms = set(_region_system(scheme).atoms())
    if scheme == "GDS-III":
        for lhs, rhs in corollary3_side_conditions():
            atoms.add(lhs.name)
            atoms.update(r.name for r in rhs)
    return tuple(sorted(atoms - {"C1", "C2", "C12", "C21"}))


def scheme_valuation(scheme: str, params, network: CranNetwork) -> dict[str, float]:
    """Capacity-independent information atoms of a scheme instance."""
    cov = build_joint_cov(scheme, params, network)
    return gaussian.atom_valuation(cov, _region_atoms(scheme))


def _sumrate_from_valuation(scheme: str, mi_val: dict[str, float],
                            network: CranNetwork) -> float:
    val = dict(mi_val)
    caps = caps_valuation(network)
    val.update({k: caps[k] for k in ("C1", "C2", "C12", "C21")})
    system = _region_system(scheme)
    if scheme == "GDS-III" and not corollary3_feasible(val):
        return 0.0
    return max_sum_rate(system, val)


def scheme_sumrate(scheme: str, params, network: CranNetwork) -> float:
    """Maximum R1+R2 of the scheme's region at the given parameters (0.0 for
    infeasible private-codeword parameters)."""
    return _sumrate_from_valuation(scheme, scheme_valuation(scheme, params, network), network)


# ---------------------------------------------------------------------------
# Parameter vectorization, projection, and pattern search
# ---------------------------------------------------------------------------


def _tril_to_vec(n: int):
    return [(i, j) for i in range(n) for j in range(i + 1)]


_TRIL2 = _tril_to_vec(2)


def _vec_to_psd(vec) -> np.ndarray:
    L = np.zeros((2, 2))
    for (i, j), v in zip(_TRIL2, vec):
        L[i, j] = v
    return L @ L.T


def _scale_to_power(mats, P: float):
    """Jointly rescale summand covariances so the diagonal of their sum is
    within the power budget (diagonal congruence scaling keeps PSD)."""
    total = sum(mats)
    d = np.diag(total)
    scale = np.sqrt(np.minimum(1.0, P / np.maximum(d, 1e-300)))
    D = np.diag(scale)
    return [D @ m @ D for m in mats]


class _SchemeSpace:
    """Packs one scheme's parameters into a flat optimizer vector."""

    def __init__(self, scheme: str, network: CranNetwork):
        self.scheme = scheme
        self.network = network
        self.P = network.P
        self.nparams = {"GDS-I": 6, "GDS-II": 8, "GDS-III": 10, "GCOMP": 15}[scheme]

    def initial(self, rng: np.random.Generator, restart: int) -> np.ndarray:
        s = np.sqrt(max(self.P, 1e-12))
        if restart == 0:
            # balanced deterministic start: half power per description
            x = np.zeros(self.nparams)
            h = s / 2.0
            if self.scheme == "GDS-I":
                x[[0, 2]] = h   # diag of L1
                x[[3, 5]] = h
            elif self.scheme == "GDS-II":
                x[:] = s / 2.0
            elif self.scheme == "GDS-III":
                x[[0, 2]] = h
                x[[3, 5]] = h
            else:
                x[[0, 2]] = h
                x[[3, 5]] = h
                x[[6, 8]] = 0.1 * s
            return x
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
            K1 = _vec_to_psd(x[0:3])
            K2 = _vec_to_psd(x[3:6])
            A = x[6:10].reshape(2, 2)
            ia = np.eye(2) + A
            d = np.diag(ia @ K1 @ ia.T + K2)
            worst = d.max(initial=0.0)
            if worst > self.P:
                s = self.P / worst
                K1, K2 = s * K1, s * K2
            return DescriptionIIIParams(K1, K2, A)
        K1, K2, Kw = (_vec_to_psd(x[0:3]), _vec_to_psd(x[3:6]), _vec_to_psd(x[6:9]))
        K1, K2, Kw = _scale_to_power([K1, K2, Kw], self.P)
        c = x[9:15].copy()
        base = np.zeros((6, 6))
        base[0:2, 0:2] = K1
        base[2:4, 2:4] = K2
        base[4:6, 4:6] = Kw
        # X0 has unit variance; keep the joint PSD by shrinking c if needed
        w, v = np.linalg.eigh(base)
        inv = np.where(w > 1e-12, 1.0 / np.where(w > 1e-12, w, 1.0), 0.0)
        onto = v @ (inv * (v.T @ c))
        # zero out components of c outside the range of the base covariance
        c = base @ onto
        q = float(c @ onto)
        if q > 1.0 - 1e-9:
            c = c * np.sqrt((1.0 - 1e-9) / q)
        return CompressionParams(K1, K2, Kw, c)

    def objective(self, x: np.ndarray) -> float:
        try:
            params = self.to_params(x)
            return scheme_sumrate(self.scheme, params, self.network)
        except (ValueError, np.linalg.LinAlgError):
            return -np.inf


def _pattern_search(f, x0: np.ndarray, step0: float, min_step: float,
                    max_evals: int, stop_at: float | None = None):
    x = x0.copy()
    fx = f(x)
    evals = 1
    step = step0
    while step > min_step and evals < max_evals:
        if stop_at is not None and fx >= stop_at:
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
            if stop_at is not None and fx >= stop_at:
                return x, fx, evals
        if not improved:
            step *= 0.5
    return x, fx, evals


def optimize_scheme(scheme: str, network: CranNetwork,
                    budget: OptimizerBudget = OptimizerBudget(),
                    upper_bound: float | None = None) -> SchemeEvaluation:
    """Best-effort maximization of a scheme's sum rate.

    Deterministic given the seed: restart r uses the r-th spawned generator,
    and ties between restarts keep the lowest restart index.  `upper_bound`
    allows early exit once the objective provably cannot improve (e.g. the
    fronthaul cap in the sum-rate direction).
    """
    if scheme not in GAUSSIAN_SCHEMES:
        raise ValueError(f"unknown Gaussian scheme {scheme!r}")
    space = _SchemeSpace(scheme, network)
    seeds = np.random.SeedSequence(budget.seed).spawn(budget.restarts)
    step0 = budget.step0_scale * np.sqrt(max(network.P, 1e-12))
    best_x, best_f, best_r = None, -np.inf, -1
    total_evals = 0
    stop_at = None if upper_bound is None else upper_bound - 1e-9
    for r in range(budget.restarts):
        rng = np.random.default_rng(seeds[r])
        x0 = space.initial(rng, r)
        x, fx, ev = _pattern_search(space.objective, x0, step0,
                                    budget.min_step, budget.iters, stop_at)
        total_evals += ev
        if fx > best_f + 1e-12:
            best_x, best_f, best_r = x, fx, r
        if stop_at is not None and best_f >= stop_at:
            break
    params = space.to_params(best_x) if best_x is not None else None
    return SchemeEvaluation(scheme, params, max(0.0, best_f),
                            {"restarts": budget.restarts, "best_restart": best_r,
                             "evals": total_evals})


# ---------------------------------------------------------------------------
# Second-hop MIMO broadcast sum capacity (fronthaul removed)
# ---------------------------------------------------------------------------


def _dpc_sum_rate(network: CranNetwork, K1: np.ndarray, K2: np.ndarray,
                  order: int) -> float:
    """Dirty-paper sum rate for one encoding order; the cleanly precoded
    user sees only its own description."""
    g1, g2 = network.G[0], network.G[1]
    if order == 1:
        g1, g2 = g2, g1
        K1, K2 = K2, K1
    s1 = float(g1 @ K1 @ g1)
    n1 = float(g1 @ K2 @ g1)
    r1 = 0.5 * np.log2(1.0 + s1 / (1.0 + n1))
    r2 = 0.5 * np.log2(1.0 + float(g2 @ K2 @ g2))
    return r1 + r2


def rsum_star(network: CranNetwork,
              budget: OptimizerBudget = OptimizerBudget(restarts=32)) -> float:
    """Sum capacity of the second hop with unconstrained fronthaul: best
    dirty-paper point over both encoding orders and over covariance splits
    respecting the per-BS power constraint."""
    if network.G.shape != (2, 2):
        raise ValueError("rsum_star is defined for the 2-BS 2-user model")
    P = network.P
    if P <= 0:
        return 0.0
    seeds = np.random.SeedSequence(budget.seed).spawn(budget.restarts)
    step0 = budget.step0_scale * np.sqrt(P)
    best = 0.0
    for order in (0, 1):
        def f(x):
            K1, K2 = _scale_to_power([_vec_to_psd(x[0:3]), _vec_to_psd(x[3:6])], P)
            return _dpc_sum_rate(network, K1, K2, order)
        for r in range(budget.restarts):
            rng = np.random.default_rng(seeds[r])
            h = np.sqrt(P) / 2.0
            x0 = np.array([h, 0, h, h, 0, h]) if r == 0 else rng.normal(0, 0.5 * np.sqrt(P), 6)
            _, fx, _ = _pattern_search(f, x0, step0, budget.min_step, budget.iters)
            best = max(best, fx)
    return best


def scheme_sum_cap(scheme: str, network: CranNetwork) -> float:
    """Provable upper bound on a scheme's sum rate from its fronthaul
    budget constraints (used for early exit, so it must never undercut)."""
    c_sum = float(network.C.sum())
    if scheme == "GDS-I":
        return min(c_sum, float(network.C[0] + network.Ccoop[0, 1]),
                   float(network.C[1] + network.Ccoop[1, 0]))
    return c_sum


def gds_timeshare_sumrate(network: CranNetwork,
                          budget: OptimizerBudget = OptimizerBudget()) -> float:
    """Best G-DS sum rate over the three correlation structures (time sharing
    at a fixed instance cannot beat the best single sum rate)."""
    vals = [optimize_scheme(s, network, budget,
                            upper_bound=scheme_sum_cap(s, network)).sum_rate
            for s in ("GDS-I", "GDS-II", "GDS-III")]
    return max(vals)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def sweep_rows(config: dict) -> list[dict]:
    """Evaluate schemes over a fronthaul-capacity grid.

    Config keys: P, G (2x2), C_grid, T (scalar or list), schemes, seed,
    budget {restarts, iters}.  Within one (scheme, T) pair the refined
    parameters found at every grid point are shared: each C reports the best
    sum rate over the whole pool, which preserves monotonicity in C.
    Every grid point gets its own derived seed.  Returns rows sorted by
    (C, T, scheme).
    """
    P = float(config["P"])
    G = np.asarray(config["G"], dtype=float)
    c_grid = [float(c) for c in config["C_grid"]]
    if not c_grid:
        raise ValueError("C_grid must be nonempty")
    t_values = config.get("T", 0.0)
    if isinstance(t_values, (int, float)):
        t_values = [float(t_values)]
    else:
        t_values = [float(t) for t in t_values]
    schemes = list(config.get("schemes", ["GDS-I", "GDS-II", "GDS-III", "GDS-TS", "GCOMP"]))
    if not schemes:
        raise ValueError("scheme list must be nonempty")
    seed = int(config["seed"])
    bcfg = config.get("budget", {})
    restarts = int(bcfg.get("restarts", 8))
    iters = int(bcfg.get("iters", 4000))

    base_schemes = sorted({s for s in schemes if s != "GDS-TS"}
                          | ({"GDS-I", "GDS-II", "GDS-III"} if "GDS-TS" in schemes else set()))
    unknown = [s for s in base_schemes if s not in GAUSSIAN_SCHEMES]
    if unknown:
        raise ValueError(f"unknown schemes {unknown}")

    star = rsum_star(CranNetwork.make(G, P, [c_grid[0], c_grid[0]]),
                     OptimizerBudget(restarts=max(32, restarts), iters=iters, seed=seed))

    def optimize_point(scheme: str, ti: int, si: int, ci: int, T: float, C: float):
        net = CranNetwork.make(G, P, [C, C], [[0.0, T], [T, 0.0]])
        sub_seed = np.random.SeedSequence(seed, spawn_key=(ti, si, ci))
        budget = OptimizerBudget(restarts=restarts, iters=iters,
                                 seed=int(sub_seed.generate_state(1)[0]))
        ev = optimize_scheme(scheme, net, budget,
                             upper_bound=scheme_sum_cap(scheme, net))
        if ev.params is None:
            return None
        return scheme_valuation(scheme, ev.params, net)

    rows = []
    for ti, T in enumerate(t_values):
        # per-scheme pool of optimized parameter valuations across the C grid
        tasks = [(scheme, ti, si, ci, T, C)
                 for si, scheme in enumerate(base_schemes)
                 for ci, C in enumerate(c_grid)]
        results = [optimize_point(*t) for t in tasks]
        per_scheme: dict[str, list[dict]] = {s: [] for s in base_schemes}
        for (scheme, *_), mi_val in zip(tasks, results):
            if mi_val is not None:
                per_scheme[scheme].append(mi_val)
        for C in c_grid:
            net = CranNetwork.make(G, P, [C, C], [[0.0, T], [T, 0.0]])
            values = {}
            for scheme in base_schemes:
                best = 0.0
                for mi_val in per_scheme[scheme]:
                    best = max(best, _sumrate_from_valuation(scheme, mi_val, net))
                values[scheme] = best
            if "GDS-TS" in schemes:
                values["GDS-TS"] = max(values.get(s, 0.0)
                                       for s in ("GDS-I", "GDS-II", "GDS-III"))
            cut = cutset_symmetric_sumrate(C, star)
            for scheme in schemes:
                rows.append({"C": C, "T": T, "scheme": scheme,
                             "sum_rate": values[scheme], "cutset": cut,
                             "rsum_star": star})
    rows.sort(key=lambda r: (r["C"], r["T"], r["scheme"]))
    return rows
