"""Gaussian auxiliary constructions, sum-rate optimization, and sweeps.

Every scheme is one linear-Gaussian construction: independent Gaussian
sources S with covariance `base`, auxiliaries and channel inputs W S and
outputs Y = G X S + Z with unit receiver noise.  One table, `_SCHEMES`,
holds each scheme's region, restart-0 start and constant row template W;
`_joint_covs` states only what varies (`base`, the precoder in W, the PSD
list), then forms the joint covariance, runs the finiteness and PSD
checks on the covariance parameters and the per-BS power check on var(X1),
var(X2).  The Gaussian atom values and the network's capacities fill one
vector in the order of the scheme's compiled region, whose maximum sum
rate is then taken; GDS-III's side conditions are rate-free rows of that
region.
Optimization is seeded multistart plus coordinate pattern search;
covariances are parameterized through lower-triangular factors so PSD
holds by construction, and per-BS power is enforced by projection.  Each
search is a lane, a generator of the points it needs (`_lane_search`),
up to LOOKAHEAD moves of a poll at a time, on the path of one point at a
time; `search_lanes` runs the lanes of a scheme, which share G and P, in
lockstep, with one stacked evaluation per round: a leading lane axis on
the parameters, the joint build and its checks, the kernel and the atoms.
A lane that fails a check reads -inf, and each lane's value is that of
one point to the last bit.  `build_joint_cov`, `scheme_sumrate` and
`optimize_scheme` are the one-lane case.  The second-hop sum capacity
`rsum_star` is not searched: it is Sato's bound, closed form up to a
one-dimensional convex minimisation.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field, fields, replace

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
_I2, _ONE, _EYE8 = np.eye(2), np.ones((1, 1)), np.eye(8)
_LOWER = np.array([0, 2, 3])  # the flat positions of (l11, l21, l22) in a 2x2 factor
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
LOOKAHEAD = 4  # moves of one poll a search lane evaluates at once


@dataclass
class SchemeEvaluation:
    scheme: str
    params: object
    sum_rate: float
    diagnostics: dict = field(default_factory=dict)


def _dpc_precoder(K2: np.ndarray, g2: np.ndarray, Kw: np.ndarray | None = None) -> np.ndarray:
    """Interference precoder A = K2 g2^T (1 + g2 (K2 [+Kw]) g2^T)^{-1} g2 of
    every lane of K2 (lanes, 2, 2)."""
    total = K2 if Kw is None else K2 + Kw
    denom = 1.0 + (g2[None, None] @ total @ g2[None, :, None])
    return (K2 @ g2[:, None]) * g2[None, None] / denom


def _blockdiag(*blocks) -> np.ndarray:
    """The block diagonal matrix of every lane of the stacks `blocks`."""
    sizes = [b.shape[-1] for b in blocks]
    out, i = np.zeros((len(blocks[0]), sum(sizes), sum(sizes))), 0
    for b, n in zip(blocks, sizes):
        out[:, i:i + n, i:i + n] = b
        i += n
    return out


def _lanes_of(params):
    """One point's parameters as a stack of one lane."""
    return type(params)(*(np.asarray(getattr(params, f.name), dtype=float)[None]
                          for f in fields(params)))


def _lane(params, b: int):
    """Lane b of stacked parameters."""
    return type(params)(*(getattr(params, f.name)[b] for f in fields(params)))


def _joint_covs(scheme: str, params, network: CranNetwork, verdicts: gaussian.Verdicts):
    """`build_joint_cov` on every lane of the stacked `params`: a lane that
    fails a check fails in `verdicts`, with the check's message.  Each lane
    takes the arithmetic of one point (matrix products per lane, a
    row-vector product where one point took a vector), so that it is the
    same to the last bit whatever the other lanes hold."""
    G, W = network.G, _SCHEMES[scheme][2]
    k, n = W.shape[0] - 2, W.shape[1]
    M = np.zeros((len(verdicts.ok), k + 4, n + 2))  # rows W, G X; columns S, Z
    M[:, :k + 2, :n] = W
    M[:, k + 2, n] = M[:, k + 3, n + 1] = 1.0
    if scheme == "GDS-II":  # the auxiliaries are the unit sources; X rows (a, b)
        for name, v in (("a", params.a), ("b", params.b)):
            for b in np.flatnonzero(~np.isfinite(v).all(axis=1)).tolist():
                verdicts.reject(b, f"{name} is not finite")
        B, comps = _EYE8[None], [(c, 1) for c in ("U0", "V0", "U1", "V1", "U2", "V2")]
        M[:, 6, :4], M[:, 7, [0, 1, 4, 5]] = params.a, params.b
    else:  # the covariance parameters, checked in this order
        Ks = [params.K1, params.K2] + ([params.Kw] if scheme == "GCOMP" else [])
        gaussian.psd_tops(Ks, ("K1", "K2", "Kw"), 1e-8, verdicts)
    if scheme == "GCOMP":  # U1 = S1, U2 = S2 + A S1, X0; X = S1 + S2 + W
        B = _blockdiag(*Ks, _ONE[None], _I2[None])  # of (S1, S2, W, X0) and Z
        B[:, 6, 0:6] = B[:, 0:6, 6] = params.x0cov
        comps = [("U1", 2), ("U2", 2), ("X0", 1)]
        M[:, 2:4, 0:2] = _dpc_precoder(params.K2, G[1], params.Kw)
        gaussian.psd_tops([B[:, :7, :7]], ("joint (S1,S2,W,X0) covariance",), 1e-6, verdicts)
    elif scheme == "GDS-I":  # U0 = S1, V0 = S2 + A S1; X = S1 + S2
        B, comps = _blockdiag(*Ks, _I2[None]), [("U0", 2), ("V0", 2)]
        M[:, 2:4, 0:2] = _dpc_precoder(params.K2, G[1])
    elif scheme == "GDS-III":  # (U1, U2) = S1, (V1, V2) = S2 + A S1; X = U + V = (I+A) S1 + S2
        B = _blockdiag(*Ks, _I2[None])
        comps = [(c, 1) for c in ("U1", "U2", "V1", "V2")]
        M[:, 2:4, 0:2] = params.A
        M[:, 4:6, 0:2] += params.A
    for i, g in enumerate(G):  # the rows G X, each a row-vector product as for one point
        M[:, k + 2 + i, :n] = (g[None, None] @ M[:, k:k + 2, :n])[:, 0]
    cov = M @ B @ M.swapaxes(1, 2)
    limit = network.P + 1e-6
    for b, (v1, v2) in enumerate(zip(cov[:, k, k].tolist(), cov[:, k + 1, k + 1].tolist())):
        if v1 > limit or v2 > limit:
            verdicts.reject(b, "per-BS power violated: var(X1) or var(X2) > P")
    return JointCovariance.stack((*comps, ("X1", 1), ("X2", 1), ("Y1", 1), ("Y2", 1)), cov,
                                 verdicts)


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
    verdicts = gaussian.Verdicts(1)
    with np.errstate(all="ignore"):
        cov = _joint_covs(scheme, _lanes_of(params), network, verdicts)
    verdicts.raise_first()
    m = cov.matrix[0]
    m.flags.writeable = False
    return JointCovariance(cov.components, m, float(cov.top_eigenvalue[0]))


@functools.cache
def _compiled(scheme: str):
    """The scheme's compiled region (GDS-III's with its side conditions as
    rate-free rows) and the positions of C1, C2, C12, C21 in its atoms."""
    region = CompiledRegion(_SCHEMES[scheme][0]())
    return region, np.array([region.rows.atoms.index(c) for c in CAPACITIES])


def _atom_values(scheme: str, params, network: CranNetwork, verdicts: gaussian.Verdicts):
    """The atoms of the scheme's compiled region, in order, at every lane of
    the stacked `params` (the capacities read 0); a lane that fails a check
    reads those of a zero covariance."""
    cov = _joint_covs(scheme, params, network, verdicts)
    if not verdicts.ok.all():  # the kernel sees no lane that failed a check
        cov = JointCovariance(cov.components, np.where(verdicts.ok[:, None, None], cov.matrix, 0.0),
                              cov.top_eigenvalue)
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
    cov = build_joint_cov(scheme, params, network)
    return _sumrate(scheme, gaussian.atom_values(cov, _compiled(scheme)[0].rows.atoms), network)


# ---------------------------------------------------------------------------
# Parameter vectorization, projection, and lockstep pattern search
# ---------------------------------------------------------------------------


def _vec_to_psd(X: np.ndarray) -> np.ndarray:
    """L L^T for every lower-triangular factor L with entries (l11, l21, l22)
    in the last axis of X (lanes, q, 3)."""
    L = np.zeros((*X.shape[:2], 4))
    L[:, :, _LOWER] = X
    L = L.reshape(*X.shape[:2], 2, 2)
    return L @ L.swapaxes(2, 3)


def _scale_to_power(K: np.ndarray, P: float) -> np.ndarray:
    """Jointly rescale the summand covariances K (lanes, q, 2, 2) so the
    diagonal of their sum is within the power budget (diagonal congruence
    scaling keeps PSD); the summands in order.  Lane by lane in floats, as
    NumPy takes sqrt(minimum(1, P / maximum(d, 1e-300))) of a diagonal
    entry d: NaN for a NaN d."""
    D = []
    for k in K.reshape(len(K), -1, 4).tolist():
        d = [P / (x if not x < 1e-300 else 1e-300) for x in map(sum, zip(*k))]
        D.append([[[math.sqrt(1.0 if d[0] > 1.0 else d[0]), 0.0],
                    [0.0, math.sqrt(1.0 if d[3] > 1.0 else d[3])]]])
    D = np.array(D)
    return (D @ K @ D).transpose(1, 0, 2, 3)


def _initial(scheme: str, P: float, rng: np.random.Generator, restart: int) -> np.ndarray:
    """The start of a restart: a fixed point for restart 0, else a draw."""
    s = np.sqrt(max(P, 1e-12))
    if restart == 0:
        return _SCHEMES[scheme][1] * s
    return rng.normal(0.0, 0.5 * s, size=len(_SCHEMES[scheme][1]))


def _to_params(scheme: str, X: np.ndarray, P: float):
    """The parameters of every lane's optimizer vector, a row of X, as one
    stacked parameter object: covariances from lower-triangular factors,
    projected onto the per-BS power P (call it with floating-point warnings
    off: a lane that the projection leaves divides by zero)."""
    if scheme == "GDS-I":
        return DescriptionIParams(*_scale_to_power(_vec_to_psd(X.reshape(-1, 2, 3)), P))
    if scheme == "GDS-II":  # a and b each shrunk onto the sphere of squared radius P
        ab = X.reshape(len(X), 2, 4)
        norms = (ab[:, :, None, :] @ ab[:, :, :, None]).reshape(len(X), 2).tolist()
        ab = ab * np.array([[[math.sqrt(P / n) if n > P else 1.0] for n in row] for row in norms])
        return DescriptionIIParams(ab[:, 0], ab[:, 1])
    if scheme == "GDS-III":  # K1 and K2 scaled alike, as far as the worst var(Xk) needs
        K, A = _vec_to_psd(X[:, :6].reshape(-1, 2, 3)), X[:, 6:10].reshape(-1, 2, 2)
        ia = _I2 + A
        d = (ia @ K[:, 0] @ ia.swapaxes(1, 2) + K[:, 1]).reshape(len(X), 4)[:, ::3].tolist()
        s = [math.nan if a != a or b != b else max(0.0, a, b) for a, b in d]  # NumPy's max
        K = K * np.array([P / w if w > P else 1.0 for w in s])[:, None, None, None]
        return DescriptionIIIParams(K[:, 0], K[:, 1], A)
    K1, K2, Kw = _scale_to_power(_vec_to_psd(X[:, :9].reshape(-1, 3, 3)), P)
    base = _blockdiag(K1, K2, Kw)
    # X0 has unit variance; keep the joint PSD by shrinking c if needed
    finite = np.isfinite(base).all(axis=(1, 2))[:, None, None]
    w, v = np.linalg.eigh(np.where(finite, base, 0.0))  # a non-finite lane fails its K1 check
    inv = np.array([[1.0 / x if x > 1e-12 else 0.0 for x in row] for row in w.tolist()])
    onto = v @ (inv[:, :, None] * (v.swapaxes(1, 2) @ X[:, 9:15, None]))
    # zero out components of c outside the range of the base covariance
    c = base @ onto
    q = (c.swapaxes(1, 2) @ onto).ravel().tolist()
    c = c[:, :, 0] * np.array([[math.sqrt((1.0 - 1e-9) / x) if x > 1.0 - 1e-9 else 1.0] for x in q])
    return CompressionParams(K1, K2, Kw, c)


def _objective(scheme: str, X: np.ndarray, networks) -> list[float]:
    """The search objective at every lane's point, a row of X, on its network
    (the networks share G and P): the sum rate, -inf where a check fails.
    If the stacked eigensolves raise LinAlgError, each lane is taken alone,
    and a lane that raises alone reads -inf."""
    verdicts = gaussian.Verdicts(len(X))
    try:
        with np.errstate(all="ignore"):
            values = _atom_values(scheme, _to_params(scheme, X, networks[0].P), networks[0],
                                  verdicts)
    except np.linalg.LinAlgError:
        if len(X) == 1:
            return [-math.inf]
        return [f for b in range(len(X)) for f in _objective(scheme, X[b:b + 1], networks[b:b + 1])]
    out = [-math.inf] * len(X)
    for b in np.flatnonzero(verdicts.ok).tolist():
        try:
            out[b] = _sumrate(scheme, values[b], networks[b])
        except ValueError:  # an unbounded region
            pass
    return out


def _pattern_search(x0: np.ndarray, step0: float, min_step: float, max_evals: int,
                    stop_at: float, memo: dict):
    """Coordinate pattern search as a generator: it yields lists of the points
    whose objective it needs and `memo` does not hold, receives their values
    and returns (x, f(x), evals).  A list looks up to LOOKAHEAD moves ahead
    in the poll, each taken only if no earlier one was accepted; a value
    past an accepted move is kept aside until the search takes its point,
    so the path, the count and the memo are those of one point at a time."""
    x, spare = x0.copy(), {}  # the values past an accepted move
    (fx,) = yield [x]
    memo[x.tobytes()], evals, step = fx, 1, step0
    while step > min_step and evals < max_evals:
        if fx >= stop_at:
            break
        improved, moves, at = False, [(i, sgn) for i in range(len(x)) for sgn in (1.0, -1.0)], 0
        while at < len(moves):
            if evals >= max_evals:
                return x, fx, evals
            ys = []
            for i, sgn in moves[at:at + min(LOOKAHEAD, max_evals - evals)]:
                ys.append(x.copy())
                ys[-1][i] += sgn * step
            keys = [y.tobytes() for y in ys]
            new = [(key, y) for key, y in zip(keys, ys) if key not in memo and key not in spare]
            if new:
                spare.update(zip([key for key, _ in new], (yield [y for _, y in new])))
            for y, key in zip(ys, keys):
                fy = memo[key] if key in memo else spare.pop(key)
                memo[key], evals, at = fy, evals + 1, at + 1
                if fy > fx + 1e-12:
                    x, fx, improved, at = y, fy, True, at + at % 2  # the next coordinate
                    break
            if improved and fx >= stop_at:
                return x, fx, evals
        if not improved:
            step *= 0.5
    return x, fx, evals


def _lane_search(scheme: str, network: CranNetwork, budget: OptimizerBudget):
    """One lane: `optimize_scheme`'s restarts as a generator of point lists,
    each answered with their objective values; returns (best point or None,
    best value, diagnostics)."""
    seeds = np.random.SeedSequence(budget.seed).spawn(budget.restarts)
    step0 = STEP0_SCALE * np.sqrt(max(network.P, 1e-12))
    best_x, best_f, best_r = None, -np.inf, -1
    total_evals = distinct = 0
    stop_at = scheme_sum_cap(scheme, network) - 1e-9
    for r in range(budget.restarts):
        x0 = _initial(scheme, network.P, np.random.default_rng(seeds[r]), r)
        memo = {}  # restarts seldom meet; one memo per restart bounds it by `iters`
        x, fx, ev = yield from _pattern_search(x0, step0, MIN_STEP, budget.iters, stop_at, memo)
        total_evals += ev
        distinct += len(memo)
        if fx > best_f + 1e-12:
            best_x, best_f, best_r = x, fx, r
        if best_f >= stop_at:
            break
    return best_x, best_f, {"restarts": budget.restarts, "best_restart": best_r,
                            "evals": total_evals, "distinct_evals": distinct}


def search_lanes(scheme: str, lanes) -> list[tuple]:
    """Run `optimize_scheme`'s search for every (network, budget) pair of
    `lanes`, whose networks share G and P, in lockstep: each round takes the
    next points of every unfinished lane through one stacked objective.
    Returns (best point or None, best value, diagnostics) per lane."""
    searches = [_lane_search(scheme, net, budget) for net, budget in lanes]
    results, live, values = [None] * len(lanes), range(len(lanes)), [None] * len(lanes)
    while live:
        points, running, nets = [], [], []
        for i in live:
            try:
                batch = searches[i].send(values[i])
            except StopIteration as stop:
                results[i] = stop.value
                continue
            running.append((i, len(batch)))
            points += batch
            nets += [lanes[i][0]] * len(batch)
        if points:
            f = _objective(scheme, np.array(points), nets)
            for i, n in running:
                values[i], f = f[:n], f[n:]
        live = [i for i, _ in running]
    return results


def _params_at(scheme: str, x: np.ndarray, P: float):
    """The parameters at one optimizer vector x."""
    with np.errstate(all="ignore"):
        return _lane(_to_params(scheme, x[None], P), 0)


def optimize_scheme(scheme: str, network: CranNetwork, budget: OptimizerBudget) -> SchemeEvaluation:
    """Best-effort maximization of a scheme's sum rate: the one-lane case of
    `search_lanes`.

    Deterministic given the seed: restart r uses the r-th spawned generator,
    and ties between restarts keep the lowest restart index.  The search
    stops early once the objective reaches `scheme_sum_cap`, which it
    provably cannot exceed.  The diagnostics count objective calls (`evals`)
    and the distinct points of each restart, computed once (`distinct_evals`).
    """
    if scheme not in GAUSSIAN_SCHEMES:
        raise ValueError(f"unknown Gaussian scheme {scheme!r}")
    ((x, f, diagnostics),) = search_lanes(scheme, [(network, budget)])
    params = None if x is None else _params_at(scheme, x, network.P)
    return SchemeEvaluation(scheme, params, max(0.0, f), diagnostics)


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
    nets = [[CranNetwork.make(G, P, [C, C], [[0.0, T], [T, 0.0]]) for C in c_grid]
            for T in t_values]
    grid = [(ti, ci) for ti in range(len(t_values)) for ci in range(len(c_grid))]
    best = [{} for _ in t_values]
    for si, scheme in enumerate(base_schemes):  # every (T, C) lane of a scheme in lockstep
        seeds = [np.random.SeedSequence(seed, spawn_key=(ti, si, ci)) for ti, ci in grid]
        found = search_lanes(scheme, [
            (nets[ti][ci], replace(budget, seed=int(s.generate_state(1)[0])))
            for (ti, ci), s in zip(grid, seeds)])
        for ti, row in enumerate(nets):  # the optima across the C grid, at every C
            pool = [_params_at(scheme, x, P) for (t, _), (x, _, _) in zip(grid, found)
                    if t == ti and x is not None]
            best[ti][scheme] = [max([0.0] + [scheme_sumrate(scheme, p, net) for p in pool])
                                for net in row]
    rows = []
    for ti, T in enumerate(t_values):
        if "GDS-TS" in schemes:
            best[ti]["GDS-TS"] = [max(r) for r in zip(*(best[ti][s] for s in timeshared))]
        for ci, C in enumerate(c_grid):
            rows.extend({"C": C, "T": T, "scheme": s, "sum_rate": best[ti][s][ci],
                         "cutset": min(2.0 * C, star), "rsum_star": star} for s in schemes)
    rows.sort(key=lambda r: (r["C"], r["T"], r["scheme"]))
    return rows
