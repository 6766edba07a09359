"""Gaussian cut bounds over the cut grid `regions.cuts`: the cut-set region
of an input covariance, and the constant-gap audit of the relaxed
decode-forward inner bound against the relaxed cut-set outer bound, each
cut's capacity term from `cut_capacity`.  The relaxed bounds differ only by
an additive slack, so each cut's gap has a closed form; the worst is checked
against L/2 + min(N, L log2 N)/2.  `audit` reads all that depends on (N, L)
alone from one cached plan, then takes the log-dets of each |D| in one stacked
`capacity_logdet` call (G(D, :) with the columns outside S zeroed, K = P I).
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

from .atoms import checked_int
from .gaussian import CranNetwork, JointCovariance, capacity_logdet, schur_conditional
from .polytope import AffineExpr, ConstraintSystem
from .regions import MAX_NODES, cuts

__all__ = [
    "cut_capacity",
    "cutset_region",
    "cut_gap_formula",
    "gap_bound",
    "audit",
    "random_network",
    "audit_random_instances",
]


def _links(N: int, s) -> tuple[tuple, tuple]:
    """0-based indices of the BSs outside S, and of the links from S into them in flat `Ccoop`."""
    out = tuple(k for k in range(N) if k + 1 not in s)
    return out, tuple(k * N + j - 1 for j in s for k in out)


def _capacity(c: list, t: list, out: tuple, coop: tuple) -> float:
    return sum(c[k] for k in out) + sum(t[i] for i in coop)


def cut_capacity(network: CranNetwork, s) -> float:
    """Capacity term of BS cut S: the fronthaul into every BS outside S plus
    every cooperation link from a BS in S into one outside it."""
    return _capacity(network.C.tolist(), network.Ccoop.ravel().tolist(), *_links(network.N, s))


def cutset_region(network: CranNetwork, K: JointCovariance) -> ConstraintSystem:
    """Cut-set bound for a Gaussian input law: one numeric constraint per
    (S, D) cut, R(D) <= cut_capacity(S) + (1/2) log2 det(I + G(D, S) K(S | S^c) G(D, S)^T)."""
    S, D = cuts(network.N, network.L)
    names = [f"X{k}" for k in range(1, network.N + 1)]
    if set(K.names) != set(names) or K.matrix.shape != (network.N, network.N):
        raise ValueError(f"K must cover scalar components {names}")
    if np.any(np.diag(K.block(names)) > network.P + 1e-9):
        raise ValueError("input covariance violates the per-BS power constraint")
    sys_ = ConstraintSystem([f"R{l}" for l in range(1, network.L + 1)])
    for s in S:
        cap_term = cut_capacity(network, s)
        if s:  # K(S | S^c) depends on S alone
            rest = [f"X{k}" for k in range(1, network.N + 1) if k not in s]
            k_cond = schur_conditional(K, [f"X{k}" for k in s], rest).matrix
        for d in D:
            signal = (capacity_logdet(network.G[np.ix_(np.subtract(d, 1), np.subtract(s, 1))],
                                      k_cond) if s else 0.0)
            sys_.add({f"R{l}": 1 for l in d}, AffineExpr.constant(Fraction(cap_term + signal)))
    return sys_


def cut_gap_formula(n_s: int, n_d: int) -> float:
    """Algebraic outer-minus-inner gap of one cut: zero for the empty BS
    cut, else |D|/2 + min(|S|, |D| log2 |S|)/2."""
    return n_d / 2.0 + 0.5 * min(n_s, n_d * np.log2(n_s)) if n_s else 0.0


def gap_bound(N: int, L: int) -> float:
    """Power-independent achievability gap L/2 + min(N, L log2 N)/2 bits per
    dimension: the gap of the full cut."""
    return cut_gap_formula(N, L)


@functools.lru_cache(maxsize=MAX_NODES ** 2)  # every (N, L) shape
def _plan(N: int, L: int) -> tuple:
    """All that `audit` needs of the shape (N, L) alone; every array is read-only."""
    S, D = cuts(N, L)
    mask = np.array([[k in s for k in range(1, N + 1)] for s in S[1:]], float)[:, None, None]
    n_s, n_d = np.array([len(s) for s in S])[:, None], np.array([len(d) for d in D])
    cols = [np.flatnonzero(n_d == l) for l in range(1, L + 1)]
    groups = tuple((c, np.array([D[j] for j in c]) - 1) for c in cols)
    # the empty S (n_s = 0) keeps its capacity term on both sides: log2 max(0, 1) = 0
    slack = ((n_s > 0) * n_d / 2.0, 0.5 * np.minimum(n_s, n_d * np.log2(np.maximum(n_s, 1))))
    for a in (mask, *slack, *(x for group in groups for x in group)):
        a.flags.writeable = False
    return tuple(S), tuple(D), mask, groups, *slack, tuple(_links(N, s) for s in S)


def audit(network: CranNetwork) -> dict:
    """Evaluate every (S, nonempty D) cut; passes iff the inner bound never
    exceeds the outer and the worst gap respects the closed-form bound.
    `inner` and `outer` have shape (len(S), len(D)) over `S, D = regions.cuts(N, L)`."""
    S, D, mask, groups, inner_slack, outer_slack, links = _plan(network.N, network.L)
    c, t = network.C.tolist(), network.Ccoop.ravel().tolist()
    shared = np.repeat([[_capacity(c, t, *ls)] for ls in links], len(D), axis=1)
    for cols, users in groups:
        shared[1:, cols] += capacity_logdet(mask * network.G[users], network.P * np.eye(network.N))
    inner, outer = shared - inner_slack, shared + outer_slack
    max_gap = float((outer - inner).max())
    bound = gap_bound(network.N, network.L)
    ok = max_gap <= bound + 1e-9 and np.all(inner <= outer + 1e-9)
    return {"S": list(S), "D": list(D), "inner": inner, "outer": outer,
            "max_gap": max_gap, "bound": bound, "pass": bool(ok)}


def random_network(rng: np.random.Generator, nmax: int = 4, lmax: int = 4) -> CranNetwork:
    """Random Gaussian instance: N, L up to the caps (1 to `MAX_NODES`),
    gains in [-2, 2], power in [0.1, 100], capacities in [0, 5]."""
    if not (1 <= nmax <= MAX_NODES and 1 <= lmax <= MAX_NODES):
        raise ValueError(f"nmax and lmax must be at most {MAX_NODES} and at least 1, "
                         f"got {nmax} and {lmax}")
    N = int(rng.integers(1, nmax + 1))
    L = int(rng.integers(1, lmax + 1))
    G = rng.uniform(-2.0, 2.0, size=(L, N))
    P = float(rng.uniform(0.1, 100.0))
    C = rng.uniform(0.0, 5.0, size=N)
    Ccoop = rng.uniform(0.0, 5.0, size=(N, N))
    np.fill_diagonal(Ccoop, 0.0)
    return CranNetwork.make(G, P, C, Ccoop)


def audit_random_instances(instances: int, seed: int, nmax: int = 4,
                           lmax: int = 4) -> dict:
    """Audit a batch of seeded random networks; deterministic given seed."""
    instances = int(checked_int(instances, "instances", 1))
    rng = np.random.default_rng(seed)
    worst = {"max_gap": -np.inf}
    all_pass = True
    for i in range(instances):
        net = random_network(rng, nmax, lmax)
        rep = audit(net)
        all_pass &= rep["pass"]
        if rep["max_gap"] > worst["max_gap"]:
            worst = {"instance": i, "N": net.N, "L": net.L,
                     "max_gap": rep["max_gap"], "bound": rep["bound"]}
    return {"instances": instances, "seed": seed, "all_pass": bool(all_pass),
            "worst": worst}
