"""Constant-gap audit: relaxed decode-forward inner bound versus relaxed
cut-set outer bound, cut by cut, for N-BS L-user Gaussian networks.

Both relaxed bounds share their fronthaul/cooperation and log-det terms and
differ only by an additive slack, so the per-cut gap has a closed form; the
audit checks every cut of randomized instances against the power-independent
bound L/2 + min(N, L log2 N)/2.  `audit` takes all log-dets of one |D| in one
stacked `capacity_logdet` call: G(D, :) with the columns outside S zeroed, K = P I.
Its reports give every cut's inner and outer value.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .gaussian import CranNetwork, capacity_logdet
from .regions import MAX_NODES, _subsets_lex, cut_capacity

__all__ = [
    "CutReport",
    "cut_gap_formula",
    "gap_bound",
    "audit",
    "random_network",
    "audit_random_instances",
]


@dataclass(frozen=True)
class CutReport:
    S: tuple[int, ...]
    D: tuple[int, ...]
    inner: float
    outer: float

    @property
    def gap(self) -> float:
        return self.outer - self.inner


def _slack(n_s: int, n_d: int) -> float:
    return 0.5 * min(n_s, n_d * np.log2(n_s))


def cut_gap_formula(n_s: int, n_d: int) -> float:
    """Algebraic outer-minus-inner gap of one cut: zero for the empty BS
    cut, else |D|/2 + min(|S|, |D| log2 |S|)/2."""
    return n_d / 2.0 + _slack(n_s, n_d) if n_s else 0.0


def gap_bound(N: int, L: int) -> float:
    """Power-independent achievability gap: L/2 + min(N, L log2 N)/2 bits
    per dimension."""
    return L / 2.0 + 0.5 * min(N, L * np.log2(N))


def audit(network: CranNetwork) -> dict:
    """Evaluate every (S, nonempty D) cut; passes iff the inner bound never
    exceeds the outer and the worst gap respects the closed-form bound."""
    users = range(1, network.L + 1)
    subsets = _subsets_lex(range(1, network.N + 1))  # the empty S first
    base = [cut_capacity(network, s) for s in subsets]
    mask = np.array([[k in s for k in range(1, network.N + 1)] for s in subsets[1:]], float)
    cuts = dict.fromkeys(_subsets_lex(users)[1:])  # D -> [(inner, outer) for each S]
    for l in users:
        ds = list(combinations(users, l))
        g = mask[:, None, None, :] * network.G[np.array(ds) - 1]
        shared = np.array(base[1:])[:, None] + capacity_logdet(g, network.P * np.eye(network.N))
        slack = [[_slack(len(s), l)] for s in subsets[1:]]
        for d, lo, hi in zip(ds, (shared - l / 2.0).T.tolist(), (shared + slack).T.tolist()):
            cuts[d] = [(base[0], base[0])] + list(zip(lo, hi))
    reports = [CutReport(s, d, *c[i]) for i, s in enumerate(subsets) for d, c in cuts.items()]
    max_gap = max(r.gap for r in reports)
    bound = gap_bound(network.N, network.L)
    ok = max_gap <= bound + 1e-9 and all(r.inner <= r.outer + 1e-9 for r in reports)
    return {"max_gap": max_gap, "bound": bound, "pass": bool(ok), "reports": reports}


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
    if instances < 1:
        raise ValueError(f"instances must be at least 1, got {instances}")
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
