"""Constant-gap audit: relaxed decode-forward inner bound versus relaxed
cut-set outer bound, cut by cut, for N-BS L-user Gaussian networks.

Both relaxed bounds share their fronthaul/cooperation and log-det terms and
differ only by an additive slack, so the per-cut gap has a closed form; the
audit checks every cut of randomized instances against the power-independent
bound L/2 + min(N, L log2 N)/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import CranNetwork, capacity_logdet
from .regions import _subsets_lex

__all__ = [
    "CutReport",
    "ddf_inner_relaxed",
    "cutset_outer_relaxed",
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


def _cap_terms(network: CranNetwork, s: tuple[int, ...]) -> float:
    s_c = [k for k in range(1, network.N + 1) if k not in s]
    total = sum(float(network.C[k - 1]) for k in s_c)
    total += sum(float(network.Ccoop[k - 1][j - 1]) for j in s for k in s_c)
    return total


def _signal_term(network: CranNetwork, d, s) -> float:
    g = network.G_cut(d, s)
    return capacity_logdet(g, network.P * np.eye(len(s)))


def ddf_inner_relaxed(network: CranNetwork, d, s) -> float:
    """Relaxed decode-forward cut value: fronthaul/cooperation terms plus
    (1/2) log det(I + P G(D,S) G(D,S)^T) - |D|/2.

    For the empty BS cut the signal term is absent and the bound equals the
    fronthaul sum exactly (no -|D|/2 correction to relax).
    """
    d, s = tuple(sorted(set(d))), tuple(sorted(set(s)))
    if not d:
        raise ValueError("user subset D must be nonempty")
    base = _cap_terms(network, s)
    if not s:
        return base
    return base + _signal_term(network, d, s) - len(d) / 2.0


def cutset_outer_relaxed(network: CranNetwork, d, s) -> float:
    """Relaxed cut-set value: same capacity and log-det terms plus the slack
    (1/2) min(|S|, |D| log2 |S|); exact fronthaul sum when S is empty."""
    d, s = tuple(sorted(set(d))), tuple(sorted(set(s)))
    if not d:
        raise ValueError("user subset D must be nonempty")
    base = _cap_terms(network, s)
    if not s:
        return base
    slack = 0.5 * min(len(s), len(d) * np.log2(len(s)))
    return base + _signal_term(network, d, s) + slack


def cut_gap_formula(n_s: int, n_d: int) -> float:
    """Algebraic outer-minus-inner gap of one cut: zero for the empty BS
    cut, else |D|/2 + min(|S|, |D| log2 |S|)/2."""
    if n_s == 0:
        return 0.0
    return n_d / 2.0 + 0.5 * min(n_s, n_d * np.log2(n_s))


def gap_bound(N: int, L: int) -> float:
    """Power-independent achievability gap: L/2 + min(N, L log2 N)/2 bits
    per dimension."""
    return L / 2.0 + 0.5 * min(N, L * np.log2(N))


def audit(network: CranNetwork) -> dict:
    """Evaluate every (S, nonempty D) cut; passes iff the inner bound never
    exceeds the outer and the worst gap respects the closed-form bound."""
    users = list(range(1, network.L + 1))
    bss = list(range(1, network.N + 1))
    reports = []
    for s in _subsets_lex(bss):
        for d in _subsets_lex(users):
            if not d:
                continue
            reports.append(CutReport(tuple(s), tuple(d),
                                     ddf_inner_relaxed(network, d, s),
                                     cutset_outer_relaxed(network, d, s)))
    max_gap = max(r.gap for r in reports)
    bound = gap_bound(network.N, network.L)
    ok = max_gap <= bound + 1e-9 and all(r.inner <= r.outer + 1e-9 for r in reports)
    return {"max_gap": max_gap, "bound": bound, "pass": bool(ok), "reports": reports}


def random_network(rng: np.random.Generator, nmax: int = 4, lmax: int = 4) -> CranNetwork:
    """Random Gaussian instance: N, L up to the caps, gains in [-2, 2],
    power in [0.1, 100], capacities in [0, 5]."""
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
