"""Per-cut gap audit, kept as a test oracle for the batched `gapaudit.audit`.

Each cut takes its own 2-D `capacity_logdet` of G(D, S) with K = P I_|S|,
shared by the two relaxed bounds; the cuts are visited in (S, D)
lexicographic order, and each is one (S, D, inner, outer) tuple.
"""

import numpy as np

from cranbounds import gapaudit
from cranbounds.regions import _subsets_lex, cut_capacity


def relaxed_bounds(network, d, s) -> tuple[float, float]:
    """(inner, outer) relaxed values of one cut from one shared log-det."""
    d, s = tuple(sorted(set(d))), tuple(sorted(set(s)))
    base = cut_capacity(network, s)
    if not s:
        return base, base
    shared = base + gapaudit.capacity_logdet(network.G_cut(d, s), network.P * np.eye(len(s)))
    return shared - len(d) / 2.0, shared + 0.5 * min(len(s), len(d) * np.log2(len(s)))


def audit(network) -> dict:
    users = list(range(1, network.L + 1))
    bss = list(range(1, network.N + 1))
    cuts = [(s, d, *relaxed_bounds(network, d, s))
            for s in _subsets_lex(bss) for d in _subsets_lex(users) if d]
    max_gap = max(outer - inner for _, _, inner, outer in cuts)
    bound = gapaudit.gap_bound(network.N, network.L)
    ok = max_gap <= bound + 1e-9 and all(inner <= outer + 1e-9 for _, _, inner, outer in cuts)
    return {"max_gap": max_gap, "bound": bound, "pass": bool(ok), "cuts": cuts}
