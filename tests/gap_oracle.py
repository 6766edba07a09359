"""Per-cut Gaussian cut bounds, kept as the test oracle for `gapaudit`.

Every cut takes its own 2-D log-det of G(D, S) from this module's
`capacity_logdet`, which clips every K by an eigensolve and so shares no
code with the package kernel it checks, its capacity term from
`conftest.caps_valuation`, and, for the cut-set region, its own K(S | S^c).
The cuts are visited in (S, D) lexicographic order, the empty S first, from
`itertools` rather than from `regions.cuts`.
"""

from fractions import Fraction
from itertools import chain, combinations

import numpy as np

from conftest import caps_valuation
from cranbounds import gapaudit, polytope
from cranbounds.gaussian import schur_conditional


def capacity_logdet(g_sub, k_sub) -> float:
    """(1/2) log2 det(I + G K G^T) of one matrix G, K always clipped to the PSD
    cone by an eigensolve of its symmetric part."""
    g, k = np.asarray(g_sub, dtype=float), np.asarray(k_sub, dtype=float)
    if g.size == 0:
        return 0.0
    w, v = np.linalg.eigh(0.5 * (k + k.T))
    k = (v * np.clip(w, 0.0, None)) @ v.T
    sign, logdet = np.linalg.slogdet(np.eye(g.shape[-2]) + g @ k @ np.swapaxes(g, -1, -2))
    assert sign > 0 and np.isfinite(logdet)
    return float(np.where(logdet > 0.0, logdet / np.log(2.0) * 0.5, 0.0))


def grid(network) -> list[tuple[tuple, tuple]]:
    """Every (S, nonempty D) cut as sorted tuples, S-major."""
    def subsets(n):
        nodes = range(1, n + 1)
        return sorted(chain.from_iterable(combinations(nodes, r) for r in range(n + 1)))
    return [(s, d) for s in subsets(network.N) for d in subsets(network.L) if d]


def cut_value(network, d, s, K=None) -> float:
    """Capacity term plus (1/2) log2 det(I + G(D, S) K_S G(D, S)^T) of one cut,
    with K_S = K(S | S^c), or P I_|S| when K is None."""
    caps = caps_valuation(network)
    s_c = [k for k in range(1, network.N + 1) if k not in s]
    value = sum(caps[f"C{k}"] for k in s_c)
    value += sum(caps[f"C{k}{j}"] for j in s for k in s_c)
    if not s:
        return value
    if K is None:
        k_s = network.P * np.eye(len(s))
    else:
        k_s = schur_conditional(K, [f"X{k}" for k in s], [f"X{k}" for k in s_c]).matrix
    g = network.G[np.ix_([l - 1 for l in d], [k - 1 for k in s])]
    return value + capacity_logdet(g, k_s)


def relaxed_bounds(network, d, s) -> tuple[float, float]:
    """(inner, outer) relaxed values of one cut from one shared log-det."""
    d, s = tuple(sorted(set(d))), tuple(sorted(set(s)))
    shared = cut_value(network, d, s)
    if not s:
        return shared, shared
    return shared - len(d) / 2.0, shared + 0.5 * min(len(s), len(d) * np.log2(len(s)))


def cutset_region(network, K):
    """`gapaudit.cutset_region` with K(S | S^c) recomputed for every cut."""
    sys_ = polytope.ConstraintSystem([f"R{l}" for l in range(1, network.L + 1)])
    for s, d in grid(network):
        sys_.add({f"R{l}": 1 for l in d},
                 polytope.AffineExpr.constant(Fraction(cut_value(network, d, s, K))))
    return sys_


def audit(network) -> dict:
    cuts = [(s, d, *relaxed_bounds(network, d, s)) for s, d in grid(network)]
    max_gap = max(outer - inner for _, _, inner, outer in cuts)
    bound = gapaudit.gap_bound(network.N, network.L)
    ok = max_gap <= bound + 1e-9 and all(inner <= outer + 1e-9 for _, _, inner, outer in cuts)
    return {"max_gap": max_gap, "bound": bound, "pass": bool(ok), "cuts": cuts}
