"""The compiled discrete and Gaussian valuations against the per-atom
formulas they replaced.

The discrete oracle evaluates each atom on its own from `marginalize`d
pmfs, and the Gaussian oracle sums memoized subset log-pseudo-determinants
atom by atom.  That is how the two `atom_valuation`s worked before atoms
were compiled into one linear map over subset measures.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cranbounds import discrete, gaussian, verify
from cranbounds.atoms import (CONST, GAMMA, H, atom_plan, const_atom, gamma_atom, h_atom,
                              mi_atom, parse_atom)
from cranbounds.discrete import JointPmf, atom_valuation, marginalize
from cranbounds.gaussian import JointCovariance

NAMES = ("A", "B", "C", "D")
CONSTANTS = {"C1": 1.25, "C2": 0.5}


def oracle_entropy(pmf, subset):
    if not subset:
        return 0.0
    p = marginalize(pmf, subset).probs
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def oracle_valuation(pmf, atoms, constants):
    out = {}
    for atom in atoms:
        spec = parse_atom(atom) if isinstance(atom, str) else atom
        if spec.kind == CONST:
            out[spec.name] = float(constants[spec.const_name])
        elif spec.kind == H:
            out[spec.name] = oracle_entropy(pmf, set(spec.groups[0]))
        elif spec.kind == GAMMA:
            g = spec.groups[0]
            val = (sum(oracle_entropy(pmf, {v}) for v in g) - oracle_entropy(pmf, set(g))
                   if len(g) > 1 else 0.0)
            out[spec.name] = max(0.0, val)
        else:
            a, b = set(spec.groups[0]), set(spec.groups[1])
            c = set(spec.groups[2]) if len(spec.groups) == 3 else set()
            val = (oracle_entropy(pmf, a | c) + oracle_entropy(pmf, b | c)
                   - oracle_entropy(pmf, a | b | c) - oracle_entropy(pmf, c))
            out[spec.name] = max(0.0, val)
    return out


@st.composite
def pmfs(draw):
    n = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    cells = int(np.prod(sizes))
    weights = draw(st.lists(st.integers(0, 4), min_size=cells, max_size=cells)
                   .filter(lambda w: sum(w) > 0))
    probs = np.array(weights, dtype=float) / sum(weights)
    return JointPmf.make(list(zip(NAMES, sizes)), probs)


@st.composite
def atom_lists(draw, names):
    def group(pool):
        return draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))

    atoms = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["H", "I", "Gamma", "const"]))
        if kind == "H":
            spec = h_atom(group(names))
        elif kind == "Gamma":
            spec = gamma_atom(group(names))
        elif kind == "const":
            spec = const_atom(draw(st.sampled_from(sorted(CONSTANTS))))
        else:
            if len(names) < 2:
                continue
            a = group(names)
            rest = [v for v in names if v not in a]
            if not rest:
                continue
            b = group(rest)
            cond = draw(st.lists(st.sampled_from(rest), unique=True))
            spec = mi_atom(a, b, [v for v in cond if v not in b])
        atoms.append(spec.name if draw(st.booleans()) else spec)
    return atoms


@st.composite
def pmf_and_atoms(draw):
    pmf = draw(pmfs())
    return pmf, draw(atom_lists(list(pmf.names)))


@settings(max_examples=200, deadline=None)
@given(pmf_and_atoms())
def test_compiled_valuation_matches_oracle(case):
    pmf, atoms = case
    got = atom_valuation(pmf, atoms, constants=CONSTANTS)
    want = oracle_valuation(pmf, atoms, CONSTANTS)
    assert list(got) == list(want)
    for name, value in want.items():
        assert got[name] == pytest.approx(value, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(pmf_and_atoms(), st.sampled_from(["const", "variable", "spec"]),
       st.integers(0, 8))
def test_compiled_valuation_errors(case, fault, where):
    pmf, atoms = case
    bad = {"const": const_atom("C9"), "variable": h_atom(["Z"]), "spec": 3}[fault]
    atoms = atoms[:where] + [bad] + atoms[where:]
    error = TypeError if fault == "spec" else KeyError
    with pytest.raises(error):
        atom_valuation(pmf, atoms, constants=CONSTANTS)


def test_unknown_variable_in_atom_name():
    pmf = JointPmf.make([("A", 2)], [0.5, 0.5])
    with pytest.raises(KeyError):
        atom_valuation(pmf, ["I(A;Z)"])
    with pytest.raises(TypeError):
        atom_valuation(pmf, [None])


def test_subset_entropies_beyond_the_batch_budget():
    # 2**16 cells times 5 subsets is past the single-bincount budget, so each
    # subset is marginalised with its own index.
    pmf = discrete.random_joint_pmf(np.random.default_rng(3),
                                    [(f"X{i}", 2) for i in range(16)])
    subsets = [("X0",), ("X3", "X15"), (), tuple(f"X{i}" for i in range(16)), ("X9",)]
    assert pmf.probs.size * len(subsets) > discrete._INDEX_BUDGET
    got = discrete.subset_entropies(pmf, subsets)
    want = [oracle_entropy(pmf, set(s)) for s in subsets]
    assert got == pytest.approx(want, abs=1e-9)


def test_cached_subset_entropies_allocate_nothing_index_sized():
    """A repeated call on a cached index tiles the pmf into the entry's own
    scratch and hands `np.bincount` a writeable index, so it allocates no
    temporary as large as the index (188 KB here).  Such a temporary can cost
    fresh pages from the allocator on every call, which made the Z-network
    check about 1.5 times slower or not, depending on unrelated allocations."""
    names = [f"X{i}" for i in range(8)]
    pmf = discrete.random_joint_pmf(np.random.default_rng(4), [(n, 2) for n in names])
    subsets = [s for k in (1, 2, 3) for s in itertools.combinations(names, k)]
    first = discrete.subset_entropies(pmf, subsets)
    tracemalloc.start()
    try:
        again = discrete.subset_entropies(pmf, subsets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(first, again)
    assert peak < pmf.probs.size * len(subsets) * 8 // 4


def test_plan_is_read_only():
    pmf = JointPmf.make([("A", 2), ("B", 2)], np.full((2, 2), 0.25))
    plan = atom_plan(pmf.names, ("I(A;B)", "H(A)"))
    assert not plan.coeffs.flags.writeable and not plan.clamp.flags.writeable
    assert plan.subsets == (("A",), ("B",), ("A", "B"))


def old_random_gds_pmf_zchannel(rng):
    """The pmf build before it was vectorised: one channel per output."""
    aux = [("U0", 2), ("V0", 2), ("U1", 2), ("V1", 2), ("U2", 2), ("V2", 2)]
    p = discrete.random_joint_pmf(rng, aux)
    f1 = rng.integers(0, 2, size=(2, 2, 2, 2))
    f2 = rng.integers(0, 2, size=(2, 2, 2, 2))
    p = discrete.add_deterministic(p, "X1", 2, ["U0", "V0", "U1", "V1"],
                                   lambda a, b, c, d: int(f1[a, b, c, d]))
    p = discrete.add_deterministic(p, "X2", 2, ["U0", "V0", "U2", "V2"],
                                   lambda a, b, c, d: int(f2[a, b, c, d]))
    p = discrete.add_deterministic(p, "Y1", 2, ["X1"], lambda a: a)
    p = discrete.add_deterministic(p, "Y2", 2, ["X1", "X2"], lambda a, b: a ^ b)
    return discrete.marginalize(p, ["U0", "V0", "U1", "V1", "U2", "V2", "Y1", "Y2"])


def old_zchannel_pmf():
    """The witness before it was built by index arithmetic: one deterministic
    channel per derived variable."""
    base = JointPmf.make([("U1", 2), ("U2", 2)], np.full((2, 2), 0.25))
    p = JointPmf.make([("U1", 2), ("U2", 2), ("X0", 1)], base.probs.reshape(2, 2, 1))
    p = discrete.add_deterministic(p, "X1", 2, ["U1"], lambda a: a)
    p = discrete.add_deterministic(p, "X2", 2, ["U1", "U2"], lambda a, b: a ^ b)
    p = discrete.add_deterministic(p, "Y1", 2, ["X1"], lambda a: a)
    return discrete.add_deterministic(p, "Y2", 2, ["X1", "X2"], lambda a, b: a ^ b)


def test_zchannel_witness_is_bit_identical():
    old, new = old_zchannel_pmf(), verify.zchannel_pmf()
    assert new.variables == old.variables
    assert new.probs.shape == old.probs.shape and new.probs.tobytes() == old.probs.tobytes()


@pytest.mark.parametrize("seed", range(50))
def test_zchannel_pmf_build_is_bit_identical(seed):
    old_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    old = old_random_gds_pmf_zchannel(old_rng)
    new = verify.random_gds_pmf_zchannel(new_rng)
    assert new.variables == old.variables
    assert np.array_equal(new.probs, old.probs)
    # both consumed the same draws
    assert new_rng.random() == old_rng.random()


def logpdet2(m, cut):
    """Base-2 log pseudo-determinant and rank of one block, dropping
    eigenvalues <= cut: the per-block loop that `subset_logpdets` ran before
    it grouped blocks by size."""
    n = m.shape[0] if m.ndim == 2 else 0
    if n == 0:
        return 0.0, 0
    if n == 1:
        v = float(m[0, 0])
        return (math.log2(v), 1) if v > cut else (0.0, 0)
    if n == 2:
        # closed-form symmetric 2x2 eigenvalues
        a, d = float(m[0, 0]), float(m[1, 1])
        off = 0.5 * float(m[0, 1] + m[1, 0])
        h = 0.5 * (a + d)
        r = math.sqrt(max(0.0, (0.5 * (a - d)) ** 2 + off * off))
        total, rank = 0.0, 0
        for w in (h - r, h + r):
            if w > cut:
                total += math.log2(w)
                rank += 1
        return total, rank
    w = np.linalg.eigvalsh(0.5 * (m + m.T))
    kept = w[w > cut]
    if kept.size == 0:
        return 0.0, 0
    return float(np.log2(kept).sum()), int(kept.size)


def oracle_cut(cov):
    return gaussian._EIG_REL_TOL * max(np.linalg.eigvalsh(cov.matrix).max(initial=0.0), 0.0)


def oracle_subset_logpdets(cov, subsets):
    cut = oracle_cut(cov)
    return [logpdet2(cov.block(sorted(s)), cut) for s in subsets]


def oracle_gaussian_valuation(cov, atoms, constants):
    cut = oracle_cut(cov)

    def lpd(subset):
        return logpdet2(cov.block(sorted(subset)), cut)

    out = {}
    for atom in atoms:
        spec = parse_atom(atom) if isinstance(atom, str) else atom
        if spec.kind == CONST:
            out[spec.name] = float(constants[spec.const_name])
        elif spec.kind == GAMMA:
            g = spec.groups[0]
            if len(g) < 2:
                out[spec.name] = 0.0
                continue
            lj, rj = lpd(g)
            singles = [lpd((n,)) for n in g]
            total, rank_sum = sum(l for l, _ in singles), sum(r for _, r in singles)
            out[spec.name] = np.inf if rj < rank_sum else max(0.0, 0.5 * (total - lj))
        else:
            a, b = set(spec.groups[0]), set(spec.groups[1])
            c = set(spec.groups[2]) if len(spec.groups) == 3 else set()
            lac, rac = lpd(a | c)
            lbc, rbc = lpd(b | c)
            labc, rabc = lpd(a | b | c)
            lc, rc = lpd(c)
            out[spec.name] = (np.inf if rac + rbc > rabc + rc
                              else max(0.0, 0.5 * (lac + lbc - labc - lc)))
    return out


@st.composite
def covariances(draw):
    """F F^T for an integer factor F whose component blocks are free, zero
    (a zero-variance component) or integer combinations of earlier rows (a
    component that is a linear function of others)."""
    n = draw(st.integers(1, 4))
    dims = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    k = draw(st.integers(1, sum(dims) + 1))
    entries = st.integers(-3, 3)
    rows = []
    for d in dims:
        kind = draw(st.sampled_from(["free", "free", "zero", "linear"]))
        for _ in range(d):
            if kind == "zero":
                rows.append([0] * k)
            elif kind == "linear" and rows:
                w = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
                rows.append(list(np.array(w) @ np.array(rows)))
            else:
                rows.append(draw(st.lists(entries, min_size=k, max_size=k)))
    f = np.array(rows, dtype=float)
    return JointCovariance.make(list(zip(NAMES, dims)), f @ f.T)


@st.composite
def cov_and_subsets(draw):
    """A covariance and component subsets of fewer than 8 dimensions, in any
    name order, repeats allowed."""
    cov = draw(covariances())
    dims = dict(cov.components)
    subsets = draw(st.lists(st.lists(st.sampled_from(cov.names), unique=True).map(tuple),
                            max_size=16))
    return cov, [s for s in subsets if sum(dims[n] for n in s) < 8]


@settings(max_examples=300, deadline=None)
@given(cov_and_subsets())
def test_subset_logpdets_is_bit_identical_to_the_per_block_loop(case):
    """Below 8 dimensions NumPy sums a block's logs one by one, so the
    dropped eigenvalues' zeros leave the sum unchanged: logs and ranks equal
    the per-block loop's exactly, also for a covariance built without
    `make` from its own largest eigenvalue."""
    cov, subsets = case
    want = oracle_subset_logpdets(cov, subsets)
    top = max(np.linalg.eigvalsh(cov.matrix).max(initial=0.0), 0.0)
    for c in (cov, JointCovariance(cov.components, cov.matrix, top)):
        logs, ranks = gaussian.subset_logpdets(c, subsets)
        assert logs.tolist() == [log for log, _ in want]
        assert ranks.tolist() == [rank for _, rank in want]


def test_subset_logpdets_takes_small_blocks_through_math_log2():
    """np.log2 differs from math.log2 in the last bit on about 3 in 10^4
    values, and the per-block loop took 1x1 and 2x2 blocks through
    math.log2: 3,000 random covariances give 12,000 scalar blocks and 36,000
    logs of 2x2 eigenvalues."""
    rng = np.random.default_rng(5)
    subsets = [(n,) for n in NAMES] + list(itertools.combinations(NAMES, 2))
    for _ in range(3000):
        f = rng.normal(size=(4, 4))
        cov = JointCovariance.make([(n, 1) for n in NAMES], f @ f.T)
        logs, _ = gaussian.subset_logpdets(cov, subsets)
        assert logs.tolist() == [log for log, _ in oracle_subset_logpdets(cov, subsets)]


def test_subset_logpdets_on_blocks_of_eight_or_more_dimensions():
    """From 8 dimensions up NumPy sums pairwise, so the zeros that stand for
    dropped eigenvalues can change the order of the additions: ranks are
    equal, and logs agree only to within 1e-12 relative."""
    f = np.random.default_rng(3).normal(size=(9, 6))  # rank 6 of 9
    cov = JointCovariance.make([("A", 4), ("B", 4), ("C", 1)], f @ f.T)
    subsets = [("A", "B", "C"), ("B", "A"), ("A", "C"), ("C",), ("B",), ()]
    logs, ranks = gaussian.subset_logpdets(cov, subsets)
    want = oracle_subset_logpdets(cov, subsets)
    assert ranks.tolist() == [rank for _, rank in want] == [6, 6, 5, 1, 4, 0]
    assert logs.tolist() == pytest.approx([log for log, _ in want], rel=1e-12)


@st.composite
def cov_and_atoms(draw):
    cov = draw(covariances())
    atoms = draw(atom_lists(list(cov.names)))
    return cov, [a for a in atoms
                 if (parse_atom(a) if isinstance(a, str) else a).kind != H]


@settings(max_examples=300, deadline=None)
@given(cov_and_atoms())
def test_compiled_gaussian_valuation_matches_oracle(case):
    cov, atoms = case
    got = gaussian.atom_valuation(cov, atoms, constants=CONSTANTS)
    want = oracle_gaussian_valuation(cov, atoms, CONSTANTS)
    assert list(got) == list(want)
    assert {k for k, v in got.items() if v == np.inf} == \
        {k for k, v in want.items() if v == np.inf}
    for name, value in want.items():
        if np.isfinite(value):
            assert got[name] == pytest.approx(value, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(cov_and_atoms(), st.sampled_from(["entropy", "component", "const"]),
       st.integers(0, 8))
def test_compiled_gaussian_valuation_errors(case, fault, where):
    cov, atoms = case
    bad = {"entropy": h_atom([cov.names[0]]), "component": mi_atom(["A"], ["Z"]),
           "const": const_atom("C9")}[fault]
    atoms = atoms[:where] + [bad] + atoms[where:]
    with pytest.raises(ValueError if fault == "entropy" else KeyError):
        gaussian.atom_valuation(cov, atoms, constants=CONSTANTS)


def test_gaussian_and_discrete_share_one_plan_cache():
    atoms = ("I(A;B)", "Gamma(A,B)")
    pmf = JointPmf.make([("A", 2), ("B", 2)], np.full((2, 2), 0.25))
    cov = JointCovariance.make([("A", 1), ("B", 1)], np.eye(2))
    discrete.atom_values(pmf, atoms)
    before = atom_plan.cache_info()
    gaussian.atom_values(cov, atoms)  # finds the plan the discrete call compiled
    after = atom_plan.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
