"""The compiled discrete valuation against the per-atom formulas it replaced.

The oracle below evaluates each atom on its own from `marginalize`d pmfs,
which is how `atom_valuation` worked before atoms were compiled into one
linear map over subset entropies.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cranbounds import discrete, verify
from cranbounds.atoms import (CONST, GAMMA, H, const_atom, gamma_atom, h_atom,
                              mi_atom, parse_atom)
from cranbounds.discrete import JointPmf, atom_valuation, marginalize

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


def test_plan_is_read_only():
    pmf = JointPmf.make([("A", 2), ("B", 2)], np.full((2, 2), 0.25))
    plan = discrete._plan(pmf.variables, ("I(A;B)", "H(A)"))
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


@pytest.mark.parametrize("seed", range(50))
def test_zchannel_pmf_build_is_bit_identical(seed):
    old_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    old = old_random_gds_pmf_zchannel(old_rng)
    new = verify.random_gds_pmf_zchannel(new_rng)
    assert new.variables == old.variables
    assert np.array_equal(new.probs, old.probs)
    # both consumed the same draws
    assert new_rng.random() == old_rng.random()
