import math
import re
from pathlib import Path

import numpy as np
import pytest

from cranbounds import cli, discrete
from cranbounds.discrete import (Channel, JointPmf, add_deterministic,
                                 atom_valuation, blahut_arimoto, compose,
                                 entropy, marginalize, mutual_info,
                                 random_joint_pmf, total_correlation)
from cranbounds.atoms import const_atom, gamma_atom, mi_atom
from cranbounds.verify import zchannel_pmf

GOLDEN = Path(__file__).parent / "golden"


def bern(p, name="X"):
    return JointPmf.make([(name, 2)], [1 - p, p])


def binary_entropy(p):
    q = 1 - p
    return -(p * math.log2(p) + q * math.log2(q)) if 0 < p < 1 else 0.0


def test_entropy_values():
    assert entropy(bern(0.5), {"X"}) == pytest.approx(1.0, abs=1e-12)
    uni4 = JointPmf.make([("X", 4)], np.full(4, 0.25))
    assert entropy(uni4, {"X"}) == pytest.approx(2.0, abs=1e-12)
    # direct -sum p log p evaluation
    assert entropy(bern(0.1), {"X"}) == pytest.approx(binary_entropy(0.1), abs=1e-12)
    assert entropy(bern(0.1), {"X"}) == pytest.approx(0.468996, abs=1e-6)


def test_pmf_validation():
    with pytest.raises(ValueError):
        JointPmf.make([("X", 2)], [0.7, 0.7])
    with pytest.raises(ValueError):
        JointPmf.make([("X", 2)], [-0.1, 1.1])
    with pytest.raises(ValueError):
        JointPmf.make([("X", 2), ("X", 2)], np.full((2, 2), 0.25))


def test_marginalize_identity_and_factor():
    p = random_joint_pmf(np.random.default_rng(0), [("A", 2), ("B", 3)])
    assert marginalize(p, {"A", "B"}) is p
    q = JointPmf.make([("A", 2), ("B", 2)],
                      np.outer([0.3, 0.7], [0.6, 0.4]))
    m = marginalize(q, {"B"})
    assert np.allclose(m.probs, [0.6, 0.4])
    with pytest.raises(KeyError):
        marginalize(q, {"Z"})


def test_marginal_of_zchannel_pair_is_uniform_independent():
    m = marginalize(zchannel_pmf(), {"U1", "X2"})
    assert np.allclose(m.probs, 0.25)


def test_compose_identity_channel_duplicates():
    p = bern(0.3, "X")
    ident = Channel.from_map([("X", 2)], [("Y", 2)], lambda x: x)
    j = compose(p, ident)
    assert mutual_info(j, {"X"}, {"Y"}) == pytest.approx(binary_entropy(0.3), abs=1e-12)


def test_compose_bsc_half_independent():
    p = bern(0.3, "X")
    bsc = Channel.make([("X", 2)], [("Y", 2)], np.full((2, 2), 0.5))
    j = compose(p, bsc)
    assert mutual_info(j, {"X"}, {"Y"}) == pytest.approx(0.0, abs=1e-12)


def test_compose_zchannel_output_entropy():
    p = zchannel_pmf()
    assert entropy(p, {"Y2"}) == pytest.approx(1.0, abs=1e-12)


def test_compose_errors():
    p = bern(0.3, "X")
    ch = Channel.from_map([("Z", 2)], [("Y", 2)], lambda x: x)
    with pytest.raises(ValueError):
        compose(p, ch)
    two = compose(p, Channel.from_map([("X", 2)], [("W", 2)], lambda x: x))
    clash = Channel.from_map([("W", 2)], [("X", 2)], lambda x: x)
    with pytest.raises(ValueError):
        compose(two, clash)
    wrong = Channel.from_map([("X", 3)], [("Y", 3)], lambda x: x)
    with pytest.raises(ValueError):
        compose(p, wrong)


def test_mutual_info_basics():
    ind = JointPmf.make([("A", 2), ("B", 2)], np.outer([0.4, 0.6], [0.2, 0.8]))
    assert mutual_info(ind, {"A"}, {"B"}) == pytest.approx(0.0, abs=1e-12)
    eq = JointPmf.make([("A", 2), ("B", 2)], np.diag([0.5, 0.5]))
    assert mutual_info(eq, {"A"}, {"B"}) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        mutual_info(eq, {"A"}, {"A"})


def test_zchannel_joint_mi_is_two_bits():
    p = zchannel_pmf()
    assert mutual_info(p, {"U1", "U2"}, {"X1", "X2"}) == pytest.approx(2.0, abs=1e-12)


def test_total_correlation():
    p = random_joint_pmf(np.random.default_rng(1), [("A", 2), ("B", 3)])
    assert total_correlation(p, {"A"}) == 0.0
    ind3 = JointPmf.make(
        [("A", 2), ("B", 2), ("C", 2)],
        np.einsum("i,j,k->ijk", [0.5, 0.5], [0.3, 0.7], [0.9, 0.1]))
    assert total_correlation(ind3, {"A", "B", "C"}) == pytest.approx(0.0, abs=1e-12)
    # three copies of one fair bit: 3*1 - 1 = 2
    copies = np.zeros((2, 2, 2))
    copies[0, 0, 0] = copies[1, 1, 1] = 0.5
    tri = JointPmf.make([("A", 2), ("B", 2), ("C", 2)], copies)
    assert total_correlation(tri, {"A", "B", "C"}) == pytest.approx(2.0, abs=1e-12)


def test_chain_rule_property():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = random_joint_pmf(rng, [("A", 2), ("B", 3), ("C", 2)])
        h_ab = entropy(p, {"A", "B"})
        h_a = entropy(p, {"A"})
        h_b_given_a = h_ab - h_a
        direct = entropy(p, {"A", "B"}) - entropy(p, {"A"})
        assert h_b_given_a == pytest.approx(direct, abs=1e-9)
        # I(A;B) = H(A)+H(B)-H(AB) >= 0 and Gamma matches it for pairs
        i_ab = mutual_info(p, {"A"}, {"B"})
        assert i_ab >= 0
        assert total_correlation(p, {"A", "B"}) == pytest.approx(i_ab, abs=1e-9)


def test_gamma_definition_identity():
    rng = np.random.default_rng(6)
    for _ in range(10):
        p = random_joint_pmf(rng, [("A", 2), ("B", 2), ("C", 3)])
        direct = (entropy(p, {"A"}) + entropy(p, {"B"}) + entropy(p, {"C"})
                  - entropy(p, {"A", "B", "C"}))
        assert total_correlation(p, {"A", "B", "C"}) == pytest.approx(direct, abs=1e-9)


def test_data_processing_on_relabeling():
    rng = np.random.default_rng(8)
    for _ in range(10):
        p = random_joint_pmf(rng, [("A", 3), ("B", 4)])
        table = rng.integers(0, 2, size=4)
        q = add_deterministic(p, "F", 2, ["B"], lambda b: int(table[b]))
        assert mutual_info(q, {"A"}, {"B"}) >= mutual_info(q, {"A"}, {"F"}) - 1e-9


def test_blahut_arimoto_noiseless_and_useless():
    ident = Channel.from_map([("X", 2)], [("Y", 2)], lambda x: x)
    cap, _ = blahut_arimoto(ident)
    assert cap == pytest.approx(1.0, abs=1e-7)
    bsc_half = Channel.make([("X", 2)], [("Y", 2)], np.full((2, 2), 0.5))
    cap, _ = blahut_arimoto(bsc_half)
    assert cap == pytest.approx(0.0, abs=1e-9)


def test_blahut_arimoto_bsc():
    eps = 0.1
    bsc = Channel.make([("X", 2)], [("Y", 2)], [[1 - eps, eps], [eps, 1 - eps]])
    cap, p_in = blahut_arimoto(bsc, tol=1e-12)
    assert cap == pytest.approx(1.0 - binary_entropy(eps), abs=1e-9)
    assert cap == pytest.approx(0.531004, abs=1e-5)
    assert np.allclose(p_in, 0.5, atol=1e-4)


def test_blahut_arimoto_bounded_by_alphabet():
    rng = np.random.default_rng(9)
    for _ in range(5):
        t = rng.dirichlet(np.ones(3), size=4)
        ch = Channel.make([("X", 4)], [("Y", 3)], t)
        cap, _ = blahut_arimoto(ch)
        assert -1e-9 <= cap <= math.log2(3) + 1e-9


def test_blahut_arimoto_rejects_multiterminal():
    ch = Channel.from_map([("X", 2), ("Z", 2)], [("Y", 2)], lambda x, z: x)
    with pytest.raises(ValueError):
        blahut_arimoto(ch)


def test_atom_valuation():
    rng = np.random.default_rng(10)
    p = random_joint_pmf(rng, [("A", 2), ("B", 2)])
    ind = JointPmf.make([("A", 2), ("B", 2)], np.outer([0.4, 0.6], [0.1, 0.9]))
    v = atom_valuation(ind, [gamma_atom(["A", "B"]), const_atom("C1")],
                       constants={"C1": 1.5})
    assert v["Gamma(A,B)"] == pytest.approx(0.0, abs=1e-12)
    assert v["C1"] == 1.5
    v2 = atom_valuation(p, [mi_atom(["A"], ["B"]), "H(A)"])
    assert v2["I(A;B)"] == pytest.approx(mutual_info(p, {"A"}, {"B"}), abs=1e-12)
    with pytest.raises(KeyError):
        atom_valuation(p, [const_atom("C9")])
    with pytest.raises(KeyError):
        atom_valuation(p, [mi_atom(["A"], ["Z"])])


def test_atom_valuation_full_theorem1_set(theorem1):
    from conftest import scenario_scheme2
    rng = np.random.default_rng(11)
    pmf = scenario_scheme2(rng)
    caps = {"C1": 1.0, "C2": 1.0, "C12": 0.5, "C21": 0.5}
    vals = atom_valuation(pmf, sorted(theorem1.atoms()), constants=caps)
    assert all(np.isfinite(v) for v in vals.values())
    for name, v in vals.items():
        if name.startswith("Gamma("):
            assert v >= 0.0


def test_atom_values_is_atom_valuation_in_list_order(theorem1):
    """The vector form holds the named form's values bit for bit, in the
    order of the atom list, clamped alike; a named constant reads 0."""
    from conftest import scenario_scheme2
    pmf = scenario_scheme2(np.random.default_rng(12))
    atoms = sorted(theorem1.atoms())
    caps = {"C1": 1.0, "C2": 1.0, "C12": 0.5, "C21": 0.5}
    named = atom_valuation(pmf, atoms, constants=caps)
    values = discrete.atom_values(pmf, atoms)
    assert values.shape == (len(atoms),)
    for name, v in zip(atoms, values.tolist()):
        assert v == (0.0 if name in caps else named[name])
    # an I atom whose raw signed entropy sum rounds below zero is clamped
    ind = JointPmf.make([("A", 2), ("B", 2)], np.outer([0.5, 0.5], [0.6, 0.4]))
    assert discrete.subset_entropies(ind, [("A",), ("B",), ("A", "B")]) @ [1, 1, -1] < 0
    assert discrete.atom_values(ind, ["I(A;B)"]).tolist() == [0.0]


def test_from_json_reads_the_committed_fixtures():
    p = cli._pmf((GOLDEN / "pmf_uvx1.json").read_text())
    assert p.variables == (("U", 2), ("V", 2), ("X1", 2))
    assert p.probs.tolist() == [[[0.125, 0.0625], [0.0625, 0.25]],
                                [[0.1875, 0.0625], [0.125, 0.125]]]
    ch = cli._channel((GOLDEN / "channel_x1_y1y2.json").read_text())
    assert ch.inputs == (("X1", 2),) and ch.outputs == (("Y1", 2), ("Y2", 2))
    assert ch.probs.tolist() == [[[0.75, 0.125], [0.0625, 0.0625]],
                                 [[0.0625, 0.125], [0.25, 0.5625]]]


def test_state_space_guard():
    # the guard fires on declared sizes before any tensor work
    with pytest.raises(ValueError):
        JointPmf.make([(f"X{i}", 10) for i in range(8)], np.zeros(1))


def test_nan_probabilities_are_rejected():
    with pytest.raises(ValueError):
        JointPmf.make([("A", 2), ("B", 2)], [np.nan, 0.5, 0.25, 0.25])
    with pytest.raises(ValueError):
        Channel.make([("X", 2)], [("Y", 2)], [[np.nan, 1.0], [0.5, 0.5]])


@pytest.mark.parametrize("probs", [
    ["0.5", "0.5"],  # was read as 0.5 each
    [True, False],  # was read as 1 and 0
    [True, 0.0],
    [np.True_, np.False_],
    np.array(["0.5", "0.5"]),
    np.array([True, False]),
    [b"1", 0.0],
])
def test_probabilities_want_numbers_not_strings_or_bools(probs):
    """The number rule of the pmf and channel files binds library calls too."""
    with pytest.raises(ValueError, match="pmf probabilities must be numbers"):
        JointPmf.make([("X", 2)], probs)
    with pytest.raises(ValueError, match="channel probabilities must be numbers"):
        Channel.make([("W", 1)], [("X", 2)], [probs])


def test_integer_and_float_probabilities_are_accepted():
    for probs in ([1, 0], np.array([0, 1]), np.array([0.5, 0.5], dtype=np.float32)):
        assert JointPmf.make([("X", 2)], probs).probs.dtype == float


@pytest.mark.parametrize("outputs, func, bad", [
    ([("Y", 2)], lambda x: -1, "(-1,)"),  # was read as Y = 1
    ([("Y", 2)], lambda x: 2, "(2,)"),  # was an IndexError
    ([("Y", 2), ("Z", 2)], lambda x: (x, 2 - x), "(0, 2)"),
], ids=["negative", "size", "second-output"])
def test_from_map_rejects_an_output_index_outside_its_alphabet(outputs, func, bad):
    with pytest.raises(ValueError, match=re.escape(f"channel output {bad} for input (0,)")):
        Channel.from_map([("X", 2)], outputs, func)


@pytest.mark.parametrize("axis, probs", [
    (("X", 2.9), [0.5, 0.5]),  # was truncated to size 2
    (("X", 2.0), [0.5, 0.5]),
    (("X", True), [1.0]),  # was read as size 1
    (("X", np.True_), [1.0]),
    ((3, 2), [0.5, 0.5]),  # was renamed "3"
    ((None, 2), [0.5, 0.5]),
])
def test_axes_want_string_names_and_integer_sizes(axis, probs):
    """The rule of the pmf and channel files binds library calls too."""
    with pytest.raises(ValueError, match=re.escape(repr(axis))):
        JointPmf.make([axis], probs)
    with pytest.raises(ValueError, match=re.escape(repr(axis))):
        Channel.make([("W", 1)], [axis], [probs])
    with pytest.raises(ValueError, match=re.escape(repr(axis))):
        Channel.from_map([axis], [("Y", 1)], lambda x: 0)
    with pytest.raises(ValueError, match=re.escape(repr(axis))):
        random_joint_pmf(np.random.default_rng(0), [axis])


def test_numpy_integer_sizes_and_string_names_are_accepted():
    p = JointPmf.make([(np.str_("X"), np.int64(2))], [0.5, 0.5])
    assert p.variables == (("X", 2),)
    assert type(p.variables[0][0]) is str and type(p.variables[0][1]) is int
    ch = Channel.make([("X", np.int32(2))], [("Y", np.uint8(1))], [[1.0], [1.0]])
    assert ch.inputs == (("X", 2),) and ch.outputs == (("Y", 1),)


@pytest.mark.parametrize("build", [
    lambda probs: JointPmf.make([("A", 2), ("B", 2)], probs),
    lambda probs: Channel.make([("A", 2)], [("B", 2)], 2 * probs),
])
def test_laws_hold_read_only_copies(build):
    probs = np.full((2, 2), 0.25)
    law = build(probs)
    before = law.probs.copy()
    assert not law.probs.flags.writeable
    with pytest.raises(ValueError):
        law.probs[0, 0] = 1.0
    probs[0, 0] = 9.0  # the caller's array stays its own and writeable
    assert np.array_equal(law.probs, before)
    assert law.probs.flags.c_contiguous
