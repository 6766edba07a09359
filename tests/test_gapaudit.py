import numpy as np
import pytest

import gap_oracle
from conftest import caps_valuation
from cranbounds import gapaudit, regions
from cranbounds.gapaudit import cut_capacity
from cranbounds.gaussian import CranNetwork, JointCovariance


def net22(P=4.0, C=(1.0, 2.0), T=((0.0, 0.5), (0.25, 0.0))):
    return CranNetwork.make([[1.0, 0.5], [-0.5, 1.0]], P, list(C), T)


def cuts(rep):
    """The audit's grid as (S, D, inner, outer) tuples in (S, D) order."""
    return [(s, d, rep["inner"][i, j], rep["outer"][i, j])
            for i, s in enumerate(rep["S"]) for j, d in enumerate(rep["D"])]


def cut(net, d, s):
    """(inner, outer) relaxed values of the cut (S, D), from the audit's grid."""
    rep = gapaudit.audit(net)
    i, j = rep["S"].index(tuple(s)), rep["D"].index(tuple(d))
    return rep["inner"][i, j], rep["outer"][i, j]


def test_empty_bs_cut_equals_fronthaul_sum_on_both_sides():
    net = net22()
    for d in ([1], [2], [1, 2]):
        inner, outer = cut(net, d, [])
        assert inner == outer == pytest.approx(3.0, abs=1e-12)


def test_single_bs_cut_has_zero_slack():
    net = net22()
    for d in ([1], [1, 2]):
        inner, outer = cut(net, d, [1])
        # slack min(1, |D| log2 1) = 0, so the gap is |D|/2 exactly
        assert outer - inner == pytest.approx(len(d) / 2.0, abs=1e-12)


def test_full_cut_values():
    net = net22(P=3.0)
    signal = 0.5 * np.log2(np.linalg.det(np.eye(2) + 3.0 * net.G @ net.G.T))
    inner, outer = cut(net, [1, 2], [1, 2])
    assert inner == pytest.approx(signal - 1.0, abs=1e-9)
    assert outer == pytest.approx(signal + 1.0, abs=1e-9)
    assert gapaudit.cut_gap_formula(2, 2) == pytest.approx(2.0, abs=1e-12)


def test_zero_power_leaves_capacity_terms():
    net = net22(P=0.0)
    assert cut(net, [1, 2], [1, 2])[0] == pytest.approx(-1.0, abs=1e-12)
    # S = {2}: fronthaul into BS 1 plus the cooperation link from BS 2 to
    # BS 1, then the -|D|/2 correction
    assert cut(net, [1], [2])[0] == pytest.approx(1.0 + 0.5 - 0.5, abs=1e-12)
    assert cut_capacity(net, (2,)) == 1.0 + 0.5


def test_gap_bound_values():
    assert gapaudit.gap_bound(1, 3) == pytest.approx(1.5, abs=1e-12)  # log2(1) = 0
    assert gapaudit.gap_bound(2, 2) == pytest.approx(2.0, abs=1e-12)
    assert gapaudit.gap_bound(4, 1) == pytest.approx(0.5 + 1.0, abs=1e-12)


def test_gap_bound_is_the_gap_of_the_full_cut():
    for N in range(1, 10):
        for L in range(1, 10):
            assert gapaudit.gap_bound(N, L) == gapaudit.cut_gap_formula(N, L)


def test_audit_reports_every_cut_and_matches_formula():
    net = net22()
    rep = gapaudit.audit(net)
    assert rep["inner"].shape == rep["outer"].shape == (4, 3)
    # lexicographic order, the empty S first and no empty D
    assert rep["S"] == [(), (1,), (1, 2), (2,)]
    assert rep["D"] == [(1,), (1, 2), (2,)]
    for s, d, inner, outer in cuts(rep):
        assert outer - inner == pytest.approx(
            gapaudit.cut_gap_formula(len(s), len(d)), abs=1e-9)
        assert inner <= outer + 1e-9
    assert rep["pass"]
    assert rep["max_gap"] == (rep["outer"] - rep["inner"]).max()


def test_randomized_audit_smoke():
    rep = gapaudit.audit_random_instances(30, seed=5)
    assert rep["all_pass"]
    assert rep["worst"]["max_gap"] <= rep["worst"]["bound"] + 1e-9
    again = gapaudit.audit_random_instances(30, seed=5)
    assert again == rep


def test_audit_takes_one_logdet_per_user_subset_size(monkeypatch):
    """One stacked capacity_logdet per user-subset size |D| covers every cut
    (L calls per network), and the grid keeps the per-cut 2-D formula's
    values exactly."""
    rng = np.random.default_rng(11)
    nets = [gapaudit.random_network(rng) for _ in range(12)] + [net22()]
    logdet = gapaudit.capacity_logdet
    calls = []

    def counted(g, k):
        calls.append(1)
        return logdet(g, k)

    monkeypatch.setattr(gapaudit, "capacity_logdet", counted)
    for net in nets:
        calls.clear()
        rep = gapaudit.audit(net)
        assert len(calls) == net.L
        expect = [gap_oracle.relaxed_bounds(net, d, s) for s, d, _, _ in cuts(rep)]
        assert [(inner, outer) for _, _, inner, outer in cuts(rep)] == expect
        assert rep["max_gap"] == max(o - i for i, o in expect)


def oracle_networks():
    """Random networks with N, L <= 6, plus P = 0, N = 1 (log2 1 = 0), a
    zero column of G, and powers of 1e3, 1e6 and 1e8."""
    rng = np.random.default_rng(2024)
    nets = []
    for N, L in [(1, 1), (1, 6), (6, 1), (6, 6), (3, 5), (5, 2)]:
        nets += [gapaudit.random_network(rng, N, L) for _ in range(4)]
        G = rng.uniform(-2.0, 2.0, size=(L, N))
        G[:, rng.integers(N)] = 0.0
        C, T = rng.uniform(0.0, 5.0, size=N), rng.uniform(0.0, 5.0, size=(N, N))
        np.fill_diagonal(T, 0.0)
        nets += [CranNetwork.make(G, 0.0, C, T), CranNetwork.make(G, 7.5, C, T)]
    nets.append(CranNetwork.make(np.zeros((3, 2)), 0.0, [1.0, 2.0]))
    for N, L in [(4, 4), (2, 6), (6, 5), (5, 6)]:
        G = rng.uniform(-2.0, 2.0, size=(L, N))
        G[:, -1] = 0.0
        C, T = rng.uniform(0.0, 5.0, size=N), rng.uniform(0.0, 5.0, size=(N, N))
        np.fill_diagonal(T, 0.0)
        nets += [CranNetwork.make(G, P, C, T) for P in (0.0, 1e3, 1e6, 1e8)]
    return nets


@pytest.mark.parametrize("net", oracle_networks(), ids=lambda n: f"{n.N}x{n.L}-P{n.P:g}")
def test_batched_audit_equals_per_cut_oracle_bit_for_bit(net):
    got, want = gapaudit.audit(net), gap_oracle.audit(net)

    def bits(cut_list, rep):
        return ([(s, d, float(inner).hex(), float(outer).hex()) for s, d, inner, outer in cut_list],
                float(rep["max_gap"]).hex(), rep["pass"])

    assert bits(cuts(got), got) == bits(want["cuts"], want)
    assert got["bound"] == want["bound"]


@pytest.mark.parametrize("d,s", [([1], [1]), ([2, 1], [2]), ([1, 2], [1, 2]), ([2], [])])
def test_per_cut_bounds_match_oracle(d, s):
    for net in (net22(), net22(P=0.0)):
        assert cut(net, sorted(d), s) == gap_oracle.relaxed_bounds(net, d, s)


def test_audit_plan_is_read_only_and_its_lists_are_fresh():
    """`audit` shares one cached plan per shape, so no caller may write into it."""
    net = net22()
    rep = gapaudit.audit(net)
    rep["S"].append((3,))
    rep["D"].clear()
    again = gapaudit.audit(net)
    assert again["S"] == [(), (1,), (1, 2), (2,)] and again["D"] == [(1,), (1, 2), (2,)]
    assert again["S"] is not rep["S"] and again["D"] is not rep["D"]
    plan = gapaudit._plan(2, 2)
    assert plan is gapaudit._plan(2, 2)
    arrays = [a for a in plan if isinstance(a, np.ndarray)] + [a for g in plan[3] for a in g]
    assert len(arrays) == 7
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 7


@pytest.mark.parametrize("kind", ["full", "low-rank", "diagonal", "p-eye"])
def test_cutset_region_equals_per_cut_oracle_bit_for_bit(kind):
    """Each cut-set row equals the oracle's, which recomputes K(S | S^c) per
    cut and always clips it by an eigensolve."""
    rng = np.random.default_rng(["full", "low-rank", "diagonal", "p-eye"].index(kind))
    for _ in range(12):
        N, L = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        P = float(rng.choice([0.5, 20.0, 1e4, 1e8]))
        a = rng.normal(size=(N, N if kind == "full" else max(1, N - 1)))
        K = {"diagonal": np.diag(rng.uniform(0.0, 1.0, N)), "p-eye": np.eye(N)}.get(kind, a @ a.T)
        K *= P / K.diagonal().max()
        if kind == "diagonal":
            K[0, 0] = 0.0
        net = CranNetwork.make(rng.uniform(-2.0, 2.0, size=(L, N)), P,
                               rng.uniform(0.0, 5.0, size=N), rng.uniform(0.0, 5.0, size=(N, N))
                               * (1.0 - np.eye(N)))
        cov = JointCovariance.make([(f"X{k}", 1) for k in range(1, N + 1)], K)
        got = gapaudit.cutset_region(net, cov).constraints
        want = gap_oracle.cutset_region(net, cov).constraints
        assert [(dict(c.lhs), c.rhs.const) for c in got] == [(dict(c.lhs), c.rhs.const) for c in want]


def test_random_instances_reject_sizes_below_one():
    rng = np.random.default_rng(0)
    for nmax, lmax in [(0, 4), (4, 0), (-1, -1)]:
        with pytest.raises(ValueError, match="at least 1"):
            gapaudit.random_network(rng, nmax, lmax)
    for instances in (0, -1):
        with pytest.raises(ValueError, match=f"at least 1, got {instances}"):
            gapaudit.audit_random_instances(instances, seed=0)
    with pytest.raises(ValueError, match="at least 1, got 0 and 4"):
        gapaudit.audit_random_instances(3, seed=0, nmax=0)


@pytest.mark.parametrize("instances", [True, 1.5, "2"])
def test_random_instance_count_takes_the_integer_rule(instances):
    """True ran one instance and reported `"instances": true`; 1.5 raised
    TypeError from `range`."""
    with pytest.raises(ValueError, match=f"instances must be an integer of at least 1, "
                                         f"got {instances!r}"):
        gapaudit.audit_random_instances(instances, seed=0)


def test_random_instance_count_may_be_a_numpy_integer():
    rep = gapaudit.audit_random_instances(np.int64(2), seed=5)
    assert rep["instances"] == 2 and type(rep["instances"]) is int
    assert rep == gapaudit.audit_random_instances(2, seed=5)


def test_random_instances_reject_sizes_above_the_node_limit():
    """The audit enumerates 2**N BS subsets: N is bounded like DDF-P1's."""
    assert regions.MAX_NODES == 9
    rng = np.random.default_rng(0)
    for nmax, lmax in [(10, 4), (4, 10)]:
        with pytest.raises(ValueError, match=f"at most 9 and at least 1, got {nmax} and {lmax}"):
            gapaudit.random_network(rng, nmax, lmax)
        with pytest.raises(ValueError, match="at most 9"):
            gapaudit.audit_random_instances(1, seed=0, nmax=nmax, lmax=lmax)
    assert gapaudit.random_network(rng, 9, 9).N <= 9


def test_audit_and_cutset_region_refuse_networks_above_the_node_limit():
    """Both walk `regions.cuts`, which bounds N and L like DDF-P1's."""
    for G in (np.ones((1, 10)), np.ones((10, 1))):
        net = CranNetwork.make(G, 1.0, np.zeros(G.shape[1]))
        K = JointCovariance.make([(f"X{k}", 1) for k in range(1, net.N + 1)], np.eye(net.N))
        message = f"at most 9 BSs and 9 users, got N = {net.N}, L = {net.L}"
        with pytest.raises(ValueError, match=message):
            gapaudit.audit(net)
        with pytest.raises(ValueError, match=message):
            gapaudit.cutset_region(net, K)


def criterion6_networks():
    """The 200 random networks of acceptance criterion 6."""
    rng = np.random.default_rng(1006)
    return [gapaudit.random_network(rng) for _ in range(200)]


def test_cutset_rows_at_k_equal_p_i_give_the_audit_grid_bit_for_bit():
    """The cut-set region at K = P I, reshaped to the (S, D) grid and put
    through the audit's two relaxations, is the audit's inner and outer."""
    for net in criterion6_networks() + oracle_networks():
        rep = gapaudit.audit(net)
        K = JointCovariance.make([(f"X{k}", 1) for k in range(1, net.N + 1)],
                                 net.P * np.eye(net.N))
        rows = gapaudit.cutset_region(net, K).constraints
        shared = np.array([float(c.rhs.const) for c in rows]).reshape(rep["inner"].shape)
        n_s = np.array([len(s) for s in rep["S"]])[:, None]
        n_d = np.array([len(d) for d in rep["D"]])
        inner = shared - (n_s > 0) * n_d / 2.0
        outer = shared + 0.5 * np.minimum(n_s, n_d * np.log2(np.maximum(n_s, 1)))
        assert inner.tobytes() == rep["inner"].tobytes()
        assert outer.tobytes() == rep["outer"].tobytes()


@pytest.mark.parametrize("N,L", [(1, 1), (1, 3), (2, 2), (3, 2), (4, 3), (5, 1)])
def test_ddf_capacity_atoms_equal_cut_capacity(N, L):
    """Each DDF-P1 row's capacity atoms, valued by the network's capacities,
    sum to the cut capacity of its BS cut S; the rows follow `regions.cuts`.
    Capacities are multiples of 1/8, so every sum is exact."""
    rng = np.random.default_rng(N * 10 + L)
    T = rng.integers(0, 40, size=(N, N)) / 8.0
    np.fill_diagonal(T, 0.0)
    net = CranNetwork.make(np.ones((L, N)), 1.0, rng.integers(0, 40, size=N) / 8.0, T)
    caps = caps_valuation(net)
    S, D = regions.cuts(N, L)
    rows = regions.ddf_p1_system(N, L).constraints
    assert len(rows) == len(S) * len(D)
    for (s, d), c in zip([(s, d) for s in S for d in D], rows):
        assert dict(c.lhs) == {f"R{l}": 1 for l in d}
        value = sum(float(q) * caps[a] for a, q in c.rhs.terms if a in caps)
        assert value == cut_capacity(net, s)
