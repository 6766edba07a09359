import numpy as np
import pytest

from cranbounds import gapaudit
from cranbounds.gaussian import CranNetwork


def net22(P=4.0, C=(1.0, 2.0), T=((0.0, 0.5), (0.25, 0.0))):
    return CranNetwork.make([[1.0, 0.5], [-0.5, 1.0]], P, list(C), T)


def test_empty_bs_cut_equals_fronthaul_sum_on_both_sides():
    net = net22()
    for d in ([1], [2], [1, 2]):
        inner = gapaudit.ddf_inner_relaxed(net, d, [])
        outer = gapaudit.cutset_outer_relaxed(net, d, [])
        assert inner == outer == pytest.approx(3.0, abs=1e-12)


def test_single_bs_cut_has_zero_slack():
    net = net22()
    for d in ([1], [1, 2]):
        gap = (gapaudit.cutset_outer_relaxed(net, d, [1])
               - gapaudit.ddf_inner_relaxed(net, d, [1]))
        # slack min(1, |D| log2 1) = 0, so the gap is |D|/2 exactly
        assert gap == pytest.approx(len(d) / 2.0, abs=1e-12)


def test_full_cut_values():
    net = net22(P=3.0)
    d, s = [1, 2], [1, 2]
    signal = 0.5 * np.log2(np.linalg.det(np.eye(2) + 3.0 * net.G @ net.G.T))
    assert gapaudit.ddf_inner_relaxed(net, d, s) == pytest.approx(signal - 1.0, abs=1e-9)
    assert gapaudit.cutset_outer_relaxed(net, d, s) == pytest.approx(signal + 1.0, abs=1e-9)
    assert gapaudit.cut_gap_formula(2, 2) == pytest.approx(2.0, abs=1e-12)


def test_zero_power_leaves_capacity_terms():
    net = net22(P=0.0)
    assert gapaudit.ddf_inner_relaxed(net, [1, 2], [1, 2]) == pytest.approx(-1.0, abs=1e-12)
    # S = {2}: fronthaul into BS 1 plus the cooperation link from BS 2 to
    # BS 1, then the -|D|/2 correction
    assert gapaudit.ddf_inner_relaxed(net, [1], [2]) == pytest.approx(
        1.0 + 0.5 - 0.5, abs=1e-12)


def test_gap_bound_values():
    assert gapaudit.gap_bound(1, 3) == pytest.approx(1.5, abs=1e-12)  # log2(1) = 0
    assert gapaudit.gap_bound(2, 2) == pytest.approx(2.0, abs=1e-12)
    assert gapaudit.gap_bound(4, 1) == pytest.approx(0.5 + 1.0, abs=1e-12)


def test_audit_reports_every_cut_and_matches_formula():
    net = net22()
    rep = gapaudit.audit(net)
    assert len(rep["reports"]) == 4 * 3
    for r in rep["reports"]:
        assert r.gap == pytest.approx(
            gapaudit.cut_gap_formula(len(r.S), len(r.D)), abs=1e-9)
        assert r.inner <= r.outer + 1e-9
    assert rep["pass"]
    # deterministic ordering: S then D, lexicographic
    keys = [(r.S, r.D) for r in rep["reports"]]
    assert keys == sorted(keys)


def test_audit_rejects_empty_user_set():
    with pytest.raises(ValueError):
        gapaudit.ddf_inner_relaxed(net22(), [], [1])


def test_randomized_audit_smoke():
    rep = gapaudit.audit_random_instances(30, seed=5)
    assert rep["all_pass"]
    assert rep["worst"]["max_gap"] <= rep["worst"]["bound"] + 1e-9
    again = gapaudit.audit_random_instances(30, seed=5)
    assert again == rep


def test_audit_takes_one_logdet_per_cut(monkeypatch):
    """Each cut with a nonempty BS set S costs one capacity_logdet, shared by
    both bounds, and the reports keep the two-call formula's values."""
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
        assert len(calls) == sum(1 for r in rep["reports"] if r.S)
        expect = []
        for r in rep["reports"]:
            base = gapaudit._cap_terms(net, r.S)
            if not r.S:
                expect.append((base, base))
                continue
            sig = logdet(net.G_cut(r.D, r.S), net.P * np.eye(len(r.S)))
            slack = 0.5 * min(len(r.S), len(r.D) * np.log2(len(r.S)))
            expect.append((base + sig - len(r.D) / 2.0, base + sig + slack))
        assert [(r.inner, r.outer) for r in rep["reports"]] == expect
        assert rep["max_gap"] == max(o - i for i, o in expect)
