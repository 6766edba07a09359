from fractions import Fraction
from itertools import chain, combinations
from pathlib import Path

import numpy as np
import pytest

import gap_oracle
from conftest import caps_valuation, rand_caps, scenario_gcomp, scenario_scheme1
from cranbounds import discrete, gapaudit, polytope, regions
from cranbounds.atoms import parse_atom
from cranbounds.gaussian import CranNetwork, JointCovariance
from cranbounds.verify import zchannel_pmf

GOLDEN = Path(__file__).parent / "golden"


def subsets(items):
    return list(chain.from_iterable(combinations(items, r)
                                    for r in range(len(items) + 1)))


def test_theorem1_constraint_count(theorem1):
    # independent combinatorial oracle over the quantifier of the covering
    # family: all subset pairs with |Ou| + |Ov| >= 2
    covering = sum(1 for ou in subsets(range(3)) for ov in subsets(range(3))
                   if len(ou) + len(ov) >= 2)
    assert covering == 57
    packing = 2 * (2 ** 3 - 1)
    assert len(theorem1) == covering + packing + 3


def test_theorem1_full_covering_instance(theorem1):
    # resolved form of the (Ou={0,1,2}, Ov=empty) instance:
    # R1 - Ru0 - Ru1 - Ru2 <= -Gamma(U0,U1,U2)
    want_lhs = {"R1": Fraction(1), "Ru0": Fraction(-1),
                "Ru1": Fraction(-1), "Ru2": Fraction(-1)}
    hits = [c for c in theorem1.constraints if dict(c.lhs) == want_lhs]
    assert len(hits) == 1
    assert dict(hits[0].rhs.terms) == {"Gamma(U0,U1,U2)": Fraction(-1)}
    assert hits[0].rhs.const == 0


def test_theorem1_budget_constraints(theorem1):
    budget = [c for c in theorem1.constraints
              if {"C1", "C12"} <= c.atoms() or {"C2", "C21"} <= c.atoms()
              or {"C1", "C2"} <= c.atoms()]
    assert len(budget) == 3
    full = [c for c in budget if len(dict(c.lhs)) == 6]
    assert len(full) == 1
    assert dict(full[0].rhs.terms)["Gamma(U0,V0)"] == Fraction(-1)


def test_theorem1_independent_degeneration(theorem1):
    # with every total correlation zero and loose packing bounds, only the
    # fronthaul budget survives projection: R1 + R2 <= C1 + C2
    val = {a: (0.0 if a.startswith("Gamma(") else 100.0)
           for a in theorem1.atoms()}
    val.update({"C1": 0.5, "C2": 0.5, "C12": 0.0, "C21": 0.0})
    sub = regions.Substitution(name="all")  # projects out all six aux rates
    proj = regions.gds_project(theorem1, sub, valuation=val)
    assert polytope.is_member(proj, {}, {"R1": 0.45, "R2": 0.45})
    assert not polytope.is_member(proj, {}, {"R1": 0.7, "R2": 0.4})
    assert not polytope.is_member(proj, {}, {"R1": 1.05, "R2": 0.0})


def test_projection_ignores_an_infinite_atom_it_drops(theorem1):
    # scheme-II drops every Gamma atom, so Gamma(U0,U1,U2) = inf is unused
    val = {a: 1.0 for a in theorem1.atoms()}
    finite = regions.gds_project(theorem1, "scheme-II", valuation=val)
    val["Gamma(U0,U1,U2)"] = np.inf
    proj = regions.gds_project(theorem1, "scheme-II", valuation=val)
    assert polytope.format_system(proj) == polytope.format_system(finite)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_projection_rejects_a_nonfinite_atom_it_uses(theorem1, bad):
    val = {a: 1.0 for a in theorem1.atoms()}
    val["I(U0;U1,U2,Y1)"] = bad
    with pytest.raises(ValueError, match=r"atom 'I\(U0;U1,U2,Y1\)' is"):
        regions.gds_project(theorem1, "scheme-II", valuation=val)


# The rates each data-sharing instance pins to zero and projects out; the
# order of the projected rates is greedy FME's tie-break, so it is pinned.
STATED_RATES = {
    "scheme-I": ({"Ru1", "Rv1", "Ru2", "Rv2"}, ("Ru0", "Rv0")),
    "scheme-II": (set(), ("Ru0", "Ru1", "Ru2", "Rv0", "Rv1", "Rv2")),
    "scheme-III": ({"Ru0", "Rv0"}, ("Ru1", "Ru2", "Rv1", "Rv2")),
    "cor4": ({"Ru0", "Ru2", "Rv0", "Rv2"}, ("Ru1", "Rv1")),
    "cor5": ({"Rv0", "Rv1", "Rv2", "R2"}, ("Ru0", "Ru1", "Ru2")),
}


@pytest.mark.parametrize("name", sorted(STATED_RATES))
def test_substitution_derives_the_stated_rates(name):
    zero, eliminate = STATED_RATES[name]
    sub = regions.SUBSTITUTIONS[name]
    assert sub.zero_rates == tuple(r for r in regions.RATE_VARS if r in zero)
    assert sub.eliminate == eliminate


def test_substitution_drops_a_user_rate_only_with_all_three_auxiliaries():
    assert regions.Substitution("u", degenerate=frozenset({"U0", "U1", "U2"})).zero_rates \
        == ("R1", "Ru0", "Ru1", "Ru2")
    assert "R2" not in regions.Substitution("v", degenerate=frozenset({"V0", "V1"})).zero_rates


def substituted_rhs(row, sub):
    """The right-hand atoms of the one-row system `R1 <= row` under `sub`."""
    system = regions.apply_substitution(polytope.parse_system(f"R1 <= {row}", ["R1"]), sub)
    return dict(system.constraints[0].rhs.terms)


@pytest.mark.parametrize("row,degenerate,want", [
    ("Gamma(U0,U1,V0,V1)", {"U1", "V1"}, {"Gamma(U0,V0)": 1}),
    ("Gamma(U0,U1,V0,V1)", {"U0", "U1", "V1"}, {}),  # one variable left: zero
    ("I(U0;U1,Y1)", {"U0"}, {}),                      # an empty side: zero
    ("I(U0;U1,Y1)", {"U1"}, {"I(U0;Y1)": 1}),
    ("H(U0,U1)", {"U1"}, {"H(U0)": 1}),
    ("H(U0,U1)", {"U0", "U1"}, {}),                   # empty: zero
    ("C1 + 2*I(U0;U1) - I(U0;U1,V1)", {"V1"}, {"C1": 1, "I(U0;U1)": 1}),  # equal names merge
])
def test_substitution_drops_degenerate_variables(row, degenerate, want):
    assert substituted_rhs(row, regions.Substitution("t", frozenset(degenerate))) == want


def test_substitution_renames_after_dropping():
    sub = regions.Substitution("t", frozenset({"V0"}),
                               rename=(("U0", "U"), ("U1", "X1"), ("U2", "X2")))
    assert substituted_rhs("I(U1;U0,U2,V0,Y1)", sub) == {"I(U,X2,Y1;X1)": 1}


def test_substitutions_match_golden_text(theorem1, projections):
    """`format_system` of Theorem 1, of each specialisation and of each
    symbolic projection, as recorded before the atom rewrites shared one pass."""
    parts = [("gds_theorem1_system", theorem1)]
    parts += [(f"apply_substitution {name}", regions.apply_substitution(theorem1, sub))
              for name, sub in regions.SUBSTITUTIONS.items()]
    parts += [(f"gds_project {name}", proj) for name, proj in projections.items()]
    text = "".join(f"## {name}\n" + polytope.format_system(s) for name, s in parts)
    assert text.encode() == (GOLDEN / "substitutions.txt").read_bytes()


def test_substitution_unknown_name(theorem1):
    with pytest.raises(KeyError):
        regions.gds_project(theorem1, "scheme-X")


def test_corollary1_min_example():
    val = {"I(U0;Y1)": 2.0, "I(V0;Y2)": 2.0, "I(U0;V0)": 0.0,
           "C1": 1.0, "C2": 1.0, "C12": 0.0, "C21": 0.0}
    sys_ = regions.corollary1_system()
    assert polytope.max_sum_rate(sys_, val) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(KeyError):
        polytope.max_sum_rate(sys_, {"C1": 1.0})


def test_corollary2_zero_mi_collapses():
    val = {a: 0.0 for a in regions.corollary2_system().atoms()}
    val.update({"C1": 1.0, "C2": 1.0, "C12": 0.0, "C21": 0.0})
    sys_ = regions.corollary2_system()
    assert polytope.max_sum_rate(sys_, val) == 0.0
    assert polytope.is_member(sys_, val, {"R1": 0.0, "R2": 0.0})
    assert not polytope.is_member(sys_, val, {"R1": 0.01, "R2": 0.0})


def test_corollary3_side_condition_flag():
    atoms = regions.corollary3_system().atoms()
    val = {a: 0.0 for a in atoms}
    for lhs, rhs in regions.corollary3_side_conditions():
        val.setdefault(lhs.name, 0.0)
        for r in rhs:
            val.setdefault(r.name, 0.0)
    val["I(U1;V1)"] = 5.0
    assert not regions.corollary3_feasible(val)
    val["I(U1;V1)"] = 0.0
    for lhs, rhs in regions.corollary3_side_conditions():
        for r in rhs:
            val[r.name] = 1.0
    assert regions.corollary3_feasible(val)


def test_corollary4_structure():
    sys_ = regions.corollary4_system()
    assert len(sys_) == 4
    assert sys_.atoms() == {"I(U;Y1)", "I(V;Y2)", "I(U;V)", "C1"}
    val = {"I(U;Y1)": 1.0, "I(V;Y2)": 1.0, "I(U;V)": 1.0, "C1": 0.7}
    assert polytope.max_sum_rate(regions.corollary4_system(), val) == \
        pytest.approx(0.7, abs=1e-6)


def test_corollary5_binary_adder_grid_search():
    """Sampled maximization of the diamond-network rate over input laws for
    the binary-adder second hop at unit fronthaul capacities.

    Independent uniform inputs give 1.5 bits; correlating the inputs lifts
    the rate to the output-entropy ceiling log2(3), which matches the
    cut-set value (the scheme is capacity-achieving on this network).
    """
    caps = {"C1": 1.0, "C2": 1.0, "C12": 0.0, "C21": 0.0}
    adder = discrete.Channel.from_map([("X1", 2), ("X2", 2)], [("Y1", 3)],
                                      lambda a, b: a + b)
    atoms = sorted(regions.corollary5_system().atoms() - set(caps))

    def rate_for(pmf):
        val = discrete.atom_valuation(discrete.compose(pmf, adder), atoms,
                                      constants=caps)
        val.update(caps)
        return polytope.max_sum_rate(regions.corollary5_system(), val)

    uniform_independent = discrete.JointPmf.make(
        [("U", 2), ("X1", 2), ("X2", 2)],
        np.stack([np.full((2, 2), 0.25), np.zeros((2, 2))]))
    assert rate_for(uniform_independent) == pytest.approx(1.5, abs=1e-9)

    ceiling = np.log2(3.0)
    correlated = discrete.JointPmf.make(
        [("U", 1), ("X1", 2), ("X2", 2)],
        np.array([[[1 / 3, 1 / 6], [1 / 6, 1 / 3]]]))
    assert rate_for(correlated) == pytest.approx(ceiling, abs=1e-12)

    rng = np.random.default_rng(17)
    best = 0.0
    for _ in range(400):
        pmf = discrete.random_joint_pmf(rng, [("U", 2), ("X1", 2), ("X2", 2)])
        best = max(best, rate_for(pmf))
    assert 1.5 < best <= ceiling + 1e-9


def test_corollary5_zero_capacities():
    val = {a: 2.0 for a in regions.corollary5_system().atoms()}
    val.update({"C1": 0.0, "C2": 0.0, "C12": 0.0, "C21": 0.0})
    # first expression pins the rate at C1+C2 - I(X1;X2|U) <= 0
    assert polytope.max_sum_rate(regions.corollary5_system(), val) == 0.0


EXPLICIT = ("corollary1_system", "corollary2_system", "corollary3_system",
            "corollary3_gated_system", "corollary4_system", "corollary5_system",
            "gcomp_theorem2_system")


def test_explicit_regions_match_golden_text():
    """Each explicit region's `format_system` text, under `## <function>`,
    as recorded when the regions were still built from AtomSpec pairs."""
    text = "".join(f"## {name}\n" + polytope.format_system(getattr(regions, name)())
                   for name in EXPLICIT)
    assert text.encode() == (GOLDEN / "regions_explicit.txt").read_bytes()


@pytest.mark.parametrize("scheme", [s for s in regions.SCHEME_IDS if s != "CUTSET"]
                         + ["COR3-gated"])
def test_region_atoms_are_canonical(scheme):
    """Valuations are keyed by canonical names, so a row spelt otherwise
    would miss its atom's value."""
    system = (regions.corollary3_gated_system() if scheme == "COR3-gated"
              else regions.make_region(scheme))
    assert system.atoms() and all(parse_atom(a).name == a for a in system.atoms())


def test_theorem2_zchannel_membership_exact():
    caps = {"C1": 1.0, "C2": 1.0, "C12": 0.0, "C21": 0.0}
    sys_ = regions.gcomp_theorem2_system()
    val = discrete.atom_valuation(zchannel_pmf(), sorted(sys_.atoms()), constants=caps)
    assert polytope.is_member(sys_, val, {"R1": 1.0, "R2": 1.0}, tol=0.0)
    assert polytope.min_slack(sys_, val, {"R1": 1.0, "R2": 1.0}) == 0.0
    assert not polytope.is_member(sys_, val, {"R1": 1.0 + 1e-9, "R2": 1.0}, tol=0.0)


def test_theorem2_membership_matches_direct_evaluation():
    """Brute re-evaluation oracle: recompute the closed-form min expressions
    from raw mutual informations and compare membership decisions."""
    rng = np.random.default_rng(23)
    sys_ = regions.gcomp_theorem2_system()
    for _ in range(5):
        pmf = scenario_gcomp(rng)
        caps = rand_caps(rng)
        val = discrete.atom_valuation(pmf, sorted(sys_.atoms()), constants=caps)
        i1, i2, i12 = val["I(U1;Y1)"], val["I(U2;Y2)"], val["I(U1;U2)"]
        c1, c2, c12, c21 = caps["C1"], caps["C2"], caps["C12"], caps["C21"]
        csum = c1 + c2 + c12 + c21

        def direct_member(r1, r2, tol=1e-9):
            b_r1 = i1 + min(0.0, c1 + c12 - val["I(U1;X0,X1)"],
                            c2 + c21 - val["I(U1;X0,X2)"])
            b_r2 = i2 + min(0.0, c1 + c12 - val["I(U2;X0,X1)"],
                            c2 + c21 - val["I(U2;X0,X2)"])
            marton = i1 + i2 - i12
            b_sum = marton + min(
                0.0, c1 + c12 - val["I(U1,U2;X0,X1)"],
                c2 + c21 - val["I(U1,U2;X0,X2)"],
                c1 + c2 - val["I(U1,U2;X0,X1,X2)"] - val["I(X1;X2|X0)"])
            big = csum - val["I(U1,U2;X0,X1,X2)"] - val["I(X1;X2|X0)"]
            b_21 = marton + big + i1 - val["I(U1;X0)"]
            b_12 = marton + big + i2 - val["I(U2;X0)"]
            b_22 = 2 * marton + big - val["I(U1,U2;X0)"]
            return (r1 <= b_r1 + tol and r2 <= b_r2 + tol
                    and r1 + r2 <= b_sum + tol
                    and 2 * r1 + r2 <= b_21 + tol and r1 + 2 * r2 <= b_12 + tol
                    and 2 * r1 + 2 * r2 <= b_22 + tol)

        pts = rng.uniform(0, 2.0, size=(100, 2))
        for r1, r2 in pts:
            assert polytope.is_member(sys_, val, {"R1": r1, "R2": r2}) == \
                direct_member(r1, r2)


def test_ddf_single_bs_single_user_form():
    sys_ = regions.ddf_p1_system(1, 1)
    assert len(sys_) == 2
    val = {"I(U1;Y1)": 0.8, "Gamma(U1,X1)": 0.5, "C1": 0.3}
    # R1 <= min(I(U1;Y1), I(U1;Y1) + C1 - I(X1;U1))
    assert polytope.max_sum_rate(sys_, val) == \
        pytest.approx(min(0.8, 0.8 + 0.3 - 0.5), abs=1e-12)


def test_ddf_count_and_network_merge():
    assert len(regions.ddf_p1_system(2, 2)) == 12
    net = CranNetwork.make([[1.0, 0.5], [0.5, 1.0]], 4.0, [1.0, 2.0],
                           [[0.0, 0.25], [0.75, 0.0]])
    caps = caps_valuation(net)
    assert caps == {"C1": 1.0, "C2": 2.0, "C12": 0.25, "C21": 0.75}
    sys_ = regions.ddf_p1_system(2, 2)
    mi_only = {a: 0.5 for a in sys_.atoms() if a not in caps}
    assert polytope.is_member(sys_, mi_only | caps, {"R1": 0.0, "R2": 0.0})
    with pytest.raises(KeyError):
        polytope.is_member(sys_, mi_only, {"R1": 0.0, "R2": 0.0})


def test_capacity_monotonicity_of_regions(theorem1):
    """Loosening any capacity never shrinks sampled membership."""
    rng = np.random.default_rng(31)
    for sys_ in (regions.gcomp_theorem2_system(), regions.ddf_p1_system(2, 2),
                 theorem1):
        base = {a: float(rng.uniform(0, 1.5)) for a in sys_.atoms()}
        pts = rng.uniform(0, 3.0, size=(300, len(sys_.variables)))
        for cap in ("C1", "C2", "C12", "C21"):
            looser = dict(base)
            looser[cap] = base[cap] + 1.0
            for row in pts:
                pt = dict(zip(sys_.variables, row))
                if polytope.is_member(sys_, base, pt):
                    assert polytope.is_member(sys_, looser, pt)


def test_projected_region_is_downward_closed_and_contains_origin(theorem1, projections):
    rng = np.random.default_rng(37)
    proj = projections["scheme-I"]
    for _ in range(5):
        pmf = scenario_scheme1(rng)
        val = discrete.atom_valuation(pmf, sorted(proj.atoms()),
                                      constants=rand_caps(rng))
        # nonempty iff the origin is inside (down-set with nonneg rates)
        pts = rng.uniform(0, 2.0, size=(50, 2))
        nonempty = any(polytope.is_member(proj, val, {"R1": a, "R2": b})
                       for a, b in pts)
        origin = polytope.is_member(proj, val, {"R1": 0.0, "R2": 0.0})
        assert origin or not nonempty
        if origin:
            for a, b in pts:
                if polytope.is_member(proj, val, {"R1": a, "R2": b}):
                    assert polytope.is_member(proj, val, {"R1": a / 2, "R2": b / 2})


def test_cutset_region_structure_and_power():
    net = CranNetwork.make([[1.0, 0.5], [0.5, 1.0]], 2.0, [1.0, 1.0])
    K = JointCovariance.make([("X1", 1), ("X2", 1)], 2.0 * np.eye(2))
    sys_ = gapaudit.cutset_region(net, K)
    assert len(sys_) == 4 * 3
    # P = 0 forces all rates to zero through the S = {1,2} cuts
    net0 = CranNetwork.make([[1.0, 0.5], [0.5, 1.0]], 0.0, [1.0, 1.0])
    K0 = JointCovariance.make([("X1", 1), ("X2", 1)], np.zeros((2, 2)))
    sys0 = gapaudit.cutset_region(net0, K0)
    assert polytope.is_member(sys0, {}, {"R1": 0.0, "R2": 0.0})
    assert not polytope.is_member(sys0, {}, {"R1": 0.01, "R2": 0.0})
    with pytest.raises(ValueError):
        gapaudit.cutset_region(net0, K)  # power violated


def test_cutset_region_matches_per_cut_schur_complements():
    rng = np.random.default_rng(33)
    names = [("X1", 1), ("X2", 1), ("X3", 1)]
    for _ in range(20):
        P = float(rng.uniform(0.5, 20.0))
        a = rng.normal(size=(3, 3))
        K = a @ a.T
        K *= P / K.diagonal().max()  # the largest variance at exactly P
        net = CranNetwork.make(rng.uniform(-2.0, 2.0, size=(3, 3)), P,
                               rng.uniform(0.0, 5.0, size=3), rng.uniform(0.0, 5.0, size=(3, 3))
                               * (1.0 - np.eye(3)))
        cov = JointCovariance.make(names, K)
        assert (polytope.format_system(gapaudit.cutset_region(net, cov))
                == polytope.format_system(gap_oracle.cutset_region(net, cov)))


def test_ddf_inside_cutset_for_gaussian_law():
    """Decode-forward region lies inside the cut-set region when both are
    instantiated from the same Gaussian input law (estimate auxiliaries
    U_l = g_l X + fresh unit noise, channel outputs with their own noise)."""
    from cranbounds import gaussian
    rng = np.random.default_rng(41)
    for _ in range(4):
        G = rng.uniform(-1.5, 1.5, size=(2, 2))
        P = float(rng.uniform(0.5, 20))
        net = CranNetwork.make(G, P, rng.uniform(0, 3, 2),
                               [[0, rng.uniform(0, 1)], [rng.uniform(0, 1), 0]])
        base = np.diag([P, P, 1.0, 1.0, 1.0, 1.0])  # X1 X2 Zhat1 Zhat2 Z1 Z2
        rows = [
            np.array([[1, 0, 0, 0, 0, 0]]),
            np.array([[0, 1, 0, 0, 0, 0]]),
            np.hstack([G[0], [1, 0, 0, 0]])[None, :],
            np.hstack([G[1], [0, 1, 0, 0]])[None, :],
            np.hstack([G[0], [0, 0, 1, 0]])[None, :],
            np.hstack([G[1], [0, 0, 0, 1]])[None, :],
        ]
        M = np.vstack(rows)
        cov = JointCovariance.make(
            [("X1", 1), ("X2", 1), ("U1", 1), ("U2", 1), ("Y1", 1), ("Y2", 1)],
            M @ base @ M.T)
        ddf_sys = regions.ddf_p1_system(2, 2)
        caps = caps_valuation(net)
        val = gaussian.atom_valuation(
            cov, sorted(a for a in ddf_sys.atoms() if a not in caps))
        val.update(caps)
        K = JointCovariance.make([("X1", 1), ("X2", 1)], P * np.eye(2))
        cut_sys = gapaudit.cutset_region(net, K)
        pts = rng.uniform(0, 6.0, size=(400, 2))
        for r1, r2 in pts:
            pt = {"R1": r1, "R2": r2}
            if polytope.is_member(ddf_sys, val, pt):
                assert polytope.is_member(cut_sys, {}, pt, tol=1e-7)


def test_region_spec_validation():
    with pytest.raises(ValueError, match="unknown scheme id 'NOPE'"):
        regions.make_region("NOPE")
    with pytest.raises(ValueError, match="fixed to the 2-BS 2-user shape"):
        regions.make_region("GDS-I", N=3)
    with pytest.raises(ValueError, match="requires a network instance"):
        regions.make_region("CUTSET")
    with pytest.raises(ValueError, match="N, L >= 1"):
        regions.make_region("DDF-P1", N=0)
    assert len(regions.make_region("DDF-P1", N=3, L=2)) == 8 * 3
    assert len(regions.make_region("GDS-T1")) == 57 + 14 + 3


def test_cuts_grid_and_node_bounds():
    S, D = regions.cuts(2, 2)
    assert S == [(), (1,), (1, 2), (2,)] and D == [(1,), (1, 2), (2,)]
    assert regions.cuts(1, 1) == ([(), (1,)], [(1,)])
    S, D = regions.cuts(9, 9)
    assert (len(S), len(D)) == (512, 511)
    assert S == sorted(S) and D == sorted(D) and all(list(s) == sorted(s) for s in S)
    for N, L in [(0, 1), (1, 0), (-2, 3)]:
        with pytest.raises(ValueError, match=f"need N, L >= 1, got N = {N}, L = {L}"):
            regions.cuts(N, L)
    for N, L in [(10, 1), (1, 10), (12, 12)]:
        with pytest.raises(ValueError, match=f"a cut grid supports at most 9 BSs and 9 users, got N = {N}, L = {L}"):
            regions.cuts(N, L)


def test_region_to_json():
    sys_ = regions.corollary4_system()
    val = {"I(U;Y1)": 1.0, "I(V;Y2)": 0.5, "I(U;V)": 0.25, "C1": 2.0}
    payload = polytope.region_to_json(sys_, val)
    assert payload["variables"] == ["R1", "R2"]
    assert len(payload["constraints"]) == 4
    sums = [c for c in payload["constraints"] if c["lhs"] == {"R1": 1.0, "R2": 1.0}]
    assert {round(c["rhs_value"], 6) for c in sums} == {1.25, 2.0}


def test_inf_minus_inf_makes_the_region_undefined():
    # I(U;Y1) = I(U;V) = inf turns the Marton sum bound into inf - inf = NaN
    sys_ = regions.corollary4_system()
    val = {"I(U;Y1)": np.inf, "I(V;Y2)": 1.0, "I(U;V)": np.inf, "C1": 3.0}
    _, b = sys_.numeric(val)
    assert np.isnan(b).sum() == 1
    assert polytope.max_sum_rate(sys_, val) == 0.0
    with pytest.raises(ValueError):
        polytope.min_slack(sys_, val, {"R1": 2.9, "R2": 0.0})
    with pytest.raises(ValueError):
        polytope.is_member(sys_, val, {"R1": 2.9, "R2": 0.0})
    one_d = polytope.ConstraintSystem(["R1"])
    one_d.add({"R1": 1}, polytope.AffineExpr.make({"C1": 1, "I(U;V)": 1, "I(U;Y1)": -1}))
    assert polytope.max_sum_rate(one_d, val) == 0.0


def test_corollary3_nan_side_condition_is_infeasible():
    val = {}
    for lhs, rhs in regions.corollary3_side_conditions():
        val[lhs.name] = 5.0
        for r in rhs:
            val[r.name] = 1.0
    assert not regions.corollary3_feasible(val)
    for lhs, _ in regions.corollary3_side_conditions():
        val[lhs.name] = np.nan
    assert not regions.corollary3_feasible(val)
    for lhs, _ in regions.corollary3_side_conditions():
        val[lhs.name] = 0.5
    assert regions.corollary3_feasible(val)
