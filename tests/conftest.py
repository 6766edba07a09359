"""Shared fixtures: the full data-sharing system, its projections,
random pmf scenario builders for each correlation structure, and the
random Gaussian networks of acceptance criterion 1."""

import numpy as np
import pytest

from cranbounds import discrete, regions
from cranbounds.gaussian import CranNetwork


@pytest.fixture(scope="session")
def theorem1():
    return regions.gds_theorem1_system()


@pytest.fixture(scope="session")
def projections(theorem1):
    """Symbolic projections for the substitutions that stay tractable."""
    return {name: regions.gds_project(theorem1, name)
            for name in ("scheme-I", "scheme-III", "cor4", "cor5")}


def criterion1_networks():
    """The 20 random symmetric networks of acceptance criterion 1."""
    rng = np.random.default_rng(1001)
    nets = []
    for _ in range(20):
        P = float(rng.uniform(0.5, 50.0))
        g = float(rng.uniform(-1.0, 1.0))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        C = float(rng.uniform(0.2, 4.0))
        T = float(rng.uniform(0.0, 2.0))
        nets.append(CranNetwork.symmetric(P, g, sign * g, C, T))
    return nets


def rhs_value(expr, valuation):
    """An affine right-hand side evaluated term by term, constant first: the
    oracle for `polytope.CompiledSystem.rhs`."""
    total = float(expr.const)
    for name, q in expr.terms:
        total += float(q) * valuation[name]
    return total


def rand_caps(rng, hi=2.5):
    return {"C1": float(rng.uniform(0, hi)), "C2": float(rng.uniform(0, hi)),
            "C12": float(rng.uniform(0, hi / 2)), "C21": float(rng.uniform(0, hi / 2))}


def compose_random_channel(pmf, rng, inputs=("X1", "X2"), outputs=(("Y1", 2), ("Y2", 2))):
    sizes = tuple(pmf.size_of(x) for x in inputs)
    osz = tuple(s for _, s in outputs)
    cells = int(np.prod(osz))
    t = rng.dirichlet(np.ones(cells), size=sizes).reshape(sizes + osz)
    ch = discrete.Channel.make([(x, pmf.size_of(x)) for x in inputs], list(outputs), t)
    return discrete.compose(pmf, ch)


def scenario_scheme1(rng):
    p = discrete.random_joint_pmf(rng, [("U0", 2), ("V0", 2)])
    f1 = rng.integers(0, 2, size=(2, 2))
    f2 = rng.integers(0, 2, size=(2, 2))
    p = discrete.add_deterministic(p, "X1", 2, ["U0", "V0"], lambda a, b: int(f1[a, b]))
    p = discrete.add_deterministic(p, "X2", 2, ["U0", "V0"], lambda a, b: int(f2[a, b]))
    p = compose_random_channel(p, rng)
    return discrete.marginalize(p, ["U0", "V0", "Y1", "Y2"])


def scenario_scheme2(rng):
    p = None
    for name in ["U0", "V0", "U1", "V1", "U2", "V2"]:
        q = discrete.random_joint_pmf(rng, [(name, 2)])
        if p is None:
            p = q
        else:
            p = discrete.JointPmf.make(list(p.variables) + list(q.variables),
                                       np.multiply.outer(p.probs, q.probs))
    f1 = rng.integers(0, 2, size=(2, 2, 2, 2))
    f2 = rng.integers(0, 2, size=(2, 2, 2, 2))
    p = discrete.add_deterministic(p, "X1", 2, ["U0", "V0", "U1", "V1"],
                                   lambda a, b, c, d: int(f1[a, b, c, d]))
    p = discrete.add_deterministic(p, "X2", 2, ["U0", "V0", "U2", "V2"],
                                   lambda a, b, c, d: int(f2[a, b, c, d]))
    p = compose_random_channel(p, rng)
    return discrete.marginalize(p, ["U0", "V0", "U1", "V1", "U2", "V2", "Y1", "Y2"])


def scenario_scheme3(rng):
    p = discrete.random_joint_pmf(rng, [("U1", 2), ("V1", 2), ("U2", 2), ("V2", 2)])
    f1 = rng.integers(0, 2, size=(2, 2))
    f2 = rng.integers(0, 2, size=(2, 2))
    p = discrete.add_deterministic(p, "X1", 2, ["U1", "V1"], lambda a, b: int(f1[a, b]))
    p = discrete.add_deterministic(p, "X2", 2, ["U2", "V2"], lambda a, b: int(f2[a, b]))
    p = compose_random_channel(p, rng)
    return discrete.marginalize(p, ["U1", "V1", "U2", "V2", "Y1", "Y2"])


def scenario_cor4(rng):
    p = discrete.random_joint_pmf(rng, [("U", 3), ("V", 3)])
    f1 = rng.integers(0, 2, size=(3, 3))
    p = discrete.add_deterministic(p, "X1", 2, ["U", "V"], lambda a, b: int(f1[a, b]))
    p = compose_random_channel(p, rng, inputs=("X1",))
    return discrete.marginalize(p, ["U", "V", "Y1", "Y2"])


def scenario_cor5(rng):
    p = discrete.random_joint_pmf(rng, [("U", 2), ("X1", 2), ("X2", 2)])
    return compose_random_channel(p, rng, inputs=("X1", "X2"), outputs=(("Y1", 3),))


def scenario_gcomp(rng, x0_size=2):
    p = discrete.random_joint_pmf(
        rng, [("U1", 2), ("U2", 2), ("X0", x0_size), ("X1", 2), ("X2", 2)])
    return compose_random_channel(p, rng)


def caps_valuation(network):
    """The capacity constants of a network, C1..CN and Ckj for k != j, as
    an atom valuation fragment."""
    out = {}
    for k in range(1, network.N + 1):
        out[f"C{k}"] = float(network.C[k - 1])
        for j in range(1, network.N + 1):
            if j != k:
                out[f"C{k}{j}"] = float(network.Ccoop[k - 1][j - 1])
    return out
