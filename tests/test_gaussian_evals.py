"""Bit-level golden of the Gaussian evaluation.

The sweep CSV goldens print six decimals and the bench reference allows
1e-6, so they cannot see a change in the last bits of an objective value.
This golden records, for every Gaussian scheme, the `float.hex` of every
atom value and of `scheme_sumrate` at fixed (network, x) points (restart-0
starts, random restarts, rank-deficient points, points past the power
limit, a GCOMP point whose X0 correlation is shrunk, and parameters that
fail a check), and `optimize_scheme` on 2 restarts of 150 evaluations.
A speed change to the evaluation path must leave it byte-identical.

Regenerate (only when a change is meant to move values, and say which):
    PYTHONPATH=src python tests/test_gaussian_evals.py > tests/golden/gaussian_evals.txt
"""

from __future__ import annotations

import pathlib

import numpy as np

from cranbounds import schemes
from cranbounds.gaussian import CranNetwork
from cranbounds.schemes import (CompressionParams, DescriptionIParams, DescriptionIIParams,
                                DescriptionIIIParams, OptimizerBudget)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "gaussian_evals.txt"

NETWORKS = {
    "sym": CranNetwork.symmetric(10.0, 0.5, -0.5, 2.0, 0.0),
    "fig4": CranNetwork.make([[1.0, 0.5], [0.5, 1.0]], 1.0, [1.0, 1.0]),
    "asym": CranNetwork.make([[1.0, 0.3], [0.8, 0.6]], 4.0, [1.0, 1.5], [[0.0, 0.5], [0.2, 0.0]]),
}

_NOT_PSD, _RANK_ONE = np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([[1.0, 1.0], [1.0, 1.0]])


def _explicit(scheme: str) -> dict:
    """Parameters given directly, bypassing `to_params`: exact PSD boundary
    cases, a non-PSD and a non-finite K1, and a power violation."""
    if scheme == "GDS-II":
        return {"over-power": DescriptionIIParams(np.array([4.0, 0, 0, 0]), np.zeros(4)),
                "nan": DescriptionIIParams(np.array([np.nan, 0, 0, 0]), np.zeros(4))}
    out = {}
    for label, K1 in (("rank-one-K1", _RANK_ONE), ("not-psd-K1", _NOT_PSD),
                      ("nan-K1", np.array([[np.nan, 0.0], [0.0, 1.0]])),
                      ("inf-K1", np.array([[np.inf, 0.0], [0.0, 1.0]])),
                      ("over-power", 20.0 * np.eye(2))):
        K2 = 0.5 * np.eye(2)
        if scheme == "GDS-I":
            out[label] = DescriptionIParams(K1, K2)
        elif scheme == "GDS-III":
            out[label] = DescriptionIIIParams(K1, K2, np.array([[0.1, -0.2], [0.3, 0.0]]))
        else:
            out[label] = CompressionParams(K1, K2, 0.25 * np.eye(2), np.full(6, 0.1))
    return out


def _points(scheme: str):
    """(label, network, params) of every evaluation point of `scheme`."""
    for net_name, net in NETWORKS.items():
        space = schemes._SchemeSpace(scheme, net)
        rng = np.random.default_rng(7)
        s = np.sqrt(net.P)
        xs = {f"restart{r}": space.initial(rng, r) for r in range(5)}
        xs["zero"] = np.zeros(space.nparams)
        xs["rank-deficient"] = np.eye(space.nparams)[0] * s
        xs["over-power"] = np.full(space.nparams, 2.0 * s)
        if scheme == "GCOMP":
            shrunk = space.initial(rng, 1)
            shrunk[9:15] = 3.0
            xs["shrunk-x0cov"] = shrunk
        for label, x in xs.items():
            yield f"{net_name}/{label}", net, space.to_params(x)
    for label, params in _explicit(scheme).items():
        yield f"sym/params-{label}", NETWORKS["sym"], params


@np.errstate(invalid="ignore")  # the non-finite parameters
def golden_lines() -> list[str]:
    lines = []
    for scheme in schemes.GAUSSIAN_SCHEMES:
        for label, net, params in _points(scheme):
            try:
                values = schemes._atom_values(scheme, params, net)
                atoms = " ".join(float(v).hex() for v in values)
                rate = schemes.scheme_sumrate(scheme, params, net)
                lines.append(f"{scheme} {label} {rate.hex()} {atoms}")
            except ValueError:
                lines.append(f"{scheme} {label} ValueError")
        for net_name in ("sym", "asym"):
            ev = schemes.optimize_scheme(scheme, NETWORKS[net_name], OptimizerBudget(2, 150, 0))
            d = ev.diagnostics
            lines.append(f"{scheme} {net_name}/optimize {float(ev.sum_rate).hex()} evals={d['evals']} "
                         f"distinct={d['distinct_evals']} best_restart={d['best_restart']}")
    return lines


def test_gaussian_evaluations_match_bit_level_golden():
    assert golden_lines() == GOLDEN.read_text().splitlines()


if __name__ == "__main__":
    print("\n".join(golden_lines()))
