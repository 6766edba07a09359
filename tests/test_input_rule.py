"""One rule for the names, sizes and numbers of every law and config:
`atoms.checked_axes`, `checked_reals` and `checked_int`, applied by every
constructor of both back ends and by the sweep config and its budget."""

import math
import re
import warnings

import numpy as np
import pytest

from cranbounds.atoms import checked_axes, checked_int, checked_reals
from cranbounds.discrete import Channel, JointPmf
from cranbounds.gaussian import CranNetwork, JointCovariance, gauss_mi
from cranbounds.schemes import OptimizerBudget, sweep_rows

NAMES = [3]
SIZES = [True, 1.7, 0, -1]
NUMBERS = ["0.5", True, math.nan, math.inf, -math.inf]
COUNTS = [True, 1.7, 0, -1, "3", math.nan, math.inf]  # an integer of at least 1


def _sweep(**overrides):
    config = {"P": 1.0, "G": [[1.0, 0.5], [0.5, 1.0]], "C_grid": [1.0], "T": 0.0,
              "schemes": ["GDS-I"], "seed": 0, "budget": {"restarts": 1, "iters": 5}}
    return lambda: sweep_rows(config | overrides)


# (constructor, the field its message names, the bad inputs that apply to the
# field, and the call with one bad input in place)
FIELDS = [
    ("JointPmf.make", "pmf axes", NAMES, lambda v: JointPmf.make([(v, 2)], [0.5, 0.5])),
    ("JointPmf.make", "pmf axes", SIZES, lambda v: JointPmf.make([("X", v)], [1.0])),
    ("JointPmf.make", "pmf probabilities", NUMBERS,
     lambda v: JointPmf.make([("X", 2)], [v, 0.5])),
    ("Channel.make", "channel axes", NAMES,
     lambda v: Channel.make([(v, 1)], [("Y", 2)], [[0.5, 0.5]])),
    ("Channel.make", "channel axes", SIZES,
     lambda v: Channel.make([("X", 1)], [("Y", v)], [[1.0]])),
    ("Channel.make", "channel probabilities", NUMBERS,
     lambda v: Channel.make([("X", 1)], [("Y", 2)], [[v, 0.5]])),
    ("JointCovariance.make", "covariance components", NAMES,
     lambda v: JointCovariance.make([(v, 1)], [[1.0]])),
    ("JointCovariance.make", "covariance components", SIZES,
     lambda v: JointCovariance.make([("X", v)], [[1.0]])),
    ("JointCovariance.make", "covariance entries", NUMBERS,
     lambda v: JointCovariance.make([("X", 1), ("Y", 1)], [[1.0, v], [v, 1.0]])),
    ("CranNetwork.make", "network G", NUMBERS,
     lambda v: CranNetwork.make([[1.0, v]], 1.0, [1.0, 1.0])),
    ("CranNetwork.make", "network P", NUMBERS, lambda v: CranNetwork.make([[1.0]], v, [1.0])),
    ("CranNetwork.make", "network C", NUMBERS, lambda v: CranNetwork.make([[1.0]], 1.0, [v])),
    ("CranNetwork.make", "network Ccoop", NUMBERS,
     lambda v: CranNetwork.make([[1.0, 0.5]], 1.0, [1.0, 1.0], [[0.0, v], [0.0, 0.0]])),
    ("sweep_rows", "sweep config P", NUMBERS, lambda v: _sweep(P=v)()),
    ("sweep_rows", "sweep config G", NUMBERS, lambda v: _sweep(G=[[1.0, v], [0.5, 1.0]])()),
    ("sweep_rows", "sweep config C_grid", NUMBERS, lambda v: _sweep(C_grid=[v])()),
    ("sweep_rows", "sweep config T", NUMBERS, lambda v: _sweep(T=v)()),
    ("sweep_rows", "sweep config seed", [True, 1.7, -1, "3", math.nan, math.inf],
     lambda v: _sweep(seed=v)()),
    ("sweep_rows", "budget restarts", COUNTS,
     lambda v: _sweep(budget={"restarts": v, "iters": 5})()),
    ("sweep_rows", "budget iters", COUNTS,
     lambda v: _sweep(budget={"restarts": 1, "iters": v})()),
    ("OptimizerBudget", "budget restarts", COUNTS, lambda v: OptimizerBudget(restarts=v)),
    ("OptimizerBudget", "budget iters", COUNTS, lambda v: OptimizerBudget(iters=v)),
]
CASES = [pytest.param(field, call, v, id=f"{ctor}-{field}-{v!r}")
         for ctor, field, bad, call in FIELDS for v in bad]


@pytest.mark.parametrize("field,call,value", CASES)
def test_every_constructor_rejects_a_bad_input_naming_its_field(field, call, value):
    """The Gaussian rows used to pass: `JointCovariance.make` read the name 3
    as "3" and the size 1.7 as 1, and `CranNetwork.make` read "0.5" as 0.5
    and True as 1."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(field)):
            call(value)


def test_a_negative_size_no_longer_reads_an_infinite_mutual_information():
    """X, Y and Z of sizes 2, -1 and 2 cover three rows, X and Z sharing the
    middle one, so I(X;Z) read inf where the same matrix over three scalars
    gives 0."""
    m = np.eye(3)
    scalars = JointCovariance.make([("X", 1), ("Y", 1), ("Z", 1)], m)
    assert gauss_mi(scalars, ["X"], ["Z"]) == 0.0
    with pytest.raises(ValueError, match="covariance components"):
        JointCovariance.make([("X", 2), ("Y", -1), ("Z", 2)], m)


@pytest.mark.parametrize("size", [True, 1.0, np.float64(1.0)],
                         ids=["bool", "float", "numpy float"])
def test_the_cached_components_check_keeps_a_size_equal_to_an_integer_out(size):
    """True == 1 and 1.0 == 1: a check cached by the components tuple alone
    would pass them once ("X", 1) had been seen."""
    JointCovariance.make([("X", 1)], [[1.0]])
    with pytest.raises(ValueError, match="covariance components"):
        JointCovariance.make([("X", size)], [[1.0]])


def test_the_rule_accepts_numpy_integers_and_list_pairs():
    assert checked_axes([["X", np.int64(2)], ("Y", 3)], "axes") == (("X", 2), ("Y", 3))
    assert JointCovariance.make([["X", np.int32(1)]], [[2]]).components == (("X", 1),)
    assert checked_int(np.int64(3), "count", 1) == 3


@pytest.mark.parametrize("values,lo,shape,message", [
    ([1, "2"], -math.inf, None, "must be numbers, got '2'"),
    ([[1.0], [None]], -math.inf, None, "must be numbers, got None"),
    (np.array([True, False]), -math.inf, None, "must be numbers, got True"),
    ([0.5, -1], 0.0, None, "must be finite and >= 0, got -1.0"),
    ([1.0, math.inf], -math.inf, None, "must be finite, got inf"),
    ([1.0], -math.inf, (), "must have shape (), got (1,)"),
])
def test_checked_reals_names_what_it_rejects(values, lo, shape, message):
    with pytest.raises(ValueError, match=re.escape(f"field {message}")):
        checked_reals(values, "field", lo, shape=shape)


def test_checked_reals_returns_a_new_read_only_float_array():
    src = np.array([[1, 2], [3, 4]])
    out = checked_reals(src, "field", 1.0)
    assert out.dtype == float and not out.flags.writeable and not np.shares_memory(out, src)
