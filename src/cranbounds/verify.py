"""Executable checks for the two benchmark topologies.

The first puts one BS between the central processor and a single user and
compares the compression route against the known capacity min(C1, max I).
The second is the Z-interference network where (1,1) is achievable by the
compression scheme but provably not by the data-sharing scheme; the latter
half is a large seeded sweep over data-sharing distributions, so it is a
consistency check, not a proof.

Each sampled law resolves the data-sharing system to ``A x <= b`` over the
six auxiliary rates x >= 0.  By Farkas' lemma a vector y >= 0 with
``y A >= 0`` and ``y b < 0`` proves that no such x exists: y A x >= 0 for
every x >= 0, yet y A x <= y b < 0.  The sweep keeps a bank of such
certificates, the duals of `linprog` on infeasible samples, each checked
once in exact integers, and a sample that one of them proves infeasible
with ``y b < -1e-6 * ||y||_1`` never reaches the LP.  The LP calls a sample
feasible only with an x whose rows hold to within 1e-7, which would give
y b >= y A x - 1e-7 ||y||_1 > -1e-6 ||y||_1: the LP also calls every
screened sample infeasible, so the verdict is the one it alone would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import discrete
from .discrete import Channel, JointPmf
from .polytope import CompiledSystem, min_slack
from .regions import CAPACITIES, gcomp_theorem2_system, gds_theorem1_system

__all__ = [
    "ExampleReport",
    "example1_run",
    "example2_run",
    "zchannel_pmf",
    "random_gds_pmf_zchannel",
]

VERDICTS = ("confirmed", "sampled-consistent", "failed")
U_CAP = 4  # largest alphabet of the sampled auxiliary U1 in example 1
GDS_SLACK = 1e-6  # example 2 counts a data-sharing law only with slack above this


@dataclass
class ExampleReport:
    example: str
    values: dict = field(default_factory=dict)
    verdict: str = "failed"

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"bad verdict {self.verdict!r}")


# ---------------------------------------------------------------------------
# Single BS, single user
# ---------------------------------------------------------------------------


def _compression_rate(pmf: JointPmf, channel: Channel, c1: float) -> float:
    joint = discrete.compose(pmf, channel)
    i_uy = discrete.mutual_info(joint, {"U1"}, {"Y1"})
    i_ux_y = discrete.mutual_info(joint, {"U1"}, {"X1"}, {"Y1"})
    return min(i_uy, c1 - i_ux_y)


def example1_run(channel: Channel, c1: float, samples: int = 4000,
                 seed: int = 0) -> ExampleReport:
    """Compare min(C1, max_p I(X1;Y1)) with the best sampled compression
    rate min(I(U1;Y1), C1 - I(U1;X1|Y1)) over joint laws of (U1, X1).

    With a deterministic second hop the compression route reaches capacity
    (U1 = Y1 works); with a noisy hop and 0 < C1 < max I it stays strictly
    below, and the sampled margin is recorded.  `samples` may be 0: the two
    structured corners are always tried.
    """
    if samples < 0:
        raise ValueError(f"samples must be at least 0, got {samples}")
    if len(channel.inputs) != 1 or len(channel.outputs) != 1:
        raise ValueError("example 1 expects a single-input single-output channel")
    if channel.inputs[0][0] != "X1" or channel.outputs[0][0] != "Y1":
        channel = Channel.make([("X1", channel.inputs[0][1])],
                               [("Y1", channel.outputs[0][1])], channel.probs)
    nx = channel.inputs[0][1]
    max_i, p_star = discrete.blahut_arimoto(channel)
    capacity = min(c1, max_i)
    deterministic = bool(np.all((channel.probs < 1e-12) | (channel.probs > 1 - 1e-12)))

    rng = np.random.default_rng(seed)
    best = -np.inf

    def try_joint(p_x, cond):
        nonlocal best
        joint = p_x[:, None] * cond  # p(x) * p(u|x), axes (X1, U1)
        pmf = JointPmf.make([("X1", nx), ("U1", cond.shape[1])], joint)
        best = max(best, _compression_rate(pmf, channel, c1))

    # structured corners: U1 = X1 under the capacity-achieving and the
    # uniform input
    eye = np.eye(nx)
    try_joint(np.maximum(p_star, 0) / max(p_star.sum(), 1e-12), eye)
    try_joint(np.full(nx, 1.0 / nx), eye)
    for _ in range(samples):
        nu = int(rng.integers(2, U_CAP + 1))
        p_x = rng.dirichlet(np.ones(nx))
        cond = rng.dirichlet(np.ones(nu), size=nx)
        try_joint(p_x, cond)

    margin = capacity - best
    if deterministic:
        verdict = "confirmed" if abs(margin) <= 1e-6 else "failed"
    elif 0 < c1 < max_i:
        verdict = "sampled-consistent" if margin > 0 else "failed"
    else:
        verdict = "confirmed" if margin >= -1e-9 else "failed"
    return ExampleReport(
        "one-bs-one-user",
        {"C1": c1, "max_mutual_info": max_i, "capacity": capacity,
         "best_compression_rate": best, "margin": margin,
         "deterministic_hop": deterministic, "samples": samples, "u_cap": U_CAP},
        verdict)


# ---------------------------------------------------------------------------
# Z-interference network: Y1 = X1, Y2 = X1 xor X2
# ---------------------------------------------------------------------------


def zchannel_pmf() -> JointPmf:
    """The compression witness over (U1, U2, X0, X1, X2, Y1, Y2): U1, U2 iid
    uniform bits, X0 degenerate, X1 = U1, X2 = U1 xor U2, Y1 = X1 and
    Y2 = X1 xor X2."""
    u1, u2 = np.indices((2, 2)).reshape(2, 4)
    x1, x2 = u1, u1 ^ u2
    probs = np.zeros((2,) * 6)  # X0, of size 1, adds no cell
    probs[u1, u2, x1, x2, x1, x1 ^ x2] = 0.25
    return JointPmf.make([("U1", 2), ("U2", 2), ("X0", 1)]
                         + [(n, 2) for n in ("X1", "X2", "Y1", "Y2")], probs)


_GDS_VARS = [(n, 2) for n in ("U0", "V0", "U1", "V1", "U2", "V2", "Y1", "Y2")]
# (U0, V0, U1, V1, U2, V2) of each of the 64 auxiliary cells, row-major;
# the flat index of each cell's arguments in the 2x2x2x2 symbol maps; and
# each cell's flat index in the output tensor at Y1 = Y2 = 0.
_AUX = np.indices((2,) * 6).reshape(6, -1)
_F1_ARGS = np.ravel_multi_index(_AUX[[0, 1, 2, 3]], (2,) * 4)
_F2_ARGS = np.ravel_multi_index(_AUX[[0, 1, 4, 5]], (2,) * 4)
_Y_ORIGIN = 4 * np.arange(64)


def random_gds_pmf_zchannel(rng: np.random.Generator) -> JointPmf:
    """One data-sharing candidate: a Dirichlet joint law over six binary
    auxiliaries (U0, V0, U1, V1, U2, V2), random symbol maps
    X1 = f1(U0, V0, U1, V1) and X2 = f2(U0, V0, U2, V2) at the BSs, and the
    fixed deterministic Z-network outputs Y1 = X1, Y2 = X1 xor X2.  The law
    is over the auxiliaries and the outputs."""
    aux = rng.dirichlet(np.ones(64))
    f1 = rng.integers(0, 2, size=(2, 2, 2, 2))
    f2 = rng.integers(0, 2, size=(2, 2, 2, 2))
    x1, x2 = f1.take(_F1_ARGS), f2.take(_F2_ARGS)
    probs = np.zeros(256)
    probs[_Y_ORIGIN + 2 * x1 + (x1 ^ x2)] = aux
    return JointPmf.make(_GDS_VARS, probs)


LP_TOL = 1e-7  # a sample is feasible when some x >= 0 has max(A x - b) <= this
_PIVOT_TOL = 1e-12  # tableau entries within this of zero neither enter nor pivot
_MAX_PIVOTS = 1000
_SCREEN_MARGIN = 1e-6  # times ||y||_1; ten times LP_TOL
_BANK_CAP = 64  # certificates per membership check
# Dual values at or below this are taken as zero; the rest are rounded
# to fractions with denominators up to _DUAL_DENOMINATOR.
_DUAL_ZERO = 1e-9
_DUAL_DENOMINATOR = 10**6


def linprog(A: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """The phase-1 LP  min t  s.t.  A x - t 1 <= b,  x >= 0,  t >= 0, solved
    through its dual  max -b y  s.t.  y A >= 0,  sum y <= 1,  y >= 0  (feasible
    at y = 0) by a dense tableau simplex under Bland's rule (Bland 1977).
    Returns (t, x, y): x from the reduced costs of the slacks of y A >= 0,
    t = max(0, max(A x - b)), and the dual optimum y, checked to give -b y
    within 1e-9 (1 + ||b||_inf) of t with y A >= -1e-9.  Raises ValueError
    for a non-finite b, ArithmeticError past `_MAX_PIVOTS` pivots or when
    the check fails."""
    b = np.asarray(b, dtype=float)
    if not np.isfinite(b).all():
        raise ValueError("the right-hand side must be finite")
    m, k = A.shape
    # rows: -A^T y + s = 0, then 1 y + s = 1; last row: the reduced costs
    T = np.zeros((k + 2, m + k + 2))
    T[:-1, :-1] = np.c_[np.r_[-A.T, np.ones((1, m))], np.eye(k + 1)]
    T[k, -1], T[-1, :m] = 1.0, b
    basis = np.arange(m, m + k + 1)
    for _ in range(_MAX_PIVOTS):
        entering = np.flatnonzero(T[-1, :-1] < -_PIVOT_TOL)
        if not entering.size:
            break
        j = entering[0]
        rows = np.flatnonzero(T[:-1, j] > _PIVOT_TOL)
        ratios = T[rows, -1] / T[rows, j]
        ties = rows[ratios == ratios.min()]
        r = ties[np.argmin(basis[ties])]
        pivot = T[r] / T[r, j]
        T -= np.outer(T[:, j], pivot)
        T[r] = pivot
        basis[r] = j
    else:
        raise ArithmeticError(f"the phase-1 LP passed {_MAX_PIVOTS} pivots")
    y = np.zeros(m + k + 1)
    y[basis] = np.maximum(T[:-1, -1], 0.0)
    y = y[:m]
    x = np.maximum(T[-1, m:m + k], 0.0)
    t = max(0.0, float((A @ x - b).max()))
    if not (abs(t + b @ y) <= 1e-9 * (1.0 + np.abs(b).max()) and (y @ A).min() >= -1e-9):
        raise ArithmeticError(f"the phase-1 LP's optima do not check (t = {t!r})")
    return t, x, y


class _GdsMembership:
    """Containment of a rate pair in the data-sharing region, checked as
    feasibility of the auxiliary-rate polytope via linear programming.

    The left-hand-side matrix is shared by all samples; only the resolved
    right-hand sides change.  "Contained with slack > eps" means some
    auxiliary-rate vector satisfies every rate constraint with slack above
    eps (the nonnegativity bounds are structural and not tightened).

    `contains_screened` puts a bank of Farkas certificates in front of the
    LP.  A certificate is an integer vector y >= 0 whose y A >= 0 was checked
    in exact integers on the system's own coefficients; it proves a right-
    hand side b infeasible when y @ b < -1e-6 * ||y||_1.  That margin is ten
    times `LP_TOL`, so the LP would call every screened b infeasible too.
    Certificates are the dual optima of the LP on samples it found
    infeasible, at most `_BANK_CAP` of them per instance.
    """

    def __init__(self):
        self.system = gds_theorem1_system()
        assert self.system.variables[:2] == ["R1", "R2"], "rhs shifts these two columns"
        self.rows = CompiledSystem(self.system)
        self.caps = [self.rows.atoms.index(c) for c in CAPACITIES]
        self.A = self.rows.A[:, 2:]
        # entries in {-1, 0, 1}: for |y_i| < 2**53, |y A| < 74 * 2**53 < 2**60 fits int64
        self.A_int = self.A.astype(np.int64)
        assert np.array_equal(self.A_int, self.A) and np.abs(self.A_int).max() <= 1
        self.certificates = np.zeros((0, len(self.A)))
        self.screened = 0

    def valuation(self, pmf: JointPmf, caps: dict[str, float]) -> np.ndarray:
        """The atoms of `rows` on `pmf`, in order, with capacities from `caps`."""
        values = discrete.atom_values(pmf, self.rows.atoms)
        values[self.caps] = [caps[c] for c in CAPACITIES]
        return values

    def rhs(self, valuation: np.ndarray, r1: float, r2: float,
            slack: float = 0.0) -> np.ndarray:
        """Right-hand side b of ``A x <= b`` at the rate pair (r1, r2)."""
        return self.rows.rhs(valuation) - self.rows.A[:, :2] @ np.array([r1, r2]) - slack

    def screens(self, b: np.ndarray) -> bool:
        """True when a banked certificate proves ``A x <= b`` infeasible."""
        bank = self.certificates
        return bool(np.any(bank @ b < -_SCREEN_MARGIN * bank.sum(axis=1)))

    def admit(self, y: np.ndarray, b: np.ndarray) -> bool:
        """Bank candidate y if, once rounded to coprime integers, it passes
        y A >= 0 in exact integers and screens b; returns whether it did."""
        if len(self.certificates) >= _BANK_CAP:
            return False
        fracs = [Fraction(float(v)).limit_denominator(_DUAL_DENOMINATOR)
                 if v > _DUAL_ZERO else Fraction(0) for v in y]
        scale = math.lcm(*(f.denominator for f in fracs))
        ints = [int(f * scale) for f in fracs]
        common = math.gcd(*ints)
        if common == 0 or max(ints) // common >= 2**53:
            return False
        ints = np.array([v // common for v in ints], dtype=np.int64)
        if (ints @ self.A_int).min() < 0:
            return False
        cert = ints.astype(float)
        if not cert @ b < -_SCREEN_MARGIN * cert.sum():
            return False
        self.certificates = np.vstack([self.certificates, cert])
        return True

    def contains_screened(self, valuation: np.ndarray, r1: float, r2: float,
                          slack: float = 0.0) -> bool:
        """Whether (r1, r2) is contained with slack above `slack`: the
        certificate bank decides the samples it can prove infeasible, one
        LP the rest, and the bank learns from the LP's infeasible duals."""
        b = self.rhs(valuation, r1, r2, slack)
        if self.screens(b):
            self.screened += 1
            return False
        t, _, y = linprog(self.A, b)
        if t <= LP_TOL:
            return True
        self.admit(y, b)
        return False


def example2_run(samples: int = 10_000, seed: int = 0) -> ExampleReport:
    """(a) Confirm (1,1) lies in the compression region of the Z-network
    witness exactly (all atoms are integer bits, zero tolerance).
    (b) Sweep `samples` random data-sharing laws and confirm none contains
    (1,1) with slack above `GDS_SLACK`; `samples` must be at least 1."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    caps = {"C1": 1.0, "C2": 1.0, "C12": 0.0, "C21": 0.0}
    t2 = gcomp_theorem2_system()
    witness = zchannel_pmf()
    val = discrete.atom_valuation(witness, sorted(t2.atoms()), constants=caps)
    point = {"R1": 1.0, "R2": 1.0}
    part_a_slack = min_slack(t2, val, point)
    part_a = part_a_slack >= 0.0  # is_member with tol = 0

    member = _GdsMembership()
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(samples):
        pmf = random_gds_pmf_zchannel(rng)
        gds_val = member.valuation(pmf, caps)
        if member.contains_screened(gds_val, 1.0, 1.0, slack=GDS_SLACK):
            hits += 1
    verdict = "failed"
    if part_a and hits == 0:
        verdict = "sampled-consistent"
    values = {"compression_member": bool(part_a),
              "compression_min_slack": part_a_slack,
              "gds_samples": samples, "gds_hits": hits, "slack": GDS_SLACK,
              "seed": seed, "gds_screened": member.screened,
              "gds_certificates": len(member.certificates)}
    return ExampleReport("z-interference", values, verdict)
