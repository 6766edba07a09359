"""Reference paths of the four Gaussian schemes, one point at a time.

`build_joint_cov` here is the hand-written construction that
`cranbounds.schemes` replaced with one linear-Gaussian builder: each scheme
spells out its own noise columns, output rows and component list, and
checks its parameters with its own power formula.  The builder test holds
`build_joint_cov` to this oracle's matrices and to its ValueError outcomes.

`named_sumrate` is the evaluation that `cranbounds.schemes` replaced with
one vector in the compiled region's atom order: the atoms as a name-keyed
valuation, merged with `caps_valuation`, GDS-III gated by
`corollary3_feasible`, then `max_sum_rate` on the name-keyed valuation.

`scheme_sumrate` is the scalar path that the stacked lanes replaced: the
parameter map, the linear builder and its checks, and the log-pdet kernel,
one point at a time; `optimize` is the search one restart after another.

`named_path` and `scalar_path` install a path in `cranbounds.schemes`, so
that a search or a sweep runs on it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from conftest import caps_valuation
from cranbounds import gaussian, schemes
from cranbounds.gaussian import CranNetwork, JointCovariance
from cranbounds.atoms import atom_plan, checked_reals
from cranbounds.polytope import CompiledRegion, max_sum_rate
from cranbounds.regions import corollary3_feasible, corollary3_side_conditions, make_region


def _check_psd(m: np.ndarray, what: str, tol: float = 1e-8):
    w = np.linalg.eigvalsh(0.5 * (m + m.T))
    if w.min(initial=0.0) < -tol * max(1.0, abs(w).max(initial=1.0)):
        raise ValueError(f"{what} is not PSD")


def base_cov(params) -> np.ndarray:
    """Covariance of (S1, S2, W, X0) of a compression instance."""
    base = np.zeros((7, 7))
    base[0:2, 0:2] = params.K1
    base[2:4, 2:4] = params.K2
    base[4:6, 4:6] = params.Kw
    base[6, 0:6] = params.x0cov
    base[0:6, 6] = params.x0cov
    base[6, 6] = 1.0
    return base


def validate(scheme: str, params, P: float):
    """The per-class parameter checks of the hand-written construction."""
    if scheme == "GDS-II":
        if np.sum(params.a ** 2) > P + 1e-6 or np.sum(params.b ** 2) > P + 1e-6:
            raise ValueError("per-BS power violated: coefficient norm > P")
        return
    _check_psd(params.K1, "K1")
    _check_psd(params.K2, "K2")
    if scheme == "GDS-I":
        power = np.diag(params.K1 + params.K2)
    elif scheme == "GDS-III":
        ia = np.eye(2) + params.A
        power = np.diag(ia @ params.K1 @ ia.T + params.K2)
    else:
        _check_psd(params.Kw, "Kw")
        power = np.diag(params.K1 + params.K2 + params.Kw)
    if np.any(power > P + 1e-6):
        raise ValueError("per-BS power violated")
    if scheme == "GCOMP":
        _check_psd(base_cov(params), "joint (S1,S2,W,X0) covariance", tol=1e-6)


def _dpc_precoder(K2, g2, Kw=None):
    total = K2 if Kw is None else K2 + Kw
    denom = 1.0 + float(g2 @ total @ g2)
    return np.outer(K2 @ g2, g2) / denom


def _assemble(components, rows, base_cov) -> JointCovariance:
    M = np.vstack(rows)
    return JointCovariance.make(components, M @ base_cov @ M.T)


def build_joint_cov(scheme: str, params, network: CranNetwork) -> JointCovariance:
    G = network.G
    if G.shape != (2, 2):
        raise ValueError("Gaussian scheme constructions are 2-BS 2-user")
    g1, g2 = G[0], G[1]
    if scheme not in ("GDS-I", "GDS-II", "GDS-III", "GCOMP"):
        raise ValueError(f"unknown Gaussian scheme {scheme!r}")
    validate(scheme, params, network.P)
    I2, Z2 = np.eye(2), np.zeros((2, 2))
    if scheme == "GDS-I":
        A = _dpc_precoder(params.K2, g2)
        base = np.zeros((6, 6))
        base[0:2, 0:2] = params.K1
        base[2:4, 2:4] = params.K2
        base[4:6, 4:6] = np.eye(2)
        rows = [
            np.hstack([I2, Z2, Z2]),            # U0 = S1
            np.hstack([A, I2, Z2]),             # V0 = S2 + A S1
            np.array([[1, 0, 1, 0, 0, 0]]),     # X1
            np.array([[0, 1, 0, 1, 0, 0]]),     # X2
            np.hstack([[g1], [g1], [[1, 0]]]),  # Y1
            np.hstack([[g2], [g2], [[0, 1]]]),  # Y2
        ]
        comps = [("U0", 2), ("V0", 2), ("X1", 1), ("X2", 1), ("Y1", 1), ("Y2", 1)]
        return _assemble(comps, rows, base)
    if scheme == "GDS-II":
        a, b = params.a, params.b
        base = np.eye(8)  # U0 V0 U1 V1 U2 V2 Z1 Z2
        x1 = np.array([a[0], a[1], a[2], a[3], 0, 0, 0, 0])
        x2 = np.array([b[0], b[1], 0, 0, b[2], b[3], 0, 0])
        y1 = g1[0] * x1 + g1[1] * x2
        y1[6] = 1.0
        y2 = g2[0] * x1 + g2[1] * x2
        y2[7] = 1.0
        rows = [np.eye(8)[i][None, :] for i in range(6)] + [x1[None, :], x2[None, :],
                                                            y1[None, :], y2[None, :]]
        comps = [("U0", 1), ("V0", 1), ("U1", 1), ("V1", 1), ("U2", 1), ("V2", 1),
                 ("X1", 1), ("X2", 1), ("Y1", 1), ("Y2", 1)]
        return _assemble(comps, rows, base)
    if scheme == "GDS-III":
        A = params.A
        base = np.zeros((6, 6))
        base[0:2, 0:2] = params.K1
        base[2:4, 2:4] = params.K2
        base[4:6, 4:6] = np.eye(2)
        U = np.hstack([I2, Z2, Z2])             # (U1,U2) = S1
        V = np.hstack([A, I2, Z2])              # (V1,V2) = S2 + A S1
        X = np.hstack([I2 + A, I2, Z2])         # X = (I+A) S1 + S2
        y1 = g1 @ X
        y1[4] = 1.0
        y2 = g2 @ X
        y2[5] = 1.0
        rows = [U[0][None, :], U[1][None, :], V[0][None, :], V[1][None, :],
                X[0][None, :], X[1][None, :], y1[None, :], y2[None, :]]
        comps = [("U1", 1), ("U2", 1), ("V1", 1), ("V2", 1),
                 ("X1", 1), ("X2", 1), ("Y1", 1), ("Y2", 1)]
        return _assemble(comps, rows, base)
    A = _dpc_precoder(params.K2, g2, params.Kw)
    base = np.zeros((9, 9))  # S1 S2 W X0 Z1 Z2
    base[0:7, 0:7] = base_cov(params)
    base[7, 7] = base[8, 8] = 1.0
    z1 = np.zeros((2, 1))
    U1 = np.hstack([I2, Z2, Z2, z1, z1, z1])      # U1 = S1
    U2 = np.hstack([A, I2, Z2, z1, z1, z1])       # U2 = S2 + A S1
    X = np.hstack([I2, I2, I2, z1, z1, z1])       # X = S1 + S2 + W
    X0 = np.zeros((1, 9))
    X0[0, 6] = 1.0
    y1 = g1 @ X
    y1[7] = 1.0
    y2 = g2 @ X
    y2[8] = 1.0
    rows = [U1, U2, X0, X[0][None, :], X[1][None, :], y1[None, :], y2[None, :]]
    comps = [("U1", 2), ("U2", 2), ("X0", 1), ("X1", 1), ("X2", 1),
             ("Y1", 1), ("Y2", 1)]
    return _assemble(comps, rows, base)


@functools.cache
def _region(scheme: str) -> CompiledRegion:
    return CompiledRegion(make_region("GCOMP-T2" if scheme == "GCOMP" else scheme))


@functools.cache
def region_atoms(scheme: str) -> tuple[str, ...]:
    """The information atoms of a scheme's region and, for GDS-III, of its
    side conditions, sorted by name."""
    atoms = set(_region(scheme).rows.atoms)
    if scheme == "GDS-III":
        for lhs, rhs in corollary3_side_conditions():
            atoms.add(lhs.name)
            atoms.update(r.name for r in rhs)
    return tuple(sorted(atoms - {"C1", "C2", "C12", "C21"}))


def scheme_valuation(scheme: str, params, network: CranNetwork) -> dict[str, float]:
    cov = schemes.build_joint_cov(scheme, params, network)
    return gaussian.atom_valuation(cov, region_atoms(scheme))


def sumrate_from_valuation(scheme: str, mi_val: dict[str, float],
                           network: CranNetwork) -> float:
    val = mi_val | caps_valuation(network)
    if scheme == "GDS-III" and not corollary3_feasible(val):
        return 0.0
    return max_sum_rate(_region(scheme), val)


def named_sumrate(scheme: str, params, network: CranNetwork) -> float:
    return sumrate_from_valuation(scheme, scheme_valuation(scheme, params, network), network)


def _install(monkeypatch, sumrate):
    """Route the search objective and the sum rates of the pooled optima of
    `schemes` through sumrate(scheme, params, network), one point at a
    time."""
    def objective(scheme, X, networks):
        out = []
        for x, net in zip(X, networks):
            try:
                out.append(sumrate(scheme, to_params(scheme, x, net.P), net))
            except ValueError:
                out.append(-np.inf)
        return out

    monkeypatch.setattr(schemes, "_objective", objective)
    monkeypatch.setattr(schemes, "scheme_sumrate", sumrate)


def named_path(monkeypatch):
    _install(monkeypatch, named_sumrate)


def scalar_path(monkeypatch):
    _install(monkeypatch, scheme_sumrate)


# ---------------------------------------------------------------------------
# The scalar path: one point at a time, as `cranbounds.schemes` evaluated
# before its searches became lockstep lanes.  Every lane of the stacked
# evaluation must equal it bit for bit.  The squares of the 2x2 closed forms
# are Python's `** 2`, which calls C pow and rounds otherwise than t * t on
# about 1 in 1,000 values; math.log2 rounds otherwise than np.log2 on about
# 3 in 10^4.
# ---------------------------------------------------------------------------

_EIG_REL_TOL = gaussian._EIG_REL_TOL


def _psd_top(w, what, tol):
    lo, hi = (float(w[0]), float(w[-1])) if len(w) else (0.0, 0.0)
    if lo < -tol * max(1.0, -lo, hi):
        raise ValueError(f"{what} is not PSD (min eigenvalue {lo})")
    return max(hi, 0.0)


def check_psd(m, what, tol):
    """The PSD test of one matrix: non-finite entries named first, a 2x2 in
    closed form in Python floats, a larger one by `eigvalsh`."""
    entries = m.ravel().tolist()
    if not all(map(math.isfinite, entries)):
        raise ValueError(f"{what} is not finite")
    if m.shape != (2, 2):
        return _psd_top(np.linalg.eigvalsh(0.5 * (m + m.T)), what, tol)
    a, b, c, d = entries
    h, off = 0.5 * (a + d), 0.5 * (b + c)
    r = math.sqrt((0.5 * (a - d)) ** 2 + off * off)
    return _psd_top((h - r, h + r), what, tol)


def make_joint(components, m) -> JointCovariance:
    """`JointCovariance.make`'s checks on one float matrix over checked
    components."""
    m = checked_reals(m, "covariance entries")
    asymmetric = (m != m.T).any()
    if asymmetric and np.abs(m - m.T).max() > 1e-10 * max(1.0, np.abs(m).max()):
        raise ValueError("covariance matrix is not symmetric")
    m = 0.5 * (m + m.T) if asymmetric else m
    return JointCovariance(tuple(components), m,
                           _psd_top(np.linalg.eigvalsh(m), "covariance matrix", 1e-9))


def _blockdiag(*blocks):
    n = sum(len(b) for b in blocks)
    out, i = np.zeros((n, n)), 0
    for b in blocks:
        out[i:i + len(b), i:i + len(b)] = b
        i += len(b)
    return out


def linear_joint_cov(scheme: str, params, network: CranNetwork) -> JointCovariance:
    """The one linear-Gaussian builder, one point at a time: rows W S and
    outputs G X S + Z; the parameter checks first, then the per-BS power."""
    if network.G.shape != (2, 2):
        raise ValueError("Gaussian scheme constructions are 2-BS 2-user")
    if scheme not in schemes.GAUSSIAN_SCHEMES:
        raise ValueError(f"unknown Gaussian scheme {scheme!r}")
    W, g2, psd = schemes._SCHEMES[scheme][2].copy(), network.G[1], ()
    if scheme == "GDS-II":
        for name, v in (("a", params.a), ("b", params.b)):
            if not np.isfinite(v).all():
                raise ValueError(f"{name} is not finite")
        base, comps = W[:6], [(n, 1) for n in ("U0", "V0", "U1", "V1", "U2", "V2")]
        W[6, :4], W[7, [0, 1, 4, 5]] = params.a, params.b
    elif scheme == "GCOMP":
        base = _blockdiag(params.K1, params.K2, params.Kw, [[1.0]])
        base[6, 0:6] = base[0:6, 6] = params.x0cov
        comps = [("U1", 2), ("U2", 2), ("X0", 1)]
        W[2:4, 0:2] = _dpc_precoder(params.K2, g2, params.Kw)
        psd = (("Kw", params.Kw, 1e-8), ("joint (S1,S2,W,X0) covariance", base, 1e-6))
    elif scheme == "GDS-I":
        base, comps = _blockdiag(params.K1, params.K2), [("U0", 2), ("V0", 2)]
        W[2:4, 0:2] = _dpc_precoder(params.K2, g2)
    else:
        base = _blockdiag(params.K1, params.K2)
        comps = [(n, 1) for n in ("U1", "U2", "V1", "V2")]
        W[2:4, 0:2] = params.A
        W[4:6, 0:2] += params.A
    if scheme != "GDS-II":
        psd = (("K1", params.K1, 1e-8), ("K2", params.K2, 1e-8), *psd)
    for name, m, tol in psd:
        check_psd(m, name, tol)
    n, k = base.shape[0], W.shape[0] - 2
    M = np.zeros((k + 4, n + 2))
    M[:k + 2, :n] = W
    M[k + 2:, :n] = [g @ W[k:] for g in network.G]
    B = np.zeros((n + 2, n + 2))
    B[:n, :n] = base
    M[k + 2, n] = M[k + 3, n + 1] = B[n, n] = B[n + 1, n + 1] = 1.0
    cov = M @ B @ M.T
    if cov[k, k] > network.P + 1e-6 or cov[k + 1, k + 1] > network.P + 1e-6:
        raise ValueError("per-BS power violated: var(X1) or var(X2) > P")
    return make_joint([*comps, ("X1", 1), ("X2", 1), ("Y1", 1), ("Y2", 1)], cov)


def subset_logpdets(cov: JointCovariance, subsets):
    """The log-pdet kernel on one covariance: 1x1 and 2x2 blocks in closed
    form through math.log2, larger ones by one `eigvalsh` per size, the
    spectra under 8 wide padded to 7 with -1."""
    m = cov.matrix
    cut = _EIG_REL_TOL * cov.top_eigenvalue
    logs, ranks = [0.0] * len(subsets), [0] * len(subsets)
    offsets = gaussian._offsets(cov.components)
    by_size = {}
    for k, s in enumerate(subsets):
        idx = [i for n in sorted(s) for i in offsets[n]]
        by_size.setdefault(len(idx), []).append((k, *idx))
    rows = m.tolist()
    for k, i in by_size.get(1, ()):
        if rows[i][i] > cut:
            logs[k], ranks[k] = math.log2(rows[i][i]), 1
    for k, i, j in by_size.get(2, ()):
        a, d, off = rows[i][i], rows[j][j], rows[i][j]
        h, r = 0.5 * (a + d), math.sqrt(max(0.0, (0.5 * (a - d)) ** 2 + off * off))
        for w in (h - r, h + r):
            if w > cut:
                logs[k] += math.log2(w)
                ranks[k] += 1
    logs, ranks = np.array(logs), np.array(ranks, dtype=float)
    arrays = [np.array(g, dtype=np.intp) for n, g in by_size.items() if n > 2]
    narrow = np.array([k for a in arrays if a.shape[1] < 9 for k in a[:, 0]], dtype=np.intp)
    spectra, at = [(narrow, np.full((len(narrow), 7), -1.0))], 0
    for a in arrays:
        w = np.linalg.eigvalsh(m[a[:, 1:, None], a[:, None, 1:]])
        if w.shape[1] < 8:
            spectra[0][1][at:at + len(w), :w.shape[1]] = w
            at += len(w)
        else:
            spectra.append((a[:, 0], w))
    for ks, w in spectra:
        kept = w > cut
        logs[ks] = np.log2(np.where(kept, w, 1.0)).sum(axis=1)
        ranks[ks] = kept.sum(axis=1)
    return logs, ranks


def atom_values(cov: JointCovariance, atoms) -> np.ndarray:
    plan = atom_plan(cov.names, tuple(atoms))
    logs, ranks = subset_logpdets(cov, plan.subsets)
    values = 0.5 * (plan.coeffs @ logs)
    values[plan.coeffs @ ranks > 0] = np.inf
    return np.maximum(values, 0.0, out=values, where=plan.clamp)


def scalar_atom_values(scheme: str, params, network: CranNetwork) -> np.ndarray:
    """The atoms of the scheme's compiled region at `params`, in order."""
    return atom_values(linear_joint_cov(scheme, params, network),
                       schemes._compiled(scheme)[0].rows.atoms)


def sumrate_of_values(scheme: str, values: np.ndarray, network: CranNetwork) -> float:
    region, caps = schemes._compiled(scheme)
    values[caps] = *network.C, network.Ccoop[0, 1], network.Ccoop[1, 0]
    return max_sum_rate(region, values)


def scheme_sumrate(scheme: str, params, network: CranNetwork) -> float:
    """The sum rate at `params`, one point at a time."""
    return sumrate_of_values(scheme, scalar_atom_values(scheme, params, network), network)


def _vec_to_psd(vec):
    L = np.array([[vec[0], 0.0], [vec[1], vec[2]]])
    return L @ L.T


def _scale_to_power(mats, P):
    d = np.diag(sum(mats))
    scale = np.sqrt(np.minimum(1.0, P / np.maximum(d, 1e-300)))
    D = np.diag(scale)
    return [D @ m @ D for m in mats]


def initial(scheme: str, P: float, rng: np.random.Generator, restart: int) -> np.ndarray:
    s = np.sqrt(max(P, 1e-12))
    if restart == 0:
        return schemes._SCHEMES[scheme][1] * s
    return rng.normal(0.0, 0.5 * s, size=len(schemes._SCHEMES[scheme][1]))


def to_params(scheme: str, x: np.ndarray, P: float):
    """The parameters at the optimizer vector x, one point at a time."""
    if scheme == "GDS-I":
        K1, K2 = _scale_to_power([_vec_to_psd(x[0:3]), _vec_to_psd(x[3:6])], P)
        return schemes.DescriptionIParams(K1, K2)
    if scheme == "GDS-II":
        a, b = x[0:4].copy(), x[4:8].copy()
        na, nb = a @ a, b @ b
        if na > P:
            a *= np.sqrt(P / na)
        if nb > P:
            b *= np.sqrt(P / nb)
        return schemes.DescriptionIIParams(a, b)
    if scheme == "GDS-III":
        K1, K2 = _vec_to_psd(x[0:3]), _vec_to_psd(x[3:6])
        A = x[6:10].reshape(2, 2)
        ia = np.eye(2) + A
        d = np.diag(ia @ K1 @ ia.T + K2)
        worst = d.max(initial=0.0)
        if worst > P:
            s = P / worst
            K1, K2 = s * K1, s * K2
        return schemes.DescriptionIIIParams(K1, K2, A)
    K1, K2, Kw = _scale_to_power([_vec_to_psd(x[i:i + 3]) for i in (0, 3, 6)], P)
    base = _blockdiag(K1, K2, Kw)
    w, v = np.linalg.eigh(base)
    inv = np.where(w > 1e-12, 1.0 / np.where(w > 1e-12, w, 1.0), 0.0)
    onto = v @ (inv * (v.T @ x[9:15]))
    c = base @ onto
    q = float(c @ onto)
    if q > 1.0 - 1e-9:
        c = c * np.sqrt((1.0 - 1e-9) / q)
    return schemes.CompressionParams(K1, K2, Kw, c)


def objective(scheme: str, x: np.ndarray, network: CranNetwork) -> float:
    """The search objective at x: the sum rate, -inf where a check fails."""
    try:
        return scheme_sumrate(scheme, to_params(scheme, x, network.P), network)
    except ValueError:  # LinAlgError included
        return -np.inf


def pattern_search(f, x0, step0, min_step, max_evals, stop_at=np.inf):
    """Coordinate pattern search on f, one call per point."""
    x = x0.copy()
    fx = f(x)
    evals = 1
    step = step0
    while step > min_step and evals < max_evals:
        if fx >= stop_at:
            break
        improved = False
        for i in range(len(x)):
            for sgn in (1.0, -1.0):
                if evals >= max_evals:
                    return x, fx, evals
                y = x.copy()
                y[i] += sgn * step
                fy = f(y)
                evals += 1
                if fy > fx + 1e-12:
                    x, fx = y, fy
                    improved = True
                    break
            if fx >= stop_at:
                return x, fx, evals
        if not improved:
            step *= 0.5
    return x, fx, evals


def optimize(scheme: str, network: CranNetwork, budget) -> tuple:
    """`optimize_scheme`, one restart after another on the scalar path with
    no memo: (best point or None, sum rate, evals, best restart)."""
    seeds = np.random.SeedSequence(budget.seed).spawn(budget.restarts)
    step0 = schemes.STEP0_SCALE * np.sqrt(max(network.P, 1e-12))
    best_x, best_f, best_r, total = None, -np.inf, -1, 0
    stop_at = schemes.scheme_sum_cap(scheme, network) - 1e-9
    for r in range(budget.restarts):
        x0 = initial(scheme, network.P, np.random.default_rng(seeds[r]), r)
        x, fx, ev = pattern_search(lambda y: objective(scheme, y, network), x0, step0,
                                   schemes.MIN_STEP, budget.iters, stop_at)
        total += ev
        if fx > best_f + 1e-12:
            best_x, best_f, best_r = x, fx, r
        if best_f >= stop_at:
            break
    return best_x, max(0.0, best_f), total, best_r
