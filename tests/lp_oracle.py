"""scipy's HiGHS as the test oracle for `verify.linprog`: feasibility of
``A x <= b`` over x >= 0, decided by HiGHS alone.  Skipped without scipy."""

import numpy as np
import pytest


def highs_feasible(A: np.ndarray, b: np.ndarray) -> bool:
    linprog = pytest.importorskip("scipy.optimize").linprog
    k = A.shape[1]
    res = linprog(np.zeros(k), A_ub=A, b_ub=b, bounds=[(0, None)] * k, method="highs")
    assert res.status in (0, 2), res.message
    return res.status == 0


def lp_contains(member, valuation, r1, r2, slack=0.0) -> bool:
    """The oracle for `_GdsMembership.contains_screened`: HiGHS alone, with
    no certificate bank in front of it."""
    return highs_feasible(member.A, member.rhs(valuation, r1, r2, slack))
