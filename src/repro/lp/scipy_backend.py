"""Floating-point LP backend on top of HiGHS (bundled with scipy).

Used for (a) cross-checking the exact simplex on every LP family in the
test-suite, (b) large parameter sweeps in benchmarks where exactness is
not needed, and (c) :func:`propose_basis`, the float search behind
:meth:`repro.lp.model.LinearProgram.optimum`: HiGHS solves the exact
engine's standard form and hands back only the *column ids* of its
optimal basis, which :class:`repro.lp.simplex.SimplexInstance` then
certifies (or repairs) in exact arithmetic.  No float ever reaches the
exact engine.

:func:`solve_scipy` outputs are rationalised (``limit_denominator``) so
the calling code sees the same Fraction-based interface; callers that
feed a solution into schedule reconstruction should use the exact
backend, as documented in :meth:`repro.lp.model.LinearProgram.solve`.

This is the exactness lint's declared float backend: float code for the
LP layer lives here and nowhere else.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, List, Optional

import numpy as np
from scipy.optimize import linprog

from .model import (
    InfeasibleError,
    LinearProgram,
    LPError,
    LPSolution,
    UnboundedError,
    Variable,
)


def solve_scipy(
    lp: LinearProgram,
    rationalize: int = 10**9,
) -> LPSolution:
    """Solve with HiGHS; rationalise outputs with ``limit_denominator``."""
    assert lp.objective is not None
    nvars = len(lp.variables)
    col_of: Dict[Variable, int] = {v: i for i, v in enumerate(lp.variables)}

    sign = -1.0 if lp.sense == "max" else 1.0
    c = np.zeros(nvars)
    for var, coef in lp.objective.terms.items():
        c[col_of[var]] = sign * float(coef)

    a_ub: List[np.ndarray] = []
    b_ub: List[float] = []
    a_eq: List[np.ndarray] = []
    b_eq: List[float] = []
    for cons in lp.constraints:
        terms, sense, rhs = cons.normalized()
        row = np.zeros(nvars)
        for var, coef in terms.items():
            row[col_of[var]] = float(coef)
        if sense == "<=":
            a_ub.append(row)
            b_ub.append(float(rhs))
        elif sense == ">=":
            a_ub.append(-row)
            b_ub.append(-float(rhs))
        else:
            a_eq.append(row)
            b_eq.append(float(rhs))

    bounds = []
    for var in lp.variables:
        lo = None if var.lo is None else float(var.lo)
        hi = None if var.hi is None else float(var.hi)
        bounds.append((lo, hi))

    res = linprog(
        c,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=bounds,
        method="highs",
    )
    if res.status == 2:
        raise InfeasibleError(f"{lp.name!r} infeasible (HiGHS)")
    if res.status == 3:
        raise UnboundedError(f"{lp.name!r} unbounded (HiGHS)")
    if not res.success:
        raise LPError(f"HiGHS failed on {lp.name!r}: {res.message}")

    values: Dict[Variable, Fraction] = {}
    for var in lp.variables:
        x = float(res.x[col_of[var]])
        frac = Fraction(x).limit_denominator(rationalize)
        # Clamp tiny negatives produced by float noise to the bound.
        if var.lo is not None and frac < var.lo:
            frac = var.lo
        if var.hi is not None and frac > var.hi:
            frac = var.hi
        values[var] = frac

    objective_float = sign * float(res.fun)
    objective = Fraction(objective_float).limit_denominator(rationalize)
    return LPSolution(
        objective=objective,
        values=values,
        backend="scipy",
        iterations=int(res.nit) if hasattr(res, "nit") else 0,
    )


#: HiGHS settings for the basis search: the serial dual simplex on one
#: thread, silent.  The serial simplex is deterministic, so the same
#: standard form always yields the same candidate basis.
_HIGHS_OPTIONS: Dict[str, Any] = {
    "output_flag": False,
    "solver": "simplex",
    "simplex_strategy": 1,
    "threads": 1,
}


def propose_basis(sf: Any) -> Optional[List[int]]:
    """A candidate optimal basis for the exact engine's standard form.

    ``sf`` is a :class:`repro.lp.simplex._StandardForm`: ``min c·u``
    subject to ``A u = b``, ``u >= 0``, with ``sf.rows`` the sparse rows
    of ``A``.  HiGHS solves it in floats; the result is the list of its
    basic column ids, where structural column ``j`` is ``j`` and the
    logical of row ``r`` is ``num_cols + r``.  ``None`` when HiGHS stops
    at any status other than optimal; a missing or failing HiGHS raises,
    which :meth:`repro.lp.simplex.SimplexInstance.solve` treats as no
    proposal.

    The list is only a hint: nothing here is trusted.  The exact engine
    checks it with one exact LU and falls back to exact pivots when it
    is wrong.  One HiGHS object is built per call and released on
    return; none is kept.
    """
    from scipy.optimize._highspy import _core

    m, n = len(sf.rows), sf.num_cols
    columns: List[List[tuple]] = [[] for _ in range(n)]
    for i, row in enumerate(sf.rows):
        for j, v in row.items():
            columns[j].append((i, float(v)))
    start = [0]
    index: List[int] = []
    value: List[float] = []
    for col in columns:
        for i, v in col:
            index.append(i)
            value.append(v)
        start.append(len(index))
    cost = np.zeros(n)
    for j, c in sf.cost.items():
        cost[j] = float(c)
    rhs = np.array([float(b) for b in sf.rhs], dtype=float)

    lp = _core.HighsLp()
    lp.num_col_ = n
    lp.num_row_ = m
    lp.col_cost_ = cost
    lp.col_lower_ = np.zeros(n)
    lp.col_upper_ = np.full(n, _core.kHighsInf)
    lp.row_lower_ = rhs
    lp.row_upper_ = rhs
    lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
    lp.a_matrix_.num_col_ = n
    lp.a_matrix_.num_row_ = m
    lp.a_matrix_.start_ = np.array(start, dtype=np.int32)
    lp.a_matrix_.index_ = np.array(index, dtype=np.int32)
    lp.a_matrix_.value_ = np.array(value, dtype=float)

    highs = _core._Highs()
    for key, val in _HIGHS_OPTIONS.items():
        if highs.setOptionValue(key, val) == _core.HighsStatus.kError:
            return None
    if highs.passModel(lp) == _core.HighsStatus.kError:
        return None
    if highs.run() == _core.HighsStatus.kError:
        return None
    if highs.getModelStatus() != _core.HighsModelStatus.kOptimal:
        return None
    basis = highs.getBasis()
    if not basis.valid:
        return None
    basic = _core.HighsBasisStatus.kBasic
    out = [j for j, s in enumerate(basis.col_status) if s == basic]
    out.extend(n + r for r, s in enumerate(basis.row_status) if s == basic)
    return out
