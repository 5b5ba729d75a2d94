"""Exact simplex over rational numbers, with basis-reusing warm re-solves.

Why from scratch: the steady-state methodology needs the *rational* optimal
basic solution (section 4.1 derives the period ``T`` as the lcm of the
denominators of the activity variables), and no rational LP solver is
available offline.

Two engines share one standard-form front end and one decode path:

* ``"revised"`` (the default) — a **sparse revised simplex**: the basis is
  held as a Markowitz-ordered sparse LU (:mod:`repro.lp.factor`) with
  product-form eta updates per pivot.  Each iteration prices reduced
  costs through one BTRAN and updates the basis through one FTRAN plus
  one appended eta vector — O(nnz) work where the dense tableau paid
  O(m·n) Fraction operations — with periodic refactorisation when the
  eta file grows past its length or fill thresholds.  A warm restart is
  **one sparse LU of the retained basis** against the patched
  coefficients, not a Gauss-Jordan sweep.
* ``"tableau"`` — the original dense tableau, kept behind this flag as
  the differential-testing baseline.  Both engines follow the same
  pivot rules (Dantzig entering with a Bland anti-cycling degradation,
  identical ratio-test tie-breaks), so a *cold* solve produces the
  identical pivot sequence — and therefore the identical optimal
  vertex — on both engines; warm repairs may walk different (equally
  optimal) paths but always land on the same exact objective.

The solve is split into three phases behind :class:`SimplexInstance`:

1. **assemble** — the caller builds (or patches) a
   :class:`~repro.lp.model.LinearProgram`;
2. **standard form** — :func:`_build_standard_form` lowers it to
   ``min c·u, A u = b, u >= 0`` plus the column-decoding recipe;
3. **pivot** — a cold solve runs the two-phase primal simplex, while a
   *warm* solve restarts from the basis retained by the previous solve
   of the same instance: the basis is re-factorised against the patched
   coefficients, primal/dual feasibility is repaired as needed (phase 1
   is skipped entirely when the old basis is still primal feasible),
   and any structural surprise falls back to the cold two-phase solve.
   Either way the result is the exact rational optimum.

``solve_exact`` remains the stateless entry point (one cold solve);
:mod:`repro.service.incremental` holds a :class:`SimplexInstance` per hot
model so weight-only re-solves reuse both the assembled LP *and* the
optimal basis.

Certified objectives: search in floats, prove exactly
-----------------------------------------------------
A caller that keeps only the optimal *objective* (the broadcast/reduce
bound and multicast's sum/max bounds) goes through
:meth:`LinearProgram.optimum <repro.lp.model.LinearProgram.optimum>`.
There HiGHS (:func:`repro.lp.scipy_backend.propose_basis`) proposes an
optimal basis for the same standard form, as plain column ids, and
:meth:`SimplexInstance.solve` starts the warm-restart ladder from it.
One exact sparse LU gives ``x_B >= 0`` and reduced costs of the right
sign — the certificate, with zero pivots; a wrong proposal is repaired
by the ladder's bounded dual/primal pivots, and the cold two-phase solve
is the last resort.  The objective is the exact rational optimum either
way.  On the Figure 1 broadcast bound this is ~10 ms instead of 248
pivots (~350-530 ms).

Values stay on the exact pivot path.  With alternative optima a
certified basis can be a different optimal vertex from the one cold
pivoting reaches, and schedules are rebuilt from vertices: float-starting
every exact solve moved the Figure 1 master-slave period from 2 to 4
and a Figure 2 scatter route from 2 to 4 hops.  So ``solve`` /
``solve_exact`` and every warm model pivot exactly, as before, and only
the objective ever leaves the certified path.  No float enters this
module: the proposer hands back integers only.

Standard-form conversion
------------------------
* ``x`` with lower bound ``lo``: substitute ``x = lo + u`` (``u >= 0``);
  an upper bound adds the row ``u <= hi - lo``.
* ``x`` with only an upper bound: substitute ``x = hi - u``.
* free ``x``: substitute ``x = u - v``.
* ``<=`` rows get a slack, ``>=`` rows a surplus; rows are sign-normalised
  so the rhs is non-negative; artificial variables complete the phase-1
  basis where no slack is usable.
"""

from __future__ import annotations

import operator
import time
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .factor import BasisFactor, SparseLU
from .model import (
    InfeasibleError,
    LinearProgram,
    LPError,
    LPSolution,
    UnboundedError,
    Variable,
)

ZERO = Fraction(0)
ONE = Fraction(1)

#: default pivot safety cap — far above anything the platform-sized LPs
#: need, low enough that a degenerate spin fails in seconds, not hours
DEFAULT_MAX_PIVOTS = 200_000

#: the engine :class:`SimplexInstance` uses when none is requested —
#: the sparse revised simplex; ``"tableau"`` keeps the dense baseline
#: available for differential tests
DEFAULT_ENGINE = "revised"

#: consecutive degenerate (no-progress) pivots tolerated under the
#: Dantzig rule before switching to Bland's rule for good — the standard
#: cycling safeguard (Bland guarantees termination from any basis;
#: Dantzig is simply much faster when progress is being made).  Shared
#: by both engines so their pivot sequences stay comparable.
STALL_LIMIT = 32

#: the factorisation telemetry keys a solve reports (see
#: :attr:`SimplexInstance.last_factor_stats`)
FACTOR_STAT_KEYS = (
    "refactorisations",
    "eta_len_max",
    "ftran_ops",
    "btran_ops",
    "lu_nnz",
    "lu_basis_nnz",
)


class _StandardForm:
    """min c·u  s.t.  A u = b (b >= 0), u >= 0, plus the decoding recipe."""

    def __init__(self) -> None:
        self.rows: List[Dict[int, Fraction]] = []  # sparse rows
        self.rhs: List[Fraction] = []
        self.cost: Dict[int, Fraction] = {}
        self.cost_offset: Fraction = ZERO
        self.num_cols = 0
        # var -> list of (col, sign); plus constant offset per var
        self.decode: Dict[Variable, Tuple[List[Tuple[int, Fraction]], Fraction]] = {}
        self._key: Optional[Tuple] = None

    def new_col(self) -> int:
        col = self.num_cols
        self.num_cols += 1
        return col

    def structure_key(self) -> Tuple:
        """Hashable *shape* of the standard form: column count, per-row
        column support and objective support — everything a retained basis
        depends on, none of the coefficient values.  Two standard forms
        with equal keys differ only in coefficients, which is exactly the
        situation a warm basis restart can handle.

        Computed once and cached: the tuple-of-tuples row-support walk is
        O(nnz) and the key is asked for on every warm solve of the same
        instance.
        """
        if self._key is None:
            self._key = (
                self.num_cols,
                tuple(tuple(sorted(row)) for row in self.rows),
                tuple(sorted(self.cost)),
            )
        return self._key


def _build_standard_form(lp: LinearProgram) -> _StandardForm:
    sf = _StandardForm()
    # 1. substitute variables.
    subs: Dict[Variable, Tuple[List[Tuple[int, Fraction]], Fraction]] = {}
    extra_rows: List[Tuple[Dict[int, Fraction], str, Fraction]] = []
    for var in lp.variables:
        if var.lo is not None:
            u = sf.new_col()
            subs[var] = ([(u, ONE)], var.lo)
            if var.hi is not None:
                extra_rows.append(({u: ONE}, "<=", var.hi - var.lo))
        elif var.hi is not None:
            u = sf.new_col()
            subs[var] = ([(u, Fraction(-1))], var.hi)
        else:
            u = sf.new_col()
            v = sf.new_col()
            subs[var] = ([(u, ONE), (v, Fraction(-1))], ZERO)
    sf.decode = subs

    # 2. objective (always minimise internally).
    assert lp.objective is not None
    sign = Fraction(-1) if lp.sense == "max" else ONE
    sf.cost_offset = sign * lp.objective.constant
    for var, coef in lp.objective.terms.items():
        cols, offset = subs[var]
        sf.cost_offset += sign * coef * offset
        for col, s in cols:
            sf.cost[col] = sf.cost.get(col, ZERO) + sign * coef * s

    # 3. constraint rows.
    all_rows: List[Tuple[Dict[int, Fraction], str, Fraction]] = []
    for cons in lp.constraints:
        terms, sense, rhs = cons.normalized()
        row: Dict[int, Fraction] = {}
        shift = ZERO
        for var, coef in terms.items():
            cols, offset = subs[var]
            shift += coef * offset
            for col, s in cols:
                row[col] = row.get(col, ZERO) + coef * s
        row = {c: v for c, v in row.items() if v != 0}
        all_rows.append((row, sense, rhs - shift))
    all_rows.extend(extra_rows)

    for row, sense, rhs in all_rows:
        if not row:
            # constant constraint: check satisfiability directly.
            ok = (
                (sense == "<=" and ZERO <= rhs)
                or (sense == ">=" and ZERO >= rhs)
                or (sense == "==" and rhs == 0)
            )
            if not ok:
                raise InfeasibleError(
                    f"constant constraint 0 {sense} {rhs} is unsatisfiable"
                )
            continue
        r = dict(row)
        if sense == "<=":
            slack = sf.new_col()
            r[slack] = ONE
        elif sense == ">=":
            slack = sf.new_col()
            r[slack] = Fraction(-1)
        if rhs < 0:
            r = {c: -v for c, v in r.items()}
            rhs = -rhs
        sf.rows.append(r)
        sf.rhs.append(rhs)
    return sf


#: a basis proposer: standard form in, candidate basis column ids out
#: (structural ``j < n``, the logical of row ``r`` as ``n + r``), or None
#: — see :func:`repro.lp.scipy_backend.propose_basis`
BasisProposer = Callable[[_StandardForm], Optional[Sequence[int]]]


class _AbandonWarm(Exception):
    """Internal: a warm attempt blew its pivot budget; fall back to cold."""


class _Outcome:
    """What either engine hands back: the standard-form solution vector,
    the canonical basis to retain for the next warm restart, and the
    pivot bookkeeping."""

    __slots__ = ("u", "retained", "pivots", "iterations")

    def __init__(self, u: List[Fraction], retained: List[int],
                 pivots: int, iterations: int) -> None:
        self.u = u
        self.retained = retained
        self.pivots = pivots
        self.iterations = iterations


class _Tableau:
    """Dense simplex working state: ``m`` rows x (``n`` + m artificials + 1
    rhs), a basis assignment per row, and the pivot bookkeeping.

    Kept as the ``engine="tableau"`` baseline for differential tests —
    the revised engine replays the same pivot rules through the sparse
    factorisation instead of whole-tableau elimination.

    Column ``n + i`` is reserved as the artificial of row ``i`` (cold
    phase 1 and the warm restricted phase-1 repair both use it); the rhs
    lives in the last cell of each row.  ``pivots`` counts genuine simplex
    pivots against the safety cap; basis re-factorisation row operations
    are the same O(m·width) work but bounded by ``m``, so they are counted
    separately (``refactor_ops``) and never trip the cap.
    """

    STALL_LIMIT = STALL_LIMIT

    def __init__(self, sf: _StandardForm, lp: LinearProgram,
                 max_pivots: int, extra_artificials: bool = False) -> None:
        self.sf = sf
        self.lp = lp
        self.m = len(sf.rows)
        self.n = sf.num_cols
        # A warm restart reserves a SECOND artificial region
        # [n + m, n + 2m): the first region's columns may be left dirty by
        # driving a retained artificial out of the basis, so the
        # feasibility repair mints its fresh artificials from untouched
        # columns instead.
        self.width = self.n + (2 if extra_artificials else 1) * self.m + 1
        self.max_pivots = max_pivots
        #: soft budget for warm attempts: when set, exceeding it raises
        #: :class:`_AbandonWarm` (caught by the warm solver, which falls
        #: back to cold) instead of the hard :class:`LPError` of the
        #: safety cap — a restart that pivots more than the cold solve it
        #: is meant to undercut has already lost
        self.abandon_after: Optional[int] = None
        self.pivots = 0
        self.refactor_ops = 0
        self.iterations = 0
        self.rows: List[List[Fraction]] = []
        for i, row in enumerate(sf.rows):
            dense = [ZERO] * self.width
            for col, val in row.items():
                dense[col] = val
            dense[-1] = sf.rhs[i]
            self.rows.append(dense)
        self.basis: List[int] = []

    # ------------------------------------------------------------------
    def _apply_pivot(self, row_i: int, col_j: int) -> None:
        piv_row = self.rows[row_i]
        piv = piv_row[col_j]
        inv = ONE / piv
        # one O(width) scan for the pivot row's support, then every row
        # update touches only those columns — the steady-state LPs are
        # sparse, so this is the difference between O(m·width) and
        # O(m·nnz) Fraction work per pivot
        nonzero = [j for j in range(self.width) if piv_row[j] != 0]
        if piv != 1:
            for j in nonzero:
                piv_row[j] *= inv
        for r in range(self.m):
            if r == row_i:
                continue
            factor = self.rows[r][col_j]
            if factor == 0:
                continue
            target = self.rows[r]
            for j in nonzero:
                target[j] -= factor * piv_row[j]
        self.basis[row_i] = col_j

    def pivot(self, row_i: int, col_j: int) -> None:
        self.pivots += 1
        if self.abandon_after is not None and self.pivots > self.abandon_after:
            raise _AbandonWarm()
        if self.pivots > self.max_pivots:
            raise LPError(
                f"simplex exceeded the {self.max_pivots}-pivot safety cap "
                f"on {self.lp.name!r} (m={self.m} rows, n={self.n} columns, "
                f"{len(self.lp.variables)} model variables) — degenerate "
                f"cycling, or raise max_pivots for an LP this size"
            )
        self._apply_pivot(row_i, col_j)

    # ------------------------------------------------------------------
    def install_basis(self, basis_cols: List[int]) -> bool:
        """Re-factorise: pivot each retained basis column back into the
        basis by Gauss-Jordan elimination against the *patched*
        coefficients.  Returns False when the columns have gone singular
        (the caller falls back to a cold solve).

        Artificial columns (``col >= n``, retained when the previous solve
        ended with a redundant row's artificial still basic) are pinned
        first: the artificial of row ``i`` is the unit column ``e_i``, so
        assigning it to its own row is free and keeps every *other*
        artificial column untouched — which the warm repair relies on when
        it mints fresh artificials for rows the old basis leaves
        infeasible."""
        self.basis = [-1] * self.m
        assigned = [False] * self.m
        for col in basis_cols:
            if col >= self.n:
                i = col - self.n
                if assigned[i]:
                    return False
                self.rows[i][col] = ONE
                self.basis[i] = col
                assigned[i] = True
        # Markowitz-flavoured ordering: eliminate the sparsest columns
        # first (slacks and bound rows are near-unit and pivot for free),
        # so the fill-in of the dense conservation block lands late and
        # stays small — this is what keeps a re-factorisation cheaper
        # than the pivot sequence it replaces.
        col_nnz: Dict[int, int] = {}
        for row in self.sf.rows:
            for col in row:
                col_nnz[col] = col_nnz.get(col, 0) + 1
        structural = sorted(
            (col for col in basis_cols if col < self.n),
            key=lambda col: col_nnz.get(col, 0),
        )
        for col in structural:
            chosen = -1
            for r in range(self.m):
                if not assigned[r] and self.rows[r][col] != 0:
                    chosen = r
                    break
            if chosen < 0:
                return False
            self.refactor_ops += 1
            self._apply_pivot(chosen, col)
            assigned[chosen] = True
        return True

    def price_out(self, cost: List[Fraction]) -> List[Fraction]:
        """The reduced-cost row of ``cost`` under the current basis
        (length ``width``; the rhs cell holds minus the objective)."""
        z = [ZERO] * self.width
        for j, c in enumerate(cost):
            z[j] = c
        for i in range(self.m):
            cb = cost[self.basis[i]] if self.basis[i] < len(cost) else ZERO
            if cb == 0:
                continue
            row = self.rows[i]
            for j in range(self.width):
                v = row[j]
                if v != 0:
                    z[j] -= cb * v
        return z

    def _sweep_z(self, z: List[Fraction], piv_row_i: int, enter: int) -> None:
        factor = z[enter]
        if factor == 0:
            return
        piv_row = self.rows[piv_row_i]
        for j in range(self.width):
            v = piv_row[j]
            if v != 0:
                z[j] -= factor * v

    def run_primal(self, cost: List[Fraction], allowed_cols: int,
                   z: Optional[List[Fraction]] = None) -> List[Fraction]:
        """Pivot to optimality from the current basis; returns the final
        reduced-cost row.  Entering column by Dantzig's rule (most
        negative reduced cost), degrading permanently to Bland's rule
        after :data:`STALL_LIMIT` consecutive degenerate pivots so
        termination stays guaranteed.  ``z`` may carry a reduced-cost
        row the caller already maintains for ``cost`` (the dual repair
        does), saving the O(m·width) re-pricing pass."""
        if z is None:
            z = self.price_out(cost)
        bland = False
        stall = 0
        while True:
            self.iterations += 1
            enter = -1
            if bland:
                # Bland: smallest-index column with negative reduced cost
                for j in range(allowed_cols):
                    if z[j] < 0:
                        enter = j
                        break
            else:
                most: Optional[Fraction] = None
                for j in range(allowed_cols):
                    v = z[j]
                    if v < 0 and (most is None or v < most):
                        most = v
                        enter = j
            if enter < 0:
                return z
            # ratio test; tie-break on smallest basis column index.
            leave = -1
            best: Optional[Fraction] = None
            for i in range(self.m):
                a = self.rows[i][enter]
                if a > 0:
                    ratio = self.rows[i][-1] / a
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                raise UnboundedError(
                    f"objective of {self.lp.name!r} is unbounded "
                    f"(column {enter} has no positive entries)"
                )
            self.pivot(leave, enter)
            self._sweep_z(z, leave, enter)
            if not bland:
                if best == 0:  # degenerate: the objective did not move
                    stall += 1
                    if stall >= self.STALL_LIMIT:
                        bland = True
                else:
                    stall = 0

    def run_dual(self, z: List[Fraction], limit: int) -> bool:
        """Dual-simplex pivots toward primal feasibility.

        Requires ``z`` dual feasible (no negative reduced cost among the
        structural columns); maintains that invariant.  Returns True once
        every rhs is non-negative, False to request a fallback (step
        budget exhausted, or a fully non-negative pivot row — the dual
        ray case, which the cold two-phase solve diagnoses properly).
        """
        steps = 0
        while True:
            # leaving row: most negative rhs (the textbook dual rule —
            # converges far faster than Bland order; the step budget, not
            # an anti-cycling rule, bounds the loop)
            leave = -1
            worst: Optional[Fraction] = None
            for i in range(self.m):
                rhs = self.rows[i][-1]
                if rhs < 0 and (worst is None or rhs < worst):
                    worst = rhs
                    leave = i
            if leave < 0:
                return True
            if steps >= limit:
                return False
            row = self.rows[leave]
            enter = -1
            best: Optional[Fraction] = None
            for j in range(self.n):
                a = row[j]
                if a < 0:
                    ratio = z[j] / -a
                    if best is None or ratio < best:
                        best = ratio
                        enter = j
            if enter < 0:
                return False
            self.pivot(leave, enter)
            self._sweep_z(z, leave, enter)
            steps += 1

    def drive_out_artificials(self) -> None:
        """Pivot zero-valued basic artificials onto structural columns
        where possible; a row that stays artificial is redundant and the
        artificial sits harmlessly at 0 (it can never re-enter: phase 2
        restricts entering columns to the structural ones)."""
        for i in range(self.m):
            if self.basis[i] >= self.n:
                row = self.rows[i]
                for j in range(self.n):
                    if row[j] != 0:
                        self.refactor_ops += 1
                        self._apply_pivot(i, j)
                        break


class _RevisedCore:
    """Revised-simplex working state: basis column list, sparse LU +
    eta-file factorisation, and the current basic solution.

    The basis matrix is never formed densely: :class:`BasisFactor`
    answers FTRAN/BTRAN, each pivot appends one eta vector, and the LU
    is rebuilt (``maybe_refactor``) only when the eta file passes its
    length or fill thresholds.  Pricing walks the column-major standard
    form (O(nnz) per iteration); the ratio test walks the FTRAN'd
    direction.

    Column-id convention: ``j < n`` structural, ``n <= j < n + m`` the
    artificial ``e_{j-n}``, ``j >= n + m`` an auxiliary column minted by
    the warm restricted phase 1 (the negated column it replaced — see
    :meth:`make_aux`).  ``pivots`` counts genuine simplex pivots against
    the safety cap; basis exchanges performed while installing or
    repairing a basis (artificial drive-outs, aux minting) are
    ``refactor_ops`` and never trip the cap.
    """

    STALL_LIMIT = STALL_LIMIT

    def __init__(self, sf: _StandardForm, lp: LinearProgram,
                 max_pivots: int, eta_limit: Optional[int] = None) -> None:
        self.sf = sf
        self.lp = lp
        self.m = len(sf.rows)
        self.n = sf.num_cols
        cols: List[List[Tuple[int, Fraction]]] = [[] for _ in range(self.n)]
        for i, row in enumerate(sf.rows):
            for j, v in row.items():
                cols[j].append((i, v))
        self.cols = cols
        self.rhs: List[Fraction] = list(sf.rhs)
        self.max_pivots = max_pivots
        self.abandon_after: Optional[int] = None
        #: refactorise once the eta file reaches this many etas (the
        #: fill trigger in :meth:`_maybe_refactor` can fire earlier)
        self.eta_limit = eta_limit if eta_limit is not None \
            else max(16, self.m // 2)
        self.basis: List[int] = []
        self._basic: set = set()
        self.x: List[Fraction] = []
        self.factor: Optional[BasisFactor] = None
        #: columns minted by this core: cold-phase-1 artificials, or the
        #: warm repair's auxiliaries (ids >= n + m, vectors in aux_cols)
        self.minted: List[int] = []
        self.aux_cols: Dict[int, List[Tuple[int, Fraction]]] = {}
        self.pivots = 0
        self.iterations = 0
        self.refactor_ops = 0
        # factorisation telemetry (absorbed into
        # SimplexInstance.last_factor_stats)
        self.refactorisations = 0
        self.eta_len_max = 0
        self.ftran_ops = 0
        self.btran_ops = 0
        self.lu_nnz = 0
        self.lu_basis_nnz = 0

    # ------------------------------------------------------------------
    # columns and factorisation
    # ------------------------------------------------------------------
    def column(self, col: int) -> List[Tuple[int, Fraction]]:
        """The sparse standard-form column for any column id."""
        if col < self.n:
            return self.cols[col]
        if col < self.n + self.m:
            return [(col - self.n, ONE)]
        return self.aux_cols[col]

    def _refactor(self) -> bool:
        """Fresh sparse LU of the current basis; False when singular."""
        lu = SparseLU.factor(self.m, [dict(self.column(c))
                                      for c in self.basis])
        if lu is None:
            return False
        self._roll_factor_counters()
        self.factor = BasisFactor(lu)
        self.refactorisations += 1
        self.lu_nnz += lu.nnz
        self.lu_basis_nnz += lu.basis_nnz
        return True

    def _roll_factor_counters(self) -> None:
        if self.factor is not None:
            self.ftran_ops += self.factor.ftran_ops
            self.btran_ops += self.factor.btran_ops

    def _maybe_refactor(self) -> None:
        """The periodic-refactorisation policy: rebuild the LU when the
        eta file is long, or when its accumulated fill outweighs the
        factorisation it patches (applying every eta on every solve has
        become more expensive than one fresh elimination)."""
        f = self.factor
        assert f is not None
        if (f.eta_len >= self.eta_limit
                or f.eta_nnz > 2 * (f.lu.nnz + self.m) + 64):
            if not self._refactor():
                raise LPError(
                    f"internal: refactorisation of a pivoted basis of "
                    f"{self.lp.name!r} went singular"
                )

    def ftran(self, dense: List[Fraction]) -> List[Fraction]:
        assert self.factor is not None
        return self.factor.ftran(dense)

    def btran(self, dense: List[Fraction]) -> List[Fraction]:
        assert self.factor is not None
        return self.factor.btran(dense)

    def ftran_column(self, col: int) -> List[Fraction]:
        """FTRAN of a standard-form column: the update direction
        ``B^{-1} a_col``."""
        dense = [ZERO] * self.m
        for i, v in self.column(col):
            dense[i] = v
        return self.ftran(dense)

    def btran_unit(self, slot: int) -> List[Fraction]:
        """BTRAN of ``e_slot``: row ``slot`` of ``B^{-1}``."""
        dense = [ZERO] * self.m
        dense[slot] = ONE
        return self.btran(dense)

    # ------------------------------------------------------------------
    # basis installation
    # ------------------------------------------------------------------
    def install_cold(self) -> None:
        """Choose the textbook initial basis (reusing a slack column —
        +1 coefficient, sole entry in its column, not in the objective —
        where possible, else the row's artificial) and factor it."""
        col_rows: Dict[int, List[int]] = {}
        for i, row in enumerate(self.sf.rows):
            for col in row:
                col_rows.setdefault(col, []).append(i)
        for i, row in enumerate(self.sf.rows):
            chosen = -1
            for col, val in row.items():
                if val == 1 and len(col_rows[col]) == 1 \
                        and col not in self.sf.cost:
                    chosen = col
                    break
            if chosen < 0:
                chosen = self.n + i
                self.minted.append(chosen)
            self.basis.append(chosen)
        self._basic = set(self.basis)
        if not self._refactor():
            raise LPError(
                f"internal: the initial unit basis of {self.lp.name!r} "
                f"failed to factor"
            )
        self.x = self.ftran(self.rhs)

    def install_warm(self, basis_cols: List[int]) -> bool:
        """One sparse LU of a retained basis against the (patched)
        current coefficients — the whole point of the revised warm
        restart.  False when the columns have gone singular (the caller
        falls back to a cold solve)."""
        self.basis = list(basis_cols)
        self._basic = set(self.basis)
        if len(self._basic) != len(self.basis):
            return False
        if not self._refactor():
            return False
        self.x = self.ftran(self.rhs)
        return True

    # ------------------------------------------------------------------
    # pivoting
    # ------------------------------------------------------------------
    def _count_pivot(self) -> None:
        self.pivots += 1
        if self.abandon_after is not None and self.pivots > self.abandon_after:
            raise _AbandonWarm()
        if self.pivots > self.max_pivots:
            raise LPError(
                f"simplex exceeded the {self.max_pivots}-pivot safety cap "
                f"on {self.lp.name!r} (m={self.m} rows, n={self.n} columns, "
                f"{len(self.lp.variables)} model variables) — degenerate "
                f"cycling, or raise max_pivots for an LP this size"
            )

    def exchange(self, slot: int, col: int, w: List[Fraction],
                 value: Fraction) -> None:
        """Swap ``col`` into basis position ``slot`` along the FTRAN'd
        direction ``w``, entering at ``value``; appends one eta vector
        and refactorises if the file passed its thresholds."""
        x = self.x
        if value != 0:
            for i in range(self.m):
                wi = w[i]
                if wi != 0 and i != slot:
                    x[i] -= wi * value
        x[slot] = value
        self._basic.discard(self.basis[slot])
        self.basis[slot] = col
        self._basic.add(col)
        assert self.factor is not None
        self.factor.push_eta(slot, w)
        if self.factor.eta_len > self.eta_len_max:
            self.eta_len_max = self.factor.eta_len
        self._maybe_refactor()

    def _price_structural(self, cost: Dict[int, Fraction],
                          y: List[Fraction]) -> Dict[int, Fraction]:
        """Sparse reduced costs ``d_j = c_j - y·a_j`` over the structural
        columns, computed row-major: scatter each nonzero multiplier's
        row into a column-keyed accumulator, then overlay the objective
        support.  Columns absent from the result have ``d_j = 0`` —
        never candidates to enter — so pricing costs O(nnz of the rows
        with nonzero ``y``), not O(n)."""
        d: Dict[int, Fraction] = {}
        rows = self.sf.rows
        for i, yi in enumerate(y):
            if yi != 0:
                for j, v in rows[i].items():
                    cur = d.get(j)
                    nv = -yi * v if cur is None else cur - yi * v
                    if nv != 0:
                        d[j] = nv
                    elif cur is not None:
                        del d[j]
        for j, c in cost.items():
            if j >= self.n:
                continue
            cur = d.get(j)
            nv = c if cur is None else cur + c
            if nv != 0:
                d[j] = nv
            elif cur is not None:
                del d[j]
        return d

    def _price_all(self, cost: Dict[int, Fraction],
                   include_artificials: bool) -> Dict[int, Fraction]:
        """Full pricing pass: one BTRAN of ``c_B``, then the sparse
        structural sweep plus the minted artificials (phase 1 only —
        unit columns, ``d_a = c_a - y_row``).  Runs once per phase;
        pivots keep the result current through :meth:`_update_prices`.
        Exact arithmetic guarantees basic columns price to exactly 0
        and therefore never appear in the dict."""
        c_b = [cost.get(col, ZERO) for col in self.basis]
        y = self.btran(c_b)
        d = self._price_structural(cost, y)
        if include_artificials:
            for a in self.minted:
                if a >= self.n + self.m:
                    continue
                da = cost.get(a, ZERO) - y[a - self.n]
                if da != 0:
                    d[a] = da
        return d

    @staticmethod
    def _select_entering(d: Dict[int, Fraction], bland: bool) -> int:
        """The entering column from the maintained reduced costs:
        Dantzig (most negative, smallest column id of ties — minted ids
        sit above the structural range, preserving structural-first
        order) or Bland (smallest id with a negative reduced cost).
        Returns -1 at optimality."""
        enter = -1
        if bland:
            for j, dj in d.items():
                if dj < 0 and (enter < 0 or j < enter):
                    enter = j
            return enter
        best: Optional[Fraction] = None
        for j, dj in d.items():
            if dj < 0 and (best is None or dj < best or
                           (dj == best and j < enter)):
                best = dj
                enter = j
        return enter

    def _update_prices(self, d: Dict[int, Fraction],
                       rho: List[Fraction], rate: Fraction,
                       include_artificials: bool) -> None:
        """The product-form reduced-cost sweep: with ``rho`` the
        pre-pivot BTRAN of the leaving slot's unit vector and ``rate``
        ``d_enter / w_leave``, every column moves by
        ``d_j -= rate * (rho·a_j)`` — the same single-row update the
        dense tableau applies to its z-row, at the cost of one sparse
        scatter instead of a whole-tableau elimination.  Exactness makes
        the maintained values identical to a fresh pricing pass, so the
        pivot sequence is unchanged."""
        rows = self.sf.rows
        alpha: Dict[int, Fraction] = {}
        for i, ri in enumerate(rho):
            if ri != 0:
                for j, v in rows[i].items():
                    cur = alpha.get(j)
                    alpha[j] = ri * v if cur is None else cur + ri * v
        for j, aj in alpha.items():
            if aj == 0:
                continue
            cur = d.get(j)
            nv = -rate * aj if cur is None else cur - rate * aj
            if nv != 0:
                d[j] = nv
            elif cur is not None:
                del d[j]
        if include_artificials:
            for a in self.minted:
                if a >= self.n + self.m:
                    continue
                ra = rho[a - self.n]
                if ra == 0:
                    continue
                cur = d.get(a)
                nv = -rate * ra if cur is None else cur - rate * ra
                if nv != 0:
                    d[a] = nv
                elif cur is not None:
                    del d[a]

    def run_primal(self, cost: Dict[int, Fraction],
                   include_artificials: bool = False) -> None:
        """Pivot to optimality from the current (primal feasible) basis.
        Same entering/leaving rules as the tableau engine — Dantzig with
        the Bland degradation after :data:`STALL_LIMIT` degenerate
        pivots, ratio-test ties broken on smallest basis column — so
        cold solves replay the identical pivot sequence.  Reduced costs
        are priced in full once, then maintained per pivot through
        :meth:`_update_prices` (priced values stay bit-identical under
        exact arithmetic)."""
        bland = False
        stall = 0
        d = self._price_all(cost, include_artificials)
        while True:
            self.iterations += 1
            enter = self._select_entering(d, bland)
            if enter < 0:
                return
            w = self.ftran_column(enter)
            leave = -1
            best: Optional[Fraction] = None
            for i in range(self.m):
                wi = w[i]
                if wi > 0:
                    ratio = self.x[i] / wi
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                raise UnboundedError(
                    f"objective of {self.lp.name!r} is unbounded "
                    f"(column {enter} has no positive entries)"
                )
            self._count_pivot()
            rate = d[enter] / w[leave]
            rho = self.btran_unit(leave)
            self.exchange(leave, enter, w, best)
            self._update_prices(d, rho, rate, include_artificials)
            if not bland:
                if best == 0:  # degenerate: the objective did not move
                    stall += 1
                    if stall >= self.STALL_LIMIT:
                        bland = True
                else:
                    stall = 0

    def run_dual(self, cost: Dict[int, Fraction], limit: int) -> bool:
        """Dual-simplex pivots toward primal feasibility.

        Requires the current basis dual feasible for ``cost``; maintains
        that invariant through the standard dual ratio test.  Each step
        prices the leaving row through one BTRAN of ``e_slot`` and the
        reduced costs through one BTRAN of ``c_B``.  Returns True once
        every basic value is non-negative, False to request a fallback
        (step budget exhausted, or a dual ray)."""
        steps = 0
        while True:
            leave = -1
            worst: Optional[Fraction] = None
            for s in range(self.m):
                xs = self.x[s]
                if xs < 0 and (worst is None or xs < worst):
                    worst = xs
                    leave = s
            if leave < 0:
                return True
            if steps >= limit:
                return False
            rho = self.btran_unit(leave)
            c_b = [cost.get(col, ZERO) for col in self.basis]
            y = self.btran(c_b)
            priced = self._price_structural(cost, y)
            # the leaving row of the tableau, sparse: alpha_j = rho·a_j
            alpha: Dict[int, Fraction] = {}
            rows = self.sf.rows
            for i, ri in enumerate(rho):
                if ri != 0:
                    for j, v in rows[i].items():
                        cur = alpha.get(j)
                        alpha[j] = ri * v if cur is None else cur + ri * v
            enter = -1
            best: Optional[Fraction] = None
            basic = self._basic
            for j, a in alpha.items():
                if a >= 0 or j in basic:
                    continue
                ratio = priced.get(j, ZERO) / -a
                if best is None or ratio < best or (
                    ratio == best and j < enter
                ):
                    best = ratio
                    enter = j
            if enter < 0:
                return False
            w = self.ftran_column(enter)
            self._count_pivot()
            self.exchange(leave, enter, w, self.x[leave] / w[leave])
            steps += 1

    # ------------------------------------------------------------------
    # artificial handling
    # ------------------------------------------------------------------
    def find_structural_exchange(
        self, slot: int
    ) -> Tuple[int, Optional[List[Fraction]]]:
        """The first structural column that can replace the basic
        column at ``slot`` (nonzero entry in row ``slot`` of the current
        tableau), with its FTRAN'd direction — or ``(-1, None)`` when
        the row has no structural support (a redundant row)."""
        rho = self.btran_unit(slot)
        candidates: set = set()
        for i, ri in enumerate(rho):
            if ri != 0:
                candidates.update(self.sf.rows[i].keys())
        basic = self._basic
        for j in sorted(candidates):
            if j in basic:
                continue
            alpha = ZERO
            for i, v in self.cols[j]:
                ri = rho[i]
                if ri != 0:
                    alpha += ri * v
            if alpha != 0:
                return j, self.ftran_column(j)
        return -1, None

    def drive_out_artificials(self) -> None:
        """Exchange zero-valued basic artificials (and warm-repair
        auxiliaries) for structural columns where possible; a slot that
        keeps its artificial marks a redundant row and sits harmlessly
        at 0 (it can never re-enter: phase 2 prices structural columns
        only)."""
        for s in range(self.m):
            if self.basis[s] < self.n:
                continue
            enter, w = self.find_structural_exchange(s)
            if enter >= 0:
                assert w is not None
                self.refactor_ops += 1
                self.exchange(s, enter, w, self.x[s] / w[s])

    def make_aux(self, slot: int) -> int:
        """Mint the warm restricted-phase-1 auxiliary for an infeasible
        ``slot``: the *negated* column currently basic there.  The swap
        is the eta ``-e_slot`` (pivot value -1), so the basic value
        flips sign — exactly the dense engine's row flip plus fresh
        artificial, expressed in product form."""
        aux = self.n + self.m + slot
        self.aux_cols[aux] = [(i, -v) for i, v in self.column(self.basis[slot])]
        self.minted.append(aux)
        w = [ZERO] * self.m
        w[slot] = -ONE
        self.refactor_ops += 1
        self.exchange(slot, aux, w, self.x[slot] / w[slot])
        return aux

    # ------------------------------------------------------------------
    def objective_of(self, cost: Dict[int, Fraction]) -> Fraction:
        """``cost`` evaluated at the current basic solution."""
        total = ZERO
        for s, col in enumerate(self.basis):
            c = cost.get(col)
            if c is not None and c != 0 and self.x[s] != 0:
                total += c * self.x[s]
        return total

    def dual_feasible(self, cost: Dict[int, Fraction]) -> bool:
        """True when no structural column has a negative reduced cost."""
        c_b = [cost.get(col, ZERO) for col in self.basis]
        y = self.btran(c_b)
        basic = self._basic
        return all(d >= 0 or j in basic
                   for j, d in self._price_structural(cost, y).items())

    def certifies(self, cost: Dict[int, Fraction]) -> bool:
        """The optimality certificate of the current basis, as it
        stands: every basic value ``>= 0``, every basic artificial
        exactly 0, and no structural column with a negative reduced cost
        (artificials cost 0, so their rows price at ``y_r = 0``).  Then
        the structural part of ``x`` is feasible, ``y`` is dual feasible
        and the two objectives agree — optimal, without a pivot."""
        n = self.n
        for s, col in enumerate(self.basis):
            xs = self.x[s]
            if xs < 0 or (col >= n and xs != 0):
                return False
        return self.dual_feasible(cost)

    def retained_basis(self) -> List[int]:
        """The canonical basis to retain: structural and artificial
        columns keep their ids; an auxiliary still basic (its row went
        redundant mid-repair) is rewritten as the artificial of a row
        its tableau row actually covers (``rho_r != 0``), so the next
        warm install can pin it — or go singular and fall back cold,
        which is always safe."""
        out = list(self.basis)
        used = {col - self.n for col in out
                if self.n <= col < self.n + self.m}
        for s, col in enumerate(out):
            if col < self.n + self.m:
                continue
            rho = self.btran_unit(s)
            pick = -1
            for r in range(self.m):
                if rho[r] != 0 and r not in used:
                    pick = r
                    break
            if pick < 0:
                pick = next(r for r in range(self.m) if rho[r] != 0)
            used.add(pick)
            out[s] = self.n + pick
        return out

    def factor_stats(self) -> Dict[str, int]:
        self._roll_factor_counters()
        if self.factor is not None:
            # counters were just rolled up; zero the live ones so a
            # second read does not double-count
            self.factor.ftran_ops = 0
            self.factor.btran_ops = 0
        return {
            "refactorisations": self.refactorisations,
            "eta_len_max": self.eta_len_max,
            "ftran_ops": self.ftran_ops,
            "btran_ops": self.btran_ops,
            "lu_nnz": self.lu_nnz,
            "lu_basis_nnz": self.lu_basis_nnz,
        }


class SimplexInstance:
    """Persistent exact-simplex state for repeated solves of one LP.

    The instance keeps the *final basis* (and the standard-form structure
    key it belongs to) across solves.  ``solve(warm=True)`` after the
    bound :class:`~repro.lp.model.LinearProgram` was patched in place
    (coefficients only — see the rebuild hook) restarts pivoting from
    that basis instead of re-running the two-phase method from scratch:

    * still primal feasible → phase 1 skipped entirely, straight to the
      primal phase 2 (often zero pivots);
    * primal infeasible but dual feasible → bounded dual-simplex repair;
    * otherwise → restricted phase 1 (artificials only on the infeasible
      rows), then phase 2;
    * structure changed / basis gone singular / repair budget exhausted
      → guaranteed fallback to the cold two-phase solve.

    ``engine`` selects the pivot machinery: ``"revised"`` (default) runs
    the sparse revised simplex of :class:`_RevisedCore` — warm restart =
    one sparse LU of the retained basis, each pivot one FTRAN + one eta —
    while ``"tableau"`` keeps the dense Gauss-Jordan baseline for
    differential tests.  Results are exact :class:`~fractions.Fraction`
    optima on every path and engine.

    ``solve(propose=...)`` runs the same ladder from a *proposed* basis
    (see the module docstring): the objective-only path of
    :meth:`LinearProgram.optimum <repro.lp.model.LinearProgram.optimum>`.

    Counters (``basis_restarts``, ``phase1_skips``, ``dual_repairs``,
    ``primal_repairs``, ``fallbacks``, ``certified`` — restarts whose
    start basis was proven optimal without a pivot —
    ``last_pivots``/``total_pivots``, and the revised engine's
    ``last_factor_stats`` — refactorisations, eta-file high-water mark,
    FTRAN/BTRAN calls, LU fill) feed the service metrics and the
    warm-path benchmarks.
    """

    def __init__(self, lp: LinearProgram,
                 max_pivots: int = DEFAULT_MAX_PIVOTS,
                 engine: Optional[str] = None,
                 eta_limit: Optional[int] = None) -> None:
        self.lp = lp
        self.max_pivots = max_pivots
        self.engine = engine if engine is not None else DEFAULT_ENGINE
        if self.engine not in ("revised", "tableau"):
            raise LPError(
                f"unknown simplex engine {self.engine!r} "
                f"(expected 'revised' or 'tableau')"
            )
        self.eta_limit = eta_limit
        self._basis: Optional[List[int]] = None
        self._structure: Optional[Tuple] = None
        self.solves = 0
        self.basis_restarts = 0
        self.phase1_skips = 0
        self.dual_repairs = 0
        self.primal_repairs = 0
        self.fallbacks = 0
        self.certified = 0
        self.last_pivots = 0
        self.total_pivots = 0
        # how the most recent solve went (read by the incremental layer)
        self.last_restarted = False
        self.last_phase1_skipped = False
        #: factorisation telemetry of the most recent solve (zeros under
        #: the tableau engine); ``factor_totals`` accumulates across the
        #: instance's lifetime except ``eta_len_max``, a high-water mark
        self.last_factor_stats: Dict[str, int] = dict.fromkeys(
            FACTOR_STAT_KEYS, 0)
        self.factor_totals: Dict[str, int] = dict.fromkeys(
            FACTOR_STAT_KEYS, 0)
        #: per-phase timing records of the most recent solve — raw dicts
        #: ``{phase, start_seconds, duration_seconds, pivots}`` with
        #: offsets relative to the start of :meth:`solve`.  The service
        #: tracing layer turns these into spans; this module stays free
        #: of any service import.
        self.last_phases: List[Dict[str, Any]] = []
        # phase timing metadata (perf_counter floats) — never touches
        # the exact pivot arithmetic
        self._phase_clock = 0.0  # repro-lint: allow(exactness)

    # ------------------------------------------------------------------
    def solve(self, warm: bool = False,
              propose: Optional[BasisProposer] = None) -> LPSolution:
        """Solve the bound LP exactly; ``warm=True`` restarts from the
        retained basis when the structure still matches (with a cold
        fallback), ``warm=False`` always runs the cold two-phase method.

        ``propose`` (used by :meth:`LinearProgram.optimum
        <repro.lp.model.LinearProgram.optimum>`) is asked for a candidate
        optimal basis of the standard form whenever no retained basis
        applies.  The candidate enters the same restart ladder as a warm
        basis: one exact LU proves it optimal (``certified``), or bounded
        dual/primal pivots repair it, or the cold solve runs.  A proposer
        that raises, returns ``None`` or returns anything but ``m``
        distinct ids in ``[0, n + m)`` counts as a fallback.  The result
        is the exact optimum either way; only *which* optimal vertex is
        reported can depend on the candidate.
        """
        if self.lp.objective is None:
            raise LPError("no objective set")
        sf = _build_standard_form(self.lp)
        key = sf.structure_key()
        self.last_restarted = False
        self.last_phase1_skipped = False
        self.last_phases = []
        self.last_factor_stats = dict.fromkeys(FACTOR_STAT_KEYS, 0)
        self._phase_clock = time.perf_counter()
        revised = self.engine == "revised"
        start: Optional[List[int]] = None
        label = "warm"
        if warm and self._basis is not None and key == self._structure:
            start = self._basis
        elif propose is not None:
            start = self._proposed_basis(sf, propose)
            label = "hint"
        outcome: Optional[_Outcome] = None
        if warm or propose is not None:
            if start is not None:
                try:
                    outcome = (self._warm_revised(sf, start, label)
                               if revised
                               else self._warm_tableau(sf, start, label))
                except _AbandonWarm:
                    outcome = None
            if outcome is None:
                # never-solved / structure changed / no usable proposal /
                # singular basis / repair abandoned: every restart
                # request that could not restart is a fallback
                self.fallbacks += 1
            elif outcome.pivots == 0 and self.last_phase1_skipped:
                self.certified += 1
        if outcome is None:
            outcome = (self._cold_revised(sf) if revised
                       else self._cold_tableau(sf))
        self._basis = outcome.retained
        self._structure = key
        self.solves += 1
        self.last_pivots = outcome.pivots
        self.total_pivots += outcome.pivots
        return self._decode(sf, outcome)

    def _proposed_basis(self, sf: _StandardForm,
                        propose: BasisProposer) -> Optional[List[int]]:
        """The proposer's basis for ``sf`` if it is well formed (``m``
        distinct integer ids, each structural or a row's logical);
        otherwise None.  Nothing here checks optimality — the exact
        restart ladder does."""
        started = time.perf_counter()
        try:
            hint = propose(sf)
            start = None if hint is None else [operator.index(c)
                                               for c in hint]
        except Exception:  # a failing proposer only costs its hint
            start = None
        self.last_phases.append({
            "phase": "hint.search",
            "start_seconds": started - self._phase_clock,
            "duration_seconds": time.perf_counter() - started,
            "pivots": 0,
        })
        m = len(sf.rows)
        limit = sf.num_cols + m
        if (start is None or len(start) != m or len(set(start)) != m
                or any(not 0 <= col < limit for col in start)):
            return None
        return start

    # ------------------------------------------------------------------
    # revised engine
    # ------------------------------------------------------------------
    def _absorb_core(self, core: _RevisedCore) -> None:
        fs = core.factor_stats()
        for key, value in fs.items():
            if key == "eta_len_max":
                if value > self.last_factor_stats[key]:
                    self.last_factor_stats[key] = value
                if value > self.factor_totals[key]:
                    self.factor_totals[key] = value
            else:
                self.last_factor_stats[key] += value
                self.factor_totals[key] += value

    def _outcome_from_core(self, sf: _StandardForm,
                           core: _RevisedCore) -> _Outcome:
        u = [ZERO] * sf.num_cols
        for s, col in enumerate(core.basis):
            if col < sf.num_cols:
                u[col] = core.x[s]
        return _Outcome(u, core.retained_basis(), core.pivots,
                        core.iterations)

    def _cold_revised(self, sf: _StandardForm) -> _Outcome:
        core = _RevisedCore(sf, self.lp, self.max_pivots, self.eta_limit)
        try:
            core.install_cold()
            if core.minted:
                started, before = time.perf_counter(), core.pivots
                cost1 = {a: ONE for a in core.minted}
                core.run_primal(cost1, include_artificials=True)
                phase1_value = core.objective_of(cost1)
                if phase1_value > 0:
                    raise InfeasibleError(
                        f"{self.lp.name!r} is infeasible "
                        f"(phase-1 optimum {phase1_value})"
                    )
                core.drive_out_artificials()
                self._record_phase("cold.phase1", started, before, core)
            started, before = time.perf_counter(), core.pivots
            core.run_primal(dict(sf.cost))
            self._record_phase("cold.phase2", started, before, core)
            return self._outcome_from_core(sf, core)
        finally:
            self._absorb_core(core)

    def _warm_revised(self, sf: _StandardForm, basis: List[int],
                      label: str) -> Optional[_Outcome]:
        """Basis-restart solve on the revised engine from ``basis`` (the
        retained one, or a proposed one — ``label`` names the phases);
        None requests the cold fallback.  One sparse LU of the start
        basis replaces the tableau engine's whole-matrix Gauss-Jordan
        sweep; the repair ladder (phase-1 skip → dual repair →
        restricted phase 1 → cold) is unchanged."""
        started = time.perf_counter()
        n = sf.num_cols
        core = _RevisedCore(sf, self.lp, self.max_pivots, self.eta_limit)
        core.abandon_after = core.m // 2 + 16
        try:
            if not core.install_warm(basis):
                return None
            cost2 = dict(sf.cost)
            if label == "hint" and core.certifies(cost2):
                # the proposed basis is optimal as it stands: one LU, no
                # exchange, no pivot.  (Not tried on a retained basis —
                # warm models keep today's exchange-then-pivot path.)
                self._record_phase("hint.certify", started, 0, core)
                self.basis_restarts += 1
                self.phase1_skips += 1
                self.last_restarted = True
                self.last_phase1_skipped = True
                return self._outcome_from_core(sf, core)
            # Retained artificials mark rows that were redundant last
            # solve.  Against the patched coefficients each such row
            # either (a) still has no structural support — a harmless
            # invariant row provided its residual is 0 — or (b) regained
            # structural entries, in which case the artificial is
            # exchanged out immediately so no phase below ever carries a
            # nonzero artificial.
            for s in range(core.m):
                if core.basis[s] < n:
                    continue
                enter, w = core.find_structural_exchange(s)
                if enter >= 0:
                    assert w is not None
                    core.refactor_ops += 1
                    core.exchange(s, enter, w, core.x[s] / w[s])
                elif core.x[s] != 0:
                    # 0·u = nonzero after elimination: let the cold
                    # two-phase method diagnose the (in)feasibility
                    return None
            if all(v >= 0 for v in core.x):
                # old basis still primal feasible: no phase 1, no repair
                started, before = time.perf_counter(), core.pivots
                core.run_primal(cost2)
                self._record_phase(label + ".phase2", started, before, core)
                self.basis_restarts += 1
                self.phase1_skips += 1
                self.last_restarted = True
                self.last_phase1_skipped = True
                return self._outcome_from_core(sf, core)
            if core.dual_feasible(cost2):
                # dual feasible: dual-simplex repair.  The budget is
                # tight on purpose — a drifted-but-close basis repairs in
                # a handful of pivots, and a repair that wanders past
                # ~m/2 pivots is losing to the cold solve it is supposed
                # to undercut, so fall back.
                started, before = time.perf_counter(), core.pivots
                if not core.run_dual(cost2, limit=core.m // 2 + 8):
                    return None
                self._record_phase(label + ".dual_repair", started, before,
                                   core)
                started, before = time.perf_counter(), core.pivots
                core.run_primal(cost2)
                self._record_phase(label + ".phase2", started, before, core)
                self.basis_restarts += 1
                self.dual_repairs += 1
                self.last_restarted = True
                return self._outcome_from_core(sf, core)
            # neither feasible: restricted phase 1 — every infeasible
            # slot gets an auxiliary (its negated basic column, a
            # product-form eta) and phase 1 minimises their sum
            aux = [core.make_aux(s) for s in range(core.m)
                   if core.x[s] < 0]
            cost1 = {a: ONE for a in aux}
            started, before = time.perf_counter(), core.pivots
            core.run_primal(cost1)
            phase1_value = core.objective_of(cost1)
            if phase1_value > 0:
                raise InfeasibleError(
                    f"{self.lp.name!r} is infeasible "
                    f"(restricted phase-1 optimum {phase1_value})"
                )
            core.drive_out_artificials()
            self._record_phase(label + ".phase1", started, before, core)
            started, before = time.perf_counter(), core.pivots
            core.run_primal(cost2)
            self._record_phase(label + ".phase2", started, before, core)
            self.basis_restarts += 1
            self.primal_repairs += 1
            self.last_restarted = True
            return self._outcome_from_core(sf, core)
        finally:
            self._absorb_core(core)

    # ------------------------------------------------------------------
    # tableau engine (differential-testing baseline)
    # ------------------------------------------------------------------
    def _outcome_from_tableau(self, sf: _StandardForm,
                              tab: _Tableau) -> _Outcome:
        n = sf.num_cols
        u = [ZERO] * n
        for i in range(tab.m):
            if tab.basis[i] < n:
                u[tab.basis[i]] = tab.rows[i][-1]
        # canonicalise before retaining: any basic artificial is recorded
        # as ``n + row`` — the next restart only needs to know WHICH rows
        # were artificial-basic (redundant), not which artificial column
        # happened to serve them
        retained = [col if col < n else n + i
                    for i, col in enumerate(tab.basis)]
        return _Outcome(u, retained, tab.pivots, tab.iterations)

    def _cold_tableau(self, sf: _StandardForm) -> _Outcome:
        tab = _Tableau(sf, self.lp, self.max_pivots)
        m, n = tab.m, tab.n
        # Choose initial basis: reuse a slack column (+1 coefficient, sole
        # entry in its row among *potential* basis columns) when possible,
        # else an artificial.
        col_rows: Dict[int, List[int]] = {}
        for i, row in enumerate(sf.rows):
            for col in row:
                col_rows.setdefault(col, []).append(i)
        artificial_cols: List[int] = []
        for i, row in enumerate(sf.rows):
            chosen = -1
            for col, val in row.items():
                if val == 1 and len(col_rows[col]) == 1 and col not in sf.cost:
                    chosen = col
                    break
            if chosen >= 0:
                tab.basis.append(chosen)
            else:
                art = n + i
                tab.rows[i][art] = ONE
                tab.basis.append(art)
                artificial_cols.append(art)

        # ---------------- phase 1 ----------------
        if artificial_cols:
            started, before = time.perf_counter(), tab.pivots
            cost1 = [ZERO] * tab.width
            for col in artificial_cols:
                cost1[col] = ONE
            z1 = tab.run_primal(cost1, tab.width - 1)
            phase1_value = -z1[-1]
            if phase1_value > 0:
                raise InfeasibleError(
                    f"{self.lp.name!r} is infeasible "
                    f"(phase-1 optimum {phase1_value})"
                )
            tab.drive_out_artificials()
            self._record_phase("cold.phase1", started, before, tab)

        # ---------------- phase 2 ----------------
        started, before = time.perf_counter(), tab.pivots
        tab.run_primal(self._phase2_cost(tab), n)
        self._record_phase("cold.phase2", started, before, tab)
        return self._outcome_from_tableau(sf, tab)

    def _phase2_cost(self, tab: _Tableau) -> List[Fraction]:
        cost2 = [ZERO] * tab.width
        for col, c in tab.sf.cost.items():
            cost2[col] = c
        return cost2

    def _record_phase(self, name: str, started: float,
                      pivots_before: int, engine_state: Any) -> None:
        self.last_phases.append({
            "phase": name,
            "start_seconds": started - self._phase_clock,
            "duration_seconds": time.perf_counter() - started,
            "pivots": engine_state.pivots - pivots_before,
        })

    def _warm_tableau(self, sf: _StandardForm, basis: List[int],
                      label: str) -> Optional[_Outcome]:
        """Basis-restart solve on the dense engine from ``basis`` (see
        :meth:`_warm_revised`); None requests the cold fallback.

        Entering columns are restricted to the *structural* region
        (``j < n``) in every warm phase — a driven-out artificial's column
        is no longer a valid unit column, and the standard
        no-artificial-re-entry rule keeps phase 1 correct without it.
        """
        n = sf.num_cols
        tab = _Tableau(sf, self.lp, self.max_pivots, extra_artificials=True)
        tab.abandon_after = tab.m // 2 + 16
        if not tab.install_basis(basis):
            return None
        # Retained artificials mark rows that were redundant last solve.
        # Against the patched coefficients each such row either (a) is
        # still all-zero over the structural columns — a harmless
        # invariant row provided its rhs is 0 — or (b) regained structural
        # entries, in which case the artificial is driven out immediately
        # so no phase below ever carries a nonzero artificial.
        for i in range(tab.m):
            if tab.basis[i] < n:
                continue
            row = tab.rows[i]
            enter = -1
            for j in range(n):
                if row[j] != 0:
                    enter = j
                    break
            if enter >= 0:
                tab.refactor_ops += 1
                tab._apply_pivot(i, enter)
            elif row[-1] != 0:
                # 0·u = nonzero after elimination: let the cold two-phase
                # method diagnose the (in)feasibility from scratch
                return None
        cost2 = self._phase2_cost(tab)
        if all(row[-1] >= 0 for row in tab.rows):
            # old basis still primal feasible: no phase 1, no repair
            started, before = time.perf_counter(), tab.pivots
            tab.run_primal(cost2, n)
            self._record_phase(label + ".phase2", started, before, tab)
            self.basis_restarts += 1
            self.phase1_skips += 1
            self.last_restarted = True
            self.last_phase1_skipped = True
            return self._outcome_from_tableau(sf, tab)
        z = tab.price_out(cost2)
        if all(z[j] >= 0 for j in range(n)):
            # dual feasible: dual-simplex repair.  The budget is tight on
            # purpose — a drifted-but-close basis repairs in a handful of
            # pivots, and a repair that wanders past ~m/2 pivots is losing
            # to the cold solve it is supposed to undercut, so fall back.
            started, before = time.perf_counter(), tab.pivots
            if not tab.run_dual(z, limit=tab.m // 2 + 8):
                return None
            self._record_phase(label + ".dual_repair", started, before, tab)
            # z was maintained through every dual pivot: still the exact
            # reduced-cost row of cost2, so phase 2 needs no re-pricing
            started, before = time.perf_counter(), tab.pivots
            tab.run_primal(cost2, n, z=z)
            self._record_phase(label + ".phase2", started, before, tab)
            self.basis_restarts += 1
            self.dual_repairs += 1
            self.last_restarted = True
            return self._outcome_from_tableau(sf, tab)
        # neither feasible: restricted phase 1 — each negative row is
        # sign-flipped and given a FRESH artificial from the second
        # region (guaranteed untouched; see _Tableau.__init__)
        artificial_cols: List[int] = []
        for i in range(tab.m):
            row = tab.rows[i]
            if row[-1] < 0:
                for j in range(tab.width):
                    if row[j] != 0:
                        row[j] = -row[j]
                art = n + tab.m + i
                row[art] = ONE
                tab.basis[i] = art
                artificial_cols.append(art)
        cost1 = [ZERO] * tab.width
        for col in artificial_cols:
            cost1[col] = ONE
        started, before = time.perf_counter(), tab.pivots
        z1 = tab.run_primal(cost1, n)
        if -z1[-1] > 0:
            raise InfeasibleError(
                f"{self.lp.name!r} is infeasible "
                f"(restricted phase-1 optimum {-z1[-1]})"
            )
        tab.drive_out_artificials()
        self._record_phase(label + ".phase1", started, before, tab)
        started, before = time.perf_counter(), tab.pivots
        tab.run_primal(cost2, n)
        self._record_phase(label + ".phase2", started, before, tab)
        self.basis_restarts += 1
        self.primal_repairs += 1
        self.last_restarted = True
        return self._outcome_from_tableau(sf, tab)

    # ------------------------------------------------------------------
    def _decode(self, sf: _StandardForm, outcome: _Outcome) -> LPSolution:
        u = outcome.u
        min_value = sf.cost_offset
        for col, c in sf.cost.items():
            uc = u[col]
            if uc != 0:
                min_value += c * uc
        values: Dict[Variable, Fraction] = {}
        for var, (cols, offset) in sf.decode.items():
            x = offset
            for col, s in cols:
                x += s * u[col]
            values[var] = x
        objective = -min_value if self.lp.sense == "max" else min_value
        return LPSolution(
            objective=objective,
            values=values,
            backend="exact",
            iterations=outcome.iterations,
            pivots=outcome.pivots,
        )

    def stats(self) -> Dict[str, int]:
        return {
            "solves": self.solves,
            "basis_restarts": self.basis_restarts,
            "phase1_skips": self.phase1_skips,
            "dual_repairs": self.dual_repairs,
            "primal_repairs": self.primal_repairs,
            "fallbacks": self.fallbacks,
            "certified": self.certified,
            "last_pivots": self.last_pivots,
            "total_pivots": self.total_pivots,
            **self.factor_totals,
        }


def solve_exact(lp: LinearProgram,
                max_iterations: int = DEFAULT_MAX_PIVOTS,
                engine: Optional[str] = None) -> LPSolution:
    """Solve ``lp`` exactly (one cold two-phase solve); raises
    Infeasible/Unbounded errors as needed.  ``max_iterations`` is the
    pivot safety cap and ``engine`` the pivot machinery (revised sparse
    LU by default) — see :class:`SimplexInstance`."""
    return SimplexInstance(lp, max_pivots=max_iterations,
                           engine=engine).solve()
