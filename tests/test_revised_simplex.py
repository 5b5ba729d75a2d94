"""The sparse revised simplex: LU/eta unit tests, a hypothesis
differential suite against the dense tableau engine, warm-restart edge
cases under the factorisation, and the counter plumbing into the
service metrics."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.lp import (
    BasisFactor,
    DEFAULT_ENGINE,
    InfeasibleError,
    LinearProgram,
    LPError,
    SimplexInstance,
    SingularBasisError,
    SparseLU,
    UnboundedError,
    lp_sum,
    scipy_backend,
    solve_exact,
)
from repro.lp.simplex import _build_standard_form

F = Fraction
coef = st.integers(min_value=-5, max_value=5)


def dense_of(m, columns):
    rows = [[F(0)] * m for _ in range(m)]
    for j, col in enumerate(columns):
        for i, v in col.items():
            rows[i][j] = v
    return rows


def mat_vec(rows, x):
    return [sum(r[j] * x[j] for j in range(len(x))) for r in rows]


def vec_mat(y, rows):
    m = len(rows)
    return [sum(y[i] * rows[i][j] for i in range(m)) for j in range(m)]


# ----------------------------------------------------------------------
# SparseLU / BasisFactor unit behaviour
# ----------------------------------------------------------------------
class TestSparseLU:
    def test_identity(self):
        lu = SparseLU.factor(3, [{0: F(1)}, {1: F(1)}, {2: F(1)}])
        assert lu is not None
        assert lu.ftran([F(3), F(5), F(7)]) == [F(3), F(5), F(7)]
        assert lu.btran([F(2), F(4), F(6)]) == [F(2), F(4), F(6)]
        assert lu.nnz == 3 and lu.basis_nnz == 3

    def test_permutation(self):
        # columns e2, e0, e1: x solves B x = rhs with x by basis slot
        lu = SparseLU.factor(3, [{2: F(1)}, {0: F(1)}, {1: F(1)}])
        assert lu is not None
        assert lu.ftran([F(10), F(20), F(30)]) == [F(30), F(10), F(20)]

    def test_structurally_singular_is_none(self):
        assert SparseLU.factor(2, [{0: F(1)}, {}]) is None

    def test_numerically_singular_is_none(self):
        cols = [{0: F(1), 1: F(2)}, {0: F(2), 1: F(4)}]
        assert SparseLU.factor(2, cols) is None

    def test_wrong_column_count_is_none(self):
        assert SparseLU.factor(2, [{0: F(1)}]) is None

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_matrix_solves_exactly(self, data):
        m = data.draw(st.integers(min_value=1, max_value=5))
        entries = data.draw(st.lists(
            st.tuples(st.integers(0, m - 1), st.integers(0, m - 1),
                      st.fractions(min_value=-3, max_value=3)),
            min_size=m, max_size=3 * m))
        columns = [dict() for _ in range(m)]
        for i, j, v in entries:
            if v != 0:
                columns[j][i] = v
        rows = dense_of(m, columns)
        lu = SparseLU.factor(m, [dict(c) for c in columns])
        if lu is None:
            # must actually be singular: exact Gaussian elimination on
            # the dense copy finds rank < m
            assert _dense_rank(rows) < m
            return
        rhs = [data.draw(st.fractions(min_value=-4, max_value=4))
               for _ in range(m)]
        x = lu.ftran(list(rhs))
        assert mat_vec(rows, x) == rhs
        cost = [data.draw(st.fractions(min_value=-4, max_value=4))
                for _ in range(m)]
        y = lu.btran(list(cost))
        assert vec_mat(y, rows) == cost


def _dense_rank(rows):
    rows = [list(r) for r in rows]
    m = len(rows)
    rank = 0
    for j in range(m):
        piv = next((i for i in range(rank, m) if rows[i][j] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][j]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(m):
            if i != rank and rows[i][j] != 0:
                f = rows[i][j]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class TestBasisFactor:
    def _factor(self):
        columns = [{0: F(2), 1: F(1)}, {1: F(3)}]
        lu = SparseLU.factor(2, [dict(c) for c in columns])
        assert lu is not None
        return BasisFactor(lu), columns

    def test_eta_update_matches_refactorisation(self):
        bf, columns = self._factor()
        entering = {0: F(1), 1: F(5)}
        w = bf.ftran([entering.get(0, F(0)), entering.get(1, F(0))])
        assert w[1] != 0
        bf.push_eta(1, w)
        columns[1] = entering
        fresh = SparseLU.factor(2, [dict(c) for c in columns])
        assert fresh is not None
        for rhs in ([F(1), F(0)], [F(0), F(1)], [F(7), F(-3)]):
            assert bf.ftran(list(rhs)) == fresh.ftran(list(rhs))
            assert bf.btran(list(rhs)) == fresh.btran(list(rhs))

    def test_zero_pivot_eta_raises(self):
        bf, _ = self._factor()
        with pytest.raises(SingularBasisError):
            bf.push_eta(0, [F(0), F(4)])

    def test_op_counters(self):
        bf, _ = self._factor()
        bf.ftran([F(1), F(1)])
        bf.btran([F(1), F(1)])
        bf.btran([F(2), F(0)])
        assert bf.ftran_ops == 1 and bf.btran_ops == 2


# ----------------------------------------------------------------------
# differential: revised vs tableau on random LPs
# ----------------------------------------------------------------------
@st.composite
def random_lp(draw):
    """Random LP with mixed bound kinds, senses and degenerate ties.

    Small integer coefficients and zero-heavy rhs keep ties (degenerate
    vertices) common; every bound kind and constraint sense is drawn.
    """
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=5))
    bounds = [draw(st.sampled_from(["lo", "box", "hi", "free"]))
              for _ in range(n)]
    rows = [[draw(coef) for _ in range(n)] for _ in range(m)]
    senses = [draw(st.sampled_from(["<=", ">=", "=="])) for _ in range(m)]
    rhs = [draw(st.integers(min_value=0, max_value=4)) for _ in range(m)]
    obj = [draw(coef) for _ in range(n)]
    maximize = draw(st.booleans())
    return n, bounds, rows, senses, rhs, obj, maximize


def build_lp(data):
    n, bounds, rows, senses, rhs, obj, maximize = data
    lp = LinearProgram(name="diff")
    xs = []
    for i, kind in enumerate(bounds):
        if kind == "lo":
            xs.append(lp.variable(f"x{i}", lo=0))
        elif kind == "box":
            xs.append(lp.variable(f"x{i}", lo=0, hi=3))
        elif kind == "hi":
            xs.append(lp.variable(f"x{i}", hi=3))
        else:
            xs.append(lp.variable(f"x{i}"))
    for k, (row, sense, b) in enumerate(zip(rows, senses, rhs)):
        expr = lp_sum(c * x for c, x in zip(row, xs))
        if sense == "<=":
            lp.add_constraint(expr <= b, name=f"c{k}")
        elif sense == ">=":
            lp.add_constraint(expr >= b, name=f"c{k}")
        else:
            lp.add_constraint(expr == b, name=f"c{k}")
    objective = lp_sum(c * x for c, x in zip(obj, xs))
    if maximize:
        lp.maximize(objective)
    else:
        lp.minimize(objective)
    return lp, xs


def classify(lp, engine):
    try:
        return "optimal", solve_exact(lp, engine=engine)
    except InfeasibleError:
        return "infeasible", None
    except UnboundedError:
        return "unbounded", None


class TestDifferential:
    @settings(max_examples=120, deadline=None)
    @given(random_lp())
    def test_cold_solves_agree_exactly(self, data):
        lp_r, _ = build_lp(data)
        lp_t, _ = build_lp(data)
        kind_r, sol_r = classify(lp_r, "revised")
        kind_t, sol_t = classify(lp_t, "tableau")
        assert kind_r == kind_t
        if kind_r == "optimal":
            assert sol_r.objective == sol_t.objective
            # both engines follow the same pivot rules, so the cold
            # solves land on the same vertex — values identical too
            values_r = {v.name: x for v, x in sol_r.values.items()}
            values_t = {v.name: x for v, x in sol_t.values.items()}
            assert values_r == values_t
            lp_r.check(sol_r)

    @settings(max_examples=60, deadline=None)
    @given(random_lp(), st.data())
    def test_warm_resolves_agree_on_objective(self, data, dyn):
        """Patch one coefficient, warm-solve on both engines: same
        classification and exact objective (the vertices may differ —
        warm repairs walk engine-specific paths)."""
        insts = {}
        lps = {}
        for engine in ("revised", "tableau"):
            lp, xs = build_lp(data)
            lps[engine] = (lp, xs)
            inst = SimplexInstance(lp, engine=engine)
            insts[engine] = inst
        kinds = {}
        for engine, inst in insts.items():
            try:
                inst.solve()
                kinds[engine] = "optimal"
            except InfeasibleError:
                kinds[engine] = "infeasible"
            except UnboundedError:
                kinds[engine] = "unbounded"
        assert kinds["revised"] == kinds["tableau"]
        if kinds["revised"] != "optimal":
            return
        n, bounds, rows, senses, rhs, obj, maximize = data
        ci = dyn.draw(st.integers(0, len(lps["revised"][0].constraints) - 1))
        vi = dyn.draw(st.integers(0, n - 1))
        delta = dyn.draw(st.sampled_from(
            [F(1), F(-1), F(1, 2), F(2)]))
        outcomes = {}
        for engine in ("revised", "tableau"):
            lp, xs = lps[engine]
            cons = lp.constraints[ci]
            old = cons.expr.terms.get(xs[vi], F(0))
            # a patch to 0 removes the term (structure change): both
            # engines then fall back cold, which must also agree
            lp.set_constraint_coefficient(cons.name, xs[vi], old + delta)
            try:
                sol = insts[engine].solve(warm=True)
                outcomes[engine] = ("optimal", sol.objective)
            except InfeasibleError:
                outcomes[engine] = ("infeasible", None)
            except UnboundedError:
                outcomes[engine] = ("unbounded", None)
        assert outcomes["revised"] == outcomes["tableau"]


# ----------------------------------------------------------------------
# warm-restart edge cases under the factorisation
# ----------------------------------------------------------------------
class TestWarmEdgeCases:
    @staticmethod
    def _two_var_model():
        """max 3x + 2y with the optimum at the constraint intersection
        (x = y = 4/3), so both structural columns end up basic."""
        lp = LinearProgram(name="edge")
        x = lp.variable("x", lo=0)
        y = lp.variable("y", lo=0)
        lp.add_constraint(x + 2 * y <= 4, name="c1")
        lp.add_constraint(2 * x + y <= 4, name="c2")
        lp.maximize(3 * x + 2 * y)
        return lp, x, y

    def test_singular_retained_basis_falls_back_cold(self):
        lp, x, y = self._two_var_model()
        inst = SimplexInstance(lp, engine="revised")
        sol = inst.solve()
        # optimum sits on both constraints: x and y are basic
        assert sol[x] == F(4, 3) and sol[y] == F(4, 3)
        # patch c1 to duplicate c2: the retained x/y basis columns
        # become (2,2) and (1,1) — linearly dependent — so the warm LU
        # is singular and the solve must fall back cold, still
        # returning the exact optimum of the patched LP
        lp.set_constraint_coefficient("c1", x, 2)
        lp.set_constraint_coefficient("c1", y, 1)
        sol = inst.solve(warm=True)
        assert inst.fallbacks == 1
        assert not inst.last_restarted
        assert sol.objective == 8  # 2x + y <= 4 twice: best is (0, 4)

    def test_eta_overflow_refactorises_mid_solve(self):
        lp = LinearProgram(name="overflow")
        xs = [lp.variable(f"x{i}", lo=0, hi=i + 1) for i in range(6)]
        for i in range(5):
            lp.add_constraint(xs[i] + xs[i + 1] <= 3)
        lp.maximize(lp_sum((i + 1) * x for i, x in enumerate(xs)))
        # eta_limit=1: every pivot overflows the eta file and triggers
        # an immediate refactorisation
        tight = SimplexInstance(lp, engine="revised", eta_limit=1)
        sol_tight = tight.solve()
        assert tight.last_pivots > 1
        fs = tight.last_factor_stats
        assert fs["refactorisations"] >= tight.last_pivots
        assert fs["eta_len_max"] == 1
        # a roomy eta file never refactorises mid-solve ...
        roomy = SimplexInstance(lp, engine="revised", eta_limit=10_000)
        sol_roomy = roomy.solve()
        assert roomy.last_factor_stats["refactorisations"] == 1
        # ... and the mid-solve refactorisations change nothing
        assert sol_tight.objective == sol_roomy.objective
        assert sol_tight.values == sol_roomy.values

    def test_pivot_cap_excludes_refactorisation_ops(self):
        # equality rows force artificials, whose drive-out exchanges are
        # basis operations, not simplex pivots: a cap of exactly the
        # pivot count must therefore not trip
        lp = LinearProgram(name="cap")
        x = lp.variable("x", lo=0)
        y = lp.variable("y", lo=0)
        z = lp.variable("z", lo=0)
        lp.add_constraint(x + y + z == 3)
        lp.add_constraint(x - y == 1)
        lp.add_constraint(x + 2 * z <= 4)
        lp.maximize(x + 2 * y + 3 * z)
        reference = SimplexInstance(lp, engine="revised")
        expected = reference.solve()
        pivots = reference.last_pivots
        assert pivots > 0
        capped = SimplexInstance(lp, engine="revised", max_pivots=pivots)
        sol = capped.solve()
        assert sol.objective == expected.objective
        # one fewer must trip, proving the cap is measured in pivots
        with pytest.raises(LPError, match="pivot safety cap"):
            SimplexInstance(lp, engine="revised",
                            max_pivots=pivots - 1).solve()

    def test_warm_pivot_cap_excludes_warm_install(self):
        lp, x, y = self._two_var_model()
        probe = SimplexInstance(lp, engine="revised")
        probe.solve()
        lp.set_constraint_coefficient("c1", y, 3)
        expected = probe.solve(warm=True)
        assert probe.last_restarted
        warm_pivots = probe.last_pivots
        # replay with the cap set to exactly the warm pivot count: the
        # warm install's LU + any exchange bookkeeping must not count
        lp2, x2, y2 = self._two_var_model()
        inst = SimplexInstance(lp2, engine="revised")
        inst.solve()
        lp2.set_constraint_coefficient("c1", y2, 3)
        inst.max_pivots = warm_pivots
        sol = inst.solve(warm=True)
        assert inst.last_restarted
        assert sol.objective == expected.objective
        assert inst.last_pivots == warm_pivots

    def test_unknown_engine_rejected(self):
        lp, _, _ = self._two_var_model()
        with pytest.raises(LPError, match="unknown simplex engine"):
            SimplexInstance(lp, engine="dense")

    def test_default_engine_is_revised(self):
        assert DEFAULT_ENGINE == "revised"
        lp, _, _ = self._two_var_model()
        inst = SimplexInstance(lp)
        inst.solve()
        assert inst.last_factor_stats["refactorisations"] >= 1
        assert inst.last_factor_stats["ftran_ops"] > 0
        assert inst.last_factor_stats["btran_ops"] > 0

    def test_tableau_engine_reports_zero_factor_stats(self):
        lp, _, _ = self._two_var_model()
        inst = SimplexInstance(lp, engine="tableau")
        inst.solve()
        assert all(v == 0 for v in inst.last_factor_stats.values())

    def test_stats_carry_factor_totals(self):
        lp, x, y = self._two_var_model()
        inst = SimplexInstance(lp, engine="revised")
        inst.solve()
        lp.set_constraint_coefficient("c1", y, 3)
        inst.solve(warm=True)
        stats = inst.stats()
        assert stats["refactorisations"] >= 2  # one LU per solve minimum
        assert stats["ftran_ops"] > 0 and stats["btran_ops"] > 0
        assert stats["lu_basis_nnz"] > 0
        assert stats["lu_nnz"] >= stats["refactorisations"]


# ----------------------------------------------------------------------
# certified optimum: a float-proposed basis, proven (or repaired) exactly
# ----------------------------------------------------------------------
def classify_optimum(lp):
    try:
        return "optimal", lp.optimum()
    except InfeasibleError:
        return "infeasible", None
    except UnboundedError:
        return "unbounded", None


class TestCertifiedOptimum:
    @settings(max_examples=120, deadline=None)
    @given(random_lp())
    def test_optimum_equals_exact_objective(self, data):
        lp_c, _ = build_lp(data)
        lp_e, _ = build_lp(data)
        kind_c, value = classify_optimum(lp_c)
        kind_e, sol = classify(lp_e, "revised")
        assert kind_c == kind_e
        if kind_e == "optimal":
            assert isinstance(value, Fraction)
            assert value == sol.objective

    @pytest.mark.parametrize("engine", ["revised", "tableau"])
    @settings(max_examples=60, deadline=None)
    @given(data=random_lp(), dyn=st.data())
    def test_any_well_formed_hint_gives_the_exact_answer(self, engine,
                                                         data, dyn):
        """A random basis, good or bad, goes through the restart ladder:
        same classification and objective as the cold solve, and the
        reported point is feasible."""
        lp, _ = build_lp(data)
        kind, cold = classify(lp, engine)
        hint = None
        if kind != "infeasible":  # else the standard form may not build
            sf = _build_standard_form(lp)
            m = len(sf.rows)
            hint = dyn.draw(st.permutations(range(sf.num_cols + m)))[:m]
        inst = SimplexInstance(lp, engine=engine)
        try:
            sol = inst.solve(propose=lambda sf: hint)
            got = ("optimal", sol.objective)
        except InfeasibleError:
            got = ("infeasible", None)
        except UnboundedError:
            got = ("unbounded", None)
        assert got == (kind, cold.objective if cold else None)
        if kind == "optimal":
            lp.check(sol)

    # max x + y + z  s.t.  x + 2y + 2z <= 4,  3x + y + 6z <= 6,  all >= 0.
    # Standard-form columns: x=0, y=1, z=2, slacks s1=3, s2=4; the
    # logical of row r is 5 + r.  z's column is twice x's, so {x, z} is
    # singular.  Optimum 14/5 at x = 8/5, y = 6/5.
    @staticmethod
    def _hint_model():
        lp = LinearProgram(name="hint")
        x = lp.variable("x", lo=0)
        y = lp.variable("y", lo=0)
        z = lp.variable("z", lo=0)
        lp.add_constraint(x + 2 * y + 2 * z <= 4, name="c1")
        lp.add_constraint(3 * x + y + 6 * z <= 6, name="c2")
        lp.maximize(x + y + z)
        return lp

    @staticmethod
    def _solve_with(hint):
        lp = TestCertifiedOptimum._hint_model()
        inst = SimplexInstance(lp)
        if isinstance(hint, Exception):
            def propose(sf):
                raise hint
        else:
            def propose(sf):
                return hint
        sol = inst.solve(propose=propose)
        lp.check(sol)
        assert sol.objective == F(14, 5)
        return inst.stats()

    def test_highs_proposes_the_optimal_basis(self):
        sf = _build_standard_form(self._hint_model())
        assert sorted(scipy_backend.propose_basis(sf)) == [0, 1]

    def test_optimal_hint_certifies_without_pivots(self):
        stats = self._solve_with([1, 0])
        assert stats["certified"] == 1 and stats["last_pivots"] == 0
        assert stats["fallbacks"] == 0

    def test_primal_infeasible_hint_takes_a_dual_repair(self):
        # {y, s1}: y = 6, s1 = -8, but every reduced cost >= 0
        stats = self._solve_with([1, 3])
        assert stats["dual_repairs"] == 1
        assert stats["certified"] == 0 and stats["fallbacks"] == 0

    def test_dual_infeasible_hint_takes_primal_pivots(self):
        # the slack basis: feasible, not optimal
        stats = self._solve_with([3, 4])
        assert stats["phase1_skips"] == 1 and stats["last_pivots"] > 0
        assert stats["certified"] == 0 and stats["fallbacks"] == 0

    def test_doubly_infeasible_hint_takes_a_restricted_phase1(self):
        # {z, s2}: s2 = -6 and x prices at -1/2
        stats = self._solve_with([2, 4])
        assert stats["primal_repairs"] == 1
        assert stats["certified"] == 0 and stats["fallbacks"] == 0

    def test_nonzero_logical_is_exchanged_out(self):
        # x with row 2's logical: the logical sits at -6, so no
        # certificate as proposed; the ladder swaps it for a column
        stats = self._solve_with([0, 6])
        assert stats["basis_restarts"] == 1 and stats["fallbacks"] == 0

    @pytest.mark.parametrize("hint", [
        [0, 2],           # singular: z's column is 2 * x's
        [0, 0],           # duplicate columns
        [0],              # too short
        [0, 1, 3],        # too long
        [0, 99],          # id out of range
        [-1, 0],          # negative id
        [1.0, 0],         # not integers
        None,             # no proposal
        RuntimeError("solver crashed"),
    ], ids=["singular", "duplicate", "short", "long", "out-of-range",
            "negative", "float-ids", "none", "exception"])
    def test_unusable_hint_falls_back_cold(self, hint):
        stats = self._solve_with(hint)
        assert stats["fallbacks"] == 1
        assert stats["basis_restarts"] == 0 and stats["certified"] == 0

    def test_highs_non_optimal_status_is_no_hint(self, monkeypatch):
        monkeypatch.setitem(scipy_backend._HIGHS_OPTIONS,
                            "simplex_iteration_limit", 0)
        monkeypatch.setitem(scipy_backend._HIGHS_OPTIONS, "presolve", "off")
        sf = _build_standard_form(self._hint_model())
        assert scipy_backend.propose_basis(sf) is None
        assert self._hint_model().optimum() == F(14, 5)

    @pytest.mark.parametrize("bad", [
        lambda sf: [0, 2],
        lambda sf: [3, 4],
        lambda sf: None,
        lambda sf: 1 / 0,
    ], ids=["singular", "dual-infeasible", "none", "exception"])
    def test_optimum_survives_a_bad_basis_finder(self, monkeypatch, bad):
        monkeypatch.setattr(scipy_backend, "propose_basis", bad)
        assert self._hint_model().optimum() == F(14, 5)

    def test_infeasible_and_unbounded_are_decided_exactly(self):
        lp = LinearProgram(name="infeasible")
        x = lp.variable("x", lo=0)
        lp.add_constraint(x >= 2, name="lo")
        lp.add_constraint(x <= 1, name="hi")
        lp.maximize(x)
        with pytest.raises(InfeasibleError):
            lp.optimum()
        lp = LinearProgram(name="unbounded")
        x = lp.variable("x", lo=0)
        lp.add_constraint(x >= 2, name="lo")
        lp.maximize(x)
        with pytest.raises(UnboundedError):
            lp.optimum()

    def test_search_and_certificate_are_timed_phases(self):
        lp = self._hint_model()
        inst = SimplexInstance(lp)
        inst.solve(propose=scipy_backend.propose_basis)
        assert [p["phase"] for p in inst.last_phases] == [
            "hint.search", "hint.certify"]
        assert all(p["pivots"] == 0 for p in inst.last_phases)

    def test_scipy_backend_optimum_passes_through(self):
        assert self._hint_model().optimum(backend="scipy") == F(14, 5)


# ----------------------------------------------------------------------
# counters through the service layer
# ----------------------------------------------------------------------
class TestServiceCounters:
    def test_incremental_accumulates_factor_stats(self):
        from repro.platform import generators
        from repro.service.incremental import IncrementalSolver

        inc = IncrementalSolver()
        g = generators.star(4)
        inc.solve_master_slave(g, "M")
        cold = inc.stats
        assert cold.refactorisations >= 1
        assert cold.ftran_ops > 0 and cold.btran_ops > 0
        assert cold.lu_basis_nnz > 0
        inc.solve_master_slave(g.scale(compute=2), "M")
        assert inc.stats.warm_solves == 1
        assert inc.stats.basis_fallbacks == 0

    def test_prometheus_exposes_factor_metrics(self):
        from repro.service.metrics import render_prometheus

        snapshot = {
            "incremental": {
                "hot_models": 2,
                "warm_solves": 5,
                "refactorisations": 7,
                "eta_len_max": 3,
                "ftran_ops": 40,
                "btran_ops": 21,
                "lu_fill_nnz": 90,
                "lu_basis_nnz": 60,
            },
        }
        text = render_prometheus(snapshot)
        assert "repro_warm_refactorisations_total 7" in text
        assert "repro_warm_ftran_ops_total 40" in text
        assert "repro_warm_btran_ops_total 21" in text
        # high-water marks are gauges, not counters
        assert "repro_warm_eta_len_max 3" in text
        assert "repro_warm_eta_len_max_total" not in text
        assert "repro_warm_lu_fill_ratio 1.5" in text

    def test_warm_stats_declare_factor_fields(self):
        from repro.service.incremental import WarmSolveStats

        stats = WarmSolveStats()
        snap = stats.as_dict()
        for key in ("refactorisations", "eta_len_max", "ftran_ops",
                    "btran_ops", "lu_fill_nnz", "lu_basis_nnz"):
            assert key in snap
            assert snap[key] == 0
