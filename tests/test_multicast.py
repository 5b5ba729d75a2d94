"""Multicast tests: the §4.3 counterexample and the bound bracket.

The paper's central negative result: the optimistic (max-rule) LP bound of
1 multicast per time-unit on the Figure 2 platform cannot be realised; the
true optimum is 3/4 and the pessimistic (sum-rule) bound is 1/2.
"""

from fractions import Fraction

import pytest

from repro.core.multicast import (
    analyze_figure2,
    best_single_tree,
    multicast_bounds,
    solve_multicast,
)
from repro.platform import generators as gen


@pytest.fixture(scope="module")
def fig2_report():
    return analyze_figure2()


class TestFigure2Counterexample:
    def test_max_lp_is_one(self, fig2_report):
        """The unachievable bound: one multicast per time-unit."""
        assert fig2_report.max_lp == 1

    def test_sum_lp_is_half(self, fig2_report):
        """Scatter-style accounting: the pessimistic bound."""
        assert fig2_report.sum_lp == Fraction(1, 2)

    def test_achievable_is_three_quarters(self, fig2_report):
        """Exhaustive Steiner-tree packing: the true optimum."""
        assert fig2_report.achievable == Fraction(3, 4)

    def test_is_counterexample(self, fig2_report):
        assert fig2_report.is_counterexample()

    def test_conflict_is_on_p3_p4(self, fig2_report):
        """Figure 3(d): edge P3->P4 must carry one `a` and one `b` message
        per two time-units at cost 2 each — occupation 2 > 1."""
        assert fig2_report.conflicts == {("P3", "P4"): Fraction(2)}

    def test_figure_3a_flows(self, fig2_report):
        """Figure 3(a): messages towards P5 — 1/2 on each of six edges."""
        expected = {
            ("P0", "P1"), ("P1", "P5"),
            ("P0", "P2"), ("P2", "P3"), ("P3", "P4"), ("P4", "P5"),
        }
        assert set(fig2_report.flows_p5) == expected
        assert all(v == Fraction(1, 2) for v in fig2_report.flows_p5.values())

    def test_figure_3b_flows(self, fig2_report):
        """Figure 3(b): messages towards P6 — 1/2 on each of six edges."""
        expected = {
            ("P0", "P1"), ("P1", "P3"), ("P3", "P4"), ("P4", "P6"),
            ("P0", "P2"), ("P2", "P6"),
        }
        assert set(fig2_report.flows_p6) == expected
        assert all(v == Fraction(1, 2) for v in fig2_report.flows_p6.values())

    def test_figure_3c_total_flows(self, fig2_report):
        """Figure 3(c): every platform edge carries messages; the shared
        edges coincide at the source and collide at P3->P4."""
        total = fig2_report.total_flows
        # source edges: the two copies are one physical message
        assert total[("P0", "P1")] == Fraction(1, 2)
        assert total[("P0", "P2")] == Fraction(1, 2)
        # the conflict edge: distinct a and b messages add up
        assert total[("P3", "P4")] == 1

    def test_lp_flows_satisfy_max_rule(self, fig2_report):
        """The per-target flows claimed by the figure must be an optimal
        max-LP solution: each edge's occupation (max over targets x c)
        fits, and P0's one-port is exactly saturated."""
        g = fig2_report.platform
        for e in set(fig2_report.flows_p5) | set(fig2_report.flows_p6):
            occupation = max(
                fig2_report.flows_p5.get(e, Fraction(0)),
                fig2_report.flows_p6.get(e, Fraction(0)),
            ) * g.c(*e)
            assert occupation <= 1
        p0_busy = sum(
            (max(fig2_report.flows_p5.get(("P0", j), Fraction(0)),
                 fig2_report.flows_p6.get(("P0", j), Fraction(0)))
             * g.c("P0", j)
             for j in g.successors("P0")),
            start=Fraction(0),
        )
        assert p0_busy == 1


class TestBracket:
    def test_fig2_bracket(self, fig2):
        analysis = solve_multicast(fig2, "P0", ["P5", "P6"])
        assert analysis.sum_lp <= analysis.tree_optimal <= analysis.max_lp
        assert not analysis.max_lp_achievable

    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_random_platform_bracket(self, seed):
        g = gen.random_connected(6, seed=seed, extra_edge_prob=0.2)
        targets = [n for n in g.nodes() if n != "R0"][:2]
        analysis = solve_multicast(g, "R0", targets)
        assert analysis.bracket_ok()

    def test_single_target_multicast_is_unicast(self):
        """One target: sum and max rules coincide; packing matches."""
        g = gen.chain(3, link_c=2)
        analysis = solve_multicast(g, "N0", ["N2"])
        assert analysis.sum_lp == analysis.max_lp == analysis.tree_optimal

    def test_broadcast_targets_make_bound_achievable(self, fig2):
        """With ALL nodes as targets (broadcast), the max bound IS met —
        the paper's contrast between multicast and broadcast."""
        targets = [n for n in fig2.nodes() if n != "P0"]
        analysis = solve_multicast(fig2, "P0", targets)
        assert analysis.tree_optimal == analysis.max_lp


class TestSingleTree:
    def test_fig2_best_single_tree(self, fig2):
        rate, tree = best_single_tree(fig2, "P0", ["P5", "P6"])
        # direct two-branch tree: P0 sends twice at c=1 -> rate 1/2
        assert rate == Fraction(1, 2)
        assert tree == frozenset(
            {("P0", "P1"), ("P1", "P5"), ("P0", "P2"), ("P2", "P6")}
        )

    def test_packing_beats_single_tree_on_fig2(self, fig2):
        analysis = solve_multicast(fig2, "P0", ["P5", "P6"])
        rate, _ = best_single_tree(fig2, "P0", ["P5", "P6"])
        assert analysis.tree_optimal > rate


class TestBoundsFunction:
    def test_bounds_order(self, fig2):
        sum_lp, max_lp = multicast_bounds(fig2, "P0", ["P5", "P6"])
        assert sum_lp <= max_lp

    def test_random_platform_bounds_are_pinned_and_certified(
            self, exact_solves):
        g = gen.random_connected(6, seed=2)
        sum_lp, max_lp = multicast_bounds(g, "R0", ["R2", "R4", "R5"])
        assert (sum_lp, max_lp) == (Fraction(1, 15), Fraction(1, 5))
        # both objective-only LPs took the certified path
        assert [proposed for proposed, _, _ in exact_solves] == [True, True]

    def test_scipy_backend_close(self, fig2):
        es, em = multicast_bounds(fig2, "P0", ["P5", "P6"])
        ss, sm = multicast_bounds(fig2, "P0", ["P5", "P6"], backend="scipy")
        assert abs(float(es - ss)) < 1e-7
        assert abs(float(em - sm)) < 1e-7
