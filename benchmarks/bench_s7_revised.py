"""S7 — revised simplex: sparse LU + eta-file updates vs the dense tableau.

Measures, on the paper's Figure 1 platform, heterogeneous stars, depth-3
trees and large random connected platforms:

* cold solve cost — the same two-phase pivot sequence priced through
  FTRAN/BTRAN on a Markowitz-ordered sparse LU (revised engine) vs the
  O(m*n)-per-pivot dense tableau, asserted ``Fraction``-identical in
  objective *and* per-variable values (both engines replay the same
  pivots, so cold solves land on the same vertex);
* warm re-solve factorisation economy — weight-drift mutations through
  :class:`IncrementalSolver`: one LU refactorisation per basis restart
  (plus rare eta-overflow refactorisations), asserted far below the
  pivot count a cold solve would pay, with zero basis fallbacks;
* the factorisation counters themselves (eta length, FTRAN/BTRAN ops,
  LU fill) as exposed through ``WarmSolveStats``;
* certified objectives — the broadcast bound LPs of Figure 1,
  ``random_connected(6)``, ``binary_tree(2)`` and a suite of larger
  ``random_connected`` platforms solved both ways: HiGHS proposes a basis
  that one exact LU certifies (:meth:`LinearProgram.optimum`), versus
  the exact cold two-phase solve.

Emits ``BENCH_revised.json`` at the repo root.  Run standalone::

    python benchmarks/bench_s7_revised.py [--smoke] [--out FILE]

Asserted shape: every engine comparison is Fraction-identical with an
identical pivot count; the revised engine's cold solves are >= 1.5x
faster than the tableau in aggregate on the large-platform suite; warm
refactorisations stay at ~1 per re-solve and well under the cold pivot
bill; ``basis_fallbacks`` stays 0 on the warm workload; certified
objectives are Fraction-identical to the cold ones, Figure 1 certifies
with 0 exact pivots, and all certified solves together take at most 10%
of the cold solves' pivots (counters, not wall-clock; both times are
reported).
"""

from __future__ import annotations

import argparse
import json
import random
import time
from fractions import Fraction
from pathlib import Path

from repro import generators
from repro.core.broadcast import build_broadcast_lp
from repro.core.master_slave import build_ssms_lp
from repro.lp import SimplexInstance, scipy_backend
from repro.platform.graph import Platform
from repro.service import EndpointMetrics, IncrementalSolver
from repro._rational import INF, is_infinite


def _percentile(samples, p):
    em = EndpointMetrics("bench", reservoir_size=max(len(samples), 1))
    for s in samples:
        em.observe(s)
    return em.percentile(p)


def _drift(platform: Platform, rng: random.Random) -> Platform:
    """A weight-drift mutation: every node/edge weight moves by an
    independent rational factor in [3/4, 5/4] — same topology, moved
    weights, i.e. the regime where the retained basis stays optimal or
    nearly so."""
    out = Platform(platform.name)
    for spec in platform._nodes.values():  # noqa: SLF001 — bench helper
        if is_infinite(spec.w):
            out.add_node(spec.name, INF)
        else:
            out.add_node(spec.name,
                         spec.w * Fraction(rng.randint(12, 20), 16))
    for spec in platform.edges():
        out.add_edge(spec.src, spec.dst,
                     spec.c * Fraction(rng.randint(12, 20), 16))
    return out


def _timed_cold(lp, engine: str, reps: int):
    """Best-of-``reps`` cold solve latency plus the solution and the
    instance of the last rep (for pivot/factor counters)."""
    best = None
    for _ in range(reps):
        inst = SimplexInstance(lp, engine=engine)
        start = time.perf_counter()
        sol = inst.solve()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, sol, inst


# ----------------------------------------------------------------------
def bench_cold_engines(smoke: bool) -> dict:
    """Cold solves on both engines: exact parity, latency, speedup."""
    reps = 2 if smoke else 3
    small = {
        "paper_figure1": (generators.paper_figure1(), "P1"),
        "star8": (generators.star(8, worker_w=list(range(1, 9)),
                                  link_c=[1] * 8), "M"),
        "binary_tree3": (generators.binary_tree(3, seed=1), "T0"),
    }
    sizes = (20, 30) if smoke else (20, 40, 60)
    large = {
        f"random_connected{n}": (generators.random_connected(n, seed=7),
                                 f"R0_{n}")
        for n in sizes
    }
    out = {}
    large_revised = large_tableau = 0.0
    for name, (platform, _tag) in {**small, **large}.items():
        master = sorted(platform._nodes)[0]  # noqa: SLF001 — bench helper
        lp, _handles = build_ssms_lp(platform, master)
        rev_s, rev_sol, rev_inst = _timed_cold(lp, "revised", reps)
        tab_s, tab_sol, tab_inst = _timed_cold(lp, "tableau", reps)
        # both engines follow the same pivot rules over exact Fractions:
        # identical objective, identical vertex, identical pivot count
        assert rev_sol.objective == tab_sol.objective, name
        assert rev_sol.values == tab_sol.values, name
        assert rev_inst.last_pivots == tab_inst.last_pivots, (
            f"{name}: pivot sequences diverged "
            f"({rev_inst.last_pivots} vs {tab_inst.last_pivots})"
        )
        fs = rev_inst.last_factor_stats
        out[name] = {
            "rows": len(lp.constraints),
            "columns": len(lp.variables),
            "pivots": rev_inst.last_pivots,
            "revised_ms": rev_s * 1e3,
            "tableau_ms": tab_s * 1e3,
            "speedup": tab_s / rev_s,
            "refactorisations": fs["refactorisations"],
            "eta_len_max": fs["eta_len_max"],
            "ftran_ops": fs["ftran_ops"],
            "btran_ops": fs["btran_ops"],
            "lu_fill_ratio": (fs["lu_nnz"] / fs["lu_basis_nnz"]
                              if fs["lu_basis_nnz"] else 0.0),
        }
        if name in large:
            large_revised += rev_s
            large_tableau += tab_s
    speedup = large_tableau / large_revised
    # the acceptance bar: the eta-file engine must beat the dense
    # tableau by >= 1.5x in aggregate on the large-platform suite
    assert speedup >= 1.5, (
        f"large-platform cold speedup {speedup:.2f}x below the 1.5x bar "
        f"(revised {large_revised * 1e3:.1f} ms, "
        f"tableau {large_tableau * 1e3:.1f} ms)"
    )
    out["large_suite"] = {
        "platforms": sorted(large),
        "revised_total_ms": large_revised * 1e3,
        "tableau_total_ms": large_tableau * 1e3,
        "speedup": speedup,
    }
    return out


# ----------------------------------------------------------------------
def bench_warm_refactorisation(smoke: bool) -> dict:
    """Warm re-solves: refactorisation economy vs the cold pivot bill."""
    rounds = 6 if smoke else 30
    rng = random.Random(20040427)
    platforms = {
        "paper_figure1": generators.paper_figure1(),
        "binary_tree3": generators.binary_tree(3, seed=1),
        "star8": generators.star(8, worker_w=list(range(1, 9)),
                                 link_c=[1] * 8),
    }
    out = {}
    for name, base in platforms.items():
        master = sorted(base._nodes)[0]  # noqa: SLF001 — bench helper
        inc = IncrementalSolver()
        inc.solve_master_slave(base, master)  # prime the hot model
        primed = inc.stats.refactorisations
        warm_lat = []
        cold_pivots = 0
        for _ in range(rounds):
            mutated = _drift(base, rng)
            start = time.perf_counter()
            warm = inc.solve_master_slave(mutated, master)
            warm_lat.append(time.perf_counter() - start)
            # the cold bill this mutation would have paid, for the
            # refactorisations-vs-pivots comparison (and exactness)
            lp, _handles = build_ssms_lp(mutated, master)
            cold_sol = SimplexInstance(lp).solve()
            cold_pivots += cold_sol.pivots
            assert warm.throughput == cold_sol.objective, name
        stats = inc.stats
        assert stats.warm_solves == rounds and stats.basis_fallbacks == 0, (
            f"{name}: warm path not taken on every mutation: "
            f"{stats.as_dict()}"
        )
        warm_refactors = stats.refactorisations - primed
        # one LU per basis restart plus the odd eta-overflow refactor —
        # and far below what the cold pivot sequences would have cost
        assert warm_refactors <= 2 * rounds, (
            f"{name}: {warm_refactors} refactorisations for {rounds} "
            f"warm re-solves"
        )
        assert warm_refactors * 4 <= cold_pivots, (
            f"{name}: refactorisations ({warm_refactors}) not well under "
            f"the cold pivot bill ({cold_pivots})"
        )
        out[name] = {
            "mutations": rounds,
            "warm_p50_ms": _percentile(warm_lat, 50) * 1e3,
            "warm_pivots": stats.warm_pivots,
            "cold_pivots_equivalent": cold_pivots,
            "refactorisations": warm_refactors,
            "refactorisations_per_resolve": warm_refactors / rounds,
            "eta_len_max": stats.eta_len_max,
            "ftran_ops": stats.ftran_ops,
            "btran_ops": stats.btran_ops,
            "lu_fill_ratio": (stats.lu_fill_nnz / stats.lu_basis_nnz
                              if stats.lu_basis_nnz else 0.0),
            "basis_fallbacks": stats.basis_fallbacks,
        }
    return out


# ----------------------------------------------------------------------
def bench_certified_bounds(smoke: bool) -> dict:
    """Broadcast bound LPs, certified vs exact cold: identical objective,
    pivot counters, and both times.

    The larger platforms are ``random_connected(n, seed=7)`` like the
    cold-engine suite, but smaller: a broadcast LP has one flow per
    (edge, target), and the exact cold solve of ``n = 12`` already takes
    ~20 s, so the reference stops there."""
    platforms = {
        "paper_figure1": (generators.paper_figure1(), "P1"),
        "random_connected6": (generators.random_connected(6, seed=0), "R0"),
        "binary_tree2": (generators.binary_tree(2, seed=1), "T0"),
    }
    sizes = (8,) if smoke else (8, 10, 12)
    for n in sizes:
        platforms[f"random_connected{n}"] = (
            generators.random_connected(n, seed=7), "R0")
    out = {}
    certified_pivots = cold_pivots = 0
    certified_s = cold_s = 0.0
    for name, (platform, source) in platforms.items():
        lp, _handles = build_broadcast_lp(platform, source)
        cert = SimplexInstance(lp)
        start = time.perf_counter()
        cert_sol = cert.solve(propose=scipy_backend.propose_basis)
        cert_elapsed = time.perf_counter() - start
        cold = SimplexInstance(lp)
        start = time.perf_counter()
        cold_sol = cold.solve()
        cold_elapsed = time.perf_counter() - start
        assert cert_sol.objective == cold_sol.objective, name
        phases = {ph["phase"]: ph["duration_seconds"] * 1e3
                  for ph in cert.last_phases}
        out[name] = {
            "rows": len(lp.constraints),
            "columns": len(lp.variables),
            "objective": str(cold_sol.objective),
            "certified": cert.certified,
            "fallbacks": cert.fallbacks,
            "certified_pivots": cert.last_pivots,
            "cold_pivots": cold.last_pivots,
            "certified_ms": cert_elapsed * 1e3,
            "search_ms": phases.get("hint.search", 0.0),
            "certify_ms": phases.get("hint.certify", 0.0),
            "cold_ms": cold_elapsed * 1e3,
            "speedup": cold_elapsed / cert_elapsed,
        }
        certified_pivots += cert.last_pivots
        cold_pivots += cold.last_pivots
        certified_s += cert_elapsed
        cold_s += cold_elapsed
    fig1 = out["paper_figure1"]
    assert fig1["certified"] == 1 and fig1["certified_pivots"] == 0, (
        f"Figure 1 bound not certified on the proposed basis: {fig1}")
    assert certified_pivots * 10 <= cold_pivots, (
        f"certified solves took {certified_pivots} pivots, over 10% of "
        f"the cold solves' {cold_pivots}")
    out["total"] = {
        "certified_pivots": certified_pivots,
        "cold_pivots": cold_pivots,
        "certified_ms": certified_s * 1e3,
        "cold_ms": cold_s * 1e3,
        "speedup": cold_s / certified_s,
    }
    return out


# ----------------------------------------------------------------------
def run(smoke: bool = False) -> dict:
    return {
        "benchmark": "S7 revised simplex",
        "smoke": smoke,
        "cold_engines": bench_cold_engines(smoke),
        "warm_refactorisation": bench_warm_refactorisation(smoke),
        "certified_bounds": bench_certified_bounds(smoke),
    }


def test_s7_revised(capsys):
    """Pytest entry point (smoke mode; run the script for full numbers)."""
    report = run(smoke=True)
    with capsys.disabled():
        print("\n==== S7: revised simplex ====")
        print(json.dumps(report, indent=2))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="smaller rounds (CI smoke run)")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: repo-root "
                             "BENCH_revised.json)")
    args = parser.parse_args(argv)
    report = run(smoke=args.smoke)
    out = Path(args.out) if args.out else (
        Path(__file__).resolve().parent.parent / "BENCH_revised.json"
    )
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
