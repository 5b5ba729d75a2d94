#!/usr/bin/env python3
"""Front-door benchmark of the repro scheduling service.

Starts the real deployment as subprocesses — ``repro serve --shards 0``
pointed at two ``repro shard-serve`` TCP backends, all other settings at
their defaults — drives it over loopback HTTP from this one process, and
checks every reply's throughput against an in-process unsharded broker.

    python3 perfbench/run.py --workload hit-zipf --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --self-test --seed 1

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` measures the
same workload once untraced and once under the tracing launcher
(``perfbench/traced.py``) and prints the per-layer metrics.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md`` for the
workloads and what each metric should move.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("hit-zipf", "drift", "warm-drift", "cold-trees", "mixed-open")
#: set-ups per timed run; ``setup_s`` is their median
SETUPS = 3
#: a closed loop's timed phase is cut into this many windows of equal
#: request count (whole stream cycles); the latency and throughput
#: metrics pool the faster half of them
WINDOWS = 8
#: ``mixed-open`` is invalid when more than this share of sends left
#: later than :data:`LAG_LIMIT_S` after they were due (client stalls)
LAG_LIMIT_S = 0.010
LAG_LIMIT_SHARE = 0.01
#: requests per workload in the counter self-test
SELF_TEST_REQUESTS = {"hit-zipf": 300, "drift": 100, "warm-drift": 70,
                      "cold-trees": 20}
#: batch size when priming over the ``batch`` op
PRIME_BATCH = 24
#: requests per second a closed loop is built for ahead of timing (well
#: above what the workload reaches; any beyond are built while timing)
AHEAD_RPS = {"drift": 120, "warm-drift": 250, "cold-trees": 50}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a wrong answer)."""


def _require_source() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"perfbench: no repro source tree under {ROOT}/src",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, os.path.join(ROOT, "src"))


_require_source()

import layers  # noqa: E402
import workloads as wl  # noqa: E402
from loadgen import Client, Record, closed_loop, open_loop  # noqa: E402
from oracle import Oracle  # noqa: E402
from stack import (SNAPSHOT_SIGNAL, Stack, StackError,  # noqa: E402
                   plain_launcher, traced_launcher)


# ----------------------------------------------------------------------
# plans: what a workload primes and sends
# ----------------------------------------------------------------------
@dataclass
class Plan:
    prime: List[bytes]
    stream: Optional[Iterator[wl.Item]] = None
    schedule: Optional[List[Tuple[float, wl.Item]]] = None
    known: List[wl.Item] = field(default_factory=list)
    info: Dict[str, object] = field(default_factory=dict)

    @property
    def open_loop(self) -> bool:
        return self.schedule is not None


def make_plan(name: str, seed: int, seconds: float) -> Plan:
    rng = random.Random(seed)
    info: Dict[str, object] = {"seed": seed}
    if name in ("hit-zipf", "mixed-open"):
        corpus = wl.make_corpus(rng)
        prime = wl.batch_bodies(corpus.items, PRIME_BATCH)
        info.update(corpus_requests=len(corpus.items),
                    corpus_platforms=len(corpus.platforms),
                    zipf_s=wl.ZIPF_S)
        if name == "mixed-open":
            warm = wl.warm_stream(rng)
            warm_prime = wl.warm_priming(warm)
            prime += wl.batch_bodies(warm_prime, PRIME_BATCH)
            info["warm_priming_requests"] = len(warm_prime)
        heat = [corpus.draw(rng) for _ in range(wl.HEAT_DRAWS)]
        prime += wl.batch_bodies(heat, 50)
        info["heat_draws"] = len(heat)
        if name == "hit-zipf":
            stream = iter(lambda: corpus.draw(rng), None)
            return Plan(prime, stream=stream, known=corpus.items,
                        info=info)
        schedule = wl.mixed_schedule(rng, corpus, warm, seconds)
        info.update(rate_rps=wl.MIXED_RATE, scheduled=len(schedule),
                    warm_share=wl.MIXED_WARM_SHARE,
                    invalidate_share=wl.MIXED_INVALIDATE_SHARE)
        return Plan(prime, schedule=schedule, known=corpus.items,
                    info=info)
    if name == "drift":
        # priming as for warm-drift plus cold-trees, from the same streams
        warm, cold = wl.warm_stream(rng), wl.cold_stream(rng)
        warm_prime = wl.warm_priming(warm)
        warmup = list(itertools.islice(cold, 2))
        info["warm_priming_requests"] = len(warm_prime)
        info["warm_per_cold"] = wl.DRIFT_WARM_PER_COLD
        return Plan(wl.batch_bodies(warm_prime, PRIME_BATCH)
                    + [item.body for item in warmup],
                    stream=_ahead(wl.drift_stream(warm, cold), name,
                                  seconds), info=info)
    if name == "warm-drift":
        # priming and the timed phase share one stream, so no timed
        # request repeats a primed one
        stream = wl.warm_stream(rng)
        warm_prime = wl.warm_priming(stream)
        info["warm_priming_requests"] = len(warm_prime)
        return Plan(wl.batch_bodies(warm_prime, PRIME_BATCH),
                    stream=_ahead(stream, name, seconds), info=info)
    if name == "cold-trees":
        # two tree packings take the first-request costs (lazy imports,
        # first shard connections) out of the timed phase
        stream = wl.cold_stream(rng)
        warmup = list(itertools.islice(stream, 2))
        return Plan([item.body for item in warmup],
                    stream=_ahead(stream, name, seconds), info=info)
    raise BenchError(f"unknown workload {name!r}")


def _ahead(stream: Iterator[wl.Item], name: str, seconds: float
           ) -> Iterator[wl.Item]:
    """Build the requests before timing, so encoding them is not part of
    the closed loop's time between requests."""
    built = list(itertools.islice(stream, int(AHEAD_RPS[name] * seconds)))
    return itertools.chain(built, stream)


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------
def prime(port: int, bodies: List[bytes]) -> None:
    client = Client(port)
    try:
        for body in bodies:
            status, data, error = client.post(body)
            if status != 200:
                raise BenchError(f"priming request failed: {status} {error}"
                                 f" {data[:300]!r}")
            reply = json.loads(data)
            results = reply.get("results", [reply])
            if not reply.get("ok") or not all(r.get("ok") for r in results):
                raise BenchError(f"priming reply not ok: {data[:300]!r}")
    finally:
        client.close()


def set_up(launcher: List[str], workdir: str, plan: Plan
           ) -> Tuple[Stack, float]:
    """Spawn the three servers, wait until they listen, prime; timed."""
    stack = Stack(ROOT, workdir, launcher)
    start = time.perf_counter()
    try:
        stack.start()
        prime(stack.port, plan.prime)
    except BaseException:
        stack.stop()
        raise
    return stack, time.perf_counter() - start


@dataclass
class Phase:
    records: List[Record]
    seconds: float
    cpu_seconds: float
    rss_mb: float
    lags: List[float]


def measure(stack: Stack, plan: Plan, seconds: float,
            limit: Optional[int] = None) -> Phase:
    cpu_before = stack.cpu_seconds()
    lags: List[float] = []
    if plan.open_loop:
        records, lags = open_loop(stack.port, plan.schedule)
    else:
        records = closed_loop(stack.port, plan.stream, seconds, limit)
    cpu = stack.cpu_seconds() - cpu_before
    if not records:
        raise BenchError("no request completed in the timed phase")
    span = max(r.done for r in records) - min(r.due for r in records)
    return Phase(records, span, cpu, stack.peak_rss_mb(), lags)


def check(oracle: Oracle, phase: Phase) -> List[str]:
    """Reference every reply (outside the timed phase); the failures."""
    oracle.prepare(r.item for r in phase.records)
    failures = []
    for record in phase.records:
        ok, why = oracle.check(record)
        if not ok:
            failures.append(why)
    return failures


def lag_report(phase: Phase) -> Tuple[bool, Dict[str, float]]:
    if not phase.lags:
        return True, {}
    late = sum(1 for lag in phase.lags if lag > LAG_LIMIT_S)
    ordered = sorted(phase.lags)
    info = {"lag_p50_ms": statistics.median(ordered) * 1e3,
            "lag_p99_ms": ordered[int(0.99 * (len(ordered) - 1))] * 1e3,
            "lag_max_ms": ordered[-1] * 1e3,
            "late_share": late / len(ordered)}
    return late / len(ordered) <= LAG_LIMIT_SHARE, info


def faster_half(phase: Phase, cycle: int) -> Tuple[List[Record], float]:
    """The requests of the :data:`WINDOWS` // 2 windows that took least
    time, and the time they took.

    Every window holds the same whole number of stream cycles, so the
    same mix.  A co-tenant's burst on a shared host stretches the windows
    it falls in, while a slower program stretches all of them.  An open
    loop, or a phase too short for one cycle per window, is read whole.
    """
    records = phase.records
    size = len(records) // (WINDOWS * cycle) * cycle
    if phase.lags or size == 0:
        return records, phase.seconds
    windows = [records[k * size:(k + 1) * size] for k in range(WINDOWS)]
    windows.sort(key=lambda w: w[-1].done - w[0].sent)
    kept = windows[:WINDOWS // 2]
    return ([r for w in kept for r in w],
            sum(w[-1].done - w[0].sent for w in kept))


def percentiles(records: List[Record]) -> Tuple[float, float]:
    """p50 and p90 of the records' latencies, in seconds."""
    latencies = sorted(r.latency for r in records)
    return (statistics.median(latencies),
            statistics.quantiles(latencies, n=10)[8])


def end_to_end(phase: Phase, setups: List[float], failed: int, cycle: int
               ) -> Tuple[Dict[str, float], Dict[str, object]]:
    sent = len(phase.records)
    ok_share = (sent - failed) / sent
    kept, seconds = faster_half(phase, cycle)
    p50, p90 = percentiles(kept)
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": p50 * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "throughput_rps": len(kept) * ok_share / seconds,
        "cpu_ms_per_request": phase.cpu_seconds * 1e3 / sent,
        "server_rss_mb": phase.rss_mb,
        "ops_ok_ratio": ok_share,
    }
    whole_p50, whole_p90 = percentiles(phase.records)
    extra = {"samples": len(kept),
             "beyond_p90": sum(1 for r in kept if r.latency > p90),
             "windows_kept": f"{len(kept)} of {sent} requests",
             "whole_run": {"latency_p50_ms": whole_p50 * 1e3,
                           "latency_p90_ms": whole_p90 * 1e3,
                           "throughput_rps": (sent - failed)
                           / phase.seconds},
             "setups_s": setups,
             "ops_failed_ratio": failed / sent}
    return metrics, extra


E2E_UNITS = {"setup_s": "s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
             "throughput_rps": "1/s", "cpu_ms_per_request": "ms",
             "server_rss_mb": "MB", "ops_ok_ratio": "ratio"}


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
class Run:
    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = os.path.join(ROOT, ".perfbench_run",
                                    f"{os.getpid()}-{workload}")
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.oracle = Oracle()
        self.stacks: List[Stack] = []

    def close(self) -> None:
        errors = []
        for stack in self.stacks:
            try:
                stack.stop()
            except StackError as exc:
                errors.append(str(exc))
        self.stacks = []
        self.oracle.close()
        shutil.rmtree(self.workdir, ignore_errors=True)
        parent = os.path.dirname(self.workdir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)
        if errors:
            raise StackError("; ".join(errors))

    def _stop(self, stack: Stack) -> None:
        self.stacks.remove(stack)
        stack.stop()

    def _plan(self) -> Plan:
        plan = make_plan(self.workload, self.seed, self.seconds)
        self.oracle.prepare(plan.known)  # corpus references, untimed
        return plan

    def _set_up(self, launcher: List[str], plan: Plan) -> Tuple[Stack, float]:
        stack, took = set_up(launcher, self.workdir, plan)
        self.stacks.append(stack)
        return stack, took

    def timed(self) -> dict:
        plan = self._plan()
        setups = []
        for attempt in range(SETUPS):
            stack, took = self._set_up(plain_launcher(), plan)
            setups.append(took)
            if attempt < SETUPS - 1:
                self._stop(stack)
        phase = measure(stack, plan, self.seconds)
        self._stop(stack)
        failures = check(self.oracle, phase)
        metrics, extra = end_to_end(phase, setups, len(failures),
                                    wl.CYCLES.get(self.workload, 1))
        lag_ok, lag = lag_report(phase)
        extra.update(lag)
        return self._result(plan, metrics, E2E_UNITS, phase, failures,
                            lag_ok, extra)

    def traced(self) -> dict:
        plan = self._plan()
        stack, _ = self._set_up(plain_launcher(), plan)
        plain = measure(stack, plan, self.seconds)
        self._stop(stack)
        failures = check(self.oracle, plain)

        plan = self._plan()
        phase, front, shards = self._traced_phase(plan, self.seconds)
        failures += check(self.oracle, phase)
        traced_mean = statistics.fmean(r.service for r in phase.records)
        # both phases sent the same sequence; compare over the requests
        # both completed, so a closed loop's cut-off cannot skew the mix
        common = min(len(plain.records), len(phase.records))
        plain_mean = statistics.fmean(
            r.service for r in plain.records[:common])
        overhead = statistics.fmean(
            r.service for r in phase.records[:common]) / plain_mean

        metrics, parts, n = layers.layer_metrics(front, shards, traced_mean)
        metrics["trace.overhead_ratio"] = overhead
        balanced, note = layers.reconcile(metrics["unattributed_us"], parts,
                                          traced_mean, plan.open_loop)
        lag_ok, lag = lag_report(phase)
        extra = {"samples": len(phase.records), "front_requests": n,
                 "reconciliation": note, "reconciled": balanced,
                 "untraced_mean_us": plain_mean * 1e6,
                 "traced_mean_us": traced_mean * 1e6,
                 "layer_shares_us": {k: round(v, 1)
                                     for k, v in parts.items()}, **lag}
        phase.records = plain.records + phase.records
        return self._result(plan, metrics, layers.UNITS, phase, failures,
                            lag_ok and balanced, extra)

    def counters(self, requests: int) -> Dict[str, float]:
        """The deterministic counter sheet over a fixed request count."""
        plan = self._plan()
        phase, front, shards = self._traced_phase(plan, 3600.0, requests)
        failures = check(self.oracle, phase)
        if failures:
            raise BenchError(f"{len(failures)} wrong replies: {failures[:3]}")
        metrics, _, _ = layers.layer_metrics(front, shards, 0.0)
        return {k: metrics[k] for k in layers.COUNTERS}

    def _traced_phase(self, plan: Plan, seconds: float,
                      limit: Optional[int] = None
                      ) -> Tuple[Phase, dict, dict]:
        """A timed phase on the traced stack, with the front door's and
        the two shards' frame totals over exactly that phase."""
        dumps = os.path.join(self.workdir, "dumps")
        os.makedirs(dumps, exist_ok=True)
        stack, _ = self._set_up(traced_launcher(ROOT, dumps), plan)
        before = snapshot(stack, dumps, 1)
        phase = measure(stack, plan, seconds, limit)
        after = snapshot(stack, dumps, 2)
        self._stop(stack)
        totals = {pid: layers.delta(after[pid], before[pid]) for pid in after}
        roles = {pid: after[pid]["role"] for pid in after}
        front = [totals[p] for p in totals if roles[p] == "front"]
        shards = [totals[p] for p in totals if roles[p].startswith("shard")]
        return phase, front[0], layers.merge(shards)

    def _result(self, plan: Plan, metrics: Dict[str, float],
                units: Dict[str, str], phase: Phase, failures: List[str],
                valid: bool, extra: Dict[str, object]) -> dict:
        sent = len(phase.records)
        return {
            "workload": self.workload,
            "info": {**plan.info, **extra, "sent": sent,
                     "succeeded": sent - len(failures),
                     "failed": len(failures),
                     "first_failures": failures[:5], "valid": valid},
            "correct": not failures and valid,
            "attempted": sent,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()},
        }


def snapshot(stack: Stack, dumps: str, index: int) -> Dict[int, dict]:
    """Ask every traced server for its totals; wait for the files."""
    stack.signal_all(SNAPSHOT_SIGNAL)
    paths = {s.pid: os.path.join(dumps, f"{s.pid}-{index}.json")
             for s in stack.servers}
    deadline = time.monotonic() + 30.0
    while not all(os.path.exists(p) for p in paths.values()):
        if time.monotonic() > deadline:
            raise BenchError("traced servers did not dump their totals")
        time.sleep(0.01)
    out = {}
    for server in stack.servers:
        with open(paths[server.pid], "r", encoding="utf-8") as handle:
            out[server.pid] = dict(json.load(handle), role=server.role)
    return out


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def print_report(result: dict) -> None:
    info = result["info"]
    print(f"== {result['workload']}  seed={info['seed']}  "
          f"sent={info['sent']} succeeded={info['succeeded']} "
          f"failed={info['failed']}  correct={result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"   {name:26s} {metric['value']:14.4f} {metric['unit']}")
    print("   info " + json.dumps(info, default=str))


def self_test(seed: int) -> int:
    """Two same-seed runs must give identical counter sheets."""
    ok = True
    for workload, requests in SELF_TEST_REQUESTS.items():
        sheets = []
        for _ in range(2):
            run = Run(workload, seed, 0)
            try:
                sheets.append(run.counters(requests))
            finally:
                run.close()
        same = sheets[0] == sheets[1]
        ok &= same
        print(f"{workload:11s} {'identical' if same else 'DIFFERENT'} "
              f"over {requests} requests")
        for key in layers.COUNTERS:
            print(f"   {key:22s} {sheets[0][key]:12.4f} {sheets[1][key]:12.4f}")
    print(json.dumps({"self_test": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that two same-seed runs give identical "
                             "deterministic counters, then exit")
    args = parser.parse_args(argv)
    # a terminated benchmark still stops its servers (the finally blocks)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.self_test:
        return self_test(args.seed)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        run = Run(name, args.seed, args.seconds)
        try:
            result = run.traced() if args.trace else run.timed()
        finally:
            run.close()
        print_report(result)
        results.append(result)
    if len(results) == 1:
        final = {k: results[0][k]
                 for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{r['workload']}.{k}": v for r in results
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, StackError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
