"""Tracing launcher: ``python perfbench/traced.py DUMP_DIR <repro cli args>``.

Wraps the public calls of each service layer in timing wrappers, then
hands off to ``repro.cli.main`` exactly as ``python -m repro`` would.  Only
the traced run loads this file; timed runs start the plain CLI.

Each wrapper pushes a frame on a per-thread stack, so a frame's *self*
time excludes the wrapped calls it made.  Totals are kept per process as
``name -> [calls, inclusive seconds, self seconds]`` plus plain counters.
On ``SIGUSR1`` the process writes its totals to
``DUMP_DIR/<pid>-<n>.json`` (atomically, via rename); the benchmark takes
one snapshot before and one after the timed phase and subtracts them.

A function imported by name into several modules is replaced in every
``repro`` module namespace that holds it (``sharding.result_from_wire``,
``transport.result_from_wire``, ...), so no call site escapes the wrapper.
"""
from __future__ import annotations

import functools
import json
import os
import signal
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List


class Recorder:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.frames: Dict[str, List[float]] = defaultdict(
            lambda: [0, 0.0, 0.0])
        self.counts: Dict[str, int] = defaultdict(int)
        self.probes: Dict[str, Callable[[], int]] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, inclusive: float, self_time: float) -> None:
        with self._lock:
            entry = self.frames[name]
            entry[0] += 1
            entry[1] += inclusive
            entry[2] += self_time

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def timed(self, name, fn: Callable, on_result=None) -> Callable:
        """Wrap ``fn`` as a frame.  ``name`` may be a callable of the
        call's arguments (to split one function into several frames);
        ``on_result(result, args)`` may count things about the result."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                label = name(*args, **kwargs) if callable(name) else name
                self.add(label, elapsed, elapsed - children)
            if on_result is not None:
                on_result(result, args)
            return result

        return wrapper

    def counted(self, fn: Callable, on_result) -> Callable:
        """Wrap ``fn`` to count things about its result, without a frame."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(result, args)
            return result

        return wrapper

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            out = {"pid": os.getpid(),
                   "frames": {k: list(v) for k, v in self.frames.items()},
                   "counts": dict(self.counts)}
        for key, probe in self.probes.items():
            try:
                out["counts"][key] = int(probe())
            except Exception:  # noqa: BLE001 — a probe must not kill a dump
                pass
        return out


def _replace_function(original: Callable, replacement: Callable) -> int:
    """Swap ``original`` for ``replacement`` in every loaded repro module."""
    swapped = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                swapped += 1
    return swapped


def _ping(message) -> bool:
    return isinstance(message, dict) and message.get("op") == "ping"


class _TimedLock:
    """Stands in for ``ShardServer.engine_lock``: counts the wait to
    acquire it (the shard's queueing time behind other connections)."""

    def __init__(self, lock, recorder: Recorder) -> None:
        self._lock = lock
        self._recorder = recorder

    def __enter__(self):
        start = time.perf_counter()
        self._lock.acquire()
        waited = time.perf_counter() - start
        self._recorder.add("transport.lock_wait", waited, waited)
        return self

    def __exit__(self, *exc) -> None:
        self._lock.release()


def install(rec: Recorder) -> None:
    """Patch the layer boundaries of the repro service."""
    from repro.lp import simplex
    from repro.problems import registry
    from repro.service import (api, broker, cache, fingerprint, incremental,
                               sharding, transport, wire)

    def swap(fn: Callable, replacement: Callable) -> None:
        if _replace_function(fn, replacement) == 0:
            raise RuntimeError(f"{fn.__qualname__} not found in any module")

    # --- api: HTTP routing, request decode, response encode ------------
    swap(api.route_post, rec.timed("api.route", api.route_post))
    swap(api.request_from_dict,
         rec.timed("api.decode", api.request_from_dict))
    swap(api.response_to_dict,
         rec.timed("api.encode", api.response_to_dict))
    swap(api._request_wire, rec.timed("api.reencode", api._request_wire))

    # --- fingerprint ----------------------------------------------------
    swap(fingerprint.request_fingerprint,
         rec.timed("fingerprint", fingerprint.request_fingerprint))

    # --- cache: near-cache and shard caches are both SolutionCache ------
    def cache_hit(result, _args):
        rec.count("cache.hits" if result is not None else "cache.misses")

    cache.SolutionCache.get = rec.timed("cache.get", cache.SolutionCache.get,
                                        on_result=cache_hit)
    cache.SolutionCache.put = rec.timed("cache.put", cache.SolutionCache.put)

    # --- sharding: ring routing, broker front, dispatch, near-cache -----
    sharding.HashRing.route = rec.timed("sharding.route",
                                        sharding.HashRing.route)

    def wrap_future(fut, _args):
        # the HTTP thread's wait for the dispatch thread: a frame, so the
        # wait is not counted as route_post self-time
        fut.result = rec.timed("sharding.wait", fut.result)

    sharding.ShardedBroker.submit = rec.timed(
        "sharding.submit", sharding.ShardedBroker.submit,
        on_result=wrap_future)
    sharding.ShardedBroker._transport_solve = rec.timed(
        "sharding.dispatch", sharding.ShardedBroker._transport_solve)

    def near_hit(result, _args):
        if result is not None:
            rec.count("sharding.near_hits")

    sharding.ShardedBroker._near_lookup = rec.counted(
        sharding.ShardedBroker._near_lookup, near_hit)
    broker_init = sharding.ShardedBroker.__init__

    @functools.wraps(broker_init)
    def sharded_init(self, *args, **kwargs):
        broker_init(self, *args, **kwargs)
        rec.probes["sharding.round_trips"] = lambda: self.ipc_round_trips

    sharding.ShardedBroker.__init__ = sharded_init

    # --- transport: round trip, shard-side handling, frames, lock -------
    transport.TcpTransport.request = rec.timed(
        lambda _self, message, *a, **k: (
            "transport.ping" if _ping(message) else "transport.request"),
        transport.TcpTransport.request)
    swap(transport.handle_shard_message, rec.timed(
        lambda _engine, message: (
            "transport.handle_ping" if _ping(message)
            else "transport.handle"),
        transport.handle_shard_message))
    encode_frame = transport.encode_frame

    @functools.wraps(encode_frame)
    def counted_frame(message):
        blob = encode_frame(message)
        if not (_ping(message) or message.get("pong")):
            rec.count("transport.bytes", len(blob))
        return blob

    swap(encode_frame, counted_frame)
    server_init = transport.ShardServer.__init__

    @functools.wraps(server_init)
    def shard_server_init(self, *args, **kwargs):
        server_init(self, *args, **kwargs)
        self.engine_lock = _TimedLock(self.engine_lock, rec)

    transport.ShardServer.__init__ = shard_server_init

    # --- wire: result codec ---------------------------------------------
    swap(wire.result_to_wire, rec.timed("wire.encode", wire.result_to_wire))
    swap(wire.result_from_wire,
         rec.timed("wire.decode", wire.result_from_wire))

    # --- broker: the shard's solve engine -------------------------------
    broker.SolveEngine.run = rec.timed("broker.engine",
                                       broker.SolveEngine.run)
    broker.SolveEngine._solve_cold = rec.timed("broker.solve",
                                               broker.SolveEngine._solve_cold)

    # --- incremental: warm re-solves ------------------------------------
    def warm_taken(result, _args):
        if result[1]:
            rec.count("incremental.warm")

    incremental.IncrementalSolver.solve_spec_ex = rec.timed(
        "incremental.solve", incremental.IncrementalSolver.solve_spec_ex,
        on_result=warm_taken)

    # --- problems: registry solve (LP assembly + packaging) -------------
    registry.SolverEntry.solve = rec.timed("problems.solve",
                                           registry.SolverEntry.solve)

    # --- lp: exact simplex ----------------------------------------------
    def lp_counts(solution, args):
        rec.count("lp.pivots", solution.pivots)
        rec.count("lp.refactorisations",
                  args[0].last_factor_stats.get("refactorisations", 0))

    simplex.SimplexInstance.solve = rec.timed(
        "lp.solve", simplex.SimplexInstance.solve, on_result=lp_counts)


def main(argv: List[str]) -> int:
    if len(argv) < 2:
        print("usage: traced.py DUMP_DIR <repro cli args>", file=sys.stderr)
        return 2
    dump_dir, cli_args = argv[0], argv[1:]
    rec = Recorder()
    install(rec)
    taken = [0]

    def dump(_signum, _frame) -> None:
        taken[0] += 1
        path = os.path.join(dump_dir, f"{os.getpid()}-{taken[0]}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(rec.snapshot(), handle)
        os.replace(path + ".tmp", path)

    signal.signal(signal.SIGUSR1, dump)
    from repro import cli

    return cli.main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
