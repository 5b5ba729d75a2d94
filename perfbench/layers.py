"""Per-layer metrics from the traced servers' frame totals.

Input: for the front door and for the two shards, the difference between
the snapshot taken after the timed phase and the one taken before it.
Times are self-times in microseconds per front-door request, except the
``per solve`` ones, which divide by the shard engine's cold/warm solves.

Two layers are measured as differences, as their boundary is a process
edge: ``api.http_us`` is client latency minus the front door's
``route_post`` (HTTP parsing, sockets, the client), and
``transport.self_us`` is the front door's round trip minus the shard's
``handle_shard_message`` (framing, loopback, the shard's socket loop and
its engine-lock wait, also reported alone as ``transport.lock_wait_us``).
Everything else is a wrapped call's own self-time.  The HTTP thread's
wait for the shard dispatch thread is left out of the sum (the dispatch
thread's frames cover that time), so the hand-off between the two
threads, and any wait in the per-shard dispatch queue, is what
``unattributed_us`` mostly holds; ``sharding.queue_us`` reports that
wait on its own.
"""
from __future__ import annotations

from typing import Dict, List, Tuple

Snapshot = Dict[str, dict]

#: |unattributed| may be at most this share of the mean latency, or this
#: many microseconds, whichever is larger; beyond it a layer is unmeasured
TOLERANCE_SHARE = 0.10
TOLERANCE_FLOOR_US = 100.0
#: open loop: two requests overlap, so self-times of one can run while
#: the other waits on a lock or the interpreter; a wider tolerance
TOLERANCE_SHARE_OPEN = 0.20

#: layers summed into the reconciliation (per-request self-times)
SUMMED = (
    "api.http_us", "api.route_us", "api.decode_us", "api.encode_us",
    "api.reencode_us", "fingerprint.us", "cache.get_us", "cache.put_us",
    "sharding.broker_us", "sharding.route_us", "transport.self_us",
    "transport.handler_us", "wire.encode_us", "wire.decode_us",
    "broker.engine_us", "incremental.warm_us",
)
#: per-solve layers, scaled back to per request for the sum
SUMMED_PER_SOLVE = ("problems.build_us", "lp.solve_us")

#: every per-layer metric, with its unit, in report order
UNITS = {
    "api.http_us": "us", "api.route_us": "us", "api.decode_us": "us",
    "api.decode_calls": "count", "api.encode_us": "us",
    "api.reencode_us": "us", "fingerprint.us": "us",
    "fingerprint.calls": "count", "cache.get_us": "us",
    "cache.put_us": "us", "cache.hit_ratio": "ratio", "cache.puts": "count",
    "sharding.broker_us": "us", "sharding.route_us": "us",
    "sharding.queue_us": "us",
    "sharding.near_hit_ratio": "ratio", "sharding.round_trips": "count",
    "transport.rtt_us": "us", "transport.self_us": "us",
    "transport.handler_us": "us", "transport.bytes": "bytes",
    "transport.lock_wait_us": "us", "wire.encode_us": "us",
    "wire.decode_us": "us", "wire.calls": "count", "broker.engine_us": "us",
    "incremental.warm_us": "us", "incremental.warm_ratio": "ratio",
    "problems.build_us": "us", "lp.solve_us": "us", "lp.pivots": "count",
    "lp.refactorisations": "count", "unattributed_us": "us",
    "trace.overhead_ratio": "ratio",
}

#: the deterministic counter sheet (identical for identical inputs)
COUNTERS = ("api.decode_calls", "fingerprint.calls", "wire.calls",
            "sharding.round_trips", "cache.puts", "lp.pivots",
            "lp.refactorisations")


def delta(after: Snapshot, before: Snapshot) -> Snapshot:
    frames = {}
    for name, (calls, incl, own) in after["frames"].items():
        b = before["frames"].get(name, [0, 0.0, 0.0])
        frames[name] = [calls - b[0], incl - b[1], own - b[2]]
    counts = {name: value - before["counts"].get(name, 0)
              for name, value in after["counts"].items()}
    return {"frames": frames, "counts": counts}


def merge(snaps: List[Snapshot]) -> Snapshot:
    frames: Dict[str, list] = {}
    counts: Dict[str, int] = {}
    for snap in snaps:
        for name, values in snap["frames"].items():
            acc = frames.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += values[i]
        for name, value in snap["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return {"frames": frames, "counts": counts}


class _View:
    def __init__(self, snap: Snapshot) -> None:
        self.snap = snap

    def calls(self, name: str) -> int:
        return self.snap["frames"].get(name, [0, 0.0, 0.0])[0]

    def incl(self, name: str) -> float:
        return self.snap["frames"].get(name, [0, 0.0, 0.0])[1]

    def own(self, name: str) -> float:
        return self.snap["frames"].get(name, [0, 0.0, 0.0])[2]

    def count(self, name: str) -> int:
        return self.snap["counts"].get(name, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(front: Snapshot, shards: Snapshot,
                  mean_latency_s: float,
                  ) -> Tuple[Dict[str, float], Dict[str, float], int]:
    """Per-layer metrics (everything but ``trace.overhead_ratio``), each
    summed layer's share of a mean request in microseconds, and the
    number of front-door requests they are averaged over."""
    f, s, both = _View(front), _View(shards), _View(merge([front, shards]))
    n = f.calls("api.route")
    solves = s.calls("broker.solve")

    def per_req_us(seconds: float) -> float:
        return _ratio(seconds * 1e6, n)

    def per_solve_us(seconds: float) -> float:
        return _ratio(seconds * 1e6, solves)

    m: Dict[str, float] = {}
    m["api.http_us"] = mean_latency_s * 1e6 - per_req_us(f.incl("api.route"))
    m["api.route_us"] = per_req_us(f.own("api.route"))
    m["api.decode_us"] = per_req_us(both.own("api.decode"))
    m["api.decode_calls"] = _ratio(both.calls("api.decode"), n)
    m["api.encode_us"] = per_req_us(f.own("api.encode"))
    m["api.reencode_us"] = per_req_us(f.own("api.reencode"))
    m["fingerprint.us"] = per_req_us(both.own("fingerprint"))
    m["fingerprint.calls"] = _ratio(both.calls("fingerprint"), n)
    m["cache.get_us"] = per_req_us(both.own("cache.get"))
    m["cache.put_us"] = per_req_us(both.own("cache.put"))
    hits = both.count("cache.hits")
    m["cache.hit_ratio"] = _ratio(hits, hits + both.count("cache.misses"))
    m["cache.puts"] = _ratio(both.calls("cache.put"), n)
    m["sharding.broker_us"] = per_req_us(f.own("sharding.submit")
                                         + f.own("sharding.dispatch"))
    m["sharding.route_us"] = per_req_us(both.own("sharding.route"))
    # time an HTTP thread waited beyond the dispatch thread's work: the
    # per-shard dispatch queue plus the thread hand-off.  Reported, not
    # summed, so it explains the unattributed gap instead of hiding it
    m["sharding.queue_us"] = per_req_us(f.incl("sharding.wait")
                                        - f.incl("sharding.dispatch"))
    m["sharding.near_hit_ratio"] = _ratio(f.count("sharding.near_hits"), n)
    m["sharding.round_trips"] = _ratio(f.count("sharding.round_trips"), n)
    m["transport.rtt_us"] = per_req_us(f.incl("transport.request"))
    m["transport.self_us"] = per_req_us(f.incl("transport.request")
                                        - s.incl("transport.handle"))
    m["transport.handler_us"] = per_req_us(s.own("transport.handle"))
    m["transport.bytes"] = _ratio(both.count("transport.bytes"), n)
    m["transport.lock_wait_us"] = per_req_us(s.own("transport.lock_wait"))
    m["wire.encode_us"] = per_req_us(both.own("wire.encode"))
    m["wire.decode_us"] = per_req_us(both.own("wire.decode"))
    m["wire.calls"] = _ratio(both.calls("wire.encode")
                             + both.calls("wire.decode"), n)
    m["broker.engine_us"] = per_req_us(s.own("broker.engine")
                                       + s.own("broker.solve"))
    m["incremental.warm_us"] = per_req_us(s.own("incremental.solve"))
    m["incremental.warm_ratio"] = _ratio(s.count("incremental.warm"),
                                         s.calls("incremental.solve"))
    m["problems.build_us"] = per_solve_us(s.own("problems.solve"))
    m["lp.solve_us"] = per_solve_us(s.own("lp.solve"))
    m["lp.pivots"] = _ratio(s.count("lp.pivots"), solves)
    m["lp.refactorisations"] = _ratio(s.count("lp.refactorisations"), solves)
    parts = {k: m[k] for k in SUMMED}
    parts.update({k: _ratio(solves, n) * m[k] for k in SUMMED_PER_SOLVE})
    m["unattributed_us"] = mean_latency_s * 1e6 - sum(parts.values())
    return m, parts, n


def reconcile(unattributed_us: float, parts: Dict[str, float],
              mean_latency_s: float, open_loop: bool) -> Tuple[bool, str]:
    """Whether the layers account for the latency; names the largest."""
    share = TOLERANCE_SHARE_OPEN if open_loop else TOLERANCE_SHARE
    limit = max(share * mean_latency_s * 1e6, TOLERANCE_FLOOR_US)
    largest = max(parts, key=lambda k: parts[k])
    note = (f"unattributed {unattributed_us:.1f} us of "
            f"{mean_latency_s * 1e6:.1f} us mean (limit +-{limit:.1f} us); "
            f"largest layer {largest} = {parts[largest]:.1f} us/request")
    return abs(unattributed_us) <= limit, note
