"""Stateful differential test of the sharded broker.

A hypothesis rule-based state machine interleaves ``solve``, ``submit``,
``solve_batch``, ``invalidate_platform`` and ``clear`` over a small pool
of platforms, against a :class:`ShardedBroker` with hot-key replication
(R=2), a low hot threshold and the near-cache on, in thread mode and in
process mode.  An unsharded ``Broker(executor="sync")`` is the oracle.

Invariants checked after every step:

* every answer is ``Fraction``-identical to the oracle's;
* the first solve of a request on a platform after
  ``invalidate_platform(platform)`` (or ``clear()``) returns reports
  ``cached=False`` -- no replica and no near-cache entry survives the
  invalidation.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.platform import generators
from repro.service import Broker, ShardedBroker, SolveRequest
from repro.service.fingerprint import topology_signature

# star(2) and its re-weighted twin share a topology: invalidating one
# drops the other's entries too
_PLATFORMS = [
    (generators.star(2), "M"),
    (generators.star(2, master_w=3), "M"),
    (generators.star(3, master_w=2), "M"),
    (generators.chain(3), "N0"),
]
_REQUESTS = [
    request
    for platform, root in _PLATFORMS
    for request in (
        SolveRequest(problem="master-slave", platform=platform,
                     master=root),
        SolveRequest(problem="broadcast", platform=platform, source=root),
    )
]
_TOPOLOGY = [topology_signature(r.platform) for r in _REQUESTS]

_ORACLE: dict = {}


def _oracle(index: int):
    if index not in _ORACLE:
        with Broker(executor="sync") as broker:
            _ORACLE[index] = broker.solve(_REQUESTS[index])
    return _ORACLE[index]


_request_index = st.integers(0, len(_REQUESTS) - 1)
_platform_index = st.integers(0, len(_PLATFORMS) - 1)


class _ShardedVsOracle(RuleBasedStateMachine):
    mode = "thread"

    def __init__(self) -> None:
        super().__init__()
        self.sharded = None
        # requests whose next answer must be a fresh (uncached) solve
        self.must_miss: set = set()
        self.errors: list = []

    @initialize()
    def start(self) -> None:
        self.sharded = ShardedBroker(
            shards=2, shard_mode=self.mode, replication_factor=2,
            hot_threshold=2, near_cache_size=8, health_interval=0)

    def teardown(self) -> None:
        if self.sharded is not None:
            self.sharded.close()

    # ------------------------------------------------------------------
    def _check(self, index: int, results) -> None:
        """``results`` answer one request: a single call, or every copy
        of it in one batch (copies solve concurrently, so any of them may
        be the fresh solve the others then hit)."""
        reference = _oracle(index)
        for result in results:
            got = result.throughput
            if not (isinstance(got, Fraction)
                    and got == reference.throughput
                    and result.fingerprint == reference.fingerprint):
                self.errors.append(
                    f"request {index}: {got!r} != {reference.throughput!r}")
        if index in self.must_miss:
            if all(result.cached for result in results):
                self.errors.append(
                    f"request {index}: cached answer after invalidation")
            self.must_miss.discard(index)

    @rule(index=_request_index)
    def solve(self, index: int) -> None:
        self._check(index, [self.sharded.solve(_REQUESTS[index])])

    @rule(index=_request_index)
    def submit(self, index: int) -> None:
        self._check(index,
                    [self.sharded.submit(_REQUESTS[index]).result(60)])

    @rule(indices=st.lists(_request_index, min_size=1, max_size=5))
    def solve_batch(self, indices) -> None:
        results = self.sharded.solve_batch([_REQUESTS[i] for i in indices])
        for index in sorted(set(indices)):
            self._check(index, [result for i, result in zip(indices, results)
                                if i == index])

    @rule(platform=_platform_index)
    def invalidate_platform(self, platform: int) -> None:
        self.sharded.invalidate_platform(_PLATFORMS[platform][0])
        topo = topology_signature(_PLATFORMS[platform][0])
        self.must_miss.update(i for i, t in enumerate(_TOPOLOGY)
                              if t == topo)

    @rule()
    def clear(self) -> None:
        self.sharded.clear()
        self.must_miss.update(range(len(_REQUESTS)))

    @invariant()
    def answers_match_the_oracle(self) -> None:
        assert not self.errors, self.errors


class _ThreadMachine(_ShardedVsOracle):
    mode = "thread"


class _ProcessMachine(_ShardedVsOracle):
    mode = "process"


_SETTINGS = dict(deadline=None, stateful_step_count=20,
                 suppress_health_check=[HealthCheck.too_slow])

TestThreadShardsMatchOracle = _ThreadMachine.TestCase
TestThreadShardsMatchOracle.settings = settings(max_examples=60,
                                                **_SETTINGS)
TestProcessShardsMatchOracle = _ProcessMachine.TestCase
TestProcessShardsMatchOracle.settings = settings(max_examples=30,
                                                 **_SETTINGS)
