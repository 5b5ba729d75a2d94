"""Seeded request generation for the five traffic mixes.

Everything a run sends is drawn from ``random.Random(seed)``: the corpus,
every weight draw and the ``mixed-open`` arrival schedule.  The servers
only ever see the generated JSON bodies.

Platforms are built from a fixed *topology* plus freshly drawn integer
weights.  Corpus platforms get node names unique to the platform, so each
has a topology of its own: an ``invalidate`` (which drops every weight
variant of a topology) then removes exactly one corpus platform's entries,
and never the fixed topologies the warm and cold mixes redraw.
"""
from __future__ import annotations

import bisect
import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.platform import generators
from repro.platform.graph import Platform
from repro.platform.serialization import platform_to_dict
from repro.problems import (BroadcastSpec, MasterSlaveSpec, ReduceSpec,
                            ScatterSpec)
from repro.service.api import request_to_dict
from repro.service.broker import SolveRequest

#: distinct requests in the hit corpus: more than the front door's
#: 64-entry near-cache, fewer than the two 256-entry shard caches hold
CORPUS_SIZE = 240
#: Zipf exponent of the corpus draws (rank r has weight r ** -s)
ZIPF_S = 1.0
#: corpus draws sent (in batches) after priming, so the hot keys are
#: hot before timing starts
HEAT_DRAWS = 800
#: ``mixed-open`` arrival rate, requests per second (Poisson arrivals)
MIXED_RATE = 100.0
#: ``mixed-open`` request shares; the rest are corpus (hit) draws
MIXED_WARM_SHARE = 0.20
MIXED_INVALIDATE_SHARE = 0.02
#: weight redraws per (topology, problem) when priming warm models, so
#: both shards hold every warm model before timing
WARM_PRIME_DRAWS = 8
#: ``drift`` warm re-solves per cold tree packing
DRIFT_WARM_PER_COLD = 4


@dataclass
class Item:
    """One request body plus what the oracle needs to check its reply."""

    kind: str  # "solve" or "invalidate"
    body: bytes
    request: Optional[SolveRequest] = None

    @property
    def key(self) -> str:
        return self.request.fingerprint() if self.request else ""


def _solve_item(spec) -> Item:
    request = SolveRequest.from_spec(spec)
    body = {"op": "solve", "request": request_to_dict(request)}
    return Item("solve", json.dumps(body).encode("utf-8"), request)


def _invalidate_item(platform: Platform) -> Item:
    body = {"op": "invalidate", "platform": platform_to_dict(platform)}
    return Item("invalidate", json.dumps(body).encode("utf-8"))


def batch_bodies(items: List[Item], size: int) -> List[bytes]:
    """Group solve items into ``batch`` op bodies (used only for priming)."""
    out = []
    for start in range(0, len(items), size):
        chunk = [json.loads(item.body)["request"]
                 for item in items[start:start + size]]
        out.append(json.dumps({"op": "batch", "requests": chunk})
                   .encode("utf-8"))
    return out


def reweight(topology: Platform, rng: random.Random,
             w: Tuple[int, int] = (1, 6), c: Tuple[int, int] = (1, 5),
             prefix: str = "") -> Platform:
    """The topology with fresh integer weights, node names prefixed."""
    out = Platform(topology.name)
    for node in topology.nodes():
        out.add_node(prefix + node, rng.randint(*w))
    for edge in topology.edges():
        out.add_edge(prefix + edge.src, prefix + edge.dst, rng.randint(*c))
    return out


# ----------------------------------------------------------------------
# hit corpus
# ----------------------------------------------------------------------
#: corpus topologies: (topology, root, scatter targets)
_CORPUS_SHAPES = [
    (generators.star(3), "M", ("W1", "W2", "W3")),
    (generators.star(4), "M", ("W1", "W2", "W3", "W4")),
    (generators.chain(3), "N0", ("N1", "N2")),
    (generators.chain(4), "N0", ("N2", "N3")),
    (generators.binary_tree(1), "T0", ("T1", "T2")),
]


@dataclass
class Corpus:
    items: List[Item]  # in Zipf rank order: items[0] is the hottest
    platforms: List[Platform]
    cdf: List[float]

    def draw(self, rng: random.Random) -> Item:
        return self.items[bisect.bisect_left(self.cdf, rng.random())]


def make_corpus(rng: random.Random) -> Corpus:
    """:data:`CORPUS_SIZE` distinct master-slave, scatter and broadcast
    requests.

    Each platform carries a master-slave and a scatter request; every
    other one also a broadcast, so the mix is 2:2:1.  Ranks interleave
    the three problems, so every seed's hot set has the same mix.
    """
    per_kind: Dict[str, List[Item]] = {"ms": [], "sc": [], "bc": []}
    platforms: List[Platform] = []
    index = 0
    while len(per_kind["ms"]) * 5 < CORPUS_SIZE * 2:
        topology, root, targets = _CORPUS_SHAPES[index % len(_CORPUS_SHAPES)]
        prefix = f"g{index}."
        platform = reweight(topology, rng, prefix=prefix)
        platforms.append(platform)
        per_kind["ms"].append(_solve_item(
            MasterSlaveSpec(platform=platform, master=prefix + root)))
        per_kind["sc"].append(_solve_item(ScatterSpec(
            platform=platform, source=prefix + root,
            targets=tuple(prefix + t for t in targets))))
        if index % 2 == 0:
            per_kind["bc"].append(_solve_item(
                BroadcastSpec(platform=platform, source=prefix + root)))
        index += 1
    for bucket in per_kind.values():
        rng.shuffle(bucket)
    pattern = ["ms", "sc", "bc", "ms", "sc"]
    cursors = {kind: iter(bucket) for kind, bucket in per_kind.items()}
    items = [next(cursors[pattern[rank % len(pattern)]])
             for rank in range(CORPUS_SIZE)]
    weights = list(itertools.accumulate(
        (rank + 1) ** -ZIPF_S for rank in range(CORPUS_SIZE)))
    cdf = [x / weights[-1] for x in weights]
    return Corpus(items, platforms, cdf)


# ----------------------------------------------------------------------
# warm drift: fixed topologies, fresh weights on every request
# ----------------------------------------------------------------------
_WARM_SLOTS: List[Tuple[Platform, Callable[[Platform], object]]] = [
    (generators.paper_figure1(),
     lambda p: MasterSlaveSpec(platform=p, master="P1")),
    (generators.star(5),
     lambda p: MasterSlaveSpec(platform=p, master="M")),
    (generators.star(5),
     lambda p: ScatterSpec(platform=p, source="M",
                           targets=("W1", "W2", "W3", "W4", "W5"))),
    (generators.star(8),
     lambda p: MasterSlaveSpec(platform=p, master="M")),
    (generators.binary_tree(2, seed=1),
     lambda p: MasterSlaveSpec(platform=p, master="T0")),
    (generators.binary_tree(2, seed=1),
     lambda p: ScatterSpec(platform=p, source="T0",
                           targets=("T3", "T4", "T5", "T6"))),
    (generators.star(4),
     lambda p: ScatterSpec(platform=p, source="M",
                           targets=("W1", "W2", "W3", "W4"))),
]


def _fresh(slots, rng: random.Random, **weights) -> Iterator[Item]:
    """Cycle the slots, redrawing all weights for every request until it
    is one the stream has not sent before (so none is a cache hit)."""
    seen = set()
    for topology, make in itertools.cycle(slots):
        item = _solve_item(make(reweight(topology, rng, **weights)))
        while item.key in seen:
            item = _solve_item(make(reweight(topology, rng, **weights)))
        seen.add(item.key)
        yield item


def warm_stream(rng: random.Random) -> Iterator[Item]:
    return _fresh(_WARM_SLOTS, rng)


def warm_priming(stream: Iterator[Item]) -> List[Item]:
    """The stream's next :data:`WARM_PRIME_DRAWS` cycles."""
    return list(itertools.islice(stream,
                                 WARM_PRIME_DRAWS * len(_WARM_SLOTS)))


# ----------------------------------------------------------------------
# cold trees: broadcast / reduce tree packing, fresh weights each time
# ----------------------------------------------------------------------
def _bcast(root):
    return lambda p: BroadcastSpec(platform=p, source=root)


def _reduce(root):
    return lambda p: ReduceSpec(platform=p, root=root)


def _spread(counts):
    """One cycle holding each slot ``n`` times, every slot's copies
    spread evenly over the cycle (so a run cut mid-cycle keeps the mix)."""
    keyed = [((i + 0.5) / n, order, slot)
             for order, (slot, n) in enumerate(counts) for i in range(n)]
    return [slot for _, _, slot in sorted(keyed, key=lambda k: k[:2])]


#: One 50-request cycle of (topology, spec maker) pairs.  The
#: three costly packings (Figure 1, random_connected(6), binary_tree(2))
#: are 6% of requests, so p90 falls inside the steady chain(7) reductions
#: (6%..18% from the top) and p50 in the middle of the chain(5) reductions
#: (34%..66%): each percentile sits in one homogeneous cluster.
_COLD_SLOTS = _spread([
    ((generators.paper_figure1(), _bcast("P1")), 1),
    ((generators.random_connected(6, seed=0), _reduce("R0")), 1),
    ((generators.binary_tree(2, seed=1), _bcast("T0")), 1),
    ((generators.chain(7), _reduce("N6")), 6),
    ((generators.chain(6), _reduce("N5")), 8),
    ((generators.chain(5), _reduce("N4")), 16),
    ((generators.chain(4), _bcast("N0")), 8),
    ((generators.chain(4), _reduce("N3")), 9),
])


def cold_stream(rng: random.Random) -> Iterator[Item]:
    return _fresh(_COLD_SLOTS, rng, w=(1, 4), c=(1, 4))


#: requests in one full cycle of each closed-loop stream (a stream's mix
#: is exact over any whole number of cycles)
CYCLES = {"hit-zipf": 1, "warm-drift": len(_WARM_SLOTS),
          "cold-trees": len(_COLD_SLOTS),
          "drift": (DRIFT_WARM_PER_COLD + 1) * len(_COLD_SLOTS)}


# ----------------------------------------------------------------------
# drift: the warm and the cold stream interleaved
# ----------------------------------------------------------------------
def drift_stream(warm: Iterator[Item], cold: Iterator[Item]
                 ) -> Iterator[Item]:
    """:data:`DRIFT_WARM_PER_COLD` warm re-solves, then one cold tree
    packing, repeated.  Warm requests are four in five, so p50 reads the
    warm re-solves and p90 the middle of the cold packings."""
    while True:
        yield from itertools.islice(warm, DRIFT_WARM_PER_COLD)
        yield next(cold)


# ----------------------------------------------------------------------
# the open-loop mix
# ----------------------------------------------------------------------
def mixed_schedule(rng: random.Random, corpus: Corpus,
                   warm: Iterator[Item], seconds: float,
                   ) -> List[Tuple[float, Item]]:
    """Poisson arrivals at :data:`MIXED_RATE` over ``seconds``: corpus
    draws, requests from the ``warm`` stream and a few corpus-platform
    invalidations."""
    out: List[Tuple[float, Item]] = []
    due = 0.0
    while True:
        due += rng.expovariate(MIXED_RATE)
        if due >= seconds:
            return out
        u = rng.random()
        if u < MIXED_INVALIDATE_SHARE:
            item = _invalidate_item(rng.choice(corpus.platforms))
        elif u < MIXED_INVALIDATE_SHARE + MIXED_WARM_SHARE:
            item = next(warm)
        else:
            item = corpus.draw(rng)
        out.append((due, item))
