"""Exactness oracle: an in-process, unsharded ``Broker(executor="sync")``.

References are computed outside the timed phase.  A reply passes when it
is HTTP 200, ``ok``, and its throughput is the same ``Fraction`` as the
reference's.  Only objectives are compared, never per-variable values:
an LP may legitimately land on another optimal vertex.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, Iterable, Tuple

from repro.service.broker import Broker

from loadgen import Record
from workloads import Item


def _exact(value) -> object:
    text = str(value)
    return text if text == "inf" else Fraction(text)


class Oracle:
    def __init__(self) -> None:
        self.broker = Broker(executor="sync")
        self.expected: Dict[str, object] = {}

    def prepare(self, items: Iterable[Item]) -> None:
        for item in items:
            if item.kind == "solve" and item.key not in self.expected:
                result = self.broker.solve(item.request)
                self.expected[item.key] = _exact(result.throughput)

    def check(self, record: Record) -> Tuple[bool, str]:
        if record.status is None:
            return False, record.error
        if record.status != 200:
            return False, f"HTTP {record.status}"
        try:
            reply = json.loads(record.body)
        except ValueError as exc:
            return False, f"undecodable reply: {exc}"
        if not reply.get("ok"):
            return False, f"not ok: {reply.get('error')}"
        if record.item.kind != "solve":
            return True, ""
        got = _exact(reply.get("throughput"))
        want = self.expected[record.item.key]
        if got != want:
            return False, f"throughput {got} != reference {want}"
        return True, ""

    def close(self) -> None:
        self.broker.close()
