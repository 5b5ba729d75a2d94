"""HTTP load from one client process: a closed loop on one connection and
an open loop on two.

The threaded front door answers HTTP/1.0 and closes every connection
after its reply, so ``http.client`` reconnects transparently per request;
the connection count is still the number of requests in flight.
"""
from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from workloads import Item

HEADERS = {"Content-Type": "application/json"}
REQUEST_TIMEOUT = 60.0
#: connections (requests in flight) of the open loop
OPEN_CONNECTIONS = 2


@dataclass
class Record:
    item: Item
    due: float  # when the request was due (== sent for a closed loop)
    sent: float
    done: float
    status: Optional[int]  # None: transport error or timeout
    body: bytes = b""
    error: str = ""

    @property
    def latency(self) -> float:
        """Client-observed latency, timed from the due time."""
        return self.done - self.due

    @property
    def service(self) -> float:
        """Time from sending to the complete reply."""
        return self.done - self.sent


class Client:
    """One HTTP connection to the front door."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=REQUEST_TIMEOUT)

    def post(self, body: bytes) -> Tuple[Optional[int], bytes, str]:
        try:
            self.conn.request("POST", "/api", body, HEADERS)
            response = self.conn.getresponse()
            return response.status, response.read(), ""
        except (OSError, http.client.HTTPException) as exc:
            self.conn.close()
            return None, b"", f"{type(exc).__name__}: {exc}"

    def close(self) -> None:
        self.conn.close()


def closed_loop(port: int, items: Iterator[Item], seconds: float,
                limit: Optional[int] = None) -> List[Record]:
    """Send the next request only after the previous reply, until
    ``seconds`` pass (or ``limit`` requests were sent)."""
    client = Client(port)
    clock = time.perf_counter
    records: List[Record] = []
    deadline = clock() + seconds
    try:
        for item in items:
            if clock() >= deadline or (limit is not None
                                       and len(records) >= limit):
                break
            sent = clock()
            status, body, error = client.post(item.body)
            records.append(Record(item, sent, sent, clock(), status, body,
                                  error))
    finally:
        client.close()
    return records


def open_loop(port: int, schedule: List[Tuple[float, Item]]
              ) -> Tuple[List[Record], List[float]]:
    """Send each request at its due time on whichever of the
    :data:`OPEN_CONNECTIONS` is free; returns the records and the
    generator lag of every send.

    Lag is how late a send left *after* both its due time and the moment
    a connection was free to take it, so it measures the client, not the
    server's backlog.
    """
    clock = time.perf_counter
    lock = threading.Lock()
    cursor = [0]
    records: List[Optional[Record]] = [None] * len(schedule)
    lags: List[float] = [0.0] * len(schedule)
    start = clock() + 0.05

    def worker() -> None:
        client = Client(port)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(schedule):
                    return
                offset, item = schedule[index]
                due = start + offset
                free = clock()
                if free < due:
                    time.sleep(due - free)
                sent = clock()
                lags[index] = sent - max(due, free)
                status, body, error = client.post(item.body)
                records[index] = Record(item, due, sent, clock(), status,
                                        body, error)
        finally:
            client.close()

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(OPEN_CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [r for r in records if r is not None], lags
