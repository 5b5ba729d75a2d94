"""The deployment under test: one ``repro serve`` front door in front of two
``repro shard-serve`` TCP backends, each its own process.

Ports are picked free by binding port 0 just before the servers start,
so the three servers can start at once; a server that loses its port to
a racing process fails to start, and the stack is then started afresh.
CPU and peak RSS come from ``/proc`` for exactly the spawned PIDs; servers
are stopped by PID (never by matching command lines), and ``stop`` checks
that no spawned process and no listening port outlives the stack.
"""
from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
import time
from typing import Dict, List, Optional

_LISTEN = re.compile(r"listening on (?:tcp|http)://([\d.]+):(\d+)")
#: attempts at starting the stack when a picked port was taken meanwhile
START_ATTEMPTS = 3
_CLK_TCK = os.sysconf("SC_CLK_TCK")
READY_TIMEOUT = 60.0
STOP_TIMEOUT = 10.0


class StackError(RuntimeError):
    pass


class Server:
    """One spawned server process whose stdout/stderr go to files."""

    def __init__(self, role: str, argv: List[str], env: Dict[str, str],
                 workdir: str, cwd: str) -> None:
        self.role = role
        self.out_path = os.path.join(workdir, f"{role}.out")
        self.err_path = os.path.join(workdir, f"{role}.err")
        with open(self.out_path, "wb") as out, \
                open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                         stdin=subprocess.DEVNULL,
                                         env=env, cwd=cwd)
        self.pid = self.proc.pid
        self.port: Optional[int] = None

    def poll_ready(self) -> bool:
        """True once the listening line is out; raises if the process died."""
        if self.port is not None:
            return True
        with open(self.out_path, "r", encoding="utf-8",
                  errors="replace") as handle:
            match = _LISTEN.search(handle.read())
        if match:
            self.port = int(match.group(2))
            return True
        if self.proc.poll() is not None:
            raise StackError(f"{self.role} exited with {self.proc.returncode}"
                             f" before listening:\n{self.stderr_tail()}")
        return False

    def stderr_tail(self, limit: int = 2000) -> str:
        try:
            with open(self.err_path, "r", encoding="utf-8",
                      errors="replace") as handle:
                return handle.read()[-limit:]
        except OSError:
            return ""

    def cpu_seconds(self) -> float:
        """User + system CPU of the process (all its threads) so far."""
        with open(f"/proc/{self.pid}/stat", "r") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        # fields[0] is the state (field 3); utime/stime are fields 14/15
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status", "r") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise StackError(f"no VmHWM for {self.role} (pid {self.pid})")

    def signal(self, signum: int) -> None:
        if self.proc.poll() is None:
            os.kill(self.pid, signum)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=STOP_TIMEOUT)


def _free_ports(count: int) -> List[int]:
    """Ports the kernel hands out for binds to port 0 right now."""
    socks = [socket.socket(socket.AF_INET, socket.SOCK_STREAM)
             for _ in range(count)]
    try:
        for sock in socks:
            sock.bind(("127.0.0.1", 0))
        return [sock.getsockname()[1] for sock in socks]
    finally:
        for sock in socks:
            sock.close()


def _listening_ports() -> set:
    """Local TCP ports in LISTEN state, from /proc/net/tcp{,6}."""
    ports = set()
    for path in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(path, "r") as handle:
                next(handle)
                for line in handle:
                    parts = line.split()
                    if parts[3] == "0A":
                        ports.add(int(parts[1].rsplit(":", 1)[1], 16))
        except OSError:
            continue
    return ports


class Stack:
    """Front door + two TCP shards.

    ``launcher`` is the argv prefix that runs ``repro.cli`` — plain
    ``python -m repro`` for timed runs, the tracing launcher for the
    traced run.  Only ``--port``, ``--shards 0`` and ``--shard`` are
    passed; every other server setting stays at its default.
    """

    def __init__(self, root: str, workdir: str, launcher: List[str]) -> None:
        self.root = root
        self.workdir = workdir
        self.launcher = launcher
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.env["PYTHONUNBUFFERED"] = "1"
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.servers: List[Server] = []
        self.front: Optional[Server] = None

    def _spawn(self, role: str, args: List[str]) -> Server:
        server = Server(role, self.launcher + args, self.env, self.workdir,
                        self.root)
        self.servers.append(server)
        return server

    def _wait_ready(self, servers: List[Server]) -> None:
        deadline = time.monotonic() + READY_TIMEOUT
        while not all(s.poll_ready() for s in servers):
            if time.monotonic() > deadline:
                raise StackError("servers not listening within "
                                 f"{READY_TIMEOUT}s")
            time.sleep(0.005)

    def start(self) -> None:
        """Spawn both shards and the front door pointed at them, at once."""
        for attempt in range(START_ATTEMPTS):
            front, shard0, shard1 = _free_ports(3)
            args = ["serve", "--port", str(front), "--shards", "0",
                    "--shard", f"127.0.0.1:{shard0}",
                    "--shard", f"127.0.0.1:{shard1}"]
            for index, port in enumerate((shard0, shard1)):
                self._spawn(f"shard{index}",
                            ["shard-serve", "--port", str(port)])
            self.front = self._spawn("front", args)
            try:
                self._wait_ready(self.servers)
                return
            except StackError:
                self.stop()
                if attempt == START_ATTEMPTS - 1:
                    raise

    @property
    def port(self) -> int:
        assert self.front is not None and self.front.port is not None
        return self.front.port

    def cpu_seconds(self) -> float:
        return sum(s.cpu_seconds() for s in self.servers)

    def peak_rss_mb(self) -> float:
        return sum(s.peak_rss_mb() for s in self.servers)

    def signal_all(self, signum: int) -> None:
        for server in self.servers:
            server.signal(signum)

    def stop(self) -> None:
        """Stop every server by PID and prove nothing outlived the stack."""
        ports = {s.port for s in self.servers if s.port is not None}
        # front door first, so it never sees its shards vanish mid-request
        for server in reversed(self.servers):
            server.stop()
        alive = [s.role for s in self.servers if s.proc.poll() is None
                 or os.path.exists(f"/proc/{s.pid}")]
        if alive:
            raise StackError(f"server processes outlived the stack: {alive}")
        deadline = time.monotonic() + STOP_TIMEOUT
        while ports & _listening_ports():
            if time.monotonic() > deadline:
                raise StackError("ports still listening after stop: "
                                 f"{sorted(ports & _listening_ports())}")
            time.sleep(0.01)
        self.servers = []
        self.front = None


def plain_launcher() -> List[str]:
    return [sys.executable, "-m", "repro"]


def traced_launcher(root: str, dump_dir: str) -> List[str]:
    return [sys.executable, os.path.join(root, "perfbench", "traced.py"),
            dump_dir]


SNAPSHOT_SIGNAL = signal.SIGUSR1
