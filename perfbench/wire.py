"""The load generator's socket and the serving processes it talks to.

One non-blocking TCP connection driven by ``select`` from a single
thread: ``select`` takes microsecond timeouts, so the paced sender
wakes on time without a second thread or an event loop.  The client
only writes pre-encoded bytes and files reply lines away with the time
they were read; it parses them after the measured phases.

The serving processes — a direct ``repro.cluster.worker`` or the
``repro.cli cluster`` router with its workers — run in their own
processes, started from the checkout's ``src`` directory.
"""

from __future__ import annotations

import gc
import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import time
from contextlib import contextmanager, suppress
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BOOT = Path(__file__).resolve().parent / "boot"

_STATS_PREFIX = b'{"kind": "stats"'
_SEND_CHUNK = 1 << 18


class Conn:
    """One client connection: send bytes, collect timestamped replies."""

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self._pending = b""
        self.replies: list[tuple[float, bytes]] = []  # (read time, line)
        self.stats: list[dict] = []

    def close(self) -> None:
        self.sock.close()

    def _recv(self) -> None:
        while True:
            try:
                data = self.sock.recv(1 << 16)
            except BlockingIOError:
                return
            if not data:
                raise ConnectionError("server closed the connection")
            now = perf_counter()
            lines = (self._pending + data).split(b"\n")
            self._pending = lines.pop()
            for line in lines:
                if line.startswith(_STATS_PREFIX):
                    self.stats.append(json.loads(line))
                else:
                    self.replies.append((now, line))

    def send(self, data: bytes, timeout: float = 120.0) -> None:
        """Write everything, reading replies whenever they arrive."""
        view = memoryview(data)
        sock = self.sock
        deadline = perf_counter() + timeout
        while view:
            readable, writable, _ = select.select([sock], [sock], [], 1.0)
            if readable:
                self._recv()
            if writable:
                try:
                    sent = sock.send(view[:_SEND_CHUNK])
                except BlockingIOError:
                    sent = 0
                view = view[sent:]
            if perf_counter() > deadline:
                raise TimeoutError("server stopped reading")

    def barrier(self, count: int, timeout: float = 120.0) -> None:
        """Wait until ``count`` stats replies have arrived in total."""
        deadline = perf_counter() + timeout
        while len(self.stats) < count:
            left = deadline - perf_counter()
            if left <= 0:
                raise TimeoutError("stats barrier never answered")
            readable, _, _ = select.select([self.sock], [], [], min(left, 1.0))
            if readable:
                self._recv()

    def paced(self, payloads, dt: float) -> tuple[list[float], list[float]]:
        """Send payload ``k`` when it is due, at ``start + k * dt``.

        Returns the due times and how late each send started.  The
        client's garbage collector is off meanwhile, so no collection
        delays a send or the reading of a reply.
        """
        sock = self.sock
        dues, lags = [], []
        gc.collect()
        gc.disable()
        try:
            start = perf_counter() + dt
            for k, payload in enumerate(payloads):
                due = start + k * dt
                while True:
                    now = perf_counter()
                    if now >= due:
                        break
                    readable, _, _ = select.select([sock], [], [], due - now)
                    if readable:
                        self._recv()
                dues.append(due)
                lags.append(now - due)
                self.send(payload)
        finally:
            gc.enable()
        return dues, lags


def serving_env(trace_dir: str | None = None) -> dict:
    """Environment of a serving process: ``src`` importable, unbuffered
    output, and with ``trace_dir`` the layer probes of ``boot/``."""
    env = dict(os.environ)
    env.pop("PERFBENCH_TRACE_DIR", None)
    path = [str(SRC)]
    if trace_dir is not None:
        path.append(str(BOOT))
        env["PERFBENCH_TRACE_DIR"] = trace_dir
    env["PYTHONPATH"] = os.pathsep.join(path)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _read_line(proc: subprocess.Popen, timeout: float) -> str:
    readable, _, _ = select.select([proc.stdout], [], [], timeout)
    if not readable:
        raise TimeoutError("serving process printed nothing")
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"serving process exited with {proc.wait()}")
    return line.decode()


class Stack:
    """The serving processes of one workload, as one stoppable object."""

    def __init__(self, proc, host, port, setup_s, stop_signal):
        self.proc = proc
        self.host = host
        self.port = port
        self.setup_s = setup_s
        self.stop_signal = stop_signal
        self.pids = [proc.pid]

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` of every serving process, in MiB."""
        return peak_rss_mb(self.pids)

    def stop(self, timeout: float = 30.0) -> None:
        """Signal the top process, wait for it and every child to end."""
        proc = self.proc
        if proc.poll() is None:
            proc.send_signal(self.stop_signal)
            try:
                proc.wait(timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()
        for pid in self.pids[1:]:
            _wait_gone(pid, timeout)


@contextmanager
def one_cpu(pids):
    """Run every thread of ``pids`` on one CPU while the block runs.

    In a virtual machine, waking a process parked on another, idle vCPU
    costs a hypervisor round trip whose price changes from run to run
    (it moved the paced p50 of one direct worker between 1.5 and 2.4 ms
    on a 2-vCPU VM).  The paced phase offers a fraction of one CPU's
    capacity, so sharing one CPU adds little queueing and keeps that
    cost out of the figure; for a cluster it also serializes router and
    workers, so the latency is the summed work along a decision's path.
    Affinities are restored afterwards.

    No busy loop keeps that CPU awake between ticks: one at
    ``SCHED_IDLE`` lowered the paced p99 on a quiet 2-vCPU VM but raised
    it while other guests loaded the host.
    """
    cpu = min(os.sched_getaffinity(0))
    saved = {}
    for pid in pids:
        for tid in os.listdir(f"/proc/{pid}/task"):
            tid = int(tid)
            saved[tid] = os.sched_getaffinity(tid)
            os.sched_setaffinity(tid, {cpu})
    try:
        yield
    finally:
        for tid, cpus in saved.items():
            with suppress(ProcessLookupError):
                os.sched_setaffinity(tid, cpus)


def peak_rss_mb(pids) -> float:
    """Summed ``VmHWM`` (peak resident set) of ``pids``, in MiB; a pid
    may be ``"self"``."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as fh:
            total_kb += next(
                int(line.split()[1]) for line in fh if line.startswith("VmHWM:")
            )
    return total_kb / 1024.0


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("State:"):
                    return "Z" not in line.split()[1]
    except FileNotFoundError:
        return False
    return False


def _wait_gone(pid: int, timeout: float) -> None:
    """Wait for a grandchild (a cluster worker) to exit; kill it if it
    outlives ``timeout``."""
    deadline = perf_counter() + timeout
    while _alive(pid):
        if perf_counter() > deadline:
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            deadline = perf_counter() + timeout
        time.sleep(0.02)


def start_worker(model: Path, trace_dir: str | None = None) -> Stack:
    """One direct ``repro.cluster.worker``; set-up ends at its ready line."""
    from repro.cluster.worker import worker_command
    from repro.interaction import DEFAULT_TIMEOUT

    cmd = worker_command(str(model), "bench", timeout=DEFAULT_TIMEOUT)
    t0 = perf_counter()
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=serving_env(trace_dir),
        cwd=ROOT,
    )
    try:
        ready = json.loads(_read_line(proc, 60.0))
    except BaseException:
        Stack(proc, "", 0, 0.0, signal.SIGTERM).stop()
        raise
    setup_s = perf_counter() - t0
    if ready.get("event") != "ready":
        raise RuntimeError(f"unexpected worker line: {ready!r}")
    return Stack(proc, ready["host"], ready["port"], setup_s, signal.SIGTERM)


_CLUSTER_LINE = re.compile(r"^cluster: .* on ([0-9.]+):([0-9]+) across")


def start_cluster(
    model: Path, workers: int, trace_dir: str | None = None
) -> Stack:
    """``repro.cli cluster``: router plus supervised workers in their own
    processes; set-up ends when it prints its address, which it does
    once every worker is up."""
    cmd = [
        sys.executable, "-m", "repro.cli", "cluster",
        "--recognizer", str(model), "--workers", str(workers), "--port", "0",
    ]
    t0 = perf_counter()
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=serving_env(trace_dir),
        cwd=ROOT,
    )
    try:
        match = _CLUSTER_LINE.match(_read_line(proc, 60.0))
        if match is None:
            raise RuntimeError("unexpected cluster output")
        setup_s = perf_counter() - t0
        stack = Stack(
            proc, match.group(1), int(match.group(2)), setup_s, signal.SIGINT
        )
        stack.pids += _worker_pids(stack.host, stack.port)
    except BaseException:
        # SIGINT lets the supervisor terminate the workers it spawned.
        Stack(proc, "", 0, 0.0, signal.SIGINT).stop()
        raise
    return stack


def _worker_pids(host: str, port: int) -> list[int]:
    """Worker pids from the router's ``cluster`` admin reply."""
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(b'{"op": "cluster"}\n')
        reply = sock.makefile("rb").readline()
    shards = json.loads(reply)["shards"]
    return [info["pid"] for info in shards.values()]
