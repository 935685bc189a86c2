"""Child processes of the benchmark, and the speed of the core they run on.

A shared host slows each of its cores, independently, by up to a factor of
two, for anything from a fraction of a second to minutes.  Wall-clock times
of identical runs then differ by 20 to 40 %.  So every measured process runs
pinned to one core, and the harness times a fixed reference kernel on that
core before each child starts and, with the child stopped, every
``CALIBRATE_EVERY_S`` while it runs.  A time is reported at reference speed:
divided by the core's *slowness*, the kernel's time over
``REFERENCE_KERNEL_S``, interpolated between calibrations.  Pauses are cut
out of the child's clock, so the op in flight is charged only for its run.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import math
import os
import select
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: A child that prints nothing for this long counts as hung.
LINE_TIMEOUT_S = 60.0
#: Interval, on the child's clock, between calibrations of its core.
CALIBRATE_EVERY_S = 0.2
#: Kernel time that defines reference speed: about its median on the 2-vCPU
#: KVM guest (Xeon, Python 3.11, numpy 2.4) the benchmark was built on.
REFERENCE_KERNEL_S = 2.0e-3


class CannotRun(Exception):
    """The benchmark has nothing to measure, such as a checkout without src/."""


def reference_kernel() -> float:
    """Fixed work in the style of a gateforge op: 4x4 complex algebra through
    numpy, a Hermitian eigensolve, scalar Python and JSON encoding."""
    rng = np.random.default_rng(20240101)
    acc = 0.0
    for _ in range(24):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        w, v = np.linalg.eigh(m + m.conj().T)
        u = (v * np.exp(-1j * w)) @ v.conj().T
        acc += float(np.max(np.abs(u @ u.conj().T)))
        acc += sum(sorted(abs(x) for x in w.tolist()))
        json.dumps([[z.real, z.imag] for z in u.ravel().tolist()])
    return acc


class Core:
    """The core measured code runs on; the harness keeps to the others."""

    def __init__(self) -> None:
        cpus = sorted(os.sched_getaffinity(0))
        self.cpu = cpus[-1]
        self.rest = set(cpus[:-1]) or {self.cpu}
        os.sched_setaffinity(0, self.rest)

    @contextlib.contextmanager
    def pinned(self):
        """Runs the harness itself on the measured core."""
        before = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self.cpu})
        try:
            yield
        finally:
            os.sched_setaffinity(0, before)

    def slowness(self) -> float:
        """Best of two kernel times on the core now, over the reference time."""
        with self.pinned():
            best = math.inf
            for _ in range(2):
                start = time.perf_counter()
                reference_kernel()
                best = min(best, time.perf_counter() - start)
        return best / REFERENCE_KERNEL_S


def gap_slowness(times: list[float], speed: list[tuple[float, float]]) -> list[float]:
    """Slowness at the midpoint of each gap between consecutive ``times``,
    interpolated linearly in ``speed`` (``(time, slowness)`` pairs in time
    order) and held constant beyond its ends."""
    ts = [t for t, _ in speed]
    ss = [s for _, s in speed]

    def at(t: float) -> float:
        k = bisect.bisect_left(ts, t)
        if k == 0:
            return ss[0]
        if k == len(ts):
            return ss[-1]
        w = (t - ts[k - 1]) / (ts[k] - ts[k - 1])
        return (1 - w) * ss[k - 1] + w * ss[k]

    return [at((a + b) / 2) for a, b in zip(times, times[1:])]


def at_reference_speed(times: list[float], speed: list[tuple[float, float]]) -> list[float]:
    """Gaps between consecutive ``times``, each divided by its slowness."""
    return [(b - a) / s for a, b, s in zip(times, times[1:], gap_slowness(times, speed))]


def child_command(workload: str, path: Path) -> list[str]:
    if workload == "trajectory":
        return [sys.executable, str(BENCH / "trajectory_runner.py"), "--input", str(path)]
    return [sys.executable, "-m", "gateforge.cli", "batch", "--input", str(path)]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("GATEFORGE_TOL", None)  # it scales every tolerance
    env["PYTHONUNBUFFERED"] = "1"  # piped stdout is otherwise block-buffered
    env["PYTHONPATH"] = str(SRC)
    return env


class Spawner:
    """Harness end of ``spawner.py``, which starts and reaps every child.
    It runs on the measured core, and its children inherit that."""

    def __init__(self, core: Core) -> None:
        self.sock, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with theirs:
            self.proc = subprocess.Popen(
                [sys.executable, "-S", str(BENCH / "spawner.py"), str(theirs.fileno())],
                cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                pass_fds=(theirs.fileno(),),
            )
        os.sched_setaffinity(self.proc.pid, {core.cpu})

    def _reply(self) -> dict:
        msg = self.sock.recv(1 << 16)
        if not msg:
            raise CannotRun("the spawner process ended")
        return json.loads(msg)

    def start(self, argv: list[str], stdout_fd: int, stderr_fd: int) -> int:
        request = json.dumps({"argv": argv, "env": child_env()}).encode()
        socket.send_fds(self.sock, [request], [stdout_fd, stderr_fd])
        return self._reply()["pid"]

    def wait(self) -> tuple[int, float]:
        """Exit code and peak RSS in MB of the child last started."""
        reply = self._reply()
        return reply["exit"], reply["maxrss_kb"] / 1024.0

    def close(self) -> None:
        self.sock.close()
        self.proc.wait(timeout=30)


@dataclass
class ChildRun:
    """What one child printed, and when, on its own clock (pauses cut out)."""

    ops: list  # (line, expect) pairs it was given
    start: float = 0.0
    times: list = field(default_factory=list)
    lines: list = field(default_factory=list)
    speed: list = field(default_factory=list)  # (time, slowness) calibrations
    rss_mb: float = 0.0
    problem: str | None = None  # crash, hang or non-zero exit
    ran_out: bool = False  # ended on its own after its whole input

    @property
    def setup_s(self) -> float:
        """Spawn to first result line, at reference speed."""
        return (self.times[0] - self.start) / self.speed[0][1]

    def gaps(self) -> list[float]:
        """Time of each op after the warm-up, at reference speed."""
        return at_reference_speed(self.times, self.speed)

    def wall_gaps(self) -> list[float]:
        return [b - a for a, b in zip(self.times, self.times[1:])]


def run_child(spawner: Spawner, core: Core, workload: str, ops: list, path: Path, slice_s: float) -> ChildRun:
    """Runs one child on ``ops`` (written to ``path``) until ``slice_s`` of
    its own time after its first result line, or until it ends."""
    workloads.write_ops(path, ops)
    run = ChildRun(ops)
    stderr_path = path.with_suffix(".stderr")
    read_fd, write_fd = os.pipe()
    with open(stderr_path, "wb") as err, open(read_fd, "rb", buffering=0) as out:
        slowness = core.slowness()
        run.start = time.perf_counter()
        run.speed.append((run.start, slowness))
        try:
            pid = spawner.start(child_command(workload, path), write_fd, err.fileno())
        finally:
            os.close(write_fd)
        eof = False
        try:
            eof = _read_lines(run, out.fileno(), pid, core, slice_s)
        finally:
            if not eof:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            code, run.rss_mb = spawner.wait()
    if eof:
        run.ran_out = True
        if code != 0:
            tail = stderr_path.read_text(errors="replace")[-500:]
            run.problem = f"child exited with {code}: {tail}"
    elif not run.times or time.perf_counter() - run.times[-1] >= LINE_TIMEOUT_S:
        run.problem = f"child printed nothing for {LINE_TIMEOUT_S:.0f} s"
    return run


def _read_lines(run: ChildRun, fd: int, pid: int, core: Core, slice_s: float) -> bool:
    """Timestamps result lines into ``run``; True once the child closed stdout."""
    buf = b""
    paused = 0.0
    stop_at = next_calibration = None

    def take(chunk: bytes) -> None:
        nonlocal buf
        now = time.perf_counter() - paused
        buf += chunk
        *complete, buf = buf.split(b"\n")
        for line in complete:
            run.times.append(now)
            run.lines.append(line)

    while True:
        now = time.perf_counter() - paused
        last = run.times[-1] if run.times else run.start
        if (stop_at is not None and now >= stop_at) or now >= last + LINE_TIMEOUT_S:
            return False
        if next_calibration is not None and now >= next_calibration:
            while select.select([fd], [], [], 0)[0]:  # stamp what is already written
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    return True
                take(chunk)
            slowness, pause = _calibrate_paused(pid, core)
            run.speed.append((now, slowness))
            paused += pause
            next_calibration = now + CALIBRATE_EVERY_S
            continue
        deadlines = [last + LINE_TIMEOUT_S, stop_at, next_calibration]
        limit = min(d for d in deadlines if d is not None)
        if not select.select([fd], [], [], max(limit - now, 0.0))[0]:
            continue
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return True
        take(chunk)
        if stop_at is None and run.times:
            stop_at = run.times[0] + slice_s
            next_calibration = run.times[0] + CALIBRATE_EVERY_S


def _calibrate_paused(pid: int, core: Core) -> tuple[float, float]:
    """Stops the child, times the kernel on its core and resumes the child.
    Returns the slowness and the wall time the child spent stopped."""
    start = time.perf_counter()
    try:
        os.kill(pid, signal.SIGSTOP)
    except ProcessLookupError:
        return core.slowness(), 0.0
    try:
        _wait_stopped(pid)
        slowness = core.slowness()
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGCONT)
    return slowness, time.perf_counter() - start


def _wait_stopped(pid: int) -> None:
    deadline = time.perf_counter() + 0.05
    while time.perf_counter() < deadline:
        try:
            state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
        except (OSError, IndexError):
            return
        if state in ("T", "t", "Z", "X"):
            return
