"""Paths, process accounting and result records shared by the workloads.

The benchmark runs from the root of a source checkout and drives the
program in ``src/``; everything it writes goes under ``perfbench/out``
inside that checkout.
"""

from __future__ import annotations

import hashlib
import os
import resource
import signal
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no program to drive)."""


def use_checkout_program() -> None:
    """Import ``repro`` from this checkout's ``src`` and keep temp files here.

    Spawned worker processes inherit both: ``sys.path`` travels with
    the spawn preparation data, ``PYTHONPATH`` and ``TMPDIR`` with the
    environment.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program to benchmark: {SRC / 'repro'} is missing")
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)


def program_fingerprint() -> str:
    """Content hash of the program's sources (stands in for the commit)."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# -- memory and CPU, read from /proc and getrusage -----------------------
def _status_kib(pid: int | str, key: str) -> int | None:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def rss_mib(pid: int | str = "self") -> float:
    """Current resident set size."""
    kib = _status_kib(pid, "VmRSS")
    return (kib or 0) / 1024.0


def hwm_mib(pid: int | str = "self") -> float:
    """Peak resident set size since start or the last :func:`reset_peak`."""
    kib = _status_kib(pid, "VmHWM")
    return (kib or 0) / 1024.0


def reset_peak() -> None:
    """Reset this process's peak RSS to its current RSS (Linux >= 4.0)."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def own_cpu_s() -> tuple[float, float]:
    """(self, reaped children) CPU seconds from getrusage."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime)


def _child_pids() -> list[int]:
    """Pids whose parent is this process, zombies included."""
    me, kids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == me:
            kids.append(int(entry))
    return kids


def _reap(pid: int, timeout: float) -> None:
    """Wait up to ``timeout`` seconds for a child to end, then kill it."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return
        if done:
            return
        if time.monotonic() >= deadline:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
            return
        time.sleep(0.01)


def stop_child_processes(timeout: float = 10.0) -> None:
    """End every process this one started and wait for each.

    Runs multiprocessing's own exit steps early (terminate and join
    the solve processes, unlink the queues' semaphores), then closes
    the pipe that keeps multiprocessing's resource tracker alive and
    waits for it: left alone, the tracker outlives this process by
    design.  Any other child still running is killed and reaped.
    """
    from multiprocessing import resource_tracker, util

    util._exit_function()
    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        tracker._fd = tracker._pid = None
    if fd is not None:
        os.close(fd)
    if pid is not None:
        _reap(pid, timeout)
    for pid in _child_pids():
        _reap(pid, 0.0)


def pid_alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


# -- results ---------------------------------------------------------------
@dataclass
class Metric:
    value: float
    unit: str
    samples: int


@dataclass
class RunResult:
    """What one workload run measured and checked."""

    metrics: dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Failed correctness or composition checks, one line each.
    problems: list[str] = field(default_factory=list)
    #: Human-readable lines printed before the result.
    notes: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = Metric(float(value), unit, int(samples))

    def check(self, ok: bool, problem: str) -> bool:
        if not ok:
            self.problems.append(problem)
        return ok

    @property
    def correct(self) -> bool:
        return not self.problems
