"""The serve workloads: an open-loop request stream into the scheduler.

Both serve workloads drive one ``repro.serve.Scheduler`` (process
backend, two dispatchers, two solve processes, request fusion up to
four, a result cache, a session store with preemptible slices) over
the pool V100 + A100 + A100, through ``submit``,
``wait_for_outcomes`` and ``drain`` only.  Requests are due on a
seeded Poisson schedule; each is timed from its due time until the
generator sees its outcome.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import shutil
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import stats
from common import (OUT, RunResult, hwm_mib, own_cpu_s, pid_alive,
                    proc_cpu_s, reset_peak, rss_mib)
from inputs import ServeShape, load_system, serve_inputs

POOL = ("V100", "A100", "A100")
DISPATCHERS = 2
SOLVE_PROCESSES = 2
MAX_FUSE = 4
PREEMPT_SLICE = 20
#: Scheduler constructions per run; set-up time is their median.
SETUP_REPEATS = 3

#: Scale of every served system: ``nominal_gb * SCALE`` GB.
SCALE = 5e-5
#: The constant Poisson arrival rate; a run of ``--seconds`` seconds
#: sends ``RATE_HZ * seconds`` requests.
RATE_HZ = 8.0
#: Fewest requests a run may send: p90 then has ten samples beyond it.
MIN_REQUESTS = 100

SHAPES = {
    "serve-shared": ServeShape(distinct=False, n_requests=MIN_REQUESTS,
                               rate_hz=RATE_HZ, scale=SCALE),
    "serve-distinct": ServeShape(distinct=True, n_requests=MIN_REQUESTS,
                                 rate_hz=RATE_HZ, scale=SCALE),
}
#: Nominal size class (GB) whose serial iterations ``iter_p50_ms`` and
#: ``iter_p85_ms`` time on the serve workloads.
ITER_CLASS_GB = 10.0
#: Latency limit of ``slo_share``, seconds.
LATENCY_LIMIT_S = 2.0
#: A run whose generator ran later than this at p90 is invalid.
GENERATOR_LATE_P90_LIMIT_MS = 50.0
#: A served solution must match its system's least-squares reference
#: to this relative 2-norm error.  The generating solution is no
#: yardstick: the least-squares solution sits about 2e-4 from it, and
#: up to 1.3e-2 when the generator gives a star only four
#: observations.
REFERENCE_RTOL = 1e-6
#: Longest the generator waits for the outcomes still open after the
#: last submission.
TAIL_TIMEOUT_S = 60.0


def smoke_shape(shape: ServeShape) -> ServeShape:
    """A few seconds of the same stream, for the self-tests."""
    return dataclasses.replace(shape, n_requests=40, rate_hz=8.0,
                               scale=5e-5)


@dataclass
class Sent:
    """What the generator saw of one request."""

    index: int
    job_id: str
    request: dict
    due: float
    submitted: float = 0.0
    submit_s: float = 0.0
    observed: float | None = None
    outcome: object = None

    @property
    def latency(self) -> float:
        return self.observed - self.due

    def split(self) -> stats.LatencySplit:
        o = self.outcome
        return stats.LatencySplit(latency=self.latency,
                                  lateness=self.submitted - self.due,
                                  queue_wait=o.queue_wait_s,
                                  exec=o.exec_s)


def tagging_telemetry():
    """A Telemetry that tags the spans of each absorbed worker dump.

    The process backend merges each worker call's span dump into the
    scheduler's telemetry; tagging the spans with a call number and
    the dispatcher thread lets the ledger pair every worker-side solve
    with the parent span that waited for it.
    """
    from repro.obs.telemetry import Telemetry

    class TaggingTelemetry(Telemetry):
        def __init__(self) -> None:
            super().__init__()
            self._calls = 0
            self._call_lock = threading.Lock()

        def absorb(self, dump, *, track_prefix: str = "") -> None:
            if dump is not None:
                with self._call_lock:
                    call = self._calls
                    self._calls += 1
                thread = threading.current_thread().name
                for rec in dump["spans"]:
                    rec["labels"] = dict(rec["labels"], bench_call=str(call),
                                         bench_thread=thread)
            super().absorb(dump, track_prefix=track_prefix)

    return TaggingTelemetry()


def _scheduler(root: Path, telemetry):
    from repro.obs.telemetry import Telemetry
    from repro.serve import DevicePool, ResultCache, Scheduler
    from repro.sessions import SessionStore

    if not isinstance(telemetry, Telemetry):
        telemetry = None
    sessions = SessionStore(root, telemetry=telemetry)
    scheduler = Scheduler(
        DevicePool(POOL), workers=DISPATCHERS, backend="process",
        mp_workers=SOLVE_PROCESSES, max_fuse=MAX_FUSE,
        cache=ResultCache(256, telemetry=telemetry), sessions=sessions,
        preempt_slice=PREEMPT_SLICE, telemetry=telemetry,
        max_queue_depth=1024, drain_timeout=TAIL_TIMEOUT_S)
    return scheduler, sessions


def _jobs(directory: Path, manifest: dict):
    """Load every system once and build one ServeJob per request."""
    from repro.api import PlacementConstraints, SolveRequest
    from repro.serve import ServeJob

    systems = [load_system(directory, e) for e in manifest["systems"]]
    references = [np.load(directory / e["reference"])
                  for e in manifest["systems"]]
    jobs = []
    for i, req in enumerate(manifest["requests"]):
        job_id = f"r{i:04d}"
        constraints = PlacementConstraints(
            priority=req["priority"], allow_gang=req["gang"],
            max_shards=2 if req["gang"] else 1)
        request = SolveRequest(system=systems[req["system"]],
                               job_id=job_id, constraints=constraints)
        jobs.append(ServeJob(request=request, nominal_gb=req["nominal_gb"],
                             priority=req["priority"], job_id=job_id))
    reference_of = [references[r["system"]] for r in manifest["requests"]]
    return systems, jobs, reference_of


def _stream(scheduler, jobs, requests, tel) -> list[Sent]:
    """Submit every job at its due time; stamp outcomes as they land."""
    sent = {job.job_id: Sent(i, job.job_id, req, 0.0)
            for i, (job, req) in enumerate(zip(jobs, requests))}
    order = list(sent.values())
    seen = 0

    def stamp() -> None:
        nonlocal seen
        outcomes = scheduler.outcomes
        n = len(outcomes)
        if n > seen:
            now = time.perf_counter()
            for outcome in outcomes[seen:n]:
                s = sent[outcome.job.job_id]
                s.observed, s.outcome = now, outcome
            seen = n

    t0 = time.perf_counter()
    for job, s in zip(jobs, order):
        s.due = t0 + s.request["due_s"]
        while True:
            stamp()
            left = s.due - time.perf_counter()
            if left <= 0:
                break
            with tel.span("bench.wait_for_outcomes"):
                scheduler.wait_for_outcomes(seen + 1, timeout=left)
        s.submitted = time.perf_counter()
        with tel.span("bench.submit", job_id=job.job_id):
            scheduler.submit(job)
        s.submit_s = time.perf_counter() - s.submitted
    deadline = time.perf_counter() + TAIL_TIMEOUT_S
    while True:
        stamp()
        left = deadline - time.perf_counter()
        if seen >= len(order) or left <= 0:
            break
        with tel.span("bench.wait_for_outcomes"):
            scheduler.wait_for_outcomes(seen + 1, timeout=left)
    return order


def _workers() -> list:
    return [p for p in mp.active_children()
            if p.name.startswith("serve-mp")]


@dataclass
class StreamRun:
    sent: list[Sent]
    report: object
    setup_s: list[float]
    cpu_s: float
    peak_rss_mb: float
    problems: list[str]


def run_stream(workload: str, directory: Path, manifest: dict, tel,
               label: str) -> tuple[StreamRun, list, list]:
    """Set up the scheduler, play the schedule, drain, check for leaks."""
    from repro.serve import active_segments

    systems, jobs, reference_of = _jobs(directory, manifest)
    segments_before = set(active_segments())
    workdir = OUT / "tmp" / f"{workload}-{label}"
    shutil.rmtree(workdir, ignore_errors=True)
    problems: list[str] = []
    reset_peak()
    base_rss = rss_mib()
    setup_s = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with tel.span("bench.scheduler_setup", repeat=i):
            scheduler, sessions = _scheduler(workdir / f"sessions{i}", tel)
            try:
                ready = scheduler.wait_ready(timeout=TAIL_TIMEOUT_S)
            except BaseException:
                scheduler.drain()
                sessions.close()
                raise
        setup_s.append(time.perf_counter() - t0)
        if not ready:
            problems.append("solve processes never became ready")
        if i < SETUP_REPEATS - 1:
            scheduler.drain()
            sessions.close()
    try:
        worker_base = {p.pid: (rss_mib(p.pid), proc_cpu_s(p.pid))
                       for p in _workers()}
        cpu0 = own_cpu_s()
        sent = _stream(scheduler, jobs, manifest["requests"], tel)
        peak = hwm_mib() - base_rss + sum(
            max(0.0, hwm_mib(pid) - rss0)
            for pid, (rss0, _) in worker_base.items())
    finally:
        with tel.span("bench.drain"):
            report = scheduler.drain()
        sessions.close()
    cpu1 = own_cpu_s()
    cpu = ((cpu1[0] - cpu0[0]) + (cpu1[1] - cpu0[1])
           - sum(c for _, c in worker_base.values()))
    leaked = sorted(set(active_segments()) - segments_before)
    if leaked:
        problems.append(f"shared-memory segments left after drain: {leaked}")
    alive = [pid for pid in worker_base if pid_alive(pid)] + [
        p.pid for p in _workers()]
    if alive:
        problems.append(f"worker processes left after drain: {alive}")
    shutil.rmtree(workdir, ignore_errors=True)
    return (StreamRun(sent, report, setup_s, cpu, peak, problems),
            systems, reference_of)


# -- checks -----------------------------------------------------------------
def _kind_counts(sent: list[Sent]) -> dict[str, int]:
    """How many requests went down each reuse or execution path."""
    hits = warm = sliced = gang = 0
    batches = set()
    for s in sent:
        o = s.outcome
        if o is None or o.report is None:
            continue
        p = o.placement
        if p is not None and p.cache_hit:
            hits += 1
        if p is not None and p.batch_id is not None:
            batches.add(p.batch_id)
        if o.report.warm_start is not None:
            warm += 1
        if p is not None and p.shards:
            gang += 1
        elif o.report.resilience is not None:
            sliced += 1
    return {"cache_hits": hits, "fused_batches": len(batches),
            "warm_starts": warm, "sliced_solves": sliced,
            "gang_solves": gang}


def ran_solve(s: Sent) -> bool:
    """True when the request ran a solve (not served from the cache)."""
    o = s.outcome
    return (o is not None and o.report is not None
            and not (o.placement is not None and o.placement.cache_hit))


def serial_solo(s: Sent) -> bool:
    """True when the request ran the serial solver alone.

    Gang, sliced and fused solves run other drivers (distributed,
    recovery, batched), whose iterations are not the serial solver's.
    """
    o = s.outcome
    return (ran_solve(s) and not o.placement.shards
            and o.placement.batch_id is None
            and o.report.resilience is None)


def check_stream(workload: str, run: StreamRun, reference_of
                 ) -> tuple[set[str], list[str]]:
    """Correctness and composition checks.

    Returns the ids of the requests that failed and the problems found.
    """
    from repro.core.engine import StopReason
    from repro.serve import AdmissionDecision

    problems = list(run.problems)
    failed: set[str] = set()
    cold: dict[int, list[np.ndarray]] = {}
    for s in run.sent:
        o = s.outcome
        if o is not None and o.report is not None and ran_solve(s) \
                and o.report.warm_start is None:
            cold.setdefault(s.request["system"], []).append(o.report.x)
    for s in run.sent:
        o = s.outcome
        why = None
        if o is None:
            why = "no outcome"
        elif o.decision is not AdmissionDecision.ADMITTED:
            why = f"rejected ({o.decision.value})"
        elif o.report is None:
            why = f"failed: {o.error}"
        elif o.report.stop in (StopReason.DEGRADED,
                               StopReason.ABORTED_FAULTS):
            why = f"degraded ({o.report.stop.name})"
        elif not o.report.converged:
            why = f"not converged ({o.report.stop.name})"
        else:
            ref = reference_of[s.index]
            err = np.linalg.norm(o.report.x - ref) / np.linalg.norm(ref)
            if not err <= REFERENCE_RTOL:
                why = f"solution off the reference by {err:.2e}"
            elif o.placement is not None and o.placement.cache_hit and not any(
                    np.array_equal(o.report.x, x)
                    for x in cold.get(s.request["system"], [])):
                why = "cache hit differs from the cold solve"
        if why is not None:
            failed.add(s.job_id)
            if len(problems) < 20:
                problems.append(f"{s.job_id} ({s.request['key']}): {why}")
    counts = _kind_counts(run.sent)
    if workload == "serve-shared":
        for name, n in counts.items():
            if n <= 0:
                problems.append(f"composition: no {name.replace('_', ' ')}")
    else:
        for name, n in counts.items():
            if n != 0:
                problems.append(
                    f"composition: {n} {name.replace('_', ' ')}, expected 0")
    late = [(s.submitted - s.due) * 1e3 for s in run.sent]
    late_p90 = stats.percentile(late, 90)
    if late_p90 > GENERATOR_LATE_P90_LIMIT_MS:
        problems.append(f"generator late by {late_p90:.1f} ms at p90 "
                        f"(limit {GENERATOR_LATE_P90_LIMIT_MS} ms): invalid run")
    return failed, problems


# -- metrics ----------------------------------------------------------------
def end_to_end(result: RunResult, run: StreamRun, failed: set[str]) -> None:
    sent = run.sent
    n = len(sent)
    lat = [s.latency if s.observed is not None else TAIL_TIMEOUT_S
           for s in sent]
    on_time = sum(1 for s in sent
                  if s.job_id not in failed and s.observed is not None
                  and s.latency <= LATENCY_LIMIT_S)
    solved = [s for s in sent if ran_solve(s)]
    # One sample per iteration of the serial solver on a 10 GB-nominal
    # system, each timed by its solve's mean iteration time, so a solve
    # weighs by its iterations.  One size class keeps the percentiles
    # off the step between the iteration times of different sizes.
    iter_ms = [s.outcome.report.mean_iteration_time * 1e3
               for s in solved
               if serial_solo(s) and s.request["nominal_gb"] == ITER_CLASS_GB
               for _ in range(s.outcome.report.itn)]
    itn = [s.outcome.report.itn for s in solved]
    result.put("setup_s", stats.median(run.setup_s), "s", len(run.setup_s))
    result.put("latency_p50_s", stats.percentile(lat, 50), "s", n)
    result.put("latency_p90_s", stats.percentile(lat, 90), "s", n)
    result.put("slo_share", on_time / n, "ratio", n)
    result.put("cpu_s_per_request", run.cpu_s / n, "s", n)
    result.put("peak_rss_mb", run.peak_rss_mb, "MiB", 1)
    result.put("iter_p50_ms", stats.percentile(iter_ms, 50), "ms",
               len(iter_ms))
    result.put("iter_p85_ms", stats.percentile(iter_ms, 85), "ms",
               len(iter_ms))
    result.put("iterations", float(np.mean(itn)), "count", len(itn))
    result.notes.append(
        "paths: " + ", ".join(f"{k}={v}" for k, v in
                              _kind_counts(sent).items()))
    result.notes.append(f"error_share: {len(failed) / n:.4f} of {n} "
                        "requests")


def run(workload: str, seed: int, seconds: int, trace: bool,
        smoke: bool) -> RunResult:
    from repro.obs.telemetry import NULL_TELEMETRY

    shape = SHAPES[workload]
    if smoke:
        shape = smoke_shape(shape)
    else:
        shape = dataclasses.replace(shape, n_requests=max(
            MIN_REQUESTS, round(shape.rate_hz * seconds)))
    directory, manifest = serve_inputs(
        workload, seed, shape,
        tag=f"-n{shape.n_requests}" + ("-smoke" if smoke else ""))
    result = RunResult()
    result.notes.append(
        f"{workload}: {shape.n_requests} requests over "
        f"{manifest['requests'][-1]['due_s']:.1f} s at "
        f"{shape.rate_hz} req/s")
    plain, systems, reference_of = run_stream(workload, directory, manifest,
                                          NULL_TELEMETRY, "plain")
    failed, problems = check_stream(workload, plain, reference_of)
    result.attempted, result.failed = len(plain.sent), len(failed)
    result.problems += problems
    if not trace:
        end_to_end(result, plain, failed)
        return result
    import ledger

    tel = tagging_telemetry()
    traced, systems, reference_of = run_stream(workload, directory, manifest,
                                           tel, "traced")
    failed_t, problems_t = check_stream(workload, traced, reference_of)
    result.attempted += len(traced.sent)
    result.failed += len(failed_t)
    result.problems += [f"traced run: {p}" for p in problems_t]
    ledger.serve_layers(result, workload, tel, traced, plain, systems,
                        seed, smoke)
    return result
