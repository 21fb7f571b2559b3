"""The traced run's per-layer table, span ledger and trace export.

Per-layer numbers come from three sources, all outside ``src/``:
the program's own spans (worker spans included, absorbed into the
parent), the reports and outcomes its public calls return, and direct
timed calls of a layer's public functions on the run's own inputs.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass

import numpy as np

import stats
from common import OUT, RunResult


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    layer: str
    moves: str
    on: str


#: Every per-layer metric: its layer, the end-to-end metric it should
#: move and the workload it should move it on.  A metric a workload
#: does not exercise reads 0 there.
LAYERS = (
    Layer("aprod.build_s", "s", "lower", "core.aprod",
          "setup_s, latency_p50_s", "solve-large, serve-distinct"),
    Layer("aprod.operator_mb", "MiB", "lower", "core.aprod",
          "peak_rss_mb", "solve-large"),
    Layer("aprod.aprod1_p50_ms", "ms", "lower", "core.aprod",
          "iter_p50_ms", "solve-large"),
    Layer("aprod.aprod2_p50_ms", "ms", "lower", "core.aprod",
          "iter_p50_ms", "solve-large"),
    Layer("aprod.bytes_per_iter_mb", "MiB", "lower", "core.aprod",
          "iter_p50_ms", "solve-large"),
    Layer("aprod.computed_gbps", "GB/s", "higher", "core.aprod",
          "iter_p50_ms", "solve-large"),
    Layer("precond.build_s", "s", "lower", "core.precond",
          "setup_s", "solve-large"),
    Layer("engine.iteration_p50_ms", "ms", "lower", "core.engine",
          "iter_p50_ms", "solve-large"),
    Layer("engine.update_self_p50_ms", "ms", "lower", "core.engine",
          "iter_p50_ms", "solve-large"),
    Layer("api.prepare_s", "s", "lower", "api / core.lsqr",
          "setup_s", "solve-large"),
    Layer("api.iterations_total", "count", "lower", "api",
          "cpu_s_per_request", "serve-shared"),
    Layer("system.digest_s", "s", "lower", "system",
          "latency_p50_s, cpu_s_per_request", "serve-distinct"),
    Layer("serve.submit_p50_ms", "ms", "lower", "serve.scheduler",
          "latency_p50_s", "serve-*"),
    Layer("serve.queue_wait_p50_s", "s", "lower", "serve.scheduler",
          "latency_p90_s", "serve-shared"),
    Layer("serve.queue_wait_p90_s", "s", "lower", "serve.scheduler",
          "latency_p90_s", "serve-shared"),
    Layer("serve.exec_p50_s", "s", "lower", "serve.scheduler",
          "latency_p50_s", "serve-*"),
    Layer("serve.unattributed_p50_s", "s", "lower", "serve.scheduler",
          "latency_p50_s", "serve-*"),
    Layer("serve.generator_late_p90_ms", "ms", "lower", "benchmark generator",
          "none (validity check)", "serve-*"),
    Layer("cache.hit_share", "ratio", "higher", "serve.cache",
          "latency_p50_s, cpu_s_per_request", "serve-shared"),
    Layer("fusion.fused_share", "ratio", "higher",
          "serve.scheduler, api.solve_batch", "cpu_s_per_request",
          "serve-shared"),
    Layer("fusion.batch_size_mean", "count", "higher",
          "serve.scheduler, api.solve_batch", "cpu_s_per_request",
          "serve-shared"),
    Layer("shm.publish_s", "s", "lower", "serve.shm",
          "latency_p50_s, cpu_s_per_request", "serve-distinct"),
    Layer("shm.attach_s", "s", "lower", "serve.shm",
          "latency_p50_s, cpu_s_per_request", "serve-distinct"),
    Layer("shm.published_mb", "MiB", "lower", "serve.shm",
          "latency_p50_s, cpu_s_per_request", "serve-distinct"),
    Layer("worker.roundtrip_overhead_p50_s", "s", "lower", "serve.worker",
          "latency_p50_s", "serve-*"),
    Layer("sessions.warm_share", "ratio", "higher", "sessions",
          "latency_p50_s, cpu_s_per_request", "serve-shared"),
    Layer("sessions.iterations_saved", "count", "higher", "sessions",
          "latency_p50_s, cpu_s_per_request", "serve-shared"),
    Layer("sessions.put_p50_ms", "ms", "lower", "sessions",
          "latency_p50_s", "serve-distinct"),
    Layer("sessions.get_p50_ms", "ms", "lower", "sessions",
          "latency_p50_s", "serve-shared"),
    Layer("sessions.sliced_share", "ratio", "lower",
          "serve.scheduler (sliced path)", "latency_p90_s", "serve-shared"),
    Layer("sessions.preemptions", "count", "lower",
          "serve.scheduler (sliced path)", "latency_p90_s", "serve-shared"),
    Layer("gang.exec_p50_s", "s", "lower", "serve (gang path), dist",
          "latency_p90_s", "serve-shared"),
    Layer("dist.comm_share", "ratio", "lower", "serve (gang path), dist",
          "latency_p90_s", "serve-shared"),
    Layer("obs.overhead_share", "ratio", "lower", "obs",
          "none (cost of tracing)", "all"),
)
LAYER_UNITS = {layer.name: layer.unit for layer in LAYERS}


def _put(result: RunResult, name: str, value: float, samples: int) -> None:
    result.put(name, value, LAYER_UNITS[name], samples)


def _zero_all(result: RunResult) -> None:
    for layer in LAYERS:
        _put(result, layer.name, 0.0, 0)


def _p(values, q: float) -> float:
    return stats.percentile(values, q) if values else 0.0


# -- spans ----------------------------------------------------------------------
def self_times(spans) -> dict[int, float]:
    """Self time of every span: duration minus its children's union."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append((s.start, s.end))
    return {s.span_id: stats.self_time(s.start, s.end,
                                       children.get(s.span_id, ()))
            for s in spans}


def descendants(spans, root) -> list:
    """``root`` and every span below it."""
    by_parent: dict[int, list] = {}
    for s in spans:
        by_parent.setdefault(s.parent_id, []).append(s)
    out, todo = [], [root]
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(by_parent.get(s.span_id, ()))
    return out


def span_table(spans, selfs: dict[int, float]) -> list[tuple]:
    """(name, count, total s, self s) per span name, by self time."""
    rows: dict[str, list] = {}
    for s in spans:
        row = rows.setdefault(s.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s.duration
        row[2] += selfs[s.span_id]
    return sorted(((n, c, t, st) for n, (c, t, st) in rows.items()),
                  key=lambda r: -r[3])


def iteration_layers(result: RunResult, spans, prefix: str) -> None:
    """aprod1/aprod2/iteration/update-self percentiles from the spans."""
    a1 = [s.duration * 1e3 for s in spans if s.name == f"{prefix}.aprod1"]
    a2 = [s.duration * 1e3 for s in spans if s.name == f"{prefix}.aprod2"]
    iters = [s for s in spans if s.name == f"{prefix}.iteration"]
    kernels: dict[int, list] = {}
    for s in spans:
        if s.name in (f"{prefix}.aprod1", f"{prefix}.aprod2"):
            kernels.setdefault(s.parent_id, []).append((s.start, s.end))
    update = [stats.self_time(s.start, s.end, kernels.get(s.span_id, ()))
              * 1e3 for s in iters]
    _put(result, "aprod.aprod1_p50_ms", _p(a1, 50), len(a1))
    _put(result, "aprod.aprod2_p50_ms", _p(a2, 50), len(a2))
    _put(result, "engine.iteration_p50_ms",
         _p([s.duration * 1e3 for s in iters], 50), len(iters))
    _put(result, "engine.update_self_p50_ms", _p(update, 50), len(update))


# -- direct timed calls -----------------------------------------------------
def operator_nbytes(op, system) -> int:
    """Bytes of the arrays a built operator holds beyond the system's own.

    Walks the operator's attributes (and the objects they hold),
    counting each distinct underlying buffer once and skipping any
    that belongs to the system it was built from.
    """
    import dataclasses

    owned = [getattr(system, f.name) for f in dataclasses.fields(system)
             if isinstance(getattr(system, f.name), np.ndarray)]
    seen_buffers: dict[int, int] = {}
    seen_objects: set[int] = set()
    todo = [v for k, v in vars(op).items()
            if k not in ("system", "telemetry", "kernel_hook")]
    while todo:
        obj = todo.pop()
        if id(obj) in seen_objects:
            continue
        seen_objects.add(id(obj))
        if isinstance(obj, np.ndarray):
            base = obj
            while isinstance(base.base, np.ndarray):
                base = base.base
            if not any(np.may_share_memory(base, a) for a in owned):
                seen_buffers[id(base)] = base.nbytes
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif hasattr(obj, "__dict__") and not isinstance(obj, type):
            todo.extend(vars(obj).values())
    return sum(seen_buffers.values())


def computed_pair_bytes(system) -> int:
    """Bytes one aprod1 + aprod2 pair must move, from the matrix shape.

    The model is a CSR pass with int32 column indices: each product
    streams every stored coefficient (8 B) and its column index
    (4 B) once, reads its input vector and writes its output vector
    (8 B per entry).  Computed, not measured.
    """
    nnz = system.dims.n_obs * system.dims.nnz_per_row
    if system.constraints is not None:
        nnz += sum(len(row.cols) for row in system.constraints)
    vectors = 8 * (system.n_rows + system.dims.n_params)
    return 2 * (12 * nnz + vectors)


def time_build(tel, system) -> tuple[float, float, int]:
    """(operator build s, preconditioner build s, operator bytes)."""
    from repro.core.aprod import AprodOperator
    from repro.core.precond import ColumnScaling

    t0 = time.perf_counter()
    with tel.span("bench.aprod.build"):
        op = AprodOperator(system)
    t1 = time.perf_counter()
    with tel.span("bench.precond.build"):
        ColumnScaling.from_operator(op)
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, operator_nbytes(op, system)


def time_digest(tel, system) -> float:
    from repro.system.digest import system_digest

    t0 = time.perf_counter()
    with tel.span("bench.system.digest"):
        system_digest(system)
    return time.perf_counter() - t0


# -- output -------------------------------------------------------------------
def trace_dir():
    path = OUT / "traces"
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_ledger(result: RunResult, workload: str, seed: int, smoke: bool,
                 tel, extra: list[str]) -> None:
    """Write the Chrome trace and the per-layer table; note their paths."""
    from repro.obs.export import write_chrome_trace

    stem = f"{workload}-seed{seed}{'-smoke' if smoke else ''}"
    trace = write_chrome_trace(tel, trace_dir() / f"{stem}.trace.json")
    lines = [f"# Per-layer ledger: {workload}, seed {seed}", "",
             "| metric | value | unit | samples | layer | should move | on |",
             "|---|---|---|---|---|---|---|"]
    for layer in LAYERS:
        m = result.metrics[layer.name]
        lines.append(f"| `{layer.name}` | {m.value:.6g} | {m.unit} | "
                     f"{m.samples} | {layer.layer} | {layer.moves} | "
                     f"{layer.on} |")
    lines += [""] + extra
    path = trace_dir() / f"{stem}.ledger.md"
    path.write_text("\n".join(lines) + "\n")
    result.notes.append(f"trace: {trace}")
    result.notes.append(f"ledger: {path}")


# -- solve-large --------------------------------------------------------------
def solve_layers(result: RunResult, tel, system, root, solve_s: float,
                 plain_solve_s: float, seed: int, smoke: bool) -> None:
    """Per-layer table of the traced solve; checks span coverage."""
    _zero_all(result)
    spans = tel.spans
    tree = descendants(spans, root)
    iteration_layers(result, tree, "lsqr")
    first = min((s.start for s in tree if s.name == "lsqr.iteration"),
                default=root.end)
    _put(result, "api.prepare_s", first - root.start, 1)
    build_s, precond_s, op_bytes = time_build(tel, system)
    _put(result, "aprod.build_s", build_s, 1)
    _put(result, "precond.build_s", precond_s, 1)
    _put(result, "aprod.operator_mb", op_bytes / 2**20, 1)
    pair = computed_pair_bytes(system)
    _put(result, "aprod.bytes_per_iter_mb", pair / 2**20, 1)
    pair_ms = (result.metrics["aprod.aprod1_p50_ms"].value
               + result.metrics["aprod.aprod2_p50_ms"].value)
    _put(result, "aprod.computed_gbps",
         pair / (pair_ms * 1e-3) / 1e9 if pair_ms else 0.0,
         result.metrics["aprod.aprod1_p50_ms"].samples)
    _put(result, "system.digest_s", time_digest(tel, system), 1)
    _put(result, "obs.overhead_share",
         (solve_s - plain_solve_s) / plain_solve_s, 2)

    selfs = self_times(spans)
    covered = sum(selfs[s.span_id] for s in tree)
    coverage = covered / solve_s
    result.check(abs(coverage - 1.0) <= 0.05,
                 f"span self times cover {coverage:.1%} of solve_s "
                 "(must be within 5%)")
    result.notes.append(f"span self times cover {coverage:.2%} of "
                        f"solve_s = {solve_s:.3f} s")
    rows = ["## Self time inside the traced `api.solve` call", "",
            f"Self times sum to {covered:.4f} s = {coverage:.2%} of "
            f"solve_s ({solve_s:.4f} s).", "",
            "| span | count | total s | self s | self share |",
            "|---|---|---|---|---|"]
    for name, count, total, own in span_table(tree, selfs):
        rows.append(f"| `{name}` | {count} | {total:.4f} | {own:.4f} | "
                    f"{own / solve_s:.2%} |")
    write_ledger(result, "solve-large", seed, smoke, tel, rows)


# -- serve --------------------------------------------------------------------
_CALL_SPANS = ("serve.job", "serve.slice", "serve.gang", "serve.batch")


def worker_calls(spans) -> list[tuple]:
    """Pair each absorbed worker dump with the parent span around it.

    Returns ``(parent span, worker spans)`` per worker call; the parent
    is the innermost call span on the dispatcher thread that absorbed
    the dump whose interval holds the worker spans.
    """
    calls: dict[str, list] = {}
    for s in spans:
        call = s.labels.get("bench_call")
        if call is not None:
            calls.setdefault(call, []).append(s)
    parents: dict[str, list] = {}
    for s in spans:
        if s.name in _CALL_SPANS:
            parents.setdefault(s.track, []).append(s)
    out = []
    for worker in calls.values():
        thread = worker[0].labels["bench_thread"]
        lo = min(s.start for s in worker)
        hi = max(s.end for s in worker)
        mid = (lo + hi) / 2
        around = [p for p in parents.get(thread, ())
                  if p.start <= mid <= p.end]
        if around:
            out.append((min(around, key=lambda p: p.duration), worker))
    return out


def _private_store_timings(tel, systems):
    """Mean publish and attach seconds, and published MiB, per system."""
    from repro.serve.shm import SystemStore, attach

    publish, attach_s, nbytes = [], [], 0
    with SystemStore() as store:
        digests = {}
        for system in systems:
            digest = store.digest_of(system)
            if digest in digests:
                continue
            t0 = time.perf_counter()
            with tel.span("bench.shm.publish"):
                store.publish(system)
            publish.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            with tel.span("bench.shm.attach"):
                attach(digest).close()
            attach_s.append(time.perf_counter() - t0)
            digests[digest] = system
            nbytes += sum(a.nbytes for a in vars(system).values()
                          if isinstance(a, np.ndarray))
    return publish, attach_s, nbytes


def _private_session_timings(tel, sent, workload):
    """p50 put and get milliseconds on a private store."""
    from repro.sessions import SessionStore
    from repro.system.digest import system_digest

    root = OUT / "tmp" / f"{workload}-sessions-timing"
    shutil.rmtree(root, ignore_errors=True)
    records = []
    for s in sent:
        o = s.outcome
        if o is not None and o.report is not None:
            records.append((system_digest(o.job.request.system), o.report))
    put, get = [], []
    with SessionStore(root, budget_bytes=2**30) as store:
        for digest, report in records:
            t0 = time.perf_counter()
            with tel.span("bench.sessions.put"):
                store.put(digest, report.x, itn=report.itn,
                          r2norm=report.r2norm, stop=report.stop.name)
            put.append((time.perf_counter() - t0) * 1e3)
        for digest, _ in records:
            t0 = time.perf_counter()
            with tel.span("bench.sessions.get"):
                store.get(digest)
            get.append((time.perf_counter() - t0) * 1e3)
    shutil.rmtree(root, ignore_errors=True)
    return put, get


def _by_size(systems) -> list:
    """One system of each distinct row count, smallest first."""
    one = {}
    for system in systems:
        one.setdefault(system.dims.n_obs, system)
    return [one[k] for k in sorted(one)]


def serve_layers(result: RunResult, workload: str, tel, traced, plain,
                 systems, seed: int, smoke: bool) -> None:
    """Per-layer table of a traced serve run, plus the latency split."""
    from serving import ran_solve, serial_solo

    _zero_all(result)
    spans = tel.spans
    sent = traced.sent
    done = [s for s in sent if s.outcome is not None
            and s.outcome.report is not None]
    solved = [s for s in sent if ran_solve(s)]
    n = len(sent)

    splits = [s.split() for s in done]
    _put(result, "serve.submit_p50_ms",
         _p([s.submit_s * 1e3 for s in sent], 50), n)
    _put(result, "serve.queue_wait_p50_s",
         _p([x.queue_wait for x in splits], 50), len(splits))
    _put(result, "serve.queue_wait_p90_s",
         _p([x.queue_wait for x in splits], 90), len(splits))
    _put(result, "serve.exec_p50_s", _p([x.exec for x in splits], 50),
         len(splits))
    _put(result, "serve.unattributed_p50_s",
         _p([x.unattributed for x in splits], 50), len(splits))
    _put(result, "serve.generator_late_p90_ms",
         _p([(s.submitted - s.due) * 1e3 for s in sent], 90), n)
    _put(result, "api.iterations_total",
         sum(s.outcome.report.itn for s in solved), len(solved))

    cache = traced.report.cache_stats
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    _put(result, "cache.hit_share",
         cache.get("hits", 0) / lookups if lookups else 0.0, lookups)
    placements = [s.outcome.placement for s in done]
    fused = [p for p in placements if p is not None and p.batch_id]
    batches = {p.batch_id: p.batch_size for p in fused}
    _put(result, "fusion.fused_share", len(fused) / len(done) if done
         else 0.0, len(done))
    _put(result, "fusion.batch_size_mean",
         float(np.mean(list(batches.values()))) if batches else 0.0,
         len(batches))

    serial = [s for s in solved if serial_solo(s)]
    warm = [s for s in serial if s.outcome.report.warm_start is not None]
    _put(result, "sessions.warm_share",
         len(warm) / len(serial) if serial else 0.0, len(serial))
    _put(result, "sessions.iterations_saved",
         sum(s.outcome.report.warm_start.iterations_saved for s in warm),
         len(warm))
    sliced = {s.labels.get("job_id") for s in spans
              if s.name == "serve.slice"}
    _put(result, "sessions.sliced_share",
         len(sliced) / len(done) if done else 0.0, len(done))
    _put(result, "sessions.preemptions", traced.report.preemptions, 1)

    calls = worker_calls(spans)
    overhead = [p.duration - (max(s.end for s in w) - min(s.start for s in w))
                for p, w in calls]
    _put(result, "worker.roundtrip_overhead_p50_s", _p(overhead, 50),
         len(overhead))
    gangs = [(p, w) for p, w in calls if p.name == "serve.gang"]
    _put(result, "gang.exec_p50_s",
         _p([p.duration for p, _ in gangs], 50), len(gangs))
    comm = [stats.union_length([(s.start, s.end) for s in w
                                if s.name == "dist.comm_epoch"])
            / p.duration for p, w in gangs]
    _put(result, "dist.comm_share", _p(comm, 50), len(comm))
    worker_spans = [s for _, w in calls for s in w]
    iteration_layers(result, worker_spans, "lsqr")

    sizes = _by_size(systems)
    builds = [time_build(tel, system) for system in sizes]
    _put(result, "aprod.build_s", float(np.mean([b[0] for b in builds])),
         len(builds))
    _put(result, "precond.build_s", float(np.mean([b[1] for b in builds])),
         len(builds))
    _put(result, "aprod.operator_mb",
         float(np.mean([b[2] for b in builds])) / 2**20, len(builds))
    digests = [time_digest(tel, system) for system in sizes]
    _put(result, "system.digest_s", float(np.mean(digests)), len(digests))
    publish, attach_s, nbytes = _private_store_timings(tel, systems)
    _put(result, "shm.publish_s", float(np.mean(publish)), len(publish))
    _put(result, "shm.attach_s", float(np.mean(attach_s)), len(attach_s))
    _put(result, "shm.published_mb", nbytes / 2**20, len(publish))
    put, get = _private_session_timings(tel, sent, workload)
    _put(result, "sessions.put_p50_ms", _p(put, 50), len(put))
    _put(result, "sessions.get_p50_ms", _p(get, 50), len(get))

    plain_cpu = plain.cpu_s / len(plain.sent)
    traced_cpu = traced.cpu_s / n
    _put(result, "obs.overhead_share", (traced_cpu - plain_cpu) / plain_cpu,
         2)

    selfs = self_times(spans)
    rows = ["## Latency split per request (seconds)", "",
            "latency = lateness + queue wait + exec + unattributed", "",
            "| request | kind | latency | lateness | queue wait | exec | "
            "unattributed |", "|---|---|---|---|---|---|---|"]
    for s, x in zip(done, splits):
        parts = x.parts()
        rows.append(
            f"| {s.job_id} | {s.request['kind']} | {x.latency:.4f} | "
            f"{parts['lateness']:.4f} | {parts['queue_wait']:.4f} | "
            f"{parts['exec']:.4f} | {parts['unattributed']:.4f} |")
    rows += ["", "## Self time by span name (whole traced run)", "",
             "| span | count | total s | self s |", "|---|---|---|---|"]
    for name, count, total, own in span_table(spans, selfs):
        rows.append(f"| `{name}` | {count} | {total:.4f} | {own:.4f} |")
    med = {k: stats.median([x.parts()[k] for x in splits])
           for k in ("lateness", "queue_wait", "exec", "unattributed")}
    result.notes.append(
        "latency split medians (s): " + ", ".join(
            f"{k}={v:.4f}" for k, v in med.items()))
    write_ledger(result, workload, seed, smoke, tel, rows)
