"""The solve-large workload: cold ``api.solve`` calls on one large system.

Each call solves the seed's 447,392-observation system to
``atol=1e-10`` from a zero start; the run makes as many calls as fit in
``--seconds`` (at least two).  The iteration kernels and the one-time
operator and preconditioner build do nearly all the work; no serving
layer runs.
"""

from __future__ import annotations

import hashlib
import json
import resource
import time
from pathlib import Path

import numpy as np

import stats
from common import RunResult, hwm_mib, program_fingerprint, reset_peak, rss_mib
from inputs import lsqr_reference, solve_large_system

ATOL = 1e-10
#: Fewest cold solves per run: a run-internal bitwise repeat check.
MIN_SOLVES = 2
#: Latency limit of ``slo_share``: a solve slower than this misses it.
SOLVE_LIMIT_S = 60.0
#: Size of the smoke-test system, GB.
SMOKE_GB = 0.002


def reference_solution(directory: Path, system):
    """A textbook LSQR solve of the same problem, made once per seed.

    :func:`inputs.lsqr_reference` with its variance estimate, turned
    into standard errors the way ``SolveReport.standard_errors`` does.
    """
    path = directory / "reference.npz"
    if not path.is_file():
        x, itn, r2norm, var, (m, n) = lsqr_reference(system, atol=ATOL,
                                                     calc_var=True)
        se = np.sqrt(np.maximum(var, 0.0) * r2norm**2 / (m - n))
        tmp = directory / "reference.tmp.npz"
        np.savez(tmp, x=x, se=se, itn=itn, r2norm=r2norm)
        tmp.replace(path)
    with np.load(path) as ref:
        return {k: ref[k] for k in ref.files}


def _record(directory: Path) -> tuple[Path, dict | None]:
    """This program version's recorded iteration count and solution hash."""
    path = directory / f"record-{program_fingerprint()}.json"
    return path, (json.loads(path.read_text()) if path.is_file() else None)


def _check(result: RunResult, report, reference, system, record) -> bool:
    from repro.validation.compare import PortSolution, compare_solutions

    ok = result.check(report.converged,
                      f"stop reason {report.stop.name} is not converged")
    ok &= result.check(report.itn == record["iterations"],
                       f"{report.itn} iterations, recorded "
                       f"{record['iterations']} for this seed")
    digest = hashlib.sha256(report.x.tobytes()).hexdigest()
    ok &= result.check(digest == record["x_sha256"],
                       "x differs bitwise from this version's earlier solve")
    ref = PortSolution("scipy-lsqr", "host", reference["x"],
                       reference["se"], int(reference["itn"]),
                       float(reference["r2norm"]))
    cand = PortSolution("repro", "host", report.x,
                        report.standard_errors(), report.itn,
                        report.r2norm)
    cmp = compare_solutions(ref, cand, system.dims)
    ok &= result.check(cmp.passed, "solution disagrees with the reference "
                       "beyond 1 sigma / 10 micro-arcseconds")
    return ok


def _cold_solve(system, telemetry=None):
    """One timed cold solve: (report, wall s, CPU s, peak MiB added).

    With ``telemetry`` the call runs traced, inside a
    ``bench.api.solve`` span.
    """
    from repro.api import SolveRequest, solve
    from repro.obs.telemetry import Telemetry

    tel = Telemetry.or_null(telemetry)
    reset_peak()
    base = rss_mib()
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    with tel.span("bench.api.solve"):
        report = solve(SolveRequest(system=system, atol=ATOL,
                                    telemetry=telemetry))
    wall = time.perf_counter() - t0
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (cpu1.ru_utime + cpu1.ru_stime) - (cpu0.ru_utime + cpu0.ru_stime)
    return report, wall, cpu, hwm_mib() - base


def run(workload: str, seed: int, seconds: int, trace: bool,
        smoke: bool) -> RunResult:
    directory, system = (
        solve_large_system(seed, size_gb=SMOKE_GB, tag="-smoke") if smoke
        else solve_large_system(seed))
    reference = reference_solution(directory, system)
    record_path, record = _record(directory)
    result = RunResult()
    result.notes.append(f"solve-large: {system.dims.n_obs} observations, "
                        f"{system.dims.n_params} unknowns")

    if trace:
        import ledger
        from repro.obs.telemetry import Telemetry

        plain, plain_s, _, _ = _cold_solve(system)
        tel = Telemetry()
        report, solve_s, _, _ = _cold_solve(system, tel)
        root = tel.tracer.find("bench.api.solve")[0]
        if record is None:
            record = {"iterations": plain.itn,
                      "x_sha256": hashlib.sha256(plain.x.tobytes()).hexdigest()}
            record_path.write_text(json.dumps(record))
        result.attempted = 2
        result.failed = sum(not _check(result, r, reference, system, record)
                            for r in (plain, report))
        ledger.solve_layers(result, tel, system, root, solve_s,
                            plain_s, seed, smoke)
        return result

    walls, setups, cpus, peaks, iters, itns = [], [], [], [], [], []
    on_time = 0
    t_start = time.perf_counter()
    while True:
        report, wall, cpu, peak = _cold_solve(system)
        if record is None:
            record = {"iterations": report.itn,
                      "x_sha256": hashlib.sha256(report.x.tobytes()).hexdigest()}
            record_path.write_text(json.dumps(record))
        result.attempted += 1
        if not _check(result, report, reference, system, record):
            result.failed += 1
        elif wall <= SOLVE_LIMIT_S:
            on_time += 1
        times = report.raw.iteration_times
        walls.append(wall)
        setups.append(wall - sum(times))
        cpus.append(cpu)
        peaks.append(peak)
        iters.extend(t * 1e3 for t in times)
        itns.append(report.itn)
        elapsed = time.perf_counter() - t_start
        if (len(walls) >= MIN_SOLVES
                and elapsed + stats.median(walls) > seconds):
            break
    n = len(walls)
    result.put("setup_s", stats.median(setups), "s", n)
    result.put("latency_p50_s", stats.median(walls), "s", n)
    result.put("latency_p90_s", max(walls), "s", n)
    result.put("iter_p50_ms", stats.percentile(iters, 50), "ms", len(iters))
    result.put("iter_p85_ms", stats.percentile(iters, 85), "ms", len(iters))
    result.put("iterations", stats.median(itns), "count", n)
    result.put("peak_rss_mb", stats.median(peaks), "MiB", n)
    result.put("cpu_s_per_request", stats.median(cpus), "s", n)
    result.put("slo_share", on_time / n, "ratio", n)
    q = stats.tail_percentile(len(iters))
    result.notes.append(f"{n} cold solves; iteration tail rule allows up "
                        f"to p{q} over {len(iters)} iteration samples")
    result.notes.append(f"error_share: {result.failed / n:.4f} of {n} solves")
    return result
