"""Seeded inputs for every workload, generated once per seed.

Each workload's systems are drawn from ``--seed`` with the program's
synthetic generator, written with ``repro.io.write_binary_system`` and
read back with ``read_binary_system`` -- so generation never falls in
a timed window and never counts towards set-up time or peak memory,
and a second run on the same seed reuses the files (the last
``KEEP_SEEDS`` seeds of each workload are kept).  A manifest next
to the systems lists the request schedule; it is written last, so a
directory without one is an interrupted generation and is rebuilt.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import OUT

#: Nominal size of every solve-large system, in GB (447,392 rows).
SOLVE_LARGE_GB = 0.1
#: Generator seed of the solve-large coefficient matrix.
MATRIX_SEED = 0
#: Seed directories kept per workload (least recently used go first).
KEEP_SEEDS = 3
#: Stopping tolerance (atol = btol) of the least-squares references,
#: tighter than the served solves' 1e-10.
REFERENCE_ATOL = 1e-12
#: Noise on the generated known terms, so the least-squares problem
#: has non-zero residuals and meaningful standard errors.
NOISE_SIGMA = 1e-9


#: Nominal sizes (GB) of serve systems.  serve-distinct draws them in
#: these shares (p50 then sits inside the 10 GB requests and p90 inside
#: the 30 GB ones, away from the step between the two); serve-shared's
#: matrices take them in turn.
SIZES = ((10.0, 0.8), (30.0, 0.2))
#: serve-shared: matrices with several right-hand sides each.
MATRICES = 3
VARIANTS = 6
#: serve-shared: growing re-solve chains of this many steps, each step
#: this much larger than its parent.
CHAIN_STEPS = 8
CHAIN_GROWTH = 0.1
#: serve-shared: distinct 60 GB-nominal (gang) systems.
GANG_SYSTEMS = 2
#: serve-shared traffic: shares of requests that are chain steps, gang
#: requests, and members of bursts (one client sending every
#: right-hand side of one matrix at once); the rest are single
#: shared-matrix requests.
CHAIN_SHARE = 0.3
GANG_SHARE = 0.12
BURST_SHARE = 0.12
#: Share of single shared-matrix and gang requests sent at priority 5.
LOW_PRIORITY_SHARE = 0.25


@dataclass(frozen=True)
class ServeShape:
    """The request stream of one serve workload.

    Nominal sizes (10/30/60 GB) drive placement against the device
    pool; the systems actually solved are ``nominal * scale`` GB.
    Requests arrive at a constant Poisson rate of ``rate_hz``.
    """

    distinct: bool
    n_requests: int
    rate_hz: float
    scale: float


def _write_system(directory: Path, index: int, system) -> dict:
    from repro.io import write_binary_system

    name = f"sys-{index:03d}.bin"
    write_binary_system(system, directory / name)
    lineage = system.meta.get("lineage", ())
    return {"file": name,
            "parent_digest": system.meta.get("parent_digest"),
            "lineage": list(lineage)}


def _finish(directory: Path, manifest: dict) -> dict:
    tmp = directory / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest))
    tmp.replace(directory / "manifest.json")
    # Flush the new files now, so their write-back does not fall into
    # a timed window.
    os.sync()
    return manifest


def _input_dir(workload: str, name: str) -> tuple[Path, dict | None]:
    """An input directory and its manifest (None when still to generate).

    Keeps the ``KEEP_SEEDS`` most recently used seed directories of a
    workload and deletes older ones, so a long series of runs on fresh
    seeds does not fill the disk.
    """
    root = OUT / "inputs" / workload
    directory = root / name
    manifest = directory / "manifest.json"
    if manifest.is_file():
        os.utime(directory)
        return directory, json.loads(manifest.read_text())
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    seeds = sorted((d for d in root.glob("seed*") if d != directory),
                   key=lambda d: d.stat().st_mtime)
    for old in seeds[:max(0, len(seeds) - KEEP_SEEDS + 1)]:
        shutil.rmtree(old, ignore_errors=True)
    return directory, None


def load_system(directory: Path, entry: dict):
    """Read one system back into private memory, lineage restored."""
    from repro.io import read_binary_system

    system = read_binary_system(directory / entry["file"])
    arrays = {f.name: np.array(getattr(system, f.name))
              for f in dataclasses.fields(system)
              if isinstance(getattr(system, f.name), np.ndarray)}
    system = dataclasses.replace(system, **arrays)
    if entry.get("parent_digest"):
        system.meta["parent_digest"] = entry["parent_digest"]
        system.meta["lineage"] = tuple(entry["lineage"])
    return system


def lsqr_reference(system, *, atol: float, calc_var: bool = False):
    """SciPy's LSQR on the column-scaled CSR matrix of ``system``.

    An implementation that shares no code with the program's solver.
    Returns ``(x, itn, r2norm, var, shape)``; ``var`` is the variance
    estimate of ``x`` (None without ``calc_var``).
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import lsqr

    A = system.to_scipy_csr()
    norms = np.sqrt(np.asarray(A.multiply(A).sum(axis=0)).ravel())
    scale = np.where(norms > 0, 1.0 / np.where(norms > 0, norms, 1.0), 1.0)
    scaled = (A @ sp.diags(scale)).tocsr()
    del A
    out = lsqr(scaled, system.rhs(), atol=atol, btol=atol, conlim=1e8,
               calc_var=calc_var)
    var = out[9] * scale**2 if calc_var else None
    return out[0] * scale, out[2], out[4], var, scaled.shape


# -- solve-large --------------------------------------------------------------
def solve_large_system(seed: int, *, size_gb: float = SOLVE_LARGE_GB,
                       tag: str = ""):
    """The large system of ``seed``: (its input directory, the system).

    The coefficient matrix is one fixed draw, generated once and kept;
    the seed draws the true solution and the observation noise, i.e.
    the right-hand side, kept per seed.  A random matrix per seed would
    make the iteration count (76 to 98 over ten seeds) and with it
    every solve time depend on the seed; with the matrix fixed the
    count stays within a few iterations.
    """
    from repro.core.aprod import aprod1
    from repro.system.generator import draw_true_solution, make_system
    from repro.system.sizing import dims_from_gb

    matrix_dir, manifest = _input_dir("solve-large", f"matrix{tag}")
    if manifest is None:
        matrix = make_system(dims_from_gb(size_gb), seed=MATRIX_SEED)
        manifest = _finish(matrix_dir,
                           {"system": _write_system(matrix_dir, 0, matrix)})
    system = load_system(matrix_dir, manifest["system"])
    directory, manifest = _input_dir("solve-large", f"seed{seed}{tag}")
    if manifest is None:
        rng = np.random.default_rng((seed, 0x501))
        n_obs = system.dims.n_obs
        rhs = (aprod1(system, draw_true_solution(system.dims, rng))[:n_obs]
               + rng.normal(scale=NOISE_SIGMA, size=n_obs))
        np.save(directory / "rhs.npy", rhs)
        manifest = _finish(directory, {"rhs": "rhs.npy"})
    rhs = np.load(directory / manifest["rhs"])
    return directory, dataclasses.replace(system, known_terms=rhs)


# -- serve workloads ----------------------------------------------------------
def _schedule(rng: np.random.Generator, events: list[list[dict]],
              rate_hz: float) -> list[dict]:
    """Flatten events into requests due on a Poisson event schedule.

    The events arrive as a Poisson process conditioned on its count:
    sorted uniform times over ``requests / rate_hz`` seconds, so every
    seed offers the same load for the same time.  The requests of one
    event share its due time.
    """
    n = sum(len(e) for e in events)
    due = np.sort(rng.uniform(0.0, n / rate_hz, size=len(events)))
    out = []
    for t, event in zip(due, events):
        for req in event:
            out.append(dict(req, due_s=float(t)))
    return out


def _sizes(rng: np.random.Generator, n: int) -> list[float]:
    """``n`` nominal sizes in the exact proportions of ``SIZES``, shuffled."""
    total = sum(w for _, w in SIZES)
    out: list[float] = []
    for size, weight in SIZES[:-1]:
        out += [size] * round(n * weight / total)
    out += [SIZES[-1][0]] * (n - len(out))
    return [float(x) for x in rng.permutation(np.array(out))]


def _flags(rng: np.random.Generator, n: int, share: float) -> list[bool]:
    """``n`` flags, exactly ``round(n * share)`` of them set, shuffled."""
    k = round(n * share)
    return [bool(x) for x in rng.permutation(
        np.array([True] * k + [False] * (n - k)))]


def serve_inputs(workload: str, seed: int, shape: ServeShape, *,
                 tag: str = "") -> tuple[Path, dict]:
    """Systems, true solutions and request schedule of one serve run.

    Each request names a system by index; requests naming the same
    system are exact repeats.  ``reference`` names the ``.npy`` file
    of the system's least-squares solution by :func:`lsqr_reference`,
    which every served solution must match.
    """
    directory, manifest = _input_dir(workload, f"seed{seed}{tag}")
    if manifest is not None:
        return directory, manifest
    rng = np.random.default_rng((seed, 0x5E7E))
    builder = (_distinct_stream if shape.distinct else _shared_stream)
    systems, events = builder(rng, shape)
    requests = _schedule(rng, events, shape.rate_hz)
    entries = []
    for i, system in enumerate(systems):
        entry = _write_system(directory, i, system)
        entry["reference"] = f"ref-{i:03d}.npy"
        np.save(directory / entry["reference"],
                lsqr_reference(system, atol=REFERENCE_ATOL)[0])
        entries.append(entry)
    return directory, _finish(directory, {"systems": entries,
                                          "requests": requests})


def _system_of(nominal_gb: float, scale: float, seed: int):
    from repro.system.generator import make_system
    from repro.system.sizing import dims_from_gb

    return make_system(dims_from_gb(nominal_gb * scale), seed=seed,
                       noise_sigma=NOISE_SIGMA)


def _distinct_stream(rng, shape: ServeShape):
    """Every request a freshly generated matrix at priority 0."""
    systems, events = [], []
    for i, nominal in enumerate(_sizes(rng, shape.n_requests)):
        systems.append(_system_of(nominal, shape.scale,
                                  int(rng.integers(2**31))))
        events.append([{"system": i, "nominal_gb": nominal,
                        "priority": 0, "gang": False,
                        "kind": "fresh", "key": f"fresh{i}"}])
    return systems, events


def _shared_stream(rng, shape: ServeShape):
    """Shared matrices with several right-hand sides, chains and gangs.

    The count of each kind, and within single requests the spread
    over matrices, right-hand sides and priorities, are fixed; the
    seed draws the order of the requests and the systems' content.

    - ``shared``: matrix ``m`` with right-hand side ``v``; repeats of
      one ``(m, v)`` are exact repeats (cache hits);
    - ``burst``: every right-hand side of one matrix at once, which
      the scheduler can fuse into one batched solve;
    - ``chain``: successive steps of one growing system, each the
      previous one plus ``CHAIN_GROWTH`` more observations, so a step
      can warm start from its parent's solution;
    - ``gang``: a 60 GB-nominal system no single lane of the pool
      holds, sent with gang sharding allowed.
    """
    from repro.system.generator import make_observation_block
    from repro.system.merge import append_observations

    systems = []

    def add(system):
        systems.append(system)
        return len(systems) - 1

    shared = {}
    for m in range(MATRICES):
        nominal = SIZES[m % len(SIZES)][0]
        base = _system_of(nominal, shape.scale, int(rng.integers(2**31)))
        for v in range(VARIANTS):
            system = base
            if v:
                noise = np.random.default_rng((m, v)).normal(
                    scale=NOISE_SIGMA, size=base.known_terms.shape)
                system = dataclasses.replace(
                    base, known_terms=base.known_terms + noise)
            shared[m, v] = (add(system), nominal)
    gangs = []
    for g in range(GANG_SYSTEMS):
        system = _system_of(60.0, shape.scale, int(rng.integers(2**31)))
        gangs.append(add(system))
    n = shape.n_requests
    n_burst = max(2, round(n * BURST_SHARE / VARIANTS))
    n_gang = max(2, round(n * GANG_SHARE))
    n_chain = max(2, round(n * CHAIN_SHARE))
    chains = max(1, n_chain // CHAIN_STEPS)
    chain_heads = [_system_of(10.0, shape.scale, int(rng.integers(2**31)))
                   for _ in range(chains)]
    chain_seeds = [int(rng.integers(2**31)) for _ in range(chains)]
    chain_last = list(chain_heads)
    chain_step = [0] * chains
    n_single = n - n_burst * VARIANTS - n_gang - n_chain
    # Exact composition: singles cycle through every (matrix, rhs)
    # pair, bursts and gangs through their matrices, and each matrix
    # gets its exact share of priority-5 requests; the seed draws only
    # the order (and the systems' content and arrival times).
    descs = []
    for m in range(MATRICES):
        group = [k for k in range(n_single) if k % MATRICES == m]
        for k, low in zip(group, _flags(rng, len(group),
                                        LOW_PRIORITY_SHARE)):
            descs.append(("single", m, (k // MATRICES)
                          % VARIANTS, low))
    descs += [("burst", k % MATRICES, 0, False)
              for k in range(n_burst)]
    descs += [("gang", k % GANG_SYSTEMS, 0, low) for k, low in
              enumerate(_flags(rng, n_gang, LOW_PRIORITY_SHARE))]
    descs += [("chain", 0, 0, False)] * n_chain
    events = []
    n_chain_seen = 0
    for i in rng.permutation(len(descs)):
        kind, m, v, low = descs[i]
        if kind == "single":
            index, nominal = shared[m, v]
            events.append([{"system": index, "nominal_gb": nominal,
                            "priority": 5 if low else 0, "gang": False,
                            "kind": "shared", "key": f"m{m}v{v}"}])
        elif kind == "burst":
            events.append([{"system": shared[m, v][0],
                            "nominal_gb": shared[m, v][1], "priority": 0,
                            "gang": False, "kind": "burst",
                            "key": f"m{m}v{v}"}
                           for v in range(VARIANTS)])
        elif kind == "chain":
            c = n_chain_seen % chains
            n_chain_seen += 1
            step = chain_step[c]
            system = chain_last[c]
            if step:
                parent = chain_last[c]
                block = make_observation_block(
                    parent, max(1, round(parent.dims.n_obs
                                         * CHAIN_GROWTH)),
                    seed=int(np.random.default_rng(
                        (chain_seeds[c], step)).integers(2**31)))
                system = append_observations(parent, block)
            index = add(system)
            chain_last[c] = system
            chain_step[c] = step + 1
            events.append([{"system": index, "nominal_gb": 10.0,
                            "priority": 0, "gang": False,
                            "kind": "chain", "key": f"c{c}s{step}"}])
        else:
            events.append([{"system": gangs[m], "nominal_gb": 60.0,
                            "priority": 5 if low else 0, "gang": True,
                            "kind": "gang", "key": f"g{m}"}])
    return systems, events
