"""Batch-equivalence suite: the many-RHS engine vs. K serial solves.

This file is the contract the batched solve path
(:class:`repro.core.engine.BatchedLSQRStepEngine`,
:func:`repro.core.lsqr.lsqr_solve_batch`, :func:`repro.api.solve_batch`)
is pinned by:

- on the default CSR operator every member of a batched solve is
  *bitwise* identical to the serial solve of that member alone --
  trajectory (``itn``, ``istop``), solution, residual norms and
  variance estimates -- because the batched sparse-times-dense
  products sum each member in its solo order;
- the same holds on the explicit per-submatrix kernels (the classic
  four-kernel path), which loop over the members;
- early-converging members freeze (their own ``itn``/``istop``) while
  the rest of the batch keeps iterating.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SolveRequest, batch_incompatibility, solve, solve_batch
from repro.core.aprod import AprodOperator
from repro.core.engine import (
    ISTOP_RUNNING,
    BatchedLSQRStepEngine,
    StopReason,
)
from repro.core.lsqr import lsqr_solve, lsqr_solve_batch
from repro.obs.telemetry import Telemetry
from repro.system import SystemDims, make_system

# ----------------------------------------------------------------------
# Strategies and helpers
# ----------------------------------------------------------------------

dims_strategy = st.builds(
    SystemDims,
    n_stars=st.integers(2, 10),
    n_obs=st.integers(40, 120),
    n_deg_freedom_att=st.integers(4, 8),
    n_instr_params=st.integers(6, 12),
    n_glob_params=st.integers(0, 1),
)

damp_strategy = st.sampled_from([0.0, 1e-6, 1e-3, 0.1, 1.0])


@st.composite
def batch_case(draw):
    """One shared matrix plus K perturbed right-hand sides."""
    dims = draw(dims_strategy)
    seed = draw(st.integers(0, 2**16))
    k = draw(st.integers(2, 4))
    system = make_system(dims, seed=seed, noise_sigma=1e-9)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    members = [system]
    for _ in range(k - 1):
        members.append(dataclasses.replace(
            system,
            known_terms=system.known_terms + rng.normal(
                scale=1e-6, size=system.known_terms.shape),
        ))
    damps = [draw(damp_strategy) for _ in range(k)]
    return system, members, damps


def _serial_results(members, damps, *, gather, scatter, iter_lim=30,
                    **kw):
    return [
        lsqr_solve(m, damp=d, iter_lim=iter_lim,
                   gather_strategy=gather, scatter_strategy=scatter,
                   **kw)
        for m, d in zip(members, damps)
    ]


def _batched_results(system, members, damps, *, gather, scatter,
                     iter_lim=30, **kw):
    B = np.stack([m.rhs() for m in members])
    op = AprodOperator(system, gather_strategy=gather,
                       scatter_strategy=scatter)
    return lsqr_solve_batch(op, B, damps=damps, iter_lim=iter_lim, **kw)


def _assert_member_equal(batched, serial):
    assert batched.itn == serial.itn
    assert batched.istop == serial.istop
    np.testing.assert_array_equal(batched.x, serial.x)
    assert batched.r2norm == serial.r2norm
    assert batched.acond == serial.acond
    if serial.var is not None:
        np.testing.assert_array_equal(batched.var, serial.var)


# ----------------------------------------------------------------------
# The equivalence pin: batched == K serial solves
# ----------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(case=batch_case())
def test_batched_matches_serial_bitwise_on_classic_path(case):
    """Classic kernels: every member of the batch is bitwise the
    serial solve -- trajectory, solution, norms and variance."""
    system, members, damps = case
    serial = _serial_results(members, damps, gather="vectorized",
                             scatter="bincount")
    batched = _batched_results(system, members, damps,
                               gather="vectorized", scatter="bincount")
    for b, s in zip(batched, serial):
        _assert_member_equal(b, s)


@settings(max_examples=15, deadline=None)
@given(case=batch_case())
def test_batched_matches_serial_on_fused_path(case):
    """The default CSR path (the former fused-plan path): every member
    is bitwise its serial solve."""
    system, members, damps = case
    serial = _serial_results(members, damps, gather="csr",
                             scatter="csr")
    batched = _batched_results(system, members, damps, gather="csr",
                               scatter="csr")
    for b, s in zip(batched, serial):
        _assert_member_equal(b, s)


@pytest.mark.parametrize("gather,scatter",
                         [("vectorized", "bincount"), ("csr", "csr")])
def test_batch_of_one_matches_serial(small_system, gather, scatter):
    """K=1 is the degenerate batch: bitwise the plain driver."""
    serial = lsqr_solve(small_system, iter_lim=40,
                        gather_strategy=gather,
                        scatter_strategy=scatter)
    (batched,) = _batched_results(small_system, [small_system], [0.0],
                                  gather=gather, scatter=scatter,
                                  iter_lim=40)
    _assert_member_equal(batched, serial)


def test_warm_start_members_match_serial(small_system):
    """Per-member x0 warm starts shift each member independently."""
    rng = np.random.default_rng(17)
    n = small_system.dims.n_params
    x0s = [None, rng.normal(scale=1e-4, size=n),
           rng.normal(scale=1e-2, size=n)]
    members = [small_system] * 3
    damps = [0.0, 0.0, 1e-3]
    serial = [lsqr_solve(m, damp=d, iter_lim=25, x0=x0,
                         gather_strategy="vectorized",
                         scatter_strategy="bincount")
              for m, d, x0 in zip(members, damps, x0s)]
    batched = _batched_results(small_system, members, damps, x0s=x0s,
                               iter_lim=25, gather="vectorized",
                               scatter="bincount")
    for b, s in zip(batched, serial):
        _assert_member_equal(b, s)


# ----------------------------------------------------------------------
# Early-stop staggering: converged members freeze, the rest iterate
# ----------------------------------------------------------------------

def test_early_stop_staggering_freezes_members(small_system):
    """Members with wildly different damping converge at different
    iterations; each frozen member's itn/istop must match its serial
    run exactly even though siblings kept the batch iterating."""
    damps = [50.0, 0.0, 1e-3, 10.0]
    members = [small_system] * len(damps)
    serial = _serial_results(members, damps, gather="vectorized",
                             scatter="bincount", iter_lim=60)
    batched = _batched_results(small_system, members, damps,
                               gather="vectorized", scatter="bincount",
                               iter_lim=60)
    itns = [s.itn for s in serial]
    assert len(set(itns)) > 1, "test needs staggered convergence"
    for b, s in zip(batched, serial):
        _assert_member_equal(b, s)


def test_batched_engine_telemetry_counts_member_iterations(
        small_system):
    """lsqr_batch.member_iterations only counts *active* members, so
    a frozen member stops contributing the moment it converges."""
    tel = Telemetry()
    damps = [50.0, 0.0]
    members = [small_system] * 2
    batched = _batched_results(small_system, members, damps,
                               gather="vectorized", scatter="bincount",
                               iter_lim=60, telemetry=tel)
    total_member_itns = sum(b.itn for b in batched)
    assert tel.counter("lsqr_batch.member_iterations").value == \
        total_member_itns
    assert tel.counter("lsqr_batch.iterations").value == \
        max(b.itn for b in batched)


# ----------------------------------------------------------------------
# BatchedEngineState mechanics
# ----------------------------------------------------------------------

def test_batched_state_active_done_and_abort(small_system):
    op = AprodOperator(small_system)
    engine = BatchedLSQRStepEngine(op, batch=3)
    B = np.stack([small_system.rhs()] * 3)
    state = engine.start(B)
    assert state.batch == 3
    assert list(state.active) == [0, 1, 2]
    assert not state.done
    assert state.stop_reason(0) is None

    state.abort_member(1)
    assert list(state.active) == [0, 2]
    assert state.stop_reason(1) is StopReason.ABORTED_FAULTS
    # abort is idempotent on already-stopped members
    state.istop[2] = int(StopReason.ATOL_BTOL)
    state.abort_member(2)
    assert state.stop_reason(2) is StopReason.ATOL_BTOL

    state = engine.step(state)  # only member 0 advances
    assert state.itn[0] == 1 and state.itn[1] == 0

    member = state.member(0)
    assert member.itn == 1
    assert member.x.shape == (small_system.dims.n_params,)
    # member() copies: mutating the view must not touch the batch
    member.x[:] = -1.0
    assert not np.any(state.X[0] == -1.0)


def test_batched_engine_rejects_bad_shapes(small_system):
    op = AprodOperator(small_system)
    engine = BatchedLSQRStepEngine(op, batch=2)
    with pytest.raises(ValueError):
        engine.start(small_system.rhs())  # 1-D, not (K, m)
    with pytest.raises(ValueError):
        engine.start(np.stack([small_system.rhs()] * 3))  # K mismatch
    with pytest.raises(ValueError):
        BatchedLSQRStepEngine(op, batch=0)


# ----------------------------------------------------------------------
# api.solve_batch: report-level equivalence and validation
# ----------------------------------------------------------------------

def test_solve_batch_matches_solve_reports(small_system):
    rng = np.random.default_rng(3)
    requests = []
    for j, damp in enumerate([0.0, 1e-3, 0.5]):
        system = dataclasses.replace(
            small_system,
            known_terms=small_system.known_terms + rng.normal(
                scale=1e-8, size=small_system.known_terms.shape))
        requests.append(SolveRequest(
            system=system, damp=damp, iter_lim=40, seed=j, job_id=f"member-{j}"))
    reports = solve_batch(requests)
    assert [r.job_id for r in reports] == \
        ["member-0", "member-1", "member-2"]
    for req, rep in zip(requests, reports):
        solo = solve(req)
        np.testing.assert_array_equal(rep.x, solo.x)
        assert rep.itn == solo.itn
        assert rep.stop is solo.stop
        assert rep.r2norm == solo.r2norm


def test_batch_incompatibility_names_the_offending_field(
        small_system):
    base = SolveRequest(system=small_system, iter_lim=20)
    assert batch_incompatibility([base, base]) is None
    # damp/seed/x0/job_id differences are explicitly allowed
    ok = dataclasses.replace(base, damp=0.5, seed=9, job_id="other")
    assert batch_incompatibility([base, ok]) is None

    for field, value in [("atol", 1e-6), ("conlim", 1e6),
                         ("iter_lim", 21), ("precondition", False),
                         ("calc_var", False)]:
        bad = dataclasses.replace(base, **{field: value})
        reason = batch_incompatibility([base, bad])
        assert reason is not None and field in reason

    distributed = dataclasses.replace(base, ranks=2)
    assert "ranks" in batch_incompatibility([base, distributed])
    assert "empty" in batch_incompatibility([])

    with pytest.raises(ValueError, match="cannot solve as one batch"):
        solve_batch([base, dataclasses.replace(base, atol=1e-6)])


def test_lsqr_solve_batch_validates_b(small_system):
    with pytest.raises(ValueError):
        lsqr_solve_batch(small_system, small_system.rhs())  # 1-D
    bad = np.stack([small_system.rhs()] * 2)
    bad[1, 0] = np.nan
    with pytest.raises(ValueError):
        lsqr_solve_batch(small_system, bad)
    with pytest.raises(ValueError):
        lsqr_solve_batch(small_system,
                         np.stack([small_system.rhs()] * 2),
                         damps=[0.0, 0.0, 0.0])  # K mismatch


# ----------------------------------------------------------------------
# The batched CSR product at a production-like shape
# ----------------------------------------------------------------------

def _spmm_scale_system():
    dims = SystemDims(n_stars=180, n_obs=4500, n_deg_freedom_att=4,
                      n_instr_params=6, n_glob_params=1)
    return make_system(dims, seed=7, noise_sigma=1e-9)


def test_spmm_batch_matches_serial_fused_solves():
    """One sparse-times-dense pass for K=8 members at 4500 rows: every
    member is bitwise its serial solve on the default path."""
    system = _spmm_scale_system()
    rng = np.random.default_rng(5)
    members = [system] + [
        dataclasses.replace(
            system,
            known_terms=system.known_terms + rng.normal(
                scale=1e-9, size=system.known_terms.shape))
        for _ in range(7)
    ]
    serial = [lsqr_solve(m, iter_lim=40) for m in members]
    calls = []
    op = AprodOperator(system,
                       kernel_hook=lambda name, *_: calls.append(name))
    batched = lsqr_solve_batch(
        op, np.stack([m.rhs() for m in members]), iter_lim=40)
    assert set(calls) == {"aprod1_csr", "aprod2_csr"}
    for b, s in zip(batched, serial):
        _assert_member_equal(b, s)
