"""The compiled CSR operator against the pure-Python ``loop`` oracle.

:class:`~repro.core.aprod.AprodOperator` multiplies with one CSR matrix
built by :meth:`~repro.system.GaiaSystem.to_scipy_csr` -- the same
constructor the benchmark's SciPy reference solve uses.  The oracle in
this file therefore never goes through that constructor: it runs the
``loop`` gather/scatter kernels straight over the compressed arrays and
walks the constraint rows one coefficient at a time.  Covered:
``aprod1`` / ``aprod2`` with and without constraint rows, the batched
products, bitwise-identical repeated applications, the column norms,
the kernel telemetry, the explicit per-submatrix strategies that stay
selectable, and the astrometric ``sorted`` segment scatter.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aprod import AprodOperator
from repro.core.kernels.astro import aprod2_astro
from repro.core.kernels.gather_scatter import gather_dot, scatter_add
from repro.core.lsqr import lsqr_solve
from repro.obs.telemetry import Telemetry
from repro.system import SystemDims, make_system
from repro.system.constraints import ConstraintRow, ConstraintSet


# ----------------------------------------------------------------------
# The oracle: loop kernels over the compressed arrays
# ----------------------------------------------------------------------
def _blocks(system):
    """(values, global columns) of every submatrix, from the arrays."""
    d = system.dims
    blocks = [(system.astro_values, system.astro_columns()),
              (system.att_values, system.att_columns()),
              (system.instr_values, system.instr_columns())]
    if d.n_glob_params:
        blocks.append((system.glob_values[:, :1],
                       np.full((d.n_obs, 1), d.glob_offset)))
    return blocks


def _constraint_rows(system):
    return [] if system.constraints is None else list(system.constraints)


def loop_aprod1(system, x):
    n_obs = system.dims.n_obs
    out = np.zeros(system.n_rows)
    for values, cols in _blocks(system):
        gather_dot(values, cols, x, out[:n_obs], strategy="loop")
    for i, row in enumerate(_constraint_rows(system)):
        for c, v in zip(row.cols, row.vals):
            out[n_obs + i] += v * x[c]
    return out


def loop_aprod2(system, y):
    n_obs = system.dims.n_obs
    out = np.zeros(system.dims.n_params)
    for values, cols in _blocks(system):
        scatter_add(values, cols, y[:n_obs], out, strategy="loop")
    for i, row in enumerate(_constraint_rows(system)):
        for c, v in zip(row.cols, row.vals):
            out[c] += v * y[n_obs + i]
    return out


def loop_column_sq_norms(system):
    out = np.zeros(system.dims.n_params)
    for values, cols in _blocks(system):
        for i in range(values.shape[0]):
            for v, c in zip(values[i], cols[i]):
                out[c] += v * v
    for row in _constraint_rows(system):
        for c, v in zip(row.cols, row.vals):
            out[c] += v * v
    return out


@st.composite
def system_case(draw):
    """A small random system, with or without constraint rows."""
    dims = SystemDims(
        n_stars=draw(st.integers(2, 6)),
        n_obs=draw(st.integers(20, 60)),
        n_deg_freedom_att=draw(st.integers(4, 8)),
        n_instr_params=draw(st.integers(6, 10)),
        n_glob_params=draw(st.integers(0, 1)),
    )
    system = make_system(dims, seed=draw(st.integers(0, 2**16)),
                         shuffle_rows=draw(st.booleans()),
                         with_constraints=draw(st.booleans()))
    return system, np.random.default_rng(draw(st.integers(0, 2**16)))


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


# ----------------------------------------------------------------------
# aprod1 / aprod2 / column norms against the oracle
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(case=system_case())
def test_fused_gather_matches_loop_reference(case):
    """CSR ``aprod1`` -- the four submatrix gathers fused into one row
    pass, constraint rows included -- matches the loop oracle."""
    system, rng = case
    x = rng.normal(size=system.dims.n_params)
    _close(AprodOperator(system).aprod1(x), loop_aprod1(system, x))


@settings(max_examples=40, deadline=None)
@given(case=system_case())
def test_csr_aprod2_matches_loop_reference(case):
    """CSR ``aprod2`` (the CSC view of ``A``) matches the loop oracle."""
    system, rng = case
    y = rng.normal(size=system.n_rows)
    _close(AprodOperator(system).aprod2(y), loop_aprod2(system, y))


@settings(max_examples=20, deadline=None)
@given(case=system_case())
def test_column_sq_norms_match_loop_reference(case):
    system, _ = case
    _close(AprodOperator(system).column_sq_norms(),
           loop_column_sq_norms(system))


def _with_and_without_constraints(system):
    assert system.constraints is not None and len(system.constraints)
    return [system, dataclasses.replace(system, constraints=None)]


def test_plan_matches_reference_on_glob_system(small_system, rng):
    for system in _with_and_without_constraints(small_system):
        op = AprodOperator(system)
        x = rng.normal(size=op.shape[1])
        y = rng.normal(size=op.shape[0])
        _close(op.aprod1(x), loop_aprod1(system, x))
        _close(op.aprod2(y), loop_aprod2(system, y))


def test_plan_matches_reference_without_glob(noglob_system, rng):
    for system in _with_and_without_constraints(noglob_system):
        op = AprodOperator(system)
        x = rng.normal(size=op.shape[1])
        y = rng.normal(size=op.shape[0])
        _close(op.aprod1(x), loop_aprod1(system, x))
        _close(op.aprod2(y), loop_aprod2(system, y))


def test_batched_products_match_loop_reference(small_system):
    """Each member of a batched product is bitwise its solo product,
    and both agree with the oracle."""
    rng = np.random.default_rng(8)
    op = AprodOperator(small_system)
    m, n = op.shape
    X = rng.normal(size=(4, n))
    Y = rng.normal(size=(4, m))
    base1 = rng.normal(size=(4, m))
    base2 = rng.normal(size=(4, n))
    out1 = op.aprod1_batch(X, out=base1.copy())
    out2 = op.aprod2_batch(Y, out=base2.copy())
    for j in range(4):
        np.testing.assert_array_equal(
            out1[j], op.aprod1(X[j], out=base1[j].copy()))
        np.testing.assert_array_equal(
            out2[j], op.aprod2(Y[j], out=base2[j].copy()))
        _close(out1[j] - base1[j], loop_aprod1(small_system, X[j]))
        _close(out2[j] - base2[j], loop_aprod2(small_system, Y[j]))


def test_repeated_applications_bitwise_identical(shuffled_system):
    """Summation order is fixed by the CSR layout: repeated products,
    on one operator or on a rebuilt one, are bitwise identical."""
    rng = np.random.default_rng(9)
    op = AprodOperator(shuffled_system)
    x = rng.normal(size=op.shape[1])
    y = rng.normal(size=op.shape[0])
    X = rng.normal(size=(3, op.shape[1]))
    Y = rng.normal(size=(3, op.shape[0]))
    first = (op.aprod1(x), op.aprod2(y), op.aprod1_batch(X),
             op.aprod2_batch(Y))
    for again_op in (op, AprodOperator(shuffled_system)):
        again = (again_op.aprod1(x), again_op.aprod2(y),
                 again_op.aprod1_batch(X), again_op.aprod2_batch(Y))
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a, b)


def _assert_default_is_csr(system):
    """The default operator runs one CSR kernel per direction, over a
    matrix with int32 indices and the constraint rows as ordinary rows."""
    calls = []
    op = AprodOperator(system,
                       kernel_hook=lambda name, *_: calls.append(name))
    op.aprod1(np.zeros(op.shape[1]))
    op.aprod2(np.zeros(op.shape[0]))
    assert calls == ["aprod1_csr", "aprod2_csr"]
    a = system.to_scipy_csr()
    assert a.shape == op.shape
    assert a.indices.dtype == np.int32 and a.indptr.dtype == np.int32
    n_con = len(system.constraints)
    assert a.indptr[-1] - a.indptr[-1 - n_con] == sum(
        row.cols.size for row in system.constraints)


def test_auto_resolves_classic_below_min_obs(small_system):
    """Small systems, which a size heuristic once sent to the classic
    per-submatrix kernels, resolve to the CSR operator."""
    _assert_default_is_csr(small_system)


def test_auto_resolves_fused_above_min_obs():
    """Systems at the former fused-plan threshold (4096 observations)
    resolve to the same CSR operator: no size heuristic chooses among
    kernels any more."""
    big = make_system(SystemDims(n_stars=200, n_obs=4096,
                                 n_deg_freedom_att=24, n_instr_params=30,
                                 n_glob_params=1), seed=3)
    _assert_default_is_csr(big)


def test_fused_gather_bounds_and_shape_checks(small_system):
    """The CSR gather rejects misshapen operands, and building the
    matrix rejects constraint columns outside the unknown space."""
    op = AprodOperator(small_system)
    m, n = op.shape
    with pytest.raises(ValueError, match="x has shape"):
        op.aprod1(np.zeros(n + 1))
    with pytest.raises(ValueError, match="out has shape"):
        op.aprod1(np.zeros(n), out=np.zeros(m - 1))
    with pytest.raises(ValueError, match="X has shape"):
        op.aprod1_batch(np.zeros((2, n + 1)))
    with pytest.raises(ValueError, match="Y has shape"):
        op.aprod2_batch(np.zeros((2, m + 1)))
    with pytest.raises(ValueError, match="out has shape"):
        op.aprod2_batch(np.zeros((2, m)), out=np.zeros((3, n)))
    bad = ConstraintSet([ConstraintRow(cols=[0, n], vals=[1.0, 1.0])])
    with pytest.raises(ValueError, match="outside"):
        AprodOperator(dataclasses.replace(small_system, constraints=bad))


def test_plan_solution_matches_reference_solve(small_system):
    """The CSR solve agrees with the classic four-kernel solve."""
    csr = lsqr_solve(small_system, iter_lim=40, calc_var=False)
    ref = lsqr_solve(small_system, gather_strategy="vectorized",
                     scatter_strategy="bincount",
                     astro_scatter_strategy="bincount", iter_lim=40,
                     calc_var=False)
    np.testing.assert_allclose(csr.x, ref.x, rtol=1e-8, atol=1e-10)


def test_plan_emits_fused_kernel_telemetry(small_system, rng):
    """One fused kernel per direction in the launch counters, plus one
    operator build."""
    tel = Telemetry()
    op = AprodOperator(small_system, telemetry=tel)
    op.aprod1(rng.normal(size=op.shape[1]))
    op.aprod2(rng.normal(size=op.shape[0]))
    op.aprod1_batch(rng.normal(size=(3, op.shape[1])))
    nnz = small_system.to_scipy_csr().nnz
    count = tel.metrics.counter_value
    assert count("aprod.operator_builds") == 1
    assert count("aprod.kernel_calls", kernel="aprod1_csr") == 2
    assert count("aprod.kernel_calls", kernel="aprod2_csr") == 1
    assert count("aprod.kernel_nnz", kernel="aprod1_csr") == 4 * nnz
    assert count("aprod.kernel_nnz", kernel="aprod2_csr") == nnz


def test_explicit_strategies_remain_selectable(small_system, rng):
    """The per-submatrix strategies stay available and agree with the
    default CSR products; unknown names are rejected."""
    x = rng.normal(size=small_system.dims.n_params)
    y = rng.normal(size=small_system.n_rows)
    ref = AprodOperator(small_system)
    for g in ("vectorized", "chunked", "loop"):
        _close(AprodOperator(small_system, gather_strategy=g).aprod1(x),
               ref.aprod1(x))
    for s in ("atomic", "bincount", "chunked", "loop"):
        op = AprodOperator(small_system, scatter_strategy=s,
                           astro_scatter_strategy=s)
        _close(op.aprod2(y), ref.aprod2(y))
    for kwargs in ({"gather_strategy": "fused"},
                   {"scatter_strategy": "sorted_segment"},
                   {"astro_scatter_strategy": "magic"}):
        with pytest.raises(ValueError, match="strategy"):
            AprodOperator(small_system, **kwargs)


# ----------------------------------------------------------------------
# The astrometric sorted segment scatter (an explicit strategy)
# ----------------------------------------------------------------------
@st.composite
def astro_case(draw):
    m = draw(st.integers(0, 40))
    n_stars = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    stars = np.sort(rng.integers(0, n_stars, size=m))
    cols = stars[:, None] * 5 + np.arange(5)
    return rng.normal(size=(m, 5)), cols, 5 * n_stars, rng


@settings(max_examples=50, deadline=None)
@given(case=astro_case())
def test_sorted_segment_matches_loop_reference(case):
    values, cols, n, rng = case
    y = rng.normal(size=values.shape[0])
    ref = np.zeros(n)
    scatter_add(values, cols, y, ref, strategy="loop")
    out = np.zeros(n)
    aprod2_astro(values, cols, y, out, strategy="sorted")
    _close(out, ref)


@settings(max_examples=30, deadline=None)
@given(case=astro_case())
def test_sorted_segment_bitwise_deterministic(case):
    values, cols, n, rng = case
    y = rng.normal(size=values.shape[0])
    first = np.zeros(n)
    aprod2_astro(values, cols, y, first, strategy="sorted")
    again = np.zeros(n)
    aprod2_astro(values, cols, y, again, strategy="sorted")
    assert np.array_equal(first, again)


def test_sorted_segment_rejects_bad_shapes():
    values = np.ones((3, 5))
    cols = np.array([10, 0, 5])[:, None] + np.arange(5)
    with pytest.raises(ValueError, match="star-sorted"):
        aprod2_astro(values, cols, np.ones(3), np.zeros(15),
                     strategy="sorted")
    with pytest.raises(ValueError):
        aprod2_astro(values, np.sort(cols, axis=0), np.ones(4),
                     np.zeros(15), strategy="sorted")
