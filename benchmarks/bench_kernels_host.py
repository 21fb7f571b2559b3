"""E17: genuine host-CPU measurements of the aprod kernels.

Unlike the modeled GPU figures, these numbers are *measured* on the
machine running the suite: the NumPy execution strategies of the
aprod1/aprod2 kernels on a real mid-sized system.  They quantify the
same trade-off the GPU ports face -- unordered scatter ("atomic",
``np.add.at``) vs keyed reduction ("bincount") vs the collision-free
astrometric fast path ("sorted") -- next to the solver's default, one
CSR product per direction.
"""

import numpy as np
import pytest

from repro.core.aprod import AprodOperator
from repro.system import SystemDims, make_system


@pytest.fixture(scope="module")
def host_system():
    dims = SystemDims(n_stars=2_000, n_obs=60_000,
                      n_deg_freedom_att=64, n_instr_params=200,
                      n_glob_params=1)
    return make_system(dims, seed=1)


@pytest.fixture(scope="module")
def vectors(host_system):
    rng = np.random.default_rng(2)
    return (rng.normal(size=host_system.dims.n_params),
            rng.normal(size=host_system.n_rows))


def test_aprod1_vectorized(benchmark, host_system, vectors):
    x, _ = vectors
    op = AprodOperator(host_system, gather_strategy="vectorized")
    out = benchmark(op.aprod1, x)
    assert out.shape == (host_system.n_rows,)


def test_aprod1_csr(benchmark, host_system, vectors):
    x, _ = vectors
    out = benchmark(AprodOperator(host_system).aprod1, x)
    assert out.shape == (host_system.n_rows,)


def test_aprod2_csr(benchmark, host_system, vectors):
    _, y = vectors
    out = benchmark(AprodOperator(host_system).aprod2, y)
    assert out.shape == (host_system.dims.n_params,)


@pytest.mark.parametrize("scatter", ["atomic", "bincount"])
def test_aprod2_scatter_strategies(benchmark, host_system, vectors,
                                   scatter):
    _, y = vectors
    op = AprodOperator(host_system, scatter_strategy=scatter,
                       astro_scatter_strategy=scatter)
    out = benchmark(op.aprod2, y)
    assert out.shape == (host_system.dims.n_params,)


def test_aprod2_astro_sorted_fast_path(benchmark, host_system, vectors):
    _, y = vectors
    op = AprodOperator(host_system, scatter_strategy="bincount",
                       astro_scatter_strategy="sorted")
    out = benchmark(op.aprod2, y)
    assert out.shape == (host_system.dims.n_params,)


def test_full_lsqr_iteration_host(benchmark, host_system):
    """One real preconditioned LSQR iteration on the host -- the
    paper's figure of merit, measured rather than modeled."""
    from repro.core import lsqr_solve

    def _three_iterations():
        return lsqr_solve(host_system, iter_lim=3, atol=0.0, btol=0.0,
                          calc_var=False)

    res = benchmark.pedantic(_three_iterations, rounds=3, iterations=1)
    assert res.itn == 3
    assert res.mean_iteration_time > 0


def test_scipy_csr_matvec_reference(benchmark, host_system, vectors):
    """SciPy CSR matvec as the comparator for the structured kernels."""
    x, _ = vectors
    a = host_system.to_scipy_csr()
    out = benchmark(a.__matmul__, x)
    assert out.shape == (host_system.n_rows,)
