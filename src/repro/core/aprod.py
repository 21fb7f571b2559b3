"""The ``aprod1`` / ``aprod2`` operator.

§III-B: the two most intensive computations of one LSQR iteration are

- ``aprod1``:  ``b_hat = A @ x``          (Eq. 3)
- ``aprod2``:  ``x_hat += A.T @ b_hat``   (Eq. 4)

:class:`AprodOperator` binds a :class:`~repro.system.GaiaSystem` to one
compiled operator: the system expanded once into a SciPy CSR matrix
``A`` (int32 indices, the constraint rows as ordinary rows, see
:meth:`~repro.system.GaiaSystem.to_scipy_csr`).  ``aprod1`` is
``out += A @ x``; ``aprod2`` is ``out += A.T @ y`` through the CSC view
over the same three arrays, so no transposed copy is ever built.  The
batched products run one sparse-times-dense pass over the whole
``(n, K)`` block, and each member's column is bitwise its solo product.
A bandwidth-bound kernel is decided by the bytes it moves per nonzero,
and CSR moves 12 (an 8-byte coefficient plus a 4-byte column index).

The per-submatrix kernels of :mod:`repro.core.kernels` -- the
``aprod{1,2}_Kernel_astro/att/instr/glob`` split of the CUDA code (§IV)
-- stay selectable as explicit strategies, never as the default: the
pure-Python ``loop`` reference is the test oracle, and the ``atomic`` /
``bincount`` / ``sorted`` scatters emulate the summation orders of the
individual ports for the Fig. 6 comparison
(:mod:`repro.validation.compare`).

Every kernel execution can be reported to a profiler hook (the Python
analogue of running under ``nsys``/``rocprof``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.kernels import astro as k_astro
from repro.core.kernels import att as k_att
from repro.core.kernels import glob as k_glob
from repro.core.kernels import instr as k_instr
from repro.core.kernels.gather_scatter import (
    GATHER_STRATEGIES,
    SCATTER_STRATEGIES,
)
from repro.obs.telemetry import Telemetry
from repro.system.sparse import GaiaSystem

#: The default strategy of both directions: one pass over the CSR ``A``.
CSR = "csr"

#: Hook signature: (kernel_name, rows, nnz) -> None.
KernelHook = Callable[[str, int, int], None]


class AprodOperator:
    """``A`` / ``A^T`` products for one system.

    Parameters
    ----------
    system:
        The bound system.
    gather_strategy:
        ``"csr"`` (the default) runs ``aprod1`` as one CSR product;
        any of :data:`~repro.core.kernels.GATHER_STRATEGIES` runs the
        four per-submatrix gather kernels with that strategy instead.
    scatter_strategy:
        ``"csr"`` (the default) runs ``aprod2`` through the CSC view of
        ``A``; any of :data:`~repro.core.kernels.SCATTER_STRATEGIES`
        runs the per-submatrix scatter kernels, with this strategy for
        the colliding attitude and instrumental blocks.
    astro_scatter_strategy:
        Strategy of the astrometric scatter kernel when
        ``scatter_strategy`` is not ``"csr"``: ``bincount`` (default)
        or another of :data:`~repro.core.kernels.SCATTER_STRATEGIES`,
        or the ``sorted`` fast path of star-sorted systems.
    kernel_hook:
        Optional callable invoked after each kernel with
        ``(name, rows, nnz)``.
    telemetry:
        Optional :class:`~repro.obs.Telemetry`.  Building the operator
        increments ``aprod.operator_builds``; every kernel execution
        increments ``aprod.kernel_calls`` and ``aprod.kernel_nnz``
        (labeled by kernel name, e.g. ``aprod1_csr``), the CPU-side
        analogue of the per-kernel launch counts ``nsys`` reports.
    """

    def __init__(
        self,
        system: GaiaSystem,
        *,
        gather_strategy: str = CSR,
        scatter_strategy: str = CSR,
        astro_scatter_strategy: str = "bincount",
        kernel_hook: KernelHook | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        if gather_strategy not in (CSR, *GATHER_STRATEGIES):
            raise ValueError(
                f"unknown gather strategy {gather_strategy!r}; expected "
                f"one of {(CSR, *GATHER_STRATEGIES)}"
            )
        if scatter_strategy not in (CSR, *SCATTER_STRATEGIES):
            raise ValueError(
                f"unknown scatter strategy {scatter_strategy!r}; "
                f"expected one of {(CSR, *SCATTER_STRATEGIES)}"
            )
        if astro_scatter_strategy not in ("sorted", *SCATTER_STRATEGIES):
            raise ValueError(
                f"unknown astro scatter strategy "
                f"{astro_scatter_strategy!r}; expected one of "
                f"{('sorted', *SCATTER_STRATEGIES)}"
            )
        self.system = system
        self.gather_strategy = gather_strategy
        self.scatter_strategy = scatter_strategy
        self.astro_scatter_strategy = astro_scatter_strategy
        self.kernel_hook = kernel_hook
        self.telemetry = telemetry

        self._a = self._at = None
        if CSR in (gather_strategy, scatter_strategy):
            self._a = system.to_scipy_csr()
            self._at = self._a.T  # CSC view over the same arrays
        if gather_strategy != CSR or scatter_strategy != CSR:
            # Column caches of the per-submatrix kernels.
            d = system.dims
            self._astro_cols = k_astro.columns(system.matrix_index_astro)
            self._att_cols = k_att.columns(
                system.matrix_index_att, d.att_stride, d.att_offset
            )
            self._instr_cols = k_instr.columns(system.instr_col,
                                               d.instr_offset)
            self._glob_col = d.glob_offset if d.n_glob_params else -1
        if telemetry is not None:
            telemetry.counter("aprod.operator_builds").inc()

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        """(rows including constraints, unknowns)."""
        return (self.system.n_rows, self.system.dims.n_params)

    def _emit(self, name: str, rows: int, nnz: int) -> None:
        if self.kernel_hook is not None:
            self.kernel_hook(name, rows, nnz)
        if self.telemetry is not None:
            self.telemetry.counter("aprod.kernel_calls", kernel=name).inc()
            self.telemetry.counter("aprod.kernel_nnz", kernel=name).inc(nnz)

    @staticmethod
    def _accumulator(out: np.ndarray | None, shape: tuple[int, ...]
                     ) -> np.ndarray:
        if out is None:
            return np.zeros(shape)
        if out.shape != shape:
            raise ValueError(
                f"out has shape {out.shape}, expected {shape}"
            )
        return out

    # ------------------------------------------------------------------
    def aprod1(self, x: np.ndarray, out: np.ndarray | None = None
               ) -> np.ndarray:
        """``out += A @ x`` over observation and constraint rows.

        Returns the (n_rows,) accumulator; allocates it when ``out`` is
        None.
        """
        m, n = self.shape
        if x.shape != (n,):
            raise ValueError(f"x has shape {x.shape}, expected ({n},)")
        out = self._accumulator(out, (m,))
        if self.gather_strategy == CSR:
            out += self._a @ x
            self._emit("aprod1_csr", m, self._a.nnz)
        else:
            self._aprod1_kernels(x, out)
        return out

    def aprod2(self, y: np.ndarray, out: np.ndarray | None = None
               ) -> np.ndarray:
        """``out += A.T @ y`` over observation and constraint rows.

        Returns the (n_params,) accumulator; allocates it when ``out``
        is None.  The CSC product sums each column's contributions in
        row order, so repeated applications are bitwise identical.
        """
        m, n = self.shape
        if y.shape != (m,):
            raise ValueError(f"y has shape {y.shape}, expected ({m},)")
        out = self._accumulator(out, (n,))
        if self.scatter_strategy == CSR:
            out += self._at @ y
            self._emit("aprod2_csr", m, self._a.nnz)
        else:
            self._aprod2_kernels(y, out)
        return out

    # -- the per-submatrix kernels (explicit strategies only) -----------
    def _aprod1_kernels(self, x: np.ndarray, out: np.ndarray) -> None:
        sysm = self.system
        d = sysm.dims
        obs = out[: d.n_obs]
        k_astro.aprod1_astro(sysm.astro_values, self._astro_cols, x, obs,
                             strategy=self.gather_strategy)
        self._emit("aprod1_astro", d.n_obs, d.n_obs * 5)
        k_att.aprod1_att(sysm.att_values, self._att_cols, x, obs,
                         strategy=self.gather_strategy)
        self._emit("aprod1_att", d.n_obs, d.n_obs * 12)
        k_instr.aprod1_instr(sysm.instr_values, self._instr_cols, x, obs,
                             strategy=self.gather_strategy)
        self._emit("aprod1_instr", d.n_obs, d.n_obs * 6)
        if d.n_glob_params:
            k_glob.aprod1_glob(sysm.glob_values, self._glob_col, x, obs)
            self._emit("aprod1_glob", d.n_obs, d.n_obs)
        if sysm.constraints is not None and len(sysm.constraints):
            out[d.n_obs:] += sysm.constraints.apply_forward(x)

    def _aprod2_kernels(self, y: np.ndarray, out: np.ndarray) -> None:
        sysm = self.system
        d = sysm.dims
        obs_y = y[: d.n_obs]
        k_astro.aprod2_astro(sysm.astro_values, self._astro_cols, obs_y,
                             out, strategy=self.astro_scatter_strategy)
        self._emit("aprod2_astro", d.n_obs, d.n_obs * 5)
        k_att.aprod2_att(sysm.att_values, self._att_cols, obs_y, out,
                         strategy=self.scatter_strategy)
        self._emit("aprod2_att", d.n_obs, d.n_obs * 12)
        k_instr.aprod2_instr(sysm.instr_values, self._instr_cols, obs_y,
                             out, strategy=self.scatter_strategy)
        self._emit("aprod2_instr", d.n_obs, d.n_obs * 6)
        if d.n_glob_params:
            k_glob.aprod2_glob(sysm.glob_values, self._glob_col, obs_y,
                               out)
            self._emit("aprod2_glob", d.n_obs, d.n_obs)
        if sysm.constraints is not None and len(sysm.constraints):
            sysm.constraints.apply_transpose(y[d.n_obs:], out)

    # -- trailing batch axis -------------------------------------------
    def aprod1_batch(self, X: np.ndarray, out: np.ndarray | None = None
                     ) -> np.ndarray:
        """``out[j] += A @ X[j]`` for a stacked batch of unknown vectors.

        ``X`` is ``(K, n_params)`` batch-major; returns the
        ``(K, n_rows)`` accumulator (allocated when ``out`` is None).
        One CSR pass reads the matrix once for the whole batch, and
        member ``j`` is bitwise ``aprod1(X[j])`` (explicit strategies
        loop over the members).
        """
        m, n = self.shape
        if X.ndim != 2 or X.shape[1] != n:
            raise ValueError(f"X has shape {X.shape}, expected (K, {n})")
        k = X.shape[0]
        out = self._accumulator(out, (k, m))
        if self.gather_strategy == CSR:
            out += (self._a @ X.T).T
            self._emit("aprod1_csr", k * m, k * self._a.nnz)
        else:
            for j in range(k):
                self.aprod1(X[j], out=out[j])
        return out

    def aprod2_batch(self, Y: np.ndarray, out: np.ndarray | None = None
                     ) -> np.ndarray:
        """``out[j] += A.T @ Y[j]`` for a stacked batch of row vectors.

        ``Y`` is ``(K, n_rows)``; returns the ``(K, n_params)``
        accumulator.  Member ``j`` is bitwise ``aprod2(Y[j])``.
        """
        m, n = self.shape
        if Y.ndim != 2 or Y.shape[1] != m:
            raise ValueError(f"Y has shape {Y.shape}, expected (K, {m})")
        k = Y.shape[0]
        out = self._accumulator(out, (k, n))
        if self.scatter_strategy == CSR:
            out += (self._at @ Y.T).T
            self._emit("aprod2_csr", k * m, k * self._a.nnz)
        else:
            for j in range(k):
                self.aprod2(Y[j], out=out[j])
        return out

    # ------------------------------------------------------------------
    def column_sq_norms(self) -> np.ndarray:
        """Squared column norms of ``A`` (observations + constraints).

        Taken from :meth:`~repro.system.GaiaSystem.column_sq_norms`,
        the one definition every solve path shares.
        """
        return self.system.column_sq_norms()

    def as_linear_operator(self):
        """SciPy ``LinearOperator`` view (for cross-checks)."""
        from scipy.sparse.linalg import LinearOperator

        return LinearOperator(
            shape=self.shape,
            matvec=lambda x: self.aprod1(np.asarray(x, dtype=np.float64)),
            rmatvec=lambda y: self.aprod2(np.asarray(y, dtype=np.float64)),
            dtype=np.float64,
        )


def aprod1(system: GaiaSystem, x: np.ndarray) -> np.ndarray:
    """One-shot ``A @ x`` (builds a transient operator)."""
    return AprodOperator(system).aprod1(x)


def aprod2(system: GaiaSystem, y: np.ndarray) -> np.ndarray:
    """One-shot ``A.T @ y`` (builds a transient operator)."""
    return AprodOperator(system).aprod2(y)
