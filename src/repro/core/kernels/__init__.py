"""Per-submatrix ``aprod`` kernels.

The CUDA production code implements ``aprod1`` and ``aprod2`` as four
kernels each -- ``aprod{1,2}_Kernel_astro/att/instr/glob()`` (§IV).
This package mirrors that decomposition:

- :mod:`repro.core.kernels.gather_scatter` -- the shared dense
  gather-dot (row-parallel, collision-free, like ``aprod1``) and
  scatter-add (column updates that collide, like ``aprod2``)
  primitives, each with several execution strategies;
- :mod:`repro.core.kernels.astro` / :mod:`~repro.core.kernels.att` /
  :mod:`~repro.core.kernels.instr` / :mod:`~repro.core.kernels.glob`
  -- the per-submatrix kernels, including the astrometric fast path
  that exploits the block-diagonal structure to avoid atomics
  altogether (the same observation the paper makes in §IV).

Scatter strategies and their GPU analogues:

==================  ===================================================
``atomic``          ``np.add.at`` unordered scatter -- the analogue of
                    the GPU atomic read-modify-write path
``bincount``        key-sorted reduction -- the analogue of a
                    collision-free reduction tree
``sorted``          ``np.add.reduceat`` over pre-sorted keys (astro
                    only)
``loop``            pure-Python reference used to validate the others
==================  ===================================================

None of these is the solver's hot path: :class:`~repro.core.aprod.
AprodOperator` multiplies with one CSR matrix by default and runs these
kernels only when a strategy is named explicitly -- the ``loop``
reference as the test oracle, the scatters to emulate each port's
summation order.
"""

from repro.core.kernels.gather_scatter import (
    GATHER_STRATEGIES,
    SCATTER_STRATEGIES,
    gather_dot,
    scatter_add,
)
from repro.core.kernels import astro, att, glob, instr

__all__ = [
    "GATHER_STRATEGIES",
    "SCATTER_STRATEGIES",
    "gather_dot",
    "scatter_add",
    "astro",
    "att",
    "instr",
    "glob",
]
