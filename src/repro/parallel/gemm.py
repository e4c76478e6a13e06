"""Parallel dgemm substrate.

:func:`dgemm` runs a leaf multiplication on ``t`` threads the way the
paper uses multithreaded MKL: pin the vendor BLAS to ``t`` threads for
the call (closest to ``mkl_set_num_threads`` + ``dgemm``).
"""

from __future__ import annotations

import numpy as np

from repro.parallel import blas


def dgemm(
    A: np.ndarray, B: np.ndarray, threads: int = 1,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Vendor gemm at an explicit thread count, into ``out`` when given."""
    with blas.blas_threads(threads):
        if out is None:
            return A @ B
        np.matmul(A, B, out=out)
        return out
