"""CSR sparse matrix-vector multiply — the power-iteration workhorse.

The paper's spectral refinement spends nearly all its time in SpMV
(Section III-C, via Kokkos Kernels); ours is a vectorised gather +
segmented reduction, cost-charged as the row-parallel CSR kernel: one
stream of the CSR arrays, one data-dependent gather of ``x``, one flop
per stored entry.
"""

from __future__ import annotations

import numpy as np

from ..csr.graph import CSRGraph
from ..parallel.cost import KernelCost
from ..parallel.execspace import ExecSpace
from ..parallel import tiles as _tiles
from ..types import WT

__all__ = ["spmv", "spmm", "laplacian_spmv"]

_B = 8

#: live temporaries per window entry of a budgeted sweep (products +
#: gathered x + adjncy/ewgts window views)
_SPMV_BPE = 4 * _B


def _spmm_bpe(k: int) -> int:
    """Per-entry transient of the blocked kernel: (n, k) gather + products."""
    return (2 * k + 2) * _B


def _row_products_sum(g: CSRGraph, X: np.ndarray, Y: np.ndarray) -> None:
    """``Y = A X`` row by row, one row-window plan sweep.

    Every CSR row lies wholly inside one window, so each row's products
    sum left to right exactly as one global ``np.add.reduceat`` would
    associate them; windows write the disjoint ``Y[r0:r1]`` slices.
    ``X`` is a vector or an ``(n, k)`` block (the per-entry transient
    scales with ``k``).
    """
    bpe = _SPMV_BPE if X.ndim == 1 else _spmm_bpe(X.shape[1])

    def window(r0, r1, e0, e1):
        xw = _tiles.local_xadj(g.xadj, r0, r1, e0)
        nonempty = np.flatnonzero(np.diff(xw) > 0)
        if len(nonempty):
            w = g.ewgts[e0:e1]
            products = (w if X.ndim == 1 else w[:, None]) * X[g.adjncy[e0:e1]]
            Y[r0:r1][nonempty] = np.add.reduceat(products, xw[nonempty], axis=0)

    _tiles.for_each_row_window(g, g.xadj, g.m_directed, bpe, window)


def spmv(g: CSRGraph, x: np.ndarray, space: ExecSpace | None = None, phase: str = "refinement") -> np.ndarray:
    """``y = A x`` for the (weighted) adjacency matrix of ``g``."""
    y = np.zeros(g.n, dtype=WT)
    _row_products_sum(g, x, y)
    if space is not None:
        nnz = g.m_directed
        # the x-vector gather is random *only* when x exceeds the last-
        # level cache; coarse-level vectors are cache-resident, which is
        # why multilevel refinement sweeps are nearly bandwidth-optimal
        gather = _B * nnz
        if _B * g.n <= space.machine.cache_bytes:
            cost = KernelCost(
                stream_bytes=2.0 * _B * nnz + 3.0 * _B * g.n + gather,
                flops=2.0 * nnz,
                launches=1,
            )
        else:
            cost = KernelCost(
                stream_bytes=2.0 * _B * nnz + 3.0 * _B * g.n,
                random_bytes=gather,
                flops=2.0 * nnz,
                launches=1,
            )
        space.ledger.charge(phase, cost)
    return y


def spmm(g: CSRGraph, X: np.ndarray, space: ExecSpace | None = None, phase: str = "refinement") -> np.ndarray:
    """``Y = A X`` for an ``(n, k)`` block of vectors (blocked SpMV).

    The spectral SpMM inner loop: block power iteration applies the
    operator to all ``k`` iterate vectors with one sweep of the CSR
    arrays instead of ``k`` SpMV sweeps.  The same row-window body as
    :func:`spmv`, so the resident, budgeted and tiled executions are
    byte-identical.

    The charge is issued once, after the sweep: the CSR stream is paid
    once, the ``X`` gather and the flops ``k`` times.
    """
    X = np.ascontiguousarray(X, dtype=WT)
    if X.ndim == 1:
        X = X[:, None]
    k = X.shape[1]
    Y = np.zeros((g.n, k), dtype=WT)
    _row_products_sum(g, X, Y)
    if space is not None:
        nnz = g.m_directed
        gather = float(k) * _B * nnz
        if _B * k * g.n <= space.machine.cache_bytes:
            cost = KernelCost(
                stream_bytes=2.0 * _B * nnz + 3.0 * _B * k * g.n + gather,
                flops=2.0 * k * nnz,
                launches=1,
            )
        else:
            cost = KernelCost(
                stream_bytes=2.0 * _B * nnz + 3.0 * _B * k * g.n,
                random_bytes=gather,
                flops=2.0 * k * nnz,
                launches=1,
            )
        space.ledger.charge(phase, cost)
    return Y


def laplacian_spmv(
    g: CSRGraph,
    x: np.ndarray,
    degrees: np.ndarray,
    space: ExecSpace | None = None,
    phase: str = "refinement",
) -> np.ndarray:
    """``y = L x = D x - A x`` with the Laplacian kept implicit."""
    y = degrees * x - spmv(g, x, space, phase)
    if space is not None:
        space.ledger.charge(
            phase, KernelCost(stream_bytes=3.0 * _B * g.n, flops=2.0 * g.n)
        )
    return y
