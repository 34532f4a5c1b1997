"""Fiduccia-Mattheyses refinement (linear-time heuristic, 1982).

The paper's FM is sequential ("our FM implementation is currently
sequential, running on the CPU") and is the refinement that beats the
spectral method on 19 of 20 graphs (Table VI).  This is the classic
formulation with vertex weights for the coarse levels:

* per-pass, every vertex may move once (locked afterwards);
* moves are picked best-gain-first from gain-keyed heaps (one per side)
  with lazy invalidation, subject to the balance constraint;
* a popped vertex whose move would break the balance constraint is
  rejected, and the rejection locks it for the rest of the pass;
* the pass is rolled back to its best balanced prefix;
* passes repeat until one fails to improve the cut.

The rejection rule is part of the algorithm, not an optimisation: on
the corpus, 96% of move-loop iterations pop a vertex, find its move
illegal and lock it.  Most of the loop's remaining cost is ``heappop``
of those rejected and of stale entries; removing it would change which
vertices lock, so it needs a quality-checked algorithm change rather
than faster bookkeeping.  The move loop keeps its state on per-pass
Python containers (lists, a ``bytearray``, ``array('d')``) because
indexing NumPy scalars per step cost more than the heap itself.

Two practical controls mirror production partitioners: a pass aborts
after a bounded streak of non-improving moves (Metis-style limiting),
and a final exact-rebalance pass restores perfect balance before cuts
are reported (the paper does "not allow for imbalance in partitions
when reporting edge cut").
"""

from __future__ import annotations

import heapq
import math
from array import array

import numpy as np

from ..csr.graph import CSRGraph
from ..parallel.cost import KernelCost
from ..parallel.execspace import ExecSpace
from ..parallel import tiles as _tiles
from ..types import VI, WT
from .metrics import edge_cut, partition_weights

__all__ = ["fm_refine", "rebalance_exact", "compute_gains"]

#: live temporaries per window entry of a budgeted gain pass (local
#: source ids + gathered parts/mask + signed weights + window views)
_GAIN_BPE = 4 * 8


def _float_array(x: np.ndarray) -> array:
    """``x`` as an ``array('d')``, copied as one block of bytes.

    Per-move loops index it like a list, without a float object per
    element; ``array('d', x)`` would iterate NumPy scalars instead.
    """
    out = array("d")
    out.frombytes(np.ascontiguousarray(x, dtype=WT).tobytes())
    return out


def compute_gains(g: CSRGraph, part: np.ndarray) -> np.ndarray:
    """FM gain of every vertex: external minus internal incident weight.

    One row-window body.  ``np.add.at`` accumulates strictly
    sequentially in entry order and window-local sources are row-major,
    so row-aligned windows replay each vertex's signed-weight
    accumulation in exactly the global order; windows write the
    disjoint ``gains[r0:r1]`` slices.
    """
    gains = np.zeros(g.n, dtype=WT)
    degs = g.degrees()

    def window(r0, r1, e0, e1):
        src = np.repeat(np.arange(r1 - r0, dtype=VI), degs[r0:r1])
        ext_mask = part[r0:r1][src] != part[g.adjncy[e0:e1]]
        w = g.ewgts[e0:e1]
        np.add.at(gains[r0:r1], src, np.where(ext_mask, w, -w))

    _tiles.for_each_row_window(g, g.xadj, g.m_directed, _GAIN_BPE, window)
    return gains


def fm_refine(
    g: CSRGraph,
    part: np.ndarray,
    space: ExecSpace,
    *,
    max_passes: int = 8,
    stall_limit: int | None = None,
    balance_tol: float | None = None,
) -> np.ndarray:
    """Refine a bisection in place-semantics (returns a new array).

    ``balance_tol`` is the allowed |W0 - W1| during the pass; the default
    is twice the largest vertex weight, the smallest slack under which a
    single move can always be legal.
    """
    part = part.astype(np.int8).copy()
    n = g.n
    if n == 0:
        return part
    vw = g.vwgts
    if balance_tol is None:
        balance_tol = 2.0 * float(vw.max())
    if stall_limit is None:
        stall_limit = max(100, n // 50)
    xadj, adjncy, ewgts = g.xadj, g.adjncy, g.ewgts
    degs = g.degrees()
    # the move loop's state is Python-native (see the module docstring);
    # float state is ``array('d')``: 8 bytes a vertex, not a float object
    vwl = _float_array(vw)
    heappop, heappush = heapq.heappop, heapq.heappush

    w0, w1 = partition_weights(g, part).tolist()
    best_cut = cut = edge_cut(g, part)

    for _ in range(max_passes):
        gains_arr = compute_gains(g, part)
        gains = _float_array(gains_arr)
        p = part.tolist()
        stamp = [0] * n
        locked = bytearray(n)
        # heaps[s]: movable vertices on side s, keyed (-gain, stamp, id).
        # Built in bulk: the pop order only depends on the keys — a total
        # order — so heapify yields the same move sequence as n pushes.
        heaps: list[list] = []
        for s in (0, 1):
            vs = np.flatnonzero(part == s)
            heap = list(zip((-gains_arr[vs]).tolist(), (0,) * len(vs), vs.tolist()))
            heapq.heapify(heap)
            heaps.append(heap)
        heap0, heap1 = heaps

        moves: list[int] = []
        pass_cut = cut
        # only *balanced* prefixes are legal rollback targets: when the
        # incoming partition is imbalanced (projected hub aggregates),
        # the pass must first walk to balance, and rolling back past
        # those moves would undo it
        balanced0 = abs(w0 - w1) <= balance_tol
        best_prefix_cut = cut if balanced0 else math.inf
        best_prefix_len = 0
        stall = 0

        # An entry is stale once its vertex is locked or re-stamped.  A
        # vertex leaves its side only by moving, which locks it, so the
        # lock also covers "no longer on this heap's side".
        while (heap0 or heap1) and stall < stall_limit:
            # pick the side: heavier side if out of balance, else best gain
            if w0 - w1 > balance_tol and heap0:
                side = 0
            elif w1 - w0 > balance_tol and heap1:
                side = 1
            else:
                for heap in heaps:
                    while heap:
                        _, st, v = heap[0]
                        if not (locked[v] or st != stamp[v]):
                            break
                        heappop(heap)
                if not (heap0 or heap1):
                    break
                # keys are negated gains: top0 >= top1 picks side 0
                side = 0 if heap0 and (not heap1 or heap0[0][0] <= heap1[0][0]) else 1
            # pop the best valid vertex from the chosen side
            heap = heaps[side]
            v = -1
            while heap:
                _, st, cand = heappop(heap)
                if not (locked[cand] or st != stamp[cand]):
                    v = cand
                    break
            if v < 0:
                break
            x = vwl[v]
            ws, wo = (w0, w1) if side == 0 else (w1, w0)
            # the move must keep tolerance, or strictly improve balance;
            # an illegal move locks its vertex for the rest of the pass
            new_diff = abs((ws - x) - (wo + x))
            if new_diff > balance_tol and new_diff >= abs(ws - wo):
                locked[v] = 1
                continue

            other = 1 - side
            p[v] = other
            locked[v] = 1
            if side == 0:
                w0, w1 = ws - x, wo + x
            else:
                w1, w0 = ws - x, wo + x
            pass_cut -= gains[v]
            moves.append(v)
            # incremental neighbour gain updates in adjacency order: an
            # edge to v's new side became internal (gain down), to its
            # old side external (up); each update re-stamps and pushes
            lo, hi = xadj[v], xadj[v + 1]
            for u, wt in zip(adjncy[lo:hi].tolist(), ewgts[lo:hi].tolist()):
                if locked[u]:
                    continue
                s = p[u]
                gu = gains[u] + (-2.0 * wt if s == other else 2.0 * wt)
                gains[u] = gu
                st = stamp[u] + 1
                stamp[u] = st
                heappush(heaps[s], (-gu, st, u))

            now_balanced = abs(w0 - w1) <= balance_tol
            if now_balanced and pass_cut < best_prefix_cut - 1e-12:
                best_prefix_cut = pass_cut
                best_prefix_len = len(moves)
                stall = 0
            elif now_balanced:
                stall += 1
            # forced balancing moves never count toward the stall limit

        # roll back to the best balanced prefix (keep everything if no
        # balanced state was ever reached — progress toward balance is
        # worth more than the cut in that case)
        if math.isfinite(best_prefix_cut):
            for v in moves[best_prefix_len:]:
                x = vwl[v]
                if p[v] == 0:
                    w0, w1 = w0 - x, w1 + x
                else:
                    w1, w0 = w1 - x, w0 + x
            kept = moves[:best_prefix_len]
        else:
            best_prefix_cut = pass_cut
            kept = moves
        part[kept] ^= 1  # each vertex moves at most once per pass

        space.ledger.charge(
            "refinement",
            KernelCost(
                stream_bytes=8.0 * 8 * n,
                random_bytes=8.0 * 2 * int(degs[moves].sum()) if moves else 0.0,
                launches=1,
            ),
        )
        cut = best_prefix_cut
        # stop on a non-improving pass — unless this pass was spent
        # walking an imbalanced partition to balance, in which case the
        # next pass gets its first real chance at the cut
        if balanced0 and cut >= best_cut - 1e-12:
            break
        best_cut = min(best_cut, cut)
    return part


def rebalance_exact(g: CSRGraph, part: np.ndarray, space: ExecSpace) -> np.ndarray:
    """Restore perfect weight balance, moving best-gain boundary vertices
    from the heavy side (used at the finest level before reporting cuts)."""
    part = part.astype(np.int8).copy()
    w = partition_weights(g, part)
    if w[0] == w[1]:
        return part
    gains = compute_gains(g, part)
    for _ in range(g.n):
        if w[0] == w[1]:
            break
        heavy = 0 if w[0] > w[1] else 1
        cands = np.flatnonzero(part == heavy)
        if len(cands) == 0:
            break
        # only moves that strictly shrink the imbalance: 0 < vw < diff
        diff = w[heavy] - w[1 - heavy]
        ok = g.vwgts[cands] < diff
        if not ok.any():
            break
        cands = cands[ok]
        v = int(cands[np.argmax(gains[cands])])
        part[v] = 1 - heavy
        w[heavy] -= g.vwgts[v]
        w[1 - heavy] += g.vwgts[v]
        for u, wt in zip(g.neighbors(v), g.edge_weights(v)):
            gains[u] += -2.0 * wt if part[u] == part[v] else 2.0 * wt
        gains[v] = -gains[v]
    space.ledger.charge("refinement", KernelCost(stream_bytes=8.0 * 8 * g.n, launches=1))
    return part
