"""Fiduccia-Mattheyses refinement (linear-time heuristic, 1982).

The paper's FM is sequential ("our FM implementation is currently
sequential, running on the CPU") and is the refinement that beats the
spectral method on 19 of 20 graphs (Table VI).  This is the classic
formulation with vertex weights for the coarse levels:

* per-pass, every vertex may move once (locked afterwards);
* moves are picked best-gain-first from gain-keyed heaps (one per side)
  with lazy invalidation, subject to the balance constraint;
* the pass is rolled back to its best prefix;
* passes repeat until one fails to improve the cut.

Two practical controls mirror production partitioners: a pass aborts
after a bounded streak of non-improving moves (Metis-style limiting),
and a final exact-rebalance pass restores perfect balance before cuts
are reported (the paper does "not allow for imbalance in partitions
when reporting edge cut").
"""

from __future__ import annotations

import heapq

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

    w = partition_weights(g, part)
    best_cut = cut = edge_cut(g, part)

    for _ in range(max_passes):
        gains = compute_gains(g, part)
        stamp = np.zeros(n, dtype=np.int64)
        locked = np.zeros(n, dtype=bool)
        # heap[s]: movable vertices on side s.  Built in bulk: the pop
        # order only depends on the (key, stamp, id) tuples — a total
        # order — so heapify yields the same move sequence as n pushes.
        heaps: list[list] = [[], []]
        for s in (0, 1):
            vs = np.flatnonzero(part == s)
            heaps[s] = list(zip((-gains[vs]).tolist(), (0,) * len(vs), vs.tolist()))
            heapq.heapify(heaps[s])

        moves: list[int] = []
        pass_cut = cut
        # only *balanced* prefixes are legal rollback targets: when the
        # incoming partition is imbalanced (projected hub aggregates),
        # the pass must first walk to balance, and rolling back past
        # those moves would undo it
        balanced0 = abs(w[0] - w[1]) <= balance_tol
        best_prefix_cut = cut if balanced0 else np.inf
        best_prefix_len = 0
        stall = 0

        while (heaps[0] or heaps[1]) and stall < stall_limit:
            # pick the side: heavier side if out of balance, else best gain
            side = None
            if w[0] - w[1] > balance_tol and heaps[0]:
                side = 0
            elif w[1] - w[0] > balance_tol and heaps[1]:
                side = 1
            else:
                top = [None, None]
                for s in (0, 1):
                    while heaps[s]:
                        negg, st, v = heaps[s][0]
                        if locked[v] or part[v] != s or st != stamp[v]:
                            heapq.heappop(heaps[s])
                            continue
                        top[s] = -negg
                        break
                if top[0] is None and top[1] is None:
                    break
                if top[1] is None or (top[0] is not None and top[0] >= top[1]):
                    side = 0
                else:
                    side = 1
            # pop the best valid vertex from the chosen side
            v = None
            while heaps[side]:
                negg, st, cand = heapq.heappop(heaps[side])
                if locked[cand] or part[cand] != side or st != stamp[cand]:
                    continue
                v = cand
                break
            if v is None:
                break
            other = 1 - side
            # the move must keep tolerance, or strictly improve balance
            new_diff = abs((w[side] - vw[v]) - (w[other] + vw[v]))
            if new_diff > balance_tol and new_diff >= abs(w[side] - w[other]):
                locked[v] = True  # illegal for this pass
                continue

            part[v] = other
            locked[v] = True
            w[side] -= vw[v]
            w[other] += vw[v]
            pass_cut -= gains[v]
            moves.append(v)
            # incremental neighbour gain updates: an edge to v's new side
            # became internal (gain down), to its old side external (up).
            # Applied to all unlocked neighbours at once — adjacency
            # entries are distinct, so the batched update touches each
            # neighbour exactly once, like the sequential loop.
            nbrs, wts = g.neighbors(v), g.edge_weights(v)
            unlocked = ~locked[nbrs]
            if unlocked.any():
                uu, ww = nbrs[unlocked], wts[unlocked]
                sides = part[uu]
                np.add.at(gains, uu, np.where(sides == other, -2.0 * ww, 2.0 * ww))
                np.add.at(stamp, uu, 1)
                for entry, s in zip(
                    zip((-gains[uu]).tolist(), stamp[uu].tolist(), uu.tolist()),
                    sides.tolist(),
                ):
                    heapq.heappush(heaps[s], entry)

            now_balanced = abs(w[0] - w[1]) <= balance_tol
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
        if np.isfinite(best_prefix_cut):
            for v in moves[best_prefix_len:]:
                s = part[v]
                part[v] = 1 - s
                w[s] -= vw[v]
                w[1 - s] += vw[v]
        else:
            best_prefix_cut = pass_cut

        space.ledger.charge(
            "refinement",
            KernelCost(
                stream_bytes=8.0 * 8 * n,
                random_bytes=8.0 * 2 * sum(g.degree(v) for v in moves) if moves else 0.0,
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
