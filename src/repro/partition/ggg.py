"""Greedy graph growing (GGG) initial bisection.

Used with FM refinement (Section III-C): grow one part from a random
seed by repeatedly absorbing the frontier vertex with the best gain
(weight of edges into the grown region minus weight leaving it) until
half the total vertex weight is reached.  Several trials keep the best
cut — the coarsest graph is at most ~50 vertices, so trials are cheap.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..csr.graph import CSRGraph
from ..parallel.execspace import ExecSpace
from .metrics import edge_cut

__all__ = ["greedy_graph_growing"]


def _grow_once(g: CSRGraph, seed: int) -> np.ndarray:
    n = g.n
    xadj, adjncy, ewgts = g.xadj, g.adjncy, g.ewgts
    vw = g.vwgts.tolist()
    target = g.vwgts.sum() / 2.0
    slack = target + g.vwgts.max()
    grown_w = 0.0
    # per-vertex state on Python lists: the frontier loop indexes them
    # once per neighbour, where NumPy scalars would dominate its cost
    part = [1] * n  # 1 = not yet grown
    # gain of a frontier vertex = (edges into region) - (edges outside);
    # absorbing v flips its incident region edges, hence the 2w updates.
    gain = (-g.weighted_degrees()).tolist()
    stamp = [0] * n
    heap: list[tuple[float, int, int]] = []

    def absorb(v: int) -> None:
        nonlocal grown_w
        part[v] = 0
        grown_w += vw[v]
        lo, hi = xadj[v], xadj[v + 1]
        for u, w in zip(adjncy[lo:hi].tolist(), ewgts[lo:hi].tolist()):
            if part[u] == 1:
                gain[u] += 2.0 * w
                stamp[u] += 1
                heapq.heappush(heap, (-gain[u], stamp[u], u))

    absorb(seed)
    while grown_w < target and heap:
        _, st, v = heapq.heappop(heap)
        if part[v] == 0 or st != stamp[v]:
            continue  # stale entry
        if grown_w + vw[v] > slack:
            continue  # would overshoot badly; try the next candidate
        absorb(v)
    # the frontier can empty before the target on disconnected graphs:
    # dump remaining vertices until the region reaches half weight
    if grown_w < target:
        for v in range(n):
            if grown_w >= target:
                break
            if part[v] == 1:
                part[v] = 0
                grown_w += vw[v]
    return np.array(part, dtype=np.int8)


def greedy_graph_growing(g: CSRGraph, space: ExecSpace, trials: int = 4) -> np.ndarray:
    """Best-of-``trials`` greedy growing bisection (0/1 labels)."""
    if g.n <= 1:
        return np.zeros(g.n, dtype=np.int8)
    best_part: np.ndarray | None = None
    best_cut = np.inf
    for _ in range(trials):
        seed = int(space.rng.integers(g.n))
        part = _grow_once(g, seed)
        cut = edge_cut(g, part)
        if cut < best_cut:
            best_cut = cut
            best_part = part
    assert best_part is not None
    return best_part
