"""k-way partitioning on top of one coarsening hierarchy.

The serving daemon's headline amortization: a hierarchy built once
answers partition requests for *every* k.  The pipeline reuses the
spectral machinery from bisection — carry the Fiedler vector to the
finest level (:func:`repro.partition.multilevel.spectral_vector`), cut
its weighted order into k quantile bands, then run a greedy boundary
refinement that moves vertices to their best-connected part under a
balance cap.  For ``k == 2`` this degenerates to spectral bisection;
callers wanting the paper's bisection semantics (FM, exact rebalance)
use :func:`~repro.partition.multilevel.multilevel_bisect` instead.

Everything here is deterministic given the hierarchy and draws nothing
from the space's RNG beyond what ``spectral_vector`` consumes, so a
k-sweep over one cached hierarchy is reproducible request by request.
"""

from __future__ import annotations

import numpy as np

from ..coarsen.multilevel import GraphHierarchy
from ..csr.graph import CSRGraph
from ..parallel.cost import KernelCost
from ..parallel.execspace import ExecSpace
from .metrics import edge_cut, imbalance, partition_weights
from .multilevel import spectral_vector

__all__ = ["quantile_split", "greedy_kway_refine", "kway_from_hierarchy"]

_B = 8
#: adjacency length above which a row's part connections are one bincount
_DENSE_ROW = 64


def quantile_split(x: np.ndarray, vwgts: np.ndarray, k: int) -> np.ndarray:
    """Cut the weighted order of ``x`` into ``k`` contiguous bands.

    Vertices sorted by ``x`` (stable) are assigned to parts so each
    part's cumulative vertex weight spans one k-th of the total — the
    k-way generalization of ``median_split``.
    """
    n = len(x)
    part = np.zeros(n, dtype=np.int32)
    if n == 0 or k <= 1:
        return part
    order = np.argsort(x, kind="stable")
    csum = np.cumsum(vwgts[order])
    total = csum[-1]
    if total <= 0:
        part[order] = np.minimum(np.arange(n) * k // max(n, 1), k - 1)
        return part
    # band of each sorted position: how many quantile boundaries precede it
    bands = np.searchsorted(csum - vwgts[order] / 2.0, np.arange(1, k) * total / k)
    labels = np.zeros(n, dtype=np.int32)
    for b in bands:  # k-1 boundaries, each bumps the suffix by one part
        labels[b:] += 1
    part[order] = np.minimum(labels, k - 1)
    return part


def greedy_kway_refine(
    g: CSRGraph,
    part: np.ndarray,
    k: int,
    space: ExecSpace,
    *,
    max_passes: int = 4,
    balance_tol: float = 0.03,
) -> np.ndarray:
    """Greedy boundary refinement: move vertices to their best part.

    Each pass scans the boundary vertices in index order and moves a
    vertex to the part it is most heavily connected to (the lowest
    index among ties), when that gain is positive and the target stays
    under ``(1 + balance_tol)`` of the ideal part weight.  Moves made
    earlier in a pass are visible to later vertices.  Deterministic;
    stops early on a pass with no moves.  Charged to the ``refinement``
    phase like FM.
    """
    part = part.astype(np.int32).copy()
    n = g.n
    if n == 0 or k <= 1:
        return part
    xadj, adjncy, ewgts = g.xadj, g.adjncy, g.ewgts
    vw = g.vwgts.tolist()
    w = partition_weights(g, part, k)
    cap = float(w.sum() / k * (1.0 + balance_tol))
    w = w.tolist()
    src = g.edge_sources()

    for _ in range(max_passes):
        cut_mask = part[src] != part[adjncy]
        boundary = np.unique(src[cut_mask])
        # one streaming sweep over the edge list + the boundary's adjacency
        space.ledger.charge(
            "refinement",
            KernelCost(stream_bytes=2.0 * _B * g.m, flops=float(g.m), launches=2),
        )
        # ``pl`` mirrors ``part`` as a list for per-neighbour lookups;
        # a move updates both, so later vertices see it
        pl = part.tolist()
        moved = 0
        los, his = xadj[boundary], xadj[boundary + 1]
        for v, lo, hi in zip(boundary.tolist(), los.tolist(), his.tolist()):
            # connection weight per adjacent part, summed in adjacency
            # order (the same float64 sums as a scatter-add from zero);
            # ``bincount`` sums in that order too, and pays off on long rows
            if hi - lo > _DENSE_ROW:
                row = np.bincount(part[adjncy[lo:hi]], weights=ewgts[lo:hi], minlength=k)
                adj = np.flatnonzero(row)
                conn = dict(zip(adj.tolist(), row[adj].tolist()))
            else:
                conn = {}
                for u, wt in zip(adjncy[lo:hi].tolist(), ewgts[lo:hi].tolist()):
                    q = pl[u]
                    conn[q] = conn.get(q, 0.0) + wt
            cur = pl[v]
            base = conn.get(cur, 0.0)
            x = vw[v]
            # lowest-index part with the strictly largest positive gain
            # under the cap; a non-adjacent part's gain is -conn[cur] <= 0
            target, best = -1, 0.0
            for q, c in conn.items():
                if q == cur or w[q] + x > cap:
                    continue
                gain = c - base
                if gain > best or (gain == best and target >= 0 and q < target):
                    target, best = q, gain
            if target >= 0:
                pl[v] = part[v] = target
                w[cur] -= x
                w[target] += x
                moved += 1
        space.ledger.charge(
            "refinement",
            KernelCost(
                stream_bytes=_B * (his - los).sum() if len(boundary) else 0.0,
                flops=float(k) * len(boundary),
                launches=1,
            ),
        )
        if moved == 0:
            break
    return part


def kway_from_hierarchy(
    g: CSRGraph,
    hierarchy: GraphHierarchy,
    k: int,
    space: ExecSpace,
    *,
    power_tol: float | None = None,
    max_passes: int = 4,
    balance_tol: float = 0.03,
) -> tuple[np.ndarray, dict]:
    """k-way partition of ``g`` reusing a prebuilt ``hierarchy``.

    Returns ``(part, stats)`` where stats carries the cut, imbalance,
    and power-iteration counts.  The hierarchy is read-only: repeated
    calls at different k share it untouched.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    with space.span("kway", graph=g.name, k=k):
        x, iters = spectral_vector(hierarchy, space, power_tol)
        part = quantile_split(x, g.vwgts, k)
        with space.span("refine-kway", k=k):
            part = greedy_kway_refine(
                g, part, k, space, max_passes=max_passes, balance_tol=balance_tol
            )
    stats = {
        "k": k,
        "cut": edge_cut(g, part),
        "imbalance": imbalance(g, part, k),
        "power_iters": iters,
    }
    return part, stats
