"""Vertex-centric construction with sort-based deduplication (Algorithm 6).

The default strategy of the paper: edges are binned by source coarse
vertex into the intermediate F/X arrays, each bin is sorted by
destination id (bitonic sort on the GPU, radix on the CPU — we charge
``Σ k_i·log2(k_i)`` key-ops accordingly), and a strided sweep merges
equal-key runs in place.  On skewed graphs the degree-based keep-side
sweep first halves and *balances* the bins, and a final transpose pass
(GraphConsWithTrans) restores symmetric storage.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import partial

import numpy as np

from ..coarsen.base import CoarseMapping
from ..csr.graph import CSRGraph
from ..parallel.cost import KernelCost
from ..parallel.execspace import ExecSpace
from ..parallel import tiles as _tiles
from ..parallel.primitives import stable_key_sort
from ..storage import chunked as _chunked
from ..types import VI, WT
from .base import (
    coarse_vertex_weights,
    finalize_csr,
    register_constructor,
)
from .dedup import is_skewed

__all__ = ["construct_sort", "sorted_dedup", "sort_cost_keyops"]

_B = 8

#: map-sweep live bytes per budget-window entry (adjncy view + mapped
#: pair + cross mask + packed key + estimate gathers)
_CONSTRUCT_BPE = 5 * _B


def sort_cost_keyops(bin_sizes: np.ndarray) -> float:
    """Key-ops of per-bin sorting: ``Σ k·ceil(log2 k)`` over non-trivial bins."""
    k = bin_sizes[bin_sizes > 1].astype(np.float64)
    if len(k) == 0:
        return 0.0
    return float((k * np.ceil(np.log2(k))).sum())


def _resident_dedup(key: np.ndarray, w: np.ndarray | None, row_bounds: np.ndarray, eng):
    """Sort fused ``(mu, mv)`` keys and merge equal runs, in memory.

    Returns ``(distinct keys, merged weights, bins)``; ``bins`` are the
    per-source-bin sizes of the *pre-dedup* keys (for the sort/spill
    pricing): the sorted key makes each source's run contiguous, so the
    bins fall out of ``n_c`` binary searches for the ``row_bounds``
    instead of a scatter-add over all entries.  Unit-weight callers pass
    ``w=None``: run lengths ARE the summed unit weights, bit-exactly, so
    the key sorts bare (in place).  Weighted keys take one stable packed
    sort, and each run's weights sum left to right in one ``reduceat``
    segment — bitwise-equal to the sequential scatter-add merge sweep.
    """
    c = len(key)
    if w is None:
        # bare keys are multiset-canonical: tiled runs + pairwise
        # merges reproduce np.sort bitwise (see repro.parallel.tiles)
        if eng is not None:
            _tiles.parallel_sort(key, eng)
        else:
            key.sort()
        key_s = key
    else:
        order, key_s = stable_key_sort(key, int(row_bounds[-1]), eng=eng)
    if c:
        new_run = np.empty(c, dtype=bool)
        new_run[0] = True
        new_run[1:] = key_s[1:] != key_s[:-1]
        first = np.flatnonzero(new_run)
        if w is None:
            w_d = np.diff(np.append(first, c)).astype(WT)
        else:
            w_d = np.add.reduceat(w[order], first).astype(WT, copy=False)
        key_d = key_s[first]
    else:
        key_d = np.zeros(0, dtype=VI)
        w_d = np.zeros(0, dtype=WT)
    return key_d, w_d, np.diff(np.searchsorted(key_s, row_bounds))


def _sort_engine(total: int):
    """The installed tile engine when it engages on ``total`` keys."""
    t = _tiles.current()
    return t if t is not None and t.engaged(total) else None


def _charge_dedup(space: ExecSpace, phase: str, total: int, bins: np.ndarray) -> None:
    """The sort-dedup charge: binning scatter, per-bin sorts, merge sweep.

    Team-serialisation penalty: a bin is sorted by one team, in shared
    memory while it fits; oversized bins (hub coarse vertices on skewed
    graphs) spill to device memory and serialise — the effect the
    degree-based keep-side sweep exists to prevent (25.7x on kron21,
    Section IV-A).  A team's shared memory holds ~4k key-value pairs;
    bitonic networks do log^2 passes, so a spilled sort pays several
    extra global sweeps.
    """
    big = bins[bins > 1]
    spill = 4.0 * float((big * np.log2(1.0 + big / 4096.0)).sum()) if len(big) else 0.0
    space.ledger.charge(
        phase,
        KernelCost(
            # binning scatter (F/X writes) + dedup sweep + compaction
            stream_bytes=4.0 * _B * total,
            random_bytes=2.0 * _B * total,
            sort_key_ops=sort_cost_keyops(bins),
            spill_ops=spill,
            launches=3,
        ),
    )


def _pow2_shift(n_c: int) -> int:
    """Bits of the power-of-two radix that packs a coarse id pair."""
    return max(1, int(n_c - 1).bit_length()) if n_c > 1 else 1


def sorted_dedup(
    mu: np.ndarray | None,
    mv: np.ndarray | None,
    w: np.ndarray | None,
    n_c: int,
    space: ExecSpace,
    phase: str = "construction",
    *,
    packed: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """DEDUPWITHWTS by sorting: bin by ``mu``, sort bins by ``mv``, merge runs.

    Returns deduplicated ``(mu, mv, w)`` with weights of parallel coarse
    edges summed.  The NumPy realisation is one sort of the fused key —
    the *charged* cost is per-bin sorting, which is what the algorithm
    does.  Callers on unit-weight graphs pass ``w=None``: the merged
    weights are exactly the duplicate counts, so no weight array or sort
    permutation is needed and the key sorts bare.  Such callers that
    already hold the power-of-two fused key (built before their own
    compaction, which is cheaper than packing after it) pass it as
    ``packed`` with ``mu``/``mv`` as ``None``.
    """
    total = len(packed if packed is not None else mu)
    eng = _sort_engine(total)
    if w is None:
        # power-of-two radix: same (mu, mv) lex order, and the pair
        # unpacks from the sorted key with a shift and a mask; the key
        # stays 32-bit when the packed pair fits, halving sort bandwidth
        shift = _pow2_shift(n_c)
        if packed is not None:
            key = packed
            key_t = key.dtype.type
        else:
            key_t = (
                np.int32
                if mu.dtype == np.int32 and (n_c << shift) < (1 << 31)
                else np.int64
            )
            key = mu * key_t(1 << shift) + mv
        key_d, w, bins = _resident_dedup(
            key, None, np.arange(n_c + 1, dtype=key_t) << shift, eng
        )
        mu, mv = key_d >> shift, key_d & key_t((1 << shift) - 1)
    else:
        # one stable radix sort of the fused (mu, mv) key == lexsort((mv, mu))
        key_d, w, bins = _resident_dedup(
            mu * np.int64(n_c) + mv, w, np.arange(n_c + 1, dtype=np.int64) * np.int64(n_c), eng
        )
        mu, mv = key_d // np.int64(n_c), key_d % np.int64(n_c)
    _charge_dedup(space, phase, total, bins)
    return mu, mv, w


def _charge_map_sweep(space: ExecSpace, g: CSRGraph) -> None:
    """The map sweep: stream the CSR arrays, gather ``m`` per entry."""
    space.ledger.charge(
        "construction",
        KernelCost(
            stream_bytes=3.0 * _B * g.m_directed + 2.0 * _B * g.n,
            random_bytes=_B * g.m_directed,
            launches=1,
        ),
    )


def _charge_cross_count(space: ExecSpace, c: int, n_c: int) -> None:
    """C' of Algorithm 6: per-source cross counts by atomic increments."""
    space.ledger.charge(
        "construction",
        KernelCost(
            stream_bytes=_B * c + _B * n_c,
            random_bytes=_B * c,
            atomic_ops=float(c),
            launches=1,
        ),
    )


def _charge_keep_side(space: ExecSpace, c: int) -> None:
    """The keep-side predicate over the ``c`` cross entries."""
    space.ledger.charge(
        "construction",
        KernelCost(stream_bytes=3.0 * _B * c, random_bytes=2.0 * _B * c, launches=1),
    )


def _transpose_finalize(n_c, mu, mv, w, vwgts, space: ExecSpace, name: str) -> CSRGraph:
    """GraphConsWithTrans: emit the ``<v, u>`` reverses and rebuild rows."""
    mu, mv = np.concatenate([mu, mv]), np.concatenate([mv, mu])
    w = np.concatenate([w, w])
    space.ledger.charge(
        "construction",
        KernelCost(
            stream_bytes=6.0 * _B * len(mu),
            random_bytes=2.0 * _B * len(mu),  # scatter into rows
            atomic_ops=float(len(mu)) / 2.0,  # per-row slot counters
            launches=2,
        ),
    )
    return finalize_csr(n_c, mu, mv, w, vwgts, name)


@register_constructor("sort")
def construct_sort(g: CSRGraph, mapping: CoarseMapping, space: ExecSpace) -> CSRGraph:
    """Algorithm 6 with sort-based deduplication (the paper's default).

    The skewed-degree path fuses the map sweep with the keep-side
    predicate: the mapped pair, the degree estimates and the keep mask
    are all evaluated on the full directed-edge arrays, and the single
    compaction goes straight from 2m entries to the kept half.  Bit-
    and charge-identical to ``mapped_cross_edges`` →
    ``degree_estimates`` → ``keep_lighter_end`` → ``sorted_dedup`` on
    the intermediate cross-edge arrays, which are never materialised.

    The map sweep is one row-window plan
    (:class:`repro.parallel.tiles.RowWindowPlan`).  Under an installed
    :mod:`repro.storage.budget` whose ceiling is below the edge-volume
    transients, construction streams its windows and spills compacted
    sort keys to disk — results, ledger charges, and trace spans stay
    byte-identical (see ``_spilled_dedup``).
    """
    plan = _tiles.RowWindowPlan(g, g.xadj, g.m_directed, _CONSTRUCT_BPE)
    if not is_skewed(g):
        return _construct_sort_regular(g, mapping, space, plan)
    if plan.budget is not None:
        return _construct_sort_skewed_budgeted(g, mapping, space, plan)

    n_c = mapping.n_c
    unit_w = g.has_unit_ewgts()
    m = mapping.m
    if g.n < (1 << 31):
        m = m.astype(np.int32)  # halves the bandwidth of the edge-wise gathers
    mu = np.repeat(m, g.degrees())
    mv = m[g.adjncy]
    cross = mu != mv
    _charge_map_sweep(space, g)
    vwgts = coarse_vertex_weights(g, mapping, space)

    with space.span("dedup", strategy="sort", skew_opt=True):
        c = int(np.count_nonzero(cross))
        # C' of Algorithm 6 without compacting: the bool-weighted
        # bincount counts exactly the cross entries per source
        dt = np.int32 if c < (1 << 31) else VI
        c_prime = np.bincount(mu, weights=cross, minlength=n_c).astype(dt)
        _charge_cross_count(space, c, n_c)
        # keep-side predicate on the full arrays (charge-identical to
        # keep_lighter_end over the c cross entries).  The estimates are
        # gathered through the fine-vertex table: ``c_prime[mu]`` is a
        # repeat of the per-fine-vertex values and ``c_prime[mv]`` is an
        # int64-indexed gather — both far cheaper than indexing with the
        # 32-bit ``mu``/``mv`` arrays, which NumPy would first convert.
        cp_fine = c_prime[mapping.m]
        cu_est = np.repeat(cp_fine, g.degrees())
        cv_est = cp_fine[g.adjncy]
        keep = cross & ((cu_est < cv_est) | ((cu_est == cv_est) & g.tie_mask()))
        _charge_keep_side(space, c)
        if unit_w:
            # pack the fused key on the full arrays and compress once —
            # the kept pair is never materialised before dedup
            shift = _pow2_shift(n_c)
            key_t = (
                np.int32
                if mu.dtype == np.int32 and (n_c << shift) < (1 << 31)
                else np.int64
            )
            packed = (mu * key_t(1 << shift) + mv)[keep]
            mu, mv, w = sorted_dedup(None, None, None, n_c, space, packed=packed)
        else:
            mu, mv, w = sorted_dedup(mu[keep], mv[keep], g.ewgts[keep], n_c, space)
    return _transpose_finalize(n_c, mu, mv, w, vwgts, space, g.name)


def _construct_sort_regular(
    g: CSRGraph, mapping: CoarseMapping, space: ExecSpace, plan
) -> CSRGraph:
    """Fused regular-degree path: map, dedup and assemble in one pipeline.

    Bit- and charge-identical to ``mapped_cross_edges`` → ``sorted_dedup``
    → ``finalize_csr``, but only the fused ``(mu, mv)`` key and the
    weights are ever materialised: fine endpoints are never built (the
    keep-side predicate only runs on skewed inputs), the coarse id pair
    is carried as one radix-sortable word, and the final CSR comes
    straight from the sorted key runs.  The map sweep runs on ``plan``:
    resident and tiled sweeps keep the key fragments in memory (tile
    fragments concatenated in tile order equal the global array — row
    tiles partition edge space in row order); a budgeted sweep spills
    them and deduplicates out of core.
    """
    n_c = mapping.n_c
    m = mapping.m
    if g.n < (1 << 31):
        m = m.astype(np.int32)  # halves the bandwidth of the edge-wise gathers
    # compress the narrow id pair first, fuse the sort key only for the
    # surviving cross edges.  The radix is the next power of two above
    # n_c so the pair unpacks with a shift and a mask instead of an
    # integer division; the sort order is the same (mu, mv) lex order.
    shift = _pow2_shift(n_c)
    # unit-weight fine graphs (every level-0 input): merged weights are
    # exactly the duplicate counts, so neither the weight array nor the
    # sort permutation is ever needed — the key sorts bare.  Those bare
    # keys stay 32-bit whenever the packed pair fits, halving the sort
    # and scan bandwidth (weighted keys feed the stable packed-int64
    # sort and must stay wide).
    unit_w = g.has_unit_ewgts()
    key_t = (
        np.int32
        if unit_w and m.dtype == np.int32 and (n_c << shift) < (1 << 31)
        else np.int64
    )
    degs = g.degrees()

    def window(r0, r1, e0, e1):
        mu_w, mv_w, cross_w, _adj = _mapped_pair_window(m, g, degs, r0, r1, e0, e1)
        # fuse over the window, then compress once: one boolean-mask
        # pass instead of two
        key_w = (mu_w * key_t(1 << shift) + mv_w)[cross_w]
        return key_w, None if unit_w else np.asarray(g.ewgts[e0:e1])[cross_w]

    row_bounds = np.arange(n_c + 1, dtype=key_t) << shift
    with (_chunked.SpillArena() if plan.budget is not None else nullcontext()) as arena:
        if arena is None:
            parts = plan.run(window)
            key = _tiles.join_windows([p[0] for p in parts])
            w = None if unit_w else _tiles.join_windows([p[1] for p in parts])
            dedup = partial(_resident_dedup, key, w, row_bounds, _sort_engine(len(key)))
        else:
            key, w = _spill_sweep(plan, window, arena, key_t, unit_w)
            dedup = partial(_spilled_dedup, key, w, row_bounds, plan.window, arena)
        _charge_map_sweep(space, g)
        vwgts = coarse_vertex_weights(g, mapping, space)
        with space.span("dedup", strategy="sort", skew_opt=False):
            key_d, w_d, bins = dedup()
            _charge_dedup(space, "construction", len(key), bins)
    cv = key_d & key_t((1 << shift) - 1)
    space.ledger.charge(
        "construction",
        KernelCost(stream_bytes=4.0 * _B * len(cv), launches=1),
    )
    # rows are contiguous in the dedup'd keys too: the same boundary
    # searches yield the CSR row pointer directly
    xadj = np.searchsorted(key_d, row_bounds).astype(VI)
    return CSRGraph(xadj, cv, w_d, vwgts, g.name)


# --------------------------------------------------------------------------
# budgeted (out-of-core) dedup
#
# The streaming discipline that keeps these byte-identical to the
# in-memory paths above:
#
# * windows are row-aligned, so every reduction segment lives in one
#   window and associates left-to-right exactly as the global call;
# * partial bincounts of 0/1 weights sum exact integers (< 2^53), so
#   accumulating them per window reproduces the one-shot bincount;
# * spilled sort keys pass through an external merge sort that yields
#   the same array np.sort would; weighted dedup packs the original
#   index into the key word, so the sorted order equals the stable
#   argsort and each run's weights reduce in one reduceat segment;
# * charges are issued with the *same formulas, in the same order,
#   inside the same spans* — window passes never charge.
# --------------------------------------------------------------------------


def _mapped_pair_window(m, g, degs, r0, r1, e0, e1):
    """One window of the map sweep: ``(mu, mv, cross, adjncy slice)``."""
    adj_w = np.asarray(g.adjncy[e0:e1])
    mu_w = np.repeat(m[r0:r1], degs[r0:r1])
    mv_w = m[adj_w]
    return mu_w, mv_w, mu_w != mv_w, adj_w


def _spill_sweep(plan, body, arena, key_t, unit_w: bool):
    """Run ``body`` on the budget windows, spilling each ``(key, w)``.

    Only one window's fragment is resident at a time; returns the
    finished key (and weight) memmaps.
    """
    key_sf = arena.create("key", key_t)
    w_sf = None if unit_w else arena.create("w", WT)

    def spill(part):
        key_sf.append(part[0])
        if w_sf is not None:
            w_sf.append(part[1])

    plan.run(body, spill)
    return key_sf.finish(), None if unit_w else w_sf.finish()


def _stream_pack_index(key_mm, arena, win, idx_bits):
    """Re-spill bare keys as ``(key << idx_bits) + position`` words."""
    packed_sf = arena.create("packed", np.int64)
    for i in range(0, len(key_mm), win):
        blk = np.asarray(key_mm[i : i + win]).astype(np.int64, copy=False)
        packed_sf.append(
            (blk << np.int64(idx_bits)) + (i + np.arange(len(blk), dtype=np.int64))
        )
    return packed_sf.finish()


def _packable(c: int, key_bound: int) -> tuple[bool, int]:
    idx_bits = max(1, int(c - 1).bit_length()) if c > 1 else 1
    key_bits = max(1, int(key_bound - 1).bit_length()) if key_bound > 1 else 1
    return idx_bits + key_bits <= 63, idx_bits


def _spilled_dedup(key_mm, w_mm, row_bounds, win: int, arena):
    """Out-of-core :func:`_resident_dedup` of spilled keys.

    Same ``(distinct keys, merged weights, bins)`` contract, with about
    ``win`` entries resident: unit keys external-sort bare and count
    runs; weighted keys are re-spilled as unique packed
    ``(key << idx_bits) + index`` words, so the external sort's order
    is the stable argsort and each run's weights sum in one segment.
    When that packed word would overflow int64 the keys are read back
    and deduplicated resident — serially, like every budget window.
    """
    if w_mm is None:
        key_s = _chunked.external_sort(key_mm, win, arena)
        key_d, counts = _chunked.unit_runs_stream(key_s, win)
        return key_d, counts.astype(WT), np.diff(np.searchsorted(key_s, row_bounds))
    ok, idx_bits = _packable(len(key_mm), int(row_bounds[-1]))
    if not ok:
        return _resident_dedup(np.array(key_mm), np.array(w_mm), row_bounds, None)
    packed_mm = _stream_pack_index(key_mm, arena, win, idx_bits)
    packed_s = _chunked.external_sort(packed_mm, win, arena)
    key_d, w_d = _chunked.weighted_runs_stream(packed_s, idx_bits, w_mm, win)
    bins = np.diff(
        np.searchsorted(packed_s, row_bounds.astype(np.int64) << np.int64(idx_bits))
    )
    return key_d, w_d.astype(WT, copy=False), bins


def _construct_sort_skewed_budgeted(
    g: CSRGraph, mapping: CoarseMapping, space: ExecSpace, plan
) -> CSRGraph:
    """Out-of-core rendering of the skewed ``construct_sort`` path.

    Two sweeps of the same budget windows: pass A accumulates the cross
    count and the per-coarse-vertex cross-degree estimates (partial 0/1
    bincounts sum exactly); pass B re-derives the mapped pair, applies
    the keep-side predicate with a per-window tie-break (``src <
    adjncy`` — never the cached full-length
    :meth:`~repro.csr.graph.CSRGraph.tie_mask`), and spills the kept
    dedup keys.
    """
    n_c = mapping.n_c
    unit_w = g.has_unit_ewgts()
    m = mapping.m
    if g.n < (1 << 31):
        m = m.astype(np.int32)
    degs = g.degrees()
    idx_t = np.int32 if g.n < (1 << 31) else VI

    def count(r0, r1, e0, e1):
        mu_w, _mv, cross_w, _adj = _mapped_pair_window(m, g, degs, r0, r1, e0, e1)
        return np.count_nonzero(cross_w), np.bincount(mu_w, weights=cross_w, minlength=n_c)

    c = 0
    cp_acc = np.zeros(n_c, dtype=np.float64)

    def accumulate(part):
        nonlocal c, cp_acc
        c += int(part[0])
        cp_acc += part[1]

    plan.run(count, accumulate)
    _charge_map_sweep(space, g)
    vwgts = coarse_vertex_weights(g, mapping, space)

    with space.span("dedup", strategy="sort", skew_opt=True), _chunked.SpillArena() as arena:
        c_prime = cp_acc.astype(np.int32 if c < (1 << 31) else VI)
        _charge_cross_count(space, c, n_c)
        shift = _pow2_shift(n_c)
        key_t = (
            np.int32
            if m.dtype == np.int32 and (n_c << shift) < (1 << 31)
            else np.int64
        )
        cp_fine = c_prime[mapping.m]

        def keep_side(r0, r1, e0, e1):
            mu_w, mv_w, cross_w, adj_w = _mapped_pair_window(m, g, degs, r0, r1, e0, e1)
            cu_est = np.repeat(cp_fine[r0:r1], degs[r0:r1])
            cv_est = cp_fine[adj_w]
            tie_w = np.repeat(np.arange(r0, r1, dtype=idx_t), degs[r0:r1]) < adj_w
            keep_w = cross_w & ((cu_est < cv_est) | ((cu_est == cv_est) & tie_w))
            if unit_w:
                return (mu_w * key_t(1 << shift) + mv_w)[keep_w], None
            return (mu_w * np.int64(n_c) + mv_w)[keep_w], np.asarray(g.ewgts[e0:e1])[keep_w]

        key_mm, w_mm = _spill_sweep(
            plan, keep_side, arena, key_t if unit_w else np.int64, unit_w
        )
        _charge_keep_side(space, c)
        if unit_w:
            bounds = np.arange(n_c + 1, dtype=key_t) << shift
        else:
            bounds = np.arange(n_c + 1, dtype=np.int64) * np.int64(n_c)
        key_d, w_d, bins = _spilled_dedup(key_mm, w_mm, bounds, plan.window, arena)
        _charge_dedup(space, "construction", len(key_mm), bins)
        if unit_w:
            mu_d, mv_d = key_d >> shift, key_d & key_t((1 << shift) - 1)
        else:
            mu_d, mv_d = key_d // np.int64(n_c), key_d % np.int64(n_c)
    return _transpose_finalize(n_c, mu_d, mv_d, w_d, vwgts, space, g.name)
