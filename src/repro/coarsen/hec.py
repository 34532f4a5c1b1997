"""Heavy Edge Coarsening: sequential (Alg. 3) and lock-free parallel (Alg. 4).

HEC visits vertices in random order; each unmapped vertex joins the
aggregate of its heaviest neighbour, creating a new aggregate when that
neighbour is itself unmapped.  Unlike heavy-edge *matching*, the
coarsening ratio can be arbitrarily high, and the heaviest neighbour of
every vertex can be precomputed before the mapping phase — the property
the parallelisation exploits.

Concurrency simulation
----------------------
Lanes race on the claim array ``C`` through atomic CAS; atomics
serialise (lane order within a wave is the serialisation order), so the
claim/create path behaves exactly as on hardware.  Plain *reads* of the
mapping array ``M``, however, see a stale view: a write to ``M`` becomes
visible only to lanes of **later** waves (per-entry write stamps; a wave
is ``machine.concurrency`` lanes).  This reproduces the paper's observed
behaviour — an inherit may find its target claimed-but-not-yet-visible,
release, and retry, with the vast majority of vertices resolving within
two passes (99.4% measured in Section IV-A; the test suite checks ours).
Under ``serial_space()`` (wave size 1, all writes visible) the parallel
kernel reproduces the sequential Algorithm 3 exactly.
"""

from __future__ import annotations

import numpy as np

from ..csr.graph import CSRGraph
from ..parallel.cost import KernelCost
from ..parallel.execspace import ExecSpace
from ..parallel.primitives import gen_perm, segment_max_index
from ..parallel import tiles as _tiles
from ..parallel.wavekernels import ClaimState
from ..types import UNMAPPED, VI
from .base import CoarseMapping, register_coarsener

__all__ = [
    "heavy_neighbors",
    "hec_serial",
    "hec_parallel",
    "hec_parallel_reference",
    "classify_heavy_edges",
]

_B = 8

#: heavy-neighbor live bytes per budget-window entry (ewgts + adjncy
#: views + segment-max scratch)
_HEAVY_BPE = 3 * _B


def heavy_neighbors(g: CSRGraph, space: ExecSpace | None = None, phase: str = "mapping") -> np.ndarray:
    """``H[u]`` = neighbour of ``u`` with the maximum edge weight.

    Ties resolve to the earliest adjacency entry, matching the strictly-
    greater comparison in the sequential pseudocode (Algorithm 3, line
    8).  Vertices with no neighbours get ``H[u] = -1``.

    This is the only edge-volume pass the wave engine needs — the
    claim/inherit fixpoint itself runs on O(n) state — so it is one
    row-window body: under a resident-memory budget it streams windows
    instead of materialising the full segment-max scratch, and under a
    tile engine the windows run on the pool.  Rows never straddle a
    window, so each window's ``segment_max_index`` picks the global
    first-max winner; its constant-weight fast path tests the window's
    weight slice, but first-entry winners are what the general scan
    picks for constant slices anyway, so the bytes agree no matter
    which path fires per window.
    """
    h = np.empty(g.n, dtype=VI)
    degs = g.degrees()

    def window(r0, r1, e0, e1):
        xw = _tiles.local_xadj(g.xadj, r0, r1, e0)
        idx = segment_max_index(None, g.ewgts[e0:e1], xw, lengths=degs[r0:r1])
        out = h[r0:r1]
        if e1 > e0:
            # clip mode maps the -1 (empty-row) picks to entry 0; they
            # are overwritten with the sentinel just below
            np.take(g.adjncy[e0:e1], idx, out=out, mode="clip")
        out[idx < 0] = UNMAPPED

    _tiles.for_each_row_window(g, g.xadj, g.m_directed, _HEAVY_BPE, window)
    if space is not None:
        # One coalesced sweep over adjncy + ewgts, one write of H.  The
        # reduction runs team-per-row: hub rows exceed one team's span
        # and serialise extra passes -- the "load balance in adjacency
        # processing steps" effect that puts the kron family below
        # rgg/delaunay in Fig. 3 (right).
        deg = g.degrees().astype(np.float64)
        big = deg[deg > 1]
        spill = float((big * np.log2(1.0 + big / 1024.0)).sum()) if len(big) else 0.0
        space.ledger.charge(
            phase,
            KernelCost(
                stream_bytes=2.0 * _B * g.m_directed + _B * g.n,
                spill_ops=spill,
                launches=1,
            ),
        )
    return h.astype(VI)


def hec_serial(g: CSRGraph, space: ExecSpace) -> CoarseMapping:
    """Algorithm 3, direct transcription (loop-based reference).

    Used as the ground truth for the wave-1 equivalence test and for the
    Fig. 2 edge-classification example.  O(n + m) Python loops — keep
    inputs small.
    """
    n = g.n
    perm = gen_perm(n, space)
    m = np.full(n, UNMAPPED, dtype=VI)
    n_c = 0
    for u in perm:
        if m[u] != UNMAPPED:
            continue
        nbrs = g.neighbors(u)
        if len(nbrs) == 0:  # isolated vertex: its own aggregate
            m[u] = n_c
            n_c += 1
            continue
        wts = g.edge_weights(u)
        x = nbrs[int(np.argmax(wts))]
        if m[x] == UNMAPPED:
            m[x] = n_c
            n_c += 1
        m[u] = m[x]
    return CoarseMapping(m, n_c, {"algorithm": "hec_serial"})


@register_coarsener("hec")
def hec_parallel(g: CSRGraph, space: ExecSpace) -> CoarseMapping:
    """Lock-free parallel HEC (Algorithm 4) under the race simulation.

    Per lane: claim yourself (``CAS(C[u], -1, v)``), claim your heavy
    neighbour (``CAS(C[v], -1, u)``).  Winning both creates a coarse
    vertex; losing the second either inherits ``M[v]`` — if the write is
    already *visible* — or releases ``C[u]`` and retries next pass.
    No identifier check is needed for mutual heavy pairs here:
    serialised CAS resolves them to a create at the earlier lane, which
    is also how hardware escapes the livelock the paper's identifier
    check guards against.

    Each wave is resolved in bulk by the vectorized engine
    (:class:`repro.parallel.wavekernels.ClaimState`); the per-lane loop
    rendering of the same semantics is kept as
    :func:`hec_parallel_reference` and the equivalence tests assert the
    two are bit-identical (mapping, pass counts, ledger charges).
    """
    n = g.n
    perm = gen_perm(n, space)
    h = heavy_neighbors(g, space)

    st = ClaimState(n)
    queue = perm
    passes = 0
    resolved_per_pass: list[int] = []

    # Isolated vertices (possible on disconnected inputs) become
    # singleton aggregates up front; Algorithm 3 assumes connectivity.
    if (h == UNMAPPED).any():
        st.assign_singletons(np.flatnonzero(h == UNMAPPED))
        queue = queue[h[queue] >= 0]

    while len(queue):
        passes += 1
        if passes > 200:  # pathological-input guard; never hit in practice
            st.assign_singletons(queue)
            break
        resolved = 0
        atomics = 0
        for start, stop in space.wave_bounds(len(queue)):
            u = queue[start:stop]
            creates, inherits, skips = st.resolve_wave(u, h[u], inherit=True)
            resolved += 2 * creates + inherits
            atomics += 2 * (len(u) - skips)  # skipped lanes never CAS
        lanes = len(queue)
        space.ledger.charge(
            "mapping",
            KernelCost(
                # per lane: Q/H/C/M indirections land on distinct
                # sectors (the "irregular memory references" of Sec. III)
                stream_bytes=4.0 * _B * lanes,
                random_bytes=32.0 * _B * lanes,
                atomic_ops=float(atomics),
                launches=2,  # pass kernel + queue compaction
            ),
        )
        resolved_per_pass.append(resolved)
        queue = st.unresolved(queue)

    return CoarseMapping(
        st.m,
        st.n_c,
        {
            "algorithm": "hec",
            "passes": passes,
            "resolved_per_pass": resolved_per_pass,
        },
    )


def hec_parallel_reference(g: CSRGraph, space: ExecSpace) -> CoarseMapping:
    """Per-lane loop rendering of Algorithm 4 (equivalence reference).

    The original serialized replay: one Python iteration per lane, live
    claim array, per-entry write stamps.  Kept verbatim as the ground
    truth the vectorized :func:`hec_parallel` is tested against; the
    serialised-atomics / stale-``M`` semantics are described in the
    module docstring.
    """
    n = g.n
    perm = gen_perm(n, space)
    h = heavy_neighbors(g, space)

    # Python-list state: the serialized lane loop is the hot path and
    # list indexing is several times faster than NumPy scalar access.
    h_l = h.tolist()
    m_l = [-1] * n
    c_l = [-1] * n
    wstamp = [-1] * n  # wave that wrote m_l[x]; visible iff < current wave
    n_c = 0
    wave_of_lane = 0

    queue = perm
    passes = 0
    resolved_per_pass: list[int] = []
    atomics = 0

    # Isolated vertices (possible on disconnected inputs) become
    # singleton aggregates up front; Algorithm 3 assumes connectivity.
    if (h == UNMAPPED).any():
        for u in np.flatnonzero(h == UNMAPPED):
            m_l[u] = n_c
            n_c += 1
        queue = queue[h[queue] >= 0]

    while len(queue):
        passes += 1
        if passes > 200:  # pathological-input guard; never hit in practice
            for u in queue:
                m_l[u] = n_c
                n_c += 1
            break
        resolved = 0
        for start, stop in space.waves(len(queue)):
            wave_of_lane += 1
            for u in queue[start:stop].tolist():
                if c_l[u] != -1:
                    continue  # claimed by an earlier create (line 12)
                v = h_l[u]
                c_l[u] = v  # CAS(C[u], -1, v): location is lane-private
                atomics += 2
                if c_l[v] == -1:
                    c_l[v] = u  # CAS(C[v], -1, u) won: create
                    m_l[u] = n_c
                    m_l[v] = n_c
                    wstamp[u] = wave_of_lane
                    wstamp[v] = wave_of_lane
                    n_c += 1
                    resolved += 2
                else:
                    mv = m_l[v] if wstamp[v] < wave_of_lane else -1
                    if mv != -1:
                        m_l[u] = mv  # inherit (line 19)
                        wstamp[u] = wave_of_lane
                        resolved += 1
                    else:
                        c_l[u] = -1  # release (line 21), retry next pass
        lanes = len(queue)
        space.ledger.charge(
            "mapping",
            KernelCost(
                # per lane: Q/H/C/M indirections land on distinct
                # sectors (the "irregular memory references" of Sec. III)
                stream_bytes=4.0 * _B * lanes,
                random_bytes=32.0 * _B * lanes,
                atomic_ops=float(atomics),
                launches=2,  # pass kernel + queue compaction
            ),
        )
        atomics = 0
        resolved_per_pass.append(resolved)
        m_arr = np.fromiter((m_l[u] for u in queue), dtype=VI, count=len(queue))
        queue = queue[m_arr == UNMAPPED]

    m = np.array(m_l, dtype=VI)
    return CoarseMapping(
        m,
        n_c,
        {
            "algorithm": "hec",
            "passes": passes,
            "resolved_per_pass": resolved_per_pass,
        },
    )


def classify_heavy_edges(g: CSRGraph, space: ExecSpace) -> dict:
    """Label each heavy edge create / inherit / skip (Fig. 2, left).

    Replays the *sequential* HEC visit order and records, for every
    vertex ``u`` processed, how its heavy edge ``(u, H[u])`` was used:
    ``create`` (both endpoints unmapped — a new coarse vertex), ``inherit``
    (``H[u]`` already mapped, ``u`` joins it), or ``skip`` (``u`` itself
    was already mapped when visited).  Also returns the heavy-neighbour
    digraph of Fig. 2 (right), which is a pseudoforest: every vertex has
    out-degree one.
    """
    n = g.n
    perm = gen_perm(n, space)
    h = heavy_neighbors(g, space)
    m = np.full(n, UNMAPPED, dtype=VI)
    labels: dict[tuple[int, int], str] = {}
    n_c = 0
    for u in perm:
        u = int(u)
        x = int(h[u])
        if m[u] != UNMAPPED:
            labels[(u, x)] = "skip"
            continue
        if x < 0:
            m[u] = n_c
            n_c += 1
            continue
        if m[x] == UNMAPPED:
            m[x] = n_c
            n_c += 1
            labels[(u, x)] = "create"
        else:
            labels[(u, x)] = "inherit"
        m[u] = m[x]
    return {
        "labels": labels,
        "heavy_digraph": [(int(u), int(h[u])) for u in range(n) if h[u] >= 0],
        "mapping": CoarseMapping(m, n_c, {"algorithm": "hec_serial"}),
        "counts": {
            kind: sum(1 for lbl in labels.values() if lbl == kind)
            for kind in ("create", "inherit", "skip")
        },
    }
