"""Tile-parallel kernel engine: determinism, composition, clamping.

The contract under test is the one the serial repo has enforced since
PR 1, extended *inside* a single run: tile boundaries depend only on
the graph and the tile-size constant (never the thread count), partial
results reduce in tile order, and ledger charges stay outside the tile
loop — so results, ledger totals, and trace rollups are byte-identical
to serial at any ``--threads N``, including under a memory budget and
composed with a ``--jobs`` worker pool.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.bench.harness import run_coarsening, run_partition, space_for
from repro.coarsen.hec import heavy_neighbors, hec_parallel
from repro.coarsen.hem import unmatched_heavy_neighbors
from repro.construct import construct_sort
from repro.construct.dedup import is_skewed
from repro.csr import CSRGraph, from_edge_list
from repro.generators.kron import rmat
from repro.parallel import serial_space, tiles
from repro.parallel.primitives import stable_key_sort
from repro.parallel.tiles import (
    DEFAULT_TILE_ENTRIES,
    RowWindowPlan,
    TileEngine,
    clamp_threads,
    for_each_row_window,
    join_windows,
    local_xadj,
    parallel_sort,
    resolve_threads,
    usable_cores,
)
from repro.partition.applications import spectral_embedding
from repro.partition.fm import compute_gains
from repro.sparse.spmv import spmm, spmv
from repro.storage import budget as budget_mod
from repro.storage.budget import MemoryBudget
from repro.storage.chunked import row_windows
from repro.trace.core import Tracer
from repro.types import UNMAPPED, VI, WT

from tests.conftest import random_connected


@pytest.fixture(scope="module")
def big():
    """RMAT graph whose directed edge count clears the engage floor."""
    g = rmat(12, 16, seed=1, name="tiles-rmat12")
    assert g.m_directed > DEFAULT_TILE_ENTRIES
    return g


@pytest.fixture(autouse=True)
def _no_global_engine():
    """Every test starts and ends with no process-global engine."""
    tiles.configure(1)
    yield
    tiles.configure(1)


def ledger_dict(space) -> dict:
    return {p: space.ledger.phase(p).as_dict() for p in space.ledger.phases()}


# --------------------------------------------------------------- boundaries


class TestTileBoundaries:
    def test_boundaries_independent_of_thread_count(self, big):
        for te in (1, 97, 4096, DEFAULT_TILE_ENTRIES):
            tiles_2 = TileEngine(2, te).row_tiles(big.xadj)
            tiles_8 = TileEngine(8, te).row_tiles(big.xadj)
            assert tiles_2 == tiles_8

    def test_row_tiles_cover_and_align(self, big):
        tl = TileEngine(4, 4096).row_tiles(big.xadj)
        assert tl[0][0] == 0 and tl[-1][1] == big.n
        for (r0, r1, e0, e1), (n0, _n1, ne0, _ne1) in zip(tl, tl[1:]):
            assert r1 == n0 and e1 == ne0
        for r0, r1, e0, e1 in tl:
            assert e0 == big.xadj[r0] and e1 == big.xadj[r1]

    def test_tile_larger_than_graph_is_one_tile(self, big):
        eng = TileEngine(4, big.m_directed + 10)
        assert len(eng.row_tiles(big.xadj)) == 1

    def test_engage_floor(self):
        assert not TileEngine(1).engaged(10**9)
        assert not TileEngine(4).engaged(DEFAULT_TILE_ENTRIES)
        assert TileEngine(4).engaged(DEFAULT_TILE_ENTRIES + 1)
        # a tiny tile size never lowers the floor (dispatch overhead)
        assert not TileEngine(4, 1).engaged(DEFAULT_TILE_ENTRIES)


# ------------------------------------------------------------- installation


class TestInstallation:
    def test_default_is_serial(self):
        assert tiles.current() is None

    def test_limit_installs_and_restores(self):
        with tiles.limit(3) as eng:
            assert tiles.current() is eng and eng.threads == 3
        assert tiles.current() is None

    def test_limit_none_is_noop(self):
        with tiles.limit(None) as eng:
            assert eng is None and tiles.current() is None

    def test_limit_wins_over_configure(self):
        glob = tiles.configure(2)
        assert tiles.current() is glob
        with tiles.limit(TileEngine(4)) as eng:
            assert tiles.current() is eng
        assert tiles.current() is glob
        tiles.configure(1)
        assert tiles.current() is None

    def test_tile_workers_see_no_engine(self):
        with tiles.limit(TileEngine(2, 1)) as eng:
            seen = eng.map_tiles(lambda i0, i1: tiles.current(), [(0, 1), (1, 2)])
        assert seen == [None, None]

    def test_map_tiles_returns_submission_order(self):
        import time

        eng = TileEngine(4, 1)
        # later tiles finish first; the result list must not care
        out = eng.map_tiles(
            lambda i, delay: (time.sleep(delay), i)[1],
            [(i, (3 - i) * 0.01) for i in range(4)],
        )
        assert out == [0, 1, 2, 3]
        eng.close()

    def test_single_tile_runs_inline(self):
        eng = TileEngine(4)
        assert eng.map_tiles(lambda a, b: a + b, [(1, 2)]) == [3]
        assert eng._pool is None  # never spun up a pool for one tile
        assert eng.snapshot()["tiled_kernels"] == 1

    def test_executor_survives_fork_by_rebuilding(self):
        eng = TileEngine(2, 1)
        eng.map_tiles(lambda a, b: a, [(0, 0), (1, 1)])
        first = eng._pool
        assert first is not None
        eng._pool_pid = -1  # what a forked child would observe
        assert eng._executor() is not first
        eng.close()


# --------------------------------------------------------- resolve / clamp


class TestResolveClamp:
    def test_resolve_default(self):
        assert resolve_threads(None, env={}) == 1

    def test_resolve_env(self):
        assert resolve_threads(None, env={"REPRO_THREADS": "4"}) == 4
        assert resolve_threads(None, env={"REPRO_THREADS": "junk"}) == 1

    def test_explicit_beats_env(self):
        assert resolve_threads(2, env={"REPRO_THREADS": "8"}) == 2

    def test_zero_means_all_cores(self):
        assert resolve_threads(0, env={}) == usable_cores() >= 1

    def test_negative_clamps_to_one(self):
        assert resolve_threads(-3, env={}) == 1

    def test_clamp_threads(self):
        cores = usable_cores()
        assert clamp_threads(8, 1) == 8  # no pool: nothing to share with
        assert clamp_threads(8, 2) == max(1, min(8, cores // 2))
        assert clamp_threads(8, 10 * cores) == 1  # never below 1

    def test_cli_jobs_clamped_to_cores(self):
        from argparse import Namespace

        from repro.bench.report import _resolve_jobs

        assert _resolve_jobs(Namespace(jobs=10**6)) == usable_cores()
        assert _resolve_jobs(Namespace(jobs=0)) == usable_cores()

    def test_core_count_honours_affinity(self, monkeypatch):
        """A one-core affinity mask on an eight-core machine: every
        resolution and clamp sees one core, not eight."""
        from argparse import Namespace

        from repro.bench.report import _resolve_jobs

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert usable_cores() == 1
        assert resolve_threads(0, env={}) == 1
        assert _resolve_jobs(Namespace(jobs=4)) == 1
        assert clamp_threads(4, 2) == 1


# ------------------------------------------------------------ parallel sort


class TestParallelSort:
    @pytest.mark.parametrize("n", [0, 1, 5, 1000, 300_000])
    @pytest.mark.parametrize("te", [97, 65_536])
    def test_matches_numpy_sort(self, n, te):
        rng = np.random.default_rng(n + te)
        a = rng.integers(-(1 << 40), 1 << 40, size=n, dtype=np.int64)
        want = np.sort(a)
        eng = TileEngine(4, te)
        got = parallel_sort(a.copy(), eng)
        eng.close()
        assert got.tobytes() == want.tobytes()

    def test_adversarial_tile_sizes(self):
        rng = np.random.default_rng(7)
        a = rng.integers(0, 1 << 20, size=1000, dtype=np.int64)
        want = np.sort(a)
        for te in (1, 7, 97, 1001, 2000):
            eng = TileEngine(3, te)
            assert parallel_sort(a.copy(), eng).tobytes() == want.tobytes()
            eng.close()

    @pytest.mark.parametrize(
        "case", ["sorted", "reversed", "equal", "duplicates"]
    )
    def test_degenerate_inputs(self, case):
        n = 10_000
        a = {
            "sorted": np.arange(n, dtype=np.int64),
            "reversed": np.arange(n, dtype=np.int64)[::-1].copy(),
            "equal": np.zeros(n, dtype=np.int64),
            "duplicates": np.tile(np.arange(17, dtype=np.int64), n // 17 + 1)[:n],
        }[case]
        eng = TileEngine(4, 512)
        assert parallel_sort(a.copy(), eng).tobytes() == np.sort(a).tobytes()
        eng.close()

    def test_serial_fallback_below_two_tiles(self):
        a = np.array([3, 1, 2], dtype=np.int64)
        eng = TileEngine(4, 65_536)
        got = parallel_sort(a, eng)
        assert got.tobytes() == np.array([1, 2, 3], dtype=np.int64).tobytes()
        assert eng._pool is None  # fell back without touching the pool

    def test_stable_key_sort_with_engine(self):
        rng = np.random.default_rng(11)
        key = rng.integers(0, 50, size=100_000).astype(np.int64)
        eng = TileEngine(4, 4096)
        s_order, s_sorted = stable_key_sort(key.copy(), 50)
        t_order, t_sorted = stable_key_sort(key.copy(), 50, eng=eng)
        eng.close()
        assert s_order.tobytes() == t_order.tobytes()
        assert s_sorted.tobytes() == t_sorted.tobytes()
        assert s_order.tobytes() == np.argsort(key, kind="stable").tobytes()


# ------------------------------------------------------------ row-window plan


class TestRowWindowPlan:
    def _windows(self, g, **plan_kw):
        seen = []
        for_each_row_window(g, g.xadj, g.m_directed, 24,
                            lambda *w: seen.append(w), **plan_kw)
        return seen

    def test_nothing_installed_is_one_window(self, big):
        assert self._windows(big) == [(0, big.n, 0, big.m_directed)]

    def test_budget_windows_are_row_windows(self, big):
        b = MemoryBudget(64 << 10, min_window=1)
        with budget_mod.limit(b), tiles.limit(TileEngine(4, 97)):
            seen = self._windows(big)  # the budget wins over the engine
        want = list(row_windows(big.xadj, b.window_entries(24)))
        assert seen == want and len(want) > 1
        assert b.engaged == 1
        assert b.peak_planned == 24 * max(e1 - e0 for _, _, e0, e1 in want)

    def test_one_engagement_per_plan(self, big):
        b = MemoryBudget(64 << 10, min_window=1)
        with budget_mod.limit(b):
            plan = RowWindowPlan(big, big.xadj, big.m_directed, 24)
            first = plan.run(lambda *w: w)
            assert plan.run(lambda *w: w) == first  # a second sweep
        assert b.engaged == 1

    def test_pooled_results_in_window_order(self, big):
        import time

        eng = TileEngine(4, 4096)
        tl = eng.row_tiles(big.xadj)

        def body(r0, r1, e0, e1):
            time.sleep(0.002 * (1 - r0 / big.n))  # later tiles finish first
            return r0

        with tiles.limit(eng):
            got = for_each_row_window(big, big.xadj, big.m_directed, 24, body)
        eng.close()
        assert got == [t[0] for t in tl]
        assert eng.kernels == 1 and eng.tiles == len(tl)

    def test_consume_in_order_before_next_window(self, big):
        events = []

        def body(r0, r1, e0, e1):
            events.append(("body", r0))
            return r0

        with budget_mod.limit(MemoryBudget(64 << 10, min_window=1)):
            out = for_each_row_window(big, big.xadj, big.m_directed, 24, body,
                                      consume=lambda r: events.append(("consume", r)))
        assert out is None
        rows = [r for kind, r in events if kind == "body"]
        assert len(rows) > 1
        assert events == [e for r in rows for e in (("body", r), ("consume", r))]

    def test_local_xadj_and_join_copy_nothing_for_one_window(self, big):
        assert np.shares_memory(local_xadj(big.xadj, 0, big.n, 0), big.xadj)
        frag = np.arange(5)
        assert join_windows([frag]) is frag
        assert join_windows([frag, frag]).tolist() == list(range(5)) * 2


# ------------------------------------------------------------ kernel parity


#: adversarial tile/window sizes: one entry (every row its own window),
#: prime, power of two, the default tile, larger than any graph
SIZES = [1, 97, 4096, DEFAULT_TILE_ENTRIES, 10**7]

#: every execution the row-window plan can pick, against resident
MODES = ["budget", "threads", "budget+threads"]


def _skewed_graph(weighted: bool):
    """Star-heavy graph: trips the skew-optimised construction path."""
    rng = np.random.default_rng(2)
    ex = rng.integers(0, 401, size=(300, 2))
    keep = ex[:, 0] != ex[:, 1]
    src = np.concatenate([np.zeros(400, dtype=int), ex[keep, 0]])
    dst = np.concatenate([np.arange(1, 401), ex[keep, 1]])
    w = rng.uniform(0.5, 4.0, size=len(src)) if weighted else None
    return from_edge_list(401, src, dst, w, name="skewstar")


def _hub_graph():
    """One 300-entry hub row: larger than any small window, kept whole."""
    return from_edge_list(301, np.zeros(300, dtype=np.int64), np.arange(1, 301),
                          np.linspace(0.5, 3.0, 300), name="hub")


@pytest.fixture(scope="module")
def inputs(big, tmp_path_factory):
    """Resident graphs big enough to tile, mapped ones to stream."""
    out = {
        "rmat": big,  # skewed, unit weights, > 64Ki entries
        # big enough that even the HEM queue (two thirds unmatched) tiles
        "regular": random_connected(16_000, 40_000, seed=7, weighted=False),
    }
    small = {
        "regular_w": random_connected(400, 900, seed=11, weighted=True),
        "regular_w4": random_connected(300, 500, seed=4, weighted=True),
        "regular_u": random_connected(300, 500, seed=4, weighted=False),
        "skewed_u": _skewed_graph(weighted=False),
        "skewed_w": _skewed_graph(weighted=True),
        "hub": _hub_graph(),
        "edgeless": from_edge_list(5, np.zeros(0, dtype=int), np.zeros(0, dtype=int),
                                   name="edgeless"),
    }
    root = tmp_path_factory.mktemp("mapped")
    for name, g in small.items():
        g.to_mapped(root / f"{name}.csrdir")
        out[name] = CSRGraph.from_mapped(root / f"{name}.csrdir")
    return out


def _fresh(g):
    """Same arrays, empty per-graph caches (weighted degrees are cached)."""
    return CSRGraph(g.xadj, g.adjncy, g.ewgts, g.vwgts, name=g.name)


def _hem_queue(g):
    m = np.full(g.n, UNMAPPED, dtype=VI)
    m[::3] = np.arange(0, g.n, 3, dtype=VI)  # a third already matched
    return m, np.flatnonzero(m == UNMAPPED).astype(VI)


def _rng(seed):
    return np.random.default_rng(seed)


#: kernel -> (arguments built inside the mode, call(g, space, *args))
KERNELS = {
    "spmv": (lambda g: (_rng(0).standard_normal(g.n),),
             lambda g, s, x: spmv(g, x, s)),
    "spmm": (lambda g: (_rng(1).standard_normal((g.n, 4)),),
             lambda g, s, X: spmm(g, X, s)),
    "heavy_neighbors": (lambda g: (), lambda g, s: heavy_neighbors(g, s)),
    "unmatched_heavy_neighbors": (
        _hem_queue, lambda g, s, m, q: unmatched_heavy_neighbors(g, m, q, s)),
    "compute_gains": (lambda g: (_rng(3).integers(0, 2, size=g.n).astype(np.int8),),
                      lambda g, s, part: compute_gains(g, part)),
    "weighted_degrees": (lambda g: (_fresh(g),),
                         lambda g, s, twin: twin.weighted_degrees()),
    # the mapping (hec_parallel) is part of the output: it is built
    # under the same mode and must match the resident one too
    "construct_sort": (lambda g: (hec_parallel(g, serial_space()),),
                       lambda g, s, mapping: (mapping.m, construct_sort(g, mapping, s))),
}


def _entries(kernel, g) -> int:
    """Edge entries the kernel's row-window plan sweeps."""
    if kernel == "unmatched_heavy_neighbors":
        return int(g.degrees()[_hem_queue(g)[1]].sum())
    return g.m_directed


def _as_bytes(out) -> bytes:
    if isinstance(out, tuple):
        return b"".join(_as_bytes(o) for o in out)
    if isinstance(out, CSRGraph):
        return b"".join(np.asarray(a).tobytes()
                        for a in (out.xadj, out.adjncy, out.ewgts, out.vwgts))
    out = np.asarray(out)
    return out.dtype.str.encode() + out.tobytes()


def _run(kernel, g, mode=None, size=None, budget=None):
    """One traced kernel call under ``mode``.

    Returns ``(bytes, ledger, trace, budget, engagements, tiled)``: the
    budget engagements and tiled engine kernels of the call itself.
    Arguments are built under the mode too (construction's mapping is
    ``hec_parallel`` windowed or tiled at ``size``), before the counts
    start.
    """
    if mode is not None and "budget" in mode and budget is None:
        # a one-byte ceiling engages on every kernel; the floor makes
        # every window exactly ``size`` entries (or one whole hub row)
        budget = MemoryBudget(1, window_fraction=0.0, min_window=size)
    eng = TileEngine(3, size) if mode is not None and "threads" in mode else None
    make_args, call = KERNELS[kernel]
    space = space_for("gpu")
    tr = Tracer("t").attach(space)
    with budget_mod.limit(budget), tiles.limit(eng):
        args = make_args(g)
        b0 = budget.engaged if budget is not None else 0
        k0 = eng.kernels if eng is not None else 0
        out = call(g, space, *args)
        engagements = budget.engaged - b0 if budget is not None else 0
        tiled = eng.kernels - k0 if eng is not None else 0
    tr.close()
    if eng is not None:
        eng.close()
    return _as_bytes(out), ledger_dict(space), tr.to_dict(), budget, engagements, tiled


class TestKernelParity:
    """Every kernel is one row-window body: budget windows, pooled tiles
    and both together reproduce the resident run byte for byte — output,
    ledger totals and trace — at adversarial tile and window sizes, on
    resident and mapped graphs, weighted and skewed."""

    def _matrix(self, kernel, inputs, size):
        tiled_cases = 0
        for name, g in inputs.items():
            want = _run(kernel, g)
            entries = _entries(kernel, g)
            for mode in MODES:
                got = _run(kernel, g, mode, size)
                assert got[:3] == want[:3], (name, mode)
                b, engagements, tiled = got[3:]
                if b is not None:
                    # every non-empty sweep engages once and records its
                    # windows; budget windows run serially (precedence)
                    assert engagements == (1 if entries else 0), (name, mode)
                    assert b.peak_planned > 0 or not entries, (name, mode)
                    assert tiled == 0, (name, mode)
                elif not (kernel == "construct_sort" and is_skewed(g)):
                    # the plan tiles exactly when the engine engages on
                    # the kernel's own entry count (the fused one-pass
                    # skewed construct sweep stays resident by design)
                    engages = TileEngine(3, size).engaged(entries)
                    assert (tiled >= 1) == engages, (name, mode, tiled)
                    tiled_cases += engages
        if size <= DEFAULT_TILE_ENTRIES:
            assert tiled_cases, "no input was large enough to tile"

    @pytest.mark.parametrize("te", SIZES)
    def test_spmv(self, inputs, te):
        self._matrix("spmv", inputs, te)

    @pytest.mark.parametrize("te", SIZES)
    def test_spmm(self, inputs, te):
        self._matrix("spmm", inputs, te)

    @pytest.mark.parametrize("te", SIZES)
    def test_heavy_neighbors(self, inputs, te):
        self._matrix("heavy_neighbors", inputs, te)

    @pytest.mark.parametrize("te", SIZES)
    def test_unmatched_heavy_neighbors(self, inputs, te):
        self._matrix("unmatched_heavy_neighbors", inputs, te)

    @pytest.mark.parametrize("te", SIZES)
    def test_compute_gains(self, inputs, te):
        self._matrix("compute_gains", inputs, te)

    @pytest.mark.parametrize("te", SIZES)
    def test_weighted_degrees(self, inputs, te):
        self._matrix("weighted_degrees", inputs, te)

    @pytest.mark.parametrize("te", SIZES)
    def test_construct_sort(self, inputs, te):
        self._matrix("construct_sort", inputs, te)

    def test_edgeless_weighted_degrees_are_weights(self, inputs):
        """Resident dtype; the matrix compares every mode's dtype to it."""
        wd = _fresh(inputs["edgeless"]).weighted_degrees()
        assert wd.dtype == WT and not wd.any()

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_budget_sized_windows(self, inputs, kernel):
        """Under a ceiling that sizes its windows, the planned working
        set never exceeds it (no row here is larger than a window)."""
        g = inputs["regular_w"]
        want = _run(kernel, g)
        for mode in ("budget", "budget+threads"):
            b = MemoryBudget(16 << 10, min_window=1)
            got = _run(kernel, g, mode, DEFAULT_TILE_ENTRIES, budget=b)
            assert got[:3] == want[:3]
            assert got[4] == 1 and got[5] == 0
            assert 0 < b.peak_planned <= b.resident_bytes

    @pytest.mark.parametrize("skewed", [False, True])
    def test_construct_overflow_fallback(self, inputs, monkeypatch, skewed):
        """Budgeted construction whose packed (key, index) word would
        overflow deduplicates resident, through the shared dedup code."""
        import repro.construct.vertex_sort as vs

        g = inputs["skewed_w" if skewed else "regular_w"]
        want = _run("construct_sort", g)
        calls = []
        monkeypatch.setattr(
            vs, "_packable", lambda c, key_bound: calls.append(c) or (False, 1)
        )
        for mode in ("budget", "budget+threads"):
            got = _run("construct_sort", g, mode, 97)
            assert got[:3] == want[:3], mode
            assert got[5] == 0, mode  # the fallback sorts serially too
        assert len(calls) == 2  # the fallback ran under both modes


# ----------------------------------------------------- full-run invariance


def _strip(row: dict) -> dict:
    return {k: v for k, v in row.items() if k not in ("trace", "hierarchy", "result")}


class TestRunInvariance:
    """Whole harness runs are invariant in the thread count: results,
    ledger-derived trace rollups, everything."""

    @pytest.mark.parametrize("threads", [2, 8])
    def test_coarsen_run(self, big, threads):
        base = run_coarsening(big, None, oom=False)
        with tiles.limit(threads):
            got = run_coarsening(big, None, oom=False)
        assert _strip(got) == _strip(base)
        assert got["trace"].to_dict() == base["trace"].to_dict()

    @pytest.mark.parametrize("threads", [2, 8])
    def test_partition_run(self, big, threads):
        base = run_partition(big, None, refinement="fm", oom=False)
        with tiles.limit(threads):
            got = run_partition(big, None, refinement="fm", oom=False)
        assert _strip(got) == _strip(base)
        assert got["trace"].to_dict() == base["trace"].to_dict()
        assert got["result"].part.tobytes() == base["result"].part.tobytes()

    def test_hem_coarsen_run(self, big):
        base = run_coarsening(big, None, coarsener="hem", oom=False)
        with tiles.limit(8):
            got = run_coarsening(big, None, coarsener="hem", oom=False)
        assert _strip(got) == _strip(base)
        assert got["trace"].to_dict() == base["trace"].to_dict()

    def test_budget_composition(self, big):
        """Budget precedence: budgeted twins run unthreaded, and adding
        threads on top of a budget changes nothing."""
        with budget_mod.limit(MemoryBudget(1 << 20)):
            base = run_coarsening(big, None, oom=False)
        with budget_mod.limit(MemoryBudget(1 << 20)), tiles.limit(8):
            got = run_coarsening(big, None, oom=False)
        assert _strip(got) == _strip(base)
        assert got["trace"].to_dict() == base["trace"].to_dict()

    def test_adversarial_tile_engine_whole_run(self, big):
        base = run_partition(big, None, refinement="spectral", oom=False)
        with tiles.limit(TileEngine(3, 997)):
            got = run_partition(big, None, refinement="spectral", oom=False)
        assert _strip(got) == _strip(base)
        assert got["trace"].to_dict() == base["trace"].to_dict()


class TestSpectralEmbedding:
    def test_serial_tiled_budgeted_identical(self, big):
        s0, s1, s2 = (space_for("gpu") for _ in range(3))
        base = spectral_embedding(big, s0, k=3)
        with tiles.limit(TileEngine(4, 997)):
            tiled = spectral_embedding(big, s1, k=3)
        with budget_mod.limit(MemoryBudget(1 << 16)):
            budgeted = spectral_embedding(big, s2, k=3)
        assert tiled.tobytes() == base.tobytes()
        assert budgeted.tobytes() == base.tobytes()
        assert ledger_dict(s1) == ledger_dict(s0)
        assert ledger_dict(s2) == ledger_dict(s0)

    def test_k_clamped_on_tiny_graph(self):
        from tests.conftest import two_triangles

        X = spectral_embedding(two_triangles(), space_for("gpu"), k=64)
        assert X.shape == (6, 5)


# -------------------------------------------------------- pool composition


class TestPoolComposition:
    def test_worker_init_none_leaves_engine(self):
        from repro.parallel.pool import _worker_init

        eng = tiles.configure(2)
        _worker_init({}, None)
        assert tiles.current() is eng

    def test_worker_init_configures_and_exports(self):
        from repro.parallel.pool import _worker_init

        old = os.environ.get("REPRO_THREADS")
        try:
            _worker_init({}, 2)
            got = tiles.current()
            assert got is not None and got.threads == 2
            assert os.environ["REPRO_THREADS"] == "2"
        finally:
            if old is None:
                os.environ.pop("REPRO_THREADS", None)
            else:
                os.environ["REPRO_THREADS"] = old
            tiles.configure(1)

    def test_run_session_threads_parity(self, big):
        """The session summary path with threads composes with jobs=1."""
        from repro.parallel.pool import ExperimentTask
        from repro.parallel.session import run_session

        tasks = [ExperimentTask(kind="coarsen", graph="ppa", machine="gpu",
                                coarsener="hec", constructor="sort",
                                seed=0, oom=False)]
        base = run_session(tasks, jobs=1)
        threaded = run_session(tasks, jobs=1, threads=2)
        assert threaded.results == base.results
        assert threaded.summary.get("threads") == 2
        assert "tiles" in threaded.summary


# ----------------------------------------------------------------- speedup


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="speedup needs >= 4 physical cores")
def test_speedup_at_four_threads():
    """The acceptance bound: >= 1.8x on the edge-volume kernels."""
    import time

    g = rmat(15, 16, seed=2, name="tiles-speedup")
    rng = np.random.default_rng(0)
    X = rng.standard_normal((g.n, 8))

    def best_of(k, fn):
        times = []
        for _ in range(k):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    def work():
        spmm(g, X)
        heavy_neighbors(g)

    serial = best_of(5, work)
    with tiles.limit(4):
        threaded = best_of(5, work)
    assert serial / threaded >= 1.8, (serial, threaded)


# ------------------------------------------------------------ scale schema


class TestRssSchema:
    def test_rss_key_threads_suffix(self):
        from repro.bench.scale import rss_key

        assert rss_key("gpu", "hec", "sort", 0, "x10") == "gpu:hec:sort:s0:x10"
        assert rss_key("gpu", "hec", "sort", 0, "x100", 4) == "gpu:hec:sort:s0:x100:t4"

    def test_wallclock_key_suffix_order(self):
        from repro.bench.report import wallclock_key

        assert wallclock_key("gpu", "hec", "sort", 0, threads=2) == "gpu:hec:sort:s0:t2"
        assert wallclock_key("gpu", "hec", "sort", 0, jobs=2, threads=4) \
            == "gpu:hec:sort:s0:j2:t4"

    def test_merge_adopts_legacy_schema1(self, tmp_path):
        import json

        from repro.bench.scale import merge_rss_file, rss_reference

        legacy = {
            "schema": 1,
            "config": {"machine": "gpu", "coarsener": "hec",
                       "constructor": "sort", "seed": 0, "tier": "x10"},
            "per_graph": {"ppa@x10": {"peak_rss_mb": 88.0, "wall_s": 0.6}},
        }
        path = tmp_path / "rss.json"
        path.write_text(json.dumps(legacy))
        entry = {"config": {"tier": "x100"}, "threads": 1,
                 "per_graph": {"ppa@x100": {"peak_rss_mb": 146.0, "wall_s": 1.0}}}
        merge_rss_file(path, "gpu:hec:sort:s0:x100", entry)
        doc = json.loads(path.read_text())
        assert doc["schema"] == 2
        assert set(doc["configs"]) == {"gpu:hec:sort:s0:x10", "gpu:hec:sort:s0:x100"}
        assert "schema" not in doc["configs"]["gpu:hec:sort:s0:x10"]
        # lookups work against both the legacy doc and the merged one
        assert rss_reference(legacy, "gpu:hec:sort:s0:x10")["per_graph"]
        assert rss_reference(doc, "gpu:hec:sort:s0:x100") is entry or \
            rss_reference(doc, "gpu:hec:sort:s0:x100") == entry

    def test_merge_replaces_same_key(self, tmp_path):
        import json

        from repro.bench.scale import merge_rss_file

        path = tmp_path / "rss.json"
        merge_rss_file(path, "k", {"per_graph": {"a": 1}})
        merge_rss_file(path, "k", {"per_graph": {"a": 2}})
        doc = json.loads(path.read_text())
        assert doc["configs"]["k"]["per_graph"]["a"] == 2
