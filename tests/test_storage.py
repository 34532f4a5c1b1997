"""Out-of-core storage engine: mapped CSR, budgets, chunked kernels, tiers.

The contract under test is *byte-determinism*: a memmapped graph driven
under a memory budget must produce results, ledger charges, and trace
rollups identical to the unbudgeted in-memory run, and tier artifacts
must regenerate bit-for-bit from (base, tier, seed) alone.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.bench.harness import run_coarsening
from repro.construct import construct_sort
from repro.csr import CSRGraph
from repro.csr import validation as csr_validation
from repro.generators import corpus
from repro.storage import budget as budget_mod
from repro.storage import chunked, mapped
from repro.storage.budget import MemoryBudget, parse_budget

from tests.conftest import random_connected, star_graph


def skewed_graph(seed=2):
    """Star-heavy graph: trips the skew-optimised construction path."""
    base = star_graph(400)
    rng = np.random.default_rng(seed)
    from repro.csr.build import from_edge_list
    ex = rng.integers(0, 401, size=(300, 2))
    keep = ex[:, 0] != ex[:, 1]
    src = np.concatenate([np.zeros(400, dtype=int), ex[keep, 0]])
    dst = np.concatenate([np.arange(1, 401), ex[keep, 1]])
    return from_edge_list(401, src, dst, name="skewstar")


def dir_digest(path: Path) -> str:
    """Order-stable digest of every file (name + bytes) under ``path``."""
    h = hashlib.sha256()
    for f in sorted(path.rglob("*")):
        if f.is_file():
            h.update(f.relative_to(path).as_posix().encode())
            h.update(f.read_bytes())
    return h.hexdigest()


class TestParseBudget:
    @pytest.mark.parametrize("text,expect", [
        ("4096", 4096), ("64k", 64 * 1024), ("64K", 64 * 1024),
        ("32M", 32 << 20), ("32MiB", 32 << 20), ("2g", 2 << 30),
        ("1kb", 1024),
    ])
    def test_suffixes(self, text, expect):
        assert parse_budget(text) == expect

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_budget("lots")


class TestMappedRoundTrip:
    def test_to_mapped_from_mapped(self, tmp_path, rc100):
        path = tmp_path / "rc100.csrdir"
        rc100.to_mapped(path)
        g2 = CSRGraph.from_mapped(path)
        assert mapped.is_mapped(g2) and not mapped.is_mapped(rc100)
        for a, b in zip(
            (rc100.xadj, rc100.adjncy, rc100.ewgts, rc100.vwgts),
            (g2.xadj, g2.adjncy, g2.ewgts, g2.vwgts),
        ):
            np.testing.assert_array_equal(np.asarray(a), np.asarray(b))
        assert g2.name == rc100.name
        assert mapped.mapped_nbytes(g2) > 0

    def test_writer_matches_whole_graph_write(self, tmp_path, rc100):
        whole = tmp_path / "whole.csrdir"
        rc100.to_mapped(whole)
        streamed = tmp_path / "streamed.csrdir"
        xadj = np.asarray(rc100.xadj)
        with mapped.MappedWriter(streamed, name=rc100.name) as w:
            for r0, r1, e0, e1 in chunked.row_windows(xadj, 64):
                w.append_rows(
                    xadj[r0 + 1 : r1 + 1] - xadj[r0:r1],
                    np.asarray(rc100.adjncy[e0:e1]),
                    np.asarray(rc100.ewgts[e0:e1]),
                    np.asarray(rc100.vwgts[r0:r1]),
                )
        assert dir_digest(whole) == dir_digest(streamed)


class TestChunkedPrimitives:
    def test_external_sort_equals_np_sort(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 1 << 40, size=5000).astype(np.int64)
        with chunked.SpillArena() as arena:
            spill = arena.create("keys", np.int64)
            for i in range(0, len(data), 700):
                spill.append(data[i : i + 700])
            got = chunked.external_sort(spill.finish(), 512, arena)
            np.testing.assert_array_equal(np.asarray(got[:]), np.sort(data))

    def test_unit_runs_stream(self):
        rng = np.random.default_rng(1)
        keys = np.sort(rng.integers(0, 500, size=4000).astype(np.int64))
        distinct, counts = chunked.unit_runs_stream(keys, 257)
        want_d, want_c = np.unique(keys, return_counts=True)
        np.testing.assert_array_equal(np.asarray(distinct[:]), want_d)
        np.testing.assert_array_equal(np.asarray(counts[:]), want_c)

    def test_weighted_runs_stream(self):
        rng = np.random.default_rng(2)
        n = 3000
        idx_bits = max(1, (n - 1).bit_length())
        keys = np.sort(rng.integers(0, 300, size=n).astype(np.int64))
        packed = (keys << idx_bits) + np.arange(n, dtype=np.int64)
        w = rng.uniform(0.5, 4.0, size=n)
        weights = w[np.asarray(packed) & ((1 << idx_bits) - 1)]
        distinct, sums = chunked.weighted_runs_stream(packed, idx_bits, w, 173)
        want_d, starts = np.unique(keys, return_index=True)
        want_s = np.add.reduceat(w, starts)
        np.testing.assert_array_equal(np.asarray(distinct[:]), want_d)
        np.testing.assert_array_equal(np.asarray(sums[:]), want_s)

    def test_row_windows_cover_rows_exactly(self, rc100):
        xadj = np.asarray(rc100.xadj)
        wins = list(chunked.row_windows(xadj, 16))
        assert wins[0][0] == 0 and wins[-1][1] == rc100.n
        for (a0, a1, e0, e1), (b0, _, f0, _) in zip(wins, wins[1:]):
            assert a1 == b0 and e1 == f0
            assert e0 == xadj[a0] and e1 == xadj[a1]


class TestBudgetedConstructParity:
    """Budgeted construction is byte-identical to the resident path
    (the per-kernel window matrix is in ``tests/test_tiles.py``)."""

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("skewed", [False, True])
    def test_construct_sort_parity(self, tmp_path, weighted, skewed):
        from repro.coarsen import hec_parallel
        from repro.parallel import gpu_space
        from repro.trace.core import Tracer

        if skewed:
            g = skewed_graph()
        else:
            g = random_connected(300, 500, seed=4, weighted=weighted)

        def one(graph, budget_bytes):
            space = gpu_space(0)
            tr = Tracer("t").attach(space)
            mapping = hec_parallel(graph, space)
            if budget_bytes is None:
                gc = construct_sort(graph, mapping, space)
            else:
                with budget_mod.limit(budget_bytes):
                    gc = construct_sort(graph, mapping, space)
            tr.close()
            return gc, tr.to_dict()

        ref_g, ref_t = one(g, None)
        path = tmp_path / "g.csrdir"
        g.to_mapped(path)
        gm = CSRGraph.from_mapped(path)
        got_g, got_t = one(gm, 32 * 1024)

        for a, b in zip(
            (ref_g.xadj, ref_g.adjncy, ref_g.ewgts, ref_g.vwgts),
            (got_g.xadj, got_g.adjncy, got_g.ewgts, got_g.vwgts),
        ):
            np.testing.assert_array_equal(np.asarray(a), np.asarray(b))
        assert ref_t == got_t

    def test_budget_engaged_and_planned_bound(self, tmp_path):
        g = random_connected(20_000, 60_000, seed=7)
        path = tmp_path / "g.csrdir"
        g.to_mapped(path)
        gm = CSRGraph.from_mapped(path)
        b = MemoryBudget(resident_bytes=256 * 1024)
        with budget_mod.limit(b):
            run_coarsening(gm, machine="gpu", coarsener="hec",
                           constructor="sort", seed=0)
        assert b.engaged > 0
        assert b.peak_planned <= b.resident_bytes
        # the budget is smaller than the edge volume it processed
        assert b.resident_bytes < gm.m_directed * 8

    def test_run_coarsening_full_parity(self, tmp_path):
        """End-to-end: results, trace rollups, hierarchy all byte-equal."""
        g = random_connected(500, 900, seed=9)
        ref = run_coarsening(g, seed=0)
        path = tmp_path / "g.csrdir"
        g.to_mapped(path)
        gm = CSRGraph.from_mapped(path)
        with budget_mod.limit(256 * 1024):
            got = run_coarsening(gm, seed=0)

        drop = {"trace", "hierarchy"}
        assert {k: v for k, v in ref.items() if k not in drop} == \
               {k: v for k, v in got.items() if k not in drop}
        assert ref["trace"].to_dict() == got["trace"].to_dict()
        for ga, gb in zip(ref["hierarchy"].graphs, got["hierarchy"].graphs):
            for a, b in zip(
                (ga.xadj, ga.adjncy, ga.ewgts, ga.vwgts),
                (gb.xadj, gb.adjncy, gb.ewgts, gb.vwgts),
            ):
                np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


class TestChunkedValidation:
    """Windowed find_defects matches the wide-window findings exactly."""

    def corrupt_cases(self):
        g = random_connected(120, 200, seed=11)
        xadj = np.asarray(g.xadj).copy()
        adj = np.asarray(g.adjncy).copy()
        w = np.asarray(g.ewgts).copy()
        vw = np.asarray(g.vwgts).copy()

        def variant(**kw):
            d = {"xadj": xadj, "adjncy": adj, "ewgts": w, "vwgts": vw}
            d.update(kw)
            return CSRGraph(d["xadj"], d["adjncy"], d["ewgts"], d["vwgts"],
                            name="corrupt")

        loop = adj.copy()
        loop[xadj[5]] = 5
        rng_bad = adj.copy()
        rng_bad[len(adj) // 2] = 10_000
        unsorted = adj.copy()
        r = next(i for i in range(len(xadj) - 1) if xadj[i + 1] - xadj[i] >= 2)
        unsorted[xadj[r]], unsorted[xadj[r] + 1] = (
            unsorted[xadj[r] + 1].copy(), unsorted[xadj[r]].copy())
        dup = adj.copy()
        dup[xadj[r] + 1] = dup[xadj[r]]
        badw = w.copy()
        badw[7] = -1.0
        asym = w.copy()
        asym[xadj[3]] += 0.5
        return [
            variant(),
            variant(adjncy=loop),
            variant(adjncy=rng_bad),
            variant(adjncy=unsorted),
            variant(adjncy=dup),
            variant(ewgts=badw),
            variant(ewgts=asym),
        ]

    def test_window_size_invariant(self, monkeypatch):
        cases = self.corrupt_cases()
        wide = [csr_validation.find_defects(g) for g in cases]
        monkeypatch.setattr(csr_validation, "_WINDOW", 32)
        narrow = [csr_validation.find_defects(g) for g in cases]
        assert wide == narrow
        assert wide[0] == []

    def test_mapped_graph_validates(self, tmp_path, rc100):
        path = tmp_path / "v.csrdir"
        rc100.to_mapped(path)
        gm = CSRGraph.from_mapped(path)
        assert csr_validation.find_defects(gm) == []


class TestTiers:
    @pytest.fixture(autouse=True)
    def fresh_cache(self, tmp_path, monkeypatch):
        monkeypatch.setattr(corpus, "_CACHE_DIR", tmp_path / "cache")

    def test_tier_scales_and_validates(self):
        g0, _ = corpus.load("ppa", 0)
        g, spec = corpus.load("ppa@x10", 0)
        assert mapped.is_mapped(g)
        assert g.name == "ppa@x10" == spec.name
        assert abs(g.n / g0.n - 10) < 0.1
        g.validate()
        from repro.csr.components import connected_components
        count, _labels = connected_components(g)
        assert count == 1  # stitched into one component

    def artifact_digest(self) -> str:
        """Digest of the tier ``.csrdir`` artifact (cache bookkeeping —
        timestamps, stats — is legitimately non-deterministic)."""
        dirs = sorted(Path(corpus._CACHE_DIR).glob("*.csrdir"))
        assert len(dirs) == 1
        return dir_digest(dirs[0])

    def test_tier_regenerates_byte_identically(self, tmp_path, monkeypatch):
        corpus.load("citation@x10", 0)
        d1 = self.artifact_digest()
        monkeypatch.setattr(corpus, "_CACHE_DIR", tmp_path / "cache2")
        corpus.load("citation@x10", 0)
        d2 = self.artifact_digest()
        assert d1 == d2

    def test_base_tier_results_match_mapped(self, tmp_path):
        """Base-tier coarsening is byte-identical run from a mapped copy."""
        g, _ = corpus.load("citation", 0)
        ref = run_coarsening(g, seed=0)
        path = tmp_path / "c.csrdir"
        g.to_mapped(path)
        got = run_coarsening(CSRGraph.from_mapped(path), seed=0)
        drop = {"trace", "hierarchy"}
        assert {k: v for k, v in ref.items() if k not in drop} == \
               {k: v for k, v in got.items() if k not in drop}
        assert ref["trace"].to_dict() == got["trace"].to_dict()

    def test_unknown_tier_rejected(self):
        with pytest.raises(KeyError):
            corpus.load("ppa@x7", 0)

    def test_memory_scale_clamped(self):
        g, spec = corpus.load("ppa@x10", 0)
        assert corpus.memory_scale(g, spec) >= 1.0
