"""The experiment executor: determinism, shm corpus, failure modes."""

from __future__ import annotations

import multiprocessing as mp
import os
import time

import pytest

from repro.bench.report import main as bench_main
from repro.generators import corpus
from repro.parallel.pool import (
    ExperimentTask,
    format_pool_summary,
    publish_corpus,
    task_weight,
)
from repro.parallel.session import run_session
from repro.parallel.tiles import usable_cores

CPUS = usable_cores()


class TestTaskWeight:
    """Tier-aware LPT: mapped tenants weigh their scale, not the base's."""

    def test_measured_size_wins(self):
        sizes = {("ppa", 0): 123, ("ppa@x100", 0): 456}
        assert task_weight("ppa", 0, sizes) == 123
        assert task_weight("ppa@x100", 0, sizes) == 456

    def test_tier_scales_base_measurement(self):
        # no measurement for the mapped tenant itself: scale the base's
        sizes = {("ppa", 0): 1000}
        assert task_weight("ppa@x10", 0, sizes) == 10_000
        assert task_weight("ppa@x100", 0, sizes) == 100_000

    def test_tier_scale_alone_as_last_resort(self):
        assert task_weight("ppa", 0, {}) == 1
        assert task_weight("ppa@x100", 0, {}) == 100
        # unknown-tier names fall back to base weighting
        assert task_weight("weird@name", 0, {}) == 1

    def test_lpt_orders_mapped_tenant_first(self):
        sizes = {("ppa", 0): 1000, ("citation", 0): 3000}
        tasks = [
            ExperimentTask(kind="coarsen", graph="citation"),
            ExperimentTask(kind="coarsen", graph="ppa@x100"),
            ExperimentTask(kind="coarsen", graph="ppa"),
        ]
        order = sorted(
            range(len(tasks)),
            key=lambda i: (-task_weight(tasks[i].graph, tasks[i].seed, sizes), i),
        )
        # the x100 tenant (weight 100_000) must lead despite the base
        # graph measuring smaller than citation
        assert [tasks[i].graph for i in order] == ["ppa@x100", "citation", "ppa"]


def _tree_bytes(root):
    """Every file under ``root`` as relpath -> raw bytes."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestDeterministicMerge:
    def test_full_corpus_bitwise_identical_across_jobs(self, tmp_path):
        """The acceptance bar: results.json, every trace (ledger totals and

        rollups included), byte-for-byte equal at --jobs 1, 2, and 4."""
        trees = {}
        for jobs in (1, 2, 4):
            out_dir = tmp_path / f"jobs{jobs}"
            rc = bench_main(
                ["--trace-dir", str(out_dir), "corpus", "--jobs", str(jobs)]
            )
            assert rc == 0
            trees[jobs] = _tree_bytes(out_dir)
        assert set(trees[1]) == set(trees[2]) == set(trees[4])
        assert "results.json" in trees[1]
        assert any(name.endswith(".trace.json") for name in trees[1])
        for jobs in (2, 4):
            for name, blob in trees[1].items():
                assert trees[jobs][name] == blob, (jobs, name)

    def test_api_results_equal_serial_vs_pool(self):
        tasks = [
            ExperimentTask(kind="coarsen", graph=g, coarsener=c)
            for g in ("ppa", "citation")
            for c in ("hec", "hem")
        ]
        serial = run_session(tasks, jobs=1)
        pooled = run_session(tasks, jobs=2)
        # full row equality: scalar fields AND the trace dict (span tree,
        # rollups, ledger totals) must match the serial reference exactly
        assert serial.results == pooled.results

    def test_results_follow_task_order_not_completion_order(self):
        # LPT submits the biggest graph first; the merge must still
        # return rows in the caller's order
        tasks = [
            ExperimentTask(kind="coarsen", graph=g)
            for g in ("ppa", "kron21", "citation")
        ]
        out = run_session(tasks, jobs=2)
        assert [r["graph"] for r in out.results] == ["ppa", "kron21", "citation"]

    def test_task_fn_results_follow_task_order(self):
        # the first task finishes last; a task_fn run must still merge
        # by configuration, not in completion order
        tasks = [
            ExperimentTask(kind="coarsen", graph=g) for g in ("slow", "b", "c", "d")
        ]
        out = run_session(tasks, jobs=2, task_fn=_slow_first_task)
        assert [r["graph"] for r in out.results] == ["slow", "b", "c", "d"]

    def test_duplicate_config_rejected(self):
        tasks = [ExperimentTask(kind="coarsen", graph="ppa")] * 2
        with pytest.raises(ValueError, match="duplicate task configuration"):
            run_session(tasks, jobs=1)
        with pytest.raises(ValueError, match="duplicate task configuration"):
            run_session(tasks, jobs=2, task_fn=_load_graph_task)


class TestPoolSummary:
    def test_summary_accounting(self):
        tasks = [
            ExperimentTask(kind="coarsen", graph="ppa", seed=s) for s in range(3)
        ]
        out = run_session(tasks, jobs=2)
        s = out.summary
        assert s["jobs"] == 2 and s["tasks"] == 3
        assert s["wall_s"] > 0 and s["busy_s"] > 0
        assert 0.0 < s["utilization"] <= 1.0
        assert s["overhead_s"] >= 0.0
        assert s["shared_mib"] > 0.0  # corpus was published to shared memory
        assert sum(w["tasks"] for w in s["workers"].values()) == 3
        text = format_pool_summary(s)
        assert "worker" in text and "utilization" in text

    def test_serial_summary(self):
        out = run_session([ExperimentTask(kind="coarsen", graph="ppa")], jobs=1)
        assert out.summary["jobs"] == 1
        assert out.summary["shared_mib"] == 0.0
        assert len(out.summary["workers"]) == 1


class TestSharedCorpus:
    def test_publish_corpus_descriptors_and_cleanup(self):
        descriptors, handles, sizes = publish_corpus([("ppa", 0), ("ppa", 0)])
        try:
            assert set(descriptors) == {("ppa", 0)}  # deduplicated
            desc = descriptors[("ppa", 0)]
            assert desc["graph_name"] == "ppa"
            assert desc["nbytes"] == sum(f["count"] * 8 for f in desc["layout"])
            assert sizes[("ppa", 0)] > 0
        finally:
            for shm in handles:
                shm.close()
                shm.unlink()


def _crash_task(task):  # noqa: ARG001 - pool task signature
    os._exit(13)


def _sleepy_task(task):  # noqa: ARG001 - pool task signature
    time.sleep(600)


def _slow_first_task(task):
    if task.graph == "slow":
        time.sleep(1.0)
    return {
        "key": task.key(),
        "pid": os.getpid(),
        "wall_s": 0.0,
        "row": {"graph": task.graph},
    }


def _load_graph_task(task):
    g, _spec = corpus.load(task.graph, task.seed)
    return {
        "key": task.key(),
        "pid": os.getpid(),
        "wall_s": 0.0,
        "row": {"graph": task.graph, "n": int(g.n)},
    }


def _tiny_factory(seed):
    import numpy as np

    from repro.csr import from_edge_list

    with open(os.environ["REPRO_TEST_GEN_LOG"], "a") as fh:
        fh.write(f"{os.getpid()}\n")
    src = np.arange(31)
    return from_edge_list(32, src, src + 1)


def _no_stranded_children():
    for child in mp.active_children():
        child.join(5.0)
        assert not child.is_alive(), child


class TestFailureSurfacing:
    def test_worker_crash_quarantines_instead_of_hanging(self):
        tasks = [ExperimentTask(kind="coarsen", graph="ppa", seed=s) for s in range(4)]
        t0 = time.monotonic()
        out = run_session(tasks, jobs=2, task_fn=_crash_task, retries=0)
        assert time.monotonic() - t0 < 60
        assert out.results == []
        assert [f["key"] for f in out.failed] == [t.key() for t in tasks]
        assert {f["kind"] for f in out.failed} == {"WorkerCrash"}
        assert all("worker process died" in f["error"] for f in out.failed)
        _no_stranded_children()

    def test_pool_timeout_terminates_workers(self):
        tasks = [ExperimentTask(kind="coarsen", graph="ppa")]
        t0 = time.monotonic()
        out = run_session(
            tasks, jobs=2, task_fn=_sleepy_task, retries=0, task_timeout=1.0
        )
        assert time.monotonic() - t0 < 60
        assert out.summary["hangs"] == 1
        assert [f["kind"] for f in out.failed] == ["TaskHang"]
        _no_stranded_children()

    def test_unknown_kind_quarantined(self):
        out = run_session(
            [ExperimentTask(kind="nope", graph="ppa")], jobs=1, retries=0
        )
        assert out.results == []
        assert [f["kind"] for f in out.failed] == ["ValueError"]
        assert "unknown task kind" in out.failed[0]["error"]


class TestSingleFlight:
    def test_concurrent_workers_generate_once(self, tmp_path, monkeypatch):
        """Four workers race to load the same uncached graph; the cache's

        per-entry lock must single-flight generation: exactly one worker
        pays it, the rest block and load the saved artifact."""
        gen_log = tmp_path / "generated.log"
        gen_log.touch()
        monkeypatch.setenv("REPRO_TEST_GEN_LOG", str(gen_log))
        monkeypatch.setattr(corpus, "_CACHE_DIR", tmp_path / "cache")
        spec = corpus.GraphSpec(
            name="tinytest", domain="test", group="regular",
            paper_m=31, paper_n=32, paper_skew=1.0, factory=_tiny_factory,
        )
        monkeypatch.setitem(corpus._BY_NAME, "tinytest", spec)
        # same (graph, seed) -> same cache entry; distinct configs so the
        # merge keys stay unique
        tasks = [
            ExperimentTask(kind="coarsen", graph="tinytest", machine=m, coarsener=c)
            for m in ("gpu", "cpu")
            for c in ("hec", "hem")
        ]
        out = run_session(tasks, jobs=4, task_fn=_load_graph_task)
        assert len(out.results) == 4
        assert all(r["n"] == 32 for r in out.results)
        assert len(gen_log.read_text().splitlines()) == 1


@pytest.mark.skipif(CPUS < 4, reason="speedup assertion needs >= 4 usable CPUs")
class TestSpeedup:
    def test_jobs4_at_least_2_5x_faster(self):
        """The ISSUE acceptance criterion, measured on the real corpus:

        repetition blocks give each task enough work that pool startup
        and merge overhead cannot mask the scaling."""
        tasks = [
            ExperimentTask(kind="coarsen", graph=spec.name, wallclock=True,
                           reps=5, warmup=1)
            for spec in corpus.CORPUS
        ]
        serial = run_session(tasks, jobs=1)
        pooled = run_session(tasks, jobs=4)
        speedup = serial.summary["wall_s"] / pooled.summary["wall_s"]
        assert speedup >= 2.5, f"--jobs 4 speedup only x{speedup:.2f}"
