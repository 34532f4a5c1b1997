"""The experiment task model and the worker side of the executor.

The paper's evaluation is a large cross-product (coarseners ×
constructors × machines × graphs × seeds) of *independent* runs, and the
simulated numbers each run produces are fully determined by its
configuration.  :func:`repro.parallel.session.run_session` is the one
executor that fans that cross-product out; this module holds what it
runs:

* **Task model.**  :class:`ExperimentTask` is one configuration; its
  :meth:`~ExperimentTask.key` is the deterministic-merge key, and
  :func:`task_weight` is the tier-aware largest-first (LPT) weight the
  session schedules by.
* **Shared-memory corpus.**  :func:`publish_corpus` loads each needed
  corpus graph once (through the artifact cache, whose per-entry file
  lock single-flights concurrent generation) and publishes its CSR
  arrays via ``multiprocessing.shared_memory``.  Workers map them
  zero-copy with :meth:`repro.csr.graph.CSRGraph.from_shared` — no
  per-task pickling of hundred-MB arrays, no per-worker regeneration.
* **Warm per-worker scratch.**  Each worker caches its mapped graphs
  (and with them the graph's memoised ``degrees()``/``tie_mask()``
  scratch) across tasks, so repeated runs on the same graph skip both
  the mapping and the derived-array rebuilds.
* **Task execution.**  :func:`_run_task` runs one task to a picklable
  scalar row plus trace dict — the same bytes in the parent and in any
  worker, which is what makes the merge byte-identical at any ``jobs``.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from .. import faultinject
from ..csr.graph import CSRGraph
from ..generators.tiers import TIER_SCALES, parse_tier_name
from ..storage import mapped as mapped_storage
from . import shm as shm_lifecycle

__all__ = [
    "ExperimentTask",
    "publish_corpus",
    "task_weight",
    "format_pool_summary",
]


def task_weight(graph: str, seed: int, sizes: dict) -> int:
    """Tier-aware LPT weight of one ``(graph, seed)`` tenant.

    A measured ``size_measure`` (recorded at publish time) wins.  Mapped
    scale tiers (``name@x100``) bypass shm publication, and preshared
    descriptor pools never measure them at all — without a fallback they
    weigh 0 and a 100x out-of-core tenant is scheduled *last*, becoming
    exactly the straggler LPT exists to avoid.  The fallback scales the
    base graph's measured size by the tier factor, and when nothing was
    measured the tier factor alone still orders tenants correctly
    relative to each other.
    """
    try:
        base, tier = parse_tier_name(graph)
    except KeyError:  # foreign naming scheme: schedule by measurement only
        base, tier = graph, "base"
    scale = TIER_SCALES[tier]
    measured = sizes.get((graph, seed))
    if measured is not None:
        return int(measured)
    base_measured = sizes.get((base, seed))
    if base_measured is not None:
        return int(base_measured) * scale
    return scale


@dataclass(frozen=True)
class ExperimentTask:
    """One independent harness run (or timed repetition block thereof)."""

    kind: str  # "coarsen" | "partition"
    graph: str  # corpus graph name
    machine: str = "gpu"
    coarsener: str = "hec"
    constructor: str = "sort"
    refinement: str = "spectral"  # partition only
    seed: int = 0
    oom: bool = True
    #: wall-clock mode: run ``warmup`` untimed + ``reps`` timed repetitions
    #: in-worker and return host seconds instead of a traced result
    wallclock: bool = False
    reps: int = 1
    warmup: int = 0
    #: resident-byte ceiling for kernel transients (None = in-memory paths);
    #: results are byte-identical either way, so the key only gains a part
    #: when a budget is set
    memory_budget: int | None = None

    def key(self) -> str:
        """Configuration identity — the deterministic-merge key."""
        parts = [self.kind, self.machine, self.coarsener, self.constructor]
        if self.kind == "partition":
            parts.append(self.refinement)
        parts += [self.graph, f"s{self.seed}"]
        if self.wallclock:
            parts.append(f"wall{self.reps}w{self.warmup}")
        if self.memory_budget is not None:
            parts.append(f"mb{self.memory_budget}")
        return ":".join(parts)


# ------------------------------------------------------------- worker side

#: (graph, seed) -> shared-memory descriptor, installed by the initializer
_DESCRIPTORS: dict = {}
#: (graph, seed) -> (CSRGraph, GraphSpec): the warm per-worker graph cache
_WORKER_GRAPHS: dict = {}
#: degradations this worker performed, drained into each task envelope
_WORKER_DEGRADATIONS: list = []


def _worker_init(descriptors: dict | None, threads: int | None = None) -> None:
    global _DESCRIPTORS
    _DESCRIPTORS = dict(descriptors or {})
    _WORKER_GRAPHS.clear()
    _WORKER_DEGRADATIONS.clear()
    if threads is not None:
        # per-worker tile-thread budget (already clamped by the caller so
        # jobs x threads <= cores); exported to any nested children too
        from . import tiles

        tiles.configure(threads)
        os.environ["REPRO_THREADS"] = str(threads)


def _worker_graph(name: str, seed: int):
    """Resolve one corpus graph inside a worker, warmest path first.

    Order: the worker's own cache (reused scratch), the shared-memory
    corpus (zero-copy map), and only then the artifact cache — whose
    per-entry file lock single-flights any concurrent regeneration.  A
    failed shared-memory attach (unlinked segment, exhausted maps)
    degrades to the cache path instead of failing the task; the
    degradation is reported up through the task envelope.
    """
    cached = _WORKER_GRAPHS.get((name, seed))
    if cached is not None:
        return cached
    from ..generators import corpus

    g = spec = None
    desc = _DESCRIPTORS.get((name, seed))
    if desc is not None:
        try:
            faultinject.fire("shm.attach", graph=name)
            g = CSRGraph.from_shared(desc)
            spec = corpus._BY_NAME.get(name)
        except OSError as e:
            _WORKER_DEGRADATIONS.append(
                {"site": "shm.attach", "action": "cache-load",
                 "graph": name, "error": str(e)}
            )
            g = None
    if g is None:
        g, spec = corpus.load(name, seed)
    _WORKER_GRAPHS[(name, seed)] = (g, spec)
    return g, spec


def _scalar_row(result: dict) -> dict:
    """The JSON-scalar fields of a harness result (results.json content)."""
    return {
        k: v
        for k, v in result.items()
        if isinstance(v, (int, float, str, bool)) or v is None
    }


def _execute(task: ExperimentTask) -> dict:
    """Run one task to a picklable row — shared by serial and worker paths."""
    from ..bench.harness import run_coarsening, run_partition
    from ..storage import budget as _budget

    with _budget.limit(task.memory_budget):
        return _execute_under_budget(task, run_coarsening, run_partition)


def _execute_under_budget(task: ExperimentTask, run_coarsening, run_partition) -> dict:
    g, spec = _worker_graph(task.graph, task.seed)
    common = dict(
        machine=task.machine,
        coarsener=task.coarsener,
        constructor=task.constructor,
        seed=task.seed,
        oom=task.oom,
    )
    if task.wallclock:
        for _ in range(task.warmup):
            run_coarsening(g, spec, **common)
        times = []
        for _ in range(task.reps):
            t0 = time.perf_counter()
            run_coarsening(g, spec, **common)
            times.append(time.perf_counter() - t0)
        return {"graph": task.graph, "times": times}
    if task.kind == "partition":
        result = run_partition(g, spec, refinement=task.refinement, **common)
    elif task.kind == "coarsen":
        result = run_coarsening(g, spec, **common)
    else:
        raise ValueError(f"unknown task kind {task.kind!r}")
    row = _scalar_row(result)
    tracer = result.get("trace")
    if tracer is not None:
        row["trace"] = tracer.to_dict() if hasattr(tracer, "to_dict") else tracer
    return row


def _run_task(task: ExperimentTask, attempt: int = 0) -> dict:
    faultinject.fire(
        "pool.worker", key=task.key(), graph=task.graph, attempt=attempt
    )
    t0 = time.perf_counter()
    row = _execute(task)
    out = {
        "key": task.key(),
        "pid": os.getpid(),
        "wall_s": time.perf_counter() - t0,
        "row": row,
    }
    if _WORKER_DEGRADATIONS:
        out["degraded"] = list(_WORKER_DEGRADATIONS)
        _WORKER_DEGRADATIONS.clear()
    return out


# ------------------------------------------------------------- parent side


def publish_corpus(pairs: Iterable[tuple[str, int]], *, loader=None):
    """Load each (graph, seed) once and publish it to shared memory.

    Loading goes through the artifact cache — its per-entry lock is the
    single-flight guard against another process generating the same
    graph concurrently.  Returns ``(descriptors, handles, sizes)``;
    the caller owns the handles and must ``close()``/``unlink()`` them
    after the fan-out completes (:func:`_release` does both).

    Segments are named ``repro-<pid>-<seq>`` and registered with the
    :mod:`repro.parallel.shm` live registry, so any exit path short of
    SIGKILL unlinks them via atexit, and a SIGKILL'd parent's orphans
    are collectable by ``python -m repro.bench gc-shm``.
    """
    if loader is None:
        from ..generators.corpus import load as loader  # noqa: PLW0127

    descriptors: dict = {}
    handles: list = []
    sizes: dict = {}
    names = shm_lifecycle.segment_names()
    try:
        for name, seed in dict.fromkeys(pairs):
            faultinject.fire("shm.publish", graph=name)
            g, _spec = loader(name, seed)
            if mapped_storage.is_mapped(g):
                # out-of-core tier: already zero-copy shareable through the
                # page cache — workers reopen the mapped directory via the
                # artifact cache instead of a shm copy that would defeat
                # the whole memory budget
                sizes[(name, seed)] = g.size_measure
                continue
            desc = shm = None
            for _ in range(16):
                try:
                    desc, shm = g.to_shared(name=next(names))
                    break
                except FileExistsError:
                    # stale segment from a dead pid-reusing predecessor:
                    # sweep what is collectable and try the next name
                    shm_lifecycle.sweep_stale()
            if shm is None:  # pragma: no cover - 16 live collisions
                desc, shm = g.to_shared()
            shm_lifecycle.register(shm)
            descriptors[(name, seed)] = desc
            handles.append(shm)
            sizes[(name, seed)] = g.size_measure
    except BaseException:
        _release(handles)
        raise
    return descriptors, handles, sizes


def _release(handles: Sequence) -> None:
    for shm in handles:
        try:
            shm.close()
            shm.unlink()
        except OSError:  # pragma: no cover - already gone
            pass
        finally:
            shm_lifecycle.unregister(shm)


def _check_unique(tasks: Sequence[ExperimentTask]) -> None:
    seen: dict[str, int] = {}
    for i, t in enumerate(tasks):
        k = t.key()
        if k in seen:
            raise ValueError(
                f"duplicate task configuration {k!r} (tasks {seen[k]} and {i}): "
                "the deterministic merge keys results by configuration"
            )
        seen[k] = i


def format_pool_summary(summary: dict) -> str:
    """Human-readable session summary: per-worker utilization + overhead.

    A session that met faults adds a recovery line (retries, worker
    crashes, hang kills, quarantined tasks, resumed-from-journal count)
    and one line per degradation, so a run that survived faults says so
    instead of looking like a clean one.
    """
    wall = summary["wall_s"]
    lines = [
        f"pool  {summary['jobs']} worker(s), {summary['tasks']} task(s), "
        f"wall {wall:.3f}s"
        + (
            f", corpus {summary['shared_mib']:.1f} MiB shared"
            if summary.get("shared_mib")
            else ""
        )
    ]
    for pid, w in summary["workers"].items():
        pct = 100.0 * w["busy_s"] / wall if wall > 0 else 0.0
        lines.append(
            f"  worker {pid}: {w['tasks']} task(s), busy {w['busy_s']:.3f}s "
            f"({pct:.0f}% of wall)"
        )
    lines.append(
        f"  utilization {100.0 * summary['utilization']:.0f}%"
        f"  overhead {summary['overhead_s']:.3f}s"
        f"  (speedup x{summary['busy_s'] / wall if wall > 0 else math.nan:.2f}"
        " vs serial busy time)"
    )
    if summary.get("threads", 1) > 1 or summary.get("tiles"):
        t = summary.get("tiles")
        tile_part = (
            f"  {t['tiled_kernels']} tiled kernel(s), {t['tiles_run']} tile(s)"
            f" of {t['tile_entries']} entries"
            if t
            else ""
        )
        lines.append(
            f"  threads {summary.get('threads', t['threads'] if t else 1)}"
            f" per worker{tile_part}"
        )
    recovery = [
        f"{label} {summary[key]}"
        for key, label in (
            ("retries", "retries"),
            ("crashes", "crashes"),
            ("hangs", "hangs"),
            ("quarantined", "quarantined"),
            ("resumed", "resumed"),
        )
        if summary.get(key)
    ]
    if recovery:
        lines.append("  recovery  " + "  ".join(recovery))
    for d in summary.get("degradations", ()):
        what = f" ({d['error']})" if d.get("error") else ""
        lines.append(f"  degraded  {d['site']} -> {d['action']}{what}")
    for f in summary.get("failed", ()):
        lines.append(
            f"  FAILED  {f['key']}  after {f['attempts']} attempt(s): {f['error']}"
        )
    return "\n".join(lines)
