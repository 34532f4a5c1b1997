"""The experiment executor: supervised fan-out, journal, resume, retry.

The paper's sweeps are hours-long cross-products of independent tasks
(the :class:`~repro.parallel.pool.ExperimentTask` model).
:func:`run_session` is the one way a task runs — inline at ``jobs <= 1``,
over supervised worker processes otherwise — and it wraps both paths
in a failure-state machine so **no single fault costs more than one
task's work**:

* **Deterministic merge.**  Results are keyed by task configuration and
  returned in the caller's task order, never completion order, so the
  merged rows, ledger totals and trace rollups are byte-identical at
  any ``jobs`` value.  Tasks run largest graph first (LPT) so a big
  graph never straggles behind a drained queue.
* **Session journal + resume.**  Every completed task is appended to an
  fsynced JSONL journal (key, attempt, scalar row, rollup digest).  A
  session restarted with the same task set replays completed rows from
  the journal and only schedules the remainder; the merged results are
  byte-identical to an uninterrupted run because rows are pure functions
  of their configuration.
* **Retry with quarantine.**  A failed attempt is retried up to
  ``retries`` times with capped exponential backoff whose schedule is a
  pure function of ``(key, attempt, seed)`` — no wall-clock randomness.
  A task that exhausts its retries is quarantined into the journal with
  its error and the session completes the rest, reporting ``failed``
  instead of raising.
* **Supervised workers.**  Each worker is a supervised process with its
  own duplex pipe: the parent knows exactly which task each worker
  runs, so a crash charges an attempt to *that* task only, the worker
  is respawned, and the session continues.  A task exceeding
  ``task_timeout`` is treated as hung: its worker is killed and
  respawned, the attempt charged.
* **Graceful degradation.**  Shared-memory publish failure falls back
  to per-worker cache loading (single-flighted by the cache's per-entry
  lock); worker spawn failure falls back to the serial path.  Both
  fallbacks produce byte-identical results and are reported in the
  session summary instead of being silent.

Fault-injection points (:mod:`repro.faultinject`) are threaded through
every one of these paths so CI can prove each recovery transition.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import multiprocessing as mp
import os
import time
import warnings
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Callable, Sequence

from .. import faultinject
from ..cache.atomic import atomic_write_bytes
from ..cache.store import fingerprint_payload
from ..journal import Journal, digest
from .pool import (
    ExperimentTask,
    _check_unique,
    _release,
    _run_task,
    _worker_init,
    publish_corpus,
    task_weight,
)

__all__ = [
    "JOURNAL_NAME",
    "SessionJournal",
    "SessionMismatch",
    "SessionOutcome",
    "backoff_delay",
    "row_digest",
    "run_session",
]

JOURNAL_NAME = "journal.jsonl"
JOURNAL_SCHEMA = 1

#: exit code a worker killed for hanging / crashing is reported with
_KILL_JOIN_S = 5.0


def row_digest(row: dict) -> str:
    """Stable 16-hex digest of a result row (trace rollups included).

    Stored beside each journaled row and re-checked on replay, so a
    torn or bit-rotted journal line can never smuggle a wrong row into
    a resumed session's results.
    """
    return digest(row)


def backoff_delay(
    key: str, attempt: int, *, base: float = 0.25, cap: float = 5.0, seed: int = 0
) -> float:
    """Deterministic capped exponential backoff for one retry.

    ``min(cap, base * 2**attempt)`` scaled into ``[0.5x, 1x)`` by a
    jitter that is a pure hash of ``(seed, key, attempt)`` — two
    sessions replaying the same failures produce the *same* schedule,
    and co-failing tasks still decorrelate (different keys, different
    jitter).  No wall-clock or RNG state enters the decision.
    """
    if base <= 0.0:
        return 0.0
    h = int.from_bytes(
        hashlib.sha256(f"{seed}:{key}:{attempt}".encode()).digest()[:8], "big"
    )
    jitter = h / 2.0**64  # [0, 1)
    return min(cap, base * (2.0**attempt)) * (0.5 + 0.5 * jitter)


class SessionMismatch(ValueError):
    """The journal in the resume directory belongs to a different task set."""


class SessionJournal(Journal):
    """JSONL journal of one experiment session (:mod:`repro.journal`).

    Durable by default: each record is ``fsync``'d before the session
    proceeds, and a torn trailing line is truncated away on resume.
    ``durable=False`` only flushes, for the serving daemon's request
    log, whose records are telemetry.  A write failure (disk full)
    disarms the journal and the run continues without resume coverage.
    """

    name = JOURNAL_NAME
    site = "journal.write"
    failure = (
        "journal write failed ({}); the session continues but this run "
        "can no longer be resumed"
    )

    def __init__(self, directory, *, durable: bool = True):
        super().__init__(directory)
        self.durable = durable


@dataclass
class SessionOutcome:
    """Merged results (task order) + accounting + quarantined tasks."""

    results: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    failed: list = field(default_factory=list)


# ------------------------------------------------------ supervised worker


def _worker_main(conn, parent_conn, parent_pid, descriptors, task_fn,
                 threads=None) -> None:
    """Worker process loop: serve ``(task, attempt)`` requests until None.

    A forked worker inherits duplicates of the parent-side pipe ends (its
    own and any earlier sibling's), so parent death does NOT deliver EOF
    on ``conn``.  The inherited copy of our own parent end is closed here,
    and the receive loop polls with a ``getppid`` orphan check so a
    SIGKILL'd session never strands workers blocking on a pipe that can
    no longer close.
    """
    if parent_conn is not None:
        try:
            parent_conn.close()
        except OSError:  # pragma: no cover
            pass
    _worker_init(descriptors, threads)
    while True:
        try:
            if not conn.poll(1.0):
                if os.getppid() != parent_pid:
                    break  # parent died without cleanup: exit, don't strand
                continue
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None:
            break
        task, attempt = msg
        try:
            out = task_fn(task) if task_fn is not None else _run_task(task, attempt)
            payload = ("ok", out)
        except BaseException as e:  # noqa: BLE001 - marshalled to the parent
            payload = (
                "err", {"kind": type(e).__name__, "error": str(e) or type(e).__name__}
            )
        try:
            conn.send(payload)
        except (BrokenPipeError, OSError):  # pragma: no cover - parent died
            break
    try:
        conn.close()
    except OSError:  # pragma: no cover
        pass


class _Worker:
    """One supervised worker process with a dedicated duplex pipe.

    The parent tracks exactly which ``(task, attempt)`` the worker is
    running, so worker death or a hang is attributable to one task.
    """

    def __init__(self, ctx, descriptors, task_fn, threads=None):
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(
            target=_worker_main,
            args=(child, self.conn, os.getpid(), descriptors, task_fn, threads),
            daemon=True,
        )
        self.proc.start()
        child.close()
        self.task_idx: int | None = None
        self.attempt = 0
        self.started = 0.0

    @property
    def busy(self) -> bool:
        return self.task_idx is not None

    def assign(self, idx: int, task: ExperimentTask, attempt: int) -> None:
        self.conn.send((task, attempt))
        self.task_idx = idx
        self.attempt = attempt
        self.started = time.monotonic()

    def clear(self) -> None:
        self.task_idx = None

    def kill(self) -> None:
        """Terminate the process (escalating to SIGKILL) and reap it."""
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(1.0)
            if self.proc.is_alive():
                self.proc.kill()
        self.proc.join(_KILL_JOIN_S)


# ---------------------------------------------------------- session state


class _SessionState:
    """Bookkeeping shared by the pool and serial engines."""

    def __init__(self, tasks, keys, *, retries, backoff_base, journal):
        self.tasks = tasks
        self.keys = keys
        self.retries = retries
        self.backoff_base = backoff_base
        self.journal = journal
        self.by_key: dict[str, dict] = {}
        self.workers: dict[int, dict] = {}
        self.busy_s = 0.0
        self.retried = 0
        self.crashes = 0
        self.hangs = 0
        self.resumed = 0
        self.degradations: list[dict] = []
        self.quarantined: dict[int, dict] = {}
        self._order = 0

    def next_order(self) -> int:
        self._order += 1
        return self._order

    def journal_append(self, record: dict) -> None:
        if self.journal is not None:
            before = self.journal.disabled
            self.journal.append(record)
            if self.journal.disabled and not before:
                self.degrade("journal.write", "journaling-disabled",
                             "journal write failed")

    def degrade(self, site: str, action: str, error) -> None:
        entry = {"site": site, "action": action, "error": str(error)}
        self.degradations.append(entry)
        warnings.warn(
            f"degraded: {site} -> {action} ({error})", RuntimeWarning, stacklevel=3
        )
        if site != "journal.write":
            self.journal_append({"type": "degrade", **entry})

    def success(self, idx: int, out: dict) -> None:
        key = self.keys[idx]
        row = out["row"]
        self.by_key[key] = row
        w = self.workers.setdefault(out["pid"], {"tasks": 0, "busy_s": 0.0})
        w["tasks"] += 1
        w["busy_s"] += out["wall_s"]
        self.busy_s += out["wall_s"]
        for entry in out.get("degraded", ()):
            self.degradations.append(entry)
            self.journal_append({"type": "degrade", **entry})
        self.journal_append(
            {"type": "done", "key": key, "attempt": out.get("attempt", 0),
             "digest": row_digest(row), "row": row}
        )

    def failure(self, idx: int, attempt: int, kind: str, message: str,
                pending: list, now: float) -> None:
        """Charge a failed attempt: schedule a retry or quarantine."""
        key = self.keys[idx]
        self.journal_append(
            {"type": "fail", "key": key, "attempt": attempt, "kind": kind,
             "error": message}
        )
        if attempt >= self.retries:
            entry = {"key": key, "attempts": attempt + 1, "kind": kind,
                     "error": message}
            self.quarantined[idx] = entry
            self.journal_append({"type": "quarantine", **entry})
            return
        self.retried += 1
        delay = backoff_delay(key, attempt, base=self.backoff_base)
        heapq.heappush(pending, (now + delay, self.next_order(), idx, attempt + 1))


# ---------------------------------------------------------------- engines


def _run_one(task_fn, task, attempt):
    out = task_fn(task) if task_fn is not None else _run_task(task, attempt)
    out.setdefault("attempt", attempt)
    return out


def _serial_drain(state: _SessionState, pending: list, task_fn) -> None:
    """Run the pending queue inline, honouring backoff and retries."""
    while pending:
        ready_at, _order, idx, attempt = heapq.heappop(pending)
        wait = ready_at - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        try:
            out = _run_one(task_fn, state.tasks[idx], attempt)
        except Exception as e:  # noqa: BLE001 - retried or quarantined
            state.failure(idx, attempt, type(e).__name__, str(e) or type(e).__name__,
                          pending, time.monotonic())
            continue
        state.success(idx, out)


def _spawn_workers(state, ctx, descriptors, task_fn, jobs, threads=None):
    """Create the supervised worker set; None on total spawn failure."""
    workers: list[_Worker] = []
    try:
        faultinject.fire("pool.create", jobs=jobs)
        for _ in range(jobs):
            workers.append(_Worker(ctx, descriptors, task_fn, threads))
    except OSError as e:
        for w in workers:
            w.kill()
        state.degrade("pool.create", "serial-fallback", e)
        return None
    return workers


def _pool_drain(state: _SessionState, pending: list, *, jobs, descriptors,
                task_fn, task_timeout, threads=None) -> list:
    """Drain the pending queue over supervised workers.

    Returns a (possibly empty) list of still-pending entries — non-empty
    only when the pool degraded away entirely and the caller should
    finish serially.
    """
    ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")
    workers = _spawn_workers(state, ctx, descriptors, task_fn, jobs, threads)
    if workers is None:
        return pending

    def respawn(i: int) -> bool:
        try:
            workers[i] = _Worker(ctx, descriptors, task_fn, threads)
            return True
        except OSError as e:
            state.degrade("pool.respawn", "serial-fallback", e)
            return False

    def fail_over_to_serial() -> list:
        """Kill every worker, requeue their in-flight tasks, hand back."""
        for w in workers:
            if w.busy:
                heapq.heappush(
                    pending,
                    (0.0, state.next_order(), w.task_idx, w.attempt),
                )
                w.clear()
            w.kill()
        workers.clear()
        return pending

    try:
        while pending or any(w.busy for w in workers):
            now = time.monotonic()

            # hand ready tasks to idle workers
            for i, w in enumerate(workers):
                if w.busy or not pending or pending[0][0] > now:
                    continue
                if not w.proc.is_alive():
                    w.kill()
                    if not respawn(i):
                        return fail_over_to_serial()
                    w = workers[i]
                ready_at, _order, idx, attempt = heapq.heappop(pending)
                try:
                    w.assign(idx, state.tasks[idx], attempt)
                except (BrokenPipeError, OSError):
                    # died between liveness check and send: task never ran
                    heapq.heappush(pending, (ready_at, _order, idx, attempt))
                    state.crashes += 1
                    w.kill()
                    if not respawn(i):
                        return fail_over_to_serial()

            busy = [w for w in workers if w.busy]
            # earliest of: next backoff release, per-task hang deadline —
            # bounded so supervision never sleeps past an event it must
            # react to.  The backoff release only matters while a worker
            # is idle to take the task; with every worker busy it would
            # clamp the wait to 0s and spin the supervisor against the
            # workers it supervises
            timeouts = []
            if pending and len(busy) < len(workers):
                timeouts.append(max(0.0, pending[0][0] - now))
            if task_timeout is not None:
                timeouts.extend(
                    max(0.0, w.started + task_timeout - now) for w in busy
                )
            if not busy:
                if pending:
                    time.sleep(min(timeouts) if timeouts else 0.01)
                continue

            waitables = {w.conn: w for w in busy}
            sentinels = {w.proc.sentinel: w for w in busy}
            ready = mp_connection.wait(
                list(waitables) + list(sentinels),
                timeout=min(timeouts) if timeouts else 0.5,
            )
            now = time.monotonic()
            handled: set[int] = set()
            for obj in ready:
                w = waitables.get(obj) or sentinels.get(obj)
                if id(w) in handled:
                    continue
                handled.add(id(w))
                i = workers.index(w)
                idx, attempt = w.task_idx, w.attempt
                got = None
                if w.conn.poll():
                    try:
                        got = w.conn.recv()
                    except (EOFError, OSError):
                        got = None
                if got is not None:
                    status, payload = got
                    w.clear()
                    if status == "ok":
                        state.success(idx, payload)
                    else:
                        state.failure(idx, attempt, payload.get("kind", "Error"),
                                      payload.get("error", ""), pending, now)
                elif not w.proc.is_alive():
                    # worker died mid-task: charge the attempt to exactly
                    # this task, respawn the worker, keep the session up
                    code = w.proc.exitcode
                    state.crashes += 1
                    w.clear()
                    w.kill()
                    state.failure(
                        idx, attempt, "WorkerCrash",
                        f"worker process died with exit code {code} while "
                        f"running {state.keys[idx]!r}",
                        pending, now,
                    )
                    if not respawn(i):
                        return fail_over_to_serial()

            # hung tasks: kill the worker, charge the attempt, respawn
            if task_timeout is not None:
                for i, w in enumerate(workers):
                    if not w.busy or now - w.started <= task_timeout:
                        continue
                    idx, attempt = w.task_idx, w.attempt
                    state.hangs += 1
                    w.clear()
                    w.kill()
                    state.failure(
                        idx, attempt, "TaskHang",
                        f"task {state.keys[idx]!r} exceeded task_timeout="
                        f"{task_timeout:.1f}s; worker killed",
                        pending, now,
                    )
                    if not respawn(i):
                        return fail_over_to_serial()
        return []
    finally:
        for w in workers:
            if w.busy or not w.proc.is_alive():
                w.kill()
                continue
            try:
                w.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for w in workers:
            w.proc.join(2.0)
            if w.proc.is_alive():
                w.kill()
            try:
                w.conn.close()
            except OSError:  # pragma: no cover
                pass


# ------------------------------------------------------------ entry point


def run_session(
    tasks: Sequence[ExperimentTask],
    jobs: int = 1,
    *,
    session_dir=None,
    retries: int = 2,
    backoff_base: float = 0.25,
    task_timeout: float | None = None,
    task_fn: Callable | None = None,
    validate_corpus: bool = False,
    descriptors: dict | None = None,
    threads: int | None = None,
) -> SessionOutcome:
    """Run ``tasks`` on ``jobs`` processes; merge deterministically.

    ``jobs <= 1`` runs every task inline in this process; larger values
    fan out over supervised workers seeded with the shared-memory
    corpus.  Results come back in **task order** whether or not a
    ``task_fn`` replaces the harness, and duplicate task keys raise
    ``ValueError``.  ``validate_corpus`` checks every harness graph with
    :meth:`~repro.csr.graph.CSRGraph.validate` before the run.
    ``session_dir`` enables the fsynced journal; passing the same
    directory again resumes.  A failed attempt is retried up to
    ``retries`` times after a :func:`backoff_delay` with base
    ``backoff_base``; ``task_timeout`` kills a worker whose task runs
    longer and charges the attempt.  Quarantined tasks appear in
    ``outcome.failed`` (and ``summary["failed"]``) instead of raising,
    and are left out of ``outcome.results``.

    ``descriptors`` passes pre-published shared-memory corpus blocks
    (the serving daemon's resident registry); the session then skips
    its own publish and does **not** release the segments on exit —
    their lifetime belongs to the caller.

    ``threads`` is the intra-run tile-thread budget
    (:mod:`repro.parallel.tiles`): the serial path installs the engine
    in-process, the pool path installs a per-worker engine clamped so
    ``jobs x threads <= cores``.  Results are bitwise identical at any
    value; ``None`` leaves whatever engine is already installed.
    """
    from . import tiles
    tasks = list(tasks)
    _check_unique(tasks)
    keys = [t.key() for t in tasks]
    t_start = time.perf_counter()

    journal = None
    if session_dir is not None:
        journal = SessionJournal(session_dir)
    state = _SessionState(
        tasks, keys, retries=retries, backoff_base=backoff_base, journal=journal,
    )

    if journal is not None:
        fp = fingerprint_payload({"schema": JOURNAL_SCHEMA, "keys": keys})
        records, valid = SessionJournal.scan(journal.path)
        if records:
            head = records[0]
            if head.get("type") != "session" or head.get("tasks_fp") != fp:
                raise SessionMismatch(
                    f"journal at {journal.path} was written by a different "
                    f"task set (fingerprint {head.get('tasks_fp')!r} != {fp!r})"
                )
            journal.open(truncate_to=valid, seq=len(records))
            key_set = set(keys)
            for rec in records[1:]:
                if rec.get("type") != "done":
                    continue
                key, row = rec.get("key"), rec.get("row")
                if key not in key_set or not isinstance(row, dict):
                    continue
                if row_digest(row) != rec.get("digest"):
                    warnings.warn(
                        f"journal row for {key!r} fails its digest; re-running",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    continue
                if key not in state.by_key:
                    state.resumed += 1
                state.by_key[key] = row
        else:
            journal.open(truncate_to=0)
            journal.append(
                {"type": "session", "schema": JOURNAL_SCHEMA, "tasks_fp": fp,
                 "n_tasks": len(tasks)}
            )
            atomic_write_bytes(
                journal.dir / "session.json",
                json.dumps(
                    {"schema": JOURNAL_SCHEMA, "tasks_fp": fp, "keys": keys,
                     "jobs": jobs, "retries": retries},
                    indent=1, sort_keys=True,
                ).encode(),
            )

    remaining = [i for i, k in enumerate(keys) if k not in state.by_key]

    if validate_corpus and task_fn is None and remaining:
        from ..generators import corpus

        for name, seed in dict.fromkeys(
            (tasks[i].graph, tasks[i].seed) for i in remaining
        ):
            g, _spec = corpus.load(name, seed)
            g.validate()

    shared_bytes = 0
    handles: list = []
    preshared = descriptors
    eff_jobs = max(1, jobs)
    worker_threads = (
        None if threads is None else tiles.clamp_threads(threads, eff_jobs)
    )
    try:
        if remaining and eff_jobs > 1:
            descriptors = dict(preshared) if preshared else {}
            sizes: dict = {
                key: d["nbytes"] for key, d in descriptors.items()
            }
            shared_bytes = sum(sizes.values())
            if not descriptors and task_fn is None:
                try:
                    descriptors, handles, sizes = publish_corpus(
                        (tasks[i].graph, tasks[i].seed) for i in remaining
                    )
                    shared_bytes = sum(d["nbytes"] for d in descriptors.values())
                except OSError as e:
                    state.degrade("shm.publish", "per-worker-cache-load", e)
                    descriptors, handles, sizes = {}, [], {}
            # LPT: biggest graph first (tier-aware), task order tie-break
            order = sorted(
                remaining,
                key=lambda i: (
                    -task_weight(tasks[i].graph, tasks[i].seed, sizes), i
                ),
            )
            pending = [
                (0.0, pos, idx, 0) for pos, idx in enumerate(order)
            ]
            heapq.heapify(pending)
            state._order = len(pending)
            leftover = _pool_drain(
                state, pending, jobs=eff_jobs, descriptors=descriptors,
                task_fn=task_fn, task_timeout=task_timeout,
                threads=worker_threads,
            )
            if leftover:
                # degraded to serial: attach the published corpus (if
                # any) in-process so the drain still maps zero-copy
                _worker_init(descriptors, worker_threads)
                try:
                    _serial_drain(state, leftover, task_fn)
                finally:
                    # drop the parent's zero-copy attachments *before*
                    # the handles are unlinked, so teardown order never
                    # trips "cannot close exported pointers exist"
                    _worker_init({})
        elif remaining:
            _worker_init({}, worker_threads)
            pending = [(0.0, pos, idx, 0) for pos, idx in enumerate(remaining)]
            heapq.heapify(pending)
            state._order = len(pending)
            _serial_drain(state, pending, task_fn)
    except BaseException:
        if journal is not None:
            journal.append({"type": "abort"})
            journal.close()
        raise
    finally:
        _release(handles)

    wall = time.perf_counter() - t_start
    results = [state.by_key[k] for k in keys if k in state.by_key]
    failed = [state.quarantined[i] for i in sorted(state.quarantined)]
    summary = {
        "jobs": eff_jobs,
        "tasks": len(tasks),
        "wall_s": wall,
        "busy_s": state.busy_s,
        "utilization": state.busy_s / (eff_jobs * wall) if wall > 0 else 0.0,
        "overhead_s": max(0.0, wall - state.busy_s / eff_jobs),
        "shared_mib": shared_bytes / (1024 * 1024),
        "workers": {pid: dict(w) for pid, w in sorted(state.workers.items())},
        "retries": state.retried,
        "crashes": state.crashes,
        "hangs": state.hangs,
        "quarantined": len(failed),
        "resumed": state.resumed,
        "degradations": list(state.degradations),
        "failed": failed,
    }
    if worker_threads is not None:
        summary["threads"] = worker_threads
    eng = tiles.current()
    if eff_jobs == 1 and eng is not None:
        summary["tiles"] = eng.snapshot()
    if journal is not None:
        journal.append(
            {"type": "end", "completed": len(results),
             "quarantined": len(failed), "retries": state.retried,
             "crashes": state.crashes, "hangs": state.hangs,
             "resumed": state.resumed}
        )
        summary["journal"] = str(journal.path)
        summary["journal_disabled"] = journal.disabled
        journal.close()
    return SessionOutcome(results=results, summary=summary, failed=failed)
