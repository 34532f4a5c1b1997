"""Host-time spans recorded from outside the program.

The traced run wraps the public entry points of each layer (module) of
``repro`` with :meth:`SpanRecorder.wrap`.  A span is one call: name,
start and end on the system-wide monotonic clock (so spans written by
the serving daemon line up with the load generator's), the index of
the enclosing span on the same thread, and the op or request id that
was current when it opened.  Spans stay in memory and are written once,
when the run ends.

A layer's self time is its spans' durations minus the time covered by
their child spans; :func:`self_times` computes it per span name.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from pathlib import Path

#: (span name, "module:attribute" or "module:Class.method") for every
#: wrapped entry point.  ``from x import f`` copies are patched in each
#: importing module, because patching only the defining module would
#: miss calls made through the copy.
ENTRY_POINTS = [
    ("fm_refine", "repro.partition.multilevel:fm_refine"),
    ("greedy_graph_growing", "repro.partition.multilevel:greedy_graph_growing"),
    ("rebalance_exact", "repro.partition.multilevel:rebalance_exact"),
    ("fiedler_dense", "repro.partition.multilevel:fiedler_dense"),
    ("fiedler_power_iteration", "repro.partition.multilevel:fiedler_power_iteration"),
    ("fiedler_power_iteration", "repro.partition.applications:fiedler_power_iteration"),
    ("greedy_kway_refine", "repro.partition.kway:greedy_kway_refine"),
    ("spmv", "repro.partition.spectral:spmv"),
    ("spmv", "repro.partition.applications:spmv"),
    ("apply_edges", "repro.csr.update:apply_edges"),
    ("patch_hierarchy", "repro.coarsen.incremental:patch_hierarchy"),
    ("tape_replay", "repro.trace.tape:Tape.replay"),
    ("registry_graph", "repro.serve.registry:GraphRegistry.graph"),
    ("serve_execute", "repro.serve.executor:ServeExecutor.execute"),
    ("serve_execute_batch", "repro.serve.executor:ServeExecutor.execute_batch"),
    ("journal_append", "repro.serve.journal:ServeJournal.append"),
    ("run_coarsening", "repro.bench.harness:run_coarsening"),
    ("run_partition", "repro.bench.harness:run_partition"),
    ("run_partition_kway", "repro.bench.harness:run_partition_kway"),
    ("run_cluster", "repro.bench.harness:run_cluster"),
    ("run_coarsening", "repro.serve.executor:run_coarsening"),
    ("run_partition", "repro.serve.executor:run_partition"),
    ("run_partition_kway", "repro.serve.executor:run_partition_kway"),
    ("run_cluster", "repro.serve.executor:run_cluster"),
]

#: registries whose callables are what ``get_coarsener`` /
#: ``get_constructor`` return; every entry is wrapped in place
REGISTRIES = [
    ("coarsen", "repro.coarsen.base:_REGISTRY"),
    ("construct", "repro.construct.base:_REGISTRY"),
]

def request_idem(args):
    """The request id (``idem``) of a call whose second argument is a request."""
    req = args[1] if len(args) > 1 and isinstance(args[1], dict) else None
    return req.get("idem") if req is not None else None


#: span name -> function of the call's arguments whose value the span
#: records (request id, batch size)
INFO = {
    "serve_execute": request_idem,
    "serve_execute_batch": lambda args: len(args[1]),
}

OP_SPANS = ("run_coarsening", "run_partition", "run_partition_kway", "run_cluster")


def _resolve(target: str):
    mod_name, _, attr = target.partition(":")
    owner = importlib.import_module(mod_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class SpanRecorder:
    """In-memory span sink plus the wrappers that feed it."""

    def __init__(self):
        #: [name, start_ns, end_ns, parent index or -1, op id, info]
        self.spans: list[list] = []
        self.enabled = True
        self.op_id = None
        self._local = threading.local()

    def wrap(self, name: str, fn, info=None):
        """Return ``fn`` wrapped to record one span per call.

        ``functools.wraps`` copies ``__dict__`` too, which keeps
        attributes such as ``coarsener_name`` that callers dispatch on.
        ``info(args)`` optionally records one value with the span (a
        request id, a batch size).
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            span = [name, 0, 0, stack[-1] if stack else -1, recorder.op_id,
                    info(args) if info is not None else None]
            recorder.spans.append(span)
            stack.append(len(recorder.spans) - 1)
            span[1] = time.monotonic_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic_ns()
                stack.pop()

        return wrapper

    def install(self, extra=()) -> "SpanRecorder":
        """Wrap every entry point (plus ``extra`` name/target/info triples)."""
        for layer, target in REGISTRIES:
            owner, attr = _resolve(target)
            registry = getattr(owner, attr)
            for key, fn in list(registry.items()):
                registry[key] = self.wrap(layer, fn)
        for name, target, info in [(n, t, INFO.get(n)) for n, t in ENTRY_POINTS] + list(extra):
            owner, attr = _resolve(target)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), info))
        return self

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps(self.spans))


def self_times(spans: list[list]) -> dict[str, dict]:
    """Per span name: call count, total and self seconds.

    Only closed spans count (an end stamp of 0 is a call still running
    when the spans were written).
    """
    child_ns = [0] * len(spans)
    for s in spans:
        if s[2] and s[3] >= 0:
            child_ns[s[3]] += s[2] - s[1]
    out: dict[str, dict] = {}
    for i, s in enumerate(spans):
        if not s[2]:
            continue
        d = out.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        d["calls"] += 1
        d["total_s"] += (s[2] - s[1]) / 1e9
        d["self_s"] += (s[2] - s[1] - child_ns[i]) / 1e9
    return out
