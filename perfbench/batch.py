"""The three batch workloads: one caller, sequential closed loop.

Each op is one harness run (``repro.bench.harness.run_*``) on a corpus
graph or scale tier.  A pass is the workload's full op list in an order
drawn from the seed; a run is an untimed warm-up followed by a fixed
number of timed passes, so every run measures the same op multiset.
Every op's output is checked after it is timed.
"""

from __future__ import annotations

import json
import random
import time

from common import (calibrate, geomean, isclose, load_reference, median,
                    speed_factor, tail)
from layers import op_row

#: scale tiers of the ``scale-tier`` workload
TIERS = (("citation", "x10"), ("europeOsm", "x10"), ("ppa", "x100"))
#: memory budget of the ``scale-tier`` workload (bytes)
SCALE_BUDGET = 32 << 20

#: nominal seconds of one pass on the reference container; the number
#: of timed passes is round(--seconds / this), fixed per workload
PASS_SECONDS = {"coarsen-matrix": 9.0, "partition-corpus": 6.5, "scale-tier": 4.0}


def _op(kind, graph, machine="gpu", coarsener="hec", constructor="sort",
        refinement=None, oom=False) -> dict:
    op = {"kind": kind, "graph": graph, "machine": machine,
          "coarsener": coarsener, "constructor": constructor,
          "refinement": refinement, "oom": oom}
    op["key"] = ":".join(
        [kind, machine, coarsener, constructor] + ([refinement] if refinement else [])
        + [f"oom{int(oom)}", graph]
    )
    return op


def workload_ops(workload: str) -> list[dict]:
    from repro.generators.corpus import CORPUS

    ops = []
    if workload == "coarsen-matrix":
        # Tables II/III (HEC x constructor on both machine models, no OOM
        # simulation) and Table IV (coarseners with sort on the gpu model)
        for spec in CORPUS:
            for machine in ("gpu", "cpu"):
                for constructor in ("sort", "hash", "spgemm"):
                    ops.append(_op("coarsen", spec.name, machine, "hec", constructor))
            for coarsener in ("hem", "mtmetis", "gosh", "mis2"):
                ops.append(_op("coarsen", spec.name, "gpu", coarsener, oom=True))
    elif workload == "partition-corpus":
        for spec in CORPUS:
            for refinement in ("spectral", "fm"):
                ops.append(_op("partition", spec.name, refinement=refinement))
    elif workload == "scale-tier":
        for base, tier in TIERS:
            ops.append(_op("coarsen", f"{base}@{tier}"))
            ops.append(_op("partition", f"{base}@{tier}", refinement="spectral"))
    else:
        raise ValueError(f"unknown batch workload {workload!r}")
    return ops


def load_inputs(workload: str) -> dict:
    """Load (and structurally validate) every graph the workload uses."""
    from repro.bench import harness
    from repro.generators.corpus import load_tier

    graphs = {}
    for op in workload_ops(workload):
        name = op["graph"]
        if name in graphs:
            continue
        if "@" in name:
            base, tier = name.split("@")
            g, spec = load_tier(base, tier, 0)
        else:
            g, spec = harness.corpus_graph(name, 0)
        g.validate()
        graphs[name] = (g, spec)
    return graphs


def execute(op: dict, graphs: dict) -> dict:
    from repro.bench import harness

    g, spec = graphs[op["graph"]]
    kw = dict(machine=op["machine"], coarsener=op["coarsener"],
              constructor=op["constructor"], seed=0, oom=op["oom"])
    if op["kind"] == "coarsen":
        return harness.run_coarsening(g, spec, **kw)
    return harness.run_partition(g, spec, refinement=op["refinement"], **kw)


def summary(op: dict, r: dict) -> dict:
    """The deterministic outputs an op is checked on."""
    out = {"oom": bool(r["oom"]), "total_s": r["total_s"], "levels": r.get("levels")}
    if op["kind"] == "coarsen":
        out["coarsest_n"] = r.get("coarsest_n")
    else:
        out["cut"] = r.get("cut")
    return out


class Checker:
    """Output checks of batch ops; every failure is one message."""

    def __init__(self, reference: dict, baseline: dict):
        self.reference = reference
        self.baseline = baseline
        self.failures: list[str] = []
        self.baseline_checked: set[str] = set()
        self.cut_ratios: list[float] = []

    def check(self, op: dict, r: dict, graphs: dict) -> bool:
        from repro.partition.metrics import edge_cut, validate_partition

        errors = []
        got = summary(op, r)
        want = self.reference.get(op["key"])
        if want is None:
            errors.append("no reference recorded")
        else:
            for field, value in want.items():
                if not isclose(got.get(field), value):
                    errors.append(f"{field}={got.get(field)!r}, reference {value!r}")
        key = r["trace"].config_key()
        entry = self.baseline.get(key)
        if entry is not None and not r["oom"]:
            tracer = r["trace"]
            for phase, seconds in entry["phases"].items():
                if not isclose(tracer.phase_seconds(phase), seconds):
                    errors.append(f"baseline {key} phase {phase} differs")
            if not isclose(tracer.total_seconds(), entry["total_s"]):
                errors.append(f"baseline {key} total differs")
            self.baseline_checked.add(key)
        if op["kind"] == "partition" and not r["oom"]:
            g, _ = graphs[op["graph"]]
            part = r["result"].part
            try:
                validate_partition(g, part, 2)
            except ValueError as e:
                errors.append(f"invalid partition: {e}")
            if not isclose(r["cut"], edge_cut(g, part)):
                errors.append(f"reported cut {r['cut']} != recomputed {edge_cut(g, part)}")
            if want is not None and want.get("cut"):
                self.cut_ratios.append(r["cut"] / want["cut"])
        for e in errors:
            self.failures.append(f"{op['key']}: {e}")
        return not errors


def _cache_counters() -> dict:
    from repro.bench.harness import cache_stats

    return cache_stats()["counters"]


def run(args, recorder, setup_done) -> dict:
    """Set up, warm up, time the passes, check every output."""
    from repro.bench import harness  # noqa: F401  (import is part of set-up)

    workload = args.workload
    c0 = _cache_counters()
    budget = None
    engine = None
    if workload == "scale-tier":
        from repro.parallel import tiles
        from repro.storage.budget import MemoryBudget

        engine = tiles.configure(tiles.resolve_threads(0))
        budget = MemoryBudget(SCALE_BUDGET)
    graphs = load_inputs(workload)
    c1 = _cache_counters()
    setup_done()

    ops = workload_ops(workload)
    reference = load_reference()["ops"]
    with open("BENCH_baseline.json") as fh:
        baseline = json.load(fh)["entries"]
    checker = Checker(reference, baseline)

    from repro.storage import budget as budget_mod

    # calibration samples by pass kind (untraced, traced)
    cal: dict[bool, list[float]] = {False: [], True: []}

    def timed(op, traced=False):
        cal[traced].append(calibrate())
        with budget_mod.limit(budget):
            t0 = time.perf_counter()
            r = execute(op, graphs)
            return r, time.perf_counter() - t0

    # warm-up: every op on the smallest graph, then each other graph once
    # per op kind -- first-call costs (lazy imports, the first eigh, tile
    # pools, page faults on the inputs) land here
    smallest = min(graphs, key=lambda n: graphs[n][0].m)
    warm, seen = [], set()
    for op in ops:
        if op["graph"] == smallest or (op["graph"], op["kind"]) not in seen:
            warm.append(op)
            seen.add((op["graph"], op["kind"]))
    for op in warm:
        r, _ = timed(op)
        checker.check(op, r, graphs)
    if recorder is not None:
        recorder.spans.clear()
    cal[False].clear()

    n_pass = max(1, round(args.seconds / PASS_SECONDS[workload]))
    if recorder is not None:
        n_pass = max(2, n_pass)  # alternate untraced / traced passes
    c2 = _cache_counters()
    tiles0 = (engine.kernels, engine.tiles) if engine is not None else (0, 0)
    lat = {False: [], True: []}
    by_op: dict[str, list[float]] = {}
    passes = []
    rows = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    outputs = {False: {}, True: {}}
    attempted = failed = 0
    for p in range(n_pass):
        traced = recorder is not None and p % 2 == 1
        order = list(ops)
        random.Random(f"{workload}:{args.seed}:{p}").shuffle(order)
        if recorder is not None:
            recorder.enabled = traced
        pass_lat = []
        for i, op in enumerate(order):
            if recorder is not None:
                recorder.op_id = f"p{p}:{i}"
            attempted += 1
            try:
                r, dt = timed(op, traced)
            except Exception as e:  # noqa: BLE001 - a raised op is a failed op
                failed += 1
                checker.failures.append(f"{op['key']}: raised {type(e).__name__}: {e}")
                continue
            pass_lat.append(dt)
            if not traced:
                by_op.setdefault(op["key"], []).append(dt)
            if not checker.check(op, r, graphs):
                failed += 1
            outputs[traced][op["key"]] = summary(op, r)
            if traced:
                cr = (r["result"].hierarchy.coarsening_ratio()
                      if op["kind"] == "partition" and not r["oom"] else None)
                rows.append(op_row(op["kind"], r, r["trace"].to_dict()["phases"], cr))
            del r
        lat[traced].extend(pass_lat)
        passes.append({"pass": p, "traced": traced, "ops": len(pass_lat),
                       "seconds": sum(pass_lat),
                       "ops_per_s": len(pass_lat) / max(sum(pass_lat), 1e-12)})
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    if recorder is not None:
        recorder.enabled = False
    c3 = _cache_counters()

    for key in outputs[True]:
        if outputs[True][key] != outputs[False].get(key, outputs[True][key]):
            checker.failures.append(f"{key}: traced output differs from untraced")
    for field in ("misses", "regenerations"):
        if c3[field] != c2[field]:
            checker.failures.append(f"graph cache {field} while timing: {c3[field] - c2[field]}")
    expected = {k for k in baseline if _in_workload(k, ops)}
    if checker.baseline_checked != expected:
        checker.failures.append(
            f"{len(expected - checker.baseline_checked)} BENCH_baseline.json "
            "entries of the workload were not checked")

    f = speed_factor(cal[False])
    # each op's latency is the median of that op over the run's passes:
    # the workload is a few dozen distinct ops, so a percentile that falls
    # between two of them would otherwise flip with per-sample noise
    denoised = [median(v) for v in by_op.values() for _ in v]
    q, tail_s = tail(denoised)
    raw = {"ops_per_s": len(lat[False]) / max(sum(lat[False]), 1e-12),
           "op_p50_ms": 1000 * median(denoised),
           "op_tail_ms": 1000 * tail_s}
    out = {
        "attempted": attempted,
        "failed": failed,
        "failures": checker.failures[:20],
        "passes": passes,
        "n_ops": len(lat[False]),
        "tail_q": q,
        "speed_factor": f,
        "raw": raw,
        "ops_per_s": raw["ops_per_s"] * f,
        "op_p50_ms": raw["op_p50_ms"] / f,
        "op_tail_ms": raw["op_tail_ms"] / f,
        "cut_rel": geomean(checker.cut_ratios) if checker.cut_ratios else 1.0,
        "proc_cpu_per_wall": cpu / wall,
        "cache": {"load_s": c1["load_seconds"] - c0["load_seconds"],
                  "misses": c3["misses"] - c2["misses"],
                  "regenerations": c3["regenerations"] - c2["regenerations"]},
    }
    if recorder is not None:
        out["traced_ops_per_s"] = (len(lat[True]) / max(sum(lat[True]), 1e-12)
                                   * speed_factor(cal[True]))
        out["rows"] = rows
        out["tiles"] = [engine.kernels - tiles0[0], engine.tiles - tiles0[1]] if engine else [0, 0]
        out["budget"] = [budget.engaged, budget.peak_planned / 2**20] if budget else [0, 0.0]
    return out


def _in_workload(key: str, ops: list[dict]) -> bool:
    kind, machine, coarsener, constructor, *rest = key.split(":")
    graph = rest[-2]
    refinement = rest[0] if kind == "partition" else None
    return any(op["kind"] == kind and op["machine"] == machine and op["graph"] == graph
               and op["coarsener"] == coarsener and op["constructor"] == constructor
               and op["refinement"] == refinement for op in ops)


def record_reference(workload: str) -> dict:
    """Outputs of every op of ``workload`` on this commit."""
    graphs = load_inputs(workload)
    out = {}
    for op in workload_ops(workload):
        budget = SCALE_BUDGET if workload == "scale-tier" else None
        from repro.storage import budget as budget_mod

        with budget_mod.limit(budget):
            out[op["key"]] = summary(op, execute(op, graphs))
    return out


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit("run through perfbench/run.py")
