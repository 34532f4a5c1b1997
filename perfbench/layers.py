"""Per-layer metrics of a traced run, from spans plus per-op rows.

Every workload reports every metric; a layer a workload never enters
reports 0 calls and 0 seconds.  Which end-to-end metric each layer
metric should move, and on which workload, is listed in
``perfbench/README.md``.
"""

from __future__ import annotations

from common import geomean, median, tail
from tracing import OP_SPANS, self_times


def _span_stats(spans: list[list]) -> dict:
    st = self_times(spans)

    def s(name):
        return st.get(name, {}).get("self_s", 0.0)

    def n(name):
        return st.get(name, {}).get("calls", 0)

    fiedler = {i for i, sp in enumerate(spans) if sp[0] == "fiedler_power_iteration"}
    power_iters = sum(1 for sp in spans if sp[0] == "spmv" and sp[3] in fiedler and sp[2])
    op_total = sum((sp[2] - sp[1]) / 1e9 for sp in spans
                   if sp[0] in OP_SPANS and sp[2]
                   and (sp[3] < 0 or spans[sp[3]][0] not in OP_SPANS))
    coarsen_self = s("coarsen") + s("construct")
    partition_self = sum(s(x) for x in ("fm_refine", "greedy_graph_growing", "rebalance_exact",
                                        "fiedler_dense", "fiedler_power_iteration",
                                        "greedy_kway_refine", "spmv"))
    harness_self = sum(s(x) for x in OP_SPANS)
    share = (lambda v: v / op_total) if op_total > 0 else (lambda v: 0.0)
    return {
        "coarsen.mapping_s": s("coarsen"),
        "coarsen.calls": n("coarsen"),
        "coarsen.host_share": share(coarsen_self),
        "construct.s": s("construct"),
        "construct.calls": n("construct"),
        "partition.fm_s": s("fm_refine"),
        "partition.fm_calls": n("fm_refine"),
        "partition.ggg_s": s("greedy_graph_growing"),
        "partition.rebalance_s": s("rebalance_exact"),
        "partition.fiedler_s": s("fiedler_dense") + s("fiedler_power_iteration"),
        "partition.power_iters": power_iters,
        "partition.kway_refine_s": s("greedy_kway_refine"),
        "partition.kway_calls": n("greedy_kway_refine"),
        "partition.host_share": share(partition_self),
        "sparse.spmv_s": s("spmv"),
        "sparse.spmv_calls": n("spmv"),
        "csr.apply_edges_s": s("apply_edges"),
        "csr.apply_edges_calls": n("apply_edges"),
        "incremental.patch_s": s("patch_hierarchy"),
        "incremental.patches": n("patch_hierarchy"),
        "trace.replay_s": s("tape_replay"),
        "trace.replays": n("tape_replay"),
        "registry.load_s": s("registry_graph"),
        "journal.appends": n("journal_append"),
        "journal.append_s": s("journal_append"),
        # share of op host time the wrapped layers account for; the rest
        # is harness code between the layer calls
        "trace.layer_coverage": share(op_total - harness_self),
    }


def op_row(kind: str, row: dict, phases: dict, cr: float | None = None) -> dict:
    """Per-op inputs of the per-layer metrics: simulated seconds, ledger
    bytes of the mapping and construction phases, coarsening ratio.

    ``row`` is a harness result or a served row; ``phases`` the
    ``phases`` of its serialized trace.
    """
    def nbytes(phase):
        c = phases.get(phase, {}).get("counters", {})
        return c.get("stream_bytes", 0.0) + c.get("random_bytes", 0.0)

    total = row.get("total_s") or 0.0
    return {"kind": kind, "sim_total": total,
            "sim_coarsen": total if kind == "coarsen" else row.get("coarsen_s") or 0.0,
            "mapping_bytes": nbytes("mapping"), "construction_bytes": nbytes("construction"),
            "cr": cr if cr is not None else row.get("cr")}


def _row_stats(rows: list[dict]) -> dict:
    sim_total = sum(r["sim_total"] for r in rows)
    sim_coarsen = sum(r["sim_coarsen"] for r in rows)
    sim_partition = sum(r["sim_total"] - r["sim_coarsen"] for r in rows
                        if r["kind"] == "partition")
    crs = [r["cr"] for r in rows if r.get("cr")]
    return {
        "coarsen.mapping_bytes": sum(r["mapping_bytes"] for r in rows),
        "construct.bytes": sum(r["construction_bytes"] for r in rows),
        "coarsen.cr": geomean(crs) if crs else 0.0,
        "coarsen.sim_share": sim_coarsen / sim_total if sim_total else 0.0,
        "partition.sim_share": sim_partition / sim_total if sim_total else 0.0,
    }


SERVE_ZERO = {
    "serve.queue_wait_p50_ms": 0.0, "serve.queue_wait_tail_ms": 0.0,
    "serve.exec_p50_ms": 0.0, "serve.transport_p50_ms": 0.0,
    "serve.batch_size_mean": 0.0, "serve.hit_ratio": 0.0, "serve.builds": 0,
    "serve.evictions": 0, "serve.rejected": 0, "serve.late_ms": 0.0,
    "serve.open_p50_ms": 0.0, "serve.open_tail_ms": 0.0,
}


def _serve_stats(spans: list[list], client: dict, status: list[dict], late_ms: float) -> dict:
    """Queue wait, execution and transport per request, from daemon spans."""
    admit, start, resolve, execs = {}, {}, {}, []
    for sp in spans:
        if not sp[2]:
            continue
        if sp[0] == "admit":
            admit[sp[5]] = sp[1]
        elif sp[0] == "serve_execute":
            start[sp[5]] = sp[1]
            execs.append((sp[2] - sp[1]) / 1e6)
        elif sp[0] == "resolve":
            resolve[sp[5]] = sp[1]
    # client: request id -> [latency, calibration time inside it] (s);
    # the daemon calibrates between admission and execution
    waits = [(start[r] - admit[r]) / 1e6 - 1000 * client[r][1]
             for r in start if r in admit and r in client]
    transport = [1000 * client[r][0] - (resolve[r] - admit[r]) / 1e6
                 for r in client if r in admit and r in resolve]
    batches = [sp[5] for sp in spans if sp[0] == "serve_execute_batch" and sp[2]]
    h0, h1 = status[0]["hierarchy"], status[1]["hierarchy"]
    hits, misses = h1["hits"] - h0["hits"], h1["misses"] - h0["misses"]
    c0, c1 = status[0]["counters"], status[1]["counters"]
    rejected = sum(c1.get(k, 0) - c0.get(k, 0) for k in ("rejected_full", "rejected_shutdown"))
    return {
        "serve.queue_wait_p50_ms": median(waits),
        "serve.queue_wait_tail_ms": tail(waits)[1],
        "serve.exec_p50_ms": median(execs),
        "serve.transport_p50_ms": median(transport),
        "serve.batch_size_mean": sum(batches) / len(batches) if batches else 0.0,
        "serve.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.builds": h1["builds"] - h0["builds"],
        "serve.evictions": h1["evictions"] - h0["evictions"],
        "serve.rejected": rejected,
        "serve.late_ms": late_ms,
    }


def per_layer(res: dict, spans: list[list]) -> dict:
    """Every per-layer metric of one traced run."""
    out = _span_stats(spans)
    out.update(_row_stats(res.get("rows", [])))
    out.update(SERVE_ZERO)
    if "status" in res:
        out.update(_serve_stats(spans, res["client"], res["status"], res["late_ms"]))
        out["serve.open_p50_ms"] = res["open_p50_ms"]
        out["serve.open_tail_ms"] = res["open_tail_ms"]
    out["cache.load_s"] = res["cache"]["load_s"]
    out["cache.misses"] = res["cache"]["misses"]
    out["cache.regenerations"] = res["cache"]["regenerations"]
    tiles, budget = res.get("tiles", [0, 0]), res.get("budget", [0, 0.0])
    out["tiles.kernels"], out["tiles.tiles"] = tiles
    out["budget.engaged"], out["budget.peak_planned_mb"] = budget
    out["proc.cpu_per_wall"] = res["proc_cpu_per_wall"]
    out["update_p50_ms"] = res.get("update_p50_ms", 0.0)
    out["cut_rel"] = res["cut_rel"]
    out["error_rate"] = res["failed"] / max(res["attempted"], 1)
    out["trace.overhead"] = (
        res["untraced_ops_per_s"] / res["traced_ops_per_s"] - 1.0
        if res.get("traced_ops_per_s") else 0.0
    )
    return out
