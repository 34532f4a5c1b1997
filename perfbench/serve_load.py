"""The ``serve-mixed`` workload: a daemon child under seeded mixed load.

The daemon (``python -m repro.serve``, jobs 1, threads 1, with a state
journal) runs as a child of this process through ``daemon.py``.  Load
comes from this process over at most two connections:

* warm-up: one cycle, closed loop, untimed (builds the hierarchies);
* latency phase: an open loop on two connections, Poisson arrivals at
  ``RATE`` requests per second, each request timed from its due instant;
* throughput phase: a closed loop on one connection, so the daemon is
  idle while ``daemon.py`` times its calibration kernel before a batch.

A cycle is a fixed multiset of requests (``CYCLE``) in a seeded order,
so every seed measures the same mix.  Updates go to ``WRITE_TENANT``
only; reads of it take a client-side tenant lock so the graph version
each read saw is known exactly, and every served partition is checked
against that version afterwards.  The other tenants never change, so
their cuts are compared with the committed reference and a seeded
sample of their rows with the batch harness row.
"""

from __future__ import annotations

import json
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time

import numpy as np

from common import (WORK, child_env, geomean, isclose, load_reference, median,
                    speed_factor, tail)
from layers import op_row

TENANTS = ("ppa", "citation", "europeOsm")
WRITE_TENANT = "europeOsm"
#: one cycle of the request mix: (op, graph, overrides)
CYCLE = (
    ("partition", "ppa", {"refinement": "fm"}),
    ("partition", "europeOsm", {"refinement": "spectral"}),
    ("partition", "citation", {"refinement": "spectral"}),
    ("partition", "ppa", {"k": 4}),
    ("partition", "ppa", {"k": 16}),
    ("partition", "ppa", {"k": 64}),
    ("coarsen", "citation", {}),
    ("coarsen", "europeOsm", {"coarsener": "hem"}),
    ("cluster", "europeOsm", {"coarsener": "mtmetis"}),
    ("update_graph", "europeOsm", {}),
)
#: open-loop arrival rate (requests/s): fixed, well below the capacity of
#: one connection (about 12 requests/s for this mix on the container the
#: benchmark was defined on), so the latency phase shows queueing without
#: a growing backlog
RATE = 2.0
UPDATE_EDGES = 16
#: share of --seconds spent in the open loop; the rest is the closed loop
OPEN_SHARE = 0.5
#: nominal seconds of one closed-loop cycle; both phases send whole
#: cycles, so request counts are fixed per --seconds
CLOSED_CYCLE_SECONDS = 0.9
SAMPLE_ROWS = 3
SOCKET = "perfbench/_work/serve/daemon.sock"


def request_id(req: dict) -> str:
    """Kind of a request (tenant, op and parameters); the reference key."""
    if req["op"] == "update_graph":
        return f"update_graph:{req['graph']}"
    if req["op"] == "partition":
        how = req["refinement"] if req["k"] == 2 else f"k{req['k']}"
        return f"partition:{req['graph']}:{how}"
    return f"{req['op']}:{req['graph']}:{req['coarsener']}"


def _request(op, graph, overrides) -> dict:
    req = {"op": op, "graph": graph, "seed": 0}
    if op != "update_graph":
        req.update(machine="gpu", coarsener="hec", constructor="sort",
                   refinement="fm", k=2, oom=False)
        req.update(overrides)
        if op == "partition":
            req["assignment"] = True
    return req


class Schedule:
    """Seeded request stream: cycles of ``CYCLE`` plus update batches."""

    def __init__(self, seed: int, base_graph):
        self.rng = random.Random(f"serve-mixed:{seed}")
        self.g = base_graph
        self.seq = 0

    def _edges(self):
        g, rng = self.g, self.rng
        add = []
        while len(add) < UPDATE_EDGES:
            u, v = rng.randrange(g.n), rng.randrange(g.n)
            if u != v:
                add.append([u, v, 1.0])
        remove = []
        while len(remove) < UPDATE_EDGES:
            u = rng.randrange(g.n)
            lo, hi = int(g.xadj[u]), int(g.xadj[u + 1])
            if hi > lo:
                remove.append([u, int(g.adjncy[rng.randrange(lo, hi)])])
        return add, remove

    def cycles(self, n: int, tag: str) -> list[dict]:
        out = []
        for _ in range(n):
            cycle = list(CYCLE)
            self.rng.shuffle(cycle)
            for op, graph, overrides in cycle:
                req = _request(op, graph, overrides)
                if op == "update_graph":
                    req["add"], req["remove"] = self._edges()
                self.seq += 1
                req["idem"] = f"{tag}{self.seq}"
                out.append(req)
        return out

    def arrivals(self, n: int) -> list[float]:
        """Poisson arrival offsets, stratified: the n gaps are the
        exponential distribution's quantiles at (i + 1/2) / n in a seeded
        order, so every seed sees the same gap distribution and only the
        order of gaps and requests varies."""
        gaps = [-math.log(1.0 - (i + 0.5) / n) / RATE for i in range(n)]
        self.rng.shuffle(gaps)
        t, out = 0.0, []
        for gap in gaps:
            t += gap
            out.append(t)
        return out


class TenantLock:
    """Readers share a tenant; an update holds it alone."""

    def __init__(self):
        self.cond = threading.Condition()
        self.readers = 0
        self.writer = False

    def acquire(self, write: bool) -> None:
        with self.cond:
            if write:
                while self.writer or self.readers:
                    self.cond.wait()
                self.writer = True
            else:
                while self.writer:
                    self.cond.wait()
                self.readers += 1

    def release(self, write: bool) -> None:
        with self.cond:
            if write:
                self.writer = False
            else:
                self.readers -= 1
            self.cond.notify_all()


class Load:
    """Client connections driving one daemon, with per-tenant versions."""

    def __init__(self, clients):
        self.clients = clients
        self.locks = {t: TenantLock() for t in TENANTS}
        self.versions = {t: 0 for t in TENANTS}

    def drive(self, reqs: list[dict], dues: list[float] | None = None,
              connections: int = 2) -> list[dict]:
        """Send ``reqs`` in order over the first ``connections`` connections.

        With ``dues`` (open loop) each request waits for its due instant;
        without, each connection sends its next request as soon as its
        previous one is answered.
        """
        results: list[dict | None] = [None] * len(reqs)
        nxt = iter(range(len(reqs)))
        take = threading.Lock()

        def loop(client):
            while True:
                with take:
                    i = next(nxt, None)
                if i is None:
                    return
                req = reqs[i]
                if dues is not None:
                    delay = dues[i] - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                write = req["op"] == "update_graph"
                lock = self.locks[req["graph"]]
                lock.acquire(write)
                try:
                    version = self.versions[req["graph"]]
                    sent = time.monotonic()
                    try:
                        resp = client.request(req)
                    except (OSError, TimeoutError) as e:
                        resp = {"status": "error", "kind": type(e).__name__, "error": str(e)}
                    done = time.monotonic()
                    if write and resp.get("status") == "ok":
                        self.versions[req["graph"]] += 1
                finally:
                    lock.release(write)
                meta = resp.get("meta") or {}
                if "assignment" in meta:
                    meta["assignment"] = np.asarray(meta["assignment"], dtype=np.int16)
                results[i] = {"req": req, "resp": resp, "version": version,
                              "sent": sent, "done": done,
                              "due": dues[i] if dues is not None else sent}

        threads = [threading.Thread(target=loop, args=(c,))
                   for c in self.clients[:connections]]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return results


def start_daemon(trace: bool):
    """Spawn the daemon child; returns (Popen, its output directory)."""
    serve_dir = WORK / "serve"
    if serve_dir.exists():
        for p in sorted(serve_dir.rglob("*"), reverse=True):
            p.rmdir() if p.is_dir() else p.unlink()
    (serve_dir / "log").mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, "perfbench/daemon.py", "1" if trace else "0", str(serve_dir), "--",
           "serve", "--socket", SOCKET, "--log-dir", str(serve_dir / "log"),
           "--jobs", "1", "--threads", "1"]
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL)
    return proc, serve_dir


def stop_daemon(proc) -> tuple[int, object]:
    """SIGTERM the daemon and reap it; returns (exit code, rusage)."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except ChildProcessError:  # already reaped
        return proc.returncode, None
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def _proc_cpu(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def setup():
    """Imports and the tenants' base graphs, loaded and validated."""
    from repro.bench.harness import corpus_graph
    from repro.serve.client import wait_for_server

    graphs = {}
    for name in TENANTS:
        g, spec = corpus_graph(name, 0)
        g.validate()
        graphs[name] = (g, spec)
    return graphs, wait_for_server


def run(args, recorder, setup_done) -> dict:
    """Set up (daemon start + socket ready included), warm up, time the
    two phases, stop the daemon, check every response."""
    from repro.bench.harness import cache_stats

    c0 = cache_stats()["counters"]
    graphs, wait_for_server = setup()
    proc, out_dir = start_daemon(trace=bool(args.trace))
    try:
        wait_for_server(SOCKET, timeout=60.0)
        setup_done()
        return _measure(args, graphs, proc, out_dir, c0)
    finally:
        if proc.returncode is None:
            stop_daemon(proc)


def _by_kind(results: list[dict], since: str) -> list[float]:
    """Latencies (from ``since``: "due" or "sent"), each replaced by the
    median of its request kind over the phase.  The mix is ten kinds, so
    a percentile falling between two kinds would otherwise flip with
    per-sample noise."""
    kinds: dict[str, list[float]] = {}
    for r in results:
        kinds.setdefault(request_id(r["req"]), []).append(r["done"] - r[since])
    return [median(v) for v in kinds.values() for _ in v]


def _measure(args, graphs, proc, out_dir, c0) -> dict:
    from repro.bench.harness import cache_stats
    from repro.serve.client import ServeClient

    c1 = cache_stats()["counters"]
    sched = Schedule(args.seed, graphs[WRITE_TENANT][0])
    open_cycles = max(1, round(args.seconds * OPEN_SHARE * RATE / len(CYCLE)))
    closed_cycles = max(1, round(args.seconds * (1 - OPEN_SHARE) / CLOSED_CYCLE_SECONDS))
    warm = sched.cycles(1, "w")
    open_reqs = sched.cycles(open_cycles, "o")
    closed_reqs = sched.cycles(closed_cycles, "c")
    arrivals = sched.arrivals(len(open_reqs))
    traced_reqs = sched.cycles(closed_cycles, "t") if args.trace else []

    clients = [ServeClient(SOCKET, timeout=120.0) for _ in range(2)]
    load = Load(clients)
    windows: dict[str, float] = {}
    results: dict[str, list] = {}

    def phase(name, reqs, dues=None, connections=2):
        t0 = time.monotonic()
        results[name] = load.drive(reqs, dues, connections)
        windows[name] = time.monotonic() - t0

    try:
        phase("warm", warm)
        if args.trace:
            phase("closed", closed_reqs, connections=1)
            proc.send_signal(signal.SIGUSR1)
            time.sleep(0.2)
        c2 = cache_stats()["counters"]
        st0 = clients[0].request({"op": "status"})
        cpu0, dcpu0, w0 = time.process_time(), _proc_cpu(proc.pid), time.monotonic()
        start = time.monotonic() + 0.05
        phase("open", open_reqs, [start + a for a in arrivals])
        key = "traced" if args.trace else "closed"
        phase(key, traced_reqs if args.trace else closed_reqs, connections=1)
        wall = time.monotonic() - w0
        cpu = time.process_time() - cpu0 + _proc_cpu(proc.pid) - dcpu0
        st1 = clients[0].request({"op": "status"})
        c3 = cache_stats()["counters"]
    finally:
        for c in clients:
            c.close()
    code, usage = stop_daemon(proc)
    # calibration time the daemon spent before each request's batch: it
    # is taken out of the request's latency and out of the phase's time
    cal_of: dict[str, float] = {}
    for ids, seconds in json.loads((out_dir / "cal.json").read_text()):
        for rid in ids:
            cal_of[rid] = seconds
    for phase_results in results.values():
        for r in phase_results:
            r["cal"] = cal_of.get(r["req"]["idem"], 0.0)
            r["done"] -= r["cal"]

    def factor(name):
        return speed_factor([r["cal"] for r in results[name] if r["cal"]])

    def rate(name):
        return len(results[name]) / (windows[name] - sum(r["cal"] for r in results[name]))

    checks = _check(results, graphs, args.seed)
    if code != 0:
        checks["failures"].append(f"daemon exit code {code}")
    for field in ("misses", "regenerations"):
        if c3[field] != c2[field]:
            checks["failures"].append(f"graph cache {field} while timing: {c3[field] - c2[field]}")

    closed = results[key]
    f = factor(key)
    lat = _by_kind(closed, "sent")
    q, tail_s = tail(lat)
    updates = [r["done"] - r["sent"] for r in closed if r["req"]["op"] == "update_graph"]
    opened = results["open"]
    open_lat = _by_kind(opened, "due")
    raw = {"ops_per_s": rate(key),
           "op_p50_ms": 1000 * median(lat),
           "op_tail_ms": 1000 * tail_s}
    out = {
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "failures": checks["failures"][:20],
        "n_ops": len(lat),
        "tail_q": q,
        "speed_factor": f,
        "raw": raw,
        "ops_per_s": raw["ops_per_s"] * f,
        "op_p50_ms": raw["op_p50_ms"] / f,
        "op_tail_ms": raw["op_tail_ms"] / f,
        "update_p50_ms": 1000 * median(updates) / f,
        "open_p50_ms": 1000 * median(open_lat) / factor("open"),
        "open_tail_ms": 1000 * tail(open_lat)[1] / factor("open"),
        "cut_rel": geomean(checks["cut_ratios"]) if checks["cut_ratios"] else 1.0,
        "peak_rss_mb": usage.ru_maxrss / 1024.0 if usage is not None else 0.0,
        "proc_cpu_per_wall": cpu / wall,
        "late_ms": 1000 * sum(r["sent"] - r["due"] for r in opened) / len(opened),
        "cache": {"load_s": c1["load_seconds"] - c0["load_seconds"],
                  "misses": c3["misses"] - c2["misses"],
                  "regenerations": c3["regenerations"] - c2["regenerations"]},
        "status": [st0, st1],
        "passes": [{"phase": name, "requests": len(results[name]),
                    "seconds": windows[name], "speed_factor": factor(name)}
                   for name in results],
    }
    if args.trace:
        out["traced_ops_per_s"] = out["ops_per_s"]
        out["untraced_ops_per_s"] = rate("closed") * factor("closed")
        out["spans_path"] = str(out_dir / "spans.json")
        # client latency as the daemon saw it, calibration included
        out["client"] = {r["req"]["idem"]: [r["done"] + r["cal"] - r["sent"], r["cal"]]
                         for name in ("open", "traced") for r in results[name]}
        out["rows"] = [op_row(r["req"]["op"], r["resp"]["row"], r["resp"]["row"]["trace"]["phases"])
                       for name in ("open", "traced") for r in results[name]
                       if r["resp"].get("status") == "ok" and r["req"]["op"] != "update_graph"]
    return out


def _check(results: dict, graphs: dict, seed: int) -> dict:
    """Output checks of every served response (after the daemon stopped)."""
    from repro.csr.update import apply_edges
    from repro.partition.metrics import edge_cut, validate_partition

    reference = load_reference()["serve"]
    failures, cut_ratios = [], []
    every = [r for phase in results.values() for r in phase]
    attempted = len(every)
    bad = set()
    for r in every:
        if r["resp"].get("status") != "ok":
            bad.add(id(r))
            failures.append(f"{r['req']['idem']}: {r['resp'].get('kind')}: {r['resp'].get('error') or r['resp'].get('reason')}")

    def fail(r, msg):
        bad.add(id(r))
        failures.append(f"{r['req']['idem']} {r['req']['op']}:{r['req']['graph']}: {msg}")

    def check_partition(r, g):
        part = r["resp"]["meta"]["assignment"]
        k = r["req"]["k"]
        try:
            validate_partition(g, part, k)
        except ValueError as e:
            fail(r, f"invalid partition: {e}")
            return
        cut = edge_cut(g, part)
        if not isclose(r["resp"]["row"]["cut"], cut):
            fail(r, f"reported cut {r['resp']['row']['cut']} != recomputed {cut}")

    ok = [r for r in every if id(r) not in bad]
    # tenants that never change: reference cuts and a batch-row sample
    for r in ok:
        req = r["req"]
        if req["graph"] == WRITE_TENANT:
            continue
        want = reference.get(request_id(req))
        if want is None:
            fail(r, "no reference recorded")
            continue
        row = r["resp"]["row"]
        for field, value in want.items():
            if not isclose(row.get(field), value):
                fail(r, f"{field}={row.get(field)!r}, reference {value!r}")
        if req["op"] == "partition":
            check_partition(r, graphs[req["graph"]][0])
            if want.get("cut"):
                cut_ratios.append(row["cut"] / want["cut"])
    reads = [r for r in ok if r["req"]["graph"] != WRITE_TENANT]
    rng = random.Random(f"serve-mixed-rows:{seed}")
    for r in rng.sample(reads, min(SAMPLE_ROWS, len(reads))):
        diff = _batch_row_diff(r["req"], r["resp"]["row"], graphs)
        if diff:
            fail(r, f"served row differs from the batch row in {diff}")

    # the write tenant: replay the applied updates version by version
    g = graphs[WRITE_TENANT][0]
    writes = sorted((r for r in ok if r["req"]["graph"] == WRITE_TENANT
                     and r["req"]["op"] == "update_graph"), key=lambda r: r["version"])
    if [r["version"] for r in writes] != list(range(len(writes))):
        failures.append("update versions are not consecutive")
    reads = {}
    for r in ok:
        if r["req"]["graph"] == WRITE_TENANT and r["req"]["op"] == "partition":
            reads.setdefault(r["version"], []).append(r)
    for version in range(len(writes) + 1):
        for r in reads.get(version, []):
            check_partition(r, g)
        if version == len(writes):
            break
        w = writes[version]
        add = [tuple(e) for e in w["req"]["add"]]
        remove = [tuple(e) for e in w["req"]["remove"]]
        g, delta = apply_edges(g, add=tuple(map(list, zip(*add))), remove=tuple(map(list, zip(*remove))))
        row = w["resp"]["row"]
        want = {"n": g.n, "m": g.m, **delta.summary()}
        for field, value in want.items():
            if row.get(field) != value:
                fail(w, f"update row {field}={row.get(field)} != {value}")
        if row["applied_adds"] > row["requested_adds"] or row["applied_removes"] > row["requested_removes"]:
            fail(w, "applied more edges than requested")
    return {"attempted": attempted, "failed": len(bad), "failures": failures,
            "cut_ratios": cut_ratios}


def _batch_run(req: dict, g, spec) -> dict:
    """The batch harness run a read request corresponds to."""
    from repro.bench import harness

    kw = dict(machine=req["machine"], coarsener=req["coarsener"],
              constructor=req["constructor"], seed=req["seed"], oom=req["oom"])
    if req["op"] == "coarsen":
        return harness.run_coarsening(g, spec, **kw)
    if req["op"] == "cluster":
        return harness.run_cluster(g, spec, **kw)
    if req["k"] == 2:
        return harness.run_partition(g, spec, refinement=req["refinement"], **kw)
    return harness.run_partition_kway(g, spec, k=req["k"], **kw)


def _batch_row_diff(req: dict, row: dict, graphs: dict) -> list[str]:
    """Fields where the served row differs from the batch harness row."""
    res = _batch_run(req, *graphs[req["graph"]])
    want = {k: v for k, v in res.items()
            if isinstance(v, (int, float, str, bool)) or v is None}
    want["trace"] = json.loads(json.dumps(res["trace"].to_dict()))
    return sorted(k for k in set(want) | set(row)
                  if json.dumps(want.get(k), sort_keys=True) != json.dumps(row.get(k), sort_keys=True))


def record_reference() -> dict:
    """Reference outputs of every read of the unchanging tenants."""
    from repro.bench.harness import corpus_graph

    out = {}
    for op, graph, overrides in CYCLE:
        if graph == WRITE_TENANT or op == "update_graph":
            continue
        req = _request(op, graph, overrides)
        r = _batch_run(req, *corpus_graph(graph, 0))
        want = {"total_s": r["total_s"], "levels": r["levels"]}
        if op == "partition":
            want["cut"] = r["cut"]
        if op == "cluster":
            want["clusters"] = r["clusters"]
        out[request_id(req)] = want
    return out
