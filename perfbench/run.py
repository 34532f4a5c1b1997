"""The repository benchmark: one workload, one seed, every metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads, metrics and their units
are defined in ``BENCHMARK.json``; ``perfbench/README.md`` says what
each one measures and which layer metric should move which end-to-end
metric.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The exit code is 0 only when every output check passed.

Per run: one untimed set-up fills the benchmark's own graph cache
(``perfbench/_work/cache``); ``SETUP_PROBES`` fresh processes then time
the warm set-up; the measuring process sets up once more, warms up
untimed and times the workload.  ``setup_s`` is the median of those
set-up times.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import WORK, child_env, environment, median  # noqa: E402

SETUP_PROBES = 2
#: wall-clock limit of one process the benchmark starts (seconds)
CHILD_TIMEOUT = 170
PREPARE_TIMEOUT = 850


def _worker(args: list[str], timeout: float):
    """Run a set-up worker; returns its scaled set-up seconds."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "perfbench/worker.py", *args],
        env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"benchmark: worker {args[:2]} exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"benchmark: worker {args[:2]} failed (exit {proc.returncode})")
    return _setup_time(out.splitlines(), spawned)


def _setup_time(lines: list[str], spawned: float) -> float:
    """Spawn-to-ready seconds, scaled by the worker's host speed factor."""
    stamps = dict(line.split()[:2] for line in lines
                  if line.startswith(("ready ", "speed ")))
    if "ready" not in stamps:
        raise SystemExit("benchmark: worker never finished its set-up")
    return (float(stamps["ready"]) - spawned) / float(stamps.get("speed", 1.0))


def _measure(args, out_path: Path):
    """The measuring worker, reaped with wait4 for its peak RSS."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "perfbench/worker.py", "measure", args.workload,
         str(args.seed), str(args.seconds), str(args.trace), str(out_path)],
        env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    lines: list[str] = []
    reader = threading.Thread(target=lambda: lines.extend(proc.stdout), daemon=True)
    reader.start()
    deadline = spawned + CHILD_TIMEOUT
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    reader.join(timeout=10)
    if proc.returncode != 0 or not out_path.exists():
        raise SystemExit(f"benchmark: measuring worker failed (exit {proc.returncode})")
    return _setup_time(lines, spawned), usage.ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not Path("src/repro/__init__.py").is_file() or not Path("BENCHMARK.json").is_file():
        print("benchmark: run from the root of a repro checkout (src/repro missing)",
              file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)

    env = environment(args.seed)
    print("environment " + json.dumps(env, sort_keys=True), flush=True)
    # untimed: fills the benchmark's graph cache (tiers included) once
    # per workload and program version
    stamp = WORK / "cache" / f"prepared-{args.workload}-{env['src_sha256']}"
    if not stamp.exists():
        _worker(["setup", args.workload], PREPARE_TIMEOUT)
        stamp.touch()
    setups = []
    if not args.trace:
        setups = [_worker(["setup", args.workload], CHILD_TIMEOUT)
                  for _ in range(SETUP_PROBES)]
    out_path = WORK / f"result-{os.getpid()}.json"
    try:
        setup_s, rss_mb = _measure(args, out_path)
        res = json.loads(out_path.read_text())
    finally:
        out_path.unlink(missing_ok=True)
    setups.append(setup_s)

    for p in res["passes"]:
        print("pass " + json.dumps(p, sort_keys=True))
    for f in res["failures"]:
        print(f"FAILED {f}")
    print(f"host speed factor {res['speed_factor']:.4f} (mean calibration time / reference); "
          f"reported host times are raw / factor, rates raw * factor; "
          f"raw {json.dumps(res['raw'])}")
    print(f"op_tail_ms is p{res['tail_q']:g} over n={res['n_ops']} ops; "
          f"setup samples {[round(s, 4) for s in setups]}; "
          f"proc.cpu_per_wall {res['proc_cpu_per_wall']:.3f}")

    if args.trace:
        values = res["per_layer"]
        wanted = spec["per_layer"]
        print(f"tracing overhead: untraced {res['untraced_ops_per_s']:.4f} ops/s, "
              f"traced {res['traced_ops_per_s']:.4f} ops/s "
              f"({100 * values['trace.overhead']:+.2f}%)")
    else:
        values = {
            "setup_s": median(setups),
            "ops_per_s": res["ops_per_s"],
            "op_p50_ms": res["op_p50_ms"],
            "op_tail_ms": res["op_tail_ms"],
            "peak_rss_mb": res.get("peak_rss_mb") or rss_mb,
        }
        wanted = spec["end_to_end"]
    correct = res["failed"] == 0 and not res["failures"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
