"""One benchmark process; started by ``run.py`` from the checkout root.

    python3 perfbench/worker.py setup   WORKLOAD
    python3 perfbench/worker.py measure WORKLOAD SEED SECONDS TRACE OUT
    python3 perfbench/worker.py record

``setup`` does the workload's set-up (imports, input load and
validation, daemon start for serve-mixed), prints the monotonic instant
it finished, and exits.  ``measure`` does the same set-up, then the
warm-up, the timed phases and the output checks, and writes the result
to OUT.  ``record`` rewrites ``reference.json`` from this commit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import batch  # noqa: E402
import serve_load  # noqa: E402
from common import REFERENCE, WORK, calibrate, child_env, speed_factor  # noqa: E402

SETUP_CAL = 30


def _ready() -> None:
    """Mark the end of set-up, then time ``SETUP_CAL`` calibration calls
    so the parent can scale this process's set-up time by host speed."""
    print(f"ready {time.monotonic()!r}", flush=True)
    samples = [calibrate() for _ in range(SETUP_CAL)]
    print(f"speed {speed_factor(samples)!r}", flush=True)


def setup(workload: str) -> None:
    if workload == "serve-mixed":
        _, wait_for_server = serve_load.setup()
        proc, _ = serve_load.start_daemon(trace=False)
        try:
            wait_for_server(serve_load.SOCKET, timeout=60.0)
            _ready()
        finally:
            serve_load.stop_daemon(proc)
        return
    if workload == "scale-tier":
        from repro.parallel import tiles

        tiles.configure(tiles.resolve_threads(0))
    from repro.bench import harness  # noqa: F401

    batch.load_inputs(workload)
    _ready()


def measure(workload: str, seed: int, seconds: int, trace: int, out: str) -> None:
    recorder = None
    if trace:
        from tracing import SpanRecorder

        if workload != "serve-mixed":
            recorder = SpanRecorder().install()
            recorder.enabled = False
    args = argparse.Namespace(workload=workload, seed=seed, seconds=seconds, trace=trace)
    if workload == "serve-mixed":
        res = serve_load.run(args, recorder, _ready)
    else:
        res = batch.run(args, recorder, _ready)
        res["untraced_ops_per_s"] = res["ops_per_s"]
    if trace:
        from layers import per_layer

        if workload == "serve-mixed":
            spans = json.loads(Path(res["spans_path"]).read_text())
        else:
            spans = recorder.spans
        res["per_layer"] = per_layer(res, spans)
        for key in ("rows", "client", "status"):
            res.pop(key, None)
    Path(out).write_text(json.dumps(res))


def record() -> None:
    """Record the reference outputs of every workload on this commit."""
    ref = {"ops": {}, "serve": serve_load.record_reference()}
    for workload in ("coarsen-matrix", "partition-corpus", "scale-tier"):
        ref["ops"].update(batch.record_reference(workload))
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main(argv: list[str]) -> int:
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    mode = argv[0]
    if mode == "setup":
        setup(argv[1])
    elif mode == "measure":
        measure(argv[1], int(argv[2]), int(argv[3]), int(argv[4]), argv[5])
    elif mode == "record":
        os.environ.update(child_env())
        sys.path.insert(0, "src")
        record()
    else:
        raise SystemExit(__doc__)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
