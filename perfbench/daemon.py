"""Launcher of the serving daemon under the benchmark.

    python3 perfbench/daemon.py TRACE OUT_DIR -- <repro.serve arguments>

Runs ``python -m repro.serve`` in this process.  Before each dispatcher
batch it times the benchmark's calibration kernel (``common.calibrate``)
on the dispatcher thread, the thread the batch then runs on, and writes
``[request ids, seconds]`` per batch to OUT_DIR/cal.json when the daemon
exits; the load generator subtracts that time from the batch's requests
and scales host times by it.  With TRACE=1 it also installs the span
wrappers, disabled until SIGUSR1, and writes the spans to
OUT_DIR/spans.json.
"""

from __future__ import annotations

import functools
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import calibrate  # noqa: E402


def _calibrated(execute_batch, samples: list):
    @functools.wraps(execute_batch)
    def wrapper(self, requests, *args, **kwargs):
        samples.append([[r.get("idem") for r in requests], calibrate()])
        return execute_batch(self, requests, *args, **kwargs)

    return wrapper


def main(argv: list[str]) -> int:
    trace, out_dir, sep, *serve_argv = argv
    if sep != "--":
        raise SystemExit(__doc__)
    out_dir = Path(out_dir)
    recorder = None
    if trace == "1":
        from tracing import SpanRecorder, request_idem

        # admission and resolution of each request bound its server time
        recorder = SpanRecorder().install(extra=[
            ("admit", "repro.serve.server:_Pending.__init__", request_idem),
            ("resolve", "repro.serve.server:_Pending.resolve",
             lambda args: args[0].request.get("idem")),
        ])
        recorder.enabled = False
        signal.signal(signal.SIGUSR1, lambda *_: setattr(recorder, "enabled", True))
    from repro.serve.__main__ import main as serve_main
    from repro.serve.executor import ServeExecutor

    samples: list = []
    ServeExecutor.execute_batch = _calibrated(ServeExecutor.execute_batch, samples)
    try:
        return serve_main(serve_argv)
    finally:
        (out_dir / "cal.json").write_text(json.dumps(samples))
        if recorder is not None:
            recorder.dump(out_dir / "spans.json")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
