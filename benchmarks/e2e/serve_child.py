"""Benchmark-owned launcher for the ``serve_loopback`` server child.

Runs the program's own ``serve`` entry point (``python -m repro serve
--port 0``) in this process, with two additions the wire protocol has no
op for:

* a control channel on stdin/stdout — one command line in, one reply
  line out — through which the benchmark reads the server's metrics
  registry (``snap``) and its peak RSS (``rss``) and switches span
  recording on and off (``trace on`` / ``trace off``);
* on SIGTERM it stops serving and dumps the registry, the span roll-up
  and a raw span sample to ``--dump`` before exiting.

With ``--trace-cpu-time`` the benchmark's wrapper table is installed
before the server is built; without it nothing is patched.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import signal
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dump", required=True)
    parser.add_argument("--trace-cpu-time", action="store_true",
                        help="install the wrapper table; spans measure "
                             "thread CPU time, as the benchmark's own do "
                             "for this workload")
    args = parser.parse_args()

    from repro.__main__ import main as repro_main
    from repro.net.server import PolarStoreServer

    rec = None
    if args.trace_cpu_time:
        from layers import WRAP_TABLE
        from spans import SpanRecorder, install

        # The server cannot tell ops apart; it keeps the first spans it
        # records after tracing is switched on.
        rec = SpanRecorder(keep_ops=1, max_spans=20_000,
                           clock=time.thread_time_ns)
        rec.op_id = 0
        install(rec, WRAP_TABLE)

    # cmd_serve builds its server locally; keep a handle on it so the
    # control channel can reach the registry.
    servers = []
    original_init = PolarStoreServer.__init__

    def capturing_init(self, *init_args, **init_kwargs):
        original_init(self, *init_args, **init_kwargs)
        servers.append(self)

    PolarStoreServer.__init__ = capturing_init

    def control() -> None:
        # The load is a closed loop with one request outstanding, so the
        # server is idle whenever the benchmark sends a command.
        for line in sys.stdin:
            command = line.strip()
            if command == "snap":
                state = servers[0].registry.state() if servers else []
                reply = "@snap " + json.dumps(state)
            elif command == "rss":
                usage = resource.getrusage(resource.RUSAGE_SELF)
                reply = f"@rss {usage.ru_maxrss}"
            elif command in ("trace on", "trace off"):
                if rec is not None:
                    rec.enabled = command.endswith("on")
                reply = "@ok"
            else:
                reply = f"@error unknown command {command!r}"
            print(reply, flush=True)

    threading.Thread(target=control, name="bench-control", daemon=True).start()

    def on_sigterm(_signum, _frame):
        # asyncio (3.11) logs every connection task it cancels at
        # shutdown as an "exception in callback"; that is not a failure.
        logging.getLogger("asyncio").setLevel(logging.CRITICAL)
        raise KeyboardInterrupt  # cmd_serve returns cleanly on it

    signal.signal(signal.SIGTERM, on_sigterm)
    code = repro_main(["serve", "--port", "0"])

    if rec is not None:
        rec.enabled = False
    dump = {
        "registry": servers[0].registry.state() if servers else [],
        "rollup": rec.rollup() if rec is not None else [],
        "spans": rec.raw_spans() if rec is not None else [],
    }
    tmp = args.dump + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(dump, handle)
    os.replace(tmp, args.dump)
    return code


if __name__ == "__main__":
    sys.exit(main())
