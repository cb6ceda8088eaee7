"""``repro lab serve`` with the layer trace installed, for traced runs.

``python3 perfbench/serve_host.py <trace-out.json> <repro lab serve args...>``
imports ``repro``, wraps the layer functions (``layers.py``) and hands
the remaining arguments to the ``repro`` CLI unchanged.  When the
server drains after SIGTERM, the per-layer self times over its whole
life are written to ``trace-out.json``.  Untraced runs start the server
with ``python3 -m repro lab serve`` instead.
"""

import json
import sys
import time
from pathlib import Path

import layers


def main(argv: list[str]) -> int:
    out, serve_args = Path(argv[0]), argv[1:]
    trace = layers.LayerTrace()
    import_start = time.perf_counter()
    import repro.cli

    import_end = time.perf_counter()
    # Keep the unwrapped entry point: the serve command spans the whole
    # server life and would swallow every other thread's time.
    serve = repro.cli.main
    trace.install()
    trace.span("cli.import", import_start, import_end)
    code = serve(serve_args)
    end = time.perf_counter()
    trace.uninstall()
    record = trace.record(import_start, end)
    record["import_s"] = import_end - import_start
    out.write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
