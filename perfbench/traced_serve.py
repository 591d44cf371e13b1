"""``repro serve`` with the layer wrappers installed in the daemon process.

Usage: ``python3 perfbench/traced_serve.py PROFILE_JSON <repro serve args>``.
The daemon runs exactly as ``python3 -m repro.cli serve <args>`` would;
when it shuts down, the wrappers come off and the session's layer
profile (self seconds, calls and counters per layer) is written to
``PROFILE_JSON`` and its spans next to it as JSON lines.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from common import now, use_checkout_source


def main(argv) -> int:
    profile_path, serve_args = Path(argv[0]), list(argv[1:])
    use_checkout_source()
    from layers import LayerTracer, profile
    from repro.cli import main as repro_main

    tracer = LayerTracer().install()
    start = now()
    try:
        code = repro_main(["serve", *serve_args])
    finally:
        tracer.uninstall()
    # hits and misses are taken from the daemon's stats by the client
    profile_path.write_text(json.dumps(profile(tracer, now() - start, 0, 0)))
    tracer.write_spans(profile_path.with_suffix(".spans.jsonl"))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
