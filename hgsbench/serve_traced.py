"""Run ``hgs serve`` with the benchmark's layer wrappers installed.

Usage::

    python3 hgsbench/serve_traced.py --summary S.json --spans SPANS.json \\
        -- serve --index INDEX.hgs [serve options]

The server is the unmodified ``repro.cli`` entry point; this launcher
only wraps the layer functions (see :mod:`tracing`) before handing it
the arguments.  SIGUSR1 starts the summarised window (after the load
generator's warm-up); on exit — SIGTERM drains the server first — the
window's per-layer summary and cache counters go to ``--summary`` and
its spans to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import require_source_tree  # noqa: E402

require_source_tree()

import tracing  # noqa: E402
from loop import cache_counters  # noqa: E402

import repro.cli  # noqa: E402
from repro.service.http import QueryService  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--summary", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = args.serve_args
    if serve_args and serve_args[0] == "--":
        serve_args = serve_args[1:]

    services = []
    original_init = QueryService.__init__

    def capture(self, *a, **kw):
        original_init(self, *a, **kw)
        services.append(self)

    QueryService.__init__ = capture
    rec = tracing.Recorder()
    tracing.install(rec)
    marks = {}

    def on_mark(signum, frame):
        rec.mark()
        if services:
            marks["caches"] = cache_counters(services[0].session)

    signal.signal(signal.SIGUSR1, on_mark)
    code = repro.cli.main(serve_args)

    end = cache_counters(services[0].session) if services else {}
    start = marks.get("caches", {k: 0 for k in end})
    with open(args.summary, "w", encoding="utf-8") as fh:
        json.dump({
            "summary": rec.summary(),
            "caches": {k: end[k] - start[k] for k in end},
        }, fh)
    rec.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
