"""The Historical Graph Store benchmark.

Usage (from the root of a checkout)::

    python3 hgsbench/run.py --workload khop-batch --seed 1 --seconds 15 --trace 0

Workloads:

- ``khop-batch``: cold batches of 16 overlapping k=2 k-hops through
  ``GraphSession.execute_batch``; pricing, coalescing and result
  building dominate.
- ``ingest-history``: ``TGI.update`` cycles beside snapshot,
  node-history and TAF reads with caches smaller than the working set.
- ``serve-hot``: ``hgs serve`` in its own process under an open loop
  whose hot set fits the server's caches.

Every answer is checked against a replay of the raw event log.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``,
the per-layer metrics (from wrappers around each layer's public
functions) with ``--trace 1``.  The exit code is non-zero when an answer
was wrong.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import emit, note, out_dir, require_source_tree  # noqa: E402

WORKLOADS = ("khop-batch", "ingest-history", "serve-hot")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    require_source_tree()

    import loop
    import report

    trace = bool(args.trace)
    if args.workload == "serve-hot":
        from serve_hot import ServeHot

        outcome, metrics = ServeHot(args.seed, args.seconds, trace).run()
        report.check_declared(metrics, trace)
        return emit(outcome, metrics)

    if args.workload == "khop-batch":
        from khop_batch import KhopBatch as Workload
    else:
        from ingest_history import IngestHistory as Workload

    workload = Workload(args.seed)
    res = loop.run(workload, args.seconds, trace)
    if trace:
        metrics = report.closed_loop_per_layer(workload, res)
        path = out_dir() / f"spans-{workload.name}.json"
        res.recorder.dump(path)
        note(f"{len(res.recorder.spans)} spans written to {path}")
    else:
        metrics = report.closed_loop_end_to_end(workload, res)
    report.check_declared(metrics, trace)
    return emit(res.outcome, metrics)


if __name__ == "__main__":
    sys.exit(main())
