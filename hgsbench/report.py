"""Metric lists and the figures of the closed-loop workloads.

The end-to-end and per-layer metric lists are read from
``BENCHMARK.json``; every run prints all of one list (untraced runs the
first, traced runs the second), with 0 for a layer figure a workload
does not exercise.
"""

from __future__ import annotations

import json
from typing import Dict, Tuple

from common import ROOT, median, note, peak_rss_mb, tail

import tracing

with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    _DECLARED = json.load(_fh)
#: unit of every declared metric, by name
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}


def check_declared(metrics: Dict[str, Tuple[float, str]], trace: bool) -> None:
    """Refuse to print a result whose metrics are not exactly the
    declared list of its kind, with the declared units."""
    declared = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != declared:
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: printed {sorted(got.items())}"
            f", declared {sorted(declared.items())}")

#: the tail percentile each workload reports, sized so at least ten
#: operations of a run lie beyond it
TAIL = {"khop-batch": 85.0, "ingest-history": 75.0, "serve-hot": 90.0}


def per_layer_template() -> Dict[str, Tuple[float, str]]:
    return {name: (0.0, unit) for name, unit in PER_LAYER_UNITS.items()}


def closed_loop_end_to_end(workload, res) -> Dict[str, Tuple[float, str]]:
    lat = [x * 1e3 for x in res.latencies]
    raw = [x * 1e3 for x in res.raw_latencies]
    ops_per_s = len(lat) * 1e3 / sum(lat)
    value, q, n = tail(lat, TAIL[workload.name])
    note(f"latency_tail_ms is p{q:g} of {n} operations; "
         f"{len(res.setup_s)} set-ups")
    note(f"as measured, before speed scaling: latency p50 "
         f"{median(raw):.3f} ms, p{q:g} {tail(raw, q)[0]:.3f} ms, set-up "
         f"{median(res.raw_setup_s):.4f} s; probe median "
         f"{median(res.speed.samples) * 1e3:.4f} ms")
    sims = [row[3] for row in res.first_pass_rows]
    return {
        "setup_s": (median(res.setup_s), "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "latency_p50_ms": (median(lat), "ms"),
        "latency_tail_ms": (value, "ms"),
        "sim_ms_per_op": (sum(sims) / len(sims), "sim-ms"),
        "sustained_qps": (ops_per_s * workload.queries_per_op(), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "storage_bytes_per_event": (res.extra["storage_bytes_per_event"][0],
                                    "B"),
        "answered_ratio": (res.outcome.answered_ratio, "ratio"),
    }


def events_per_s(workload, res) -> float:
    """Index write throughput: TGI.update on ingest-history, the bulk
    TGI.build of the set-ups (their median, as measured) on khop-batch."""
    if workload.name == "ingest-history":
        return res.total("events_ingested") / res.total("update_s")
    return median([e / b for e, b in zip(res.extra["events_indexed"],
                                          res.extra["build_s"])])


def closed_loop_per_layer(workload, res) -> Dict[str, Tuple[float, str]]:
    out = per_layer_template()
    out["build.events_per_s"] = (events_per_s(workload, res), "1/s")
    n = max(res.traced_ops, 1)
    summary = res.recorder.summary()
    for key, value in tracing.layer_metrics(summary, n).items():
        out[key] = (value, out[key][1])
    for key in ("exec.coalesced_hits", "exec.merged_rounds",
                "exec.checkpoint_near_hits", "session.algorithm_khop",
                "session.algorithm_snapshot_first"):
        out[key] = (res.total(key) / n, out[key][1])
    hits, misses = res.total("cache.hits"), res.total("cache.misses")
    out["exec.delta_cache_hit_rate"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    out["exec.delta_cache_evictions"] = (
        res.total("cache.evictions") / n, "count/op")
    ck_hits = res.total("cache.ckpt_hits")
    ck_all = ck_hits + res.total("cache.ckpt_misses")
    out["exec.checkpoint_hit_rate"] = (
        ck_hits / ck_all if ck_all else 0.0, "ratio")
    out["kvstore.stored_bytes"] = (res.extra["stored_bytes"][0], "B")
    for key in ("op.khop_batch_ms", "op.snapshot_ms", "op.node_histories_ms",
                "op.update_ms", "op.taf_ms"):
        if key in res.extra:
            out[key] = (median(res.extra[key]), "ms")
    # layer figures, like the spans they come from, are as measured
    wall = sum(res.traced_latencies) * 1e3 / n
    out["trace.op_wall_ms"] = (wall, "ms")
    # the traced and untraced passes alternate within one run, so their
    # ratio needs no speed scaling
    traced_p50 = median(res.traced_latencies)
    plain_p50 = median(res.raw_latencies)
    out["trace.overhead_pct"] = ((traced_p50 / plain_p50 - 1.0) * 100.0, "%")
    note("layer self time per operation:\n"
         + tracing.format_table(summary, n, wall))
    return out
