"""The closed-loop runner shared by ``khop-batch`` and ``ingest-history``.

One caller runs operations back to back.  Each segment starts with a
fresh set-up and runs one whole pass over the workload's fixed
operation list; segments repeat until the measured operation time is
spent (and at least the workload's ``min_setups`` times), so
``setup_s`` is a median over several set-ups.  A whole pass from a
fresh set-up keeps the operation mix and the state each operation sees
(caches, the session's plan feedback) identical whatever the machine's
speed.

Every segment replays the same inputs on a fresh set-up, so the
deterministic counts of its pass must match the first segment's
exactly; a mismatch is flagged.

With tracing on, segments alternate untraced and traced.  Layer numbers
come from the traced passes; the untraced passes give the comparison
for the tracing overhead, measured under the same machine conditions.
"""

from __future__ import annotations

import gc
from typing import Any, Dict, List, Optional

from common import Outcome, Speed, StepTimer, fingerprint, note
import tracing


class ClosedLoopResult:
    def __init__(self) -> None:
        self.outcome = Outcome()
        self.speed = Speed()
        #: set-up seconds, at the reference speed and as measured
        self.setup_s: List[float] = []
        self.raw_setup_s: List[float] = []
        #: untraced operation latencies (seconds), at the reference speed
        #: and as measured
        self.latencies: List[float] = []
        self.raw_latencies: List[float] = []
        #: traced operation latencies (seconds) as measured
        self.traced_latencies: List[float] = []
        #: per-operation deterministic rows of the first pass after set-up
        self.first_pass_rows: List[Any] = []
        self.deterministic = True
        self.recorder: Optional[tracing.Recorder] = None
        self.traced_ops = 0
        self.measured_s = 0.0
        #: workload-specific samples, merged across segments
        self.extra: Dict[str, List[float]] = {}

    def add(self, key: str, value: float) -> None:
        self.extra.setdefault(key, []).append(value)

    def total(self, key: str) -> float:
        return float(sum(self.extra.get(key, ())))


def cache_counters(session) -> Dict[str, int]:
    out = {"hits": 0, "misses": 0, "evictions": 0,
           "ckpt_hits": 0, "ckpt_misses": 0}
    if session.cache is not None:
        s = session.cache.stats()
        out.update(hits=s.hits, misses=s.misses, evictions=s.evictions)
    if session.checkpoint_cache is not None:
        c = session.checkpoint_cache.stats()
        out.update(ckpt_hits=c.hits, ckpt_misses=c.misses)
    return out


def run(workload, seconds: float, trace: bool) -> ClosedLoopResult:
    """Drive ``workload`` for ``seconds`` of measured operation time, one
    pass per fresh set-up."""
    res = ClosedLoopResult()
    rec = tracing.Recorder() if trace else None
    res.recorder = rec
    reference: Optional[List[Any]] = None
    traced_reference: Optional[Dict[str, float]] = None
    segment = 0
    while segment < workload.min_setups or res.measured_s < seconds:
        # start every set-up from the same heap: the last segment's index
        # is garbage by now, and collecting it here keeps its teardown out
        # of the next set-up's time
        gc.collect()
        res.speed.probe()
        timer = StepTimer(res.speed)
        ctx = workload.setup(timer)
        timer.split()
        res.setup_s.append(timer.scaled)
        res.raw_setup_s.append(timer.raw)
        workload.after_setup(ctx, res)
        traced = trace and segment % 2 == 1
        rows, elapsed, counts = _one_pass(workload, ctx, res, rec, traced)
        res.measured_s += elapsed
        if reference is None:
            reference = rows
        elif rows != reference:
            res.deterministic = False
        if counts is not None:
            if traced_reference is None:
                traced_reference = counts
            elif counts != traced_reference:
                res.deterministic = False
        workload.after_segment(ctx, res)
        ctx = None
        segment += 1
    res.first_pass_rows = reference
    note(f"determinism {fingerprint(workload.name, reference)} "
         f"over {len(reference)} ops x {segment} fresh set-ups: "
         f"{'repeats exactly' if res.deterministic else 'MISMATCH'}")
    if traced_reference is not None:
        note("traced pass counts " + ", ".join(
            f"{k}={v:g}" for k, v in sorted(traced_reference.items())))
    return res


def _one_pass(workload, ctx, res, rec, traced):
    """Run one pass; returns its deterministic rows, its measured
    seconds, and (traced passes only) its store and load counts."""
    patches = tracing.install(rec) if traced else None
    if traced:
        counts_before = dict(rec.counts)
        loads_before = _load_calls(rec)
        caches_before = cache_counters(ctx["session"])
    rows = []
    spent = 0.0
    res.speed.probe()
    try:
        for op in workload.ops(ctx):
            root = rec.enter("bench.op", "bench", None) if traced else None
            timer = StepTimer(res.speed, probing=not traced)
            try:
                value, error = workload.run_op(ctx, op, timer), None
            except Exception as exc:  # a failed operation, not a crash
                value, error = None, exc
            timer.split()
            if traced:
                rec.exit(root)
            spent += timer.raw
            if error is not None:
                res.outcome.record(False, why=f"op {op!r}: {error!r}")
                rows.append(("error", repr(error)))
                continue
            ok, why = workload.check(ctx, op, value)
            res.outcome.record(ok, wrong=not ok, why=why)
            rows.append(workload.deterministic_row(op, value))
            if traced:
                res.traced_latencies.append(timer.raw)
                res.traced_ops += 1
                workload.observe_traced(ctx, op, value, res)
            else:
                res.latencies.append(timer.scaled)
                res.raw_latencies.append(timer.raw)
                workload.observe(ctx, op, value, timer, res)
    finally:
        if patches is not None:
            tracing.uninstall(patches)
    if traced:
        caches_after = cache_counters(ctx["session"])
        for key, value in caches_after.items():
            res.add(f"cache.{key}", value - caches_before[key])
        counts = {k: v - counts_before.get(k, 0.0)
                  for k, v in rec.counts.items()}
        counts["index.load_delta_calls"] = _load_calls(rec) - loads_before
        return rows, spent, counts
    return rows, spent, None


def _load_calls(rec: tracing.Recorder) -> int:
    return sum(1 for s in rec.spans if s[2] == "index.load_delta")
