"""``khop-batch``: cold batches of overlapping k-hop queries.

One caller, closed loop.  Each operation is one
``GraphSession.execute_batch`` of 16 single-center k=2 k-hops at one of
three pinned times.  Centers come from a 48-node pool per time, so a
batch's neighborhoods overlap through the citation graph's hubs and
batches overlap each other.  Caches stay off (the index default), so
every batch is cold: pricing, coalescing and result building do the
work, not the fetch.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

from common import DATASET_SEED, rng_for
from oracle import snapshots_at

from repro.api import QueryRequest
from repro.index.tgi import TGI, TGIConfig
from repro.kvstore.cluster import ClusterConfig
from repro.session import GraphSession
from repro.workloads.citation import CitationConfig, generate_citation_events

NODES = 2500
BATCH = 16
K = 2
POOL = 48
PINNED = (0.5, 0.75, 1.0)
BATCHES_PER_PASS = 24
CONFIG = dict(events_per_timespan=2500, eventlist_size=250,
              micro_partition_size=64)
MACHINES = 4


def index_config(**caches) -> TGIConfig:
    """The index shape khop-batch and serve-hot share; ``caches`` sets
    the cache sizes (off by default)."""
    return TGIConfig(**CONFIG, **caches,
                     cluster=ClusterConfig(num_machines=MACHINES))


class KhopBatch:
    name = "khop-batch"
    #: fresh set-ups a run makes at least: 72 batches, so ten lie beyond
    #: the p85 tail however slow the machine runs
    min_setups = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.expected: Dict[Tuple[int, int], Any] = {}
        self.batches: List[Tuple[int, Tuple[int, ...]]] = []

    # -- set-up (timed) -------------------------------------------------
    def setup(self, timer):
        events = generate_citation_events(CitationConfig(
            num_nodes=NODES, citations_per_node=4,
            seed=DATASET_SEED,
        ))
        timer.split()
        tgi = TGI(index_config())
        start = time.perf_counter()
        tgi.build(events)
        return {"events": events, "tgi": tgi,
                "build_s": time.perf_counter() - start,
                "session": GraphSession.from_index(tgi)}

    def after_setup(self, ctx, res) -> None:
        if self.batches:
            return
        events = ctx["events"]
        t0, t1 = events[0].time, events[-1].time
        times = [t0 + round(f * (t1 - t0)) for f in PINNED]
        graphs = snapshots_at(events, times)
        rng = rng_for(self.seed, "khop-batch")
        pools = {t: rng.sample(sorted(graphs[t].nodes()), POOL)
                 for t in times}
        for i in range(BATCHES_PER_PASS):
            t = times[i % len(times)]
            centers = tuple(rng.sample(pools[t], BATCH))
            self.batches.append((t, centers))
            for c in centers:
                if (t, c) not in self.expected:
                    self.expected[(t, c)] = graphs[t].khop_subgraph(c, K)

    # -- operations -----------------------------------------------------
    def ops(self, ctx):
        return self.batches

    def run_op(self, ctx, op, timer):
        t, centers = op
        return ctx["session"].execute_batch([
            QueryRequest(kind="khop", t=t, nodes=(c,), k=K, single=True)
            for c in centers
        ])

    def check(self, ctx, op, results) -> Tuple[bool, str]:
        t, centers = op
        for c, result in zip(centers, results):
            if result.error is not None:
                return False, f"k-hop {c}@{t} raised {result.error!r}"
            if result.value != self.expected[(t, c)]:
                return False, f"k-hop {c}@{t} differs from the replay"
        return True, ""

    @staticmethod
    def sim_ms(results) -> float:
        return max(r.stats.sim_time_ms for r in results)

    def deterministic_row(self, op, results):
        return (
            round(sum(r.stats.requests for r in results), 6),
            round(sum(r.stats.bytes_read for r in results), 6),
            sum(r.stats.coalesced_hits for r in results),
            round(self.sim_ms(results), 6),
        )

    def observe(self, ctx, op, results, timer, res) -> None:
        res.add("op.khop_batch_ms", timer.scaled * 1e3)

    def observe_traced(self, ctx, op, results, res) -> None:
        observe_query_stats(results, res)

    def after_segment(self, ctx, res) -> None:
        stored = ctx["tgi"].cluster.stored_bytes
        res.add("stored_bytes", stored)
        res.add("storage_bytes_per_event", stored / len(ctx["events"]))
        res.add("events_indexed", len(ctx["events"]))
        res.add("build_s", ctx["build_s"])

    # -- end-to-end figures ---------------------------------------------
    def queries_per_op(self) -> float:
        return float(BATCH)


def observe_query_stats(results, res) -> None:
    """Executor and session counters of one traced operation, read from
    the results' ``QueryStats``."""
    for r in results:
        s = r.stats
        res.add("exec.coalesced_hits", s.coalesced_hits)
        res.add("exec.merged_rounds", s.merged_rounds)
        res.add("session.algorithm_khop", 1.0 if s.algorithm == "khop" else 0.0)
        res.add("session.algorithm_snapshot_first",
                1.0 if s.algorithm == "snapshot-first" else 0.0)
        res.add("exec.checkpoint_near_hits", s.checkpoint_near_hits)
