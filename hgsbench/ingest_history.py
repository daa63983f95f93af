"""``ingest-history``: incremental updates beside history reads.

One caller, closed loop.  Set-up builds the index over the first part of
a citation history; each operation is then one cycle of

1. ``TGI.update`` with one timespan's worth of new events (the paper's
   batch update model, Sec. 4.4),
2. a snapshot at the new frontier,
3. a snapshot at a seeded past time,
4. ``node_histories`` of eight nodes over the whole indexed range,
5. a TAF Set-of-Nodes analytic: ``nodes(pred).timeslice(...).fetch()``
   then ``NodeComputeTemporal`` of each node's degree.

Each request runs as a single plan, so pricing and coalescing are
bypassed; the time goes to the store round, decode, replay and
materialisation, with the write path and cache invalidation between
reads.  The delta cache (64 rows) and the checkpoint cache (4 states)
are on but smaller than what one cycle touches, so both evict.

A pass is a fixed number of cycles from a fresh set-up: the graph grows
cycle by cycle, and a fixed pass keeps the operation mix the same
whatever the machine's speed.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from common import DATASET_SEED, rng_for
from oracle import graph_digest, history_matches, node_versions, replay_at
from khop_batch import MACHINES, observe_query_stats

from repro.index.tgi import TGI, TGIConfig
from repro.kvstore.cluster import ClusterConfig
from repro.session import GraphSession
from repro.workloads.citation import CitationConfig, generate_citation_events

NODES = 3400
PREFIX_EVENTS = 6000
SPAN = 1000
CYCLES = 8
HISTORY_NODES = 8
TAF_NODES = 20
DELTA_CACHE_ROWS = 64
CHECKPOINTS = 4


def degree(state) -> int:
    """The TAF metric: a node version's degree (0 when not alive)."""
    return len(state.E) if state is not None else 0


class IngestHistory:
    name = "ingest-history"
    #: fresh set-ups a run makes at least: 40 cycles, so ten lie beyond
    #: the p75 tail however slow the machine runs
    min_setups = 5

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cycles: List[Dict[str, Any]] = []

    # -- set-up (timed) -------------------------------------------------
    def setup(self, timer):
        events = generate_citation_events(CitationConfig(
            num_nodes=NODES, citations_per_node=4,
            seed=DATASET_SEED,
        ))
        needed = PREFIX_EVENTS + CYCLES * SPAN
        if len(events) < needed:
            raise RuntimeError(
                f"generated {len(events)} events, the workload needs {needed}"
            )
        timer.split()
        tgi = TGI(TGIConfig(
            events_per_timespan=SPAN, eventlist_size=250,
            micro_partition_size=64,
            delta_cache_entries=DELTA_CACHE_ROWS,
            checkpoint_entries=CHECKPOINTS,
            cluster=ClusterConfig(num_machines=MACHINES),
        ))
        tgi.build(events[:PREFIX_EVENTS])
        return {"events": events, "tgi": tgi,
                "session": GraphSession.from_index(tgi)}

    def after_setup(self, ctx, res) -> None:
        if self.cycles:
            return
        # The seed's draws are stratified: cycle j's past time and TAF
        # range come from the j-th of CYCLES equal slices (in a seeded
        # order), and its history nodes one from each of HISTORY_NODES
        # slices of the alive nodes.  Every pass then covers old and
        # recent history alike, so its cost varies little with the seed.
        events = ctx["events"]
        t0 = events[0].time
        rng = rng_for(self.seed, "ingest-history")
        past_slices = rng.sample(range(CYCLES), CYCLES)
        taf_slices = rng.sample(range(CYCLES), CYCLES)
        plan = []
        for j in range(CYCLES):
            lo = PREFIX_EVENTS + j * SPAN
            tf = events[lo + SPAN - 1].time
            tp = t0 + int((past_slices[j] + rng.random())
                          * (events[lo - 1].time - t0) / CYCLES)
            plan.append({"lo": lo, "tf": tf, "tp": tp})
        digests, alive_at = {}, {}
        for t, g in replay_at(
            events, [c["tf"] for c in plan] + [c["tp"] for c in plan]
        ):
            digests[t] = graph_digest(g)
            alive_at[t] = sorted(g.nodes())
        for j, c in enumerate(plan):
            alive = alive_at[c["tf"]]
            width = len(alive) // HISTORY_NODES
            c["nodes"] = tuple(alive[i * width + rng.randrange(width)]
                               for i in range(HISTORY_NODES))
            span = (len(alive) - TAF_NODES) // CYCLES
            start = taf_slices[j] * span + rng.randrange(span)
            c["taf_lo"], c["taf_hi"] = start, start + TAF_NODES
            c["snap_f"] = digests[c["tf"]]
            c["snap_p"] = digests[c["tp"]]
            c["versions"] = node_versions(events, c["nodes"], t0, c["tf"])
            c["taf_versions"] = node_versions(
                events, range(start, start + TAF_NODES), t0, c["tf"]
            )
            self.cycles.append(c)

    # -- operations -----------------------------------------------------
    def ops(self, ctx):
        return range(CYCLES)

    def run_op(self, ctx, j, timer):
        """One cycle, timed step by step so each step is scaled by the
        machine speed around it."""
        c = self.cycles[j]
        events, tgi, session = ctx["events"], ctx["tgi"], ctx["session"]
        t0 = events[0].time
        tgi.update(events[c["lo"]:c["lo"] + SPAN])
        timer.split()
        snap_f = session.at(c["tf"]).snapshot()
        snap_p = session.at(c["tp"]).snapshot()
        timer.split()
        hist = session.between(t0, c["tf"]).node_histories(c["nodes"])
        timer.split()
        son = session.nodes(
            f"id >= {c['taf_lo']} and id < {c['taf_hi']}"
        ).timeslice(t0, c["tf"]).fetch()
        series = son.NodeComputeTemporal(degree)
        return {"snap_f": snap_f, "snap_p": snap_p, "hist": hist,
                "son": son, "series": series}

    def check(self, ctx, j, out) -> Tuple[bool, str]:
        c = self.cycles[j]
        if graph_digest(out["snap_f"].value) != c["snap_f"]:
            return False, f"cycle {j}: frontier snapshot differs"
        if graph_digest(out["snap_p"].value) != c["snap_p"]:
            return False, f"cycle {j}: past snapshot @{c['tp']} differs"
        for node, history in zip(c["nodes"], out["hist"].value):
            if history.node != node or not history_matches(
                history, c["versions"][node]
            ):
                return False, f"cycle {j}: history of node {node} differs"
        expected = {
            n: v for n, v in c["taf_versions"].items()
            if any(s is not None for _, s in v)
        }
        got = dict(out["series"].items())
        if set(got) != set(expected):
            return False, f"cycle {j}: TAF node set differs"
        for n, series in got.items():
            want = [(t, degree_of(s)) for t, s in expected[n]]
            if list(series) != want:
                return False, f"cycle {j}: TAF degree series of {n} differs"
        return True, ""

    @staticmethod
    def _reads(out):
        return [out["snap_f"].stats, out["snap_p"].stats, out["hist"].stats]

    def sim_ms(self, out) -> float:
        return (sum(s.sim_time_ms for s in self._reads(out))
                + out["son"].fetch_stats.sim_time_ms)

    def deterministic_row(self, j, out):
        taf = out["son"].fetch_stats
        reads = self._reads(out)
        return (
            round(sum(s.requests for s in reads) + taf.requests, 6),
            round(sum(s.bytes_read for s in reads) + taf.bytes_read, 6),
            sum(s.coalesced_hits for s in reads) + taf.coalesced_hits,
            round(self.sim_ms(out), 6),
        )

    def observe(self, ctx, j, out, timer, res) -> None:
        update, snapshots, histories, taf = (s for _, s in timer.steps)
        res.add("op.update_ms", update * 1e3)
        res.add("op.snapshot_ms", snapshots * 500.0)
        res.add("op.node_histories_ms", histories * 1e3)
        res.add("op.taf_ms", taf * 1e3)
        res.add("update_s", update)
        res.add("events_ingested", SPAN)

    def observe_traced(self, ctx, j, out, res) -> None:
        observe_query_stats(
            [out["snap_f"], out["snap_p"], out["hist"]], res
        )
        res.add("exec.coalesced_hits", out["son"].fetch_stats.coalesced_hits)
        res.add("exec.merged_rounds", out["son"].fetch_stats.merged_rounds)
        res.add("exec.checkpoint_near_hits",
                out["son"].fetch_stats.checkpoint_near_hits)

    def after_segment(self, ctx, res) -> None:
        stored = ctx["tgi"].cluster.stored_bytes
        res.add("stored_bytes", stored)
        res.add("storage_bytes_per_event",
                stored / (PREFIX_EVENTS + CYCLES * SPAN))

    def queries_per_op(self) -> float:
        return 4.0


def degree_of(state) -> int:
    return len(state[0]) if state is not None else 0
