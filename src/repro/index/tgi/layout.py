"""Physical layout of TGI rows in the key-value cluster (paper Sec. 4.4).

Every row is keyed by the composite **delta key** ``(tsid, sid, did, pid)``:

- ``tsid`` — timespan id (``-1`` is reserved for version-chain rows);
- ``sid``  — horizontal placement group; the *placement key* ``(tsid, sid)``
  determines the storage machine, so one big fetch spreads over the cluster;
- ``did``  — delta id, a ``(tag, index)`` pair:
  ``("S", n)`` tree (derived snapshot) delta ``n``,
  ``("A", n)`` its auxiliary (boundary-replica) counterpart,
  ``("E", j)`` eventlist ``j``,
  ``("F", j)`` auxiliary eventlist ``j``,
  ``("V", node)`` a version chain row;
- ``pid``  — micro-partition id within the delta.

Rows are clustered (sorted within a machine) by the full key, so all
micro-partitions of one delta are contiguous and a snapshot fetch scans
them at the discounted continuation cost (Sec. 4.4 item 5).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.index.delta_tree import DeltaTree
from repro.partitioning.random_part import hash_partition
from repro.types import NodeId, TimePoint

DeltaKey = Tuple[int, int, Tuple[str, int], int]

#: Reserved tsid for version-chain rows.
VC_TSID = -1

#: Delta-id tags.
TAG_SNAPSHOT = "S"
TAG_AUX_SNAPSHOT = "A"
TAG_EVENTLIST = "E"
TAG_AUX_EVENTLIST = "F"
TAG_VERSION_CHAIN = "V"


@functools.lru_cache(maxsize=1 << 16)
def sid_of_pid(pid: int, placement_groups: int) -> int:
    """Placement group of a micro-partition: micro-deltas (not nodes) are
    what gets spread over placement groups, so locality-close nodes that
    share a pid also share a placement.  Memoized: it is a pure function
    of its arguments, and every plan and key builder calls it per pid."""
    return hash_partition(pid, placement_groups, salt=17)


def delta_key(tsid: int, sid: int, tag: str, index: int, pid: int) -> DeltaKey:
    return (tsid, sid, (tag, index), pid)


def version_chain_key(node: NodeId, placement_groups: int) -> DeltaKey:
    sid = hash_partition(node, placement_groups, salt=29)
    return (VC_TSID, sid, (TAG_VERSION_CHAIN, node), 0)


@dataclass
class TimespanInfo:
    """Client-side metadata for one timespan (the paper's ``Timespans`` and
    ``Micropartitions`` tables; small enough to cache at the query manager).

    Attributes:
        tsid: timespan id.
        t_start / t_end: half-open time range ``[t_start, t_end)``.
        checkpoints: checkpoint (tree-leaf) times; ``checkpoints[0]`` is the
            state *before* the span's first event.
        eventlist_ranges: ``(ts, te]`` scope per eventlist.
        tree: shape of the temporal-compression tree over the checkpoints.
        num_pids: number of micro-partitions in this span.
        node_pid: micro-partition of every node alive during the span.
        snapshot_pids: pids with a stored (non-empty) micro, per tree did.
        aux_snapshot_pids: same for auxiliary micros.
        eventlist_pids: pids with a stored micro, per eventlist index.
        aux_eventlist_pids: same for auxiliary eventlists.
        boundary: per pid, the replicated out-of-partition neighbor ids
            (empty when replication is off).
    """

    tsid: int
    t_start: TimePoint
    t_end: TimePoint
    checkpoints: List[TimePoint]
    eventlist_ranges: List[Tuple[TimePoint, TimePoint]]
    tree: DeltaTree
    num_pids: int
    node_pid: Dict[NodeId, int]
    snapshot_pids: Dict[int, List[int]] = field(default_factory=dict)
    aux_snapshot_pids: Dict[int, List[int]] = field(default_factory=dict)
    eventlist_pids: Dict[int, List[int]] = field(default_factory=dict)
    aux_eventlist_pids: Dict[int, List[int]] = field(default_factory=dict)
    boundary: Dict[int, FrozenSet[NodeId]] = field(default_factory=dict)

    def __getstate__(self):
        # the pid -> members index is derived data: rebuilt on first use
        state = dict(self.__dict__)
        state.pop("_members", None)
        return state

    def pid_of(self, node: NodeId) -> Optional[int]:
        return self.node_pid.get(node)

    def members_of(self, pid: int) -> FrozenSet[NodeId]:
        """Primary members of a partition, from a pid -> members index
        built once per span (rebuilt if ``node_pid`` grows)."""
        cached = self.__dict__.get("_members")
        if cached is None or cached[0] != len(self.node_pid):
            index: Dict[int, Set[NodeId]] = {}
            for n, p in self.node_pid.items():
                index.setdefault(p, set()).add(n)
            cached = (
                len(self.node_pid),
                {p: frozenset(ns) for p, ns in index.items()},
            )
            self._members = cached
        return cached[1].get(pid, frozenset())

    def leaf_at(self, t: TimePoint) -> int:
        """Largest checkpoint index with ``checkpoints[i] <= t``."""
        import bisect

        pos = bisect.bisect_right(self.checkpoints, t) - 1
        return max(pos, 0)

    def eventlists_between(self, cp_index: int, t: TimePoint) -> List[int]:
        """Eventlist indices needed to move from checkpoint ``cp_index``
        forward to time ``t`` (those whose scope starts before ``t``)."""
        out = []
        for j in range(cp_index, len(self.eventlist_ranges)):
            ts, _te = self.eventlist_ranges[j]
            if ts < t:
                out.append(j)
            else:
                break
        return out
