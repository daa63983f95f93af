"""Expected answers from a replay of the raw event log.

Everything here runs outside the timed region and uses only
``Graph.apply_event`` over the generated events, never the index, so an
answer the index gets wrong cannot also be expected.  The citation
histories only grow, so an event changes only the nodes it names.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.graph.static import Graph

#: A node's state as the oracle sees it: ``None`` when the node is not
#: alive, else ``(neighbor ids, attribute items)``.
NodeState = Optional[Tuple[frozenset, tuple]]


def replay_at(events: Sequence, times: Iterable[int]):
    """Yield ``(t, graph)`` for each time in ascending order, from one
    pass over the log; the graph is the same live object each time, so
    read what you need before the next step."""
    g = Graph()
    i = 0
    for t in sorted(set(times)):
        while i < len(events) and events[i].time <= t:
            g.apply_event(events[i])
            i += 1
        yield t, g


def snapshots_at(events: Sequence, times: Iterable[int]) -> Dict[int, Graph]:
    """Replayed graphs as of each time."""
    return {t: g.copy() for t, g in replay_at(events, times)}


def graph_digest(g: Graph) -> str:
    """A compact fingerprint of a whole graph (nodes, edges, attributes),
    so expected snapshots need not be kept in memory as graphs."""
    nodes = sorted((n, tuple(sorted(g.node_attrs(n).items())))
                   for n in g.nodes())
    edges = sorted((e, tuple(sorted(g.edge_attrs(*e).items())))
                   for e in g.edges())
    return hashlib.sha256(repr((g.directed, nodes, edges)).encode()).hexdigest()


def _state(g: Graph, node) -> NodeState:
    if not g.has_node(node):
        return None
    return (frozenset(g.neighbors(node)),
            tuple(sorted(g.node_attrs(node).items())))


def node_versions(
    events: Sequence, nodes: Iterable, ts: int, te: int
) -> Dict[object, List[Tuple[int, NodeState]]]:
    """Every distinct state each node takes over ``[ts, te]``, starting
    with its state as of ``ts``: the node-history answer."""
    nodes = set(nodes)
    g = Graph()
    i = 0
    while i < len(events) and events[i].time <= ts:
        g.apply_event(events[i])
        i += 1
    out = {n: [(ts, _state(g, n))] for n in nodes}
    while i < len(events) and events[i].time <= te:
        ev = events[i]
        g.apply_event(ev)
        for n in ev.entities:
            if n not in nodes:
                continue
            state = _state(g, n)
            series = out[n]
            if state != series[-1][1]:
                if series[-1][0] == ev.time:
                    series[-1] = (ev.time, state)
                else:
                    series.append((ev.time, state))
        i += 1
    return out


def state_of(static_node) -> NodeState:
    """The oracle form of a ``StaticNode`` (or ``None``)."""
    if static_node is None:
        return None
    return (frozenset(static_node.E), tuple(sorted(static_node.A)))


def history_matches(history, expected: List[Tuple[int, NodeState]]) -> bool:
    got = [(t, state_of(s)) for t, s in history.versions()]
    return got == expected


def wire_versions(expected: List[Tuple[int, NodeState]]) -> list:
    """The node-history answer in the ``hgs serve`` payload shape."""
    return [
        {"t": t, "alive": s is not None,
         "degree": len(s[0]) if s else 0,
         "attrs": dict(s[1]) if s else None}
        for t, s in expected
    ]
