"""Helpers shared by the index implementations."""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterable, List, Optional, Set

from repro.deltas.base import ComponentKey, Delta, StaticEdge, StaticNode
from repro.graph.events import Event, EventKind
from repro.graph.static import Graph
from repro.types import EdgeId, NodeId, TimePoint, canonical_edge


def static_node_from_graph(g: Graph, node: NodeId) -> Optional[StaticNode]:
    """Extract one node's static state from a materialized snapshot."""
    if not g.has_node(node):
        return None
    return StaticNode.make(node, g.neighbors(node), g.node_attrs(node))


def snapshot_delta_of_graph(g: Graph) -> Delta:
    """Snapshot delta in TGI's storage encoding: node-centric static nodes
    (edge lists inline) plus explicit :class:`StaticEdge` components for
    edges that carry attributes (so attribute data survives partitioning)."""
    delta = Delta.from_graph(g, node_centric=True)
    for (u, v) in g.edges():
        attrs = g.edge_attrs(u, v)
        if attrs:
            delta.put(StaticEdge.make(u, v, attrs, g.directed))
    return delta


def advance_snapshot_delta(
    g: Graph, events: Iterable[Event], prev: Delta
) -> Delta:
    """Apply ``events`` to ``g`` and return ``snapshot_delta_of_graph(g)``,
    built as a step from ``prev`` — which must be the snapshot delta of
    ``g`` before the events — instead of from the whole graph.

    Only the components the events touch are rebuilt or dropped: their
    entities, every edge an edge event names, and for a node delete each
    incident edge (in-edges too when directed) with its other endpoint.
    Every other :class:`StaticNode`/:class:`StaticEdge` is the object
    ``prev`` holds, so the delta algebra can match it by identity.

    The result equals the reference in key order as well, so stored rows
    stay byte-identical.  ``g`` orders its nodes and edges by insertion: a
    component present before the events and never removed by them keeps
    its place, and everything (re)inserted by them forms the tail of
    ``g``'s order, which is read back from there.
    """
    directed = g.directed
    nodes, adj, edge_attrs = g._nodes, g._adj, g._edge_attrs
    num_nodes = len(nodes)
    # touched components in first-seen order -> present before the events
    seen_nodes: Dict[NodeId, bool] = {}
    seen_edges: Dict[EdgeId, bool] = {}
    # touched components the events removed at some point
    removed_nodes: Set[NodeId] = set()
    removed_edges: Set[EdgeId] = set()
    for ev in events:
        node, other = ev.node, ev.other
        if node not in seen_nodes:
            seen_nodes[node] = node in nodes
        if other is not None:
            if other not in seen_nodes:
                seen_nodes[other] = other in nodes
            eid = canonical_edge(node, other, directed)
            if eid not in seen_edges:
                seen_edges[eid] = eid in edge_attrs
            if ev.kind == EventKind.EDGE_DELETE and eid in edge_attrs:
                removed_edges.add(eid)
        elif ev.kind == EventKind.NODE_DELETE and node in nodes:
            removed_nodes.add(node)
            incident = [canonical_edge(node, n, directed) for n in adj[node]]
            if directed:
                incident += [e for e in edge_attrs if e[1] == node]
            for eid in incident:
                if eid not in seen_edges:
                    seen_edges[eid] = True
                removed_edges.add(eid)
                for end in eid:
                    if end not in seen_nodes:
                        seen_nodes[end] = True
        g.apply_event(ev)

    # prev lists the nodes first (in g's order), then attributed edges
    items = iter(prev._components.items())
    node_part = dict(islice(items, num_nodes))
    edge_part = dict(items)

    appended = 0
    for n, existed in seen_nodes.items():
        key = ("n", n)
        if existed and n not in removed_nodes:
            old = node_part[key]
            node_part[key] = StaticNode.make(old.I, adj[n], nodes[n])
        else:
            if existed:
                del node_part[key]
            if n in nodes:
                appended += 1
    for n in _tail(nodes, appended):
        node_part[("n", n)] = StaticNode.make(n, adj[n], nodes[n])

    appended = 0
    gained: Set[ComponentKey] = set()
    for eid, existed in seen_edges.items():
        key = ("e", eid)
        attrs = edge_attrs.get(eid)
        if existed and eid not in removed_edges:
            old = edge_part.get(key)
            if old is not None and attrs:
                edge_part[key] = StaticEdge.make(old.u, old.v, attrs, directed)
            elif old is not None:
                del edge_part[key]
            elif attrs:
                gained.add(key)
        else:
            if existed:
                edge_part.pop(key, None)
            if attrs is not None:
                appended += 1
    for eid in _tail(edge_attrs, appended):
        attrs = edge_attrs[eid]
        if attrs:
            edge_part[("e", eid)] = StaticEdge.make(*eid, attrs, directed)
    if gained:
        # an edge that gained attributes in place belongs somewhere in
        # the middle of the attributed edges: re-walk g's edge order
        fresh, edge_part = edge_part, {}
        for eid, attrs in edge_attrs.items():
            if attrs:
                key = ("e", eid)
                edge_part[key] = (
                    StaticEdge.make(*eid, attrs, directed)
                    if key in gained else fresh[key]
                )

    out = Delta()
    node_part.update(edge_part)
    out._components = node_part
    return out


def _tail(order: Dict, count: int) -> List:
    """The last ``count`` keys of an insertion-ordered dict, in order."""
    tail = list(islice(reversed(order), count))
    tail.reverse()
    return tail


def diff_states_to_events(
    node: NodeId,
    t: TimePoint,
    prev: Optional[StaticNode],
    cur: Optional[StaticNode],
    seq_start: int,
) -> List[Event]:
    """Synthesize events that transform ``prev`` into ``cur`` at time ``t``.

    Used by the Copy baseline, which stores states rather than changes but
    must still answer version queries in the common :class:`NodeHistory`
    format.  Sequence numbers start at ``seq_start`` and increase.
    """
    events: List[Event] = []
    seq = seq_start
    if prev is None and cur is None:
        return events
    if cur is None:
        assert prev is not None
        events.append(Event(t, seq, EventKind.NODE_DELETE, node))
        return events
    if prev is None:
        events.append(
            Event(t, seq, EventKind.NODE_ADD, node, value=cur.attrs or None)
        )
        seq += 1
        for nbr in sorted(cur.E):
            events.append(Event(t, seq, EventKind.EDGE_ADD, node, other=nbr))
            seq += 1
        return events
    prev_attrs, cur_attrs = prev.attrs, cur.attrs
    for key in sorted(set(prev_attrs) - set(cur_attrs)):
        events.append(
            Event(t, seq, EventKind.NODE_ATTR_DEL, node, key=key,
                  old_value=prev_attrs[key])
        )
        seq += 1
    for key in sorted(cur_attrs):
        if prev_attrs.get(key, _MISSING) != cur_attrs[key]:
            events.append(
                Event(t, seq, EventKind.NODE_ATTR_SET, node, key=key,
                      value=cur_attrs[key], old_value=prev_attrs.get(key))
            )
            seq += 1
    for nbr in sorted(prev.E - cur.E):
        events.append(Event(t, seq, EventKind.EDGE_DELETE, node, other=nbr))
        seq += 1
    for nbr in sorted(cur.E - prev.E):
        events.append(Event(t, seq, EventKind.EDGE_ADD, node, other=nbr))
        seq += 1
    return events


class _Missing:
    """Sentinel distinguishing an absent attribute from ``None``."""


_MISSING = _Missing()
