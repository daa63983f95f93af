"""The delta framework (paper Sec. 4.1, Definitions 1-5).

A *delta* is a set of static graph components (static nodes / static
edges), closed under sum, difference, union and intersection.  Every
temporal index in the paper — Log, Copy, Copy+Log, vertex-centric,
DeltaGraph and TGI — is expressible as a collection of deltas, which is
what lets Table 1 compare them in one framework.

Component identity: a static node is identified by its node id ``I``; a
static edge by its canonical endpoint pair.  Two components with the same
identity but different state are *different versions* of the component;
delta sum resolves such conflicts in favour of the right-hand operand
(later state wins), which is why ``+`` is not commutative (paper Def. 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple, Union

from repro.errors import DeltaError
from repro.graph.static import Graph
from repro.types import AttrMap, EdgeId, NodeId, TimePoint, canonical_edge

# A component key is ("n", node_id) or ("e", (u, v)).
ComponentKey = Tuple[str, Union[NodeId, EdgeId]]


@dataclass(frozen=True)
class StaticNode:
    """State of one vertex at one point in time (paper Definition 1).

    Attributes:
        I: node id.
        E: edge list, captured as a frozenset of neighbor ids.
        A: attribute map (stored as a sorted tuple of pairs so the value is
           hashable and equality is structural).
    """

    I: NodeId
    E: FrozenSet[NodeId] = frozenset()
    A: Tuple[Tuple[str, Any], ...] = ()

    @staticmethod
    def make(
        node_id: NodeId,
        neighbors: Iterable[NodeId] = (),
        attrs: Optional[AttrMap] = None,
    ) -> "StaticNode":
        items = tuple(sorted((attrs or {}).items()))
        return StaticNode(node_id, frozenset(neighbors), items)

    @property
    def attrs(self) -> AttrMap:
        return dict(self.A)

    @property
    def key(self) -> ComponentKey:
        return ("n", self.I)

    def with_attr(self, k: str, v: Any) -> "StaticNode":
        attrs = self.attrs
        attrs[k] = v
        return StaticNode.make(self.I, self.E, attrs)

    def without_attr(self, k: str) -> "StaticNode":
        attrs = self.attrs
        attrs.pop(k, None)
        return StaticNode.make(self.I, self.E, attrs)

    def with_neighbor(self, n: NodeId) -> "StaticNode":
        return StaticNode(self.I, self.E | {n}, self.A)

    def without_neighbor(self, n: NodeId) -> "StaticNode":
        return StaticNode(self.I, self.E - {n}, self.A)


@dataclass(frozen=True)
class StaticEdge:
    """State of one edge at one point in time (paper Sec. 4.1).

    Contains the two endpoint ids, the direction flag, and attributes.
    """

    u: NodeId
    v: NodeId
    directed: bool = False
    A: Tuple[Tuple[str, Any], ...] = ()

    @staticmethod
    def make(
        u: NodeId,
        v: NodeId,
        attrs: Optional[AttrMap] = None,
        directed: bool = False,
    ) -> "StaticEdge":
        cu, cv = canonical_edge(u, v, directed)
        return StaticEdge(cu, cv, directed, tuple(sorted((attrs or {}).items())))

    @property
    def attrs(self) -> AttrMap:
        return dict(self.A)

    @property
    def key(self) -> ComponentKey:
        return ("e", (self.u, self.v))


GraphComponent = Union[StaticNode, StaticEdge]


class Delta:
    """A set of static graph components, keyed by component identity.

    Implements the paper's delta algebra:

    - ``a + b``   (Def. 4): union by key, with ``b``'s version winning on
      conflicts.  Not commutative; associative; ``a + EMPTY == a``.
    - ``a - b``:  set difference by *full component equality* — a component
      of ``a`` survives unless an identical component exists in ``b``.
    - ``a & b``:  components identical in both (used to build DeltaGraph
      interior nodes).
    - ``a | b``:  all components from both; conflicting versions keep
      ``a``'s copy (union is only used between compatible deltas).
    """

    __slots__ = ("_components",)

    def __init__(self, components: Iterable[GraphComponent] = ()) -> None:
        self._components: Dict[ComponentKey, GraphComponent] = {}
        for c in components:
            self._components[c.key] = c

    # -- basic protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._components)

    def __iter__(self) -> Iterator[GraphComponent]:
        return iter(self._components.values())

    def __contains__(self, key: ComponentKey) -> bool:
        return key in self._components

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Delta):
            return NotImplemented
        return self._components == other._components

    def __repr__(self) -> str:
        return f"<Delta cardinality={self.cardinality} size={self.size}>"

    def get(self, key: ComponentKey) -> Optional[GraphComponent]:
        return self._components.get(key)

    def put(self, component: GraphComponent) -> None:
        self._components[component.key] = component

    def discard(self, key: ComponentKey) -> None:
        self._components.pop(key, None)

    def keys(self) -> Iterator[ComponentKey]:
        return iter(self._components)

    def node_ids(self) -> List[NodeId]:
        return [c.I for c in self if isinstance(c, StaticNode)]

    @property
    def cardinality(self) -> int:
        """Unique number of component descriptions (paper Definition 3)."""
        return len(self._components)

    @property
    def size(self) -> int:
        """Total number of node/edge descriptions including edge-list
        entries (paper Definition 3): a static node counts 1 plus one per
        edge-list entry; a static edge counts 1."""
        total = 0
        for c in self:
            if isinstance(c, StaticNode):
                total += 1 + len(c.E)
            else:
                total += 1
        return total

    # -- algebra ---------------------------------------------------------
    def __add__(self, other: "Delta") -> "Delta":
        if not isinstance(other, Delta):
            raise DeltaError(f"cannot add Delta and {type(other).__name__}")
        out = Delta()
        out._components = dict(self._components)
        out._components.update(other._components)
        return out

    def __sub__(self, other: "Delta") -> "Delta":
        if not isinstance(other, Delta):
            raise DeltaError(f"cannot subtract {type(other).__name__} from Delta")
        out = Delta()
        theirs = other._components
        for key, comp in self._components.items():
            # identity first: deltas stepped from one another share the
            # component objects they did not touch
            match = theirs.get(key)
            if match is not comp and match != comp:
                out._components[key] = comp
        return out

    def __and__(self, other: "Delta") -> "Delta":
        if not isinstance(other, Delta):
            raise DeltaError(f"cannot intersect Delta with {type(other).__name__}")
        small, large = (
            (self, other) if len(self) <= len(other) else (other, self)
        )
        out = Delta()
        theirs = large._components
        for key, comp in small._components.items():
            match = theirs.get(key)
            if match is comp or match == comp:
                out._components[key] = comp
        return out

    def __or__(self, other: "Delta") -> "Delta":
        if not isinstance(other, Delta):
            raise DeltaError(f"cannot union Delta with {type(other).__name__}")
        out = Delta()
        out._components = dict(other._components)
        out._components.update(self._components)
        return out

    def restricted_to(self, node_ids: Iterable[NodeId]) -> "Delta":
        """Sub-delta containing only the given nodes and edges with at least
        one endpoint among them (paper Example 5, partitioned snapshot)."""
        keep = set(node_ids)
        out = Delta()
        for key, comp in self._components.items():
            if isinstance(comp, StaticNode):
                if comp.I in keep:
                    out._components[key] = comp
            else:
                if comp.u in keep or comp.v in keep:
                    out._components[key] = comp
        return out

    # -- conversion -------------------------------------------------------
    def to_graph(self, directed: bool = False) -> Graph:
        """Materialize this delta as an in-memory :class:`Graph`.

        Only edges whose both endpoints are present as static nodes are
        materialized; dangling edge-list entries (caused by partitioned
        fetches) are dropped, matching how the paper's query processors
        assemble snapshots from micro-partitions.
        """
        g = Graph(directed=directed)
        nodes = [c for c in self if isinstance(c, StaticNode)]
        for c in nodes:
            g.add_node(c.I, c.attrs)
        for c in self:
            if isinstance(c, StaticEdge):
                if g.has_node(c.u) and g.has_node(c.v):
                    g.add_edge(c.u, c.v, c.attrs)
        # edge-list entries on static nodes (node-centric encoding)
        for c in nodes:
            for nbr in c.E:
                if g.has_node(nbr) and not g.has_edge(c.I, nbr):
                    g.add_edge(c.I, nbr)
        return g

    @staticmethod
    def from_graph(g: Graph, node_centric: bool = False) -> "Delta":
        """Snapshot delta of ``g`` (paper Example 4: ``G(t) - G(-inf)``).

        With ``node_centric=True`` edges are folded into the static nodes'
        edge lists (the logical model of Sec. 3.1: "edges are considered as
        attributes of the nodes"); otherwise edges are separate
        :class:`StaticEdge` components (more convenient for partitioning).
        """
        out = Delta()
        for n in g.nodes():
            nbrs = g.neighbors(n) if node_centric else ()
            out.put(StaticNode.make(n, nbrs, g.node_attrs(n)))
        if not node_centric:
            for (u, v) in g.edges():
                out.put(StaticEdge.make(u, v, g.edge_attrs(u, v), g.directed))
        return out


#: The empty delta (paper: ``∆ + ∅ = ∆``).
EMPTY_DELTA = Delta()
