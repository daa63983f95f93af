"""Unit tests for the hierarchical temporal-compression tree."""

import pytest

from repro.deltas.base import Delta, StaticNode
from repro.errors import IndexError_
from repro.index.delta_tree import build_delta_tree, reconstruct_leaf


def leaf_sequence(n):
    """Leaves that evolve gradually: leaf i has nodes 0..i with version i
    on the newest node (plenty of shared state to intersect)."""
    leaves = []
    for i in range(n):
        comps = [StaticNode.make(j, (), {"v": 0}) for j in range(i)]
        comps.append(StaticNode.make(i, (), {"v": i}))
        leaves.append(Delta(comps))
    return leaves


@pytest.mark.parametrize("num_leaves", [1, 2, 3, 5, 8, 9])
@pytest.mark.parametrize("arity", [2, 3])
def test_reconstruct_every_leaf(num_leaves, arity):
    leaves = leaf_sequence(num_leaves)
    tree, stored = build_delta_tree(leaves, arity)
    for i, leaf in enumerate(leaves):
        assert reconstruct_leaf(tree, stored, i) == leaf


def test_interior_nodes_store_differences_only():
    leaves = leaf_sequence(8)
    tree, stored = build_delta_tree(leaves, 2)
    # total stored size should be far below storing all leaves separately
    stored_total = sum(d.size for d in stored.values())
    naive_total = sum(leaf.size for leaf in leaves)
    assert stored_total < naive_total


def test_path_lengths_match_height():
    leaves = leaf_sequence(8)
    tree, _ = build_delta_tree(leaves, 2)
    assert tree.height == 3
    assert len(tree.path_to_leaf(0)) == 4  # root + 3 levels


def test_single_leaf_tree():
    leaves = leaf_sequence(1)
    tree, stored = build_delta_tree(leaves, 2)
    assert tree.root == tree.leaves[0]
    assert reconstruct_leaf(tree, stored, 0) == leaves[0]


def test_rejects_bad_arity_and_empty():
    with pytest.raises(IndexError_):
        build_delta_tree(leaf_sequence(2), 1)
    with pytest.raises(IndexError_):
        build_delta_tree([], 2)


def test_path_to_invalid_leaf():
    tree, _ = build_delta_tree(leaf_sequence(2), 2)
    with pytest.raises(IndexError_):
        tree.path_to_leaf(5)


def shared_leaf_sequence(n):
    """The leaves of :func:`leaf_sequence`, but each leaf reuses the
    previous leaf's component objects wherever the state is unchanged
    (the way incrementally built checkpoint deltas share them)."""
    leaves = []
    comps = []
    for i in range(n):
        if comps:
            comps = comps[:-1] + [StaticNode.make(i - 1, (), {"v": 0})]
        comps = comps + [StaticNode.make(i, (), {"v": i})]
        leaves.append(Delta(comps))
    return leaves


def test_difference_and_intersection_ignore_object_identity():
    shared = [StaticNode.make(j, (j + 1,), {"v": j}) for j in range(6)]
    copies = [StaticNode.make(j, (j + 1,), {"v": j}) for j in range(6)]
    assert all(s == c and s is not c for s, c in zip(shared, copies))
    changed = StaticNode.make(5, (), {"v": 9})
    a = Delta(shared)
    b = Delta(shared[:3] + copies[3:5] + [changed])
    assert list((a - b).keys()) == [("n", 5)]
    assert list((b - a).keys()) == [("n", 5)]
    assert list((a & b).keys()) == [("n", j) for j in range(5)]
    assert (a & b) == (b & a) == Delta(copies[:5])
    assert len(Delta(shared) - Delta(copies)) == 0


@pytest.mark.parametrize("arity", [2, 3])
def test_tree_over_shared_leaves_matches_unshared(arity):
    shared = shared_leaf_sequence(9)
    fresh = leaf_sequence(9)
    assert shared == fresh
    tree_s, stored_s = build_delta_tree(shared, arity)
    tree_f, stored_f = build_delta_tree(fresh, arity)
    assert tree_s == tree_f
    assert stored_s.keys() == stored_f.keys()
    for did in stored_f:
        assert stored_s[did] == stored_f[did]
        assert list(stored_s[did].keys()) == list(stored_f[did].keys())
