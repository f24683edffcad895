"""Rooted labeled marching trees and their leaf expansions.

A tree is grown from a root permutation: a vertex whose label has last
descent at most t (or is the null label) is a leaf; otherwise its
children are the outputs of all ways of (K-)marching from the label.
In cohomology mode that is one child per pivot row; in K mode one child
per non-empty subset of pivot rows.  A label with no pivots gets a
single null child.

The subtree under a vertex depends only on its label, so the tree is
the unfolding of a marching DAG over distinct labels.  One explicit-stack
walk over the marching kernel of :mod:`schubert.diagram` marches each
distinct window once and lists the DAG as vertex lists, children before
parents and the root last, vertex 0 the null leaf: ``out`` (each
vertex's edges (march set, vertex) in tree order) and ``windows``.

Most labels lie in subtrees that hold only null leaves, and the label
itself says which: its tree at level t has a labeled leaf exactly when
no column of its diagram holds more than t boxes.  The tree expands r_t
of the label's Grothendieck polynomial (Schubert, in cohomology), which
is nonzero exactly then: for S_w by the bottom pipe dream
(Bergeron-Billey, *RC-graphs and Schubert polynomials*, Exp. Math.
1993), and so for G_w, each of whose pipe dreams holds a reduced one
(Knutson-Miller, Ann. Math. 2005).

So the walk has two uses.  :func:`build_tree`, the only maker of a
:class:`MarchTree`, lists the full DAG, null leaves included, and adds
``labels``, ``texts`` and subtree ``sizes``; the exporters write from
these four lists in preorder, and :func:`leaf_summary` counts a built
tree's labeled and null leaves over its ``out`` lists, marching nothing.
It is the one reader of null leaves.  :func:`leaf_counts`, which builds
no tree, lists the live labels only: it tests each new label once and
marches no dead one, so its ``null_count`` is None.  ``MarchTree.root``
views the lists as :class:`TreeNode` objects, built only when read.  The
node ceiling bounds the nodes of ``build_tree`` and the live labels of
``leaf_counts``.  ``detect`` needs only whether a tree has a single
labeled leaf: ``_single_leaf`` follows the one live chain from the root
and stops at its first dead end or branch.

Children are ordered by (|I|, I) so every serialization is byte-stable.
No walk recurses, so tree depth is not limited by the interpreter's
recursion limit.
"""
from __future__ import annotations

from functools import cached_property
from json.encoder import encode_basestring
from typing import Callable, Iterator, NamedTuple

from .diagram import Mode, _check_mode, _window_marches, march_children
from .permutations import Permutation, _last_descent
from .poly import CeilingExceeded

DEFAULT_NODE_CEILING = 10**6


class NodeCeilingExceeded(CeilingExceeded):
    """Tree construction hit the configured node-count ceiling."""


class TreeNode(NamedTuple):
    """A vertex of ``MarchTree.root``: its label (None for the null leaf),
    the march index set that produced it (empty at the root), and its
    ordered children."""

    label: Permutation | None
    march: tuple[int, ...]
    children: tuple[TreeNode, ...]


class MarchTree:
    """A marching tree made by :func:`build_tree`: four lists over its
    distinct vertices, children before parents and the root last; vertex 0
    is the null leaf.  The exporters write from these lists; ``root``
    views them as :class:`TreeNode` objects, built on first read, with one
    shared tuple of child nodes per distinct label."""

    def __init__(self, out: list, labels: list, texts: list, sizes: list):
        self.out: list[list[tuple[tuple[int, ...], int]]] = out  # per vertex: (march set, child)
        self.labels: list[Permutation | None] = labels  # per vertex: None for the null leaf
        self.texts: list[str] = texts  # per vertex: its label's text, "∅" for the null leaf
        self.sizes: list[int] = sizes  # per vertex: the nodes of its subtree

    @cached_property
    def root(self) -> TreeNode:
        labels, children = self.labels, []  # one tuple of child nodes per vertex
        for edges in self.out:
            children.append(tuple(TreeNode(labels[v], m, children[v]) for m, v in edges))
        return TreeNode(labels[-1], (), children[-1])

    def nodes(self) -> Iterator[TreeNode]:
        """Every node of ``root`` in preorder (``bench/make_pools.py`` counts them)."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


class LeafSummary(NamedTuple):
    """Multiplicities of labeled leaves, the count of null leaves (None from
    :func:`leaf_counts`, which walks no dead label), and their root."""

    counts: dict[Permutation, int]
    null_count: int | None
    root: Permutation

    def signed(self) -> dict[Permutation, int]:
        """Coefficients (-1)^(length(root) - length(leaf)) * multiplicity.

        Null leaves contribute nothing.
        """
        base = self.root.length()
        return {
            perm: (-1) ** ((base - perm.length()) % 2) * count
            for perm, count in self.counts.items()
        }


def _holds_a_labeled_leaf(window: tuple[int, ...], t: int) -> bool:
    """Whether the tree of a canonical window at level t has a labeled leaf:
    exactly when no value has more than t larger values to its left, i.e.
    no column of the diagram holds more than t boxes (see the module
    docstring).  A value in the first t places has fewer than t before it."""
    seen = 0
    for v in window[:t]:
        seen |= 1 << v
    for v in window[t:]:
        if (seen >> v).bit_count() > t:
            return False
        seen |= 1 << v
    return True


def _tree_dag(
    beta: Permutation, t: int, mode: Mode, ceiling: int, prune: bool
) -> tuple[list, list]:
    """beta's marching DAG as vertex lists (out, windows): vertex 0 is the
    null leaf (window None), then every distinct label under beta, each
    after its children, and beta last.  out[v] holds v's edges (march set,
    vertex) in tree order: none for a leaf, ((), 0) alone with no pivots.
    An explicit stack marches each label once: the labels on it are
    ancestors of the one marched, which in a DAG are none of its children.
    A bad level or mode raises ValueError first.  Each label is counted
    when it is first listed, the root first, and
    :class:`NodeCeilingExceeded` is raised past ``ceiling`` of them:
    "nodes" for the full walk, "distinct labels" for the pruned one.

    With ``prune``, a label whose subtree holds no labeled leaf
    (:func:`_holds_a_labeled_leaf`) is dead: it is tested once, before it
    is counted, remembered in ``index`` as -1 and gets no vertex, no edge
    and no count against the ceiling.  A pivotless label is dead, so no
    null leaf is met; a dead root gives the null vertex alone, ([[]],
    [None]), under every ceiling.  No live label lies below a dead one, so
    the live labels are listed in the full walk's order."""
    if t < 1:
        raise ValueError("truncation level must be positive")
    _check_mode(mode)
    if prune and not _holds_a_labeled_leaf(beta.window, t):
        return [[]], [None]
    unit = "distinct labels" if prune else "nodes"
    labels = 1  # the root
    if labels > ceiling:
        raise NodeCeilingExceeded(f"more than {ceiling} {unit}")
    # The root marches through the public march_children, which bench/tracer.py
    # wraps, so traced runs still see tree marching in the diagram layer.
    leaf = _last_descent(beta.window) <= t
    marches = None if leaf else {rows: child.window for rows, child in march_children(beta, mode)}
    out, windows, index = [[]], [None], {}
    # Per label on the stack: its window, march set, pending marches and edges so far.
    stack = [(beta.window, (), iter((marches or {}).items()), [((), 0)] if marches == {} else [])]
    while stack:
        window, march, pending, edges = stack[-1]
        for rows, child in pending:
            vertex = index.get(child)
            if vertex is None:
                if prune and not _holds_a_labeled_leaf(child, t):
                    index[child] = -1
                    continue
                labels += 1
                if labels > ceiling:
                    raise NodeCeilingExceeded(f"more than {ceiling} {unit}")
                node = _window_marches(child, mode, t)
                if node is not None and node[2]:
                    stack.append((child, rows, iter(node[2].items()), []))
                    break
                vertex = index[child] = len(out)  # a leaf or a pivotless label: listed at once
                windows.append(child)
                out.append([] if node is None else [((), 0)])
            elif vertex < 0:  # dead
                continue
            edges.append((rows, vertex))
        else:
            stack.pop()
            vertex = index[window] = len(out)
            if stack:
                stack[-1][3].append((march, vertex))
            windows.append(window)
            out.append(edges)
    return out, windows


def build_tree(
    beta: Permutation,
    t: int,
    mode: Mode = "K",
    node_ceiling: int = DEFAULT_NODE_CEILING,
) -> MarchTree:
    """The marching tree rooted at beta with truncation level t: the full
    marching DAG, null leaves included, unfolded with its subtree sizes.
    Raises :class:`NodeCeilingExceeded` past ``node_ceiling`` nodes (null
    leaves included), counted over the DAG before any node is built."""
    out, windows = _tree_dag(beta, t, mode, node_ceiling, prune=False)
    labels = [None, *map(Permutation._trusted, windows[1:])]
    texts, sizes = ["∅", *(label.text() for label in labels[1:])], []
    for edges in out:
        sizes.append(1 + sum([sizes[v] for _, v in edges]))
    if sizes[-1] > node_ceiling:  # the root's subtree is the largest
        raise NodeCeilingExceeded(f"more than {node_ceiling} nodes")
    return MarchTree(out, labels, texts, sizes)


def _leaf_paths(out: list, label: Callable[[int], Permutation]) -> tuple[dict, int]:
    """(leaf multiplicities, null leaves) over a tree's ``out`` lists: paths
    flow from the root down in reverse vertex order, each vertex before its
    children; leaf v counts under label(v), and vertex 0 gathers the null
    leaves."""
    paths = [0] * len(out)
    paths[-1] = 1
    counts: dict[Permutation, int] = {}
    for v in range(len(out) - 1, 0, -1):
        count = paths[v]
        if not out[v]:
            counts[label(v)] = count
        for _, child in out[v]:
            paths[child] += count
    return counts, paths[0]


def leaf_counts(
    beta: Permutation,
    t: int,
    mode: Mode = "K",
    node_ceiling: int = DEFAULT_NODE_CEILING,
) -> LeafSummary:
    """The labeled leaves of ``build_tree(beta, t, mode)``, keys in the same
    order, with ``null_count`` None and ``root`` beta, without building it.
    The walk marches only the live labels, those with a labeled leaf below,
    and raises :class:`NodeCeilingExceeded` past ``node_ceiling`` of them;
    a beta with no labeled leaf is none of them, so it gives no leaf under
    every ceiling.  :func:`leaf_summary` of the built tree counts its null
    leaves."""
    out, windows = _tree_dag(beta, t, mode, node_ceiling, prune=True)
    counts = _leaf_paths(out, lambda v: Permutation._trusted(windows[v]))[0]
    return LeafSummary(counts, None, beta)


def _single_leaf(beta: Permutation, t: int, ceiling: int) -> tuple[int, ...] | None:
    """The window of the labeled leaf of beta's K tree at level t when it
    has exactly one, of multiplicity 1; else None.  A live label that is
    not a leaf has a live child, and two live edges out of one label lead
    to two labeled leaves, so the tree has a single leaf exactly when each
    live label from the root has one live edge.  The walk follows that
    chain, one label at a time, and stops at the first dead end or branch.
    It tests the root before counting it, as the pruned :func:`_tree_dag`
    does, and raises :class:`NodeCeilingExceeded` past ``ceiling`` labels
    of the chain."""
    window = beta.window
    if not _holds_a_labeled_leaf(window, t):
        return None
    labels = 1
    while labels <= ceiling:
        node = _window_marches(window, "K", t)
        if node is None:
            return window
        live = [child for child in node[2].values() if _holds_a_labeled_leaf(child, t)]
        if len(live) != 1:
            return None
        (window,) = live
        labels += 1
    raise NodeCeilingExceeded(f"more than {ceiling} distinct labels")


def leaf_summary(tree: MarchTree) -> LeafSummary:
    """The leaf summary of a built tree, null leaves included, counted over
    its own lists."""
    return LeafSummary(*_leaf_paths(tree.out, tree.labels.__getitem__), tree.labels[-1])


# -- serialization ---------------------------------------------------------


def _preorder(out: list) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """(march set, vertex, depth) of every node in preorder, the root first,
    over a tree's ``out`` lists."""
    stack = [iter([((), len(out) - 1)])]  # the nodes still to visit, per depth
    while stack:
        depth = len(stack) - 1
        for rows, v in stack[-1]:
            yield rows, v, depth
            if out[v]:
                stack.append(iter(out[v]))
                break
        else:
            stack.pop()


def to_text(tree: MarchTree) -> str:
    """The root's label, then one line per other node in preorder: two
    spaces per depth, then ``--I--> label``."""
    texts, nodes = tree.texts, _preorder(tree.out)
    next(nodes)  # the root's line is its label alone
    arrows = {rows: f"--{','.join(map(str, rows))}--> " for edges in tree.out for rows, _ in edges}
    lines = ["  " * depth + arrows[rows] + texts[v] for rows, v, depth in nodes]
    return "\n".join([texts[-1], *lines])


def to_json(tree: MarchTree) -> str:
    """Nested ``{"label", "march", "children"}`` objects (null for the
    null leaf's label) exactly as ``json.dumps(..., ensure_ascii=False,
    indent=2)`` writes them.  A node at depth d opens its object at indent
    4d, its keys sit at 4d + 2 and the items of its lists at 4d + 4."""
    out, labels, texts = tree.out, tree.labels, tree.texts
    parts, rendered = [], {}  # rendered: (march set, vertex, depth) -> text up to the children
    closings, previous = [], -1  # per depth: after the children; the depth of the node before
    for node in _preorder(out):
        rows, v, depth = node
        if depth == len(closings):
            close = "\n" + "  " * (2 * depth)
            closings.append(close + "  ]" + close + "}")
        if depth <= previous:  # after a leaf: end the lists of its ancestors down to depth
            parts += reversed(closings[depth:previous])
            parts.append(",")
        previous = depth
        text = rendered.get(node)
        if text is None:  # the node's own line break and indent first
            close = "\n" + "  " * (2 * depth)
            key, entry = close + "  ", close + "    "
            label = "null" if labels[v] is None else encode_basestring(texts[v])
            items = "[" + entry + ("," + entry).join(map(str, rows)) + key + "]" if rows else "[]"
            tail = "[" if out[v] else "[]" + close + "}"
            text = f'{close}{{{key}"label": {label},{key}"march": {items},{key}"children": {tail}'
            rendered[node] = text
        parts.append(text)
    parts += reversed(closings[:previous])
    parts[0] = parts[0][1:]  # the root's object opens the text
    return "".join(parts)


def to_dot(tree: MarchTree) -> str:
    """Nodes numbered n0, n1, ... in preorder: a node's children follow it,
    each after the whole subtree of the one before."""
    out, sizes = tree.out, tree.sizes
    vertices = [f' [label="{text}"];' for text in tree.texts]
    marches = {rows for edges in out for rows, _ in edges}
    edges = {rows: f' [label="{",".join(map(str, rows))}"];' for rows in marches}
    lines = ["digraph march_tree {"]
    for k, (_, v, _) in enumerate(_preorder(out)):
        name, j = f"  n{k}", k + 1
        lines.append(name + vertices[v])
        for rows, c in out[v]:
            lines.append(f"{name} -> n{j}{edges[rows]}")
            j += sizes[c]
    lines.append("}")
    return "\n".join(lines)
