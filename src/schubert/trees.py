"""Rooted labeled marching trees and their leaf expansions.

A tree is grown from a root permutation: a vertex whose label has last
descent at most t (or is the null label) is a leaf; otherwise its
children are the outputs of all ways of (K-)marching from the label.
In cohomology mode that is one child per pivot row; in K mode one child
per non-empty subset of pivot rows.  A label with no pivots gets a
single null child.

The subtree under a vertex depends only on its label, so the tree is
the unfolding of a marching DAG over distinct labels, which one
explicit-stack walk over the marching kernel of :mod:`schubert.diagram`
returns as a post-order dict, marching each distinct window once.
:func:`leaf_counts` counts root-to-leaf paths over that dict, and
:func:`build_tree`, the only maker of a :class:`MarchTree`, turns it into
the tree's vertex lists (``out``, ``labels``, ``texts`` and subtree
``sizes``), which the exporters write from in preorder.  The
:class:`TreeNode` objects of ``MarchTree.root`` are a read-only view of
those lists, built only when it is read.  The node ceiling bounds the
distinct labels of the first and the unfolded nodes of the second.

Children are ordered by (|I|, I) so every serialization is byte-stable.
Every walk uses an explicit stack, so tree depth is not limited by the
interpreter's recursion limit.
"""
from __future__ import annotations

from functools import cached_property
from json.encoder import encode_basestring
from typing import Iterator, NamedTuple

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
    """A marching tree at truncation level t in a mode, made by
    :func:`build_tree`: lists over its distinct vertices, children before
    parents and the root last; vertex 0 is the null leaf.  The exporters
    write from these lists; ``root`` views them as :class:`TreeNode`
    objects, built on first read, with one shared tuple of child nodes per
    distinct label."""

    def __init__(self, out: list, labels: list, texts: list, sizes: list, t: int, mode: Mode):
        self.out: list[list[tuple[tuple[int, ...], int]]] = out  # per vertex: (march set, child)
        self.labels: list[Permutation | None] = labels  # per vertex: None for the null leaf
        self.texts: list[str] = texts  # per vertex: its label's text, "∅" for the null leaf
        self.sizes: list[int] = sizes  # per vertex: the nodes of its subtree
        self.t, self.mode = t, mode

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
    """Multiplicities of labeled leaves, the count of null leaves, and their root."""

    counts: dict[Permutation, int]
    null_count: int
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


def _tree_dag(beta: Permutation, t: int, mode: Mode, ceiling: int, unit: str) -> dict:
    """{window: None for a leaf, else its children {rows: child window} in
    tree order, {} with no pivots (a null leaf)} for beta's window and every
    label under it, each after its children.  An explicit stack marches
    each label once: the labels on it are ancestors of the one marched,
    which in a DAG are none of its children.  A bad level or mode raises
    ValueError before :class:`NodeCeilingExceeded`, raised past ``ceiling``."""
    if t < 1:
        raise ValueError("truncation level must be positive")
    _check_mode(mode)
    if ceiling < 1:
        raise NodeCeilingExceeded(f"more than {ceiling} {unit}")
    # The root marches through the public march_children, which bench/tracer.py
    # wraps, so traced runs still see tree marching in the diagram layer.
    leaf = _last_descent(beta.window) <= t
    marches = None if leaf else {rows: child.window for rows, child in march_children(beta, mode)}
    dag: dict = {}
    labels = 1
    stack = [(beta.window, marches, iter((marches or {}).values()))]
    while stack:
        window, marches, pending = stack[-1]
        for child in pending:
            if child in dag:
                continue
            labels += 1
            if labels > ceiling:
                raise NodeCeilingExceeded(f"more than {ceiling} {unit}")
            node = _window_marches(child, mode, t)
            if node is None:  # a leaf has no children, so it is listed at once
                dag[child] = None
            elif node[2]:
                stack.append((child, node[2], iter(node[2].values())))
                break
            else:  # no pivots: the null leaf is the only child
                dag[child] = {}
        else:
            stack.pop()
            dag[window] = marches
    return dag


def build_tree(
    beta: Permutation,
    t: int,
    mode: Mode = "K",
    node_ceiling: int = DEFAULT_NODE_CEILING,
) -> MarchTree:
    """The marching tree rooted at beta with truncation level t: the
    marching DAG of :func:`leaf_counts`, unfolded with its subtree sizes.
    Raises :class:`NodeCeilingExceeded` past ``node_ceiling`` nodes (null
    leaves included), counted over the DAG before any node is built."""
    dag = _tree_dag(beta, t, mode, node_ceiling, "nodes")
    index = {None: 0}
    out, labels, texts, sizes = [[]], [None], ["∅"], [1]
    for window, marches in dag.items():
        # A pivotless label ({}) has the null leaf as its only child.
        edges = () if marches is None else marches.items() or [((), None)]
        index[window] = len(out)
        out.append([(rows, index[child]) for rows, child in edges])
        label = Permutation._trusted(window)
        labels.append(label)
        texts.append(label.text())
        sizes.append(1 + sum([sizes[v] for _, v in out[-1]]))
    if sizes[-1] > node_ceiling:  # the root's subtree is the largest
        raise NodeCeilingExceeded(f"more than {node_ceiling} nodes")
    return MarchTree(out, labels, texts, sizes, t, mode)


def leaf_counts(
    beta: Permutation,
    t: int,
    mode: Mode = "K",
    node_ceiling: int = DEFAULT_NODE_CEILING,
) -> LeafSummary:
    """The leaf summary of ``build_tree(beta, t, mode)`` without building it.

    Its ``root`` is beta.  Path multiplicities flow from the root in
    reverse post-order, which lists every label before its children.
    Raises :class:`NodeCeilingExceeded` past ``node_ceiling`` distinct labels.
    """
    dag = _tree_dag(beta, t, mode, node_ceiling, "distinct labels")
    paths = {beta.window: 1}
    counts: dict[Permutation, int] = {}
    nulls = 0
    for window, marches in reversed(dag.items()):
        count = paths.pop(window)
        if marches is None:
            counts[Permutation._trusted(window)] = count
        elif not marches:
            nulls += count
        else:
            for child in marches.values():
                paths[child] = paths.get(child, 0) + count
    return LeafSummary(counts, nulls, beta)


def leaf_summary(tree: MarchTree) -> LeafSummary:
    """The leaf summary of a built tree, counted by :func:`leaf_counts`
    (the tree's nodes bound its distinct labels)."""
    return leaf_counts(tree.labels[-1], tree.t, tree.mode, tree.sizes[-1])


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
