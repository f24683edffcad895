"""Rooted labeled marching trees and their leaf expansions.

A tree is grown from a root permutation: a vertex whose label has last
descent at most t (or is the null label) is a leaf; otherwise its
children are the outputs of all ways of (K-)marching from the label.
In cohomology mode that is one child per pivot row; in K mode one child
per non-empty subset of pivot rows.  A label with no pivots gets a
single null child.

The subtree under a vertex depends only on its label, so the tree is
the unfolding of a marching DAG over distinct labels.  One walk marches
each distinct window once; :func:`leaf_counts` counts root-to-leaf
paths over that DAG, and :func:`build_tree` keeps it, with subtree
sizes, for the exporters to write from in preorder.  Its
:class:`TreeNode` objects are built only when ``MarchTree.root`` is
read.  The node ceiling bounds the distinct labels of the first and the
unfolded nodes of the second.

Children are ordered by (|I|, I) so every serialization is byte-stable.
Every walk uses an explicit stack, so tree depth is not limited by the
interpreter's recursion limit.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from typing import Iterable, Iterator, NamedTuple

from .diagram import Mode, _check_mode, _post_order, _window_marches, march_children
from .permutations import Permutation, _last_descent
from .poly import CeilingExceeded

DEFAULT_NODE_CEILING = 10**6


class NodeCeilingExceeded(CeilingExceeded):
    """Tree construction hit the configured node-count ceiling."""


@dataclass(frozen=True)
class TreeNode:
    """A vertex: its label (None for the null leaf), the march index set
    that produced it (empty at the root), and its ordered children."""

    label: Permutation | None
    march: tuple[int, ...]
    children: tuple[TreeNode, ...]

    def is_leaf(self) -> bool:
        return not self.children

    def walk(self) -> Iterator[TreeNode]:
        """Every node of the subtree in preorder."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


class _Unfolding(NamedTuple):
    """A tree's distinct vertices, children before parents and the root last."""

    root_march: tuple[int, ...]
    out: list[list[tuple[tuple[int, ...], int]]]  # per vertex: (march set, child) pairs
    labels: list[Permutation | None]  # per vertex: None for the null leaf
    texts: list[str]  # per vertex: its label's text, "∅" for the null leaf
    sizes: list[int]  # per vertex: the nodes of its subtree


def _unfold(vertices: Iterable[tuple], root_march: tuple[int, ...]) -> _Unfolding:
    """The unfolding of ``(key, label, [(march set, child key)])`` listed
    with every child before its parent and the root last; vertex 0, keyed
    None, is the null leaf."""
    index: dict = {None: 0}
    out, labels, texts, sizes = [[]], [None], ["∅"], [1]
    for key, label, edges in vertices:
        index[key] = len(out)
        out.append([(rows, index[child]) for rows, child in edges])
        labels.append(label)
        texts.append("∅" if label is None else label.text())
        sizes.append(1 + sum([sizes[v] for _, v in out[-1]]))
    return _Unfolding(root_march, out, labels, texts, sizes)


class MarchTree:
    """A marching tree at truncation level t in a mode.  The exporters
    write from its unfolding, which :func:`build_tree` keeps and builds
    ``root`` from on first read; a hand-built ``root`` is unfolded."""

    def __init__(self, root: TreeNode, t: int, mode: Mode) -> None:
        self._root, self._unfolding, self.t, self.mode = root, None, t, mode

    @property
    def root(self) -> TreeNode:
        if self._root is None:  # one tuple of child nodes per vertex
            view, children = self._unfolding, []
            for edges in view.out:
                children.append(tuple(TreeNode(view.labels[v], m, children[v]) for m, v in edges))
            self._root = TreeNode(view.labels[-1], view.root_march, children[-1])
        return self._root

    def _unfolded(self) -> _Unfolding:
        if self._unfolding is None:  # hand-built: every node a vertex, children before parents
            nodes = reversed(list(self._root.walk()))
            vertices = ((id(n), n.label, [(c.march, id(c)) for c in n.children]) for n in nodes)
            self._unfolding = _unfold(vertices, self._root.march)
        return self._unfolding

    def nodes(self) -> Iterator[TreeNode]:
        return self.root.walk()

    def leaves(self) -> Iterator[TreeNode]:
        return (node for node in self.nodes() if node.is_leaf())


@dataclass
class LeafSummary:
    """Multiplicities of labeled leaves plus the count of null leaves."""

    counts: dict[Permutation, int] = field(default_factory=dict)
    null_count: int = 0

    def total(self) -> int:
        return sum(self.counts.values()) + self.null_count

    def signed(self, base_length: int) -> dict[Permutation, int]:
        """Coefficients (-1)^(base_length - length(leaf)) * multiplicity.

        Null leaves contribute nothing.
        """
        return {
            perm: (-1) ** ((base_length - perm.length()) % 2) * count
            for perm, count in self.counts.items()
        }


def _check_level_and_mode(t: int, mode: Mode) -> None:
    if t < 1:
        raise ValueError("truncation level must be positive")
    _check_mode(mode)


def _march_dag(beta: Permutation, t: int, mode: Mode, ceiling: int, unit: str) -> dict:
    """Each distinct window under beta, in post-order, mapped to its children
    ``{rows: child window}`` in tree order: None for a leaf, {} for a
    pivotless label (whose only child is the null leaf).  Raises
    :class:`NodeCeilingExceeded` past ``ceiling`` distinct labels."""
    labels = 0
    root = beta.window

    def expand(window: tuple[int, ...]) -> tuple[dict | None, Iterable[tuple[int, ...]]]:
        nonlocal labels
        labels += 1
        if labels > ceiling:
            raise NodeCeilingExceeded(f"more than {ceiling} {unit}")
        if _last_descent(window) <= t:
            return None, ()
        if window is root:
            # Through the public march_children, which bench/tracer.py wraps,
            # so traced runs still see tree marching in the diagram layer.
            marches = {rows: child.window for rows, child in march_children(beta, mode)}
        else:
            marches = _window_marches(window, mode)[2]
        return marches, marches.values()

    dag: dict = {}
    for window, marches in _post_order(root, expand, dag):
        dag[window] = marches
    return dag


def build_tree(
    beta: Permutation,
    t: int,
    mode: Mode = "K",
    node_ceiling: int = DEFAULT_NODE_CEILING,
) -> MarchTree:
    """The marching tree rooted at beta with truncation level t: the
    marching DAG of :func:`leaf_counts` with its subtree sizes.  Its
    :class:`TreeNode` objects, one tuple of children per distinct label,
    are built when ``root`` is first read.  Raises
    :class:`NodeCeilingExceeded` past ``node_ceiling`` nodes (null leaves
    included), counted over the DAG before any node is built."""
    _check_level_and_mode(t, mode)
    dag = _march_dag(beta, t, mode, node_ceiling, "nodes")
    vertices = (  # a pivotless label ({}) has the null leaf as its only child
        (w, Permutation._trusted(w), () if marches is None else marches.items() or [((), None)])
        for w, marches in dag.items()
    )
    tree = MarchTree.__new__(MarchTree)
    tree._root, tree._unfolding, tree.t, tree.mode = None, _unfold(vertices, ()), t, mode
    if tree._unfolding.sizes[-1] > node_ceiling:  # the root's subtree is the largest
        raise NodeCeilingExceeded(f"more than {node_ceiling} nodes")
    return tree


def leaf_counts(
    beta: Permutation,
    t: int,
    mode: Mode = "K",
    node_ceiling: int = DEFAULT_NODE_CEILING,
) -> LeafSummary:
    """The leaf summary of ``build_tree(beta, t, mode)`` without building it.

    Path multiplicities flow from the root in reverse post-order, which
    lists every label before its children.  Raises
    :class:`NodeCeilingExceeded` past ``node_ceiling`` distinct labels.
    """
    _check_level_and_mode(t, mode)
    dag = _march_dag(beta, t, mode, node_ceiling, "distinct labels")
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
    return LeafSummary(counts, nulls)


def leaf_summary(tree: MarchTree) -> LeafSummary:
    counts = Counter(leaf.label for leaf in tree.leaves())
    nulls = counts.pop(None, 0)
    return LeafSummary(dict(counts), nulls)


def unique_labeled_leaf(
    alpha: Permutation,
    t: int,
    n: int,
    node_ceiling: int = DEFAULT_NODE_CEILING,
) -> Permutation | None:
    """The single non-null leaf label of the K tree of the n-stabilization
    of alpha, if there is exactly one such leaf counting multiplicity."""
    if alpha.size() > n:
        raise ValueError(f"window exceeds S_{n}")
    summary = leaf_counts(alpha.stabilize(n), t, "K", node_ceiling)
    if sum(summary.counts.values()) != 1:
        return None
    return next(iter(summary.counts))


# -- serialization ---------------------------------------------------------


def _preorder(view: _Unfolding) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """(march set, vertex, depth) of every node in preorder, the root first."""
    out = view.out
    stack = [iter([(view.root_march, len(out) - 1)])]  # the nodes still to visit, per depth
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
    view = tree._unfolded()
    lines, rendered = [], {}  # rendered: (march set, vertex, depth) -> line
    for node in _preorder(view):
        line = rendered.get(node)
        if line is None:
            rows, v, depth = node
            line = f"{'  ' * depth}--{','.join(map(str, rows))}--> {view.texts[v]}"
            rendered[node] = line
        lines.append(line)
    lines[0] = view.texts[-1]  # the root's line is its label alone
    return "\n".join(lines)


def to_json(tree: MarchTree) -> str:
    """Nested ``{"label", "march", "children"}`` objects (null for the
    null leaf's label) exactly as ``json.dumps(..., ensure_ascii=False,
    indent=2)`` writes them.  A node at depth d opens its object at indent
    4d, its keys sit at 4d + 2 and the items of its lists at 4d + 4."""
    view = tree._unfolded()
    out, labels, texts = view.out, view.labels, view.texts
    parts, rendered = [], {}  # rendered: (march set, vertex, depth) -> text up to the children
    closings, previous = [], -1  # per depth: after the children; the depth of the node before
    for node in _preorder(view):
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
    view = tree._unfolded()
    out, sizes = view.out, view.sizes
    vertices = [f' [label="{text}"];' for text in view.texts]
    marches = {rows for edges in out for rows, _ in edges}
    edges = {rows: f' [label="{",".join(map(str, rows))}"];' for rows in marches}
    lines = ["digraph march_tree {"]
    for k, (_, v, _) in enumerate(_preorder(view)):
        name, j = f"  n{k}", k + 1
        lines.append(name + vertices[v])
        for rows, c in out[v]:
            lines.append(f"{name} -> n{j}{edges[rows]}")
            j += sizes[c]
    lines.append("}")
    return "\n".join(lines)
