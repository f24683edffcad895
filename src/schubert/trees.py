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
paths over that DAG, and :func:`build_tree` unfolds it for the exports
and the worked-example fixtures, sharing one tuple of child nodes
between all vertices with the same label.  The node ceiling bounds the
distinct labels of the first and the unfolded nodes of the second.

Children are ordered by (|I|, I) so every serialization is byte-stable.
Every walk uses an explicit stack, so tree depth is not limited by the
interpreter's recursion limit.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from typing import Iterable, Iterator

from .diagram import Mode, _post_order, _window_marches, march_children
from .permutations import Permutation, _last_descent

DEFAULT_NODE_CEILING = 10**6


class NodeCeilingExceeded(RuntimeError):
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


@dataclass(frozen=True)
class MarchTree:
    root: TreeNode
    t: int
    mode: Mode

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
    if mode not in ("K", "cohomology"):
        raise ValueError(f"unknown mode {mode!r}")


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
    marching DAG of :func:`leaf_counts` unfolded, with one tuple of child
    nodes per distinct label, shared by every vertex with that label.
    Raises :class:`NodeCeilingExceeded` past ``node_ceiling`` nodes (null
    leaves included), counted over the DAG before any node is built."""
    _check_level_and_mode(t, mode)
    dag = _march_dag(beta, t, mode, node_ceiling, "nodes")
    # A pivotless label ({}) has the null leaf as its only child.
    sizes: dict[tuple[int, ...], int] = {}  # window -> nodes of its subtree
    for window, marches in dag.items():
        sizes[window] = 1 if marches is None else 1 + (sum(sizes[c] for c in marches.values()) or 1)
    if sizes[beta.window] > node_ceiling:  # the root's subtree is the largest
        raise NodeCeilingExceeded(f"more than {node_ceiling} nodes")
    null = (TreeNode(None, (), ()),)
    children: dict[tuple[int, ...], tuple[TreeNode, ...]] = {}  # one tuple per distinct label
    for window, marches in dag.items():
        children[window] = () if marches is None else tuple(
            TreeNode(Permutation._trusted(c), rows, children[c]) for rows, c in marches.items()
        ) or null
    return MarchTree(TreeNode(beta, (), children[beta.window]), t, mode)


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


def _label_text(node: TreeNode) -> str:
    return "∅" if node.label is None else node.label.text()


def to_text(tree: MarchTree) -> str:
    edges: dict[int, str] = {}  # id(node) -> "--I--> label", rendered once per node object
    lines = [_label_text(tree.root)]
    stack = [(child, 1) for child in reversed(tree.root.children)]
    while stack:
        node, depth = stack.pop()
        edge = edges.get(id(node))
        if edge is None:
            edge = edges[id(node)] = f"--{','.join(map(str, node.march))}--> {_label_text(node)}"
        lines.append("  " * depth + edge)
        stack += [(child, depth + 1) for child in reversed(node.children)]
    return "\n".join(lines)


def to_json_obj(tree: MarchTree) -> dict:
    def encode(node: TreeNode) -> dict:
        label = None if node.label is None else node.label.text()
        return {"label": label, "march": list(node.march), "children": []}

    root = encode(tree.root)
    stack = [(tree.root, root)]
    while stack:
        node, obj = stack.pop()
        obj["children"] = [encode(child) for child in node.children]
        stack += zip(node.children, obj["children"])
    return root


def to_json(tree: MarchTree) -> str:
    """Exactly ``json.dumps(to_json_obj(tree), ensure_ascii=False, indent=2)``,
    written in one pass.

    A node at depth d opens its object at indent 4d, its keys sit at
    4d + 2 and the items of its lists at 4d + 4.
    """
    labels: dict[int, str] = {}  # id(node) -> its encoded label
    parts: list[str] = []
    stack: list[str | tuple[TreeNode, int]] = [(tree.root, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        node, depth = item
        close = "\n" + "  " * (2 * depth)
        key = close + "  "
        entry = key + "  "
        label = labels.get(id(node))
        if label is None:
            label = labels[id(node)] = (
                "null" if node.label is None else encode_basestring(node.label.text())
            )
        march = (
            "[" + entry + ("," + entry).join(map(str, node.march)) + key + "]"
            if node.march
            else "[]"
        )
        parts.append(f'{{{key}"label": {label},{key}"march": {march},{key}"children": ')
        if not node.children:
            parts.append("[]" + close + "}")
            continue
        parts.append("[" + entry)
        stack.append(key + "]" + close + "}")
        separator = "," + entry
        for child in reversed(node.children[1:]):
            stack += ((child, depth + 1), separator)
        stack.append((node.children[0], depth + 1))
    return "".join(parts)


def to_dot(tree: MarchTree) -> str:
    """Nodes numbered n0, n1, ... in preorder: a node's children follow it,
    each after the whole subtree of the one before.  One post-order pass
    sizes and renders each node object once, however often it occurs."""
    layout: dict[int, tuple[int, str, str]] = {}  # id(node) -> (size, vertex, edge in)
    stack = [tree.root]
    while stack:
        node = stack[-1]
        pending = [child for child in node.children if id(child) not in layout]
        if pending:
            stack += pending
            continue
        stack.pop()
        size = 1 + sum(layout[id(child)][0] for child in node.children)
        label, rows = _label_text(node), ",".join(map(str, node.march))
        layout[id(node)] = (size, f' [label="{label}"];', f' [label="{rows}"];')
    lines = ["digraph march_tree {"]
    for k, node in enumerate(tree.nodes()):
        lines.append(f"  n{k}{layout[id(node)][1]}")
        j = k + 1
        for child in node.children:
            size, _, edge = layout[id(child)]
            lines.append(f"  n{k} -> n{j}{edge}")
            j += size
    lines.append("}")
    return "\n".join(lines)
