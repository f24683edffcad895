"""Rooted labeled marching trees and their leaf expansions.

A tree is grown from a root permutation: a vertex whose label has last
descent at most t (or is the null label) is a leaf; otherwise its
children are the outputs of all ways of (K-)marching from the label.
In cohomology mode that is one child per pivot row; in K mode one child
per non-empty subset of pivot rows.  A label with no pivots gets a
single null child.

The subtree under a vertex depends only on its label, so the tree is
the unfolding of a marching DAG over distinct labels.
:func:`leaf_counts` walks that DAG, calls ``march_children`` once per
distinct label and counts root-to-leaf paths; it builds no
:class:`TreeNode` and is what detection and the marching products use.
:func:`build_tree` materialises the tree for the exports and the
worked-example fixtures.  The node ceiling bounds the distinct labels
of :func:`leaf_counts` and the nodes of :func:`build_tree`.

Children are ordered by (|I|, I) so every serialization is byte-stable.
Every walk uses an explicit stack, so tree depth is not limited by the
interpreter's recursion limit.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from typing import Iterator

from .diagram import Mode, march_children
from .permutations import Permutation

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


def build_tree(
    beta: Permutation,
    t: int,
    mode: Mode = "K",
    node_ceiling: int = DEFAULT_NODE_CEILING,
) -> MarchTree:
    """Grow the marching tree rooted at beta with truncation level t.

    Materialises every node, null leaves included, and raises
    :class:`NodeCeilingExceeded` past ``node_ceiling`` of them.
    """
    _check_level_and_mode(t, mode)
    budget = node_ceiling

    def start(label: Permutation | None, march: tuple[int, ...]) -> TreeNode | list:
        """A finished leaf, or the frame [label, march, child specs, built children]."""
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise NodeCeilingExceeded(f"more than {node_ceiling} nodes")
        if label is None or (label.last_descent() or 0) <= t:
            return TreeNode(label, march, ())
        specs = march_children(label, mode) or [((), None)]
        return [label, march, iter(specs), []]

    top = [None, (), iter([((), beta)]), []]  # a frame whose one child is the root
    stack = [top]
    while stack:
        frame = stack[-1]
        for rows, child in frame[2]:
            item = start(child, rows)
            if isinstance(item, TreeNode):
                frame[3].append(item)
            else:
                stack.append(item)
                break
        else:
            stack.pop()
            if stack:
                stack[-1][3].append(TreeNode(frame[0], frame[1], tuple(frame[3])))
    return MarchTree(top[3][0], t, mode)


def leaf_counts(
    beta: Permutation,
    t: int,
    mode: Mode = "K",
    node_ceiling: int = DEFAULT_NODE_CEILING,
) -> LeafSummary:
    """The leaf summary of ``build_tree(beta, t, mode)`` without building it.

    A depth-first walk expands each distinct label once, in post-order;
    path multiplicities then flow from the root in reverse post-order,
    which lists every label before its children (the labels form a DAG:
    a label below itself would make its tree infinite).  Raises
    :class:`NodeCeilingExceeded` past ``node_ceiling`` distinct labels.
    """
    _check_level_and_mode(t, mode)
    # label -> its children in the tree; () for a leaf, (None,) for a
    # pivotless label whose only child is the null leaf.
    children: dict[Permutation, tuple[Permutation | None, ...]] = {}
    post_order: list[Permutation] = []

    def expand(label: Permutation) -> Iterator[Permutation | None]:
        if len(children) >= node_ceiling:
            raise NodeCeilingExceeded(f"more than {node_ceiling} distinct labels")
        if (label.last_descent() or 0) <= t:
            kids: tuple[Permutation | None, ...] = ()
        else:
            kids = tuple(child for _, child in march_children(label, mode)) or (None,)
        children[label] = kids
        return iter(kids)

    stack = [(beta, expand(beta))]
    while stack:
        label, pending = stack[-1]
        for child in pending:
            if child is not None and child not in children:
                stack.append((child, expand(child)))
                break
        else:
            stack.pop()
            post_order.append(label)

    paths = {beta: 1}
    counts: dict[Permutation, int] = {}
    nulls = 0
    for label in reversed(post_order):
        count = paths.pop(label)
        kids = children[label]
        if not kids:
            counts[label] = count
        for child in kids:
            if child is None:
                nulls += count
            else:
                paths[child] = paths.get(child, 0) + count
    return LeafSummary(counts, nulls)


def leaf_summary(tree: MarchTree) -> LeafSummary:
    counts: Counter[Permutation] = Counter()
    nulls = 0
    for leaf in tree.leaves():
        if leaf.label is None:
            nulls += 1
        else:
            counts[leaf.label] += 1
    return LeafSummary(dict(counts), nulls)


def signed_expansion(tree: MarchTree, base_length: int) -> dict[Permutation, int]:
    """Coefficients (-1)^(base_length - length(leaf)) * multiplicity.

    Null leaves contribute nothing.
    """
    return leaf_summary(tree).signed(base_length)


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
    lines: list[str] = []
    stack = [(tree.root, 0)]
    while stack:
        node, depth = stack.pop()
        if depth == 0:
            lines.append(_label_text(node))
        else:
            rows = ",".join(str(i) for i in node.march)
            lines.append(f"{'  ' * depth}--{rows}--> {_label_text(node)}")
        stack.extend((child, depth + 1) for child in reversed(node.children))
    return "\n".join(lines)


def to_json_obj(tree: MarchTree) -> dict:
    def encode(node: TreeNode) -> dict:
        label = None if node.label is None else node.label.text()
        return {"label": label, "march": list(node.march), "children": []}

    root = encode(tree.root)
    stack = [(tree.root, root)]
    while stack:
        node, obj = stack.pop()
        for child in node.children:
            child_obj = encode(child)
            obj["children"].append(child_obj)
            stack.append((child, child_obj))
    return root


def to_json(tree: MarchTree) -> str:
    """Exactly ``json.dumps(to_json_obj(tree), ensure_ascii=False, indent=2)``,
    written in one pass.

    A node at depth d opens its object at indent 4d, its keys sit at
    4d + 2 and the items of its lists at 4d + 4.
    """
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
        label = "null" if node.label is None else encode_basestring(node.label.text())
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
    nodes = list(tree.nodes())
    ids = {id(node): k for k, node in enumerate(nodes)}
    lines = ["digraph march_tree {"]
    for k, node in enumerate(nodes):
        lines.append(f'  n{k} [label="{_label_text(node)}"];')
        for child in node.children:
            rows = ",".join(str(i) for i in child.march)
            lines.append(f'  n{k} -> n{ids[id(child)]} [label="{rows}"];')
    lines.append("}")
    return "\n".join(lines)
