"""Rooted labeled marching trees and their leaf expansions.

A tree is grown from a root permutation: a vertex whose label has last
descent at most t (or is the null label) is a leaf; otherwise its
children are the outputs of all ways of (K-)marching from the label.
In cohomology mode that is one child per pivot row; in K mode one child
per non-empty subset of pivot rows.  A label with no pivots gets a
single null child.

Children are ordered by (|I|, I) so every serialization is byte-stable.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
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
        yield self
        for child in self.children:
            yield from child.walk()


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


def build_tree(
    beta: Permutation,
    t: int,
    mode: Mode = "K",
    node_ceiling: int = DEFAULT_NODE_CEILING,
) -> MarchTree:
    """Grow the marching tree rooted at beta with truncation level t."""
    if t < 1:
        raise ValueError("truncation level must be positive")
    if mode not in ("K", "cohomology"):
        raise ValueError(f"unknown mode {mode!r}")
    budget = [node_ceiling]

    def grow(label: Permutation | None, march: tuple[int, ...]) -> TreeNode:
        budget[0] -= 1
        if budget[0] < 0:
            raise NodeCeilingExceeded(f"more than {node_ceiling} nodes")
        if label is None or (label.last_descent() or 0) <= t:
            return TreeNode(label, march, ())
        children = march_children(label, mode)
        if not children:
            return TreeNode(label, march, (grow(None, ()),))
        return TreeNode(label, march, tuple(grow(child, rows) for rows, child in children))

    return MarchTree(grow(beta, ()), t, mode)


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
    summary = leaf_summary(tree)
    return {
        perm: (-1) ** ((base_length - perm.length()) % 2) * count
        for perm, count in summary.counts.items()
    }


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
    summary = leaf_summary(build_tree(alpha.stabilize(n), t, "K", node_ceiling))
    if sum(summary.counts.values()) != 1:
        return None
    return next(iter(summary.counts))


# -- serialization ---------------------------------------------------------


def _label_text(node: TreeNode) -> str:
    return "∅" if node.label is None else node.label.text()


def to_text(tree: MarchTree) -> str:
    lines: list[str] = []

    def emit(node: TreeNode, depth: int) -> None:
        if depth == 0:
            lines.append(_label_text(node))
        else:
            rows = ",".join(str(i) for i in node.march)
            lines.append(f"{'  ' * depth}--{rows}--> {_label_text(node)}")
        for child in node.children:
            emit(child, depth + 1)

    emit(tree.root, 0)
    return "\n".join(lines)


def to_json_obj(tree: MarchTree) -> dict:
    def encode(node: TreeNode) -> dict:
        return {
            "label": None if node.label is None else node.label.text(),
            "march": list(node.march),
            "children": [encode(child) for child in node.children],
        }

    return encode(tree.root)


def to_json(tree: MarchTree) -> str:
    return json.dumps(to_json_obj(tree), ensure_ascii=False, indent=2)


def to_dot(tree: MarchTree) -> str:
    ids = {id(node): k for k, node in enumerate(tree.nodes())}
    lines = ["digraph march_tree {"]
    for node in tree.nodes():
        lines.append(f'  n{ids[id(node)]} [label="{_label_text(node)}"];')
        for child in node.children:
            rows = ",".join(str(i) for i in child.march)
            lines.append(f'  n{ids[id(node)]} -> n{ids[id(child)]} [label="{rows}"];')
    lines.append("}")
    return "\n".join(lines)
