"""Test-side walks of a marching tree's ``TreeNode`` root view, and a tree
figure's edge list in the shape of one of them."""
from collections import Counter
from typing import Iterator

from schubert import LeafSummary, Permutation
from schubert.trees import TreeNode


def preorder(root: TreeNode) -> Iterator[TreeNode]:
    """Every node under root in preorder, on an explicit stack."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def leaf_summary_of(root: TreeNode) -> LeafSummary:
    """The leaf multiplicities and null leaves under root, counted node by
    node, with root's label as the summary's root."""
    counts = Counter(node.label for node in preorder(root) if not node.children)
    nulls = counts.pop(None, 0)
    return LeafSummary(dict(counts), nulls, root.label)


def tree_children(root: TreeNode) -> dict:
    """{label: [(march set, child label), ...]} for every node under root
    that has children, each list in child order."""
    return {
        node.label: [(child.march, child.label) for child in node.children]
        for node in preorder(root)
        if node.children
    }


def record_children(fig: dict) -> dict:
    """A tree figure's edge list in the shape of :func:`tree_children`:
    {parent: [(march set, child), ...]} in record order, None the null leaf."""
    parse = Permutation.parse
    children: dict = {}
    for parent, rows, child in fig["edges"]:
        children.setdefault(parse(parent), []).append((rows, child and parse(child)))
    return children
