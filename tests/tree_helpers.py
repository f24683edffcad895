"""Test-side walks of a marching tree's ``TreeNode`` root view."""
from collections import Counter
from typing import Iterator

from schubert import LeafSummary
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
