import hashlib
import importlib
import itertools
from collections import Counter
import json
import random
import sys

import pytest

from schubert import (
    LeafSummary,
    MarchTree,
    NodeCeilingExceeded,
    Permutation,
    Polynomial,
    build_tree,
    detect,
    diagram,
    grothendieck,
    grothendieck_dd,
    leaf_counts,
    leaf_summary,
    schubert,
    symmetric_group,
    to_dot,
    to_json,
    to_text,
    truncate_grothendieck_via_tree,
    truncation_product,
)
from schubert.cli import run
from schubert.diagram import _window_marches, march_children
from schubert.grothendieck import parse_expansion
from schubert.trees import (
    DEFAULT_NODE_CEILING,
    TreeNode,
    _holds_a_labeled_leaf,
    _tree_dag,
)
from schubert.worked_examples import EXAMPLE_3, FIGURE_1, FIGURE_2

from permutation_helpers import is_vexillary
from tree_helpers import leaf_summary_of, preorder, record_children, tree_children

trees_module = importlib.import_module("schubert.trees")

ID = Permutation.identity()
FIGURE_2_LEAVES = parse_expansion(FIGURE_2["leaves"])
FIGURE_2_COUNTS = {perm: abs(c) for perm, c in FIGURE_2_LEAVES.items()}


def grown_tree(beta: Permutation, t: int, mode: str = "K") -> TreeNode:
    """The root of the marching tree grown node by node through
    ``march_children``, on an explicit stack, with no node shared: the
    oracle of ``build_tree``, ``leaf_summary`` and ``leaf_counts``."""

    def start(label: Permutation | None, march: tuple[int, ...]) -> TreeNode | list:
        """A finished leaf, or the frame [label, march, child specs, built children]."""
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
    return top[3][0]


def to_json_obj(root: TreeNode) -> dict:
    """The tree under root as nested {"label", "march", "children"}
    objects, built node by node: ``json.dumps`` of it is the oracle of
    ``to_json``."""

    def encode(node: TreeNode) -> dict:
        label = None if node.label is None else node.label.text()
        return {"label": label, "march": list(node.march), "children": []}

    top = encode(root)
    stack = [(root, top)]
    while stack:
        node, obj = stack.pop()
        obj["children"] = [encode(child) for child in node.children]
        stack += zip(node.children, obj["children"])
    return top


def dot_and_text(root: TreeNode) -> tuple[str, str]:
    """DOT and text written node by node from the tree under root, each
    node numbered by its position in preorder: the oracle of ``to_dot``
    and ``to_text``."""
    order = []  # (node, depth, number of its parent) in preorder
    stack = [(root, 0, -1)]
    while stack:
        node, depth, parent = stack.pop()
        stack += [(child, depth + 1, len(order)) for child in reversed(node.children)]
        order.append((node, depth, parent))
    children = [[] for _ in order]
    for k, (_, _, parent) in enumerate(order[1:], 1):
        children[parent].append(k)

    def label(node: TreeNode) -> str:
        return "∅" if node.label is None else node.label.text()

    def rows(node: TreeNode) -> str:
        return ",".join(map(str, node.march))

    dot = ["digraph march_tree {"]
    for k, (node, _, _) in enumerate(order):
        dot.append(f'  n{k} [label="{label(node)}"];')
        dot += [f'  n{k} -> n{j} [label="{rows(order[j][0])}"];' for j in children[k]]
    dot.append("}")
    text = [label(root)]
    text += ["  " * depth + f"--{rows(node)}--> {label(node)}" for node, depth, _ in order[1:]]
    return "\n".join(dot), "\n".join(text)


def assert_same_exports(tree: MarchTree, oracle: TreeNode) -> None:
    """tree's root view is the grown tree oracle, and tree exports as the
    node-by-node oracles write it."""
    assert tree.root == oracle
    encoded = json.dumps(to_json_obj(oracle), ensure_ascii=False, indent=2)
    assert (to_json(tree), to_dot(tree), to_text(tree)) == (encoded, *dot_and_text(oracle))


def paths(tree: MarchTree) -> dict[tuple, Permutation | None]:
    """Map march-set addresses to labels."""
    out: dict[tuple, Permutation | None] = {}

    def walk(node: TreeNode, address: tuple) -> None:
        out[address] = node.label
        for child in node.children:
            walk(child, address + (child.march,))

    walk(tree.root, ())
    return out


class TestFigure2:
    def setup_method(self):
        self.tree = build_tree(Permutation.parse(FIGURE_2["perm"]), FIGURE_2["t"], "K")

    def test_shape(self):
        root = self.tree.root
        assert root.label == Permutation.parse(FIGURE_2["perm"])
        # Each node's children, in order, are its label's edges in the record,
        # which names every edge: the four null ones too.
        assert tree_children(root) == record_children(FIGURE_2)

    def test_leaf_summary(self):
        summary = leaf_summary_of(self.tree.root)
        assert summary.counts == FIGURE_2_COUNTS
        assert summary.null_count == FIGURE_2["null_leaves"]
        # No label repeats in Figure 2, so its leaves are the children that are no parent.
        parents = {parent for parent, _, _ in FIGURE_2["edges"]}
        leaves = [child for _, _, child in FIGURE_2["edges"] if child not in parents]
        assert sum(summary.counts.values()) + summary.null_count == len(leaves) == 7

    def test_signed_expansion(self):
        summary = leaf_summary_of(self.tree.root)
        assert summary.root.length() == FIGURE_2["length"]
        assert summary.signed() == FIGURE_2_LEAVES


class TestFigure1:
    def setup_method(self):
        self.tree = build_tree(Permutation.parse(FIGURE_1["perm"]), FIGURE_1["t"], "K")

    def test_shape_and_leaves(self):
        nodes = list(preorder(self.tree.root))
        labeled = [n for n in nodes if n.label is not None]
        assert len(labeled) == FIGURE_1["labeled"]
        assert all(n.label is not None for n in nodes)
        summary = leaf_summary_of(self.tree.root)
        assert summary.null_count == FIGURE_1["null_leaves"]
        # Figure 1's leaves are Example 3's nine permutations, each once.
        assert summary.counts == {perm: 1 for perm in parse_expansion(FIGURE_1["leaves"])}

    def test_example_3_signs(self):
        expansion = leaf_summary_of(self.tree.root).signed()
        assert sorted(expansion.values()) == sorted(EXAMPLE_3["expansions"]["K"].values())

    def test_complete_edge_structure(self):
        edges = {
            (node.label, child.march, child.label)
            for node in preorder(self.tree.root)
            for child in node.children
        }
        assert edges == {
            (Permutation.parse(a), march, Permutation.parse(b))
            for a, march, b in FIGURE_1["edges"]
        }


class TestBasics:
    def test_identity_is_a_single_node(self):
        tree = build_tree(ID, 3, "K")
        assert tree.root.children == () and tree.root.label == ID
        summary = leaf_summary_of(tree.root)
        assert summary.counts == {ID: 1} and summary.null_count == 0
        assert summary.root.length() == 0 and summary.signed() == {ID: 1}

    def test_leaf_descent_split(self):
        for beta in symmetric_group(4):
            for t in (1, 2, 3):
                for node in preorder(build_tree(beta, t, "K").root):
                    if node.label is None:
                        assert not node.children
                    elif not node.children:
                        assert (node.label.last_descent() or 0) <= t
                    else:
                        assert node.label.last_descent() > t

    def test_cohomology_children_are_single_marches(self):
        tree = build_tree(Permutation.parse("321465"), 2, "cohomology")
        for node in preorder(tree.root):
            for child in node.children:
                assert len(child.march) <= 1

    def test_node_ceiling(self):
        with pytest.raises(NodeCeilingExceeded):
            build_tree(Permutation.parse("34127658"), 4, "K", node_ceiling=5)

    def test_mode_and_level_validation(self):
        assert_rejects_bad_level_and_mode(build_tree)



def assert_rejects_bad_level_and_mode(walk):
    """walk rejects a bad level or mode before its node ceiling."""
    for ceiling in (DEFAULT_NODE_CEILING, 0):
        with pytest.raises(ValueError, match="truncation level must be positive"):
            walk(ID, 0, "K", ceiling)
        with pytest.raises(ValueError, match="unknown mode 'quantum'"):
            walk(ID, 1, "quantum", ceiling)


class TestPruning:
    def test_larger_level_tree_embeds_in_smaller(self):
        # Raising t prunes the tree: every vertex of the level-s tree
        # appears at the same march address, with the same label, in the
        # level-t tree for t <= s.
        for beta in symmetric_group(4):
            for t, s in itertools.combinations_with_replacement((1, 2, 3), 2):
                small = paths(build_tree(beta, s, "K"))
                big = paths(build_tree(beta, t, "K"))
                for address, label in small.items():
                    assert address in big
                    assert big[address] == label


class TestSingleLeafFamilies:
    def test_vexillary_bound_on_s5(self):
        for beta in symmetric_group(5):
            if not is_vexillary(beta):
                continue
            for s in (1, 2, 3, 4):
                summary = leaf_summary_of(build_tree(beta, s, "K").root)
                assert sum(summary.counts.values()) <= 1

    def test_grassmannian_stabilization_on_s4(self):
        for pi in symmetric_group(4):
            s = pi.grassmannian_descent()
            if s is None:
                continue
            for n in range(5):
                summary = leaf_summary_of(build_tree(pi.stabilize(n), s, "K").root)
                assert summary.counts == {pi: 1}

    # The single-leaf condition is checked by detect; these two keep its
    # alpha-side checks beside the other single-leaf families.
    def test_unique_labeled_leaf_rejects_oversized_window(self):
        # The window check comes before the walk, which a ceiling of 0 would stop.
        with pytest.raises(ValueError, match="^both windows must fit in S_3$"):
            detect(ID, Permutation.parse("2143"), 3, 2, node_ceiling=0)

    def test_unique_labeled_leaf_none_when_multiple(self):
        # 2143 is the minimal non-vexillary window; its stabilized K tree
        # has three labeled leaves at level 2.
        alpha = Permutation.parse("2143")
        assert sum(leaf_counts(alpha.stabilize(4), 2, "K").counts.values()) == 3
        assert detect(ID, alpha, 4, 2) is None


class TestSerialization:
    def test_deterministic_across_builds(self):
        a = build_tree(Permutation.parse("321465"), 2, "K")
        b = build_tree(Permutation.parse("321465"), 2, "K")
        assert to_dot(a) == to_dot(b)
        assert to_json(a) == to_json(b)
        assert to_text(a) == to_text(b)

    def test_dot_snapshot(self):
        tree = build_tree(Permutation.parse("321546"), 2, "K", node_ceiling=100)
        dot = to_dot(tree)
        assert dot.startswith("digraph march_tree {")
        assert 'n0 [label="32154"];' in dot
        assert 'n0 -> n1 [label="1"];' in dot
        assert dot.count("∅") == 4

    def test_json_shape(self):
        import json

        tree = build_tree(Permutation.parse("132"), 1, "K")
        obj = json.loads(to_json(tree))
        assert obj["label"] == "132"
        assert obj["march"] == []
        assert obj["children"][0]["label"] == "21"
        assert obj["children"][0]["march"] == [1]

    def test_text_snapshot(self):
        tree = build_tree(Permutation.parse("132"), 1, "K")
        assert to_text(tree) == "132\n  --1--> 21"

    def test_full_dot_snapshot(self):
        tree = build_tree(Permutation.parse("132"), 1, "K")
        assert to_dot(tree) == (
            "digraph march_tree {\n"
            '  n0 [label="132"];\n'
            '  n0 -> n1 [label="1"];\n'
            '  n1 [label="21"];\n'
            "}"
        )

    def test_dot_numbers_a_shared_node_at_each_occurrence(self):
        # 321 sits under both 2413 and 3142, and the null leaf under three labels.
        root = Permutation.parse("214365")
        tree = build_tree(root, 1, "cohomology")
        assert to_dot(tree) == (
            "digraph march_tree {\n"
            '  n0 [label="214365"];\n'
            '  n0 -> n1 [label="3"];\n'
            '  n0 -> n6 [label="4"];\n'
            '  n1 [label="21534"];\n'
            '  n1 -> n2 [label="1"];\n'
            '  n1 -> n3 [label="2"];\n'
            '  n2 [label="4123"];\n'
            '  n3 [label="2413"];\n'
            '  n3 -> n4 [label="1"];\n'
            '  n4 [label="321"];\n'
            '  n4 -> n5 [label=""];\n'
            '  n5 [label="∅"];\n'
            '  n6 [label="21453"];\n'
            '  n6 -> n7 [label="1"];\n'
            '  n6 -> n10 [label="2"];\n'
            '  n7 [label="3142"];\n'
            '  n7 -> n8 [label="2"];\n'
            '  n8 [label="321"];\n'
            '  n8 -> n9 [label=""];\n'
            '  n9 [label="∅"];\n'
            '  n10 [label="2341"];\n'
            '  n10 -> n11 [label=""];\n'
            '  n11 [label="∅"];\n'
            "}"
        )
        under_2413 = tree.root.children[0].children[1].children[0]
        under_3142 = tree.root.children[1].children[0].children[0]
        assert under_2413.label == under_3142.label == Permutation.parse("321")
        assert under_2413.children is under_3142.children  # one tuple per distinct label
        assert_same_exports(tree, grown_tree(root, 1, "cohomology"))

    def test_null_leaf_serialization(self):
        tree = build_tree(Permutation.parse("231"), 1, "K")
        assert to_text(tree) == "231\n  ----> ∅"
        assert '[label="∅"]' in to_dot(tree)
        import json

        obj = json.loads(to_json(tree))
        assert obj["children"][0]["label"] is None
        assert obj["children"][0]["march"] == []


class TestUnfolding:
    """build_tree unfolds the marching DAG into the tree's vertex lists;
    the node-by-node growth is its oracle."""

    @pytest.mark.parametrize("mode", ["K", "cohomology"])
    def test_matches_the_grown_tree_on_every_s4_star_root(self, mode):
        rng = random.Random(2012)
        s4 = list(symmetric_group(4))
        for sigma, alpha in itertools.product(s4, s4):
            root = sigma.star(alpha, 4)
            for t in rng.sample(range(max(1, sigma.last_descent() or 0), 9), 2):
                assert_same_exports(build_tree(root, t, mode), grown_tree(root, t, mode))

    @pytest.mark.parametrize("mode", ["K", "cohomology"])
    def test_matches_the_grown_tree_on_sampled_s5_star_roots(self, mode):
        # At the smallest level, where the trees are largest (up to 21,555 nodes).
        for root, t in sampled_s5_star_roots(2013, 50):
            assert_same_exports(build_tree(root, t, mode), grown_tree(root, t, mode))

    def test_children_are_shared_per_label(self):
        tree = build_tree(Permutation.parse("43218765"), 3, "K")
        nodes = list(preorder(tree.root))
        labels = {node.label for node in nodes if node.label is not None}
        assert (len(nodes), len(labels)) == (1899, 608)
        shared = {id(node.children) for node in nodes if node.children}
        assert len(shared) <= len(labels)

    def test_exports_build_no_tree_node_and_root_builds_them_once(self, monkeypatch):
        built = []
        new = TreeNode.__new__

        def counting_new(cls, *args):
            node = new(cls, *args)
            built.append(node)
            return node

        monkeypatch.setattr(TreeNode, "__new__", counting_new)
        root = Permutation.parse("43218765")
        with pytest.raises(NodeCeilingExceeded, match="more than 1898 nodes"):
            build_tree(root, 3, "K", node_ceiling=1898)
        tree = build_tree(root, 3, "K", node_ceiling=1899)
        exports = to_json(tree), to_dot(tree), to_text(tree)
        summary = leaf_summary(tree)
        assert built == []
        assert list(summary.counts.items()) == list(leaf_counts(root, 3, "K").counts.items())
        assert tree.root is tree.root
        count = len(built)
        assert 0 < count < 1899  # one node per distinct edge, not per vertex
        assert sum(1 for _ in preorder(tree.root)) == 1899
        assert summary_pair(leaf_summary_of(tree.root)) == summary_pair(summary)
        assert (to_json(tree), to_dot(tree), to_text(tree)) == exports
        assert len(built) == count

    def test_ceiling_counts_every_unfolded_node(self):
        root = Permutation.parse("43218765")
        with pytest.raises(NodeCeilingExceeded, match="more than 1898 nodes"):
            build_tree(root, 3, "K", node_ceiling=1898)
        # MarchTree.nodes() walks the root view in preorder.
        assert sum(1 for _ in build_tree(root, 3, "K", node_ceiling=1899).nodes()) == 1899

    def test_cli_stops_at_the_ceiling_before_writing(self, capsys):
        argv = ["tree", "43218765", "--t", "3", "--node-ceiling"]
        assert run(argv + ["1898"]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "more than 1898 nodes" in err
        assert run(argv + ["1899"]) == 0
        assert capsys.readouterr().out.count("\n") == 1899


def summary_pair(summary):
    return summary.counts, summary.null_count


def grown_summary(root, t, mode):
    """The grown tree's leaf summary, its labeled leaves in the key order of
    ``leaf_counts`` and ``leaf_summary``: the walk lists each leaf label at
    its first appearance in preorder, and the path count reads the listed
    vertices from the last."""
    summary = leaf_summary_of(grown_tree(root, t, mode))
    return summary._replace(counts=dict(reversed(summary.counts.items())))


def live_labels(tree):
    """The labels of a built tree with a labeled leaf below, read off its lists."""
    below = [False]  # the null leaf
    for edges in tree.out[1:]:
        below.append(not edges or any(below[c] for _, c in edges))
    return {label for label, live in zip(tree.labels, below) if live}


def star_roots_and_levels(n, pairs):
    """(sigma *_n alpha, t) at every admissible level t of each pair."""
    for sigma, alpha in pairs:
        for t in range(max(1, sigma.last_descent() or 0), 2 * n + 1):
            yield sigma.star(alpha, n), t


def sampled_s5_star_roots(seed, count):
    """(sigma *_5 alpha, t) at the smallest level of each of count seeded pairs."""
    rng = random.Random(seed)
    s5 = list(symmetric_group(5))
    for sigma, alpha in [(rng.choice(s5), rng.choice(s5)) for _ in range(count)]:
        yield sigma.star(alpha, 5), max(1, sigma.last_descent() or 0)


def refuse_to_march(*args):
    raise AssertionError("marched while summarizing a built tree")


def check_leaf_readers(root, t, mode, monkeypatch):
    """leaf_summary of the built tree is the grown tree's summary, null
    leaves and key order included, and marches nothing; leaf_counts has
    the same labeled leaves in the same order and no null count."""
    expected = grown_summary(root, t, mode)
    tree = build_tree(root, t, mode)
    with monkeypatch.context() as patch:
        patch.setattr(trees_module, "_window_marches", refuse_to_march)
        patch.setattr(trees_module, "march_children", refuse_to_march)
        summary = leaf_summary(tree)
    assert summary == expected, (root, t)
    assert list(summary.counts.items()) == list(expected.counts.items()), (root, t)
    counted = leaf_counts(root, t, mode)
    assert (counted.null_count, counted.root) == (None, root), (root, t)
    assert list(counted.counts.items()) == list(expected.counts.items()), (root, t)


class TestLeafCounts:
    """leaf_counts walks the live labels of the marching DAG, and
    leaf_summary counts a built tree; the grown tree is their oracle."""

    @pytest.mark.parametrize("mode", ["K", "cohomology"])
    def test_matches_the_tree_on_every_s4_star_root(self, mode, monkeypatch):
        s4 = list(symmetric_group(4))
        for root, t in star_roots_and_levels(4, itertools.product(s4, s4)):
            check_leaf_readers(root, t, mode, monkeypatch)

    @pytest.mark.parametrize("mode", ["K", "cohomology"])
    def test_matches_the_tree_on_sampled_s5_pairs(self, mode, monkeypatch):
        for root, t in sampled_s5_star_roots(20050, 25):
            check_leaf_readers(root, t, mode, monkeypatch)

    def test_figure_2_and_a_leaf_root(self):
        root = Permutation.parse(FIGURE_2["perm"])
        summary = leaf_counts(root, FIGURE_2["t"], "K")
        assert summary_pair(summary) == (FIGURE_2_COUNTS, None)
        built = leaf_summary(build_tree(root, FIGURE_2["t"], "K"))
        assert summary_pair(built) == (FIGURE_2_COUNTS, FIGURE_2["null_leaves"])
        assert leaf_counts(ID, 3, "K") == ({ID: 1}, None, ID)
        assert leaf_summary(build_tree(ID, 3, "K")) == ({ID: 1}, 0, ID)
        # The summary keeps its root and signs every leaf by that root's length.
        assert LeafSummary._fields == ("counts", "null_count", "root")
        assert summary.root is root and root.length() == FIGURE_2["length"]
        assert built.root == root
        assert summary.signed() == built.signed() == FIGURE_2_LEAVES
        sign = (-1) ** (root.length() - 1)  # 21 has length 1
        resigned = summary._replace(root=Permutation.parse("21")).signed()
        assert resigned == {perm: sign * c for perm, c in FIGURE_2_LEAVES.items()}

    def test_ceiling_counts_distinct_labels_not_nodes(self):
        root = Permutation.parse("43218765")
        tree = build_tree(root, 3, "K")
        nodes = list(preorder(tree.root))
        labels = {node.label for node in nodes if node.label is not None}
        live = live_labels(tree)
        assert (len(nodes), len(labels), len(live)) == (1899, 608, 30)
        assert live == {label for label in labels if _holds_a_labeled_leaf(label.window, 3)}
        counted = leaf_counts(root, 3, "K", node_ceiling=len(live))
        assert counted.counts == leaf_summary_of(tree.root).counts
        with pytest.raises(NodeCeilingExceeded):
            build_tree(root, 3, "K", node_ceiling=len(labels))
        with pytest.raises(NodeCeilingExceeded):
            leaf_counts(root, 3, "K", node_ceiling=len(live) - 1)

    @pytest.mark.parametrize("mode", ["K", "cohomology"])
    def test_ceiling_boundary_is_the_distinct_label_count(self, mode):
        # The boundary is the live labels alone: 30 of 608 distinct labels in
        # K and 15 of 88 in cohomology.
        root = Permutation.parse("43218765")
        tree = build_tree(root, 3, mode)
        labels = len({node.label for node in preorder(tree.root) if node.label is not None})
        live = len(live_labels(tree))
        assert (live, labels) == {"K": (30, 608), "cohomology": (15, 88)}[mode]
        counted = leaf_counts(root, 3, mode, node_ceiling=live)
        assert counted.counts == leaf_summary_of(tree.root).counts
        with pytest.raises(NodeCeilingExceeded, match=f"^more than {live - 1} distinct labels$"):
            leaf_counts(root, 3, mode, node_ceiling=live - 1)

    @pytest.mark.parametrize("mode", ["K", "cohomology"])
    def test_identity_and_pivotless_roots(self, mode):
        assert summary_pair(leaf_counts(ID, 1, mode)) == ({ID: 1}, None)
        assert summary_pair(leaf_counts(ID, 1, mode, node_ceiling=1)) == ({ID: 1}, None)
        with pytest.raises(NodeCeilingExceeded, match="more than 0 distinct labels"):
            leaf_counts(ID, 1, mode, node_ceiling=0)
        pivotless = Permutation.parse("321")  # last descent 2, corner (2, 1), no pivots
        assert summary_pair(leaf_counts(pivotless, 1, mode)) == ({}, None)
        tree = build_tree(pivotless, 1, mode)
        assert summary_pair(leaf_summary(tree)) == ({}, 1)
        assert tree.root.children == (TreeNode(None, (), ()),)
        assert to_text(tree) == "321\n  ----> ∅"

    def test_mode_and_level_validation(self):
        assert_rejects_bad_level_and_mode(leaf_counts)


def tree_edges(window, mode, t):
    """A label's edges in the tree walk, from the kernel: none for a leaf,
    ((), None) alone with no pivots, else (rows, child window) in tree order."""
    marches = _window_marches(window, mode, t)
    return [] if marches is None else list(marches[2].items()) or [((), None)]


def check_tree_walk(root, t, mode, monkeypatch):
    """The tree walk from root, counting the labels the kernel marches."""
    marched = []

    def kernel(window, mode, t):
        marched.append(window)
        return _window_marches(window, mode, t)

    with monkeypatch.context() as patch:
        patch.setattr(trees_module, "_window_marches", kernel)
        out, windows = _tree_dag(root, t, mode, DEFAULT_NODE_CEILING, prune=False)
    reachable, frontier = {root.window}, [root.window]
    while frontier:
        for _, child in tree_edges(frontier.pop(), mode, t):
            if child is not None and child not in reachable:
                reachable.add(child)
                frontier.append(child)
    # Vertex 0 is the null leaf; every reachable label is listed once after it, the root last.
    assert (out[0], windows[0], windows[-1]) == ([], None, root.window)
    assert len(out) == len(windows)
    assert len(windows) - 1 == len(reachable) and set(windows[1:]) == reachable
    # The root marches through march_children; every other label through the kernel, once.
    assert sorted(marched) == sorted(reachable - {root.window})
    for v, edges in enumerate(out[1:], 1):
        assert [(rows, windows[c]) for rows, c in edges] == tree_edges(windows[v], mode, t)
        assert all(c < v for _, c in edges)
    labels = len(windows) - 1
    assert _tree_dag(root, t, mode, labels, prune=False) == (out, windows)
    with pytest.raises(NodeCeilingExceeded, match=f"^more than {labels - 1} nodes$"):
        _tree_dag(root, t, mode, labels - 1, prune=False)


class TestTreeWalk:
    """The explicit-stack walk that lists a tree's marching DAG."""

    def test_every_s4_star_root_at_the_smallest_level(self, monkeypatch):
        s4 = list(symmetric_group(4))
        for sigma, alpha in itertools.product(s4, s4):
            t = max(1, sigma.last_descent() or 0)
            for mode in ("K", "cohomology"):
                check_tree_walk(sigma.star(alpha, 4), t, mode, monkeypatch)


def record_marches(monkeypatch):
    """The (window, level) of every label the kernel marches in the tree walk."""
    marched = []

    def kernel(window, mode, t):
        marched.append((window, t))
        return _window_marches(window, mode, t)

    monkeypatch.setattr(trees_module, "_window_marches", kernel)
    return marched


class TestLabeledLeafPruning:
    """The pruned walk of leaf_counts, which detect, truncation_product and
    truncate_grothendieck_via_tree read: a label is marched only when the
    columns of its diagram say that its subtree holds a labeled leaf."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_the_column_test_is_a_nonzero_truncation(self, n):
        zero = Polynomial.zero()
        for w in symmetric_group(n):
            columns = Counter(box.col for box in diagram(w))
            for t in range(n + 1):
                holds = _holds_a_labeled_leaf(w.window, t)
                assert holds == (max(columns.values(), default=0) <= t), (w, t)
                assert holds == (grothendieck(w).truncate(t) != zero), (w, t)
                assert holds == (schubert(w).truncate(t) != zero), (w, t)

    @pytest.mark.parametrize("mode", ["K", "cohomology"])
    def test_the_column_test_is_a_labeled_leaf_below_on_every_s4_star_root(self, mode):
        s4 = list(symmetric_group(4))
        roots = {sigma.star(alpha, 4) for sigma, alpha in itertools.product(s4, s4)}
        for root in roots:
            for t in range(1, 9):
                tree = build_tree(root, t, mode)
                live = live_labels(tree)
                for label in tree.labels[1:]:
                    holds = _holds_a_labeled_leaf(label.window, t)
                    assert holds == (label in live), (root, t, label)

    @pytest.mark.parametrize("mode", ["K", "cohomology"])
    def test_pruned_counts_are_the_leaf_counts_in_their_order(self, mode):
        s4 = list(symmetric_group(4))
        cases = list(star_roots_and_levels(4, itertools.product(s4, s4)))
        rng = random.Random(20043)
        s5 = list(symmetric_group(5))
        for sigma, alpha in [(rng.choice(s5), rng.choice(s5)) for _ in range(150)]:
            t = max(1, sigma.last_descent() or 0)
            cases += [(sigma.star(alpha, 5), t), (sigma.star(alpha, 5), rng.randint(t, 10))]
        for root, t in cases:
            counts = leaf_summary(build_tree(root, t, mode)).counts
            pruned = leaf_counts(root, t, mode)
            assert (pruned.null_count, pruned.root) == (None, root)
            assert list(pruned.counts.items()) == list(counts.items()), (root, t)

    def test_truncation_product_marches_no_dead_label(self, monkeypatch):
        s4 = list(symmetric_group(4))
        marched = record_marches(monkeypatch)
        problems = []
        for sigma, alpha in itertools.product(s4, s4):
            problem = detect(sigma, alpha, 4, max(1, sigma.last_descent() or 0))
            problems += [problem] if problem else []
        assert marched and all(_holds_a_labeled_leaf(window, t) for window, t in marched)
        marched.clear()
        for problem in problems:
            for mode in ("K", "cohomology"):
                truncation_product(problem, mode)
        assert marched and all(_holds_a_labeled_leaf(window, t) for window, t in marched)
        marched.clear()
        for gamma in symmetric_group(5):
            for t in range(1, 5):
                truncate_grothendieck_via_tree(gamma, t)
        assert marched and all(_holds_a_labeled_leaf(window, t) for window, t in marched)
        # build_tree's full walk over the same star roots marches dead labels.
        marched.clear()
        for problem in problems:
            build_tree(problem.star_root(), problem.t, "K")
        assert not all(_holds_a_labeled_leaf(window, t) for window, t in marched)

    def test_the_largest_benchmark_problem_marches_a_fifteenth_of_its_labels(self):
        sigma, alpha = Permutation.parse("54321"), Permutation.parse("54132")
        problem = detect(sigma, alpha, 5, 4)
        root = problem.star_root()
        out, _ = _tree_dag(root, 4, "K", DEFAULT_NODE_CEILING, prune=True)
        full, _ = _tree_dag(root, 4, "K", DEFAULT_NODE_CEILING, prune=False)
        assert (len(out) - 1, len(full) - 1) == (284, 4298)
        assert truncation_product(problem, "K") == leaf_summary(build_tree(root, 4, "K")).signed()


DEEP_ROOT = Permutation.parse("6,5,4,3,1,2,12,11,10,9,8,7")  # depth 17 at t=2 in cohomology


def frame_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestNoRecursion:
    def test_a_deep_tree_walks_and_exports_under_a_low_recursion_limit(self):
        tree = build_tree(DEEP_ROOT, 2, "cohomology")
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(frame_depth() + 20)
        try:
            text, dot, encoded = to_text(tree), to_dot(tree), to_json(tree)
            count = sum(1 for _ in tree.nodes())  # builds the root view
        finally:
            sys.setrecursionlimit(limit)
        assert count == 10184
        lines = text.splitlines()
        assert len(lines) == 10184
        assert max(len(line) - len(line.lstrip(" ")) for line in lines) == 2 * 17
        assert dot.count(" -> ") == 10183
        # json.dumps itself recurses, so it runs at the default limit.
        assert encoded == json.dumps(to_json_obj(tree.root), ensure_ascii=False, indent=2)

    def test_build_tree_is_not_bounded_by_the_recursion_limit(self):
        # Depth 17: a recursive grow needs more frames than the limit leaves.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(frame_depth() + 20)
        try:
            tree = build_tree(DEEP_ROOT, 2, "cohomology")
            summary = leaf_summary(tree)
            counted = leaf_counts(DEEP_ROOT, 2, "cohomology")
        finally:
            sys.setrecursionlimit(limit)
        assert tree.sizes[-1] == 10184
        assert summary_pair(leaf_summary_of(tree.root)) == summary_pair(summary)
        assert counted.counts == summary.counts

    def test_grothendieck_is_not_bounded_by_the_recursion_limit(self):
        # The transition formula reaches w0 of S_40 through 780 lengths,
        # and the divided differences reach the identity of S_8 from the
        # staircase through 28 steps.
        longest = Permutation(tuple(range(40, 0, -1)))
        grothendieck.cache_clear()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(frame_depth() + 20)
        try:
            g = grothendieck(longest)
            one = grothendieck_dd(Permutation.identity(), 8)
        finally:
            sys.setrecursionlimit(limit)
        assert g == Polynomial.monomial(range(39, 0, -1))
        assert one == 1


class TestJsonExport:
    @pytest.mark.parametrize(
        "text, t, mode",
        [
            ("321465", 2, "K"),  # null leaves and three-row marches
            ("321465", 2, "cohomology"),
            ("231", 1, "K"),  # a root whose only child is the null leaf
            ("132", 1, "K"),
            ("1", 1, "K"),  # a single node
            ("34127658", 4, "K"),
            ("3,2,1,11,10,9,8,7,6,5,4", 3, "K"),  # windows above 9, with null leaves
            ("5,4,3,1,2,10,9,8,7,6", 3, "cohomology"),
        ],
    )
    def test_to_json_is_json_dumps_of_the_object(self, text, t, mode):
        tree = build_tree(Permutation.parse(text), t, mode)
        assert to_json(tree) == json.dumps(to_json_obj(tree.root), ensure_ascii=False, indent=2)

    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("json", "78c35c423a96fe6b410e5197690bcc7997ac8bdf5c6008bac6da0abd61a19e79"),
            ("dot", "aa7dc1582947f7e6d88a6dd66771811272f1196a32cd12117fd1d2c9a1c47c2d"),
            ("text", "21172848f134bebf4f2d76feeb7dac4baaff0b835a828ff67b676d4fcb1dadab"),
        ],
    )
    def test_cli_export_digests(self, capsys, fmt, digest):
        assert run(["tree", "321465", "--t", "2", "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # Outputs that pass through dicts and sets of permutations, pinned so
    # that a change of Permutation.__hash__ or of the polynomial kernel
    # cannot reorder them unseen.
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["multiply", "326541", "7312654"],
                "9a6c5cf868298bce0b84ac1ef7164f68ac18884a24cb4ebd60b69fa7386fd2f1",
            ),
            (
                ["multiply", "326541", "7312654", "--cohomology"],
                "cdff6eb25c88edc957a75331f3090d83cbf8a3c8eb93ae23b1a754489539c8bc",
            ),
            (
                ["product", "41352", "4321", "--n", "5", "--t", "7"],
                "33254f8a7633f8ba1412ad0869ae534a87fa92127cd49e2546582cadedbffd64",
            ),
            (
                ["product", "41352", "4321", "--n", "5", "--t", "7", "--cohomology"],
                "311cf8138a09027ca981a75f134db2ba9d732b76eaa48a68aaf308af029ee642",
            ),
            (
                ["groth", "1,11,10,9,8,7,6,5,4,3,2"],
                "7660cc71acbbf0aeda512ebad9684760ea9b3bc7c8abdd4569bde3c49d91e2cc",
            ),
        ],
        ids=["multiply", "multiply-cohomology", "product-K", "product-cohomology", "groth-window-11"],
    )
    def test_cli_output_digests(self, capsys, argv, digest):
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_benchmark_export_tree_digests(self):
        # The two 20k-node K trees that the benchmark's march-s5 workload
        # exports, at t = 4, pinned byte for byte as `schubert tree` prints
        # them (with print's trailing newline).
        digests = {
            "5,4,2,1,3,10,9,8,7,6": (
                "a98f4a0dbf2e1774357ecf45f09c373c132317fe91cd6a3263b7486e8eccf25f",
                "2c5e6afbfc382085bfff957c0ff5d73b46d3510ea437f22e8381794f57640632",
                "555ccb96c04aacd81623a312d2c91c73b34686dca6a198ccfb8373cca08a611e",
            ),
            "5,4,3,2,1,10,8,9,7,6": (
                "108c028dc4f258b862d74f553d213df819ae77f922a5493b0a2b638538a107f0",
                "694f1f40c6b3522f6fa29a757430b772250b039de1a806cc0caab1306d872859",
                "c890dd80f64fe6e25d0977c0ee8d35bf341fd79268c6c93a4da5178555d694a6",
            ),
        }
        for root, expected in digests.items():
            tree = build_tree(Permutation.parse(root), 4, "K")
            exports = (to_json(tree), to_dot(tree), to_text(tree))
            got = tuple(hashlib.sha256((e + "\n").encode()).hexdigest() for e in exports)
            assert got == expected, root
