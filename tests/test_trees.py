import hashlib
import itertools
import json
import random
import sys

import pytest

from schubert import (
    MarchTree,
    NodeCeilingExceeded,
    Permutation,
    Polynomial,
    TreeNode,
    build_tree,
    grothendieck,
    grothendieck_dd,
    leaf_counts,
    leaf_summary,
    symmetric_group,
    to_dot,
    to_json,
    to_text,
    unique_labeled_leaf,
)
from schubert.cli import run
from schubert.trees import to_json_obj

ID = Permutation.identity()


def parse_map(pairs: dict[str, int]) -> dict[Permutation, int]:
    return {Permutation.parse(text): value for text, value in pairs.items()}


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
        self.tree = build_tree(Permutation.parse("321465"), 2, "K")

    def test_shape(self):
        root = self.tree.root
        assert root.label == Permutation.parse("321465")
        assert [c.march for c in root.children] == [(4,)]
        child = root.children[0]
        assert child.label == Permutation.parse("321546")
        assert [c.march for c in child.children] == [
            (1,),
            (2,),
            (3,),
            (1, 2),
            (1, 3),
            (2, 3),
            (1, 2, 3),
        ]
        targets = {c.march: c.label for c in child.children}
        assert targets == {
            (1,): Permutation.parse("421356"),
            (2,): Permutation.parse("341256"),
            (3,): Permutation.parse("324156"),
            (1, 2): Permutation.parse("431256"),
            (1, 3): Permutation.parse("423156"),
            (2, 3): Permutation.parse("342156"),
            (1, 2, 3): Permutation.parse("432156"),
        }

    def test_leaf_summary(self):
        summary = leaf_summary(self.tree)
        assert summary.counts == parse_map({"421356": 1, "341256": 1, "431256": 1})
        assert summary.null_count == 4
        assert summary.total() == 7

    def test_signed_expansion(self):
        assert leaf_summary(self.tree).signed(4) == parse_map(
            {"421356": 1, "341256": 1, "431256": -1}
        )


class TestFigure1:
    def test_shape_and_leaves(self):
        tree = build_tree(Permutation.parse("34127658"), 4, "K")
        labeled = [n for n in tree.nodes() if n.label is not None]
        assert len(labeled) == 18
        assert all(n.label is not None for n in tree.nodes())
        summary = leaf_summary(tree)
        assert summary.null_count == 0
        assert summary.counts == parse_map(
            {
                "46123578": 1,
                "36142578": 1,
                "35162478": 1,
                "34261578": 1,
                "46132578": 1,
                "36152478": 1,
                "36241578": 1,
                "35261478": 1,
                "36251478": 1,
            }
        )

    def test_example_3_signs(self):
        tree = build_tree(Permutation.parse("34127658"), 4, "K")
        expansion = leaf_summary(tree).signed(7)
        assert sorted(expansion.values()) == [-1, -1, -1, -1, 1, 1, 1, 1, 1]

    def test_complete_edge_structure(self):
        tree = build_tree(Permutation.parse("34127658"), 4, "K")
        edges = set()

        def walk(node):
            for child in node.children:
                edges.add((node.label, child.march, child.label))
                walk(child)

        walk(tree.root)
        expected = {
            ("34127658", (2,), "35127468"),
            ("34127658", (4,), "34157268"),
            ("34127658", (2, 4), "35147268"),
            ("35127468", (2,), "36125478"),
            ("35127468", (4,), "35162478"),
            ("35127468", (2, 4), "36152478"),
            ("34157268", (4,), "34165278"),
            ("35147268", (2,), "36145278"),
            ("35147268", (4,), "35164278"),
            ("35147268", (2, 4), "36154278"),
            ("36125478", (1,), "46123578"),
            ("36125478", (4,), "36142578"),
            ("36125478", (1, 4), "46132578"),
            ("34165278", (3,), "34261578"),
            ("36145278", (3,), "36241578"),
            ("35164278", (3,), "35261478"),
            ("36154278", (3,), "36251478"),
        }
        assert edges == {
            (Permutation.parse(a), march, Permutation.parse(b))
            for a, march, b in expected
        }


class TestBasics:
    def test_identity_is_a_single_node(self):
        tree = build_tree(ID, 3, "K")
        assert tree.root.is_leaf() and tree.root.label == ID
        summary = leaf_summary(tree)
        assert summary.counts == {ID: 1} and summary.null_count == 0
        assert summary.signed(0) == {ID: 1}

    def test_leaf_descent_split(self):
        for beta in symmetric_group(4):
            for t in (1, 2, 3):
                for node in build_tree(beta, t, "K").nodes():
                    if node.label is None:
                        assert node.is_leaf()
                    elif node.is_leaf():
                        assert (node.label.last_descent() or 0) <= t
                    else:
                        assert node.label.last_descent() > t

    def test_cohomology_children_are_single_marches(self):
        tree = build_tree(Permutation.parse("321465"), 2, "cohomology")
        for node in tree.nodes():
            for child in node.children:
                assert len(child.march) <= 1

    def test_node_ceiling(self):
        with pytest.raises(NodeCeilingExceeded):
            build_tree(Permutation.parse("34127658"), 4, "K", node_ceiling=5)

    def test_mode_and_level_validation(self):
        with pytest.raises(ValueError):
            build_tree(ID, 0, "K")
        with pytest.raises(ValueError):
            build_tree(ID, 1, "quantum")


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
            if not beta.is_vexillary():
                continue
            for s in (1, 2, 3, 4):
                summary = leaf_summary(build_tree(beta, s, "K"))
                assert sum(summary.counts.values()) <= 1

    def test_grassmannian_stabilization_on_s4(self):
        for pi in symmetric_group(4):
            s = pi.grassmannian_descent()
            if s is None:
                continue
            for n in range(5):
                summary = leaf_summary(build_tree(pi.stabilize(n), s, "K"))
                assert summary.counts == {pi: 1}

    def test_unique_labeled_leaf_examples(self):
        assert unique_labeled_leaf(Permutation.parse("3214"), 4, 4) == Permutation.parse(
            "12463578"
        )
        assert unique_labeled_leaf(ID, 2, 3) == ID
        assert unique_labeled_leaf(Permutation.parse("132"), 2, 3) == Permutation.parse("132")

    def test_unique_labeled_leaf_rejects_oversized_window(self):
        with pytest.raises(ValueError):
            unique_labeled_leaf(Permutation.parse("2143"), 2, 3)

    def test_unique_labeled_leaf_none_when_multiple(self):
        # 2143 is the minimal non-vexillary window; its stabilized K tree
        # has three labeled leaves at level 2.
        assert unique_labeled_leaf(Permutation.parse("2143"), 2, 4) is None


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

    def test_null_leaf_serialization(self):
        tree = build_tree(Permutation.parse("231"), 1, "K")
        assert to_text(tree) == "231\n  ----> ∅"
        assert '[label="∅"]' in to_dot(tree)
        import json

        obj = json.loads(to_json(tree))
        assert obj["children"][0]["label"] is None
        assert obj["children"][0]["march"] == []


def summary_pair(summary):
    return summary.counts, summary.null_count


def star_roots_and_levels(n, pairs):
    """(sigma *_n alpha, t) at every admissible level t of each pair."""
    for sigma, alpha in pairs:
        for t in range(max(1, sigma.last_descent() or 0), 2 * n + 1):
            yield sigma.star(alpha, n), t


class TestLeafCounts:
    """leaf_counts walks the marching DAG; the built tree is its oracle."""

    @pytest.mark.parametrize("mode", ["K", "cohomology"])
    def test_matches_the_tree_on_every_s4_star_root(self, mode):
        s4 = list(symmetric_group(4))
        for root, t in star_roots_and_levels(4, itertools.product(s4, s4)):
            expected = leaf_summary(build_tree(root, t, mode))
            assert summary_pair(leaf_counts(root, t, mode)) == summary_pair(expected), (root, t)

    @pytest.mark.parametrize("mode", ["K", "cohomology"])
    def test_matches_the_tree_on_sampled_s5_pairs(self, mode):
        rng = random.Random(20050)
        s5 = list(symmetric_group(5))
        pairs = [(rng.choice(s5), rng.choice(s5)) for _ in range(25)]
        for sigma, alpha in pairs:
            root = sigma.star(alpha, 5)
            t = max(1, sigma.last_descent() or 0)
            expected = leaf_summary(build_tree(root, t, mode))
            assert summary_pair(leaf_counts(root, t, mode)) == summary_pair(expected), (root, t)

    def test_figure_2_and_a_leaf_root(self):
        summary = leaf_counts(Permutation.parse("321465"), 2, "K")
        assert summary.counts == parse_map({"421356": 1, "341256": 1, "431256": 1})
        assert summary.null_count == 4
        assert summary_pair(leaf_counts(ID, 3, "K")) == ({ID: 1}, 0)

    def test_ceiling_counts_distinct_labels_not_nodes(self):
        root = Permutation.parse("43218765")
        tree = build_tree(root, 3, "K")
        nodes = sum(1 for _ in tree.nodes())
        labels = len({node.label for node in tree.nodes() if node.label is not None})
        assert (nodes, labels) == (1899, 608)
        assert summary_pair(leaf_counts(root, 3, "K", node_ceiling=labels)) == summary_pair(
            leaf_summary(tree)
        )
        with pytest.raises(NodeCeilingExceeded):
            build_tree(root, 3, "K", node_ceiling=labels)
        with pytest.raises(NodeCeilingExceeded):
            leaf_counts(root, 3, "K", node_ceiling=labels - 1)

    def test_mode_and_level_validation(self):
        with pytest.raises(ValueError):
            leaf_counts(ID, 0, "K")
        with pytest.raises(ValueError):
            leaf_counts(ID, 1, "quantum")


def frame_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestNoRecursion:
    def test_a_deep_tree_walks_and_exports_under_a_low_recursion_limit(self):
        node = TreeNode(None, (), ())
        for k in range(300):
            node = TreeNode(Permutation.parse("21"), (k % 3 + 1,), (node,))
        tree = MarchTree(node, 1, "K")
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(frame_depth() + 40)
        try:
            count = sum(1 for _ in tree.nodes())
            summary = leaf_summary(tree)
            text, dot, obj, encoded = to_text(tree), to_dot(tree), to_json_obj(tree), to_json(tree)
        finally:
            sys.setrecursionlimit(limit)
        assert count == 301
        assert summary_pair(summary) == ({}, 1)
        assert text.count("\n") == 300 and text.endswith("----> ∅")
        assert dot.count(" -> ") == 300
        # json.dumps itself recurses, so it runs at the default limit.
        assert encoded == json.dumps(obj, ensure_ascii=False, indent=2)

    def test_build_tree_is_not_bounded_by_the_recursion_limit(self):
        # Depth 17: a recursive grow needs more frames than the limit leaves.
        root = Permutation.parse("6,5,4,3,1,2,12,11,10,9,8,7")
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(frame_depth() + 20)
        try:
            tree = build_tree(root, 2, "cohomology")
            counted = leaf_counts(root, 2, "cohomology")
        finally:
            sys.setrecursionlimit(limit)
        assert sum(1 for _ in tree.nodes()) == 10184
        assert summary_pair(leaf_summary(tree)) == summary_pair(counted)

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
        assert to_json(tree) == json.dumps(to_json_obj(tree), ensure_ascii=False, indent=2)

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
        ids=["multiply", "product-K", "product-cohomology", "groth-window-11"],
    )
    def test_cli_output_digests(self, capsys, argv, digest):
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest
