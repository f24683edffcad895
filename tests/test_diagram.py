import importlib
import itertools
import random

import pytest

from schubert import (
    Box,
    MarchError,
    Permutation,
    add_box,
    diagram,
    k_march,
    k_march_steps,
    march,
    march_boxes,
    march_children,
    maximal_corner,
    pivot_rows,
    pivots,
    render,
    symmetric_group,
    transition_pair,
)
from schubert.diagram import _window_marches
from schubert.worked_examples import EXAMPLE_1, EXAMPLE_2, FIGURE_1, FIGURE_2

diagram_module = importlib.import_module("schubert.diagram")  # schubert.diagram is the function

ID = Permutation.identity()
EX1 = Permutation.parse(EXAMPLE_1["perm"])
FIG2 = Permutation.parse(FIGURE_2["perm"])
# The labels of Figure 2 with no pivots: the parents of its null leaves.
NO_PIVOTS = [Permutation.parse(parent) for parent, _, child in FIGURE_2["edges"] if child is None]


def brute_diagram(p: Permutation) -> set[tuple[int, int]]:
    """Independent oracle: the defining condition, spelled out."""
    n = p.size()
    inverse = {p(i): i for i in range(1, n + 1)}
    return {
        (r, c)
        for r in range(1, n + 1)
        for c in range(1, n + 1)
        if p(r) > c and inverse[c] > r
    }


def geometric_pivots(p: Permutation) -> list[tuple[int, int]]:
    """Independent oracle: dots maximally southeast among those strictly
    northwest of the maximal corner."""
    corner = maximal_corner(p)
    dots = [(i, p(i)) for i in range(1, p.size() + 1)]
    northwest = [d for d in dots if d[0] < corner.row and d[1] < corner.col]
    return sorted(
        d
        for d in northwest
        if not any(e != d and e[0] >= d[0] and e[1] >= d[1] for e in northwest)
    )


class TestDiagram:
    def test_example_1(self):
        assert {(b.row, b.col) for b in diagram(EX1)} == set(EXAMPLE_1["diagram"])

    def test_identity_and_21(self):
        assert diagram(ID) == frozenset()
        assert diagram(Permutation.parse("21")) == frozenset({Box(1, 1)})

    def test_matches_brute_force_and_length_on_s5(self):
        for p in symmetric_group(5):
            boxes = diagram(p)
            assert {(b.row, b.col) for b in boxes} == brute_diagram(p)
            assert len(boxes) == p.length()


class TestCornerAndPivots:
    def test_corner_examples(self):
        assert maximal_corner(EX1) == Box(*EXAMPLE_1["corner"])
        assert maximal_corner(ID) is None
        assert maximal_corner(FIG2) == Box(*FIGURE_2["corner"])

    def test_321465_boxes(self):
        assert diagram(FIG2) == frozenset(Box(*b) for b in FIGURE_2["diagram"])

    def test_corner_is_southernmost_then_eastmost_on_s5(self):
        for p in symmetric_group(5):
            if p.is_identity():
                continue
            corner = maximal_corner(p)
            assert corner in diagram(p)
            assert corner == max(diagram(p), key=lambda b: (b.row, b.col))
            assert corner.row == p.last_descent()

    def test_pivot_examples(self):
        assert pivots(EX1) == [Box(*b) for b in EXAMPLE_1["pivots"]]
        assert pivots(FIG2) == [Box(*b) for b in FIGURE_2["pivots"]]
        assert len(NO_PIVOTS) == FIGURE_2["null_leaves"]
        for p in NO_PIVOTS:
            assert pivots(p) == []

    def test_pivots_reject_identity(self):
        with pytest.raises(MarchError):
            pivots(ID)

    def test_pivots_match_geometric_oracle_on_s5(self):
        for p in symmetric_group(5):
            if p.is_identity():
                continue
            assert [(b.row, b.col) for b in pivots(p)] == geometric_pivots(p)


class TestTransition:
    def test_examples(self):
        g, m, q = EXAMPLE_1["transition"]
        assert transition_pair(EX1) == (g, m, Permutation.parse(q))
        assert transition_pair(Permutation.parse("21")) == (1, 2, ID)
        g, m, q = FIGURE_2["transition"]
        assert transition_pair(FIG2) == (g, m, Permutation.parse(q))

    def test_removes_exactly_the_corner_on_s5(self):
        for p in symmetric_group(5):
            if p.is_identity():
                continue
            _, _, q = transition_pair(p)
            assert q.length() == p.length() - 1
            assert diagram(q) == diagram(p) - {maximal_corner(p)}

    def test_rejects_identity(self):
        with pytest.raises(MarchError):
            transition_pair(ID)


def brute_transition(p: Permutation) -> tuple[int, Permutation]:
    """Independent oracle: (g, p t_{g<->m}) from the definitions."""
    g = p.last_descent()
    m = max(j for j in range(g + 1, p.size() + 1) if p(j) < p(g))
    return g, p.transpose(g, m)


def check_kernel(p: Permutation, t: int, mode: str) -> None:
    """The kernel against the public marching functions and the oracles."""
    marches = _window_marches(p.window, mode, t)
    if (p.last_descent() or 0) <= t:
        assert marches is None
        return
    g, q, children = marches
    rows = pivot_rows(p)
    assert rows == [row for row, _ in geometric_pivots(p)]
    sizes = range(1, 2 if mode == "cohomology" else len(rows) + 1)
    subsets = [I for size in sizes for I in itertools.combinations(rows, size)]
    assert list(children.items()) == [(I, k_march(p, I).window) for I in subsets]
    oracle_g, oracle_q = brute_transition(p)
    assert (g, q) == (oracle_g, transition_pair(p)[2].window) == (oracle_g, oracle_q.window)
    for I, child in children.items():
        word = oracle_q
        for i in I:
            word = word.transpose(i, g)
        assert child == word.window


def corner_in_last_position(p: Permutation) -> bool:
    """m, the largest position with p(m) < p(g), is the window's last."""
    return p(p.size()) < p(p.last_descent())


class TestKernel:
    """The one marching kernel, ``_window_marches``."""

    @pytest.mark.parametrize("mode", ["K", "cohomology"])
    def test_every_window_of_s6_at_every_level(self, mode):
        for p in symmetric_group(6):
            for t in range(7):
                check_kernel(p, t, mode)

    @pytest.mark.parametrize("mode", ["K", "cohomology"])
    def test_seeded_s9_windows_with_the_corner_column_last(self, mode):
        rng = random.Random(9)
        sample, trimmed = [], 0
        while len(sample) < 300:
            values = list(range(1, 10))
            rng.shuffle(values)
            p = Permutation(values)
            if p.is_identity() or not corner_in_last_position(p):
                continue
            sample.append(p)
            trimmed += p(p.last_descent()) == p.size()  # q ends in a fixed point
        assert 0 < trimmed < len(sample)
        for p in sample:
            for t in range(p.last_descent() + 1):
                check_kernel(p, t, mode)

    def test_identity_is_a_leaf_at_every_level(self):
        for t in range(3):
            assert _window_marches((), "K", t) is None
        with pytest.raises(MarchError):
            march_children(ID)


class TestMarch:
    def test_worked_example_marches(self):
        for p, example in ((EX1, EXAMPLE_1), (FIG2, FIGURE_2)):
            for row, text in example["marches"].items():
                assert march(p, row) == Permutation.parse(text)

    def test_rejects_non_pivot_row(self):
        for march_on in (march, march_boxes):
            with pytest.raises(MarchError):
                march_on(EX1, 4)

    def test_preserves_length_on_s5(self):
        for p in symmetric_group(5):
            if p.is_identity():
                continue
            for box in pivots(p):
                assert march(p, box.row).length() == p.length()

    def test_picture_procedure_agrees_through_s6(self):
        for n in (5, 6):
            for p in symmetric_group(n):
                if p.is_identity():
                    continue
                for box in pivots(p):
                    assert march_boxes(p, box.row) == diagram(march(p, box.row))

    def test_picture_procedure_agrees_on_example_1(self):
        for row in EXAMPLE_1["marches"]:
            assert march_boxes(EX1, row) == diagram(march(EX1, row))

    def test_a_box_without_one_free_cell_is_a_march_error(self, monkeypatch):
        # Without the box (1,1), the march of Example 1 towards row 2 finds two
        # free cells northwest of the box (4,5).
        monkeypatch.setattr(diagram_module, "diagram", lambda p: diagram(p) - {Box(1, 1)})
        with pytest.raises(MarchError, match=r"box \(4,5\) has 2 free cells"):
            march_boxes(EX1, 2)


class TestAddBox:
    def test_example_2_intermediate(self):
        (_, _, before), (_, box, after) = EXAMPLE_2["steps"][:2]
        p = Permutation.parse(before)
        result = add_box(p, box[0])
        assert result == Permutation.parse(after)
        assert diagram(result) == diagram(p) | {Box(*box)}

    def test_small_case(self):
        result = add_box(Permutation.parse("21"), 2)
        assert result == Permutation.parse("231")
        assert diagram(result) == frozenset({Box(1, 1), Box(2, 1)})

    def test_rejects_invalid_intermediate(self):
        # The union of D(132) and {(1,1)} is not a permutation diagram,
        # so the enforced diagram-difference postcondition fires.
        with pytest.raises(MarchError):
            add_box(Permutation.parse("132"), 1)

    def test_inverts_transition_removal_on_s5(self):
        for p in symmetric_group(5):
            if p.is_identity():
                continue
            g, _, q = transition_pair(p)
            assert add_box(q, g) == p


class TestKMarch:
    def test_example_2(self):
        result = EXAMPLE_2["steps"][-1][2]
        assert k_march(EX1, EXAMPLE_2["rows"]) == Permutation.parse(result)

    def test_every_labeled_edge_of_both_figures(self):
        for fig in (FIGURE_1, FIGURE_2):
            labeled = [edge for edge in fig["edges"] if edge[2] is not None]
            assert len(labeled) == fig["labeled"] - 1  # every labeled vertex but the root
            for parent, rows, child in labeled:
                assert k_march(Permutation.parse(parent), rows) == Permutation.parse(child)

    def test_singleton_equals_march_on_s5(self):
        for p in symmetric_group(5):
            if p.is_identity():
                continue
            for box in pivots(p):
                assert k_march(p, [box.row]) == march(p, box.row)

    def test_length_law_and_steps_agree_through_s6(self):
        for n in (5, 6):
            for p in symmetric_group(n):
                if p.is_identity():
                    continue
                rows = [box.row for box in pivots(p)]
                subsets = [
                    subset
                    for size in range(1, len(rows) + 1)
                    for subset in itertools.combinations(rows, size)
                ]
                for subset in subsets:
                    result = k_march(p, subset)
                    assert result.length() == p.length() + len(subset) - 1
                    assert k_march_steps(p, subset)[-1][2] == result
                assert march_children(p, "K") == [(I, k_march(p, I)) for I in subsets]
                assert march_children(p, "cohomology") == [
                    ((i,), k_march(p, [i])) for i in rows
                ]

    def test_steps_of_example_2(self):
        steps = k_march_steps(EX1, EXAMPLE_2["rows"])
        assert [(kind, detail, result.text()) for kind, detail, result in steps] == list(
            EXAMPLE_2["steps"]
        )

    def test_rejects_bad_input(self):
        with pytest.raises(MarchError):
            k_march(EX1, [])
        with pytest.raises(MarchError):
            k_march(EX1, [1, 4])
        with pytest.raises(MarchError):
            k_march_steps(EX1, [1, 4])
        with pytest.raises(MarchError):
            k_march(ID, [1])

    def test_march_children_rejects_an_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode 'quantum'"):
            march_children(EX1, "quantum")


class TestRender:
    def test_example_1_snapshot(self):
        assert render(EX1) == "\n".join(
            [
                "□ □ □ ● · · ·",
                "□ □ ● · · · ·",
                "● · · · · · ·",
                "· □ · · □ □ ●",
                "· □ · · □ ● ·",
                "· ● · · · · ·",
                "· · · · ● · ·",
            ]
        )

    def test_identity_snapshot(self):
        assert render(ID) == "●"
