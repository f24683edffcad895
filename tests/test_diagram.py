import itertools

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
    pivots,
    render,
    symmetric_group,
    transition_pair,
)

ID = Permutation.identity()
EX1 = Permutation.parse("4317625")


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
        expected = {(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (4, 2), (4, 5), (4, 6), (5, 2), (5, 5)}
        assert {(b.row, b.col) for b in diagram(EX1)} == expected

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
        assert maximal_corner(EX1) == Box(5, 5)
        assert maximal_corner(ID) is None
        assert maximal_corner(Permutation.parse("321465")) == Box(5, 5)

    def test_321465_boxes(self):
        assert diagram(Permutation.parse("321465")) == frozenset(
            {Box(1, 1), Box(1, 2), Box(2, 1), Box(5, 5)}
        )

    def test_corner_is_southernmost_then_eastmost_on_s5(self):
        for p in symmetric_group(5):
            if p.is_identity():
                continue
            corner = maximal_corner(p)
            assert corner in diagram(p)
            assert corner == max(diagram(p), key=lambda b: (b.row, b.col))
            assert corner.row == p.last_descent()

    def test_pivot_examples(self):
        assert pivots(EX1) == [Box(1, 4), Box(2, 3), Box(3, 1)]
        assert pivots(Permutation.parse("321465")) == [Box(4, 4)]
        assert pivots(Permutation.parse("432156")) == []

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
        g, m, q = transition_pair(EX1)
        assert (g, m, q) == (5, 7, Permutation.parse("4317526"))
        assert transition_pair(Permutation.parse("21")) == (1, 2, ID)
        assert transition_pair(Permutation.parse("321465")) == (5, 6, Permutation.parse("321456"))

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


class TestMarch:
    def test_worked_example_marches(self):
        assert march(EX1, 2) == Permutation.parse("4517326")
        assert march(EX1, 3) == Permutation.parse("4357126")
        assert march(Permutation.parse("321465"), 4) == Permutation.parse("321546")

    def test_rejects_non_pivot_row(self):
        with pytest.raises(MarchError):
            march(EX1, 4)

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
        assert march_boxes(EX1, 2) == diagram(march(EX1, 2))
        assert march_boxes(EX1, 3) == diagram(march(EX1, 3))


class TestAddBox:
    def test_example_2_intermediate(self):
        p = Permutation.parse("5317426")
        result = add_box(p, 5)
        assert result == Permutation.parse("5317624")
        assert diagram(result) == diagram(p) | {Box(5, 4)}

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
        assert k_march(EX1, [1, 3]) == Permutation.parse("5347126")

    def test_figure_2_edges(self):
        p = Permutation.parse("321546")
        assert k_march(p, [1, 2]) == Permutation.parse("431256")
        assert k_march(p, [1, 2, 3]) == Permutation.parse("432156")

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
        steps = k_march_steps(EX1, [1, 3])
        assert [(kind, str(detail), result.text()) for kind, detail, result in steps] == [
            ("march", "1", "5317426"),
            ("add", "(5,4)", "5317624"),
            ("march", "3", "5347126"),
        ]

    def test_rejects_bad_input(self):
        with pytest.raises(MarchError):
            k_march(EX1, [])
        with pytest.raises(MarchError):
            k_march(EX1, [1, 4])
        with pytest.raises(MarchError):
            k_march_steps(EX1, [1, 4])
        with pytest.raises(MarchError):
            k_march(ID, [1])


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
