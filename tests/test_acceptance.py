"""Acceptance gate: one test per criterion, exact tolerances, timed.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or
in the captured-output section of a failure report).
"""
import itertools
import time
import tracemalloc
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from io import StringIO

from schubert import (
    Box,
    Permutation,
    Polynomial,
    diagram,
    detect,
    grothendieck,
    grothendieck_dd,
    schubert,
    k_march,
    k_march_steps,
    march,
    maximal_corner,
    pivots,
    structure_constants,
    symmetric_group,
    build_tree,
    to_dot,
    to_json,
    to_text,
    truncate_grothendieck_via_tree,
    truncation_product,
    verify,
)
from schubert.cli import run
from schubert.grothendieck import _read_once, parse_expansion
from schubert.worked_examples import EXAMPLE_1, EXAMPLE_2, EXAMPLE_3, EXAMPLE_5, FIGURE_2

from permutation_helpers import is_vexillary
from tree_helpers import leaf_summary_of, record_children, tree_children

ID = Permutation.identity()


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
    p = Permutation.parse(EXAMPLE_1["perm"])
    boxes = set(EXAMPLE_1["diagram"])
    corner, pivot_boxes = Box(*EXAMPLE_1["corner"]), [Box(*b) for b in EXAMPLE_1["pivots"]]
    marches = {row: Permutation.parse(text) for row, text in EXAMPLE_1["marches"].items()}
    diagram(p)  # warm set-up outside the timed window
    with criterion(1, "Example 1 diagram fixture", 0.001):
        assert {(b.row, b.col) for b in diagram(p)} == boxes
        assert maximal_corner(p) == corner
        assert pivots(p) == pivot_boxes
        for row, result in marches.items():
            assert march(p, row) == result


def test_criterion_2_example_2_fixture():
    from schubert import march_boxes

    p, rows = Permutation.parse(EXAMPLE_2["perm"]), EXAMPLE_2["rows"]
    added = [Box(*detail) for kind, detail, _ in EXAMPLE_2["steps"] if kind == "add"]
    result = Permutation.parse(EXAMPLE_2["steps"][-1][2])
    with criterion(2, "Example 2 K-march fixture", 1.0):
        steps = k_march_steps(p, rows)
        adds = [detail for kind, detail, _ in steps if kind == "add"]
        assert adds == added
        assert steps[-1][2] == k_march(p, rows) == result
        # Each marching step also checks out on the picture, box by box.
        current = p
        for kind, detail, result in steps:
            if kind == "march":
                assert march_boxes(current, detail) == diagram(result)
            else:
                assert diagram(result) == diagram(current) | {detail}
            current = result


def test_criterion_3_example_3_fixture():
    sigma, alpha, rho = (Permutation.parse(EXAMPLE_3[key]) for key in ("sigma", "alpha", "rho"))
    expected = parse_expansion(EXAMPLE_3["expansions"]["K"])
    with criterion(3, "Example 3 nine-term expansion", 1.0):
        problem = detect(sigma, alpha, EXAMPLE_3["n"], EXAMPLE_3["t"])
        assert problem is not None
        assert problem.rho == rho
        assert truncation_product(problem, "K") == expected


def test_criterion_4_figure_2_fixture():
    root = Permutation.parse(FIGURE_2["perm"])
    children = record_children(FIGURE_2)
    leaves = parse_expansion(FIGURE_2["leaves"])
    counts = {perm: abs(c) for perm, c in leaves.items()}
    with criterion(4, "Figure 2 tree fixture", 1.0):
        tree = build_tree(root, FIGURE_2["t"], "K")
        assert tree.root.label == root
        # Every edge in child order, the four to the null leaf included.
        assert tree_children(tree.root) == children
        summary = leaf_summary_of(tree.root)
        assert summary.counts == counts
        assert summary.null_count == FIGURE_2["null_leaves"]
        assert summary.root.length() == FIGURE_2["length"]
        assert summary.signed() == leaves


def test_criterion_5_example_5_fixture():
    sigma, alpha, rho = (Permutation.parse(EXAMPLE_5[key]) for key in ("sigma", "alpha", "rho"))
    n, t = EXAMPLE_5["n"], EXAMPLE_5["t"]
    expected = {mode: parse_expansion(m) for mode, m in EXAMPLE_5["expansions"].items()}
    with criterion(5, "Example 5 products in S_10", 10.0):
        problem = detect(sigma, alpha, n, t)
        assert problem is not None and problem.rho == rho
        assert truncation_product(problem, "K") == expected["K"]
        assert truncation_product(problem, "cohomology") == expected["cohomology"]


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
            if not is_vexillary(beta):
                continue
            for s in (1, 2, 3, 4):
                summary = leaf_summary_of(build_tree(beta, s, "K").root)
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
            assert grothendieck(tau).truncate(tau.last_descent() - 1) == 0


def test_criterion_10_export_at_s5_scale():
    # The benchmark's two export trees: the K trees of these S_5 pairs at
    # their smallest level, t = 4, each about 20k nodes.
    cases = [("54213", "54321", 19739), ("54321", "53421", 19638)]
    problems = [(detect(Permutation.parse(s), Permutation.parse(a), 5, 4), n) for s, a, n in cases]
    with criterion(10, "JSON, DOT and text export of two 20k-node S_5 trees", 5.0):
        for problem, nodes in problems:
            tree = build_tree(problem.star_root(), problem.t, "K")
            encoded, dot, text = to_json(tree), to_dot(tree), to_text(tree)
            assert encoded.count('"label": ') == nodes
            assert dot.count(" -> ") == nodes - 1
            assert text.count("\n") == nodes - 1


def test_criterion_11_schubert_polynomial_at_window_10():
    # From cleared memos, by the cohomology transition walk alone, not as
    # the lowest-degree part of G.
    p = Permutation.parse("5,4,3,1,2,10,9,8,7,6")
    grothendieck.cache_clear()
    with criterion(11, "Schubert polynomial of a window-10 permutation", 3.0):
        s = schubert(p)
        assert len(s) == 16_494
        assert all(sum(e) == p.length() and c > 0 for e, c in s.terms())


class _Discard:
    """A stdout that drops every write."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def _traced_peak(call) -> int:
    """The peak of the memory that call's allocations held, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_criterion_12_groth_prints_in_the_memory_of_its_walk():
    # 41,990 terms, 2.1 MB of text: printing may hold no more than a tenth
    # beyond the one-shot walk's own peak, whatever the host.
    window = "1,11,10,9,8,7,6,5,4,3,2"
    with criterion(12, "groth of a window-11 permutation within 1.1x its walk's memory", 20.0):
        walk = _traced_peak(lambda: _read_once(Permutation.parse(window).window))
        with redirect_stdout(_Discard()):
            command = _traced_peak(lambda: run(["groth", window]))
        assert command <= 1.1 * walk, f"groth peaked at {command} bytes, its walk at {walk}"


def _product(*argv: str) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of a ``product`` command."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(["product", *argv])
    return code, out.getvalue(), err.getvalue()


def test_criterion_13_product_at_a_large_n_walks_the_smallest_n():
    # The answer is decided at n0 = max(|sigma|, |alpha|, t - 1) = 3; the
    # walks of every n used to take about 3.6 s at n = 4000 (measured ~0.5 ms
    # since, shared 2-CPU Xeon, Python 3.11.7).
    small = _product("321", "132", "--n", "3", "--t", "2")
    assert small == (0, '{"3412": 1, "4213": 1, "4312": -1}\n', "rho = 132\n")
    with criterion(13, "product 321 132 at n = 4000 prints its n = 3 answer", 0.1):
        assert _product("321", "132", "--n", "4000", "--t", "2") == small
