"""Command-line surface: diagrams, marches, trees, polynomials, products.

Exit codes: 0 success, 2 usage or parse error, 3 precondition failure,
4 resource ceiling (the tree node ceiling, the oracle window ceiling,
the basis-expansion strip ceiling, or the packed-exponent ceiling of a
polynomial -- a variable's exponent above 255 or a total degree above
65,535, e.g. ``groth`` on a window longer than 256).  Results go to
stdout, diagnostics to stderr.  The tree node ceiling can be set per
invocation with ``--node-ceiling`` or globally with the
``SCHUBERT_NODE_CEILING`` environment variable.  ``tree`` materialises
the tree and counts its nodes, null leaves included, against the
ceiling; ``product`` counts the distinct labels of the marching DAG it
walks instead.
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Sequence

from .diagram import (
    MarchError,
    diagram,
    k_march,
    k_march_steps,
    march,
    march_boxes,
    maximal_corner,
    pivots,
    render,
    transition_pair,
)
from .grothendieck import (
    ExpansionCeilingExceeded,
    expansion_to_json,
    grothendieck,
    structure_constants,
)
from .permutations import Permutation
from .poly import ExponentCeilingExceeded, Polynomial
from .trees import (
    DEFAULT_NODE_CEILING,
    NodeCeilingExceeded,
    build_tree,
    leaf_summary,
    to_dot,
    to_json,
    to_text,
    unique_labeled_leaf,
)
from .truncation import (
    OracleCeilingExceeded,
    detect,
    truncate_grothendieck_via_tree,
    truncation_product,
    verify,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_RESOURCE = 4


def _perm(text: str) -> Permutation:
    try:
        return Permutation.parse(text)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


class _UsageError(Exception):
    pass


def _at_least(low: int) -> Callable[[str], int]:
    """An argparse type for integers no smaller than low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


_positive = _at_least(1)
_non_negative = _at_least(0)


def _default_ceiling() -> int:
    raw = os.environ.get("SCHUBERT_NODE_CEILING")
    if raw is None:
        return DEFAULT_NODE_CEILING
    try:
        return _non_negative(raw)
    except argparse.ArgumentTypeError as exc:
        raise _UsageError(f"SCHUBERT_NODE_CEILING: {exc}") from None


def _rows(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise _UsageError(f"malformed row list: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schubert",
        description="Diagram marching calculus for Schubert structure constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diagram", help="ASCII diagram, maximal corner, pivots")
    p.add_argument("perm")

    p = sub.add_parser("march", help="(K-)march towards a set of pivot rows")
    p.add_argument("perm")
    p.add_argument("--rows", required=True, help="comma-separated pivot rows")
    p.add_argument("--steps", action="store_true", help="show the march/add-box intermediates")

    p = sub.add_parser("tree", help="build a marching tree")
    p.add_argument("perm")
    p.add_argument("--t", type=_positive, required=True, help="truncation level")
    p.add_argument("--cohomology", action="store_true", help="single marches only")
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.add_argument("--node-ceiling", type=_non_negative, default=None)

    p = sub.add_parser("groth", help="Grothendieck polynomial (optionally truncated)")
    p.add_argument("perm")
    p.add_argument("--truncate", type=_non_negative, default=None, metavar="T")

    p = sub.add_parser("multiply", help="expand a product of two Grothendieck classes")
    p.add_argument("sigma")
    p.add_argument("rho")
    p.add_argument("--cohomology", action="store_true", help="top degree layer only")

    p = sub.add_parser("product", help="detect a truncation problem and expand by marching")
    p.add_argument("sigma")
    p.add_argument("alpha")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--t", type=_positive, required=True)
    p.add_argument("--cohomology", action="store_true")
    p.add_argument("--node-ceiling", type=_non_negative, default=None)

    sub.add_parser("verify-paper", help="re-run the worked example fixtures")

    return parser


def _cmd_diagram(args: argparse.Namespace) -> int:
    p = _perm(args.perm)
    print(render(p))
    corner = maximal_corner(p)
    print(f"corner: {corner if corner else 'none'}")
    if corner is None:
        print("pivots: none")
    else:
        boxes = pivots(p)
        print(f"pivots: {' '.join(str(b) for b in boxes) if boxes else 'none'}")
    return EXIT_OK


def _cmd_march(args: argparse.Namespace) -> int:
    p = _perm(args.perm)
    rows = _rows(args.rows)
    if args.steps:
        print(f"start {p}")
        steps = k_march_steps(p, rows)
        for kind, detail, result in steps:
            if kind == "march":
                print(f"march {detail} -> {result}")
            else:
                print(f"add box {detail} -> {result}")
        if k_march(p, rows) != steps[-1][2]:
            raise MarchError("iterative and algebraic K-march disagree")
    else:
        print(k_march(p, rows))
    return EXIT_OK


def _cmd_tree(args: argparse.Namespace) -> int:
    p = _perm(args.perm)
    ceiling = args.node_ceiling if args.node_ceiling is not None else _default_ceiling()
    mode = "cohomology" if args.cohomology else "K"
    tree = build_tree(p, args.t, mode, ceiling)
    if args.format == "text":
        print(to_text(tree))
    elif args.format == "json":
        print(to_json(tree))
    else:
        print(to_dot(tree))
    return EXIT_OK


def _cmd_groth(args: argparse.Namespace) -> int:
    p = _perm(args.perm)
    poly = grothendieck(p)
    if args.truncate is not None:
        poly = poly.truncate(args.truncate)
    print(poly.render())
    return EXIT_OK


def _cmd_multiply(args: argparse.Namespace) -> int:
    sigma = _perm(args.sigma)
    rho = _perm(args.rho)
    expansion = structure_constants(sigma, rho)
    if args.cohomology:
        top = sigma.length() + rho.length()
        expansion = {q: c for q, c in expansion.items() if q.length() == top}
    print(expansion_to_json(expansion))
    return EXIT_OK


def _cmd_product(args: argparse.Namespace) -> int:
    sigma = _perm(args.sigma)
    alpha = _perm(args.alpha)
    ceiling = args.node_ceiling if args.node_ceiling is not None else _default_ceiling()
    problem = detect(sigma, alpha, args.n, args.t, ceiling)
    if problem is None:
        print(
            f"({args.sigma}, {args.alpha}, n={args.n}, t={args.t}) "
            "is not a truncation Schubert problem",
            file=sys.stderr,
        )
        return EXIT_PRECONDITION
    print(f"rho = {problem.rho}", file=sys.stderr)
    mode = "cohomology" if args.cohomology else "K"
    print(expansion_to_json(truncation_product(problem, mode, ceiling)))
    return EXIT_OK


# -- the worked-example fixtures ------------------------------------------


def _expansion(pairs: dict[str, int]) -> dict[Permutation, int]:
    return {Permutation.parse(text): c for text, c in pairs.items()}


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _fixture_example1() -> None:
    p = Permutation.parse("4317625")
    _check(p.length() == 10, "length of 4317625")
    _check(p.last_descent() == 5, "last descent of 4317625")
    expected = {(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (4, 2), (4, 5), (4, 6), (5, 2), (5, 5)}
    _check({(b.row, b.col) for b in diagram(p)} == expected, "diagram of 4317625")
    corner = maximal_corner(p)
    _check(corner is not None and (corner.row, corner.col) == (5, 5), "maximal corner")
    _check([(b.row, b.col) for b in pivots(p)] == [(1, 4), (2, 3), (3, 1)], "pivots")
    g, m, q = transition_pair(p)
    _check((g, m, q.text()) == (5, 7, "4317526"), "corner-removing transposition")
    for row, expected_text in ((2, "4517326"), (3, "4357126")):
        result = march(p, row)
        _check(result.text() == expected_text, f"march towards row {row}")
        _check(march_boxes(p, row) == diagram(result), f"picture march, row {row}")


def _fixture_example2() -> None:
    p = Permutation.parse("4317625")
    steps = k_march_steps(p, [1, 3])
    kinds = [(kind, str(detail), result.text()) for kind, detail, result in steps]
    _check(
        kinds
        == [
            ("march", "1", "5317426"),
            ("add", "(5,4)", "5317624"),
            ("march", "3", "5347126"),
        ],
        "K-march intermediates of Example 2",
    )
    _check(k_march(p, [1, 3]).text() == "5347126", "algebraic K-march result")


def _fixture_figure2() -> None:
    root_perm = Permutation.parse("321").star(Permutation.parse("132"), 3)
    _check(root_perm == Permutation.parse("321465"), "star product 321 *_3 132")
    corner = maximal_corner(root_perm)
    _check(corner is not None and (corner.row, corner.col) == (5, 5), "corner of 321465")
    _check([(b.row, b.col) for b in pivots(root_perm)] == [(4, 4)], "pivot of 321465")
    _check(march(root_perm, 4) == Permutation.parse("321546"), "march towards row 4")
    _check(pivots(Permutation.parse("432156")) == [], "432156 has no pivots")
    tree = build_tree(root_perm, 2, "K")
    root = tree.root
    _check(len(root.children) == 1 and root.children[0].march == (4,), "root edge 4")
    child = root.children[0]
    _check(child.label == Permutation.parse("321546"), "first marched label")
    edges = {c.march: c.label for c in child.children}
    _check(
        edges
        == {
            (1,): Permutation.parse("421356"),
            (2,): Permutation.parse("341256"),
            (3,): Permutation.parse("324156"),
            (1, 2): Permutation.parse("431256"),
            (1, 3): Permutation.parse("423156"),
            (2, 3): Permutation.parse("342156"),
            (1, 2, 3): Permutation.parse("432156"),
        },
        "second-level edges of the K tree",
    )
    nulls = [
        c
        for c in child.children
        if len(c.children) == 1 and c.children[0].label is None
    ]
    _check(len(nulls) == 4, "four null leaves below the second level")
    summary = leaf_summary(tree)
    _check(
        summary.counts == _expansion({"421356": 1, "341256": 1, "431256": 1})
        and summary.null_count == 4,
        "leaf summary of the Figure 2 tree",
    )
    _check(
        summary.signed(4) == _expansion({"421356": 1, "341256": 1, "431256": -1}),
        "three-term expansion of Example 4",
    )


def _fixture_figure1() -> None:
    root_perm = Permutation.parse("3412").star(Permutation.parse("3214"), 4)
    _check(root_perm == Permutation.parse("34127658"), "star product 3412 *_4 3214")
    tree = build_tree(root_perm, 4, "K")
    labeled = [node for node in tree.nodes() if node.label is not None]
    _check(len(labeled) == 18, "labeled vertex count of the Figure 1 tree")
    _check(all(node.label is not None for node in tree.nodes()), "no null leaves in Figure 1")
    edges = {c.march: c.label for c in tree.root.children}
    _check(
        edges
        == {
            (2,): Permutation.parse("35127468"),
            (4,): Permutation.parse("34157268"),
            (2, 4): Permutation.parse("35147268"),
        },
        "root edges of the Figure 1 tree",
    )
    summary = leaf_summary(tree)
    expected_leaves = _expansion(
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
    _check(
        summary.counts == expected_leaves and summary.null_count == 0,
        "nine leaves of the Figure 1 tree",
    )


def _fixture_example3() -> None:
    rho = unique_labeled_leaf(Permutation.parse("3214"), 4, 4)
    _check(rho == Permutation.parse("12463578"), "single labeled leaf for 3214")
    problem = detect(Permutation.parse("3412"), Permutation.parse("3214"), 4, 4)
    _check(problem is not None and problem.rho == rho, "Example 3 detection")
    expected = _expansion(
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
    _check(truncation_product(problem, "K") == expected, "nine-term expansion of Example 3")
    _check(verify(problem, "K").match, "three-way verification of Example 3")


def _fixture_example4() -> None:
    problem = detect(Permutation.parse("321"), Permutation.parse("132"), 3, 2)
    _check(problem is not None and problem.rho == Permutation.parse("132"), "Example 4 detection")
    expected = _expansion({"421356": 1, "341256": 1, "431256": -1})
    _check(truncation_product(problem, "K") == expected, "three-term expansion of Example 4")
    _check(
        structure_constants(Permutation.parse("321"), Permutation.parse("132")) == expected,
        "oracle product for Example 4",
    )
    _check(verify(problem, "K").match, "three-way verification of Example 4")
    _check(verify(problem, "cohomology").match, "cohomology verification of Example 4")


def _fixture_example5() -> None:
    alpha = Permutation.parse("4321")
    _check(
        alpha.stabilize(5) == Permutation.parse("123459876,10"),
        "5-stabilization of 4321",
    )
    rho = unique_labeled_leaf(alpha, 7, 5)
    _check(rho == Permutation.parse("123469857,10"), "single labeled leaf of Example 5")
    problem = detect(Permutation.parse("41352"), alpha, 5, 7)
    _check(problem is not None and problem.rho == rho, "Example 5 detection")
    expected_k = _expansion({"413629857,10": 1, "413569827,10": 1, "413659827,10": -1})
    _check(truncation_product(problem, "K") == expected_k, "K expansion of Example 5")
    expected_h = _expansion({"413629857,10": 1, "413569827,10": 1})
    _check(
        truncation_product(problem, "cohomology") == expected_h,
        "cohomology expansion of Example 5",
    )


def _fixture_truncation_identity() -> None:
    gamma = Permutation.parse("321465")
    expansion = truncate_grothendieck_via_tree(gamma, 2)
    _check(
        expansion == _expansion({"421356": 1, "341256": 1, "431256": -1}),
        "tree expansion of the truncated Grothendieck polynomial",
    )
    total = Polynomial.zero()
    for perm, c in expansion.items():
        total = total + grothendieck(perm) * c
    _check(total == grothendieck(gamma).truncate(2), "re-summed truncation identity")


WORKED_EXAMPLES: list[tuple[str, Callable[[], None]]] = [
    ("example 1: diagram, corner, pivots, marches of 4317625", _fixture_example1),
    ("example 2: K-march of 4317625 towards rows 1 and 3", _fixture_example2),
    ("figure 2: the K tree of 321465 at level 2", _fixture_figure2),
    ("figure 1: the K tree of 34127658 at level 4", _fixture_figure1),
    ("example 3: product of 3412 and 12463578", _fixture_example3),
    ("example 4: product of 321 and 132", _fixture_example4),
    ("example 5: products with 123469857,10", _fixture_example5),
    ("truncation identity for 321465 at level 2", _fixture_truncation_identity),
]


def _cmd_verify_paper(_: argparse.Namespace) -> int:
    failures = 0
    for name, fixture in WORKED_EXAMPLES:
        try:
            fixture()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    if failures:
        print(f"{failures} of {len(WORKED_EXAMPLES)} fixtures failed")
        return 1
    print(f"all {len(WORKED_EXAMPLES)} fixtures passed")
    return EXIT_OK


_COMMANDS = {
    "diagram": _cmd_diagram,
    "march": _cmd_march,
    "tree": _cmd_tree,
    "groth": _cmd_groth,
    "multiply": _cmd_multiply,
    "product": _cmd_product,
    "verify-paper": _cmd_verify_paper,
}


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        NodeCeilingExceeded,
        OracleCeilingExceeded,
        ExpansionCeilingExceeded,
        ExponentCeilingExceeded,
    ) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (MarchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
