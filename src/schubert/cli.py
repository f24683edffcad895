"""Command-line surface: diagrams, marches, trees, polynomials, products.

Exit codes: 0 success, 1 a worked-example fixture of ``verify-paper``
failed, 2 usage or parse error, 3 precondition failure, 4 resource
ceiling (the tree node ceiling, the oracle window ceiling, the
basis-expansion strip ceiling, or the packed-exponent ceiling of a
polynomial -- a variable's exponent above 255 or a total degree above
65,535, e.g. ``groth`` on a window longer than 256).  Results go to
stdout, diagnostics to stderr.  The tree node ceiling can be set per
invocation with ``--node-ceiling`` or globally with the
``SCHUBERT_NODE_CEILING`` environment variable.  ``tree`` counts the
nodes of the unfolded tree, null leaves included, against the ceiling
before it builds any; ``product`` counts the distinct labels of the
marching DAG it walks instead.
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
    parse_expansion,
    structure_constants,
)
from .permutations import Permutation
from .poly import ExponentCeilingExceeded, Polynomial
from .trees import (
    DEFAULT_NODE_CEILING,
    MarchTree,
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
# Each checks one record of schubert.worked_examples; a miss raises AssertionError.


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _fixture_permutation(ex: dict) -> None:
    """Length, last descent, diagram, corner, pivots, corner removal, marches."""
    p = Permutation.parse(ex["perm"])
    _check(p.length() == ex["length"], f"length of {p}")
    _check(p.last_descent() == ex["last_descent"], f"last descent of {p}")
    _check(diagram(p) == frozenset(ex["diagram"]), f"diagram of {p}")
    _check(maximal_corner(p) == ex["corner"], f"maximal corner of {p}")
    _check(pivots(p) == list(ex["pivots"]), f"pivots of {p}")
    g, m, q = ex["transition"]
    _check(transition_pair(p) == (g, m, Permutation.parse(q)), "corner-removing transposition")
    for row, expected in ex["marches"].items():
        result = march(p, row)
        _check(result == Permutation.parse(expected), f"march towards row {row}")
        _check(march_boxes(p, row) == diagram(result), f"picture march, row {row}")


def _fixture_k_march(ex: dict) -> None:
    p = Permutation.parse(ex["perm"])
    expected = [(kind, detail, Permutation.parse(text)) for kind, detail, text in ex["steps"]]
    _check(k_march_steps(p, ex["rows"]) == expected, "K-march intermediates")
    _check(k_march(p, ex["rows"]) == expected[-1][2], "algebraic K-march result")


def _figure_tree(fig: dict) -> MarchTree:
    """The K tree of a figure, after checking its root and its leaves."""
    left, right, k = fig["star"]
    root = Permutation.parse(left).star(Permutation.parse(right), k)
    _check(root == Permutation.parse(fig["perm"]), f"star product {left} *_{k} {right}")
    tree = build_tree(root, fig["t"], "K")
    leaves = parse_expansion(fig["leaves"])
    summary = leaf_summary(tree)
    _check(
        summary.counts == {p: abs(c) for p, c in leaves.items()}
        and summary.null_count == fig["null_leaves"],
        "leaf summary",
    )
    _check(summary.signed(root.length()) == leaves, "signed leaves")
    return tree


def _fixture_figure2(fig: dict) -> None:
    _fixture_permutation(fig)
    root = _figure_tree(fig).root
    marches = [((row,), Permutation.parse(text)) for row, text in fig["marches"].items()]
    _check([(c.march, c.label) for c in root.children] == marches, "root edges")
    child = root.children[0]
    second = {rows: Permutation.parse(text) for rows, text in fig["second_level"].items()}
    _check({c.march: c.label for c in child.children} == second, "second-level edges")
    no_pivots = list(second.values())[-1]
    _check(pivots(no_pivots) == [], f"{no_pivots} has no pivots")
    nulls = [
        c
        for c in child.children
        if len(c.children) == 1 and c.children[0].label is None
    ]
    _check(len(nulls) == fig["null_leaves"], "null leaves below the second level")


def _fixture_figure1(fig: dict) -> None:
    tree = _figure_tree(fig)
    labeled = [node for node in tree.nodes() if node.label is not None]
    _check(len(labeled) == fig["labeled"], "labeled vertex count")
    _check(all(node.label is not None for node in tree.nodes()), "no null leaves")
    edges = {(node.label, c.march, c.label) for node in tree.nodes() for c in node.children}
    parse = Permutation.parse
    _check(edges == {(parse(a), rows, parse(b)) for a, rows, b in fig["edges"]}, "edges")


def _fixture_product(ex: dict) -> None:
    sigma, alpha, rho = (Permutation.parse(ex[key]) for key in ("sigma", "alpha", "rho"))
    n, t = ex["n"], ex["t"]
    if "stabilized" in ex:
        stabilized = Permutation.parse(ex["stabilized"])
        _check(alpha.stabilize(n) == stabilized, f"{n}-stabilization of {alpha}")
    _check(unique_labeled_leaf(alpha, t, n) == rho, f"single labeled leaf for {alpha}")
    problem = detect(sigma, alpha, n, t)
    _check(problem is not None and problem.rho == rho, "detection")
    expected = {mode: parse_expansion(terms) for mode, terms in ex["expansions"].items()}
    for mode, terms in expected.items():
        _check(truncation_product(problem, mode) == terms, f"{mode} expansion")
    if ex["oracle"]:
        _check(structure_constants(sigma, rho) == expected["K"], "oracle product")
    for mode in ex["oracle"]:
        _check(verify(problem, mode).match, f"three-way verification in {mode}")


def _fixture_truncation_identity(ex: dict) -> None:
    gamma = Permutation.parse(ex["gamma"])
    expansion = truncate_grothendieck_via_tree(gamma, ex["t"])
    _check(
        expansion == parse_expansion(ex["expansion"]),
        "tree expansion of the truncated Grothendieck polynomial",
    )
    total = Polynomial.zero()
    for perm, c in expansion.items():
        total = total + grothendieck(perm) * c
    _check(total == grothendieck(gamma).truncate(ex["t"]), "re-summed truncation identity")


def _cmd_verify_paper(_: argparse.Namespace) -> int:
    # Imported here, not at the top: every other command would pay ~1.5 ms to load it.
    from . import worked_examples as ex

    fixtures: list[tuple[dict, Callable[[dict], None]]] = [
        (ex.EXAMPLE_1, _fixture_permutation),
        (ex.EXAMPLE_2, _fixture_k_march),
        (ex.FIGURE_2, _fixture_figure2),
        (ex.FIGURE_1, _fixture_figure1),
        *((product, _fixture_product) for product in ex.PRODUCTS),
        (ex.TRUNCATION_IDENTITY, _fixture_truncation_identity),
    ]
    failures = 0
    for record, fixture in fixtures:
        try:
            fixture(record)
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {record['name']}: {exc}")
        except Exception as exc:  # a record the library rejects fails its fixture only
            failures += 1
            print(f"FAIL {record['name']}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {record['name']}")
    if failures:
        print(f"{failures} of {len(fixtures)} fixtures failed")
        return 1
    print(f"all {len(fixtures)} fixtures passed")
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
