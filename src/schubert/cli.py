"""Command-line surface: diagrams, marches, trees, polynomials, products.

Exit codes: 0 success, 1 a worked-example fixture of ``verify-paper``
failed, 2 usage or parse error, 3 precondition failure, 4 any
:class:`schubert.poly.CeilingExceeded`: the tree node ceiling, the
oracle window ceiling, the basis-expansion strip ceiling, or the
packed-exponent ceiling of a polynomial (a variable's exponent above
255 or a total degree above 65,535, e.g. ``groth`` on a window longer
than 256).  Results go to stdout, diagnostics to stderr.  ``tree`` and
``product`` take the node ceiling from ``--node-ceiling``, else from the
``SCHUBERT_NODE_CEILING`` environment variable, else 10^6.  ``tree``
counts the nodes of the unfolded tree, null leaves included, against it
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
    expansion_to_json,
    grothendieck,
    parse_expansion,
    structure_constants,
    top_layer,
)
from .permutations import Permutation
from .poly import CeilingExceeded, Polynomial
from .trees import (
    DEFAULT_NODE_CEILING,
    MarchTree,
    build_tree,
    leaf_counts,
    to_dot,
    to_json,
    to_text,
    unique_labeled_leaf,
)
from .truncation import (
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


def _rows(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise _UsageError(f"malformed row list: {text!r}") from None


def _mode_flag(p: argparse.ArgumentParser, help: str | None = None) -> None:
    """``--cohomology``, parsed straight into ``args.mode`` ("K" without it)."""
    p.add_argument("--cohomology", dest="mode", action="store_const", const="cohomology",
                   default="K", help=help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schubert",
        description="Diagram marching calculus for Schubert structure constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler: Callable, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        return p

    p = command("diagram", _cmd_diagram, "ASCII diagram, maximal corner, pivots")
    p.add_argument("perm")

    p = command("march", _cmd_march, "(K-)march towards a set of pivot rows")
    p.add_argument("perm")
    p.add_argument("--rows", required=True, help="comma-separated pivot rows")
    p.add_argument("--steps", action="store_true", help="show the march/add-box intermediates")

    p = command("tree", _cmd_tree, "build a marching tree")
    p.add_argument("perm")
    p.add_argument("--t", type=_positive, required=True, help="truncation level")
    _mode_flag(p, "single marches only")
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.add_argument("--node-ceiling", type=_non_negative, default=None)

    p = command("groth", _cmd_groth, "Grothendieck polynomial (optionally truncated)")
    p.add_argument("perm")
    p.add_argument("--truncate", type=_non_negative, default=None, metavar="T")

    p = command("multiply", _cmd_multiply, "expand a product of two Grothendieck classes")
    p.add_argument("sigma")
    p.add_argument("rho")
    _mode_flag(p, "top degree layer only")

    p = command("product", _cmd_product, "detect a truncation problem and expand by marching")
    p.add_argument("sigma")
    p.add_argument("alpha")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--t", type=_positive, required=True)
    _mode_flag(p)
    p.add_argument("--node-ceiling", type=_non_negative, default=None)

    command("verify-paper", _cmd_verify_paper, "re-run the worked example fixtures")

    return parser


def _cmd_diagram(args: argparse.Namespace) -> int:
    p = _perm(args.perm)
    print(render(p))
    corner = maximal_corner(p)
    boxes = pivots(p) if corner else []
    print(f"corner: {corner or 'none'}")
    print(f"pivots: {' '.join(map(str, boxes)) or 'none'}")
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
    tree = build_tree(p, args.t, args.mode, args.node_ceiling)
    print({"text": to_text, "json": to_json, "dot": to_dot}[args.format](tree))
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
    if args.mode == "cohomology":
        expansion = top_layer(expansion, sigma, rho)
    print(expansion_to_json(expansion))
    return EXIT_OK


def _cmd_product(args: argparse.Namespace) -> int:
    sigma = _perm(args.sigma)
    alpha = _perm(args.alpha)
    problem = detect(sigma, alpha, args.n, args.t, args.node_ceiling)
    if problem is None:
        print(
            f"({args.sigma}, {args.alpha}, n={args.n}, t={args.t}) "
            "is not a truncation Schubert problem",
            file=sys.stderr,
        )
        return EXIT_PRECONDITION
    print(f"rho = {problem.rho}", file=sys.stderr)
    print(expansion_to_json(truncation_product(problem, args.mode, args.node_ceiling)))
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
    leaves = parse_expansion(fig["leaves"])
    summary = leaf_counts(root, fig["t"], "K")
    _check(
        summary.counts == {p: abs(c) for p, c in leaves.items()}
        and summary.null_count == fig["null_leaves"],
        "leaf summary",
    )
    _check(summary.signed(root.length()) == leaves, "signed leaves")
    return build_tree(root, fig["t"], "K")


def _fixture_figure2(fig: dict) -> None:
    _fixture_permutation(fig)
    tree = _figure_tree(fig)
    out, labels = tree.out, tree.labels
    marches = [((row,), Permutation.parse(text)) for row, text in fig["marches"].items()]
    _check([(rows, labels[v]) for rows, v in out[-1]] == marches, "root edges")
    child = out[-1][0][1]
    second = {rows: Permutation.parse(text) for rows, text in fig["second_level"].items()}
    _check({rows: labels[v] for rows, v in out[child]} == second, "second-level edges")
    no_pivots = list(second.values())[-1]
    _check(pivots(no_pivots) == [], f"{no_pivots} has no pivots")
    # Vertex 0 is the null leaf.
    nulls = [v for _, v in out[child] if [c for _, c in out[v]] == [0]]
    _check(len(nulls) == fig["null_leaves"], "null leaves below the second level")


def _fixture_figure1(fig: dict) -> None:
    tree = _figure_tree(fig)
    out, labels = tree.out, tree.labels
    _check(all(v for edges in out for _, v in edges), "no null leaves")  # vertex 0 is the null leaf
    _check(tree.sizes[-1] == fig["labeled"], "labeled vertex count")
    edges = {(labels[u], rows, labels[v]) for u, children in enumerate(out) for rows, v in children}
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


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if "node_ceiling" in args and args.node_ceiling is None:
            raw = os.environ.get("SCHUBERT_NODE_CEILING", str(DEFAULT_NODE_CEILING))
            try:
                args.node_ceiling = _non_negative(raw)
            except argparse.ArgumentTypeError as exc:
                raise _UsageError(f"SCHUBERT_NODE_CEILING: {exc}") from None
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CeilingExceeded as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (MarchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
