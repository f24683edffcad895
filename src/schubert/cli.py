"""Command-line surface: diagrams, marches, trees, polynomials, products.

Exit codes: 0 success, 1 a worked-example fixture of ``verify-paper``
failed, 2 usage or parse error, 3 precondition failure, 4 any
:class:`schubert.poly.CeilingExceeded`: the tree node ceiling, the
oracle window ceiling, the basis-expansion strip ceiling, or the
packed-exponent ceiling of a polynomial (a variable's exponent above
255 or a total degree above 65,535, e.g. ``groth`` on a window longer
than 256).  Results go to stdout, diagnostics to stderr.  A reader that
closes stdout early, as ``| head`` does, took all it wanted: exit 0.
``tree`` and ``product`` take the node ceiling from ``--node-ceiling``,
else from the ``SCHUBERT_NODE_CEILING`` environment variable, else
10^6.  ``tree`` counts the nodes of the unfolded tree, null leaves
included, against it before it builds any; ``product`` counts the
distinct labels of the marching DAG it walks instead.
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Collection, Sequence

from .diagram import (
    MarchError,
    k_march,
    k_march_steps,
    maximal_corner,
    pivots,
    render,
)
from .grothendieck import expansion_to_json, grothendieck, structure_constants
from .permutations import Permutation
from .poly import CeilingExceeded
from .trees import (
    DEFAULT_NODE_CEILING,
    build_tree,
    to_dot,
    to_json,
    to_text,
)
from .truncation import (
    detect,
    truncation_product,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_RESOURCE = 4


def _perm(text: str) -> Permutation:
    """An argparse type for permutation texts."""
    try:
        return Permutation.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _integer(text: str) -> int:
    """An argparse type for an optional "-" and ASCII digits, stripped as
    permutation texts are; ``int`` alone also takes other digits and "_"."""
    digits = text.strip().removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(text)


def _at_least(low: int) -> Callable[[str], int]:
    """An argparse type for integers no smaller than low."""

    def parse(text: str) -> int:
        value = _integer(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


_positive = _at_least(1)
_non_negative = _at_least(0)


def _rows(text: str) -> list[int]:
    """An argparse type for comma-separated row lists."""
    return [_integer(part) for part in text.split(",")]


def _mode_flag(p: argparse.ArgumentParser, help: str | None = None) -> None:
    """``--cohomology``, parsed straight into ``args.mode`` ("K" without it)."""
    p.add_argument("--cohomology", dest="mode", action="store_const", const="cohomology",
                   default="K", help=help)


def _perm_argument(p: argparse.ArgumentParser) -> None:
    p.add_argument("perm", type=_perm)


def _march_arguments(p: argparse.ArgumentParser) -> None:
    _perm_argument(p)
    p.add_argument("--rows", type=_rows, required=True, help="comma-separated pivot rows")
    p.add_argument("--steps", action="store_true", help="show the march/add-box intermediates")


def _tree_arguments(p: argparse.ArgumentParser) -> None:
    _perm_argument(p)
    p.add_argument("--t", type=_positive, required=True, help="truncation level")
    _mode_flag(p, "single marches only")
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.add_argument("--node-ceiling", type=_non_negative, default=None)


def _groth_arguments(p: argparse.ArgumentParser) -> None:
    _perm_argument(p)
    p.add_argument("--truncate", type=_non_negative, default=None, metavar="T")


def _multiply_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("sigma", type=_perm)
    p.add_argument("rho", type=_perm)
    _mode_flag(p, "top degree layer only")


def _product_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("sigma", type=_perm)
    p.add_argument("alpha", type=_perm)
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--t", type=_positive, required=True)
    _mode_flag(p)
    p.add_argument("--node-ceiling", type=_non_negative, default=None)


def build_parser() -> argparse.ArgumentParser:
    """The parser with every command."""
    return _parser(_COMMANDS)


def _parser(names: Collection[str]) -> argparse.ArgumentParser:
    """A parser with the commands ``names`` only.  Its usage line lists
    every command all the same; only a parser that lacks some sets that
    list as the metavar, because argparse would also name a missing
    command by the metavar instead of by ``command``."""
    parser = argparse.ArgumentParser(
        prog="schubert",
        description="Diagram marching calculus for Schubert structure constants.",
    )
    listing = {} if len(names) == len(_COMMANDS) else {"metavar": "{" + ",".join(_COMMANDS) + "}"}
    sub = parser.add_subparsers(dest="command", required=True, **listing)
    for name in names:
        help, arguments, handler = _COMMANDS[name]
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        arguments(p)
    return parser


def _cmd_diagram(args: argparse.Namespace) -> int:
    p = args.perm
    print(render(p))
    corner = maximal_corner(p)
    boxes = pivots(p) if corner else []
    print(f"corner: {corner or 'none'}")
    print(f"pivots: {' '.join(map(str, boxes)) or 'none'}")
    return EXIT_OK


def _cmd_march(args: argparse.Namespace) -> int:
    p, rows = args.perm, args.rows
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
    tree = build_tree(args.perm, args.t, args.mode, args.node_ceiling)
    print({"text": to_text, "json": to_json, "dot": to_dot}[args.format](tree))
    return EXIT_OK


def _cmd_groth(args: argparse.Namespace) -> int:
    poly = grothendieck(args.perm)
    if args.truncate is not None:
        poly = poly.truncate(args.truncate)
    print(poly.render())
    return EXIT_OK


def _cmd_multiply(args: argparse.Namespace) -> int:
    print(expansion_to_json(structure_constants(args.sigma, args.rho, args.mode)))
    return EXIT_OK


def _cmd_product(args: argparse.Namespace) -> int:
    problem = detect(args.sigma, args.alpha, args.n, args.t, args.node_ceiling)
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


def _cmd_verify_paper(_: argparse.Namespace) -> int:
    # Imported here, not at the top: every other command would pay ~5.6 ms to compile
    # and load it without a bytecode cache, ~0.7 ms with one.
    from . import worked_examples as ex

    failures = 0
    for record, fixture in ex.FIXTURES:
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
        print(f"{failures} of {len(ex.FIXTURES)} fixtures failed")
        return 1
    print(f"all {len(ex.FIXTURES)} fixtures passed")
    return EXIT_OK


# name -> (help, arguments, handler), in the order that help lists them.
_COMMANDS: dict[str, tuple[str, Callable, Callable]] = {
    "diagram": ("ASCII diagram, maximal corner, pivots", _perm_argument, _cmd_diagram),
    "march": ("(K-)march towards a set of pivot rows", _march_arguments, _cmd_march),
    "tree": ("build a marching tree", _tree_arguments, _cmd_tree),
    "groth": ("Grothendieck polynomial (optionally truncated)", _groth_arguments, _cmd_groth),
    "multiply": (
        "expand a product of two Grothendieck classes", _multiply_arguments, _cmd_multiply
    ),
    "product": (
        "detect a truncation problem and expand by marching", _product_arguments, _cmd_product
    ),
    "verify-paper": ("re-run the worked example fixtures", lambda p: None, _cmd_verify_paper),
}


def run(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # A named command gets a parser with its own subparser only: the other
    # six would cost a cold command about 1.2 ms that it never uses.
    parser = _parser(argv[:1]) if argv and argv[0] in _COMMANDS else build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if "node_ceiling" in args and args.node_ceiling is None:
        raw = os.environ.get("SCHUBERT_NODE_CEILING", str(DEFAULT_NODE_CEILING))
        try:
            args.node_ceiling = _non_negative(raw)
        except argparse.ArgumentTypeError as exc:
            print(f"error: SCHUBERT_NODE_CEILING: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.handler(args)
    except CeilingExceeded as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (MarchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:  # the interpreter's last flush now writes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OK
    sys.exit(code)


if __name__ == "__main__":
    main()
