"""Command-line surface: diagrams, marches, trees, polynomials, products.

One table, ``_COMMANDS``, declares each command's help, its arguments as
``(flag, add_argument options)`` specs, and its handler; the ``tree``
formats are the keys of the exporter map that ``_cmd_tree`` dispatches
through.  Exit codes: 0 success, 1 a worked-example fixture of
``verify-paper`` failed, 2 usage or parse error, 3 precondition failure,
4 a resource limit: any :class:`schubert.poly.CeilingExceeded` (the tree
node ceiling, the oracle window ceiling, the basis-expansion strip
ceiling, or the packed-exponent ceiling of a polynomial: a variable's
exponent above 255 or a total degree above 65,535, e.g. ``groth`` on a
window longer than 256), or a ``MemoryError``, which prints ``resource
limit: out of memory``.  stdout is then empty unless memory ran out after
``groth`` began to write its polynomial, which it streams in pieces once
it has ordered every term.  Results go to stdout,
diagnostics to stderr.  A reader that closes stdout early, as ``| head``
does, took all it wanted: exit 0.  ``tree`` and ``product`` take the
node ceiling from ``--node-ceiling``, 10^6 by default.  ``tree`` counts
the nodes of the unfolded tree, null leaves included, against it before
it builds any; ``product`` builds no tree and counts instead, through
``leaf_counts``, the live labels of the marching DAG: the distinct labels
with a labeled leaf below, the only ones it marches.  An alpha whose tree
has no labeled leaf is then no problem (exit 3) under any positive
ceiling.
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Collection, Sequence

from .diagram import (
    k_march,
    k_march_steps,
    maximal_corner,
    pivots,
    render,
)
from .grothendieck import _read_once, expansion_to_json, structure_constants
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


def _cohomology(help: str | None = None) -> tuple[str, dict]:
    """``--cohomology``, parsed straight into ``args.mode`` ("K" without it)."""
    return "--cohomology", {"dest": "mode", "action": "store_const", "const": "cohomology",
                            "default": "K", "help": help}


# The argument specs that two or more commands share: (flag, add_argument options).
_PERM = ("perm", {"type": _perm})
_SIGMA = ("sigma", {"type": _perm})
_LEVEL = {"type": _positive, "required": True}
_NODE_CEILING = ("--node-ceiling", {"type": _non_negative, "default": DEFAULT_NODE_CEILING})
_EXPORTERS = {"text": to_text, "json": to_json, "dot": to_dot}  # tree --format's choices


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
        for flag, options in arguments:
            p.add_argument(flag, **options)
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
        steps = k_march_steps(p, rows)  # a bad row raises before anything is printed
        print(f"start {p}")
        for kind, detail, result in steps:
            if kind == "march":
                print(f"march {detail} -> {result}")
            else:
                print(f"add box {detail} -> {result}")
    else:
        print(k_march(p, rows))
    return EXIT_OK


def _cmd_tree(args: argparse.Namespace) -> int:
    tree = build_tree(args.perm, args.t, args.mode, args.node_ceiling)
    print(_EXPORTERS[args.format](tree))
    return EXIT_OK


def _cmd_groth(args: argparse.Namespace) -> int:
    # One root, then exit: the walk that frees each window after its last reader.
    poly = _read_once(args.perm.window)
    if args.truncate is not None:
        poly = poly.truncate(args.truncate)
    # Piece by piece, so the whole text is never held at once.
    write = sys.stdout.write
    for chunk in poly._render_chunks():
        write(chunk)
    write("\n")
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


# name -> (help, argument specs, handler), in the order that help lists them.
_COMMANDS: dict[str, tuple[str, tuple[tuple[str, dict], ...], Callable]] = {
    "diagram": ("ASCII diagram, maximal corner, pivots", (_PERM,), _cmd_diagram),
    "march": ("(K-)march towards a set of pivot rows", (
        _PERM,
        ("--rows", {"type": _rows, "required": True, "help": "comma-separated pivot rows"}),
        ("--steps", {"action": "store_true", "help": "show the march/add-box intermediates"}),
    ), _cmd_march),
    "tree": ("build a marching tree", (
        _PERM,
        ("--t", {**_LEVEL, "help": "truncation level"}),
        _cohomology("single marches only"),
        ("--format", {"choices": tuple(_EXPORTERS), "default": "text"}),
        _NODE_CEILING,
    ), _cmd_tree),
    "groth": ("Grothendieck polynomial (optionally truncated)", (
        _PERM,
        ("--truncate", {"type": _non_negative, "metavar": "T"}),
    ), _cmd_groth),
    "multiply": ("expand a product of two Grothendieck classes", (
        _SIGMA,
        ("rho", {"type": _perm}),
        _cohomology("top degree layer only"),
    ), _cmd_multiply),
    "product": ("detect a truncation problem and expand by marching", (
        _SIGMA,
        ("alpha", {"type": _perm}),
        ("--n", _LEVEL),
        ("--t", _LEVEL),
        _cohomology(),
        _NODE_CEILING,
    ), _cmd_product),
    "verify-paper": ("re-run the worked example fixtures", (), _cmd_verify_paper),
}


def run(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # A named command gets a parser with its own subparser only: the other
    # six would cost a cold command about 1.2 ms that it never uses.
    parser = _parser(argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except CeilingExceeded as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("resource limit: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:  # MarchError is a ValueError
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
