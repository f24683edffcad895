"""Permutation diagrams, maximal corners, pivots, and marching moves.

Boxes are 1-indexed (row, col) pairs in matrix convention.  The diagram
of p is ``{(r, c) : p(r) > c and p^{-1}(c) > r}``; its size equals the
Coxeter length of p.

Marching is implemented twice: the transposition form (always used by
the library) and the literal box-hopping procedure on the picture
(:func:`march_boxes`, kept so the test suite can assert the two agree).
One private primitive lists every (K-)march out of a canonical window
with one corner and pivot scan.  The Grothendieck transition walk and
the leaf count of :mod:`schubert.trees` call it directly, through one
private explicit-stack post-order walk over windows;
:func:`march_children` wraps it in :class:`Permutation` labels for
:func:`schubert.trees.build_tree` and for the root of the leaf count.
"""
from __future__ import annotations

import itertools
from typing import Callable, Container, Iterable, Iterator, Literal, NamedTuple, TypeVar

from .permutations import Permutation, _last_descent, _trim

Mode = Literal["K", "cohomology"]


class Box(NamedTuple):
    row: int
    col: int

    def __str__(self) -> str:
        return f"({self.row},{self.col})"


class MarchError(ValueError):
    """Raised when a marching move is requested from an invalid state."""


def diagram(p: Permutation) -> frozenset[Box]:
    """The diagram of p; exactly length(p) boxes."""
    n = p.size()
    inv = p.inverse()
    return frozenset(
        Box(r, c)
        for r in range(1, n + 1)
        for c in range(1, n + 1)
        if p(r) > c and inv(c) > r
    )


def maximal_corner(p: Permutation) -> Box | None:
    """Southernmost-then-eastmost diagram box; None iff p is the identity.

    Its row is the last descent of p and its column is p(m) for the
    transition index m (see :func:`transition_pair`).
    """
    if p.is_identity():
        return None
    g, m, _ = _corner_scan(p.window)
    return Box(g, p(m))


def transition_pair(p: Permutation) -> tuple[int, int, Permutation]:
    """The corner-removing transposition data (g, m, p t_{g<->m}).

    g is the last descent of p and m > g is the largest position with
    p(m) < p(g).  The result drops the length by one and its diagram is
    the diagram of p minus the maximal corner.
    """
    g, m, _ = _corner_scan(p.window)
    return g, m, p.transpose(g, m)


def _corner_scan(window: tuple[int, ...]) -> tuple[int, int, list[int]]:
    """(g, m, pivot rows) of a canonical window: g is the last descent and m
    the transition index of :func:`transition_pair`.  Row a < g holds a
    pivot iff p(a) lies below the corner column p(m) and above every such
    value in rows a+1..g-1."""
    if not window:
        raise MarchError("the identity has no maximal corner")
    g = _last_descent(window)
    corner_value = window[g - 1]
    m = len(window)
    while window[m - 1] >= corner_value:
        m -= 1
    corner_col = window[m - 1]
    rows = []
    highest = 0
    for a in range(g - 1, 0, -1):
        value = window[a - 1]
        if highest < value < corner_col:
            rows.append(a)
            highest = value
    return g, m, rows[::-1]


def _window_marches(
    window: tuple[int, ...], mode: Mode
) -> tuple[int, tuple[int, ...], dict[tuple[int, ...], tuple[int, ...]]]:
    """(g, q, {I: q t_{i1<->g} ... t_{ik<->g}}) on canonical windows, for
    q = p t_{g<->m} and every non-empty set I of pivot rows (single rows
    in cohomology mode), in (|I|, I) order.

    That order lists I minus its last row before I, so each word is the
    word of that smaller set times one transposition."""
    g, m, rows = _corner_scan(window)
    q = list(window)
    q[g - 1], q[m - 1] = q[m - 1], q[g - 1]
    if not rows:  # most labels of a transition walk
        return g, _trim(q), {}
    largest = 1 if mode == "cohomology" else len(rows)
    words = {(): q}
    for size in range(1, largest + 1):
        for subset in itertools.combinations(rows, size):
            word = words[subset[:-1]][:]
            i = subset[-1]
            word[i - 1], word[g - 1] = word[g - 1], word[i - 1]
            words[subset] = word
    del words[()]
    for subset, word in words.items():
        words[subset] = _trim(word)
    return g, _trim(q), words


_Window = tuple[int, ...]
_Node = TypeVar("_Node")


def _post_order(
    root: _Window,
    expand: Callable[[_Window], tuple[_Node, Iterable[_Window]]],
    known: Container[_Window],
) -> Iterator[tuple[_Window, _Node]]:
    """Yield (w, node) for root and every window w reachable from it
    through windows not in ``known``, each after every window it needs;
    ``expand(w)`` returns ``(node, windows w needs)``.  The caller adds
    each yielded window to ``known`` before resuming, so the walk keeps
    no set of its own and expands each window once: the windows still on
    the stack are ancestors of the one expanded, which in a DAG needs
    none of them.  The explicit stack leaves no chain of windows too
    long for the interpreter's recursion limit.
    """
    node, needed = expand(root)
    stack = [(root, node, iter(needed))]
    while stack:
        window, node, pending = stack[-1]
        for child in pending:
            if child not in known:
                child_node, needed = expand(child)
                stack.append((child, child_node, iter(needed)))
                break
        else:
            stack.pop()
            yield window, node


def pivots(p: Permutation) -> list[Box]:
    """Dots maximally southeast among those strictly northwest of the corner.

    Equivalently the dots (a, p(a)) with a < g whose transposition with
    the corner row raises the length of the corner-removed permutation
    by exactly one.  Sorted by row; empty iff the corner's connected
    component touches the top-left of the grid.
    """
    return [Box(a, p(a)) for a in pivot_rows(p)]


def pivot_rows(p: Permutation) -> list[int]:
    return _corner_scan(p.window)[2]


def march_children(p: Permutation, mode: Mode = "K") -> list[tuple[tuple[int, ...], Permutation]]:
    """(I, p t_{g<->m} t_{i1<->g} ... t_{ik<->g}) for every non-empty set I
    of pivot rows (single rows in cohomology mode), in (|I|, I) order."""
    _check_mode(mode)
    _, _, children = _window_marches(p.window, mode)
    return [(rows, Permutation._trusted(child)) for rows, child in children.items()]


def _check_mode(mode: Mode) -> None:
    if mode not in ("K", "cohomology"):
        raise ValueError(f"unknown mode {mode!r}")


def march(p: Permutation, i: int) -> Permutation:
    """March the diagram of p towards its pivot in row i.

    Runs the transposition form p t_{g<->m} t_{i<->g}; preserves length.
    """
    return k_march(p, [i])


def add_box(p: Permutation, l: int) -> Permutation:
    """Add the box (l, p(l)) to the diagram of p, raising length by one.

    The unique transposition doing so swaps position l with the nearest
    later position holding a larger value.  The one-box diagram
    difference is a postcondition and is always enforced: calling this
    outside a valid K-marching intermediate raises.
    """
    target = p(l)
    m = l + 1
    while p(m) < target:
        m += 1
    result = p.transpose(l, m)
    if result.length() != p.length() + 1 or diagram(result) != diagram(p) | {Box(l, target)}:
        raise MarchError(f"adding a box at ({l},{target}) to {p} does not give a diagram")
    return result


def _k_march_rows(p: Permutation, rows: Iterable[int]) -> tuple[int, Permutation, list[int]]:
    """(g, p t_{g<->m}, sorted rows), or MarchError unless rows are pivot rows."""
    index_set = sorted(set(rows))
    if not index_set:
        raise MarchError("K-march needs a non-empty set of pivot rows")
    g, m, valid = _corner_scan(p.window)
    bad = [i for i in index_set if i not in valid]
    if bad:
        raise MarchError(f"rows {bad} are not pivot rows of {p}")
    return g, p.transpose(g, m), index_set


def k_march(p: Permutation, rows: Iterable[int]) -> Permutation:
    """March towards the pivot rows of I in increasing order.

    Transposition form p t_{g<->m} t_{i1<->g} ... t_{ik<->g}; raises the
    length by |I| - 1.  Agrees with the iterative march/add-box/march
    procedure (:func:`k_march_steps`).
    """
    g, q, index_set = _k_march_rows(p, rows)
    for i in index_set:
        q = q.transpose(i, g)
    return q


def k_march_steps(p: Permutation, rows: Iterable[int]) -> list[tuple[str, Box | int, Permutation]]:
    """The iterative K-march: march, add a box in the corner row, march, ...

    Returns ("march", i, result) and ("add", box, result) steps; the
    final entry's permutation equals :func:`k_march` on the same input.
    """
    l, _, index_set = _k_march_rows(p, rows)
    steps: list[tuple[str, Box | int, Permutation]] = []
    current = march(p, index_set[0])
    steps.append(("march", index_set[0], current))
    for i in index_set[1:]:
        box = Box(l, current(l))
        current = add_box(current, l)
        steps.append(("add", box, current))
        current = march(current, i)
        steps.append(("march", i, current))
    return steps


# -- the literal picture procedure -------------------------------------


def march_boxes(p: Permutation, i: int) -> frozenset[Box]:
    """March on the picture: remove the pivot hook in row i, then hop
    every box of the pivot-corner rectangle strictly northwest into the
    unique free cell, in row-major order.

    Returns the resulting box collection, which is the diagram of
    :func:`march`'s output.  Kept independent of the transposition form.
    """
    if i not in pivot_rows(p):
        raise MarchError(f"row {i} is not a pivot row of {p}")
    corner = maximal_corner(p)
    assert corner is not None
    pivot = Box(i, p(i))
    dots = {Box(r, p(r)) for r in range(1, p.size() + 1)} - {pivot}

    def hooked(cell: Box) -> bool:
        return any(
            (d.row == cell.row and d.col <= cell.col)
            or (d.col == cell.col and d.row <= cell.row)
            for d in dots
        )

    boxes = set(diagram(p))
    moving = sorted(
        b for b in boxes
        if pivot.row <= b.row <= corner.row and pivot.col <= b.col <= corner.col
    )
    for box in moving:
        boxes.remove(box)
        frees = [
            Box(r, c)
            for r in range(1, box.row)
            for c in range(1, box.col)
            if Box(r, c) not in boxes and not hooked(Box(r, c))
        ]
        if len(frees) != 1:
            raise MarchError(f"marching {p} towards row {i}: box {box} has {len(frees)} free cells")
        boxes.add(frees[0])
    return frozenset(boxes)


def render(p: Permutation) -> str:
    """ASCII picture of the dots and diagram of p, row 1 first.

    Glyphs: ``●`` dot, ``□`` diagram box, ``·`` elsewhere.
    """
    n = max(p.size(), 1)
    boxes = diagram(p)
    lines = []
    for r in range(1, n + 1):
        cells = []
        for c in range(1, n + 1):
            if p(r) == c:
                cells.append("●")
            elif Box(r, c) in boxes:
                cells.append("□")
            else:
                cells.append("·")
        lines.append(" ".join(cells))
    return "\n".join(lines)
