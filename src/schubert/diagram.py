"""Permutation diagrams, maximal corners, pivots, and marching moves.

Boxes are 1-indexed (row, col) pairs in matrix convention.  The diagram
of p is ``{(r, c) : p(r) > c and p^{-1}(c) > r}``; its size equals the
Coxeter length of p.

Marching is implemented twice: the transposition form (always used by
the library) and the literal box-hopping procedure on the picture
(:func:`march_boxes`, kept so the test suite can assert the two agree).
The transposition form is one private kernel over canonical windows,
which every marching function here reads: one scan decides whether a
window is a leaf at level t and finds its corner and pivot rows, and
each (K-)march out of it is built as a tuple.  The kernel is the one
primitive shared by the Grothendieck transition formula and the marching
trees; each walks its own DAG over it (:mod:`schubert.grothendieck`,
:mod:`schubert.trees`), because the two need different windows, stop at
different leaves and bound different things.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Literal, NamedTuple

from .permutations import Permutation, _trim

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
    g, q, _ = _marches(p)
    return Box(g, Permutation._trusted(q)(g))


def transition_pair(p: Permutation) -> tuple[int, int, Permutation]:
    """The corner-removing transposition data (g, m, p t_{g<->m}).

    g is the last descent of p and m > g is the largest position with
    p(m) < p(g).  The result drops the length by one and its diagram is
    the diagram of p minus the maximal corner.
    """
    g, q, _ = _marches(p)
    q = Permutation._trusted(q)
    return g, p.window.index(q(g)) + 1, q


_Window = tuple[int, ...]


def _window_marches(window: _Window, mode: Mode, t: int = 0) -> tuple | None:
    """None when the last descent g of a canonical window is at most t (the
    identity at t = 0); else (g, q, {I: q t_{i1<->g} ... t_{ik<->g}}) for
    q = p t_{g<->m} and every non-empty set I of pivot rows (single rows
    in cohomology mode), in (|I|, I) order.  One scan from the right
    finds g, m (see :func:`transition_pair`) and the pivot rows: row a < g
    holds one iff p(a) lies below the corner column p(m) and above every
    such value in rows a+1..g-1.  Each word is q's list with the values
    at I and g rotated, frozen once; it can end in a fixed point only
    when p(g) = n, which puts m last, and only then is it trimmed.
    """
    n = len(window)
    g = n - 1
    while g > t and window[g - 1] < window[g]:
        g -= 1
    if g <= t:
        return None
    corner_value = window[g - 1]
    m = n
    while window[m - 1] > corner_value:
        m -= 1
    corner_col = window[m - 1]
    rows = []
    highest = 0
    for a in range(g - 1, 0, -1):
        value = window[a - 1]
        if highest < value < corner_col:
            rows.append(a)
            highest = value
    q = list(window)
    q[g - 1], q[m - 1] = corner_col, corner_value
    freeze = _trim if corner_value == n else tuple
    children = {}
    rows.reverse()
    for i in rows:
        word = q[:]
        word[i - 1], word[g - 1] = corner_col, window[i - 1]
        children[i,] = freeze(word)
    if mode == "K":
        for size in range(2, len(rows) + 1):
            for subset in itertools.combinations(rows, size):
                word, value = q[:], corner_col
                for i in subset:
                    word[i - 1], value = value, word[i - 1]
                word[g - 1] = value
                children[subset] = freeze(word)
    return g, freeze(q), children


def pivots(p: Permutation) -> list[Box]:
    """Dots maximally southeast among those strictly northwest of the corner.

    Equivalently the dots (a, p(a)) with a < g whose transposition with
    the corner row raises the length of the corner-removed permutation
    by exactly one.  Sorted by row; empty iff the corner's connected
    component touches the top-left of the grid.
    """
    return [Box(a, p(a)) for a in pivot_rows(p)]


def pivot_rows(p: Permutation) -> list[int]:
    return [i for i, in _marches(p)[2]]


def _marches(p: Permutation, mode: Mode = "cohomology") -> tuple:
    """The kernel's triple of p; in cohomology mode its keys are the pivot rows."""
    marches = _window_marches(p.window, mode)
    if marches is None:
        raise MarchError("the identity has no maximal corner")
    return marches


def march_children(p: Permutation, mode: Mode = "K") -> list[tuple[tuple[int, ...], Permutation]]:
    """(I, p t_{g<->m} t_{i1<->g} ... t_{ik<->g}) for every non-empty set I
    of pivot rows (single rows in cohomology mode), in (|I|, I) order."""
    _check_mode(mode)
    _, _, children = _marches(p, mode)
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
    g, q, valid = _marches(p)
    bad = [i for i in index_set if (i,) not in valid]
    if bad:
        raise MarchError(f"rows {bad} are not pivot rows of {p}")
    return g, Permutation._trusted(q), index_set


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
