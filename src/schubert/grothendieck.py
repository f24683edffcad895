"""Grothendieck and Schubert polynomials, and the basis-expansion oracle.

Two independent constructions of the Grothendieck polynomial are kept:

* :func:`grothendieck` evaluates Lascoux's transition formula

      G_p = x_g * G_q + (x_g - 1) * sum over non-empty sets I of pivot
            rows of (-1)^|I| G_{q t_{i1<->g} ... t_{ik<->g}}

  with base case G_id = 1, where g is the last descent of p and
  q = p t_{g<->m} removes the maximal corner (the K-march children of
  :mod:`schubert.diagram`).  Its lowest-degree part is the transition
  of Lascoux and Schützenberger, S_p = x_g S_q + sum_i S_{q t_{i<->g}}
  over single pivot rows (the cohomology children), by which
  :func:`schubert` runs the same walk in cohomology mode.  The windows
  the formula needs form a DAG, which one explicit-stack walk over the
  marching kernel of :mod:`schubert.diagram` marches into one
  post-order dict, so no window is too long for the interpreter's
  recursion limit.  One memo per mode maps each window to its entry:
  two tuples, the packed exponents (see :mod:`schubert.poly`) and the
  coefficients of its polynomial, since the walk and the strips of
  :func:`expand_in_basis` only iterate a memoised G.  A public read
  (:func:`grothendieck`, :func:`schubert`) makes the window's
  :class:`Polynomial` once and keeps it, and the memo entry becomes the
  views of its dict.  The walk skips memoised windows; the
  memo read sums the dict in its order, each window after the windows
  it reads, into one fresh dict of packed exponents, not through
  polynomial arithmetic: raising x_g adds
  ``(1 << (DEGREE_BITS + EXPONENT_BITS (g - 1))) + 1`` to the packed
  int.  The sum cancels no term, so nothing is filtered.  Every
  monomial of G_w for w in S_n divides the staircase
  x1^(n-1) x2^(n-2) ... x_{n-1}, and every window of the walk is at
  most as long as the root's, so a root window of n <= MAX_EXPONENT + 1
  (256) keeps every field within its bound; a longer window raises
  :class:`schubert.poly.ExponentCeilingExceeded` before any work.
  The ``groth`` command reads one root and exits, so it reads G through
  :func:`_read_once` instead, which sums the same dict by the same rule
  into a private store that fills no memo and frees each window's G
  after its last reader has summed.

* :func:`grothendieck_dd` applies isobaric divided differences
  pi_i f = d_i((1 - x_{i+1}) f) downward from the staircase monomial of
  the longest element.  d_i is taken term by term in closed form, so
  nothing is divided, and no memo is kept: each call climbs from p to
  the longest element by first ascents and applies pi_i back down.
  The two must agree everywhere; the test suite sweeps S_6.

Expansion of an arbitrary integer polynomial in the Grothendieck basis,
or in the Schubert basis in cohomology mode, repeatedly strips the
leading term (the Lehmer-code monomial of some permutation, see
:func:`expand_in_basis`), which is the brute-force oracle for structure
constants.  The remainder lives in one mutable dict and the leading
term of its lowest degree is kept on a lazily pruned heap, so a strip
touches only the terms of the subtracted basis element.  The leading
exponent of a strip, read as a Lehmer code, is decoded straight to the
canonical window of its permutation, and the strips are kept and
checked by window.  Each strip reads its basis element's memo entry
through :func:`_read_entry`, the reader under :func:`grothendieck`, so
``grothendieck.cache_info()`` counts a K expansion as it counts that
many calls, and ``schubert.cache_info()`` a cohomology one.  The
windows become :class:`Permutation` keys once, at the end, each
carrying its length: the degree of its strip.
"""
from __future__ import annotations

import heapq
import json
from collections import Counter
from itertools import repeat
from operator import and_, neg
from typing import Container, Iterable, NamedTuple

from . import poly
from .diagram import Mode, _check_mode, _Window, _window_marches
from .permutations import Permutation, _lehmer_window
from .poly import (
    DEGREE_MASK,
    FIELD_MASK,
    CeilingExceeded,
    ExponentCeilingExceeded,
    Polynomial,
    _unchecked,
    _unpack,
    _variable_shift,
)

ExpansionMap = dict[Permutation, int]

EXPANSION_ITERATION_CEILING = 100_000


class ExpansionCeilingExceeded(CeilingExceeded):
    """A basis expansion needs more strips than EXPANSION_ITERATION_CEILING."""


class _CacheInfo(NamedTuple):
    hits: int
    misses: int
    maxsize: None
    currsize: int


# A memo entry: the packed exponents and the coefficients of one G (K) or
# S (cohomology), which zip into its terms.
_Entry = tuple[Iterable[int], Iterable[int]]
# Mode -> window -> entry; the identity is the base case.  Every other
# entry is one miss of the walk, and every read of a window, by a caller
# or by a node of the walk, is one lookup.
_ID_ENTRY = (0,), (1,)
_memos: dict[Mode, dict[_Window, _Entry]] = {"K": {(): _ID_ENTRY}, "cohomology": {(): _ID_ENTRY}}
_lookups = dict.fromkeys(_memos, 0)
# Mode -> window -> the Polynomial that grothendieck or schubert returns,
# made on the window's first such read; its memo entry becomes the
# views of its dict, so the terms are not held twice.
_polynomials: dict[Mode, dict[_Window, Polynomial]] = {mode: {} for mode in _memos}


def grothendieck(p: Permutation) -> Polynomial:
    """The Grothendieck polynomial of p, by the transition formula.

    Memoised per window: a repeated call returns the same object, and the
    memoised polynomials are only read.  ``grothendieck.cache_info()``
    and ``grothendieck.cache_clear()`` work as for ``functools.cache``;
    the clear also empties the cohomology memo of :func:`schubert`.
    """
    return _read(p.window, "K")


def _read(window: _Window, mode: Mode) -> Polynomial:
    """G (K) or S (cohomology) of a window as one counted lookup of
    :func:`_read_entry`, one Polynomial per window however often read."""
    polynomials = _polynomials[mode]
    found = polynomials.get(window)
    if found is None:
        terms = dict(zip(*_read_entry(window, mode)))
        found = polynomials[window] = _unchecked(terms)
        _memos[mode][window] = terms.keys(), terms.values()
    else:
        _lookups[mode] += 1
    return found


def _read_entry(window: _Window, mode: Mode) -> _Entry:
    """The memo entry of a window as one counted lookup, the one read of
    the memos; a miss sums :func:`_transition_dag` into the memo, each
    window reading its q and children: 1 + len(children) lookups."""
    memo = _memos[mode]
    found = memo.get(window)
    if found is None:
        for needing, (g, q, children) in _transition_dag(window, mode, memo).items():
            terms = _transition_sum(memo, g, q, children, mode)
            memo[needing] = tuple(terms), tuple(terms.values())
            _lookups[mode] += 1 + len(children)
        found = memo[window]
    _lookups[mode] += 1
    return found


def _transition_dag(root: _Window, mode: Mode, done: Container[_Window]) -> dict:
    """{window: its marches (g, q, children)} for root and every window it
    needs not in done, each after the windows it reads; {} when root is
    done.  Raises ExponentCeilingExceeded, before any march, unless G of
    root fits the packed fields.

    An explicit stack marches each window and pushes the first of its q
    and children not yet done or listed; a window is listed when all of
    them are.  The windows form a DAG because the transition formula
    terminates on every permutation (Lascoux), so the windows on the
    stack, ancestors of the one marched, are never among its needs and
    each window is marched once."""
    # Every monomial of G_p divides x1^(n-1) x2^(n-2) ... x_{n-1}, n = len(root).
    if len(root) - 1 > poly.MAX_EXPONENT:
        raise ExponentCeilingExceeded(
            f"window {len(root)} gives exponents up to {len(root) - 1}; "
            f"they stop at {poly.MAX_EXPONENT}"
        )
    dag: dict = {}
    if root in done:
        return dag
    marches = _window_marches(root, mode)
    stack = [(root, marches, iter((marches[1], *marches[2].values())))]
    while stack:
        window, marches, pending = stack[-1]
        for needed in pending:
            if needed not in done and needed not in dag:  # not the identity (done): it marches
                marches = _window_marches(needed, mode)
                stack.append((needed, marches, iter((marches[1], *marches[2].values()))))
                break
        else:
            stack.pop()
            dag[window] = marches
    return dag


def _read_once(root: _Window) -> Polynomial:
    """G of root, equal to :func:`grothendieck`'s, by a walk that neither
    reads nor fills the memo, nor counts a lookup.

    It counts each window of root's :func:`_transition_dag` by its
    readers, the windows whose transition reads it, and sums the DAG in
    its order into a private store seeded with the identity, dropping
    each window's G once its last reader is summed, so only the G still
    to be read are live at a time, not the G of the whole DAG.  Its
    entries are the views of each summed dict, so no tuples are built."""
    dag = _transition_dag(root, "K", {()})
    readers = Counter(w for _, q, children in dag.values() for w in (q, *children.values()))
    store, terms = {(): _ID_ENTRY}, {0: 1}
    for window, (g, q, children) in dag.items():
        terms = _transition_sum(store, g, q, children, "K")
        store[window] = terms.keys(), terms.values()
        for needed in (q, *children.values()):
            readers[needed] -= 1
            if not readers[needed]:
                del store[needed]
    return _unchecked(terms)  # root's, summed last


def _transition_sum(
    store: dict[_Window, _Entry], g: int, q: _Window, children: dict, mode: Mode
) -> dict[int, int]:
    """The terms of x_g G_q + (x_g - 1) sum_I (-1)^|I| G_{child_I} in K,
    or of its lowest degree part x_g S_q + sum_i S_{child_i} in
    cohomology, read from the entries of store.  The sign (-1)^|I| is
    folded into each child's coefficients once, so one loop sums every
    child, whatever the size of its march set.

    No term cancels: length(q) = length(p) - 1 and length(child_I) =
    length(p) - 1 + |I|, so if every coefficient of degree D in G_w has
    the sign (-1)^(D - length(w)), as it has for G_id = 1, every
    contribution to a degree-D term of G_p has the sign
    (-1)^(D - length(p)), and G_p keeps the law; S_p has no sign.
    """
    x_g = (1 << _variable_shift(g)) + 1  # one more x_g, one more degree
    out = {e + x_g: c for e, c in zip(*store[q])}
    get = out.get
    if mode == "cohomology":
        for child in children.values():
            for e, c in zip(*store[child]):
                out[e] = get(e, 0) + c
        return out
    for rows, child in children.items():
        exponents, coefficients = store[child]
        if not len(rows) % 2:
            coefficients = map(neg, coefficients)
        for e, c in zip(exponents, coefficients):
            raised = e + x_g
            out[raised] = get(raised, 0) - c
            out[e] = get(e, 0) + c
    return out


def _cache_info(mode: Mode) -> _CacheInfo:
    memo = _memos[mode]
    misses = len(memo) - 1
    return _CacheInfo(_lookups[mode] - misses, misses, None, len(memo))


def _cache_clear() -> None:
    for mode, memo in _memos.items():
        memo.clear()
        memo[()] = _ID_ENTRY
        _polynomials[mode].clear()
        _lookups[mode] = 0


def schubert(p: Permutation) -> Polynomial:
    """The Schubert polynomial, homogeneous of degree length(p): the
    lowest-degree part of the Grothendieck polynomial, summed by the
    cohomology transition into its own memo.  ``schubert.cache_info()``
    views that memo as ``grothendieck.cache_info()`` views the K one;
    either ``cache_clear()`` empties both."""
    return _read(p.window, "cohomology")


grothendieck.cache_info = lambda: _cache_info("K")
schubert.cache_info = lambda: _cache_info("cohomology")
grothendieck.cache_clear = schubert.cache_clear = _cache_clear


# -- the divided-difference construction ---------------------------------


def divided_difference(f: Polynomial, i: int) -> Polynomial:
    """d_i f = (f - s_i f) / (x_i - x_{i+1}), with nothing divided: for
    x = x_i, y = x_{i+1} and a > b, d_i(x^a y^b) = (x y)^b h_{a-b-1}(x, y)
    is x^(a-1) y^b + x^(a-2) y^(b+1) + ... + x^b y^(a-1), a packed step
    apart; d_i(x^b y^a) is its negative and d_i(x^a y^a) = 0."""
    if i < 1:
        raise ValueError("variables are 1-based")
    si, sj = _variable_shift(i), _variable_shift(i + 1)
    x, y = 1 << si, 1 << sj
    out: dict[int, int] = {}
    get = out.get
    for e, c in f._terms.items():
        a, b = e >> si & FIELD_MASK, e >> sj & FIELD_MASK
        if a > b:
            e, step, k = e - x - 1, y - x, a - b
        elif a < b:
            e, step, k, c = e - y - 1, x - y, b - a, -c
        else:
            continue
        for _ in range(k):
            out[e] = get(e, 0) + c
            e += step
    return _unchecked({e: c for e, c in out.items() if c})


def isobaric_divided_difference(f: Polynomial, i: int) -> Polynomial:
    """pi_i f = d_i((1 - x_{i+1}) f)."""
    return divided_difference(f - Polynomial.variable(i + 1) * f, i)


def grothendieck_dd(p: Permutation, n: int) -> Polynomial:
    """Independent oracle: Grothendieck polynomial inside an ambient S_n.

    The longest element gets the staircase monomial x1^(n-1)...x_{n-1};
    shorter permutations are reached by isobaric divided differences at
    ascent positions.  Must equal :func:`grothendieck` whenever the
    window fits.
    """
    if p.size() > n:
        raise ValueError(f"window of {p} exceeds S_{n}")
    window = [p(i) for i in range(1, n + 1)]
    # Swap first ascents up to the longest element, then apply pi_i back down.
    chain = []
    for _ in range(n * (n - 1) // 2 - p.length()):
        i = next(i for i in range(1, n) if window[i - 1] < window[i])
        chain.append(i)
        window[i - 1], window[i] = window[i], window[i - 1]
    f = Polynomial.monomial(range(n - 1, 0, -1))
    for i in reversed(chain):
        f = isobaric_divided_difference(f, i)
    return f


# -- expansion in the Grothendieck or Schubert basis ---------------------


def expand_in_basis(f: Polynomial, mode: Mode = "K") -> ExpansionMap:
    """The unique finite map with f = sum of c_pi * G_pi, or of c_pi * S_pi
    in cohomology mode.

    Strips the leading term: among the terms of minimal degree, the one
    whose exponent is largest when compared from the highest variable
    down.  That is the unique monomial matching the Lehmer code of a
    permutation pi, which G_pi and S_pi carry with coefficient 1, so each
    strip settles one basis element for good.  With higher variables in
    higher bits it is the largest packed int of its degree.  The
    remainder is one private dict, updated in place term by term of
    ``coeff * G_pi``, and its leading term is the top of a min-heap of
    the negated packed exponents of the remainder's lowest degree;
    entries whose exponent has left the dict are dropped when they reach
    the top.  A strip costs about ``len(G_pi)`` dict and heap operations,
    whatever the size of the remainder.  The terms of G_pi have degree at
    least ``len(pi)``, the current lowest degree, and those of S_pi have
    exactly that degree, so the degree never falls: a new heap is built
    only when a degree is used up, by one scan of the remainder, and
    expansions with few strips key few terms.

    Strips are kept and checked by canonical window, decoded from the
    leading exponent, and each strip's basis element is read through
    :func:`_read_entry`, under :func:`grothendieck` and :func:`schubert`.
    The windows become :class:`Permutation` keys once, at the end, in
    strip order; each is given its length, the degree of its strip, so
    sorting or filtering the result by length counts no inversions.

    More than :data:`EXPANSION_ITERATION_CEILING` strips raise
    :class:`ExpansionCeilingExceeded`, and an unknown mode ``ValueError``.
    """
    _check_mode(mode)
    # window -> (coefficient, length of the permutation), in strip order
    strips: dict[_Window, tuple[int, int]] = {}
    remaining = dict(f._terms)
    degree, heap = -1, []
    while remaining:
        while heap and -heap[0] not in remaining:
            heapq.heappop(heap)
        if not heap:
            # All in C; a bound DEGREE_MASK.__and__ would make a tuple per call.
            degree = min(map(and_, remaining, repeat(DEGREE_MASK)))
            heap = [-e for e in remaining if e & DEGREE_MASK == degree]
            heapq.heapify(heap)
        if len(strips) >= EXPANSION_ITERATION_CEILING:
            raise ExpansionCeilingExceeded(
                f"basis expansion needs more than {EXPANSION_ITERATION_CEILING} strips"
            )
        exponent = -heap[0]
        coeff = remaining[exponent]
        window = _lehmer_window(_unpack(exponent))
        if window in strips:
            raise RuntimeError(
                f"basis expansion revisited {Permutation._trusted(window)}; ordering bug"
            )
        # A Lehmer code sums to its permutation's length.
        strips[window] = coeff, degree
        for e, c in zip(*_read_entry(window, mode)):
            c *= coeff
            left = remaining.get(e)
            if left is None:
                remaining[e] = -c
                if e & DEGREE_MASK == degree:
                    heapq.heappush(heap, -e)
            elif left == c:
                del remaining[e]
            else:
                remaining[e] = left - c
    return {
        Permutation._trusted(window, length): coeff
        for window, (coeff, length) in strips.items()
    }


def structure_constants(sigma: Permutation, rho: Permutation, mode: Mode = "K") -> ExpansionMap:
    """Coefficients of G_sigma * G_rho in the Grothendieck basis, or of
    S_sigma * S_rho in the Schubert basis in cohomology mode; the
    ground-truth oracle for the marching formula."""
    _check_mode(mode)
    return expand_in_basis(_read(sigma.window, mode) * _read(rho.window, mode), mode)


def parse_expansion(pairs: dict[str, int]) -> ExpansionMap:
    """Texts -> Permutations: the inverse of ``json.loads`` of
    :func:`expansion_to_json`."""
    return {Permutation.parse(text): c for text, c in pairs.items()}


def expansion_to_json(expansion: ExpansionMap) -> str:
    """A JSON object text -> coefficient, ordered by length and then by text."""
    # Texts are distinct, so the sort never compares coefficients.
    keyed = sorted((perm.length(), perm.text(), c) for perm, c in expansion.items())
    return json.dumps({text: c for _, text, c in keyed})
