"""Grothendieck and Schubert polynomials, and the basis-expansion oracle.

Two independent constructions of the Grothendieck polynomial are kept:

* :func:`grothendieck` evaluates Lascoux's transition formula

      G_p = x_g * G_q + (x_g - 1) * sum over non-empty sets I of pivot
            rows of (-1)^|I| G_{q t_{i1<->g} ... t_{ik<->g}}

  with base case G_id = 1, where g is the last descent of p and
  q = p t_{g<->m} removes the maximal corner (the K-march children of
  :mod:`schubert.diagram`).  The windows the formula needs form a DAG,
  yielded in post-order by the explicit-stack walk that
  :func:`schubert.trees.leaf_counts` also uses, so no window is too
  long for the interpreter's recursion limit.  One memo maps each
  window to its polynomial, and the walk stops at memoised windows.
  A node is summed once, as soon as it is yielded, into one fresh dict
  of packed exponents (see :mod:`schubert.poly`), not through
  polynomial arithmetic: raising x_g adds
  ``(1 << (DEGREE_BITS + EXPONENT_BITS (g - 1))) + 1`` to the packed
  int.  The sum cancels no term, so nothing is filtered.  Every
  monomial of G_w for w in S_n divides the staircase
  x1^(n-1) x2^(n-2) ... x_{n-1}, and every window of the walk is at
  most as long as the root's, so a root window of n <= MAX_EXPONENT + 1
  (256) keeps every field within its bound; a longer window raises
  :class:`schubert.poly.ExponentCeilingExceeded` before any work.

* :func:`grothendieck_dd` applies isobaric divided differences
  pi_i f = d_i((1 - x_{i+1}) f) downward from the staircase monomial of
  the longest element.  The two must agree everywhere; the test suite
  sweeps S_5.

Expansion of an arbitrary integer polynomial in the Grothendieck basis
repeatedly strips the leading term (the Lehmer-code monomial of some
permutation, see :func:`expand_in_basis`), which is the brute-force
oracle for structure constants.  The remainder lives in one mutable
dict and the leading term of its lowest degree is kept on a lazily
pruned heap, so a strip touches only the terms of the subtracted basis
element.  The leading exponent of a strip, read as a Lehmer code, is
decoded straight to the canonical window of its permutation.
"""
from __future__ import annotations

import heapq
import json
from typing import NamedTuple

from . import poly
from .diagram import _Window, _post_order, _window_marches
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


class NonExactDivision(ArithmeticError):
    """A divided difference failed to divide exactly; an implementation bug."""


class _CacheInfo(NamedTuple):
    hits: int
    misses: int
    maxsize: None
    currsize: int


_ONE = Polynomial.constant(1)
# Window -> G; the identity is the base case.  Every other entry is one
# miss of the walk, and every read of a window, by a caller or by a node
# of the walk, is one lookup.
_memo: dict[_Window, Polynomial] = {(): _ONE}
_lookups = 0


def grothendieck(p: Permutation) -> Polynomial:
    """The Grothendieck polynomial of p, by the transition formula.

    Memoised per window: a repeated call returns the same object, and the
    memoised polynomials are only read.  ``grothendieck.cache_info()``
    and ``grothendieck.cache_clear()`` work as for ``functools.cache``.
    """
    global _lookups
    window = p.window
    found = _memo.get(window)
    if found is None:
        # Every monomial of G_p divides x1^(n-1) x2^(n-2) ... x_{n-1}, n = p.size().
        if len(window) - 1 > poly.MAX_EXPONENT:
            raise ExponentCeilingExceeded(
                f"window {len(window)} gives exponents up to {len(window) - 1}; "
                f"they stop at {poly.MAX_EXPONENT}"
            )
        _walk(window)
        found = _memo[window]
    _lookups += 1
    return found


def _walk(root: _Window) -> None:
    """Memoise G of root and of every window it needs, each as soon as
    the walk yields it, so each node is summed from memoised windows.
    The transition formula terminates on every permutation (Lascoux), so
    the windows form a DAG.  Each summed node reads its q and its
    children: 1 + len(children) lookups.
    """
    global _lookups
    memo = _memo
    lookups = 0
    try:
        for window, node in _post_order(root, _transition_node, memo):
            memo[window] = _transition_sum(*node)
            lookups += 1 + len(node[2])
    finally:
        _lookups += lookups


def _transition_node(window: _Window) -> tuple[tuple, tuple[_Window, ...]]:
    """(g, q, {I: child_I}) of window, and the windows its sum reads."""
    node = _window_marches(window, "K")
    return node, (node[1], *node[2].values())


def _transition_sum(g: int, q: _Window, children: dict) -> Polynomial:
    """x_g G_q + (x_g - 1) sum_I (-1)^|I| G_{child_I}, from the memo.

    No term cancels: length(q) = length(p) - 1 and length(child_I) =
    length(p) - 1 + |I|, so if every coefficient of degree D in G_w has
    the sign (-1)^(D - length(w)), as it has for G_id = 1, every
    contribution to a degree-D term of G_p has the sign
    (-1)^(D - length(p)), and G_p keeps the law.
    """
    memo = _memo
    x_g = (1 << _variable_shift(g)) + 1  # one more x_g, one more degree
    out = {e + x_g: c for e, c in memo[q]._terms.items()}
    get = out.get
    for rows, child in children.items():
        terms = memo[child]._terms
        if len(rows) % 2:
            for e, c in terms.items():
                raised = e + x_g
                out[raised] = get(raised, 0) - c
                out[e] = get(e, 0) + c
        else:
            for e, c in terms.items():
                raised = e + x_g
                out[raised] = get(raised, 0) + c
                out[e] = get(e, 0) - c
    return _unchecked(out)


def _cache_info() -> _CacheInfo:
    misses = len(_memo) - 1
    return _CacheInfo(_lookups - misses, misses, None, len(_memo))


def _cache_clear() -> None:
    global _lookups
    _memo.clear()
    _memo[()] = _ONE
    _lookups = 0


grothendieck.cache_info = _cache_info
grothendieck.cache_clear = _cache_clear


def schubert(p: Permutation) -> Polynomial:
    """The Schubert polynomial: lowest-degree part of the Grothendieck
    polynomial, homogeneous of degree length(p)."""
    return grothendieck(p).lowest_degree_part()


# -- the divided-difference construction ---------------------------------


def divided_difference(f: Polynomial, i: int) -> Polynomial:
    """d_i f = (f - s_i f) / (x_i - x_{i+1}), exactly."""
    return _divide_by_root_difference(f - f.swap_variables(i, i + 1), i)


def isobaric_divided_difference(f: Polynomial, i: int) -> Polynomial:
    """pi_i f = d_i((1 - x_{i+1}) f)."""
    return divided_difference(f - Polynomial.variable(i + 1) * f, i)


def _divide_by_root_difference(f: Polynomial, i: int) -> Polynomial:
    """Synthetic division by (x_i - x_{i+1}) with a zero-remainder check."""
    if f.is_zero():
        return f
    # Split f by the exponent of x_i: f = sum_k c_k(x) * x_i^k.
    shift = _variable_shift(i)
    layers: dict[int, dict[int, int]] = {}
    for e, c in f._terms.items():
        k = e >> shift & FIELD_MASK
        layers.setdefault(k, {})[e - (k << shift) - k] = c
    top = max(layers)
    coeffs = {k: _unchecked(terms) for k, terms in layers.items()}
    y = Polynomial.variable(i + 1)
    quotient = Polynomial.zero()
    carry = Polynomial.zero()
    for k in range(top, 0, -1):
        carry = coeffs.get(k, Polynomial.zero()) + y * carry
        x_i_power = Polynomial.monomial((0,) * (i - 1) + (k - 1,))  # x_i^(k-1)
        quotient = quotient + carry * x_i_power
    remainder = coeffs.get(0, Polynomial.zero()) + y * carry
    if not remainder.is_zero():
        raise NonExactDivision(f"remainder {remainder} dividing by x{i} - x{i + 1}")
    return quotient


# Full window in S_n -> its G; the window's length fixes n.
_dd_memo: dict[_Window, Polynomial] = {}


def grothendieck_dd(p: Permutation, n: int) -> Polynomial:
    """Independent oracle: Grothendieck polynomial inside an ambient S_n.

    The longest element gets the staircase monomial x1^(n-1)...x_{n-1};
    shorter permutations are reached by isobaric divided differences at
    ascent positions.  Must equal :func:`grothendieck` whenever the
    window fits.
    """
    if p.size() > n:
        raise ValueError(f"window of {p} exceeds S_{n}")
    window = tuple(p(i) for i in range(1, n + 1))
    longest = tuple(range(n, 0, -1))
    # Swap the first ascent up to a memoised window or to the longest
    # element, then apply pi_i back down that chain.
    chain = []
    while window not in _dd_memo:
        if window == longest:
            _dd_memo[window] = Polynomial.monomial(range(n - 1, 0, -1))
            break
        i = next(i for i in range(1, n) if window[i - 1] < window[i])
        chain.append((window, i))
        longer = list(window)
        longer[i - 1], longer[i] = longer[i], longer[i - 1]
        window = tuple(longer)
    f = _dd_memo[window]
    for shorter, i in reversed(chain):
        f = _dd_memo[shorter] = isobaric_divided_difference(f, i)
    return f


# -- expansion in the Grothendieck basis ---------------------------------


def expand_in_basis(f: Polynomial) -> ExpansionMap:
    """The unique finite map with f = sum of c_pi * G_pi.

    Strips the leading term: among the terms of minimal degree, the one
    whose exponent is largest when compared from the highest variable
    down.  That is the unique monomial matching the Lehmer code of a
    permutation pi, which G_pi carries with coefficient 1, so each strip
    settles one basis element for good.  With higher variables in higher
    bits it is the largest packed int of its degree.  The remainder is
    one private dict, updated in place term by term of ``coeff * G_pi``,
    and its leading term is the top of a min-heap of the negated packed
    exponents of the remainder's lowest degree; entries whose exponent
    has left the dict are dropped when they reach the top.  A
    strip costs about ``len(G_pi)`` dict and heap operations, whatever
    the size of the remainder.  The terms of G_pi have degree at least
    ``len(pi)``, the current lowest degree, so the degree never falls:
    a new heap is built only when a degree is used up, by one scan of
    the remainder, and expansions with few strips key few terms.

    More than :data:`EXPANSION_ITERATION_CEILING` strips raise
    :class:`ExpansionCeilingExceeded`.
    """
    coefficients: ExpansionMap = {}
    remaining = dict(f._terms)
    degree, heap = -1, []
    while remaining:
        while heap and -heap[0] not in remaining:
            heapq.heappop(heap)
        if not heap:
            degree = min(e & DEGREE_MASK for e in remaining)
            heap = [-e for e in remaining if e & DEGREE_MASK == degree]
            heapq.heapify(heap)
        if len(coefficients) >= EXPANSION_ITERATION_CEILING:
            raise ExpansionCeilingExceeded(
                f"basis expansion needs more than {EXPANSION_ITERATION_CEILING} strips"
            )
        exponent = -heap[0]
        coeff = remaining[exponent]
        perm = Permutation._trusted(_lehmer_window(_unpack(exponent)))
        if perm in coefficients:
            raise RuntimeError(f"basis expansion revisited {perm}; ordering bug")
        coefficients[perm] = coeff
        for e, c in grothendieck(perm)._terms.items():
            if e not in remaining:
                remaining[e] = -coeff * c
                if e & DEGREE_MASK == degree:
                    heapq.heappush(heap, -e)
            elif remaining[e] == coeff * c:
                del remaining[e]
            else:
                remaining[e] -= coeff * c
    return coefficients


def structure_constants(sigma: Permutation, rho: Permutation) -> ExpansionMap:
    """Coefficients of G_sigma * G_rho in the Grothendieck basis; the
    ground-truth oracle for the marching formula."""
    return expand_in_basis(grothendieck(sigma) * grothendieck(rho))


def expansion_to_json_obj(expansion: ExpansionMap) -> dict[str, int]:
    """Text -> coefficient, ordered by length and then by text."""
    # Texts are distinct, so the sort never compares coefficients.
    keyed = sorted((perm.length(), perm.text(), c) for perm, c in expansion.items())
    return {text: c for _, text, c in keyed}


def parse_expansion(pairs: dict[str, int]) -> ExpansionMap:
    """The inverse of :func:`expansion_to_json_obj`: texts -> Permutations."""
    return {Permutation.parse(text): c for text, c in pairs.items()}


def expansion_to_json(expansion: ExpansionMap) -> str:
    return json.dumps(expansion_to_json_obj(expansion))
