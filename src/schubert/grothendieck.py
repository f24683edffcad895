"""Grothendieck and Schubert polynomials, and the basis-expansion oracle.

Two independent constructions of the Grothendieck polynomial are kept:

* :func:`grothendieck` recurses on the transition formula

      G_gamma = G_gamma' + (x_g - 1) * sum over subsets S of pivot rows
                of (-1)^|S| G_{gamma' t_{i<->g} ...}

  with base case G_id = 1, where gamma' removes the maximal corner.
  The sum and the product by the binomial x_g - 1 are accumulated in
  one pass over plain dicts of packed exponents (see :mod:`schubert.poly`),
  not through polynomial arithmetic: raising x_g adds
  ``(1 << (DEGREE_BITS + EXPONENT_BITS (g - 1))) + 1`` to the packed
  int.  Every monomial of G_w for w in S_n divides the staircase
  x1^(n-1) x2^(n-2) ... x_{n-1}, so a window of n <= MAX_EXPONENT + 1
  (256) keeps every field within its bound; a longer window raises
  :class:`schubert.poly.ExponentCeilingExceeded` before any work.

* :func:`grothendieck_dd` applies isobaric divided differences
  pi_i f = d_i((1 - x_{i+1}) f) downward from the staircase monomial of
  the longest element.  The two must agree everywhere; the test suite
  sweeps S_5.

Expansion of an arbitrary integer polynomial in the Grothendieck basis
repeatedly strips the leading term (the Lehmer-code monomial of some
permutation, unique by :func:`schubert.poly.leading_term`), which is
the brute-force oracle for structure constants.  The remainder lives in
one mutable dict and the leading term of its lowest degree is kept on a
lazily pruned heap, so a strip touches only the terms of the subtracted
basis element.  Packed exponents become tuples only for
:meth:`Permutation.from_lehmer`, once per strip.
"""
from __future__ import annotations

import functools
import heapq
import json

from . import poly
from .diagram import march_children, transition_pair
from .permutations import Permutation
from .poly import (
    DEGREE_MASK,
    FIELD_MASK,
    ExponentCeilingExceeded,
    Polynomial,
    _unchecked,
    _unpack,
    _variable_shift,
)

ExpansionMap = dict[Permutation, int]

EXPANSION_ITERATION_CEILING = 100_000


class ExpansionCeilingExceeded(RuntimeError):
    """A basis expansion needs more strips than EXPANSION_ITERATION_CEILING."""


class NonExactDivision(ArithmeticError):
    """A divided difference failed to divide exactly; an implementation bug."""


@functools.cache
def grothendieck(p: Permutation) -> Polynomial:
    """The Grothendieck polynomial of p, by the transition recursion.

    The alternating sum and ``base + (x_g - 1) * alternating`` are
    accumulated in fresh dicts; the memoised polynomials are only read.
    """
    if p.is_identity():
        return Polynomial.constant(1)
    # Every monomial of G_p divides x1^(n-1) x2^(n-2) ... x_{n-1}, n = p.size().
    if p.size() - 1 > poly.MAX_EXPONENT:
        raise ExponentCeilingExceeded(
            f"window {p.size()} gives exponents up to {p.size() - 1}; "
            f"they stop at {poly.MAX_EXPONENT}"
        )
    g, _, q = transition_pair(p)
    base = grothendieck(q)._terms
    alternating = dict(base)
    for rows, child in march_children(p, "K"):
        sign = -1 if len(rows) % 2 else 1
        for e, c in grothendieck(child)._terms.items():
            alternating[e] = alternating.get(e, 0) + sign * c
    result = dict(base)
    x_g = (1 << _variable_shift(g)) + 1  # one more x_g, one more degree
    for e, c in alternating.items():
        if not c:
            continue
        result[e] = result.get(e, 0) - c
        raised = e + x_g
        result[raised] = result.get(raised, 0) + c
    return _unchecked({e: c for e, c in result.items() if c})


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
    x_i = Polynomial.variable(i)
    quotient = Polynomial.zero()
    carry = Polynomial.zero()
    for k in range(top, 0, -1):
        carry = coeffs.get(k, Polynomial.zero()) + y * carry
        quotient = quotient + carry * _power(x_i, k - 1)
    remainder = coeffs.get(0, Polynomial.zero()) + y * carry
    if not remainder.is_zero():
        raise NonExactDivision(f"remainder {remainder} dividing by x{i} - x{i + 1}")
    return quotient


def _power(f: Polynomial, k: int) -> Polynomial:
    out = Polynomial.constant(1)
    for _ in range(k):
        out = out * f
    return out


def grothendieck_dd(p: Permutation, n: int) -> Polynomial:
    """Independent oracle: Grothendieck polynomial inside an ambient S_n.

    The longest element gets the staircase monomial x1^(n-1)...x_{n-1};
    shorter permutations are reached by isobaric divided differences at
    ascent positions.  Must equal :func:`grothendieck` whenever the
    window fits.
    """
    if p.size() > n:
        raise ValueError(f"window of {p} exceeds S_{n}")
    return _dd_memo(tuple(p(i) for i in range(1, n + 1)), n)


@functools.cache
def _dd_memo(window: tuple[int, ...], n: int) -> Polynomial:
    if window == tuple(range(n, 0, -1)):
        return Polynomial.monomial(tuple(range(n - 1, 0, -1)))
    i = next(i for i in range(n - 1) if window[i] < window[i + 1])
    longer = list(window)
    longer[i], longer[i + 1] = longer[i + 1], longer[i]
    return isobaric_divided_difference(_dd_memo(tuple(longer), n), i + 1)


# -- expansion in the Grothendieck basis ---------------------------------


def expand_in_basis(f: Polynomial) -> ExpansionMap:
    """The unique finite map with f = sum of c_pi * G_pi.

    Strips the leading (minimal-degree, Lehmer-leading) term, which the
    corresponding Grothendieck polynomial carries with coefficient 1, so
    each strip settles one basis element for good.  The remainder is one
    private dict, updated in place term by term of ``coeff * G_pi``, and
    its leading term is the top of a min-heap of the negated packed
    exponents of the remainder's lowest degree (within one degree the
    Lehmer order of ``poly._lehmer_key`` is the order of ``-e``); entries
    whose exponent has left the dict are dropped when they reach the top.  A
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
        perm = Permutation.from_lehmer(_unpack(exponent))
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
    return {
        perm.text(): expansion[perm]
        for perm in sorted(expansion, key=lambda q: (q.length(), q.text()))
    }


def expansion_to_json(expansion: ExpansionMap) -> str:
    return json.dumps(expansion_to_json_obj(expansion))
