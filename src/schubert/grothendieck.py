"""Grothendieck and Schubert polynomials, and the basis-expansion oracle.

Two independent constructions of the Grothendieck polynomial are kept:

* :func:`grothendieck` recurses on the transition formula

      G_gamma = G_gamma' + (x_g - 1) * sum over subsets S of pivot rows
                of (-1)^|S| G_{gamma' t_{i<->g} ...}

  with base case G_id = 1, where gamma' removes the maximal corner.

* :func:`grothendieck_dd` applies isobaric divided differences
  pi_i f = d_i((1 - x_{i+1}) f) downward from the staircase monomial of
  the longest element.  The two must agree everywhere; the test suite
  sweeps S_5.

Expansion of an arbitrary integer polynomial in the Grothendieck basis
repeatedly strips the leading term (the Lehmer-code monomial of some
permutation, unique by :func:`schubert.poly.leading_term`), which is
the brute-force oracle for structure constants.
"""
from __future__ import annotations

import functools
import json

from .diagram import march_children, transition_pair
from .permutations import Permutation
from .poly import Polynomial, leading_term

ExpansionMap = dict[Permutation, int]

EXPANSION_ITERATION_CEILING = 100_000


class NonExactDivision(ArithmeticError):
    """A divided difference failed to divide exactly; an implementation bug."""


@functools.cache
def grothendieck(p: Permutation) -> Polynomial:
    """The Grothendieck polynomial of p, by the transition recursion."""
    if p.is_identity():
        return Polynomial.constant(1)
    g, _, q = transition_pair(p)
    base = grothendieck(q)
    alternating = base
    for rows, child in march_children(p, "K"):
        alternating = alternating + grothendieck(child) * (-1) ** len(rows)
    x_g = Polynomial.variable(g)
    return base + (x_g - 1) * alternating


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
    layers: dict[int, dict[tuple[int, ...], int]] = {}
    for e, c in f.terms():
        k = e[i - 1] if len(e) >= i else 0
        rest = list(e)
        if len(rest) >= i:
            rest[i - 1] = 0
        layers.setdefault(k, {})[tuple(rest)] = c
    top = max(layers)
    coeffs = {k: Polynomial(terms) for k, terms in layers.items()}
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
    each iteration settles one basis element for good.
    """
    coefficients: ExpansionMap = {}
    remaining = f
    for _ in range(EXPANSION_ITERATION_CEILING):
        if remaining.is_zero():
            return coefficients
        exponent, coeff = leading_term(remaining)
        perm = Permutation.from_lehmer(exponent)
        if perm in coefficients:
            raise RuntimeError(f"basis expansion revisited {perm}; ordering bug")
        coefficients[perm] = coeff
        remaining = remaining + grothendieck(perm) * -coeff
    raise RuntimeError("basis expansion did not terminate; ordering bug")


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
