"""Exact sparse polynomials over the integers in x1, x2, ...

Terms map trimmed (no trailing zero), non-negative exponent tuples to
non-zero Python ints, so all arithmetic is arbitrary precision.  The
public constructor checks outside input; the ring operations keep the
invariant without re-checking.  The canonical term order (iteration
and printing) is total degree ascending, then exponents descending
lexicographically, which renders e.g. ``x1 + x2 - x1*x2``.

The basis-expansion oracle needs a different tie-break inside a degree
layer: :func:`leading_term` picks the monomial that is largest when
exponents are compared from the highest variable down.  That is the
unique monomial matching the Lehmer code of a permutation, which is
what makes elimination against the Grothendieck basis terminate.  The
order is defined once, by ``_lehmer_key``, which the heap of
:func:`schubert.grothendieck.expand_in_basis` also uses.
"""
from __future__ import annotations

import re
from operator import add, neg
from typing import Iterable, Iterator, Mapping

Exponent = tuple[int, ...]


def _trim(exponent: Iterable[int]) -> Exponent:
    e = tuple(exponent)
    while e and e[-1] == 0:
        e = e[:-1]
    return e


def term_key(exponent: Exponent) -> tuple[int, tuple[int, ...]]:
    """Canonical sort key: (total degree, lex-descending exponents)."""
    return (sum(exponent), tuple(-v for v in exponent))


class Polynomial:
    """Immutable sparse polynomial with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Iterable[int], int] | None = None):
        clean: dict[Exponent, int] = {}
        if terms:
            for exponent, coeff in terms.items():
                e = _trim(exponent)
                if any(v < 0 for v in e):
                    raise ValueError(f"negative exponent in {e}")
                clean[e] = clean.get(e, 0) + int(coeff)
        self._terms = {e: c for e, c in clean.items() if c}

    # -- construction --------------------------------------------------

    @classmethod
    def zero(cls) -> Polynomial:
        return cls()

    @classmethod
    def constant(cls, c: int) -> Polynomial:
        return cls({(): c})

    @classmethod
    def variable(cls, i: int) -> Polynomial:
        """The variable x_i (1-based)."""
        if i < 1:
            raise ValueError("variables are 1-based")
        return cls({(0,) * (i - 1) + (1,): 1})

    @classmethod
    def monomial(cls, exponent: Iterable[int], coeff: int = 1) -> Polynomial:
        return cls({tuple(exponent): coeff})

    # -- views ----------------------------------------------------------

    def terms(self) -> Iterator[tuple[Exponent, int]]:
        """Terms in canonical order."""
        for e in sorted(self._terms, key=term_key):
            yield e, self._terms[e]

    def coefficient(self, exponent: Iterable[int]) -> int:
        return self._terms.get(_trim(exponent), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- ring arithmetic -----------------------------------------------

    def __add__(self, other: Polynomial | int) -> Polynomial:
        if isinstance(other, int):
            other = Polynomial.constant(other)
        result = dict(self._terms)
        for e, c in other._terms.items():
            result[e] = result.get(e, 0) + c
        # Only the terms of other can have cancelled.
        for e in [e for e in other._terms if not result[e]]:
            del result[e]
        return _unchecked(result)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return self * -1

    def __sub__(self, other: Polynomial | int) -> Polynomial:
        return self + other * -1

    def __rsub__(self, other: int) -> Polynomial:
        return self * -1 + other

    def __mul__(self, other: Polynomial | int) -> Polynomial:
        if isinstance(other, int):
            return _unchecked({e: other * c for e, c in self._terms.items() if other})
        result: dict[Exponent, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                # The sum of two trimmed non-negative exponents is already trimmed.
                e = tuple(map(add, e1, e2)) + e1[len(e2):] + e2[len(e1):]
                result[e] = result.get(e, 0) + c1 * c2
        return _unchecked({e: c for e, c in result.items() if c})

    __rmul__ = __mul__

    # -- queries ----------------------------------------------------------

    def min_degree(self) -> int:
        if self.is_zero():
            raise ValueError("the zero polynomial has no degree")
        return min(sum(e) for e in self._terms)

    def lowest_degree_part(self) -> Polynomial:
        """The homogeneous part of minimal total degree."""
        d = self.min_degree()
        return _unchecked({e: c for e, c in self._terms.items() if sum(e) == d})

    def truncate(self, t: int) -> Polynomial:
        """Set every variable beyond x_t to zero; a ring homomorphism."""
        if t < 0:
            raise ValueError("truncation index must be non-negative")
        return _unchecked({e: c for e, c in self._terms.items() if len(e) <= t})

    def swap_variables(self, i: int, j: int) -> Polynomial:
        """Substitute x_i <-> x_j (1-based)."""
        n = max(i, j)
        result: dict[Exponent, int] = {}
        for e, c in self._terms.items():
            padded = list(e) + [0] * (n - len(e))
            padded[i - 1], padded[j - 1] = padded[j - 1], padded[i - 1]
            result[_trim(padded)] = c
        return Polynomial(result)

    # -- text format ---------------------------------------------------

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Polynomial({self.render()!r})"

    def render(self) -> str:
        """Terms in canonical order, e.g. ``x1 + x2 - x1*x2``."""
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for e, c in self.terms():
            factors = [
                f"x{i}" if power == 1 else f"x{i}^{power}"
                for i, power in enumerate(e, start=1)
                if power
            ]
            magnitude = abs(c)
            if not factors:
                body = str(magnitude)
            elif magnitude == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(magnitude)] + factors)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


_TERM_RE = re.compile(r"^(?:(\d+)\*?)?((?:x\d+(?:\^\d+)?(?:\*x\d+(?:\^\d+)?)*))?$")


def parse_polynomial(text: str) -> Polynomial:
    """Parse the :meth:`Polynomial.render` format back exactly."""
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    if text == "0":
        return Polynomial.zero()
    tokens = text.replace("- ", "-").replace("+ ", "+").split()
    terms: dict[Exponent, int] = {}
    for token in tokens:
        sign = 1
        if token.startswith("-"):
            sign, token = -1, token[1:]
        elif token.startswith("+"):
            token = token[1:]
        match = _TERM_RE.match(token)
        if not match or (match.group(1) is None and not match.group(2)):
            raise ValueError(f"malformed polynomial term: {token!r}")
        coeff = sign * int(match.group(1) or 1)
        exponent: dict[int, int] = {}
        if match.group(2):
            for factor in match.group(2).split("*"):
                var, _, power = factor.partition("^")
                i = int(var[1:])
                exponent[i] = exponent.get(i, 0) + (int(power) if power else 1)
        n = max(exponent, default=0)
        e = tuple(exponent.get(i, 0) for i in range(1, n + 1))
        terms[e] = terms.get(e, 0) + coeff
    return Polynomial(terms)


def _unchecked(terms: dict[Exponent, int]) -> Polynomial:
    """Wrap ``terms`` without the constructor's checks: every exponent must
    be trimmed and non-negative, and every coefficient non-zero."""
    out = Polynomial.__new__(Polynomial)
    out._terms = terms
    return out


def _lehmer_key(exponent: Exponent) -> tuple[int, int, tuple[int, ...]]:
    """Sort key whose minimum is the leading term: lowest degree first, then
    largest when compared from the highest variable down.  A longer
    trimmed exponent has a non-zero entry in a higher variable, so it
    comes first within its degree."""
    return (sum(exponent), -len(exponent), tuple(map(neg, reversed(exponent))))


def leading_term(f: Polynomial) -> tuple[Exponent, int]:
    """The minimal-degree term maximal w.r.t. highest-variable-first lex.

    One ``min`` over :func:`_lehmer_key`, no sort.  For a Grothendieck
    polynomial this is exactly the Lehmer-code monomial, with
    coefficient 1.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has no leading term")
    best = min(f._terms, key=_lehmer_key)
    return best, f._terms[best]
