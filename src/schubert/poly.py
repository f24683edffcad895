"""Exact sparse polynomials over the integers in x1, x2, ...

Terms map exponents to non-zero Python ints, so all arithmetic is
arbitrary precision.  Inside a :class:`Polynomial` each exponent is one
packed, non-negative Python int:

* bits [0, DEGREE_BITS) hold the total degree;
* x_i sits in bits [DEGREE_BITS + EXPONENT_BITS (i - 1),
  DEGREE_BITS + EXPONENT_BITS i), one byte per variable.

Multiplying monomials is then adding their ints, the total degree is
``e & DEGREE_MASK``, setting x_{t+1}, x_{t+2}, ... to zero keeps the
exponents below ``1 << (DEGREE_BITS + EXPONENT_BITS t)``, and no fixed
number of variables is needed.  Every exponent of a variable is at
most :data:`MAX_EXPONENT` (255) and every total degree at most
:data:`MAX_DEGREE` (65,535); a field never carries into the next.  The
constructor checks each term, ``*`` checks its operands' largest fields
(one pass over each operand, not over the term pairs), and anything
beyond a bound raises :class:`ExponentCeilingExceeded`.  Exponent tuples
appear only at the public boundary: the constructor takes them and trims
trailing zeros, and :meth:`terms` returns them trimmed.  :meth:`terms`
and :meth:`render` both read :func:`_canonical`: two stable sorts of the
packed exponents by C key callables, descending by their little-endian
bytes, then ascending by degree.  :meth:`render` makes no tuples: it
joins the pieces of ``_render_chunks``, which formats :data:`_CHUNK_TERMS`
terms at a time, so the ``groth`` command writes each piece as it comes
and never holds the whole text.  The module writes polynomial text and
reads none.

The canonical term order (iteration and printing) is total degree
ascending, then exponents descending lexicographically, which renders
e.g. ``x1 + x2 - x1*x2``.  The basis expansion of
:func:`schubert.grothendieck.expand_in_basis` uses another order.
"""
from __future__ import annotations

from functools import reduce
from operator import methodcaller, or_
from typing import Collection, Iterable, Iterator, Mapping

Exponent = tuple[int, ...]

# The layout is byte-aligned, so tuples pack and unpack through bytes.
EXPONENT_BITS = 8
DEGREE_BITS = 16
DEGREE_MASK = (1 << DEGREE_BITS) - 1
FIELD_MASK = (1 << EXPONENT_BITS) - 1
# The checked bounds: a field never carries into the next.
MAX_EXPONENT = FIELD_MASK
MAX_DEGREE = DEGREE_MASK
# Terms per piece of rendered text: the pieces stay small, and the work per
# piece dwarfs a generator step.
_CHUNK_TERMS = 1024


class CeilingExceeded(RuntimeError):
    """A resource ceiling of the library was hit; the CLI exits 4 on any."""


class ExponentCeilingExceeded(CeilingExceeded):
    """An exponent or a total degree does not fit its packed field."""


def _pack(exponent: Iterable[int]) -> int:
    """The packed int of an exponent tuple; trailing zeros vanish."""
    e = tuple(exponent)
    if not e:
        return 0
    if {*map(type, e)} - {int}:  # bools and floats would pack as their values
        raise ValueError(f"exponent entry in {e} is not an int")
    if min(e) < 0:
        raise ValueError(f"negative exponent in {e}")
    if max(e) > MAX_EXPONENT:
        raise ExponentCeilingExceeded(f"exponent {max(e)} in {e} exceeds {MAX_EXPONENT}")
    degree = sum(e)
    if degree > MAX_DEGREE:
        raise ExponentCeilingExceeded(f"total degree {degree} of {e} exceeds {MAX_DEGREE}")
    return int.from_bytes(bytes(e), "little") << DEGREE_BITS | degree


def _unpack(e: int) -> Exponent:
    """The trimmed exponent tuple of a packed int."""
    v = e >> DEGREE_BITS
    return tuple(v.to_bytes((v.bit_length() + 7) >> 3, "little"))


def _canonical(terms: dict[int, int]) -> tuple[int, list[int]]:
    """The exponents' width in bytes, and the packed exponents in canonical
    order.  Within a degree, the little-endian bytes of a packed exponent
    compare x1, x2, ... after the equal degree bytes, and no trimmed
    exponent is a prefix of another, so a descending sort by those bytes
    and then a stable ascending sort by degree give the canonical order.
    Both keys are C callables; a degree above 255 fills the second degree
    byte, which only the stable degree sort reads right."""
    width = ((max(terms, default=0) >> DEGREE_BITS).bit_length() + 7) >> 3
    size = width + DEGREE_BITS // EXPONENT_BITS
    order = sorted(terms, key=methodcaller("to_bytes", size, "little"), reverse=True)
    order.sort(key=DEGREE_MASK.__and__)
    return width, order


def _variable_shift(i: int) -> int:
    """The lowest bit of the field of x_i (1-based)."""
    return DEGREE_BITS + EXPONENT_BITS * (i - 1)


def _check_product(f: dict[int, int], g: dict[int, int]) -> None:
    """Raise unless every field of e1 + e2 fits, for e1 in f and e2 in g.

    The OR of an operand's exponents bounds each of its fields from
    above, so one pass over each operand usually settles it; a field
    whose bounds add up past the ceiling is settled by its exact maxima.
    """
    if not f or not g:
        return
    or_f, or_g = reduce(or_, f), reduce(or_, g)
    if (or_f & DEGREE_MASK) + (or_g & DEGREE_MASK) > MAX_DEGREE:
        degree = _largest(f, 0, DEGREE_MASK) + _largest(g, 0, DEGREE_MASK)
        if degree > MAX_DEGREE:
            raise ExponentCeilingExceeded(
                f"a product of degree {degree}; degrees stop at {MAX_DEGREE}"
            )
    for i, (bound_f, bound_g) in enumerate(zip(_unpack(or_f), _unpack(or_g)), start=1):
        if bound_f + bound_g > MAX_EXPONENT:
            shift = _variable_shift(i)
            top = _largest(f, shift, FIELD_MASK) + _largest(g, shift, FIELD_MASK)
            if top > MAX_EXPONENT:
                raise ExponentCeilingExceeded(
                    f"a product with x{i}^{top}; exponents stop at {MAX_EXPONENT}"
                )


def _largest(terms: dict[int, int], shift: int, mask: int) -> int:
    return max(e >> shift & mask for e in terms)


class Polynomial:
    """Immutable sparse polynomial with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Iterable[int], int] | None = None):
        clean: dict[int, int] = {}
        if terms:
            for exponent, coeff in terms.items():
                if not isinstance(coeff, int):
                    raise ValueError(f"coefficient {coeff!r} is not an int")
                e = _pack(exponent)
                clean[e] = clean.get(e, 0) + coeff
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
        """Terms in canonical order, with trimmed exponent tuples."""
        terms = self._terms
        for e in _canonical(terms)[1]:
            yield _unpack(e), terms[e]

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        terms = self._terms
        if not terms.keys() - {0}:
            # A constant, zero included, equals its integer, so it hashes as it.
            return hash(terms.get(0, 0))
        return hash(frozenset(terms.items()))

    # -- ring arithmetic -----------------------------------------------

    def __add__(self, other: Polynomial | int) -> Polynomial:
        if isinstance(other, int):
            other = Polynomial.constant(other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
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
        return self + other * -1 if isinstance(other, (int, Polynomial)) else NotImplemented

    def __rsub__(self, other: int) -> Polynomial:
        return self * -1 + other if isinstance(other, int) else NotImplemented

    def __mul__(self, other: Polynomial | int) -> Polynomial:
        if isinstance(other, int):
            return _unchecked({e: other * c for e, c in self._terms.items() if other})
        if not isinstance(other, Polynomial):
            return NotImplemented
        left, right = self._terms, other._terms
        _check_product(left, right)
        if len(left) > len(right):
            left, right = right, left  # fewer, longer inner loops
        result = _product_terms(left.items(), right.items())
        # Rare: no product of Grothendieck polynomials cancels, their signs alternate by degree.
        if 0 in result.values():
            result = {e: c for e, c in result.items() if c}
        return _unchecked(result)

    __rmul__ = __mul__

    # -- queries ----------------------------------------------------------

    def truncate(self, t: int) -> Polynomial:
        """Set every variable beyond x_t to zero; a ring homomorphism."""
        if t < 0:
            raise ValueError("truncation index must be non-negative")
        shift = _variable_shift(t + 1)
        if max(self._terms, default=0).bit_length() <= shift:
            return self  # no variable beyond x_t
        limit = 1 << shift
        return _unchecked({e: c for e, c in self._terms.items() if e < limit})

    # -- text format ---------------------------------------------------

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Polynomial({self.render()!r})"

    def render(self) -> str:
        """Terms in canonical order, e.g. ``x1 + x2 - x1*x2``."""
        return "".join(self._render_chunks())

    def _render_chunks(self) -> Iterator[str]:
        """The text of :meth:`render` in pieces of up to :data:`_CHUNK_TERMS`
        terms each.  The order list and its sort keys are made in full
        before the first piece, so a caller that writes each piece has
        written nothing when they run out of memory."""
        terms = self._terms
        if not terms:
            yield "0"
            return
        width, order = _canonical(terms)
        # A term's factors are those of its first half of the variables
        # and those of the rest; each half's text is made once per value.
        head = width // 2
        head_mask = (1 << EXPONENT_BITS * head) - 1
        tail_shift = _variable_shift(head + 1)
        heads, tails = _FactorText(1, head), _FactorText(head + 1, width - head)
        for start in range(0, len(order), _CHUNK_TERMS):
            parts: list[str] = []
            for e in order[start:start + _CHUNK_TERMS]:
                first, rest = heads[e >> DEGREE_BITS & head_mask], tails[e >> tail_shift]
                factors = f"{first}*{rest}" if first and rest else first or rest
                c = terms[e]
                magnitude = c if c > 0 else -c
                if not factors:
                    body = str(magnitude)
                elif magnitude == 1:
                    body = factors
                else:
                    body = f"{magnitude}*{factors}"
                parts.append(f" + {body}" if c > 0 else f" - {body}")
            if not start:
                lead = parts[0]
                parts[0] = lead[3:] if lead[1] == "+" else f"-{lead[3:]}"
            yield "".join(parts)


class _FactorText(dict):
    """Lazily, the factors ``x3*x4^2`` of the exponent bytes of ``size``
    variables from x_first, read as a little-endian int (x_first lowest)."""

    __slots__ = ("first", "size")

    def __init__(self, first: int, size: int):
        super().__init__()
        self.first, self.size = first, size

    def __missing__(self, value: int) -> str:
        text = self[value] = "*".join(
            f"x{i}" if power == 1 else f"x{i}^{power}"
            for i, power in enumerate(value.to_bytes(self.size, "little"), start=self.first)
            if power
        )
        return text


def _product_terms(
    left: Iterable[tuple[int, int]], right: Collection[tuple[int, int]]
) -> dict[int, int]:
    """The summed terms of the product of two polynomials given as
    (packed exponent, coefficient) pairs, zeros kept; right is read once
    per term of left, so the shorter is best on the left.  The caller
    checks that every field of the product fits."""
    result: dict[int, int] = {}
    get = result.get
    for e1, c1 in left:
        for e2, c2 in right:
            e = e1 + e2
            result[e] = get(e, 0) + c1 * c2
    return result


def _unchecked(terms: dict[int, int]) -> Polynomial:
    """Wrap ``terms`` without the constructor's checks: every key must be a
    packed exponent within the field bounds, and every coefficient
    non-zero."""
    out = Polynomial.__new__(Polynomial)
    out._terms = terms
    return out

