"""Polynomial operations that only the tests use, over the exponent tuples
of :meth:`Polynomial.terms`, independent of the packed kernel, and a
second construction of the canonical term order over the packed
exponents, one int key per term, as an oracle."""
from schubert import Polynomial
from schubert.poly import DEGREE_BITS, DEGREE_MASK, EXPONENT_BITS, MAX_DEGREE, _unpack


def lowest_degree_part(f: Polynomial) -> Polynomial:
    """The homogeneous part of minimal total degree of a non-zero f."""
    terms = list(f.terms())
    d = min(sum(e) for e, _ in terms)
    return Polynomial({e: c for e, c in terms if sum(e) == d})


def swap_variables(f: Polynomial, i: int, j: int) -> Polynomial:
    """Substitute x_i <-> x_j (1-based); the constructor trims the tuples."""
    n = max(i, j)
    result = {}
    for e, c in f.terms():
        padded = list(e) + [0] * (n - len(e))
        padded[i - 1], padded[j - 1] = padded[j - 1], padded[i - 1]
        result[tuple(padded)] = c
    return Polynomial(result)


def keyed_order(f: Polynomial) -> list[tuple[tuple[int, ...], int]]:
    """The terms of f in canonical order by one int key per term: the
    complemented degree above the exponent bytes (x1 first, zero-padded to
    the widest) read as a big-endian int, sorted descending.  Within a
    degree no trimmed exponent is a prefix of another."""
    terms = f._terms
    width = ((max(terms, default=0) >> DEGREE_BITS).bit_length() + 7) >> 3
    bits = EXPONENT_BITS * width
    size = width + DEGREE_BITS // EXPONENT_BITS
    low = (1 << bits) - 1
    keyed = {
        (MAX_DEGREE - (e & DEGREE_MASK)) << bits
        | int.from_bytes(e.to_bytes(size, "little"), "big") & low: e
        for e in terms
    }
    return [(_unpack(keyed[key]), terms[keyed[key]]) for key in sorted(keyed, reverse=True)]
