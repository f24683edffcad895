"""Polynomial operations that only the tests use, over the exponent tuples
of :meth:`Polynomial.terms`, independent of the packed kernel."""
from schubert import Polynomial


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
