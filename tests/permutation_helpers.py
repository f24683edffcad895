"""Permutation predicates and operations that only the tests use."""
import itertools

from schubert import Permutation


def is_vexillary(p: Permutation) -> bool:
    """True iff the window avoids the pattern 2143 (exhaustive scan)."""
    w = p.window
    return not any(
        w[j] < w[i] < w[l] < w[k] for i, j, k, l in itertools.combinations(range(len(w)), 4)
    )


def w0_conjugate(p: Permutation, n: int) -> Permutation:
    """Conjugation by the longest element of S_n; an involution."""
    if p.size() > n:
        raise ValueError(f"window exceeds S_{n}")
    return Permutation(tuple(n + 1 - p(n + 1 - i) for i in range(1, n + 1)))
