"""Permutation predicates and operations that only the tests use.

:func:`pieri` is a test oracle for Kogan's stratum: it works on windows
and uses nothing of :mod:`schubert.diagram` or :mod:`schubert.grothendieck`,
so it stays independent of the marching kernel."""
import itertools
from collections import Counter
from functools import lru_cache
from operator import lt

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


def pieri(u: Permutation, k: int, m: int, before=lt) -> dict[Permutation, int]:
    """S_u * h_m(x_1..x_k) in the Schubert basis by Sottile's Pieri rule
    (Ann. Inst. Fourier 46, 1996): one S_w for each chain u = w_0 -> ...
    -> w_m = w of k-Bruhat covers w_i = w_{i-1} t_{ab} whose labels
    w_{i-1}(b) strictly increase.  ``before`` orders consecutive labels;
    the rule wants ``lt``."""
    out: Counter = Counter()

    def climb(w, steps, last):
        if steps == m:
            out[Permutation(w)] += 1
            return
        for label, v in _k_bruhat_covers(w, k):
            if last is None or before(last, label):
                climb(v, steps + 1, label)

    climb(u.window, 0, None)
    return dict(out)


@lru_cache(maxsize=None)
def _k_bruhat_covers(w: tuple[int, ...], k: int) -> list[tuple[int, tuple[int, ...]]]:
    """(w(b), w t_{ab}) for each k-Bruhat cover of the window w: a <= k < b,
    w(a) < w(b) and no c between a and b with w(a) < w(c) < w(b).  Past
    max(len(w), k) + 1 every b has that fixed point between it and a."""
    w = w + tuple(range(len(w) + 1, max(len(w), k) + 2))
    covers = []
    for a, b in itertools.product(range(k), range(k, len(w))):
        if w[a] < w[b] and not any(w[a] < w[c] < w[b] for c in range(a + 1, b)):
            v = list(w)
            v[a], v[b] = w[b], w[a]
            covers.append((w[b], tuple(v)))
    return covers


def pieri_shape(rho: Permutation) -> tuple[int, int] | None:
    """(k, m) when rho = (1..k-1, k+m, k..k+m-1) for some m >= 1, the
    permutation whose Schubert polynomial is h_m(x_1..x_k); else None."""
    w = rho.window
    if not w:
        return None
    k = next(i for i, v in enumerate(w, start=1) if v != i)
    m = w[k - 1] - k
    return (k, m) if w == (*range(1, k), k + m, *range(k, k + m)) else None
