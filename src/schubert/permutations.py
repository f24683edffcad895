"""Finitely-supported permutations of the positive integers.

A permutation is stored in one-line notation as the tuple
``(p(1), ..., p(n))``; every position beyond the stored window is an
implicit fixed point.  Windows are kept canonical (trailing fixed points
trimmed), so two equal elements of S_infinity always compare and hash
equal.  The identity stores the empty window.

Text format (used by the CLI and all serializers): a compact digit
string when every value is at most 9, otherwise a comma-separated list.

>>> Permutation.parse("4317625").length()
10
>>> Permutation.parse("123469857,10").text()
'123469857'
"""
from __future__ import annotations

import bisect
import itertools
import re
from operator import add
from typing import Iterator, Sequence

_TEXT_RE = re.compile(r"\d+(,\d+)*", re.ASCII)


class Permutation:
    """An element of S_infinity in canonical (trimmed) one-line notation,
    immutable by contract as :class:`~schubert.poly.Polynomial` is."""

    __slots__ = ("window", "_length")

    def __init__(self, window: Sequence[int] = ()) -> None:
        window = tuple(window)
        if {*map(type, window)} - {int}:  # floats and bools would pass the bijection check
            raise ValueError(f"non-integer entry in one-line notation: {window}")
        if sorted(window) != list(range(1, len(window) + 1)):
            if min(window) < 1:
                raise ValueError(f"zero or negative entry in one-line notation: {window}")
            raise ValueError(f"not a bijection of 1..{len(window)}: {window}")
        self.window = _trim(list(window))
        self._length = None

    @classmethod
    def _trusted(cls, window: tuple[int, ...], length: int | None = None) -> Permutation:
        """Wrap a window already known to be a canonical (trimmed) bijection,
        skipping the checks of the validating constructor.  A caller that
        knows the length passes it, and :meth:`length` returns it."""
        perm = object.__new__(cls)
        perm.window = window
        perm._length = length
        return perm

    def __eq__(self, other: object) -> bool:
        return self.window == other.window if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self.window)

    def __repr__(self) -> str:
        return f"Permutation(window={self.window!r})"

    def __reduce__(self) -> tuple:
        return Permutation, (self.window,)

    # -- construction ------------------------------------------------

    @classmethod
    def identity(cls) -> Permutation:
        return cls._trusted((), 0)

    @classmethod
    def parse(cls, text: str) -> Permutation:
        """Parse the text format: digits, or comma-separated values.

        Also accepts the mixed display form where runs of single-digit
        values sit between commas and each multi-digit value is its own
        chunk, e.g. ``123469857,10``.  The digit count fixes the window
        length n; a chunk that spells one of 10..n is that value, and any
        other chunk is a run of digits (so a run must not spell one).

        >>> Permutation.parse("1,2,3")
        Permutation(window=())
        """
        text = text.strip()
        if not _TEXT_RE.fullmatch(text):
            raise ValueError(f"malformed permutation text: {text!r}")
        n, digits = 9, 9  # 1..9 take one digit each, then 10, 11, ... in turn
        while digits < len(text) - text.count(","):
            n += 1
            digits += len(str(n))
        spelled = set(map(str, range(10, n + 1)))
        values: list[int] = []
        for chunk in text.split(","):
            if chunk in spelled:
                values.append(int(chunk))
            else:
                values.extend(map(int, chunk))
        return cls(tuple(values))

    @classmethod
    def from_lehmer(cls, code: Sequence[int]) -> Permutation:
        """Inverse of :meth:`lehmer_code`; the window extends as needed."""
        code = tuple(code)
        if any(c < 0 for c in code):
            raise ValueError(f"negative Lehmer code entry: {code}")
        return cls._trusted(_lehmer_window(code))

    # -- text format ---------------------------------------------------

    def text(self) -> str:
        """Render the canonical window; exact inverse of :meth:`parse`."""
        window = self.window
        if not window:
            return "1"
        # The window holds exactly 1..n, so every value is a digit iff n <= 9.
        # One %-format of the whole window costs about half a join of str()s.
        n = len(window)
        return ("%d" * n if n <= 9 else ("%d," * n)[:-1]) % window

    def __str__(self) -> str:
        return self.text()

    # -- evaluation ----------------------------------------------------

    def __call__(self, i: int) -> int:
        """Value at the 1-based position ``i`` (fixed beyond the window)."""
        if i < 1:
            raise ValueError(f"positions are 1-based, got {i}")
        return self.window[i - 1] if i <= len(self.window) else i

    def size(self) -> int:
        """Length of the canonical window (0 for the identity)."""
        return len(self.window)

    def is_identity(self) -> bool:
        return not self.window

    def inverse(self) -> Permutation:
        inv = [0] * len(self.window)
        for i, v in enumerate(self.window, start=1):
            inv[v - 1] = i
        return self._trusted(_trim(inv))

    # -- statistics ------------------------------------------------------

    def length(self) -> int:
        """Coxeter length: the number of inversions of the window.

        Each value counts the smaller values after it, found by bisecting
        the sorted list of those values.  The count is made at most once
        per instance and takes no part in ``==``, ``hash`` or ``repr``.
        """
        known = self._length
        if known is not None:
            return known
        later: list[int] = []
        count = 0
        for v in reversed(self.window):
            at = bisect.bisect_left(later, v)
            count += at
            later.insert(at, v)
        self._length = count
        return count

    def descents(self) -> tuple[int, ...]:
        """Positions i with p(i) > p(i+1); always inside the window."""
        w = self.window
        return tuple(i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1])

    def last_descent(self) -> int | None:
        """Largest i with p(i) > p(i+1), or None for the identity."""
        return _last_descent(self.window) or None

    def lehmer_code(self) -> tuple[int, ...]:
        """Entries c_i = #{j > i : p(j) < p(i)}, trailing zeros trimmed."""
        w = self.window
        code = [sum(1 for j in range(i + 1, len(w)) if w[j] < w[i]) for i in range(len(w))]
        while code and code[-1] == 0:
            code.pop()
        return tuple(code)

    def grassmannian_descent(self) -> int | None:
        """The unique descent position, or None if there is not exactly one.

        The identity has no descent and is not Grassmannian.
        """
        d = self.descents()
        return d[0] if len(d) == 1 else None

    # -- structural operations ---------------------------------------

    def transpose(self, i: int, j: int) -> Permutation:
        """Right multiplication by t_{i<->j}: swap positions i and j."""
        if i == j:
            raise ValueError("transposition needs two distinct positions")
        if i < 1 or j < 1:
            raise ValueError(f"positions are 1-based, got {i} and {j}")
        window = self.window
        n = len(window)
        values = list(window)
        if i > n or j > n:
            values.extend(range(n + 1, max(i, j) + 1))
        values[i - 1], values[j - 1] = values[j - 1], values[i - 1]
        return self._trusted(_trim(values))

    def star(self, other: Permutation, n: int) -> Permutation:
        """Block direct sum in S_2n: self on 1..n, other shifted by n."""
        if self.size() > n or other.size() > n:
            raise ValueError(f"star requires both windows within S_{n}")
        values = [self(i) for i in range(1, n + 1)]
        values += [n + other(i) for i in range(1, n + 1)]
        return self._trusted(_trim(values))

    def stabilize(self, n: int) -> Permutation:
        """Shift by n: fixed on 1..n, then n + p(i-n) beyond."""
        if n < 0:
            raise ValueError("stabilization shift must be non-negative")
        values = [*range(1, n + 1), *(n + v for v in self.window)]
        return self._trusted(_trim(values))


def _trim(values: list[int]) -> tuple[int, ...]:
    """The canonical window of a bijection of 1..len(values): trim the
    trailing fixed points, in place, and freeze."""
    while values and values[-1] == len(values):
        values.pop()
    return tuple(values)


def _lehmer_window(code: Sequence[int]) -> tuple[int, ...]:
    """The canonical window of the permutation with Lehmer code ``code``,
    whose entries must be non-negative (trailing zeros are allowed).

    Position i takes the c_i-th smallest value left, from 1..n with n the
    largest i + c_i; after the code, each position takes the smallest
    value left, so those values follow in order.
    """
    left = list(range(1, max(map(add, code, itertools.count(1)), default=0) + 1))
    window = list(map(left.pop, code))
    window += left
    return _trim(window)


def _last_descent(window: tuple[int, ...]) -> int:
    """Largest i with w(i) > w(i+1), or 0 for the identity.  A window
    other than the identity is not increasing, so the scan stops at some
    i >= 1."""
    i = len(window) - 1
    if i < 0:
        return 0
    while window[i - 1] < window[i]:
        i -= 1
    return i


def symmetric_group(n: int) -> Iterator[Permutation]:
    """All elements of S_n (canonical windows may be shorter than n)."""
    if n < 0:
        raise ValueError("the degree of a symmetric group must be non-negative")
    return (Permutation._trusted(_trim([*w])) for w in itertools.permutations(range(1, n + 1)))
