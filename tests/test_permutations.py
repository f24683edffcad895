import itertools
import random

import pytest
from hypothesis import given, seed, strategies as st

from schubert import Permutation, symmetric_group
from schubert.permutations import _lehmer_window

from permutation_helpers import is_vexillary, w0_conjugate

ID = Permutation.identity()

windows = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.permutations(tuple(range(1, n + 1)))
)


def mixed_form(window: list[int]) -> str:
    """Runs of single-digit values between commas, each larger value its own
    chunk; a run that would spell a value of the window goes digit by digit."""
    spelled = {str(v) for v in window if v > 9}
    chunks: list[str] = []
    for large, group in itertools.groupby(window, key=lambda v: v > 9):
        if large:
            chunks.extend(map(str, group))
        else:
            run = "".join(map(str, group))
            chunks.extend(run if run in spelled else [run])
    return ",".join(chunks)


def brute_inversions(p: Permutation) -> int:
    w = p.window
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


class TestParseFormat:
    def test_example_window(self):
        assert Permutation.parse("4317625").window == (4, 3, 1, 7, 6, 2, 5)

    def test_identity_trims_to_empty_window(self):
        assert Permutation.parse("1,2,3") == ID
        assert ID.window == ()

    def test_mixed_form_of_the_s10_element(self):
        p = Permutation.parse("123469857,10")
        assert p.window == (1, 2, 3, 4, 6, 9, 8, 5, 7)
        assert p.text() == "123469857"

    def test_mixed_form_round_trips_on_seeded_windows(self):
        rng = random.Random(14)
        for n in (10, 11, 12):
            for _ in range(300):
                window = list(range(1, n + 1))
                rng.shuffle(window)
                assert Permutation.parse(mixed_form(window)) == Permutation(tuple(window))
        assert Permutation.parse("123456789,11,10").window == (*range(1, 10), 11, 10)
        assert mixed_form([1, 2, 12, 11, 3, 4, 5, 6, 7, 8, 9, 10]) == "1,2,12,11,3456789,10"
        with pytest.raises(ValueError):  # the run 1,2 spells 12, so 12 appears twice
            Permutation.parse("12,12,11,3456789,10")

    def test_plain_comma_form(self):
        p = Permutation.parse("10,9,8,7,6,5,4,3,2,1")
        assert p.window == (10, 9, 8, 7, 6, 5, 4, 3, 2, 1)
        assert p.text() == "10,9,8,7,6,5,4,3,2,1"

    def test_text_at_the_digit_boundary(self):
        # A window of 9 holds only digits; a window of 10 holds the value 10.
        for text in ("912345678", "10,1,2,3,4,5,6,7,8,9"):
            p = Permutation.parse(text)
            assert p.text() == text
            assert Permutation.parse(p.text()) == p

    def test_identity_text(self):
        assert ID.text() == "1"
        assert Permutation.parse(ID.text()) == ID

    @pytest.mark.parametrize("bad", ["", "0", "10", "33", "1,1", "2,4", "a", "1,,2", ",1"])
    def test_rejects_bad_text(self, bad):
        with pytest.raises(ValueError):
            Permutation.parse(bad)

    def test_round_trip_on_s5(self):
        for p in symmetric_group(5):
            assert Permutation.parse(p.text()) == p

    def test_trailing_fixed_points_trim(self):
        assert Permutation.parse("21345") == Permutation.parse("21")
        assert Permutation.parse("421356").text() == "4213"

    def test_plain_comma_form_wins_over_digit_runs(self):
        # "12" could read as the value 12 or the run 1,2; the plain
        # comma-separated interpretation is tried first.
        p = Permutation.parse("12,11,10,9,8,7,6,5,4,3,2,1")
        assert p.window == (12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1)

    @given(windows)
    def test_round_trip_on_random_windows(self, window):
        p = Permutation(tuple(window))
        assert Permutation.parse(p.text()) == p


class TestStatistics:
    def test_length_examples(self):
        assert Permutation.parse("4317625").length() == 10
        assert ID.length() == 0
        assert Permutation.parse("321465").length() == 4

    def test_length_is_inversion_count_on_s5(self):
        for p in symmetric_group(5):
            assert p.length() == brute_inversions(p) == sum(p.lehmer_code())

    def test_last_descent_examples(self):
        assert Permutation.parse("4317625").last_descent() == 5
        assert ID.last_descent() is None
        assert Permutation.parse("321546").last_descent() == 4

    def test_lehmer_code_examples(self):
        assert Permutation.parse("4317625").lehmer_code() == (3, 2, 0, 3, 2)
        assert ID.lehmer_code() == ()
        assert Permutation.from_lehmer(()) == ID
        assert Permutation.from_lehmer((1, 0)) == Permutation.parse("21")

    def test_lehmer_round_trip_on_s5(self):
        for p in symmetric_group(5):
            assert Permutation.from_lehmer(p.lehmer_code()) == p

    def test_lehmer_decoder_round_trip_on_s1_to_s7(self):
        # The one decoder behind from_lehmer and the strips of the basis
        # expansion, which hand it exponent bytes.
        for n in range(1, 8):
            for p in symmetric_group(n):
                code = p.lehmer_code()
                assert _lehmer_window(code) == p.window
                assert _lehmer_window(bytes(code)) == p.window
                assert _lehmer_window(code + (0, 0)) == p.window

    def test_lehmer_decoder_of_the_identity(self):
        assert _lehmer_window(()) == ()
        assert _lehmer_window((0, 0, 0)) == ()
        assert Permutation.from_lehmer((0, 0, 0)) == ID

    def test_from_lehmer_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            Permutation.from_lehmer((1, -1))

    def test_from_lehmer_extends_window(self):
        assert Permutation.from_lehmer((4, 2)).window == (5, 3, 1, 2, 4)

    @seed(20062)
    @given(st.lists(st.integers(min_value=0, max_value=9), max_size=10))
    def test_from_lehmer_matches_the_validating_constructor(self, code):
        # from_lehmer skips the bijection check; its result must be the
        # element the validating constructor makes of the same window, and
        # its code the given one, trimmed.
        got = Permutation.from_lehmer(code)
        expected = Permutation(got.window + (len(got.window) + 1,))
        assert got == expected
        assert got.window == expected.window
        assert type(got.window) is tuple
        assert hash(got) == hash(expected) == hash(got.window)
        trimmed = list(code)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        assert got.lehmer_code() == tuple(trimmed)

    def test_grassmannian_descent(self):
        assert Permutation.parse("132").grassmannian_descent() == 2
        assert Permutation.parse("321").grassmannian_descent() is None
        assert ID.grassmannian_descent() is None

    def test_vexillary(self):
        assert not is_vexillary(Permutation.parse("2143"))
        assert is_vexillary(ID)
        assert is_vexillary(Permutation.parse("3412"))


class TestStructuralOps:
    def test_star_examples(self):
        assert Permutation.parse("3412").star(Permutation.parse("3214"), 4) == Permutation.parse(
            "34127658"
        )
        assert Permutation.parse("321").star(Permutation.parse("132"), 3) == Permutation.parse(
            "321465"
        )
        assert ID.star(Permutation.parse("132"), 3) == Permutation.parse("123465")

    def test_star_window_check(self):
        with pytest.raises(ValueError):
            Permutation.parse("3412").star(ID, 3)
        with pytest.raises(ValueError):
            ID.star(Permutation.parse("3412"), 3)

    def test_star_length_additivity_s3(self):
        for sigma, alpha in itertools.product(symmetric_group(3), repeat=2):
            assert sigma.star(alpha, 3).length() == sigma.length() + alpha.length()

    def test_star_id_is_stabilization_on_s4(self):
        for alpha in symmetric_group(4):
            assert ID.star(alpha, 4) == alpha.stabilize(4)

    def test_stabilize_examples(self):
        assert Permutation.parse("132").stabilize(3) == Permutation.parse("123465")
        assert Permutation.parse("21").stabilize(1) == Permutation.parse("132")
        for p in symmetric_group(3):
            assert p.stabilize(0) == p

    def test_w0_conjugate_examples(self):
        assert w0_conjugate(Permutation.parse("132"), 3) == Permutation.parse("213")
        assert w0_conjugate(ID, 5) == ID

    def test_w0_conjugate_involution_preserves_length_on_s4(self):
        for p in symmetric_group(4):
            q = w0_conjugate(p, 4)
            assert w0_conjugate(q, 4) == p
            assert q.length() == p.length()

    def test_transpose_examples(self):
        assert Permutation.parse("4317625").transpose(5, 7) == Permutation.parse("4317526")
        assert ID.transpose(1, 2) == Permutation.parse("21")

    def test_transpose_involution_and_parity_on_s4(self):
        for p in symmetric_group(4):
            for i, j in itertools.combinations(range(1, 6), 2):
                q = p.transpose(i, j)
                assert q.transpose(i, j) == p
                assert abs(q.length() - p.length()) % 2 == 1

    def test_transpose_rejects_equal_positions(self):
        with pytest.raises(ValueError):
            ID.transpose(2, 2)

    @given(windows, st.integers(1, 10), st.integers(1, 10))
    def test_transpose_involution_on_random_windows(self, window, i, j):
        if i == j:
            return
        p = Permutation(tuple(window))
        assert p.transpose(i, j).transpose(i, j) == p

    def test_transpose_rejects_non_positive_positions(self):
        with pytest.raises(ValueError):
            Permutation.parse("21").transpose(0, 1)

    @seed(20050)
    @given(
        st.integers(min_value=0, max_value=7).flatmap(
            lambda n: st.permutations(tuple(range(1, n + 1)))
        ),
        st.integers(1, 10),
        st.integers(1, 10),
    )
    def test_transpose_matches_the_validating_constructor(self, window, i, j):
        # transpose skips the bijection check; its result must be the
        # element the validating constructor makes of the swapped window.
        if i == j:
            return
        values = list(window) + list(range(len(window) + 1, max(i, j) + 1))
        values[i - 1], values[j - 1] = values[j - 1], values[i - 1]
        expected = Permutation(tuple(values))
        got = Permutation(tuple(window)).transpose(i, j)
        assert got == expected
        assert got.window == expected.window
        assert type(got.window) is tuple
        assert hash(got) == hash(expected)

    def test_last_descent_is_the_last_of_the_descents_on_s5(self):
        for p in symmetric_group(5):
            d = p.descents()
            assert p.last_descent() == (d[-1] if d else None)

    def test_call_beyond_window(self):
        p = Permutation.parse("21")
        assert p(1) == 2 and p(2) == 1 and p(17) == 17
        with pytest.raises(ValueError):
            p(0)

    def test_inverse(self):
        p = Permutation.parse("4317625")
        inv = p.inverse()
        for i in range(1, 8):
            assert inv(p(i)) == i

    def test_symmetric_group_size(self):
        assert len(list(symmetric_group(3))) == 6
        assert len(set(symmetric_group(4))) == 24
