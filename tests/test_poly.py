import pytest
from hypothesis import example, given, seed, strategies as st

from schubert import Polynomial, leading_term, parse_polynomial

X1 = Polynomial.variable(1)
X2 = Polynomial.variable(2)
ONE = Polynomial.constant(1)

small_polys = st.builds(
    Polynomial,
    st.dictionaries(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=2),
        ),
        st.integers(min_value=-9, max_value=9),
        max_size=6,
    ),
)

# Exponents of every length from the constant term () up to x5, some with
# trailing zeros for the constructor to trim.
mixed_polys = st.builds(
    Polynomial,
    st.dictionaries(
        st.lists(st.integers(min_value=0, max_value=3), max_size=5).map(tuple),
        st.integers(min_value=-9, max_value=9),
        max_size=8,
    ),
)


def assert_canonical(f):
    """Trimmed non-negative exponents, non-zero coefficients, and equal to
    the polynomial the checking constructor builds from the same terms."""
    terms = dict(f.terms())
    for e, c in terms.items():
        assert not e or e[-1] != 0, e
        assert all(v >= 0 for v in e), e
        assert c != 0, (e, c)
    assert f == Polynomial(terms)


class TestCanonicalization:
    def test_zero_coefficients_dropped(self):
        assert Polynomial({(1,): 0}) == Polynomial.zero()
        assert (X1 - X1).is_zero()

    def test_trailing_zero_exponents_trimmed(self):
        assert Polynomial({(1, 0, 0): 2}) == Polynomial({(1,): 2})

    def test_duplicate_keys_accumulate(self):
        assert Polynomial({(1,): 2, (1, 0): 3}) == Polynomial({(1,): 5})

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Polynomial({(-1,): 1})


class TestArithmetic:
    def test_hand_expansion(self):
        f = X1 * (X1 + X2 - X1 * X2)
        assert f == Polynomial({(2,): 1, (1, 1): 1, (2, 1): -1})

    def test_multiplicative_identity_and_zero(self):
        f = X1 + X2 - X1 * X2
        assert f * ONE == f
        assert f * Polynomial.zero() == Polynomial.zero()
        assert f * 0 == Polynomial.zero()

    @given(small_polys, small_polys)
    def test_commutativity(self, f, g):
        assert f + g == g + f
        assert f * g == g * f

    @given(small_polys, small_polys, small_polys)
    def test_associativity_and_distributivity(self, f, g, h):
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h

    @seed(20040)
    @given(
        mixed_polys,
        mixed_polys,
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=0, max_value=6),
    )
    def test_results_stay_canonical(self, f, g, k, t):
        results = [f + g, f - g, f * g, f * k, k * f, f * 0, f + k, f - k, k - f, -f]
        results.append(f.truncate(t))
        if not f.is_zero():
            results.append(f.lowest_degree_part())
        for result in results:
            assert_canonical(result)

    def test_integer_coercion(self):
        assert X1 + 1 == Polynomial({(): 1, (1,): 1})
        assert 2 * X1 == Polynomial({(1,): 2})
        assert 1 - X2 == Polynomial({(): 1, (0, 1): -1})


class TestTruncate:
    def test_examples(self):
        f = X1 + X2 - X1 * X2
        assert f.truncate(1) == X1
        assert f.truncate(2) == f
        assert f.truncate(0) == Polynomial.zero()
        assert (f + 7).truncate(0) == Polynomial.constant(7)

    @given(small_polys, small_polys, st.integers(min_value=0, max_value=4))
    def test_ring_homomorphism(self, f, g, t):
        assert (f * g).truncate(t) == f.truncate(t) * g.truncate(t)
        assert (f + g).truncate(t) == f.truncate(t) + g.truncate(t)

    @given(small_polys, st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
    def test_composition(self, f, s, t):
        assert f.truncate(s).truncate(t) == f.truncate(min(s, t))


class TestLowestDegreePart:
    def test_examples(self):
        f = X1 + X2 - X1 * X2
        assert f.lowest_degree_part() == X1 + X2
        g = X1 * X2
        assert g.lowest_degree_part() == g
        assert Polynomial.constant(5).lowest_degree_part() == Polynomial.constant(5)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            Polynomial.zero().lowest_degree_part()


class TestText:
    def test_canonical_render(self):
        assert (X1 + X2 - X1 * X2).render() == "x1 + x2 - x1*x2"
        assert Polynomial.zero().render() == "0"
        assert Polynomial.constant(-3).render() == "-3"
        assert (2 * X1 * X1 + ONE).render() == "1 + 2*x1^2"

    def test_degree_then_lex_descending_order(self):
        f = Polynomial({(0, 2): 1, (1, 1): 1, (2,): 1, (1,): 1})
        assert f.render() == "x1 + x1^2 + x1*x2 + x2^2"

    def test_parse_examples(self):
        assert parse_polynomial("x1 + x2 - x1*x2") == X1 + X2 - X1 * X2
        assert parse_polynomial("0") == Polynomial.zero()
        assert parse_polynomial("-3") == Polynomial.constant(-3)
        assert parse_polynomial("1 + 2*x1^2") == ONE + 2 * X1 * X1

    def test_parse_rejects_garbage(self):
        for bad in ["", "x", "1 +", "x1^", "y2"]:
            with pytest.raises(ValueError):
                parse_polynomial(bad)

    @given(small_polys)
    def test_round_trip(self, f):
        assert parse_polynomial(f.render()) == f


class TestLeadingTerm:
    def test_prefers_minimal_degree(self):
        f = X1 * X2 + X1
        assert leading_term(f) == ((1,), 1)

    def test_highest_variable_breaks_ties(self):
        # Within a degree layer the lex comparison runs from the highest
        # variable down, so x2 leads x1 and x1*x3 leads x2^2.
        assert leading_term(X1 + X2) == ((0, 1), 1)
        f = Polynomial({(1, 0, 1): 3, (0, 2): 5})
        assert leading_term(f) == ((1, 0, 1), 3)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            leading_term(Polynomial.zero())

    @seed(20041)
    @given(mixed_polys)
    @example(Polynomial({(): 4, (1,): 1}))
    @example(Polynomial({(2,): 1, (1, 1): 2, (0, 0, 2): 3, (1, 0, 1): 5}))
    def test_matches_sort_based_definition(self, f):
        if f.is_zero():
            return
        # The minimal-degree layer, zero-padded, compared from the highest
        # variable down.
        d = min(sum(e) for e, _ in f.terms())
        layer = [e for e, _ in f.terms() if sum(e) == d]
        width = max(len(e) for e in layer)
        best = max(layer, key=lambda e: tuple(reversed(e + (0,) * (width - len(e)))))
        assert leading_term(f) == (best, f.coefficient(best))
