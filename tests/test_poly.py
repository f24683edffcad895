import itertools
from operator import add, mul, sub

import pytest
from hypothesis import example, given, seed, strategies as st

from schubert import (
    ExponentCeilingExceeded,
    Polynomial,
    grothendieck,
    parse_polynomial,
    symmetric_group,
)
from schubert.poly import DEGREE_MASK, MAX_DEGREE, MAX_EXPONENT, _pack, _unpack

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

# Up to x12 (two-digit names, exponents over several bytes), exponents up
# to the ceiling, and coefficients far beyond one digit next to units and
# the constant term.
wide_polys = st.builds(
    Polynomial,
    st.dictionaries(
        st.lists(
            st.integers(min_value=0, max_value=2) | st.integers(min_value=0, max_value=MAX_EXPONENT),
            max_size=12,
        ).map(tuple),
        st.sampled_from([1, -1]) | st.integers(min_value=-(10**30), max_value=10**30),
        max_size=12,
    ),
)
X10_X12 = (0,) * 9 + (1, 0, MAX_EXPONENT)


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
        assert X1 - X1 == 0

    def test_trailing_zero_exponents_trimmed(self):
        assert Polynomial({(1, 0, 0): 2}) == Polynomial({(1,): 2})

    def test_duplicate_keys_accumulate(self):
        f = Polynomial({(1,): 2, (1, 0): 3})
        assert f == Polynomial({(1,): 5})
        assert hash(f) == hash(Polynomial({(1,): 5})) and len(f) == 1
        assert len(X1 + X2 - X1 * X2) == 3 and len(Polynomial.zero()) == 0

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Polynomial({(-1,): 1})
        # Variables are 1-based: x_0 is rejected the same way.
        with pytest.raises(ValueError, match="1-based"):
            Polynomial.variable(0)


class TestIntegerContract:
    """A constant polynomial, zero included, equals its integer and so
    must hash as it, or sets and dicts tell the two apart.  A bool is an
    int, so ``p == True`` compares through :meth:`Polynomial.constant`."""

    @pytest.mark.parametrize("c", [*range(-3, 4), True, False])
    def test_constant_is_interchangeable_with_its_integer(self, c):
        f = Polynomial.constant(c)
        assert f == c and c == f
        assert hash(f) == hash(c)
        assert len({f, c}) == 1 and len({c, f}) == 1
        assert f in {c} and c in {f}
        assert {c: "int"}.get(f) == "int" and {f: "poly"}.get(c) == "poly"

    def test_non_constants_are_not_integers(self):
        assert X1 != 1 and X1 + 1 != 1
        assert len({X1 + 1, 1}) == 2

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Polynomial({(1,): 1.5}),
            lambda: Polynomial.constant(0.5),
            lambda: Polynomial({(1,): "3"}),
            lambda: Polynomial.monomial((2,), 2.9),
        ],
        ids=["float", "constant", "str", "monomial"],
    )
    def test_a_non_integer_coefficient_is_a_value_error(self, build):
        # Coefficients are exact: nothing is truncated or parsed into an int.
        with pytest.raises(ValueError, match="not an int"):
            build()


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
        for result in results:
            assert_canonical(result)

    @pytest.mark.parametrize("other", [2.5, "a", None, (1,)])
    def test_a_foreign_operand_is_a_type_error(self, other):
        # Only ints are coerced; anything else is Python's TypeError.
        for op in (add, sub, mul):
            with pytest.raises(TypeError):
                op(X1, other)
            with pytest.raises(TypeError):
                op(other, X1)

    def test_integer_coercion(self):
        assert X1 + 1 == Polynomial({(): 1, (1,): 1})
        assert 2 * X1 == Polynomial({(1,): 2})
        assert 1 - X2 == Polynomial({(): 1, (0, 1): -1})
        assert X1 != "x1" and X1.__eq__("x1") is NotImplemented  # only ints are coerced


class TestTruncate:
    def test_examples(self):
        f = X1 + X2 - X1 * X2
        assert f.truncate(1) == X1
        assert f.truncate(2) == f
        assert f.truncate(0) == Polynomial.zero()
        assert (f + 7).truncate(0) == Polynomial.constant(7)
        with pytest.raises(ValueError):
            f.truncate(-1)

    def test_level_past_every_variable(self):
        # No mask of 16 + 8 (t + 1) bits can be built for such a level.
        f = X1 + X2 - X1 * X2
        assert f.truncate(10**20) == f
        assert Polynomial.zero().truncate(10**20) == 0

    @given(small_polys, small_polys, st.integers(min_value=0, max_value=4))
    def test_ring_homomorphism(self, f, g, t):
        assert (f * g).truncate(t) == f.truncate(t) * g.truncate(t)
        assert (f + g).truncate(t) == f.truncate(t) + g.truncate(t)

    @given(small_polys, st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
    def test_composition(self, f, s, t):
        assert f.truncate(s).truncate(t) == f.truncate(min(s, t))


class TestText:
    def test_canonical_render(self):
        assert (X1 + X2 - X1 * X2).render() == "x1 + x2 - x1*x2"
        assert Polynomial.zero().render() == "0"
        assert Polynomial.constant(-3).render() == "-3"
        assert (2 * X1 * X1 + ONE).render() == "1 + 2*x1^2"
        assert Polynomial.monomial(X10_X12, -4).render() == "-4*x10*x12^255"

    def test_degree_then_lex_descending_order(self):
        f = Polynomial({(0, 2): 1, (1, 1): 1, (2,): 1, (1,): 1})
        assert f.render() == "x1 + x1^2 + x1*x2 + x2^2"

    def test_parse_examples(self):
        assert parse_polynomial("x1 + x2 - x1*x2") == X1 + X2 - X1 * X2
        assert parse_polynomial("0") == Polynomial.zero()
        assert parse_polynomial("-3") == Polynomial.constant(-3)
        assert parse_polynomial("1 + 2*x1^2") == ONE + 2 * X1 * X1

    def test_parse_rejects_garbage(self):
        # The last four spell their digits in fullwidth or Arabic-Indic forms.
        for bad in ["", "x", "1 +", "x1^", "y2", "x0", "x0^5*x1", "x1 + x0", "2*", "x1 - 3*",
                    "\uff12*x1", "x\uff11", "x1^\u0662", "\u0661 + x1"]:
            with pytest.raises(ValueError):
                parse_polynomial(bad)

    @given(small_polys)
    def test_round_trip(self, f):
        assert parse_polynomial(f.render()) == f


# -- packed exponents ------------------------------------------------------


class TestPackedExponents:
    @seed(20060)
    @given(st.lists(st.integers(min_value=0, max_value=MAX_EXPONENT), max_size=40).map(tuple))
    @example((MAX_EXPONENT,))
    @example((MAX_EXPONENT,) * 25)
    @example((0,) * 30 + (MAX_EXPONENT,))
    @example((0, 0, 0))
    @example(())
    def test_round_trip(self, exponent):
        trimmed = tuple_trim(exponent)
        packed = _pack(exponent)
        assert _unpack(packed) == trimmed
        assert packed & DEGREE_MASK == sum(exponent)
        f = Polynomial({exponent: 3})
        assert list(f.terms()) == [(trimmed, 3)]

    def test_exponent_at_the_ceiling_stays_exact(self):
        top = Polynomial({(0,) * 29 + (MAX_EXPONENT,): 1})
        assert list(top.terms()) == [((0,) * 29 + (MAX_EXPONENT,), 1)]
        half = Polynomial({(128,): 1})
        product = half * Polynomial({(MAX_EXPONENT - 128,): 2})
        assert dict(product.terms()) == {(MAX_EXPONENT,): 2}
        # The OR of 128 and 1 bounds x1 by 129, past the ceiling with 127;
        # the exact maximum, 128, is not.
        wide = Polynomial({(128,): 1, (1,): 1})
        product = wide * Polynomial({(127,): 1})
        assert dict(product.terms()) == {(MAX_EXPONENT,): 1, (128,): 1}

    def test_exponent_past_the_ceiling_raises(self):
        with pytest.raises(ExponentCeilingExceeded):
            Polynomial({(MAX_EXPONENT + 1,): 1})
        with pytest.raises(ExponentCeilingExceeded):
            Polynomial({(0,) * 29 + (MAX_EXPONENT + 1,): 1})
        with pytest.raises(ExponentCeilingExceeded):
            Polynomial({(0, 128): 1}) * Polynomial({(1, MAX_EXPONENT - 127): 1})
        with pytest.raises(ExponentCeilingExceeded):
            parse_polynomial(f"x3^{MAX_EXPONENT + 1}")

    def test_degree_at_the_ceiling_stays_exact(self):
        full = (MAX_EXPONENT,) * (MAX_DEGREE // MAX_EXPONENT)
        assert sum(full) == MAX_DEGREE
        assert dict(Polynomial({full: 1}).terms()) == {full: 1}
        left, right = full[:200], (0,) * 200 + full[200:]
        assert dict((Polynomial({left: 1}) * Polynomial({right: 1})).terms()) == {full: 1}

    def test_degree_past_the_ceiling_raises(self):
        full = (MAX_EXPONENT,) * (MAX_DEGREE // MAX_EXPONENT)
        with pytest.raises(ExponentCeilingExceeded):
            Polynomial({full + (1,): 1})
        with pytest.raises(ExponentCeilingExceeded):
            Polynomial({full: 1}) * Polynomial.variable(len(full) + 1)


# -- the tuple kernel, kept as a differential oracle ------------------------
#
# Exponents as trimmed tuples in plain dicts, as the kernel stored them
# before exponents were packed into ints.


def tuple_trim(e):
    e = tuple(e)
    while e and e[-1] == 0:
        e = e[:-1]
    return e


def tuple_mul(f, g):
    result = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(map(add, e1, e2)) + e1[len(e2):] + e2[len(e1):]
            result[e] = result.get(e, 0) + c1 * c2
    return {e: c for e, c in result.items() if c}


def tuple_add(f, g):
    result = dict(f)
    for e, c in g.items():
        result[e] = result.get(e, 0) + c
    return {e: c for e, c in result.items() if c}


def tuple_truncate(f, t):
    return {e: c for e, c in f.items() if len(e) <= t}


def tuple_render(f):
    if not f:
        return "0"
    parts = []
    for e in sorted(f, key=lambda e: (sum(e), tuple(-v for v in e))):
        c = f[e]
        factors = [f"x{i}" if p == 1 else f"x{i}^{p}" for i, p in enumerate(e, start=1) if p]
        body = "*".join(([str(abs(c))] if abs(c) != 1 or not factors else []) + factors)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def assert_kernels_agree(f, g):
    """Every packed operation equals its tuple-kernel counterpart."""
    tf, tg = dict(f.terms()), dict(g.terms())
    assert dict((f * g).terms()) == tuple_mul(tf, tg)
    assert dict((f + g).terms()) == tuple_add(tf, tg)
    for t in range(6):
        assert dict(f.truncate(t).terms()) == tuple_truncate(tf, t)
    assert f.render() == tuple_render(tf)
    assert dict(parse_polynomial(tuple_render(tf)).terms()) == tf


class TestAgainstTheTupleKernel:
    @seed(20061)
    @given(mixed_polys, mixed_polys)
    @example(
        Polynomial({(3, 0, 0, 0, 0, 0, 2): 1, (1, 1): -2}),
        Polynomial({(): 5, (0, 0, 0, 4): 1}),
    )
    def test_random_polynomials(self, f, g):
        assert_kernels_agree(f, g)

    @seed(20101)
    @given(wide_polys)
    @example(Polynomial.zero())
    @example(Polynomial.constant(1))
    @example(Polynomial.constant(-1))
    @example(Polynomial.constant(-4))
    @example(Polynomial.monomial(X10_X12))
    @example(Polynomial({(): 1, X10_X12: -1, (0,) * 11 + (1,): 1}))
    @example(Polynomial({(): -4, X10_X12: 12345678901234567890, (1,): -1}))
    def test_render_of_wide_polynomials(self, f):
        text = f.render()
        assert text == tuple_render(dict(f.terms()))
        assert parse_polynomial(text) == f

    def test_every_s4_product_of_grothendieck_polynomials(self):
        polys = [grothendieck(p) for p in symmetric_group(4)]
        for f, g in itertools.product(polys, repeat=2):
            assert_kernels_agree(f, g)
