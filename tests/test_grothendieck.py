import importlib
import itertools
import random

import pytest

from schubert import (
    ExpansionCeilingExceeded,
    ExponentCeilingExceeded,
    Permutation,
    Polynomial,
    expand_in_basis,
    grothendieck,
    grothendieck_dd,
    k_march,
    march_children,
    parse_polynomial,
    pivots,
    schubert,
    structure_constants,
    symmetric_group,
    transition_pair,
)
from schubert.grothendieck import (
    NonExactDivision,
    _divide_by_root_difference,
    divided_difference,
    expansion_to_json,
    isobaric_divided_difference,
    parse_expansion,
)
from schubert.poly import MAX_EXPONENT
from schubert.worked_examples import EXAMPLE_4

poly_module = importlib.import_module("schubert.poly")

ID = Permutation.identity()
X1 = Polynomial.variable(1)
X2 = Polynomial.variable(2)


def tuple_leading_term(f: Polynomial):
    """The term of minimal degree whose exponent is largest compared from
    the highest variable down, over exponent tuples."""
    terms = dict(f.terms())
    best = min(terms, key=lambda e: (sum(e), -len(e), tuple(-v for v in reversed(e))))
    return best, terms[best]


def strip_expansion(f: Polynomial) -> dict[Permutation, int]:
    """The expansion by immutable strips: take tuple_leading_term, then
    subtract coeff * G_perm with Polynomial +, until nothing is left."""
    coefficients = {}
    remaining = f
    while not remaining.is_zero():
        exponent, coeff = tuple_leading_term(remaining)
        perm = Permutation.from_lehmer(exponent)
        assert perm not in coefficients
        coefficients[perm] = coeff
        remaining = remaining + grothendieck(perm) * -coeff
    return coefficients


class TestTransitionConstruction:
    def test_base_case(self):
        assert grothendieck(ID) == Polynomial.constant(1)

    def test_small_examples(self):
        assert grothendieck(Permutation.parse("21")) == X1
        assert grothendieck(Permutation.parse("132")) == X1 + X2 - X1 * X2
        assert grothendieck(Permutation.parse("321")) == parse_polynomial("x1^2*x2")

    def test_lowest_part_is_homogeneous_of_the_length(self):
        for p in symmetric_group(4):
            low = grothendieck(p).lowest_degree_part()
            assert all(sum(e) == p.length() for e, _ in low.terms())

    def test_cache_info_counts_reads_and_computed_windows(self):
        # A functools.cache on the recursion would count the same: one
        # read for the call and one per transition term of each window,
        # one miss per window other than the identity.  The walk from
        # this root reaches some windows twice before it sums them.
        root = Permutation.parse("432165")
        reached, pending, reads = set(), [root], 1
        while pending:
            p = pending.pop()
            if p.is_identity() or p in reached:
                continue
            reached.add(p)
            terms = [transition_pair(p)[2]] + [child for _, child in march_children(p, "K")]
            reads += len(terms)
            pending.extend(terms)
        grothendieck.cache_clear()
        g = grothendieck(root)
        info = grothendieck.cache_info()
        assert (info.hits, info.misses) == (reads - len(reached), len(reached))
        assert info.currsize == len(reached) + 1
        assert grothendieck(root) is g
        assert grothendieck.cache_info().hits == info.hits + 1


class TestDividedDifferences:
    def test_dd_examples(self):
        assert grothendieck_dd(ID, 3) == Polynomial.constant(1)
        assert grothendieck_dd(Permutation.parse("321"), 3) == parse_polynomial("x1^2*x2")
        assert grothendieck_dd(Permutation.parse("132"), 3) == X1 + X2 - X1 * X2

    def test_dd_rejects_oversized_window(self):
        with pytest.raises(ValueError):
            grothendieck_dd(Permutation.parse("2143"), 3)

    def test_agreement_on_s4(self):
        for p in symmetric_group(4):
            assert grothendieck(p) == grothendieck_dd(p, 4)

    def test_agreement_on_s6(self):
        for p in symmetric_group(6):
            assert grothendieck(p) == grothendieck_dd(p, 6)

    def test_ambient_stability_on_s4(self):
        for p in symmetric_group(4):
            assert grothendieck_dd(p, 4) == grothendieck_dd(p, 5)

    def test_divided_difference_kills_symmetric_input(self):
        f = X1 * X2
        assert divided_difference(f, 1) == Polynomial.zero()

    def test_divided_difference_basic(self):
        assert divided_difference(X1, 1) == Polynomial.constant(1)
        assert divided_difference(X1 * X1, 1) == X1 + X2

    def test_isobaric_on_a_single_variable(self):
        # pi_1 x1 = d_1(x1 - x1*x2) = 1
        assert isobaric_divided_difference(X1, 1) == Polynomial.constant(1)
        # pi_1 x1^2 = d_1((1 - x2) x1^2), the 132 Grothendieck polynomial
        assert isobaric_divided_difference(X1 * X1, 1) == X1 + X2 - X1 * X2

    def test_packed_division_matches_the_tuple_split_on_s5(self):
        # _divide_by_root_difference splits packed exponents by the power of
        # x_i; the quotient times (x_i - x_{i+1}) must give back f.
        for p in symmetric_group(5):
            f = grothendieck(p)
            for i in range(1, 5):
                g = f - f.swap_variables(i, i + 1)
                root = Polynomial.variable(i) - Polynomial.variable(i + 1)
                assert _divide_by_root_difference(g, i) * root == g

    def test_non_exact_division_detected(self):
        with pytest.raises(NonExactDivision):
            _divide_by_root_difference(X1, 1)


class TestSchubert:
    def test_examples(self):
        assert schubert(Permutation.parse("132")) == X1 + X2
        assert schubert(ID) == Polynomial.constant(1)
        assert schubert(Permutation.parse("321")) == parse_polynomial("x1^2*x2")

    def test_leading_monomial_is_the_code_on_s4(self):
        for p in symmetric_group(4):
            assert tuple_leading_term(schubert(p)) == (p.lehmer_code(), 1)


class TestExpandInBasis:
    def test_hand_example(self):
        f = parse_polynomial("x1^2 + x1*x2 - x1^2*x2")
        assert expand_in_basis(f) == parse_expansion({"312": 1, "231": 1, "321": -1})

    def test_basis_elements_on_s4(self):
        for p in symmetric_group(4):
            assert expand_in_basis(grothendieck(p)) == {p: 1}

    def test_zero(self):
        assert expand_in_basis(Polynomial.zero()) == {}

    def test_round_trip_on_random_combinations(self):
        rng = random.Random(7)
        perms = list(symmetric_group(4))
        for _ in range(25):
            support = rng.sample(perms, rng.randint(1, 5))
            combo = {p: rng.randint(-5, 5) for p in support}
            combo = {p: c for p, c in combo.items() if c}
            total = Polynomial.zero()
            for p, c in combo.items():
                total = total + grothendieck(p) * c
            assert expand_in_basis(total) == combo

    def test_matches_strip_expansion_on_s5_combinations(self):
        rng = random.Random(11)
        perms = list(symmetric_group(5))
        carriers: dict[tuple[int, ...], list[Permutation]] = {}
        for p in perms:
            for e, _ in grothendieck(p).terms():
                carriers.setdefault(e, []).append(p)
        shared = [e for e, ps in carriers.items() if len(ps) > 1]
        cancelled = 0
        for _ in range(40):
            # Two elements weighted so that a shared monomial cancels in f
            # and comes back once the first of them is stripped.
            e = rng.choice(shared)
            u, v = rng.sample(carriers[e], 2)
            rest = rng.sample([p for p in perms if p not in (u, v)], rng.randint(0, 5))
            combo = {p: rng.choice([-3, -2, -1, 1, 2, 3]) for p in rest}
            combo[u] = grothendieck(v).coefficient(e)
            combo[v] = -grothendieck(u).coefficient(e)
            total = Polynomial.zero()
            for p, c in combo.items():
                total = total + grothendieck(p) * c
            cancelled += total.coefficient(e) == 0
            expected = strip_expansion(total)
            assert list(expand_in_basis(total).items()) == list(expected.items())
            assert expected == combo
        assert cancelled >= 20

    def test_matches_strip_expansion_on_s4_products(self):
        rng = random.Random(13)
        perms = list(symmetric_group(4))
        for _ in range(30):
            sigma, rho = rng.choice(perms), rng.choice(perms)
            product = grothendieck(sigma) * grothendieck(rho)
            expected = strip_expansion(product)
            assert list(expand_in_basis(product).items()) == list(expected.items())

    def test_ceiling_bounds_the_strips(self, monkeypatch):
        module = importlib.import_module("schubert.grothendieck")
        product = grothendieck(Permutation.parse("321")) * grothendieck(Permutation.parse("132"))
        strips = len(expand_in_basis(product))
        monkeypatch.setattr(module, "EXPANSION_ITERATION_CEILING", strips)
        assert len(expand_in_basis(product)) == strips
        monkeypatch.setattr(module, "EXPANSION_ITERATION_CEILING", strips - 1)
        with pytest.raises(ExpansionCeilingExceeded):
            expand_in_basis(product)
        assert issubclass(ExpansionCeilingExceeded, RuntimeError)

    def test_memoised_polynomials_are_never_written(self):
        grothendieck.cache_clear()
        watched = [Permutation.parse(text) for text in ("21543", "35142", "13254", "54321")]
        cached = {p: grothendieck(p) for p in watched}
        snapshots = {p: dict(cached[p].terms()) for p in watched}

        def assert_untouched():
            for p in watched:
                assert grothendieck(p) is cached[p]
                assert dict(cached[p].terms()) == snapshots[p]

        # Longer permutations recurse through the watched ones.
        for p in symmetric_group(6):
            grothendieck(p)
            assert_untouched()
        rng = random.Random(17)
        others = list(symmetric_group(4))
        for p in watched:
            expand_in_basis(cached[p])
            expand_in_basis(cached[p] * 3 - grothendieck(rng.choice(others)))
            for rho in rng.sample(others, 3):
                structure_constants(p, rho)
                structure_constants(rho, p)
            assert_untouched()
        for p in watched:
            assert cached[p] == grothendieck_dd(p, 5)


class TestStructureConstants:
    def test_example_4(self):
        sigma, rho = Permutation.parse(EXAMPLE_4["sigma"]), Permutation.parse(EXAMPLE_4["rho"])
        assert structure_constants(sigma, rho) == parse_expansion(EXAMPLE_4["expansions"]["K"])

    def test_identity_factor(self):
        for rho in symmetric_group(3):
            assert structure_constants(ID, rho) == {rho: 1}

    def test_derived_example(self):
        result = structure_constants(Permutation.parse("21"), Permutation.parse("132"))
        assert result == parse_expansion({"231": 1, "312": 1, "321": -1})

    def test_json_key_order(self):
        result = structure_constants(Permutation.parse("321"), Permutation.parse("132"))
        assert expansion_to_json(result) == '{"3412": 1, "4213": 1, "4312": -1}'


class TestStructuralIdentities:
    def test_every_monomial_divides_the_staircase_on_s6(self):
        # The bound that lets grothendieck check only the window: x_i has
        # exponent at most n - i in G_w for w in S_n.
        for p in symmetric_group(6):
            n = p.size()
            for e, _ in grothendieck(p).terms():
                assert all(v <= n - i for i, v in enumerate(e, start=1)), (p, e)

    def test_window_past_the_exponent_ceiling_raises(self):
        n = MAX_EXPONENT + 2
        longest_cycle = Permutation(tuple(range(2, n + 1)) + (1,))
        with pytest.raises(ExponentCeilingExceeded):
            grothendieck(longest_cycle)

    def test_window_at_a_lowered_ceiling(self, monkeypatch):
        # With exponents capped at 3, windows of 4 still fit and windows
        # of 5 do not; an empty memo makes each call compute.
        monkeypatch.setattr(poly_module, "MAX_EXPONENT", 3)
        grothendieck.cache_clear()
        assert grothendieck(Permutation.parse("4321")) == parse_polynomial("x1^3*x2^2*x3")
        p = Permutation.parse("1432")
        assert grothendieck(p) == grothendieck_dd(p, 4)
        with pytest.raises(ExponentCeilingExceeded):
            grothendieck(Permutation.parse("15432"))

    def test_leading_term_law_on_s5(self):
        for p in symmetric_group(5):
            assert tuple_leading_term(grothendieck(p)) == (p.lehmer_code(), 1)

    def test_star_factorization_on_s3(self):
        for sigma, rho in itertools.product(symmetric_group(3), repeat=2):
            lhs = grothendieck(sigma) * grothendieck(rho.stabilize(3))
            assert lhs == grothendieck(sigma.star(rho, 3))

    def test_fomin_kirillov_truncation_on_s4(self):
        for rho in symmetric_group(4):
            t = rho.grassmannian_descent()
            if t is None:
                continue
            truncated = grothendieck(rho.stabilize(4)).truncate(t)
            assert truncated == grothendieck(rho)

    def test_empty_subset_cancellation_on_s4(self):
        # Setting x_g to 0 in the transition formula leaves only the
        # non-empty pivot subsets, with alternating signs.
        for gamma in symmetric_group(4):
            if gamma.is_identity():
                continue
            g = gamma.last_descent()
            rows = [b.row for b in pivots(gamma)]
            total = Polynomial.zero()
            for size in range(1, len(rows) + 1):
                for subset in itertools.combinations(rows, size):
                    sign = (-1) ** (size - 1)
                    total = total + grothendieck(k_march(gamma, subset)).truncate(g - 1) * sign
            assert total == grothendieck(gamma).truncate(g - 1)

    def test_coefficient_signs_alternate_with_degree_on_s6(self):
        # In degree D every term of x_g G_q and of (x_g - 1) (-1)^|I| G_child
        # has the sign (-1)^(D - length(p)), so the transition sum cancels
        # no term.
        for p in symmetric_group(6):
            length = p.length()
            for e, c in grothendieck(p).terms():
                assert c * (-1) ** ((sum(e) - length) % 2) > 0, (p, e)

    def test_grothendieck_at_all_ones_is_one(self):
        # Every (x_g - 1) factor in the transition formula vanishes at 1.
        for p in symmetric_group(4):
            assert sum(c for _, c in grothendieck(p).terms()) == 1
