import importlib
import itertools
import json
import pickle
import random
import tracemalloc
from collections import Counter
from operator import gt, lt

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
    pivots,
    schubert,
    structure_constants,
    symmetric_group,
    transition_pair,
)
from schubert.diagram import _window_marches
from schubert.grothendieck import (
    _read,
    _read_entry,
    _read_once,
    _transition_dag,
    divided_difference,
    expansion_to_json,
    isobaric_divided_difference,
    parse_expansion,
)
from schubert.poly import MAX_EXPONENT
from schubert.worked_examples import EXAMPLE_4

from permutation_helpers import pieri, pieri_shape
from poly_helpers import lowest_degree_part, swap_variables

poly_module = importlib.import_module("schubert.poly")
groth_module = importlib.import_module("schubert.grothendieck")

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
    while remaining != 0:
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
        assert grothendieck(Permutation.parse("321")) == Polynomial({(2, 1): 1})

    def test_lowest_part_is_homogeneous_of_the_length(self):
        for p in symmetric_group(4):
            low = lowest_degree_part(grothendieck(p))
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
        # All of S_7 from a cleared memo: the reads and misses a change to the walk must keep.
        grothendieck.cache_clear()
        for p in symmetric_group(7):
            grothendieck(p)
        assert grothendieck.cache_info() == (12_671, 5_039, None, 5_040)


def transition_needs(window, mode="K"):
    """The windows the transition formula reads for G (or S) of window."""
    marches = _window_marches(window, mode)
    return () if marches is None else (marches[1], *marches[2].values())


def reachable_past(root, done, mode="K"):
    """Root and the windows it reaches through transition_needs, none in done."""
    reachable, frontier = set(), [root]
    while frontier:
        window = frontier.pop()
        if window not in done and window not in reachable:
            reachable.add(window)
            frontier.extend(transition_needs(window, mode))
    return reachable


def check_transition_walk(p, monkeypatch):
    """G_p from the memo as it stands, counting the windows the kernel
    marches; returns the windows the walk summed."""
    known, marched = set(groth_module._memos["K"]), []

    def kernel(window, mode, t=0):
        marched.append(window)
        return _window_marches(window, mode, t)

    with monkeypatch.context() as patch:
        patch.setattr(groth_module, "_window_marches", kernel)
        grothendieck(p)
    summed = list(groth_module._memos["K"])[len(known):]  # in the order the walk summed them
    reachable = reachable_past(p.window, known)
    assert len(summed) == len(reachable) and set(summed) == reachable
    assert sorted(marched) == sorted(reachable)
    assert not known.intersection(marched)
    position = {window: k for k, window in enumerate(summed)}
    for window in summed:
        for needed in transition_needs(window):
            assert needed in known or position[needed] < position[window]
    return reachable


def check_transition_dag(root, mode, done):
    """The DAG of root past done: exactly the windows root reaches that are
    not done, each listed after its needs with its own marches."""
    dag = _transition_dag(root, mode, done)
    assert set(dag) == reachable_past(root, done, mode)
    position = {window: k for k, window in enumerate(dag)}
    for window, marches in dag.items():
        assert marches == _window_marches(window, mode)
        for needed in transition_needs(window, mode):
            assert needed in done or position[needed] < position[window]
    return dag


class TestTransitionWalk:
    """The explicit-stack walk that marches the transition formula's DAG,
    and the memo read that sums it."""

    def test_every_s5_root_from_a_cleared_and_a_warmed_memo(self, monkeypatch):
        for p in symmetric_group(5):
            grothendieck.cache_clear()
            windows = sorted(check_transition_walk(p, monkeypatch) - {p.window})
            grothendieck.cache_clear()
            for window in windows[::3]:
                grothendieck(Permutation._trusted(window))
            check_transition_walk(p, monkeypatch)

    @pytest.mark.parametrize("mode", ["K", "cohomology"])
    def test_the_dag_of_every_s5_root_past_the_identity_and_a_warmed_memo(self, mode, monkeypatch):
        memo = groth_module._memos[mode]
        for p in symmetric_group(5):
            dag = check_transition_dag(p.window, mode, {()})
            grothendieck.cache_clear()
            for window in list(dag)[::3]:
                _read(window, mode)
            warmed = dict(memo)
            check_transition_dag(p.window, mode, memo)
            assert memo == warmed  # the walk only reads done
        _read(p.window, mode)
        monkeypatch.setattr(groth_module, "_window_marches", None)  # a done root marches nothing
        assert _transition_dag((), mode, {()}) == {}
        assert _transition_dag(p.window, mode, memo) == {}


class TestPackedMemo:
    """The memo keeps each G as its packed exponents and its coefficients;
    a public read makes one Polynomial per window."""

    def test_a_memoised_term_costs_at_most_55_bytes_on_s6(self):
        grothendieck.cache_clear()
        tracemalloc.start()
        try:
            for p in symmetric_group(6):
                _read_entry(p.window, "K")
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        terms = sum(len(exponents) for exponents, _ in groth_module._memos["K"].values())
        assert held <= 55 * terms, (held, terms)

    def test_a_window_summed_inside_a_walk_reads_as_one_polynomial(self):
        root = Permutation.parse("326541")
        grothendieck.cache_clear()
        grothendieck(root)
        inner = [Permutation._trusted(w) for w in list(groth_module._memos["K"])[1:-1:5]]
        for p in inner:
            g = grothendieck(p)
            assert grothendieck(p) is g and g == grothendieck_dd(p, 6), p
        # Read first and then summed by a walk, the entries read as before.
        grothendieck.cache_clear()
        for p in inner:
            grothendieck(p)
        assert grothendieck(root) == grothendieck_dd(root, 6)


class TestOneShotRead:
    """The walk behind the ``groth`` command: no memo, each window freed
    after its last reader."""

    def test_equals_grothendieck_on_s6(self):
        for p in symmetric_group(6):
            assert _read_once(p.window) == grothendieck(p), p

    def test_leaves_the_memos_and_their_counts(self):
        grothendieck.cache_clear()
        for p in symmetric_group(4):
            grothendieck(p)
        schubert(Permutation.parse("4321"))
        memos = {mode: dict(memo) for mode, memo in groth_module._memos.items()}
        infos = grothendieck.cache_info(), schubert.cache_info()
        for text in ("4321", "15432", "2143", "1"):
            _read_once(Permutation.parse(text).window)
        assert groth_module._memos == memos
        assert (grothendieck.cache_info(), schubert.cache_info()) == infos

    def test_a_window_past_the_exponent_ceiling_raises_before_any_walk(self, monkeypatch):
        monkeypatch.setattr(poly_module, "MAX_EXPONENT", 3)
        assert _read_once(Permutation.parse("4321").window) == Polynomial({(3, 2, 1): 1})
        monkeypatch.setattr(groth_module, "_window_marches", None)  # no march may run
        with pytest.raises(ExponentCeilingExceeded, match="window 5 gives exponents up to 4"):
            _read_once(Permutation.parse("15432").window)

    def test_peaks_at_most_half_the_memo_walk(self):
        p = Permutation.parse("1,9,8,7,6,5,4,3,2")

        def peak(read):
            tracemalloc.start()
            try:
                g = read()
                return g, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        once, once_peak = peak(lambda: _read_once(p.window))
        grothendieck.cache_clear()
        memoised, memo_peak = peak(lambda: grothendieck(p))
        assert once == memoised
        assert once_peak <= memo_peak / 2, (once_peak, memo_peak)


class TestDividedDifferences:
    def test_dd_examples(self):
        assert grothendieck_dd(ID, 3) == Polynomial.constant(1)
        assert grothendieck_dd(Permutation.parse("321"), 3) == Polynomial({(2, 1): 1})
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
        with pytest.raises(ValueError):
            divided_difference(X1, 0)

    def test_isobaric_on_a_single_variable(self):
        # pi_1 x1 = d_1(x1 - x1*x2) = 1
        assert isobaric_divided_difference(X1, 1) == Polynomial.constant(1)
        # pi_1 x1^2 = d_1((1 - x2) x1^2), the 132 Grothendieck polynomial
        assert isobaric_divided_difference(X1 * X1, 1) == X1 + X2 - X1 * X2

    def test_divided_difference_times_the_root_on_s5(self):
        # d_i f times (x_i - x_{i+1}) must give back f - s_i f.
        for p in symmetric_group(5):
            f = grothendieck(p)
            for i in range(1, 5):
                root = Polynomial.variable(i) - Polynomial.variable(i + 1)
                assert divided_difference(f, i) * root == f - swap_variables(f, i, i + 1)

    def test_divided_difference_times_the_root_on_random_polynomials(self):
        # Multiplication by x_i - x_{i+1} is injective, so the identity pins
        # d_i exactly; a term x_i^a x_{i+1}^b may have a = b, a < b or a > b.
        rng = random.Random(19)
        for i in range(1, 6):
            root = Polynomial.variable(i) - Polynomial.variable(i + 1)
            relations, negative = set(), False
            for _ in range(40):
                terms = {}
                for _ in range(rng.randint(0, 8)):
                    exponent = tuple(rng.randint(0, 5) for _ in range(7))
                    terms[exponent] = rng.choice([-7, -3, -2, -1, 1, 2, 3, 7])
                    a, b = exponent[i - 1], exponent[i]
                    relations.add((a > b) - (a < b))
                    negative |= terms[exponent] < 0
                f = Polynomial(terms)
                assert divided_difference(f, i) * root == f - swap_variables(f, i, i + 1)
            assert relations == {-1, 0, 1} and negative


class TestSchubert:
    def test_examples(self):
        assert schubert(Permutation.parse("132")) == X1 + X2
        assert schubert(ID) == Polynomial.constant(1)
        assert schubert(Permutation.parse("321")) == Polynomial({(2, 1): 1})

    def test_leading_monomial_is_the_code_on_s4(self):
        for p in symmetric_group(4):
            assert tuple_leading_term(schubert(p)) == (p.lehmer_code(), 1)

    def test_lowest_degree_part_of_grothendieck_on_s7(self):
        # The cohomology transition is the lowest-degree part of the K one.
        for p in symmetric_group(7):
            assert schubert(p) == lowest_degree_part(grothendieck(p)), p

    def test_cohomology_reads_its_own_memo(self):
        # cache_info() is a view of the K memo; cache_clear() empties both.
        grothendieck.cache_clear()
        for p in symmetric_group(4):
            grothendieck(p)
        info = grothendieck.cache_info()
        u, v = Permutation.parse("2413"), Permutation.parse("1432")
        assert schubert(u) is schubert(u)
        assert expand_in_basis(schubert(u) * schubert(v), "cohomology")
        assert structure_constants(u, v, "cohomology")
        assert grothendieck.cache_info() == info
        assert len(groth_module._memos["cohomology"]) > 1
        grothendieck.cache_clear()
        # The identity's entry: its packed exponents and its coefficients.
        assert groth_module._memos == {"K": {(): ((0,), (1,))}, "cohomology": {(): ((0,), (1,))}}
        assert grothendieck.cache_info() == (0, 0, None, 1)

    def test_each_memo_has_its_own_cache_info_on_s4(self):
        # schubert.cache_info() views the cohomology memo as
        # grothendieck.cache_info() views the K one; either clear empties both.
        grothendieck.cache_clear()
        for p in symmetric_group(4):
            schubert(p)
        assert schubert.cache_info() == (34, 23, None, 24)
        assert grothendieck.cache_info() == (0, 0, None, 1)
        schubert.cache_clear()
        assert schubert.cache_info() == (0, 0, None, 1)
        for p in symmetric_group(4):
            grothendieck(p)
        assert grothendieck.cache_info() == (35, 23, None, 24)
        assert schubert.cache_info() == (0, 0, None, 1)

    @pytest.mark.parametrize("mode", ["H", "k", None])
    def test_an_unknown_mode_is_a_value_error(self, mode):
        p = Permutation.parse("132")
        with pytest.raises(ValueError, match="unknown mode"):
            structure_constants(p, p, mode)
        with pytest.raises(ValueError, match="unknown mode"):
            expand_in_basis(grothendieck(p), mode)


class TestExpandInBasis:
    def test_hand_example(self):
        f = Polynomial({(2,): 1, (1, 1): 1, (2, 1): -1})
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
            combo[u] = dict(grothendieck(v).terms())[e]
            combo[v] = -dict(grothendieck(u).terms())[e]
            total = Polynomial.zero()
            for p, c in combo.items():
                total = total + grothendieck(p) * c
            cancelled += e not in dict(total.terms())
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

    def test_a_revisited_window_is_an_ordering_bug(self, monkeypatch):
        # Every leading term now decodes to 21: the strip of x2 settles 21 and
        # leaves x2 - x1*x2, whose leading term x2 comes back to it.
        monkeypatch.setattr(groth_module, "_lehmer_window", lambda code: (2, 1))
        with pytest.raises(RuntimeError, match="basis expansion revisited 21; ordering bug"):
            expand_in_basis(grothendieck(Permutation.parse("132")))

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

    def test_cohomology_is_the_top_layer_of_k_on_s4(self):
        # S_sigma * S_rho is the lowest-degree part of G_sigma * G_rho.
        perms = list(symmetric_group(4))
        for sigma, rho in itertools.product(perms, perms):
            top = sigma.length() + rho.length()
            k = structure_constants(sigma, rho)
            layer = {perm: c for perm, c in k.items() if perm.length() == top}
            assert structure_constants(sigma, rho, "cohomology") == layer, (sigma, rho)

    def test_json_key_order(self):
        result = structure_constants(Permutation.parse("321"), Permutation.parse("132"))
        assert expansion_to_json(result) == '{"3412": 1, "4213": 1, "4312": -1}'

    @pytest.mark.parametrize("mode", ["K", "cohomology"])
    def test_json_is_the_expansion_keyed_by_length_then_text_on_s4(self, mode):
        perms = list(symmetric_group(4))
        for sigma, rho in itertools.product(perms, perms):
            expansion = structure_constants(sigma, rho, mode)
            pairs = json.loads(expansion_to_json(expansion), object_pairs_hook=list)
            keys = [(Permutation.parse(text).length(), text) for text, _ in pairs]
            assert keys == sorted(keys), (sigma, rho)
            assert {Permutation.parse(text): c for text, c in pairs} == expansion, (sigma, rho)

    @pytest.mark.parametrize("before, mismatches", [(lt, 0), (gt, 960)])
    def test_pieri_rule_on_s5(self, before, mismatches):
        # S_w = h_m(x_1..x_k) for w = (1..k-1, k+m, k..k+m-1).  The rule
        # orders its labels increasing; decreasing labels must not pass.
        cases = []
        for u, k, m in itertools.product(symmetric_group(5), range(1, 5), range(1, 4)):
            w = Permutation((*range(1, k), k + m, *range(k, k + m)))
            assert pieri_shape(w) == (k, m)
            cases.append(pieri(u, k, m, before) != structure_constants(u, w, "cohomology"))
        assert (len(cases), sum(cases)) == (1440, mismatches)


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
        assert grothendieck(Permutation.parse("4321")) == Polynomial({(3, 2, 1): 1})
        p = Permutation.parse("1432")
        assert grothendieck(p) == grothendieck_dd(p, 4)
        with pytest.raises(ExponentCeilingExceeded):
            grothendieck(Permutation.parse("15432"))

    def test_a_window_past_the_ceiling_leaves_the_memo_and_its_counts(self, monkeypatch):
        # A call and an expansion that need a window past the ceiling raise
        # before they walk, memoise or count anything.
        monkeypatch.setattr(poly_module, "MAX_EXPONENT", 3)
        grothendieck.cache_clear()
        grothendieck(Permutation.parse("4321"))
        memo, info = dict(groth_module._memos["K"]), grothendieck.cache_info()
        with pytest.raises(ExponentCeilingExceeded):
            grothendieck(Permutation.parse("15432"))
        assert (grothendieck.cache_info(), groth_module._memos["K"]) == (info, memo)
        with pytest.raises(ExponentCeilingExceeded):
            expand_in_basis(Polynomial.variable(4))  # its first strip is G of 12354
        assert (grothendieck.cache_info(), groth_module._memos["K"]) == (info, memo)

    def test_a_cohomology_window_past_the_ceiling_leaves_its_memo_and_counts(self, monkeypatch):
        # schubert raises before it marches, memoises or counts anything.
        monkeypatch.setattr(poly_module, "MAX_EXPONENT", 3)
        grothendieck.cache_clear()
        schubert(Permutation.parse("4321"))
        memo, info = dict(groth_module._memos["cohomology"]), schubert.cache_info()
        monkeypatch.setattr(groth_module, "_window_marches", None)  # no march may run
        with pytest.raises(ExponentCeilingExceeded, match="window 5 gives exponents up to 4"):
            schubert(Permutation.parse("15432"))
        assert (schubert.cache_info(), groth_module._memos["cohomology"]) == (info, memo)

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

    def test_k_monk_rule_on_s6(self):
        # The rule a marching x_k G_w would follow, against the oracle.
        for w in symmetric_group(6):
            for k in range(1, 7):
                product = Polynomial.variable(k) * grothendieck(w)
                assert expand_in_basis(product) == k_monk(w, k), (w, k)

    def test_grothendieck_at_all_ones_is_one(self):
        # Every (x_g - 1) factor in the transition formula vanishes at 1.
        for p in symmetric_group(4):
            assert sum(c for _, c in grothendieck(p).terms()) == 1


def k_monk(w: Permutation, k: int) -> dict[Permutation, int]:
    """x_k G_w in the Grothendieck basis by Lenart's K-Monk rule (JPAA
    2003): the sum over chains w -> w t_{a1,k} ... t_{ap,k} t_{k,b1} ...
    t_{k,bq} with k > a1 > ... > ap >= 1 and b1 > ... > bq > k, every step
    a cover and (p, q) != (0, 0), each signed (-1)^(q - 1), or -1 when
    q = 0.  A cover w t_{k,b} needs b <= max(len(w), k) + 1."""
    out: Counter = Counter()

    def climb(u, last_a, last_b, q):
        if u != w:  # every step is a cover, so only the empty chain ends at w
            out[u] += (-1) ** (q - 1) if q else -1
        covers = u.length() + 1
        if not q:
            for a in range(1, last_a):
                v = u.transpose(a, k)
                if v.length() == covers:
                    climb(v, a, last_b, 0)
        for b in range(k + 1, last_b):
            v = u.transpose(k, b)
            if v.length() == covers:
                climb(v, last_a, b, q + 1)

    climb(w, k, max(w.size(), k) + 2, 0)
    return {v: c for v, c in out.items() if c}


def inversions(window) -> int:
    return sum(1 for i, j in itertools.combinations(range(len(window)), 2) if window[i] > window[j])


class TestExpansionIdentity:
    """The keys an expansion builds behave as parsed permutations, and an
    expansion reads the memo as it always has."""

    @pytest.mark.parametrize(
        "sigma, rho, terms, hits, misses",
        [("326541", "7312654", 1209, 1828, 1910), ("2647315", "314265", 559, 904, 1161)],
    )
    def test_terms_and_cache_counts_from_a_cleared_memo(self, sigma, rho, terms, hits, misses):
        grothendieck.cache_clear()
        expansion = structure_constants(Permutation.parse(sigma), Permutation.parse(rho))
        info = grothendieck.cache_info()
        assert (len(expansion), info.hits, info.misses) == (terms, hits, misses)
        assert_keys_behave_as_parsed(expansion)

    def test_keys_of_every_s4_product(self):
        perms = list(symmetric_group(4))
        for sigma, rho in itertools.product(perms, perms):
            assert_keys_behave_as_parsed(structure_constants(sigma, rho))


def assert_keys_behave_as_parsed(expansion) -> None:
    for key in expansion:
        parsed = Permutation.parse(key.text())
        assert key == parsed and parsed == key
        assert hash(key) == hash(parsed)
        assert repr(key) == repr(parsed)
        assert pickle.loads(pickle.dumps(key)) == key
        assert key.length() == inversions(key.window) == parsed.length()
