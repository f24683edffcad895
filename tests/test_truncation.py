import importlib
import itertools
import pickle
import random

import pytest

from schubert import (
    DEFAULT_NODE_CEILING,
    DEFAULT_ORACLE_WINDOW_CEILING,
    NodeCeilingExceeded,
    OracleCeilingExceeded,
    Permutation,
    Polynomial,
    VerificationReport,
    build_tree,
    detect,
    grothendieck,
    leaf_counts,
    leaf_summary,
    schubert,
    structure_constants,
    symmetric_group,
    truncate_grothendieck_via_tree,
    truncation_product,
    verify,
)
from schubert.grothendieck import expand_in_basis, parse_expansion
from schubert.trees import _holds_a_labeled_leaf
from schubert.worked_examples import EXAMPLE_3, EXAMPLE_4, EXAMPLE_5, TRUNCATION_IDENTITY

from permutation_helpers import pieri, pieri_shape, w0_conjugate

ID = Permutation.identity()
trees_module = importlib.import_module("schubert.trees")


def refuse_to_march(*args):
    raise AssertionError("marched a tree with no labeled leaf")


def problem_of(example):
    """Detect the truncation problem of a worked product example."""
    sigma, alpha = Permutation.parse(example["sigma"]), Permutation.parse(example["alpha"])
    return detect(sigma, alpha, example["n"], example["t"])


def expected(example, mode="K"):
    return parse_expansion(example["expansions"][mode])


def truncation_problems(n, alphas):
    """Every truncation problem (sigma, alpha, n, t) with sigma in S_n and
    alpha in ``alphas``, over every level t the detector admits."""
    for sigma, alpha in itertools.product(symmetric_group(n), alphas):
        last = sigma.last_descent() or 0
        for t in range(max(1, last), 2 * n + 1):
            problem = detect(sigma, alpha, n, t)
            if problem is not None:
                yield problem


def assert_three_way(problem):
    """The routes agree in both modes, and product = oracle was decided
    by the factors: r_t(G_{id * alpha}) = G_rho, the truncation identity."""
    truncated = grothendieck(problem.alpha.stabilize(problem.n)).truncate(problem.t)
    assert truncated == grothendieck(problem.rho), problem
    reports = {mode: verify(problem, mode) for mode in ("K", "cohomology")}
    for mode, report in reports.items():
        assert report.match, (problem, mode)
        assert report.product_expansion == report.oracle_expansion
        assert report.product_expansion is not report.oracle_expansion
    # Cohomology is the top layer of K (Kogan): S_sigma * S_rho is the
    # lowest-degree part of G_sigma * G_rho.
    top = problem.sigma.length() + problem.rho.length()
    k_oracle = reports["K"].oracle_expansion
    top_layer = {perm: c for perm, c in k_oracle.items() if perm.length() == top}
    assert reports["cohomology"].oracle_expansion == top_layer, problem


def resum(expansion: dict[Permutation, int]) -> Polynomial:
    total = Polynomial.zero()
    for perm, c in expansion.items():
        total = total + grothendieck(perm) * c
    return total


class TestDetect:
    def test_example_3(self):
        problem = problem_of(EXAMPLE_3)
        assert problem is not None
        assert problem.rho == Permutation.parse(EXAMPLE_3["rho"])

    def test_example_4(self):
        problem = problem_of(EXAMPLE_4)
        assert problem is not None
        assert problem.rho == Permutation.parse(EXAMPLE_4["rho"])

    def test_identity_alpha_has_the_identity_as_its_leaf(self):
        assert detect(ID, ID, 3, 2) == (ID, ID, 3, 2, ID)

    def test_sigma_descent_too_late(self):
        assert detect(Permutation.parse("4321"), Permutation.parse("2143"), 4, 1) is None

    def test_no_single_leaf(self):
        # 2143 is the minimal non-vexillary window; its stabilized K tree
        # has three labeled leaves at level 2.
        assert detect(ID, Permutation.parse("2143"), 4, 2) is None

    def test_checks_run_in_order_before_the_tree_walk(self):
        # Level, then windows, then sigma's descent, then the walk under its ceiling.
        late, oversized = Permutation.parse("4321"), Permutation.parse("2143")
        with pytest.raises(ValueError, match=r"t must lie in \[1, 6\], got 0"):
            detect(ID, oversized, 3, 0)
        # A walk under a ceiling of 0 would raise at once.
        assert detect(late, oversized, 4, 1, node_ceiling=0) is None
        with pytest.raises(NodeCeilingExceeded, match="^more than 0 distinct labels$"):
            detect(ID, oversized, 4, 2, node_ceiling=0)

    def test_an_alpha_without_a_labeled_leaf_is_no_problem_under_any_ceiling(self, monkeypatch):
        # At t = 2 the value 5 of 12348765 has three larger values to its
        # left: its K tree is one null leaf, and detect marches none of it.
        sigma, alpha = Permutation.parse("21"), Permutation.parse("4321")
        stabilized = alpha.stabilize(4)
        assert leaf_summary(build_tree(stabilized, 2, "K")) == ({}, 1, stabilized)
        monkeypatch.setattr(trees_module, "_window_marches", refuse_to_march)
        monkeypatch.setattr(trees_module, "march_children", refuse_to_march)
        # The root is tested before it is counted, so a ceiling of 0 is no limit.
        for ceiling in (0, 1, 2, DEFAULT_NODE_CEILING):
            assert detect(sigma, alpha, 4, 2, node_ceiling=ceiling) is None
            assert leaf_counts(stabilized, 2, "K", ceiling) == ({}, None, stabilized)

    def test_t_range_enforced(self):
        with pytest.raises(ValueError):
            detect(ID, ID, 3, 0)
        with pytest.raises(ValueError):
            detect(ID, ID, 3, 7)

    def test_window_enforced(self):
        oversized = Permutation.parse("2143")
        for sigma, alpha in [(oversized, ID), (ID, oversized)]:
            with pytest.raises(ValueError, match="^both windows must fit in S_3$"):
                detect(sigma, alpha, 3, 2)

    def test_a_problem_round_trips_through_pickle(self):
        problem = problem_of(EXAMPLE_4)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(problem, protocol))
            assert back == problem and hash(back) == hash(problem)


class TestTruncationProduct:
    def test_example_3(self):
        assert truncation_product(problem_of(EXAMPLE_3), "K") == expected(EXAMPLE_3)

    def test_example_4(self):
        assert truncation_product(problem_of(EXAMPLE_4), "K") == expected(EXAMPLE_4)

    def test_example_5(self):
        problem = problem_of(EXAMPLE_5)
        assert problem is not None
        assert problem.rho == Permutation.parse(EXAMPLE_5["rho"])
        assert truncation_product(problem, "K") == expected(EXAMPLE_5)
        assert truncation_product(problem, "cohomology") == expected(EXAMPLE_5, "cohomology")

    def test_cohomology_signs_and_degrees(self):
        problem = problem_of(EXAMPLE_4)
        top = problem.sigma.length() + problem.rho.length()
        expansion = truncation_product(problem, "cohomology")
        assert all(c > 0 for c in expansion.values())
        assert all(perm.length() == top for perm in expansion)


def single_leaf_definitions(triples):
    """rho, or None, for each (sigma, alpha, n, t) by the paper's
    definition read off the built tree: sigma's last descent is at most t,
    and leaf_summary(build_tree(...)) of alpha's n-stabilization at level t
    holds exactly one labeled leaf, of multiplicity 1."""
    leaves = {}
    answers = []
    for sigma, alpha, n, t in triples:
        if (alpha, n, t) not in leaves:
            counts = leaf_summary(build_tree(alpha.stabilize(n), t, "K")).counts
            leaves[alpha, n, t] = next(iter(counts)) if list(counts.values()) == [1] else None
        answers.append(None if (sigma.last_descent() or 0) > t else leaves[alpha, n, t])
    return answers


def refuse_the_dag_walk(*args):
    raise AssertionError("detect walked the marching DAG")


def check_detect_is_the_definition(triples, monkeypatch):
    """detect gives the definition's rho on every triple, walking no DAG
    and counting no path; returns the number of problems."""
    expected = single_leaf_definitions(triples)
    with monkeypatch.context() as patch:
        patch.setattr(trees_module, "_tree_dag", refuse_the_dag_walk)
        patch.setattr(trees_module, "_leaf_paths", refuse_the_dag_walk)
        found = [detect(*triple) for triple in triples]
    for triple, problem, rho in zip(triples, found, expected):
        assert (problem and problem.rho) == rho, triple
        assert problem is None or problem == (*triple, rho)
    return sum(rho is not None for rho in expected)


class TestSingleLeafChain:
    """detect follows alpha's one live chain: it equals the definition on a
    built tree and marches no label off the chain."""

    def test_every_triple_of_s1_to_s4(self, monkeypatch):
        triples = [
            (sigma, alpha, n, t)
            for n in range(1, 5)
            for sigma, alpha in itertools.product(symmetric_group(n), repeat=2)
            for t in range(1, 2 * n + 1)
        ]
        assert len(triples) == 4842
        check_detect_is_the_definition(triples, monkeypatch)

    @pytest.mark.parametrize(("n", "cases", "problems"), [(5, 1200, 904), (6, 8640, 5498)])
    def test_every_alpha_and_level_of_s5_and_s6(self, n, cases, problems, monkeypatch):
        triples = [(ID, alpha, n, t) for alpha in symmetric_group(n) for t in range(1, 2 * n + 1)]
        assert len(triples) == cases
        assert check_detect_is_the_definition(triples, monkeypatch) == problems

    def test_it_marches_only_the_chain(self, monkeypatch):
        # Each label marched is live and, after the first, the one live child
        # of the label marched before it; every label but the last has one.
        kernel = trees_module._window_marches

        def live_children(window, t):
            node = kernel(window, "K", t)
            children = [] if node is None else node[2].values()
            return [child for child in children if _holds_a_labeled_leaf(child, t)]

        marched = []

        def recording(window, mode, t):
            marched.append(window)
            return kernel(window, mode, t)

        monkeypatch.setattr(trees_module, "_window_marches", recording)
        for sigma, alpha in itertools.product(symmetric_group(4), repeat=2):
            for t in range(max(1, sigma.last_descent() or 0), 9):
                marched.clear()
                problem = detect(sigma, alpha, 4, t)
                stabilized = {alpha.stabilize(m).window for m in range(5)}
                assert not marched or marched[0] in stabilized, (sigma, alpha, t)
                assert all(_holds_a_labeled_leaf(window, t) for window in marched)
                for above, below in zip(marched, marched[1:]):
                    assert live_children(above, t) == [below], (sigma, alpha, t)
                if problem is not None:
                    assert marched[-1] == problem.rho.window
                    assert kernel(marched[-1], "K", t) is None
                elif marched:
                    assert len(live_children(marched[-1], t)) != 1, (sigma, alpha, t)


def walked(sigma, alpha, m, t, rhos):
    """rho and both modes' expansions at m, from leaf_counts over alpha's
    m-stabilization and sigma *_m alpha themselves; None without a problem.
    rhos keeps the single leaf of each (alpha, m, t) walked."""
    if (alpha, m, t) not in rhos:
        counts = leaf_counts(alpha.stabilize(m), t, "K").counts
        rhos[alpha, m, t] = next(iter(counts)) if list(counts.values()) == [1] else None
    rho = rhos[alpha, m, t]
    if (sigma.last_descent() or 0) > t or rho is None:
        return None
    root = sigma.star(alpha, m)
    return (rho, *(leaf_counts(root, t, mode).signed() for mode in ("K", "cohomology")))


def check_stable_from_n0(sigma, alpha, t, rhos):
    """From n0 = max(|sigma|, |alpha|, t - 1), but at least 1 as detect's
    n must be, to n0 + 3, the walked problem is the one at n0, and detect
    and truncation_product give it."""
    n0 = max(sigma.size(), alpha.size(), t - 1, 1)
    at_n0 = walked(sigma, alpha, n0, t, rhos)
    for m in range(n0, n0 + 4):
        assert m == n0 or walked(sigma, alpha, m, t, rhos) == at_n0, (sigma, alpha, t, m)
        problem = detect(sigma, alpha, m, t)
        answer = problem and (
            problem.rho, *(truncation_product(problem, mode) for mode in ("K", "cohomology"))
        )
        assert answer == at_n0, (sigma, alpha, t, m)
    return at_n0 is not None


class TestSmallestN:
    """From n0 on neither rho nor the expansion depends on n, so detect and
    truncation_product walk at min(n, n0); the walks here take both roots
    at every n and do not use that shortcut."""

    def test_every_s4_triple(self):
        problems, rhos = 0, {}
        for sigma, alpha in itertools.product(symmetric_group(4), repeat=2):
            for t in range(max(1, sigma.last_descent() or 0), 9):
                problems += check_stable_from_n0(sigma, alpha, t, rhos)
        assert problems == 3548

    def test_a_seeded_s5_sample(self):
        rng = random.Random(20046)
        s5 = list(symmetric_group(5))
        for sigma, alpha in [(rng.choice(s5), rng.choice(s5)) for _ in range(150)]:
            t = rng.randint(max(1, sigma.last_descent() or 0), 10)
            check_stable_from_n0(sigma, alpha, t, {})

    def test_a_long_window_walks_at_n0(self):
        # At n = 4000 the walks are those at n0 = 3: sigma *_3 alpha has five
        # live labels, where sigma *_4000 alpha has over 4,000.
        sigma, alpha = Permutation.parse("321"), Permutation.parse("132")
        problem = detect(sigma, alpha, 4000, 2)
        assert problem == (sigma, alpha, 4000, 2, alpha)
        expansion = {Permutation.parse(w): c for w, c in (("3412", 1), ("4213", 1), ("4312", -1))}
        assert truncation_product(problem, "K", node_ceiling=5) == expansion
        # A problem the caller builds keeps its n, and so does its star root.
        assert problem.star_root().size() == 4003


class TestTruncateViaTree:
    def test_figure_2_case(self):
        gamma, t = Permutation.parse(TRUNCATION_IDENTITY["gamma"]), TRUNCATION_IDENTITY["t"]
        expansion = truncate_grothendieck_via_tree(gamma, t)
        assert expansion == parse_expansion(TRUNCATION_IDENTITY["expansion"])
        assert resum(expansion) == grothendieck(gamma).truncate(t)

    def test_identity(self):
        assert truncate_grothendieck_via_tree(ID, 3) == {ID: 1}

    def test_single_march_case(self):
        expansion = truncate_grothendieck_via_tree(Permutation.parse("132"), 1)
        assert expansion == parse_expansion({"21": 1})
        assert resum(expansion) == grothendieck(Permutation.parse("132")).truncate(1)

    def test_a_tree_of_null_leaves_only_marches_nothing(self, monkeypatch):
        # A full walk of this K tree meets 884,117 null leaves in about 1 s.
        # The first column of its diagram holds four boxes, more than 2, so
        # leaf_counts tests the root once and returns, in about 1.4 µs.
        gamma = Permutation.parse("6,5,4,3,1,2,12,11,10,9,8,7")
        monkeypatch.setattr(trees_module, "_window_marches", refuse_to_march)
        monkeypatch.setattr(trees_module, "march_children", refuse_to_march)
        assert leaf_counts(gamma, 2, "K") == ({}, None, gamma)
        assert truncate_grothendieck_via_tree(gamma, 2) == {}

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_identity_sweep(self, n):
        # Levels 1 to n - 1 hold every level below gamma's last descent,
        # where the tree marches; at the others the root is its one leaf.
        for gamma in symmetric_group(n):
            for t in range(1, n):
                expansion = truncate_grothendieck_via_tree(gamma, t)
                assert resum(expansion) == grothendieck(gamma).truncate(t), (gamma, t)


class TestVerify:
    def test_example_4_k_and_cohomology(self):
        problem = problem_of(EXAMPLE_4)
        report = verify(problem, "K")
        assert report.match and not report.discrepancies
        assert len(report.tree_expansion) == len(EXAMPLE_4["expansions"]["K"])
        assert report.oracle_expansion == report.tree_expansion
        assert verify(problem, "cohomology").match

    def test_example_3(self):
        report = verify(problem_of(EXAMPLE_3), "K")
        assert report.match
        assert len(report.tree_expansion) == len(EXAMPLE_3["expansions"]["K"])

    def test_degenerate_identity_sigma(self):
        problem = detect(ID, Permutation.parse("132"), 3, 2)
        report = verify(problem, "K")
        assert report.match
        assert report.tree_expansion == {problem.rho: 1}

    def test_oracle_ceiling(self):
        problem = problem_of(EXAMPLE_5)
        with pytest.raises(OracleCeilingExceeded):
            verify(problem, "K")
        report = verify(problem, "K", oracle_window_ceiling=10)
        assert report.match

    def test_report_json_fields(self):
        problem = problem_of(EXAMPLE_4)
        report = verify(problem, "K")
        assert VerificationReport._fields == (
            "problem",
            "mode",
            "tree_expansion",
            "product_expansion",
            "oracle_expansion",
        )
        p = Permutation.parse
        assert report.problem == problem == (p("321"), p("132"), 3, 2, p("132"))
        assert report.mode == "K"
        assert report.tree_expansion == parse_expansion({"3412": 1, "4213": 1, "4312": -1})
        assert report.product_expansion == report.oracle_expansion == report.tree_expansion
        assert report.match is True and report.discrepancies == []

    def test_the_verdict_is_read_from_the_routes(self):
        # A report cannot disagree with its own routes: emptying the tree
        # route leaves every oracle term as a discrepancy with tree 0.
        report = verify(problem_of(EXAMPLE_4), "K")._replace(tree_expansion={})
        assert report.match is False
        oracle = expected(EXAMPLE_4)
        assert report.oracle_expansion == oracle
        assert report.discrepancies == [
            {"perm": perm.text(), "tree": 0, "product": oracle[perm], "oracle": oracle[perm]}
            for perm in sorted(oracle, key=lambda q: (q.length(), q.text()))
        ]

    @pytest.mark.parametrize("mode", ["K", "cohomology"])
    def test_a_wrong_rho_is_reported_as_a_discrepancy(self, mode):
        problem = problem_of(EXAMPLE_4)._replace(rho=Permutation.parse("213"))
        report = verify(problem, mode)
        assert not report.match

        def in_mode(expansion):
            top = problem.sigma.length() + problem.rho.length()
            return {p: c for p, c in expansion.items() if mode == "K" or p.length() == top}

        truncated = grothendieck(problem.alpha.stabilize(3)).truncate(2)
        product = expand_in_basis(grothendieck(problem.sigma) * truncated)
        assert report.product_expansion == in_mode(product)
        assert report.oracle_expansion == in_mode(structure_constants(problem.sigma, problem.rho))
        expected = [{"perm": "3412", "tree": 1, "product": 1, "oracle": 0}]
        if mode == "K":
            expected.append({"perm": "4312", "tree": -1, "product": -1, "oracle": 0})
        assert report.discrepancies == expected


    @pytest.mark.parametrize("mode", ["K", "cohomology"])
    def test_one_basis_expansion_when_the_factors_agree(self, mode, monkeypatch):
        # The product route is a copy of the oracle exactly when
        # r_t(G_{id * alpha}) = G_rho; only a mismatch expands it on its own.
        calls = []
        for name in ("schubert.grothendieck", "schubert.truncation"):
            module = importlib.import_module(name)
            monkeypatch.setattr(
                module,
                "expand_in_basis",
                lambda f, mode="K", expand=module.expand_in_basis: (
                    calls.append(f) or expand(f, mode)
                ),
            )
        problem = problem_of(EXAMPLE_4)
        assert verify(problem, mode).match
        assert len(calls) == 1
        calls.clear()
        wrong = problem._replace(rho=Permutation.parse("213"))
        assert not verify(wrong, mode).match
        assert len(calls) == 2


class TestSweeps:
    def test_three_way_verification_on_s3(self):
        checked = 0
        for problem in truncation_problems(3, symmetric_group(3)):
            checked += 1
            assert_three_way(problem)
        assert checked > 100

    def test_three_way_verification_exhaustive_at_n4(self):
        checked = 0
        for problem in truncation_problems(4, symmetric_group(4)):
            checked += 1
            assert_three_way(problem)
        assert checked == 3596

    def test_three_way_verification_on_an_s5_sample(self):
        """A seeded sample of 300 of the 5,540 problems with sigma in S_5,
        alpha in S_3 and n = 5.  Alpha is kept in S_3 so that every star
        root has window at most 8, the default oracle ceiling."""
        problems = list(truncation_problems(5, symmetric_group(3)))
        assert len(problems) == 5540
        for problem in random.Random(2004).sample(problems, 300):
            assert_three_way(problem)

    def test_cohomology_tree_is_the_pieri_rule_on_an_s5_sample(self):
        """Kogan's stratum past the oracle: every problem among 4,000
        seeded S_5 draws whose rho has S_rho = h_m(x_1..x_k), most of them
        with a star window above the oracle's ceiling."""
        rng = random.Random(7)
        perms = list(symmetric_group(5))
        checked = past = 0
        for _ in range(4000):
            sigma, alpha, t = rng.choice(perms), rng.choice(perms), rng.randint(1, 10)
            problem = detect(sigma, alpha, 5, t)
            shape = problem and pieri_shape(problem.rho)
            if shape:
                checked += 1
                past += problem.star_root().size() > DEFAULT_ORACLE_WINDOW_CEILING
                assert truncation_product(problem, "cohomology") == pieri(sigma, *shape), problem
        assert (checked, past) == (266, 177)

    @pytest.mark.parametrize("mode", ["K", "cohomology"])
    def test_tree_is_the_truncated_product_on_every_s4_triple(self, mode):
        """tree(sigma *_4 alpha at t) expands P_sigma * r_t(P_{1^4 x alpha}),
        P = G in K and S in cohomology, for every sigma and alpha in S_4
        and every level t from sigma's last descent to 8; that includes
        the triples detect skips, whose alpha tree has several leaves."""
        read = grothendieck if mode == "K" else schubert
        triples = skipped = 0
        for sigma, alpha in itertools.product(symmetric_group(4), repeat=2):
            star = sigma.star(alpha, 4)
            assert star.length() == sigma.length() + alpha.length()
            for t in range(max(1, sigma.last_descent() or 0), 9):
                triples += 1
                skipped += detect(sigma, alpha, 4, t) is None
                tree = leaf_counts(star, t, mode).signed()
                product = read(sigma) * read(alpha.stabilize(4)).truncate(t)
                assert tree == expand_in_basis(product, mode), (sigma, alpha, t)
        assert (triples, skipped) == (3840, 244)

    def test_cohomology_is_the_top_layer_of_k_mode_on_s3(self):
        for problem in truncation_problems(3, symmetric_group(3)):
            top = problem.sigma.length() + problem.rho.length()
            k_layer = {
                perm: abs(c)
                for perm, c in truncation_product(problem, "K").items()
                if perm.length() == top
            }
            assert truncation_product(problem, "cohomology") == k_layer

    def test_no_pivot_vanishing_on_s4(self):
        from schubert import pivots

        for tau in symmetric_group(4):
            if tau.is_identity() or pivots(tau):
                continue
            d = tau.last_descent()
            assert grothendieck(tau).truncate(d - 1) == 0

    def test_w0_symmetry_on_s3(self):
        # The longest-element involution is an automorphism of the ambient
        # flag variety's K ring, so the comparison restricts both sides to
        # permutations supported in S_n: the flipped product also carries
        # terms beyond the ambient, which the ring quotient kills.
        for sigma, rho in itertools.product(symmetric_group(3), repeat=2):
            constants = structure_constants(sigma, rho)
            base = max([sigma.size(), rho.size(), 2] + [p.size() for p in constants])
            for n in (base, base + 1):
                flipped = structure_constants(w0_conjugate(sigma, n), w0_conjugate(rho, n))
                restricted = {p: c for p, c in flipped.items() if p.size() <= n}
                assert restricted == {
                    w0_conjugate(p, n): c for p, c in constants.items() if p.size() <= n
                }
