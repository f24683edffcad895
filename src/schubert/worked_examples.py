"""The answers of the paper's worked examples, Examples 1-5 and Figures 1-2.

``schubert verify-paper`` and the tests check the library against these
plain records.  Permutations are texts for :meth:`Permutation.parse`,
boxes are (row, column) pairs, march sets are tuples of rows, a tree
figure is its edge list of (parent, march set, child) with ``None`` the
null leaf, and an expansion maps texts to coefficients (read by
:func:`schubert.grothendieck.parse_expansion`).  A record's ``name`` is
the line ``verify-paper`` prints for it.  :data:`FIXTURES` pairs each
record with the check that ``verify-paper`` runs on it, in run order.
"""
from .diagram import (
    diagram, k_march, k_march_steps, march, march_boxes, maximal_corner, pivots, transition_pair
)
from .grothendieck import grothendieck, parse_expansion
from .permutations import Permutation
from .poly import Polynomial
from .trees import build_tree, leaf_counts
from .truncation import detect, truncate_grothendieck_via_tree, truncation_product, verify

EXAMPLE_1 = {
    "name": "example 1: diagram, corner, pivots, marches of 4317625",
    "perm": "4317625", "length": 10, "last_descent": 5,
    "diagram": ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (4, 2), (4, 5), (4, 6), (5, 2), (5, 5)),
    "corner": (5, 5), "pivots": ((1, 4), (2, 3), (3, 1)),
    "transition": (5, 7, "4317526"),  # (g, m, the permutation without the corner)
    "marches": {2: "4517326", 3: "4357126"},  # pivot row -> march towards it
}

EXAMPLE_2 = {
    "name": "example 2: K-march of 4317625 towards rows 1 and 3",
    "perm": "4317625", "rows": (1, 3),
    # The intermediates of k_march_steps: a row marched towards, or a box added.
    "steps": (("march", 1, "5317426"), ("add", (5, 4), "5317624"), ("march", 3, "5347126")),
}

# The signed leaves of Figure 2 at degree 4, the product of Example 4, and
# the tree expansion of G_321465 truncated at level 2.
THREE_TERMS = {"421356": 1, "341256": 1, "431256": -1}

# The product of Example 3, and the signed leaves of Figure 1 at degree 7.
NINE_TERMS = {"46123578": 1, "36142578": 1, "35162478": 1, "34261578": 1, "46132578": -1,
              "36152478": -1, "36241578": -1, "35261478": -1, "36251478": 1}

FIGURE_2 = {
    "name": "figure 2: the K tree of 321465 at level 2",
    "star": ("321", "132", 3),  # the root is 321 *_3 132
    "perm": "321465", "length": 4, "last_descent": 5, "t": 2,  # the root
    "diagram": ((1, 1), (1, 2), (2, 1), (5, 5)),
    "corner": (5, 5), "pivots": ((4, 4),),
    "transition": (5, 6, "321456"),
    "marches": {4: "321546"},  # the root's one edge
    "labeled": 9, "null_leaves": 4,
    # Each parent's edges in child order; a label with no pivots has one, (), to None.
    "edges": (("321465", (4,), "321546"), ("321546", (1,), "421356"),
              ("321546", (2,), "341256"), ("321546", (3,), "324156"),
              ("321546", (1, 2), "431256"), ("321546", (1, 3), "423156"),
              ("321546", (2, 3), "342156"), ("321546", (1, 2, 3), "432156"),
              ("324156", (), None), ("423156", (), None), ("342156", (), None),
              ("432156", (), None)),
    "leaves": THREE_TERMS,
}

FIGURE_1 = {
    "name": "figure 1: the K tree of 34127658 at level 4",
    "star": ("3412", "3214", 4),
    "perm": "34127658", "t": 4,  # the root
    "labeled": 18, "null_leaves": 0,
    "edges": (("34127658", (2,), "35127468"), ("34127658", (4,), "34157268"),
              ("34127658", (2, 4), "35147268"), ("35127468", (2,), "36125478"),
              ("35127468", (4,), "35162478"), ("35127468", (2, 4), "36152478"),
              ("34157268", (4,), "34165278"), ("35147268", (2,), "36145278"),
              ("35147268", (4,), "35164278"), ("35147268", (2, 4), "36154278"),
              ("36125478", (1,), "46123578"), ("36125478", (4,), "36142578"),
              ("36125478", (1, 4), "46132578"), ("34165278", (3,), "34261578"),
              ("36145278", (3,), "36241578"), ("35164278", (3,), "35261478"),
              ("36154278", (3,), "36251478")),
    "leaves": NINE_TERMS,
}

# Truncation products: sigma times alpha stabilized at n, truncated at t,
# has the single labeled leaf rho.  "oracle" lists the modes checked
# against the polynomial oracle; rho's window of 10 in Example 5 is past it.
EXAMPLE_3 = {
    "name": "example 3: product of 3412 and 12463578",
    "sigma": "3412", "alpha": "3214", "n": 4, "t": 4, "rho": "12463578",
    "expansions": {"K": NINE_TERMS},
    "oracle": ("K",),
}

EXAMPLE_4 = {
    "name": "example 4: product of 321 and 132",
    "sigma": "321", "alpha": "132", "n": 3, "t": 2, "rho": "132",
    "expansions": {"K": THREE_TERMS},
    "oracle": ("K", "cohomology"),
}

EXAMPLE_5 = {
    "name": "example 5: products with 123469857,10",
    "sigma": "41352", "alpha": "4321", "n": 5, "t": 7, "rho": "123469857,10",
    "stabilized": "123459876,10",
    "expansions": {
        "K": {"413629857,10": 1, "413569827,10": 1, "413659827,10": -1},
        "cohomology": {"413629857,10": 1, "413569827,10": 1},
    },
    "oracle": (),
}

PRODUCTS = (EXAMPLE_3, EXAMPLE_4, EXAMPLE_5)

TRUNCATION_IDENTITY = {
    "name": "truncation identity for 321465 at level 2",
    "gamma": "321465", "t": 2, "expansion": THREE_TERMS,
}


# -- the worked-example fixtures ------------------------------------------
# Each checks one record above; a miss raises AssertionError.


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _fixture_permutation(ex: dict) -> None:
    """Length, last descent, diagram, corner, pivots, corner removal, marches."""
    p = Permutation.parse(ex["perm"])
    _check(p.length() == ex["length"], f"length of {p}")
    _check(p.last_descent() == ex["last_descent"], f"last descent of {p}")
    _check(diagram(p) == frozenset(ex["diagram"]), f"diagram of {p}")
    _check(maximal_corner(p) == ex["corner"], f"maximal corner of {p}")
    _check(pivots(p) == list(ex["pivots"]), f"pivots of {p}")
    g, m, q = ex["transition"]
    _check(transition_pair(p) == (g, m, Permutation.parse(q)), "corner-removing transposition")
    for row, expected in ex["marches"].items():
        result = march(p, row)
        _check(result == Permutation.parse(expected), f"march towards row {row}")
        _check(march_boxes(p, row) == diagram(result), f"picture march, row {row}")


def _fixture_k_march(ex: dict) -> None:
    p = Permutation.parse(ex["perm"])
    expected = [(kind, detail, Permutation.parse(text)) for kind, detail, text in ex["steps"]]
    _check(k_march_steps(p, ex["rows"]) == expected, "K-march intermediates")
    _check(k_march(p, ex["rows"]) == expected[-1][2], "algebraic K-march result")


def _fixture_tree(fig: dict) -> None:
    """A K tree figure's star root, signed leaves, labeled vertices and edges."""
    parse = Permutation.parse
    left, right, k = fig["star"]
    root = parse(left).star(parse(right), k)
    _check(root == parse(fig["perm"]), f"star product {left} *_{k} {right}")
    summary = leaf_counts(root, fig["t"], "K")
    _check(summary.null_count == fig["null_leaves"], "leaf summary")
    _check(summary.signed() == parse_expansion(fig["leaves"]), "signed leaves")
    tree = build_tree(root, fig["t"], "K")
    _check(tree.sizes[-1] - summary.null_count == fig["labeled"], "labeled vertex count")
    labels = tree.labels  # vertex 0, the null leaf, is labeled None
    edges = {(labels[u], rows, labels[v]) for u, out in enumerate(tree.out) for rows, v in out}
    _check(edges == {(parse(a), rows, b and parse(b)) for a, rows, b in fig["edges"]}, "edges")


def _fixture_figure2(fig: dict) -> None:
    _fixture_permutation(fig)
    _fixture_tree(fig)


def _fixture_product(ex: dict) -> None:
    sigma, alpha, rho = (Permutation.parse(ex[key]) for key in ("sigma", "alpha", "rho"))
    n, t = ex["n"], ex["t"]
    if "stabilized" in ex:
        stabilized = Permutation.parse(ex["stabilized"])
        _check(alpha.stabilize(n) == stabilized, f"{n}-stabilization of {alpha}")
    problem = detect(sigma, alpha, n, t)
    _check(problem is not None and problem.rho == rho, "detection")
    expected = {mode: parse_expansion(terms) for mode, terms in ex["expansions"].items()}
    for mode, terms in expected.items():
        _check(truncation_product(problem, mode) == terms, f"{mode} expansion")
    for mode in ex["oracle"]:
        _check(verify(problem, mode).match, f"three-way verification in {mode}")


def _fixture_truncation_identity(ex: dict) -> None:
    gamma = Permutation.parse(ex["gamma"])
    expansion = truncate_grothendieck_via_tree(gamma, ex["t"])
    _check(
        expansion == parse_expansion(ex["expansion"]),
        "tree expansion of the truncated Grothendieck polynomial",
    )
    total = Polynomial.zero()
    for perm, c in expansion.items():
        total = total + grothendieck(perm) * c
    _check(total == grothendieck(gamma).truncate(ex["t"]), "re-summed truncation identity")


FIXTURES = (
    (EXAMPLE_1, _fixture_permutation),
    (EXAMPLE_2, _fixture_k_march),
    (FIGURE_2, _fixture_figure2),
    (FIGURE_1, _fixture_tree),
    *((product, _fixture_product) for product in PRODUCTS),
    (TRUNCATION_IDENTITY, _fixture_truncation_identity),
)
