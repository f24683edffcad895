"""The answers of the paper's worked examples, Examples 1-5 and Figures 1-2.

``schubert verify-paper`` and the tests check the library against these
plain records.  Permutations are texts for :meth:`Permutation.parse`,
boxes are (row, column) pairs, march sets are tuples of rows, and an
expansion maps texts to coefficients (read by
:func:`schubert.grothendieck.parse_expansion`).  A record's ``name`` is
the line ``verify-paper`` prints for it.
"""

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
    # March set -> label, in the order of the children; the last has no pivots.
    "second_level": {(1,): "421356", (2,): "341256", (3,): "324156", (1, 2): "431256",
                     (1, 3): "423156", (2, 3): "342156", (1, 2, 3): "432156"},
    "null_leaves": 4,
    "leaves": THREE_TERMS,
}

FIGURE_1 = {
    "name": "figure 1: the K tree of 34127658 at level 4",
    "star": ("3412", "3214", 4),
    "perm": "34127658", "t": 4,  # the root
    "labeled": 18,  # vertices
    "null_leaves": 0,
    # (parent, march set, child) for every edge of the tree.
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
