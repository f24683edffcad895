"""Truncation Schubert problems: detection, marching products, verification.

A pair (sigma, alpha) in S_n with a level t defines a truncation
Schubert problem when sigma's last descent is at most t <= 2n and the K
tree of the n-stabilization of alpha has a single labeled leaf rho.
The marching formula then reads the expansion of the product of the
sigma and rho classes off the leaves of the tree rooted at the star
product sigma *_n alpha.

:func:`verify` returns three routes: the signed tree expansion, the basis
expansion of G_sigma * r_t(G_{id * alpha}), and the direct product oracle
for (sigma, rho), with S for G in cohomology.  Its report stores only
them, and reads ``match`` and ``discrepancies`` off them.  Product =
oracle is decided by comparing the factors r_t(G_{id * alpha}) and G_rho,
so both expansions run only when the factors differ.
"""
from __future__ import annotations

from typing import NamedTuple

from .grothendieck import (
    ExpansionMap,
    _read,
    expand_in_basis,
    structure_constants,
)
from .permutations import Permutation, _last_descent
from .poly import CeilingExceeded
from .trees import DEFAULT_NODE_CEILING, Mode, _single_leaf, leaf_counts

DEFAULT_ORACLE_WINDOW_CEILING = 8


class OracleCeilingExceeded(CeilingExceeded):
    """The problem is too large for the polynomial oracle at this ceiling."""


class TruncationProblem(NamedTuple):
    sigma: Permutation
    alpha: Permutation
    n: int
    t: int
    rho: Permutation

    def star_root(self) -> Permutation:
        return self.sigma.star(self.alpha, self.n)


class VerificationReport(NamedTuple):
    problem: TruncationProblem
    mode: Mode
    tree_expansion: ExpansionMap
    product_expansion: ExpansionMap
    oracle_expansion: ExpansionMap

    @property
    def match(self) -> bool:
        return not self.discrepancies

    @property
    def discrepancies(self) -> list[dict]:
        """The permutations on which the three routes disagree, ordered by
        length and then by text."""
        tree, product, oracle = self.tree_expansion, self.product_expansion, self.oracle_expansion
        if tree == product == oracle:
            return []
        found = []
        # Oracle keys first: they come from a basis expansion and carry their lengths.
        perms = set(oracle) | set(product) | set(tree)
        for perm in sorted(perms, key=lambda q: (q.length(), q.text())):
            values = (tree.get(perm, 0), product.get(perm, 0), oracle.get(perm, 0))
            if len(set(values)) != 1:
                found.append(
                    {"perm": perm.text(), "tree": values[0], "product": values[1], "oracle": values[2]}
                )
        return found


def _deciding_n(sigma: Permutation, alpha: Permutation, n: int, t: int) -> int:
    """min(n, n0) for n0 = max(|sigma|, |alpha|, t - 1): from n0 on, the
    problem and its expansion do not depend on n (see :func:`detect`)."""
    return min(n, max(sigma.size(), alpha.size(), t - 1))


def detect(
    sigma: Permutation,
    alpha: Permutation,
    n: int,
    t: int,
    node_ceiling: int = DEFAULT_NODE_CEILING,
) -> TruncationProblem | None:
    """Recognize (sigma, alpha, n, t) as a truncation Schubert problem.

    The paper's two conditions: sigma's last descent is at most t, and
    the K tree of the n-stabilization of alpha at level t has a single
    labeled leaf rho, counting multiplicity.  Returns None when either
    fails.  A bad t or window raises ValueError first; the tree is walked
    last.

    Neither condition depends on n once n >= n0 = max(|sigma|, |alpha|,
    t - 1), so the tree is walked at min(n, n0).  1^n x alpha has no
    descent at 1..n, so G_{1^n x alpha} is symmetric in x_1..x_{n+1}; for
    t <= n + 1 its truncation r_t is the stable Grothendieck polynomial of
    alpha in t variables (Fomin-Kirillov, *Grothendieck polynomials and the
    Yang-Baxter equation*, 1994), the same for every such n.  So rho does
    not depend on n, and by the paper's theorem neither does the
    expansion of G_sigma G_rho that :func:`truncation_product` reads.

    The walk follows one chain.  A live label, one whose tree holds a
    labeled leaf, that is not a leaf has a live child, since its r_t is a
    signed sum of its children's; two live children give two labeled
    leaves.  So the tree has a single leaf of multiplicity 1 exactly when
    every live label from the root has one live child, and the walk
    marches that chain alone, stopping at the first dead end or branch.
    It counts the chain's labels against ``node_ceiling``; an alpha whose
    tree has no labeled leaf gives None under every ceiling.
    """
    if not 1 <= t <= 2 * n:
        raise ValueError(f"t must lie in [1, {2 * n}], got {t}")
    if sigma.size() > n or alpha.size() > n:
        raise ValueError(f"both windows must fit in S_{n}")
    if _last_descent(sigma.window) > t:
        return None
    rho = _single_leaf(alpha.stabilize(_deciding_n(sigma, alpha, n, t)), t, node_ceiling)
    if rho is None:
        return None
    return TruncationProblem(sigma, alpha, n, t, Permutation._trusted(rho))


def truncation_product(
    problem: TruncationProblem,
    mode: Mode = "K",
    node_ceiling: int = DEFAULT_NODE_CEILING,
) -> ExpansionMap:
    """Signed leaf expansion of the tree rooted at sigma *_n alpha: the
    ``signed()`` leaf summary, which signs each leaf by that root's length.
    The tree is walked at min(n, n0), whose leaves are the same (see
    :func:`detect`), and ``node_ceiling`` counts the distinct labels with
    a labeled leaf below.

    In cohomology mode every sign is +1 and only permutations of length
    sigma + rho appear.
    """
    sigma, alpha, n, t, _ = problem
    root = sigma.star(alpha, _deciding_n(sigma, alpha, n, t))
    return leaf_counts(root, t, mode, node_ceiling).signed()


def truncate_grothendieck_via_tree(gamma: Permutation, t: int) -> ExpansionMap:
    """Expansion of r_t(G_gamma) read off the K tree of gamma.

    Summing coefficient * G_label reproduces the truncation exactly.
    """
    return leaf_counts(gamma, t, "K").signed()


def verify(
    problem: TruncationProblem,
    mode: Mode = "K",
    oracle_window_ceiling: int = DEFAULT_ORACLE_WINDOW_CEILING,
) -> VerificationReport:
    """Three-way check of the marching formula against the polynomial oracle.

    The report holds the tree expansion and the basis expansions of
    G_sigma * r_t(G_{id * alpha}) and of the direct (sigma, rho) product;
    ``match`` and ``discrepancies`` compare them term by term.  The tree
    route uses ``DEFAULT_NODE_CEILING``, whatever ceiling :func:`detect`
    was given.  Product = oracle is decided by comparing the factors:
    G_sigma is nonzero and Z[x] is a domain, so the two products, and
    hence their expansions, are equal exactly when
    r_t(G_{id * alpha}) = G_rho, which the truncation identity asserts.
    G_sigma * r_t(G_{id * alpha}) is multiplied out and expanded only
    when the factors differ.  In cohomology mode both polynomial routes
    read Schubert polynomials and expand in the Schubert basis.
    """
    star = problem.star_root()
    if star.size() > oracle_window_ceiling:
        raise OracleCeilingExceeded(
            f"window {star.size()} exceeds the oracle ceiling {oracle_window_ceiling}"
        )
    tree_expansion = truncation_product(problem, mode)
    truncated = _read(problem.alpha.stabilize(problem.n).window, mode).truncate(problem.t)
    sigma, rho = problem.sigma, problem.rho
    oracle_expansion = structure_constants(sigma, rho, mode)
    if truncated == _read(rho.window, mode):
        # A copy, so that editing one report field leaves the other alone.
        product_expansion = dict(oracle_expansion)
    else:
        product = _read(sigma.window, mode) * truncated
        product_expansion = expand_in_basis(product, mode)
    return VerificationReport(problem, mode, tree_expansion, product_expansion, oracle_expansion)
