"""Exact Schubert calculus via diagram marching.

Permutation diagrams, marching trees, Grothendieck/Schubert polynomials
over exact integers, and structure constants for truncation Schubert
problems, cross-checked against a basis-expansion oracle.
"""

from .diagram import (
    Box,
    MarchError,
    add_box,
    diagram,
    k_march,
    k_march_steps,
    march,
    march_boxes,
    march_children,
    maximal_corner,
    pivot_rows,
    pivots,
    render,
    transition_pair,
)
from .grothendieck import (
    ExpansionCeilingExceeded,
    ExpansionMap,
    NonExactDivision,
    expand_in_basis,
    expansion_to_json,
    grothendieck,
    grothendieck_dd,
    schubert,
    structure_constants,
)
from .permutations import LehmerCode, Permutation, symmetric_group
from .poly import ExponentCeilingExceeded, Polynomial, parse_polynomial
from .trees import (
    DEFAULT_NODE_CEILING,
    LeafSummary,
    MarchTree,
    NodeCeilingExceeded,
    TreeNode,
    build_tree,
    leaf_counts,
    leaf_summary,
    to_dot,
    to_json,
    to_text,
    unique_labeled_leaf,
)
from .truncation import (
    DEFAULT_ORACLE_WINDOW_CEILING,
    OracleCeilingExceeded,
    TruncationProblem,
    VerificationReport,
    detect,
    truncate_grothendieck_via_tree,
    truncation_product,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "Box",
    "DEFAULT_NODE_CEILING",
    "DEFAULT_ORACLE_WINDOW_CEILING",
    "ExpansionCeilingExceeded",
    "ExpansionMap",
    "ExponentCeilingExceeded",
    "LeafSummary",
    "LehmerCode",
    "MarchError",
    "MarchTree",
    "NodeCeilingExceeded",
    "NonExactDivision",
    "OracleCeilingExceeded",
    "Permutation",
    "Polynomial",
    "TreeNode",
    "TruncationProblem",
    "VerificationReport",
    "add_box",
    "build_tree",
    "detect",
    "diagram",
    "expand_in_basis",
    "expansion_to_json",
    "grothendieck",
    "grothendieck_dd",
    "k_march",
    "k_march_steps",
    "leaf_counts",
    "leaf_summary",
    "march",
    "march_boxes",
    "march_children",
    "maximal_corner",
    "parse_polynomial",
    "pivot_rows",
    "pivots",
    "render",
    "schubert",
    "structure_constants",
    "symmetric_group",
    "to_dot",
    "to_json",
    "to_text",
    "transition_pair",
    "truncate_grothendieck_via_tree",
    "truncation_product",
    "unique_labeled_leaf",
    "verify",
]
