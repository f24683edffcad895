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
    expand_in_basis,
    expansion_to_json,
    grothendieck,
    grothendieck_dd,
    schubert,
    structure_constants,
)
from .permutations import Permutation, symmetric_group
from .poly import CeilingExceeded, ExponentCeilingExceeded, Polynomial
from .trees import (
    DEFAULT_NODE_CEILING,
    LeafSummary,
    MarchTree,
    NodeCeilingExceeded,
    build_tree,
    leaf_counts,
    leaf_summary,
    to_dot,
    to_json,
    to_text,
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
    "CeilingExceeded",
    "DEFAULT_NODE_CEILING",
    "DEFAULT_ORACLE_WINDOW_CEILING",
    "ExpansionCeilingExceeded",
    "ExpansionMap",
    "ExponentCeilingExceeded",
    "LeafSummary",
    "MarchError",
    "MarchTree",
    "NodeCeilingExceeded",
    "OracleCeilingExceeded",
    "Permutation",
    "Polynomial",
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
    "verify",
]
