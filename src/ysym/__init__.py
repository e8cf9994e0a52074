"""Exact computation with Young symmetrizers in symmetric group algebras.

Core objects: permutations, sparse rational group algebra elements, Young
tableaux, the symmetrizer product formulas, tabloids in the generic tensor
algebra and their ideal membership certificates, plus a partially
symmetrized variant for d-regular fillings and graph covariants.
"""

from .algebra import (
    AlgebraElement,
    antisymmetrize_set,
    conjugate,
    symmetrize_set,
    transposition_sum,
)
from .perm import Permutation, star
from .symmetrizer import (
    CongruenceContext,
    ExpansionMultiplier,
    SymmetrizerTriple,
    closed_form_multiplier,
    congruent,
    expand_product,
    garnir_zero,
    verify_corner_identities,
    young_symmetrizer,
)
from .tableau import (
    BlockDecomposition,
    Partition,
    YoungTableau,
    blocks_from_column,
    dominates,
    in_left_set,
    partitions,
    rightmost_corner_outside,
)
from .tensor import (
    Certificate,
    DnCertificate,
    DnFilling,
    MultiGraph,
    SymElement,
    Tabloid,
    TensorElement,
    graph_tabloid,
    graphs_containing,
    membership_certificate,
    project_sym,
    realize_tabloid,
    star_algebra,
    straighten,
    symmetrized_membership_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "BlockDecomposition",
    "Certificate",
    "CongruenceContext",
    "DnCertificate",
    "DnFilling",
    "ExpansionMultiplier",
    "MultiGraph",
    "Partition",
    "Permutation",
    "SymElement",
    "SymmetrizerTriple",
    "Tabloid",
    "TensorElement",
    "YoungTableau",
    "antisymmetrize_set",
    "blocks_from_column",
    "closed_form_multiplier",
    "congruent",
    "conjugate",
    "dominates",
    "expand_product",
    "garnir_zero",
    "graph_tabloid",
    "graphs_containing",
    "in_left_set",
    "membership_certificate",
    "partitions",
    "project_sym",
    "realize_tabloid",
    "rightmost_corner_outside",
    "star",
    "star_algebra",
    "straighten",
    "symmetrize_set",
    "symmetrized_membership_certificate",
    "transposition_sum",
    "verify_corner_identities",
    "young_symmetrizer",
]
