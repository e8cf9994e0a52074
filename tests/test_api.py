"""The public names of the package: adding or dropping one is a deliberate change."""

import ysym

PUBLIC = [
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


def test_public_names_are_exactly_the_listed_ones():
    assert sorted(ysym.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in ysym.__all__:
        assert getattr(ysym, name) is not None, name
