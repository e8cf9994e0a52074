"""The public names of the package, and the hook points the benchmark traces.

Adding or dropping a public name is a deliberate change.  The benchmark's
tracer (``perfbench/tracing.py``) patches named functions and class methods;
deleting one, or inheriting it instead of defining it on its class, breaks
the traced runs.
"""

import importlib
import sys
from pathlib import Path

import ysym
import ysym.sweeps  # noqa: F401  (loads every module the tracer patches)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

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


def _bindings() -> dict:
    """Every module binding and own class-dict entry of the loaded ysym modules."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "ysym" and not name.startswith("ysym."):
            continue
        for key, value in vars(module).items():
            out[name, key] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[name, key, attr] = member
    return out


def test_benchmark_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    before = _bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        during = _bindings()
    finally:
        tracer.uninstall()
    after = _bindings()
    patched = [k for k in before if during[k] is not before[k]]
    assert ("ysym.tensor", "Tabloid", "realize") in patched
    assert ("ysym", "young_symmetrizer") in patched
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
