"""Span tracing of ysym's layers, installed from the benchmark's own files.

``Tracer.install()`` replaces every binding of each traced function in every
loaded ``ysym`` module (``young_symmetrizer`` lives in symmetrizer, tensor,
sweeps and the package namespace), and the traced methods on their classes,
with a wrapper that records a span -- name, start, end, parent span and case
id -- plus the counters named in ``PER_LAYER``.  Nothing in ``src/`` is
edited.  Spans stay in memory until the round ends; a layer's self time is
its span durations minus the time covered by their child spans.
``uninstall()`` restores the original bindings.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import Counter

from workloads import VERIFY_BOUNDS, group_pairs

SWEEP_SUITES = tuple(suite for suite, _ in VERIFY_BOUNDS)

# (metric, unit, better); every name here is reported by the traced run.
PER_LAYER = (
    ("perm.pool_size", "count", "lower"),
    ("algebra.mul.calls", "count", "lower"),
    ("algebra.mul.term_products", "count", "lower"),
    ("algebra.mul.out_terms", "count", "lower"),
    ("algebra.mul.self_s", "s", "lower"),
    ("algebra.mul.ns_per_term_product", "ns", "lower"),
    ("algebra.mul.rational_share", "ratio", "lower"),
    ("algebra.mul_perm.calls", "count", "lower"),
    ("algebra.mul_perm.self_s", "s", "lower"),
    ("algebra.add.calls", "count", "lower"),
    ("algebra.add.self_s", "s", "lower"),
    ("algebra.set_sum.calls", "count", "lower"),
    ("algebra.set_sum.self_s", "s", "lower"),
    ("tableau.in_left_set.calls", "count", "lower"),
    ("tableau.in_left_set.self_s", "s", "lower"),
    ("symmetrizer.young_symmetrizer.calls", "count", "lower"),
    ("symmetrizer.young_symmetrizer.misses", "count", "lower"),
    ("symmetrizer.young_symmetrizer.hit_ratio", "ratio", "higher"),
    ("symmetrizer.young_symmetrizer.c_terms", "count", "lower"),
    ("symmetrizer.young_symmetrizer.self_s", "s", "lower"),
    ("symmetrizer.expand_product.calls", "count", "lower"),
    ("symmetrizer.expand_product.self_s", "s", "lower"),
    ("symmetrizer.closed_form_multiplier.calls", "count", "lower"),
    ("symmetrizer.closed_form_multiplier.self_s", "s", "lower"),
    ("symmetrizer.congruence_context.builds", "count", "lower"),
    ("symmetrizer.congruence_context.chain_length", "count", "lower"),
    ("symmetrizer.congruence_context.self_s", "s", "lower"),
    ("symmetrizer.verify_corner_identities.self_s", "s", "lower"),
    ("tensor.straighten.calls", "count", "lower"),
    ("tensor.straighten.out_terms", "count", "lower"),
    ("tensor.straighten.self_s", "s", "lower"),
    ("tensor.membership_certificate.calls", "count", "lower"),
    ("tensor.membership_certificate.summands", "count", "lower"),
    ("tensor.membership_certificate.self_s", "s", "lower"),
    ("tensor.certificate_verify.self_s", "s", "lower"),
    ("tensor.star_algebra.term_products", "count", "lower"),
    ("tensor.star_algebra.self_s", "s", "lower"),
    ("tensor.realize.calls", "count", "lower"),
    ("tensor.realize.self_s", "s", "lower"),
    ("tensor.dn_realize.calls", "count", "lower"),
    ("tensor.dn_realize.pairs", "count", "lower"),
    ("tensor.dn_realize.out_terms", "count", "lower"),
    ("tensor.dn_realize.self_s", "s", "lower"),
    ("tensor.sym_act.term_products", "count", "lower"),
    ("tensor.sym_act.self_s", "s", "lower"),
    ("tensor.dn_certificate_verify.self_s", "s", "lower"),
) + tuple(
    (f"sweeps.{suite}.{kind}", unit, better)
    for suite in SWEEP_SUITES
    for kind, unit, better in (("cases", "count", "higher"), ("self_s", "s", "lower"))
)


def _integer_terms(element) -> int:
    return sum(1 for _, c in element.items() if type(c) is int)


def _count_mul(tr, args, result):
    f, g = args
    if not isinstance(g, type(f)):
        return  # element times permutation: no convolution
    products = len(f) * len(g)
    tr.counts["algebra.mul.term_products"] += products
    tr.counts["algebra.mul.out_terms"] += len(result)
    tr.counts["algebra.mul.rational_products"] += products - _integer_terms(f) * _integer_terms(g)


def _count_symmetrizer(tr, args, result):
    # A miss builds a new triple; a hit hands back the object built before.
    key = (result.tableau, result.degree)
    if tr.symmetrizers.get(key) is not result:
        tr.symmetrizers[key] = result
        tr.counts["symmetrizer.young_symmetrizer.misses"] += 1
        # Read the stored field only, so a lazily built c is not forced here.
        c = vars(result).get("c")
        tr.counts["symmetrizer.young_symmetrizer.c_terms"] += len(c) if c is not None else 0


def _count_context(tr, args, result):
    tr.counts["symmetrizer.congruence_context.chain_length"] += len(args[0].chain)


def _count_straighten(tr, args, result):
    tr.counts["tensor.straighten.out_terms"] += len(result)


def _count_certificate(tr, args, result):
    tr.counts["tensor.membership_certificate.summands"] += len(result.summands)


def _count_star(tr, args, result):
    tr.counts["tensor.star_algebra.term_products"] += len(args[0]) * len(args[1])


def _count_dn_realize(tr, args, result):
    tr.counts["tensor.dn_realize.pairs"] += group_pairs(args[0].shape.parts)
    tr.counts["tensor.dn_realize.out_terms"] += len(result.terms)


def _count_act(tr, args, result):
    sym, f = args
    tr.counts["tensor.sym_act.term_products"] += len(sym.terms) * (
        len(f) if hasattr(f, "items") else 1
    )


def _product_namer(element_cls, perm_cls):
    """Span name of element * other: convolution, permutation, or untraced scalar."""

    def name(args):
        other = args[1]
        if isinstance(other, element_cls):
            return "algebra.mul"
        if isinstance(other, perm_cls):
            return "algebra.mul_perm"
        return None

    return name


def _traced_functions():
    """(module, attribute, span name, counter hook) for each traced function."""
    return [
        ("algebra", "symmetrize_set", "algebra.set_sum", None),
        ("algebra", "antisymmetrize_set", "algebra.set_sum", None),
        ("tableau", "in_left_set", "tableau.in_left_set", None),
        ("symmetrizer", "young_symmetrizer", "symmetrizer.young_symmetrizer", _count_symmetrizer),
        ("symmetrizer", "expand_product", "symmetrizer.expand_product", None),
        ("symmetrizer", "closed_form_multiplier", "symmetrizer.closed_form_multiplier", None),
        (
            "symmetrizer",
            "verify_corner_identities",
            "symmetrizer.verify_corner_identities",
            None,
        ),
        ("tensor", "straighten", "tensor.straighten", _count_straighten),
        ("tensor", "membership_certificate", "tensor.membership_certificate", _count_certificate),
        ("tensor", "star_algebra", "tensor.star_algebra", _count_star),
    ] + [("sweeps", f"{suite}_case", f"sweeps.{suite}", None) for suite in SWEEP_SUITES]


def _traced_methods():
    """(class, method, span name or namer, counter hook) for each traced method."""
    from ysym import algebra, perm, symmetrizer, tensor

    element = algebra.AlgebraElement
    product = _product_namer(element, perm.Permutation)
    return [
        (element, "__mul__", product, _count_mul),
        (element, "__rmul__", product, None),
        (element, "__add__", "algebra.add", None),
        (element, "__sub__", "algebra.add", None),
        (tensor.Tabloid, "realize", "tensor.realize", None),
        (tensor.DnFilling, "realize", "tensor.dn_realize", _count_dn_realize),
        (tensor.SymElement, "act", "tensor.sym_act", _count_act),
        (symmetrizer.CongruenceContext, "__init__", "symmetrizer.congruence_context", _count_context),
        (tensor.Certificate, "verify", "tensor.certificate_verify", None),
        (tensor.DnCertificate, "verify", "tensor.dn_certificate_verify", None),
    ]


class Tracer:
    """Records spans and counters at ysym's layer boundaries while installed."""

    def __init__(self):
        # Each span is [name, start, end, parent index or -1, case id].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.case = -1
        self.symmetrizers: dict = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        namer = name if callable(name) else None

        def traced(*args, **kwargs):
            label = namer(args) if namer else name
            if label is None:
                return fn(*args, **kwargs)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, self.case]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self) -> "Tracer":
        import ysym.sweeps  # noqa: F401  (loads every traced module)
        from ysym import symmetrizer

        # Triples already cached before installation count as hits.
        self.symmetrizers = dict(getattr(symmetrizer, "_SYMMETRIZER_CACHE", {}))

        modules = [m for k, m in sys.modules.items() if k == "ysym" or k.startswith("ysym.")]
        for module_name, attr, name, hook in _traced_functions():
            original = getattr(sys.modules[f"ysym.{module_name}"], attr)
            traced = self._wrap(original, name, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, traced)
        for cls, method, name, hook in _traced_methods():
            original = cls.__dict__[method]
            self._undo.append((cls, method, original))
            setattr(cls, method, self._wrap(original, name, hook))
        return self

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def self_times(self) -> tuple[Counter, Counter]:
        """Span count and total self time for each span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for (name, start, end, _, _), child in zip(self.spans, covered):
            calls[name] += 1
            self_s[name] += end - start - child
        return calls, self_s

    def per_layer(self) -> dict[str, float]:
        """Every metric in PER_LAYER, from this tracer's spans and counters."""
        from ysym import perm

        calls, self_s = self.self_times()
        counts = self.counts
        out: dict[str, float] = {}
        for metric, _, _ in PER_LAYER:
            layer, _, kind = metric.rpartition(".")
            if kind in ("calls", "cases", "builds"):
                out[metric] = calls[layer]
            elif kind == "self_s":
                out[metric] = self_s[layer]
            else:
                out[metric] = counts[metric]
        out["perm.pool_size"] = len(getattr(perm, "_POOL", ()))
        products = counts["algebra.mul.term_products"]
        out["algebra.mul.ns_per_term_product"] = (
            self_s["algebra.mul"] * 1e9 / products if products else 0.0
        )
        out["algebra.mul.rational_share"] = (
            counts["algebra.mul.rational_products"] / products if products else 0.0
        )
        sym_calls = calls["symmetrizer.young_symmetrizer"]
        out["symmetrizer.young_symmetrizer.hit_ratio"] = (
            1 - counts["symmetrizer.young_symmetrizer.misses"] / sym_calls if sym_calls else 0.0
        )
        return out

    def write_spans(self, path) -> None:
        """Write the spans as gzipped tab-separated lines: name start end parent case."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\tcase\n")
            for name, start, end, parent, case in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{case}\n")
