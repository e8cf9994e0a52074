"""Exhaustive verification sweeps over small symmetric groups.

Each suite enumerates a family of exact identities and checks them with
independent brute-force convolution as the oracle.  The sweep driver powers
both the command line ``verify`` subcommand and the acceptance tests; a
case is a picklable tuple so suites can fan out over a process pool.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from .algebra import AlgebraElement, _chain, antisymmetrize_set
from .perm import _permutations_of, all_permutations
from .symmetrizer import (
    ExpansionMultiplier,
    closed_form_multiplier,
    expand_product,
    garnir_zero,
    verify_corner_identities,
    young_symmetrizer,
)
from .tableau import (
    Partition,
    YoungTableau,
    dominates,
    in_left_set,
    partitions,
    subtableau_fillings,
)
from .tensor import (
    DnFilling,
    MultiGraph,
    column_group,
    graph_tabloid,
    graphs_containing,
    membership_certificate,
    realize_tabloid,
    symmetrized_membership_certificate,
)

@dataclass
class CaseResult:
    suite: str
    case_id: str
    ok: bool
    detail: str | None = None
    stats: dict | None = None


@dataclass
class SuiteReport:
    name: str
    max_n: int
    cases: int = 0
    failures: list = field(default_factory=list)
    elapsed: float = 0.0
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """No failures, and at least one case ran: an empty sweep proves nothing."""
        return self.cases > 0 and not self.failures

    def to_json(self) -> dict:
        return {
            "suite": self.name,
            "max_n": self.max_n,
            "cases": self.cases,
            "ok": self.ok,
            "failures": self.failures,
            "elapsed_seconds": round(self.elapsed, 3),
            "stats": self.stats,
        }


# -- idempotence ---------------------------------------------------------------


def idempotence_cases(max_n: int) -> list[tuple]:
    return [(lam.parts,) for n in range(1, max_n + 1) for lam in partitions(n)]


def idempotence_case(args: tuple) -> CaseResult:
    lam = Partition(args[0])
    triple = young_symmetrizer(YoungTableau.canonical(lam), lam.n)
    ok = _chain(triple.c, triple.factors) == triple.c.scale(lam.hook_product())
    return CaseResult("idempotence", str(lam), ok)


# -- Garnir relations ------------------------------------------------------------


def garnir_cases(max_n: int) -> list[tuple]:
    return [(lam.parts,) for n in range(2, max_n + 1) for lam in partitions(n)]


def garnir_case(args: tuple) -> CaseResult:
    lam = Partition(args[0])
    t = YoungTableau.canonical(lam)
    lamc = lam.conjugate()
    ncols = lam.part(1)
    checked = 0
    for i in range(1, ncols + 1):
        for j in range(1, ncols + 1):
            if i == j or lamc.part(i) > lamc.part(j):
                continue
            for a in t.column_set(i):
                checked += 1
                if not garnir_zero(t, i, j, a, lam.n).is_zero():
                    return CaseResult(
                        "garnir", str(lam), False, f"nonzero at i={i} j={j} a={a}"
                    )
    return CaseResult("garnir", str(lam), True, stats={"relations": checked})


# -- one-corner closed form -------------------------------------------------------


def corner_product_cases(max_n: int) -> list[tuple]:
    out = []
    for n in range(2, max_n + 1):
        for lam in partitions(n):
            for corner in lam.removable_corners():
                out.append((lam.parts, corner))
    return out


def _multiplier_failure(t: YoungTableau, s: YoungTableau, e: ExpansionMultiplier) -> str | None:
    """Why E is not a multiplier of c(T)c(S), or None when it is.

    c(T)c(S) must equal c(T)E and be nonzero, the identity coefficient of E
    must be alpha_S, its support must lie in L(T;S), and the sign of each
    coefficient must be that of its permutation.
    """
    ct = young_symmetrizer(t, e.degree).c
    product = ct * young_symmetrizer(s, e.degree).c
    if product != ct * e.element:
        return "product mismatch"
    if product.is_zero():
        return "product is zero"
    if e.identity_coefficient() != s.shape.hook_product():
        return "identity coefficient"
    escaped = [p for p in e.element.support() if not in_left_set(p, t, s)]
    if escaped:
        return f"support escapes left set: {min(escaped)}"
    if not e.signs_match_parity():
        return "sign pattern"
    return None


def corner_product_case(args: tuple) -> CaseResult:
    lam = Partition(args[0])
    (u, v) = args[1]
    n = lam.n
    t = YoungTableau.canonical(lam)
    mu = lam.remove_corner(u, v)
    s = t.restrict(mu)
    case_id = f"{lam}|corner({u},{v})"
    e = closed_form_multiplier(t, s, n)
    failure = _multiplier_failure(t, s, e)
    if failure:
        return CaseResult("corner_product", case_id, False, failure)
    alpha = mu.hook_product()
    a = t.entry(u, v)
    for p, c in e.element.items():
        den = c.denominator if isinstance(c, Fraction) else 1
        if alpha % den:
            return CaseResult(
                "corner_product", case_id, False, f"denominator {den} misses {alpha}"
            )
        if p.is_identity():
            continue
        # support structure: one cycle through the added entry, visiting
        # strictly earlier columns at each step away from it
        cycles = p.cycles()
        if len(cycles) != 1 or a not in cycles[0]:
            return CaseResult(
                "corner_product", case_id, False, f"support {p} is not a cycle at {a}"
            )
        cyc = cycles[0]
        pos = cyc.index(a)
        path = cyc[pos + 1 :] + cyc[:pos]
        cols = [t.column_of(b) for b in path]
        if any(c1 <= c2 for c1, c2 in zip(cols, cols[1:])):
            return CaseResult(
                "corner_product", case_id, False, f"columns not decreasing along {p}"
            )
    return CaseResult("corner_product", case_id, True)


# -- general product expansion ------------------------------------------------------


def product_expansion_cases(max_n: int) -> list[tuple]:
    out = []
    for n in range(1, max_n + 1):
        for lam in partitions(n):
            for k in range(1, n + 1):
                for mu in partitions(k, within=lam):
                    out.append((lam.parts, mu.parts))
    return out


def product_expansion_case(args: tuple) -> CaseResult:
    lam, mu = Partition(args[0]), Partition(args[1])
    n = lam.n
    t = YoungTableau.canonical(lam)
    s = t.restrict(mu)
    case_id = f"{lam}|{mu}"
    e = expand_product(t, s, n)
    failure = _multiplier_failure(t, s, e)
    if failure:
        return CaseResult("product_expansion", case_id, False, failure)
    return CaseResult(
        "product_expansion", case_id, True, stats={"integral": e.all_integral()}
    )


# -- corner identity suite -----------------------------------------------------------


def congruences_cases(max_n: int) -> list[tuple]:
    return corner_product_cases(max_n)


def congruences_case(args: tuple) -> CaseResult:
    lam = Partition(args[0])
    (u, v) = args[1]
    t = YoungTableau.canonical(lam)
    s = t.restrict(lam.remove_corner(u, v))
    rep = verify_corner_identities(t, s, lam.n)
    case_id = f"{lam}|corner({u},{v})"
    if rep.ok:
        return CaseResult("congruences", case_id, True)
    bad = "; ".join(line for line in rep.lines() if line.startswith("FAIL"))
    return CaseResult("congruences", case_id, False, bad)


# -- shuffling relations ----------------------------------------------------------


def shuffling_cases(max_n: int) -> list[tuple]:
    cases = [(lam.parts, "full") for n in range(2, max_n + 1) for lam in partitions(n)]
    if max_n + 1 <= 6:
        cases += [(lam.parts, "sampled") for lam in partitions(max_n + 1)]
    return cases


def shuffling_case(args: tuple) -> CaseResult:
    lam = Partition(args[0])
    mode = args[1]
    n = lam.n
    case_id = f"{lam}|{mode}"
    t = YoungTableau.canonical(lam)
    c = young_symmetrizer(t, n).c

    # column-subset relations in cell form: one check covers every filling,
    # because conjugating by the filling word turns value sets into cell sets
    ncols = lam.part(1)
    lamc = lam.conjugate()
    for i in range(1, ncols):
        ci = [t.entry(r, i) for r in range(1, lamc.part(i) + 1)]
        cnext = [t.entry(r, i + 1) for r in range(1, lamc.part(i + 1) + 1)]
        for xs in _all_subsets(ci):
            for ys in _all_subsets(cnext):
                if not ys or len(xs) + len(ys) <= len(ci):
                    continue
                w = sorted(set(xs) | set(ys))
                if not (c * antisymmetrize_set(w, n)).is_zero():
                    return CaseResult(
                        "shuffling", case_id, False, f"cell form i={i} X={xs} Y={ys}"
                    )

    if mode == "full":
        fillings = list(subtableau_fillings(lam, range(1, n + 1)))
    else:
        seed = sum(p * 31**i for i, p in enumerate(lam.parts))
        rng = random.Random(seed)
        fillings = [
            _random_filling(lam, rng) for _ in range(min(24, lam.n * 4))
        ]
    for f in fillings:
        base = realize_tabloid(f).value
        signed = {1: base, -1: -base}
        for sigma, sign in column_group(f):
            if realize_tabloid(f.relabel(sigma)).value != signed[sign]:
                return CaseResult(
                    "shuffling", case_id, False, f"sign rule at {f} sigma={sigma}"
                )
    # literal alternating sums on a bounded slice of fillings
    literal = fillings if n <= 4 else fillings[:6]
    for f in literal:
        for i in range(1, ncols):
            ci, cnext = set(f.column(i)), set(f.column(i + 1))
            for xs in _all_subsets(ci):
                for ys in _all_subsets(cnext):
                    if not ys or len(xs) + len(ys) <= len(ci):
                        continue
                    total = AlgebraElement.zero(n)
                    for sigma in _permutations_of(set(xs) | set(ys), n):
                        total = total + realize_tabloid(f.relabel(sigma)).value.scale(
                            sigma.sign()
                        )
                    if not total.is_zero():
                        return CaseResult(
                            "shuffling", case_id, False, f"literal sum {f} X={xs} Y={ys}"
                        )
    return CaseResult("shuffling", case_id, True)


def _all_subsets(items) -> list[tuple]:
    out = []
    xs = sorted(items)
    for r in range(len(xs) + 1):
        out.extend(itertools.combinations(xs, r))
    return out


def _random_filling(lam: Partition, rng: random.Random) -> YoungTableau:
    vals = list(range(1, lam.n + 1))
    rng.shuffle(vals)
    return YoungTableau(lam.fill(vals))


# -- membership certificates ---------------------------------------------------------


def certificates_cases(max_n: int) -> list[tuple]:
    out = [((4, 2, 1), (3, 2), "display")]
    for n in range(1, max_n + 1):
        for lam in partitions(n):
            for k in range(1, n + 1):
                for mu in partitions(k, within=lam):
                    out.append((lam.parts, mu.parts, "all"))
    return out


def certificates_case(args: tuple) -> CaseResult:
    lam, mu = Partition(args[0]), Partition(args[1])
    mode = args[2]
    n, k = lam.n, mu.n
    case_id = f"{lam}|{mu}|{mode}"
    if mode == "display":
        fillings = [YoungTableau.parse("1,2,3,6/4,5/7")]
    else:
        fillings = list(_split_fillings(lam, mu))
    for f in fillings:
        cert = membership_certificate(f, k)
        if cert.scale != mu.hook_product():
            return CaseResult("certificates", case_id, False, f"scale at {f}")
        if not cert.verify():
            return CaseResult("certificates", case_id, False, f"invariant fails at {f}")
        s = f.restrict(mu)
        for gen in cert.generator_fillings():
            if gen.entries != frozenset(range(1, k + 1)):
                return CaseResult(
                    "certificates", case_id, False, f"generator entries at {f}: {gen}"
                )
            if not dominates(gen, s):
                return CaseResult(
                    "certificates", case_id, False, f"generator {gen} fails dominance"
                )
    if mode == "display":
        cert = membership_certificate(fillings[0], k)
        if not cert.verify_symmetrizer_form():
            return CaseResult("certificates", case_id, False, "symmetrizer form")
        family = _display_generator_family()
        for gen in cert.generator_fillings():
            if _column_key(gen) not in family:
                return CaseResult(
                    "certificates", case_id, False, f"generator {gen} outside family"
                )
    return CaseResult(
        "certificates", case_id, True, stats={"fillings": len(fillings)}
    )


def _split_fillings(lam: Partition, mu: Partition) -> Iterable[YoungTableau]:
    n, k = lam.n, mu.n
    rest_cells = [
        (i, j)
        for i in range(1, len(lam.parts) + 1)
        for j in range(mu.part(i) + 1, lam.part(i) + 1)
    ]
    for sub in subtableau_fillings(mu, range(1, k + 1)):
        for arr in itertools.permutations(range(k + 1, n + 1)):
            rows = [
                list(sub.rows[i - 1]) if i <= len(mu.parts) else []
                for i in range(1, len(lam.parts) + 1)
            ]
            for (cell, val) in zip(rest_cells, arr):
                rows[cell[0] - 1].append(val)
            yield YoungTableau(rows)


def _column_key(f: YoungTableau) -> tuple:
    return tuple(tuple(sorted(f.column(j))) for j in range(1, f.shape.part(1) + 1))


def _display_generator_family() -> set[tuple]:
    family = [
        "1,2,3/4,5",
        "1,2,3/4/5",
        "1,5,3/4/2",
        "1,2/4,5/3",
        "1,2/4,3/5",
        "1,3/4,5/2",
    ]
    return {_column_key(YoungTableau.parse(text)) for text in family}


# -- partially symmetrized checks ------------------------------------------------------


def symmetrized_cases(max_n: int) -> list[tuple]:
    cases: list[tuple] = [("display-zero",), ("graphs",)]
    for d in (1, 2):
        for n in range(1, max_n + 1):
            if d * n <= 6:
                cases.append(("relabel", d, n))
    for n in range(2, max_n + 1):
        if 2 * n <= 6:
            cases.append(("dn-certificates", 2, n))
    return cases


def symmetrized_case(args: tuple) -> CaseResult:
    kind = args[0]
    if kind == "display-zero":
        f = DnFilling.parse("1,2,3,1,3,3/2,4,4/1,2/4", 3)
        fr = f.realize()
        ok = f.has_column_repeat() and fr.is_zero()
        other = DnFilling.parse("1,3,4,1,4,4/3,2,2/1,3/2", 3)
        ok = ok and other.realize() == fr
        return CaseResult("symmetrized", "display-zero", ok)
    if kind == "graphs":
        return _graph_case()
    if kind == "relabel":
        _, d, n = args
        case_id = f"relabel|d={d}|n={n}"
        for lam in partitions(d * n):
            seen = set()
            for f in _dn_fillings(lam, n, d):
                if f.rows in seen:
                    continue
                seen.add(f.rows)
                base = f.realize()
                if f.has_column_repeat() and not base.is_zero():
                    return CaseResult(
                        "symmetrized", case_id, False, f"column repeat not zero: {f}"
                    )
                for sigma in all_permutations(n):
                    if f.relabel(sigma).realize() != base:
                        return CaseResult(
                            "symmetrized", case_id, False, f"relabel breaks {f}"
                        )
        return CaseResult("symmetrized", case_id, True)
    if kind == "dn-certificates":
        _, d, n = args
        case_id = f"dn-certificates|d={d}|n={n}"
        # a certificate of a zero target verifies at any scale, so count the others
        nonzero = 0
        for lam in partitions(d * n):
            for f in _dn_fillings(lam, n, d):
                target_nonzero = not f.realize().is_zero()
                for k in range(1, n + 1):
                    try:
                        cert = symmetrized_membership_certificate(f, k)
                    except ValueError:
                        continue  # the distinguished cells are not a diagram
                    if not cert.verify():
                        return CaseResult(
                            "symmetrized", case_id, False, f"certificate {f} k={k}"
                        )
                    nonzero += target_nonzero
        stats = {"nonzero_targets": nonzero}
        if not nonzero:
            return CaseResult("symmetrized", case_id, False, "every target is zero", stats)
        return CaseResult("symmetrized", case_id, True, stats=stats)
    raise ValueError(f"unknown symmetrized case {args}")


def _graph_case() -> CaseResult:
    # the five-edge graph on four vertices produces the displayed tabloid
    q = MultiGraph.parse("n=4 d=3; 1-2 1-2 1-3 2-3 3-4")
    f = graph_tabloid(q)
    if f.shape != Partition((7, 5)):
        return CaseResult("symmetrized", "graphs", False, "wrong shape")
    if f.canonical() != DnFilling.parse("1,1,1,2,3,4,4/2,2,3,3,4", 3):
        return CaseResult("symmetrized", "graphs", False, "canonical form differs")
    # one edge beyond a base graph: membership against the containing family
    base = MultiGraph.make(2, 2, [(1, 2)])
    q2 = MultiGraph.make(3, 2, [(1, 2), (1, 3)])
    cert = symmetrized_membership_certificate(graph_tabloid(q2), 2)
    if not cert.verify():
        return CaseResult("symmetrized", "graphs", False, "graph certificate fails")
    family = {graph_tabloid(g).canonical() for g in graphs_containing(base, q2.edge_count)}
    for s in cert.summands:
        if s.generator.canonical() not in family:
            return CaseResult(
                "symmetrized", "graphs", False, f"generator {s.generator} not in family"
            )
    return CaseResult("symmetrized", "graphs", True)


def _dn_fillings(lam: Partition, n: int, d: int) -> Iterable[DnFilling]:
    values = []
    for i in range(1, n + 1):
        values.extend([i] * d)
    seen = set()
    for arr in itertools.permutations(values):
        if arr in seen:
            continue
        seen.add(arr)
        yield DnFilling(lam.fill(arr), d)


# -- driver ------------------------------------------------------------------------


# name -> (default bound, cases function, case function), in report order
SUITES: dict[str, tuple[int, Callable[[int], list[tuple]], Callable[[tuple], CaseResult]]] = {
    "idempotence": (7, idempotence_cases, idempotence_case),
    "garnir": (6, garnir_cases, garnir_case),
    "corner_product": (7, corner_product_cases, corner_product_case),
    "product_expansion": (6, product_expansion_cases, product_expansion_case),
    "congruences": (6, congruences_cases, congruences_case),
    "shuffling": (5, shuffling_cases, shuffling_case),
    "certificates": (5, certificates_cases, certificates_case),
    "symmetrized": (3, symmetrized_cases, symmetrized_case),
}


def _run_one(packed: tuple) -> CaseResult:
    suite, args = packed
    return SUITES[suite][2](args)


def run_suite(name: str, max_n: int | None = None, jobs: int = 1) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    bound = max_n if max_n is not None else SUITES[name][0]
    args_list = SUITES[name][1](bound)
    report = SuiteReport(name, bound)
    start = time.perf_counter()
    if jobs > 1 and len(args_list) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_one, [(name, a) for a in args_list]))
    else:
        results = [_run_one((name, a)) for a in args_list]
    integral = total_integral = 0
    nonintegral: list[str] = []
    for r in results:
        report.cases += 1
        if not r.ok:
            report.failures.append({"case": r.case_id, "detail": r.detail})
        if r.stats and "integral" in r.stats:
            total_integral += 1
            if r.stats["integral"]:
                integral += 1
            else:
                nonintegral.append(r.case_id)
    if total_integral:
        report.stats["integral_fraction"] = f"{integral}/{total_integral}"
        report.stats["integral_ratio"] = round(integral / total_integral, 4)
        report.stats["nonintegral_cases"] = nonintegral
    report.elapsed = time.perf_counter() - start
    return report


def run_suites(
    names: Iterable[str], max_n: int | None = None, jobs: int = 1
) -> tuple[bool, dict]:
    reports = [run_suite(name, max_n, jobs) for name in names]
    ok = all(r.ok for r in reports)
    return ok, {"ok": ok, "suites": [r.to_json() for r in reports]}
