"""The four benchmark workloads: seeded inputs under a budget, and exact checks.

A workload run is a sequence of rounds.  Round ``r`` of a run with seed ``s``
is generated from ``random.Random(f"{name}:{s}:{r}")`` alone, so one seed
always gives the same cases.  A round is a fixed list of strata (shapes,
shape pairs, edge counts) with seeded random inputs inside them: the strata
keep the cost of a round steady from seed to seed, and the seed picks the
fillings, ground sets, subshapes, labels and relabelings.

Generation never calls into ``ysym``: it works on plain tuples, and each
case's ``|R(T)|*|C(T)|`` (row group order times column group order) is
computed from the shape before anything is built.  The program only ever
sees the generated inputs, which ``run_case`` turns into ``ysym`` objects.

Every case is an exact identity checked against brute-force ``_mul_full``
convolution (``AlgebraElement.__mul__``); a case that returns False or
raises counts as failed.  ``run_case`` looks every function up on its
module at call time, so the traced run's patches (tracing.py) apply.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

PRODUCTS_N = (5, 6, 7)
PRODUCTS_MAX_PAIRS = 576
CERT_N = (5, 6)
CERT_N7_MAX_PAIRS = 576
CERT_N7_MAX_K = 2
DREGULAR_DN = ((2, 3), (3, 2), (2, 4))
DREGULAR_MAX_PAIRS = math.factorial(8)
DREGULAR_CERT_MAX_DEGREE = 6
DREGULAR_GRAPH_EDGES = {(2, 3): (1, 2, 3), (3, 2): (1, 2, 3), (2, 4): (1, 2, 3, 4)}
VERIFY_BOUNDS = (
    ("garnir", 6),
    ("corner_product", 6),
    ("product_expansion", 6),
    ("congruences", 6),
    ("shuffling", 4),
    ("certificates", 5),
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    budget: str
    tail_percentile: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "products",
            "Random non-canonical tableaux over arbitrary ground sets, a third at "
            "degree n+1: integer-coefficient convolution in algebra plus symmetrizer "
            "builds that always miss the cache, the mechanism of ROADMAP item 2.",
            f"n in {PRODUCTS_N}, |R|*|C| <= {PRODUCTS_MAX_PAIRS}; each eligible "
            "shape twice per round, once with a one-corner subshape.",
            90.0,
        ),
        Workload(
            "certificates",
            "Split fillings and straightening over canonical tableaux only, so the "
            "symmetrizer cache hits and item 2's build savings are mostly bypassed; "
            "algebra runs on Fraction coefficients, so coefficient arithmetic shows.",
            f"every (lambda, mu) with n in {CERT_N}; at n = 7 only |R|*|C| <= "
            f"{CERT_N7_MAX_PAIRS} and |mu| <= {CERT_N7_MAX_K}; one straighten case "
            "per shape of size 5 and 6.",
            95.0,
        ),
        Workload(
            "dregular",
            "d-regular fillings and graph tabloids: DnFilling.realize uses only a "
            "and b but pays for building c, the mechanism of ROADMAP item 3.",
            f"(d, n) in {DREGULAR_DN}, |R|*|C| <= 8!; certificates only at d*n <= "
            f"{DREGULAR_CERT_MAX_DEGREE}, where each shape gets two fillings whose "
            "label-1 cells alone form a diagram; one random filling per degree-8 "
            "shape; graphs with fixed edge counts.",
            95.0,
        ),
        Workload(
            "verify",
            "The sweep suites run serially as `ysym verify --jobs 1` runs them: the "
            "only workload reaching sweeps and CongruenceContext, canonical-only "
            "with cache hits across cases.",
            "suites "
            + ", ".join(f"{s} {b}" for s, b in VERIFY_BOUNDS)
            + "; the seed is unused because the enumeration is deterministic. "
            "idempotence (77 s at its default bound) and symmetrized (its fixed "
            "display-zero case costs 47 s at any bound) are left out; their "
            "mechanisms show in products (c*c) and dregular (unused c in realize).",
            97.5,
        ),
    )
}


# -- shapes, computed without the program ------------------------------------


def partitions(n: int, within: tuple[int, ...] | None = None) -> list[tuple[int, ...]]:
    """Partitions of n in descending lexicographic order, optionally inside a shape."""
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, largest: int, row: int, acc: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(acc))
            return
        hi = min(remaining, largest)
        if within is not None:
            hi = min(hi, within[row] if row < len(within) else 0)
        for p in range(hi, 0, -1):
            acc.append(p)
            rec(remaining - p, p, row + 1, acc)
            acc.pop()

    rec(n, n, 0, [])
    return out


def conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0] if lam else 0))


def group_pairs(lam: tuple[int, ...]) -> int:
    """|R(T)| * |C(T)| for a tableau of shape lam: the cost scale of c(T)."""
    out = 1
    for p in lam + conjugate(lam):
        out *= math.factorial(p)
    return out


def subshapes(lam: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Nonempty proper subdiagrams of lam."""
    return [mu for k in range(1, sum(lam)) for mu in partitions(k, lam)]


def removable_corners(lam: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The shapes lam minus one removable corner."""
    out = []
    for i, p in enumerate(lam):
        if i + 1 == len(lam) or lam[i + 1] < p:
            mu = list(lam)
            mu[i] -= 1
            out.append(tuple(x for x in mu if x))
    return out


def fill(lam: tuple[int, ...], values) -> tuple[tuple[int, ...], ...]:
    values = list(values)
    rows, at = [], 0
    for p in lam:
        rows.append(tuple(values[at : at + p]))
        at += p
    return tuple(rows)


def labels_form_diagram(rows, k: int) -> bool:
    """Whether the cells holding labels 1..k are the cells of a diagram."""
    lengths = [sum(1 for e in row if e <= k) for row in rows]
    return all(
        all(e <= k for e in row[:m]) and all(e > k for e in row[m:])
        for row, m in zip(rows, lengths)
    ) and all(a >= b for a, b in zip(lengths, lengths[1:]))


# -- round generation ------------------------------------------------------------


def products_round(rng: random.Random) -> list[tuple]:
    shapes = [
        lam
        for n in PRODUCTS_N
        for lam in partitions(n)
        if group_pairs(lam) <= PRODUCTS_MAX_PAIRS
    ]
    # Each shape twice, once with a one-corner subshape (the closed form)
    # and once with any subshape, so the cost of a round hardly varies.
    pairs = [(lam, corner) for lam in shapes for corner in (True, False)]
    rng.shuffle(pairs)
    cases = []
    for i, (lam, corner) in enumerate(pairs):
        n = sum(lam)
        degree = n + 1 if i % 3 == 0 else n
        canonical = fill(lam, range(1, n + 1))
        while True:
            rows = fill(lam, rng.sample(range(1, degree + 1), n))
            if rows != canonical:
                break
        mu = rng.choice(removable_corners(lam) if corner else subshapes(lam))
        cases.append(("products", rows, degree, mu, group_pairs(lam)))
    return cases


def split_filling(rng: random.Random, lam, mu) -> tuple[tuple[int, ...], ...]:
    """A filling of lam in which 1..k fill the subdiagram mu, both parts random."""
    k, n = sum(mu), sum(lam)
    small = rng.sample(range(1, k + 1), k)
    large = rng.sample(range(k + 1, n + 1), n - k)
    rows = []
    for i, p in enumerate(lam):
        m = mu[i] if i < len(mu) else 0
        rows.append(tuple(small[:m]) + tuple(large[: p - m]))
        del small[:m], large[: p - m]
    return tuple(rows)


def certificates_round(rng: random.Random) -> list[tuple]:
    cases = []
    for n in CERT_N + (7,):
        for lam in partitions(n):
            for mu in subshapes(lam):
                if n == 7 and (
                    group_pairs(lam) > CERT_N7_MAX_PAIRS or sum(mu) > CERT_N7_MAX_K
                ):
                    continue
                rows = split_filling(rng, lam, mu)
                cases.append(("certificate", rows, sum(mu), mu, group_pairs(lam)))
    for n in CERT_N:
        for lam in partitions(n):
            while True:
                rows = fill(lam, rng.sample(range(1, n + 1), n))
                k = rng.randint(1, n - 1)
                if not labels_form_diagram(rows, k):
                    break
            cases.append(("straighten", rows, k, group_pairs(lam)))
    rng.shuffle(cases)
    return cases


def d_regular_rows(rng: random.Random, lam, n: int, d: int):
    values = [v for v in range(1, n + 1) for _ in range(d)]
    rng.shuffle(values)
    return fill(lam, values)


def one_cut_rows(rng: random.Random, lam, n: int, d: int):
    """A d-regular filling whose label-1 cells form a random subdiagram of
    size d, while the cells of 1..k form no diagram for 1 < k < n: exactly
    one certificate cutoff, so every such case costs one certificate."""
    mu = rng.choice(partitions(d, lam))
    mu += (0,) * (len(lam) - len(mu))
    while True:
        rest = [v for v in range(2, n + 1) for _ in range(d)]
        rng.shuffle(rest)
        rows = tuple((1,) * m + tuple(rest.pop() for _ in range(p - m)) for p, m in zip(lam, mu))
        if not any(labels_form_diagram(rows, k) for k in range(2, n)):
            return rows


def random_multigraph(rng: random.Random, n: int, d: int, edges: int):
    """e edges on vertices 1..n, every vertex of degree at most d."""
    while True:
        degree = dict.fromkeys(range(1, n + 1), 0)
        chosen = []
        for _ in range(edges):
            free = [v for v in degree if degree[v] < d]
            if len(free) < 2:
                break
            x, y = sorted(rng.sample(free, 2))
            degree[x] += 1
            degree[y] += 1
            chosen.append((x, y))
        if len(chosen) == edges:
            return tuple(sorted(chosen))


def dregular_round(rng: random.Random) -> list[tuple]:
    cases = []
    for d, n in DREGULAR_DN:
        # Certificates only fit the budget at degree 6; there each shape gets
        # two fillings with exactly one cutoff, so the number of certificates
        # in a round does not depend on the seed.
        if d * n <= DREGULAR_CERT_MAX_DEGREE:
            make, copies = one_cut_rows, 2
        else:
            make, copies = d_regular_rows, 1
        for lam in partitions(d * n):
            if group_pairs(lam) > DREGULAR_MAX_PAIRS:
                continue
            for _ in range(copies):
                rows = make(rng, lam, n, d)
                sigma = tuple(rng.sample(range(1, n + 1), n))
                cases.append(("filling", d, rows, sigma, group_pairs(lam)))
        for e in DREGULAR_GRAPH_EDGES[(d, n)]:
            edges = random_multigraph(rng, n, d, e)
            sigma = tuple(rng.sample(range(1, n + 1), n))
            shape = (d * n - e, e)
            cases.append(("graph", d, n, edges, sigma, group_pairs(shape)))
    rng.shuffle(cases)
    return cases


def verify_round() -> list[tuple]:
    from ysym import sweeps

    return [
        ("sweep", suite, args)
        for suite, bound in VERIFY_BOUNDS
        for args in getattr(sweeps, f"{suite}_cases")(bound)
    ]


def make_round(workload: str, seed: int, round_index: int) -> list[tuple]:
    if workload == "verify":
        return verify_round()
    rng = random.Random(f"{workload}:{seed}:{round_index}")
    return {
        "products": products_round,
        "certificates": certificates_round,
        "dregular": dregular_round,
    }[workload](rng)


def _plain(obj):
    """JSON form of a case output: ysym's own JSON where it has one."""
    if hasattr(obj, "to_json"):
        return obj.to_json()
    if hasattr(obj, "terms"):  # SymElement
        return sorted(map(str, obj.terms.items()))
    return str(obj)


def digest(obj) -> str:
    """Short stable digest of inputs or case outputs, taken outside the timing."""
    text = json.dumps(obj, sort_keys=True, default=_plain, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- running one case ------------------------------------------------------------


def run_case(case: tuple):
    """Run one case; returns (ok, outputs), the outputs digested after timing."""
    return _RUNNERS[case[0]](*case[1:])


def _run_products(rows, degree, mu, _pairs):
    from ysym import symmetrizer, tableau

    T = tableau.YoungTableau(rows)
    S = T.restrict(tableau.Partition(mu))
    c = symmetrizer.young_symmetrizer(T, degree).c
    ok = c * c == c.scale(T.shape.hook_product())
    E = symmetrizer.expand_product(T, S, degree)
    cS = symmetrizer.young_symmetrizer(S, degree).c
    ok = ok and c * cS == c * E.element
    ok = ok and E.identity_coefficient() == S.shape.hook_product()
    ok = ok and E.support_in_left_set(T, S)
    return ok, E.element


def _run_certificate(rows, k, mu, _pairs):
    from ysym import tableau, tensor

    F = tableau.YoungTableau(rows)
    cert = tensor.membership_certificate(F, k)
    ok = cert.scale == tableau.Partition(mu).hook_product() and cert.verify()
    S = F.restrict(tableau.Partition(mu))
    expected = frozenset(range(1, k + 1))
    for gen in cert.generator_fillings():
        ok = ok and gen.entries == expected and tableau.dominates(gen, S)
    return ok, cert


def _run_straighten(rows, k, _pairs):
    from ysym import algebra, tableau, tensor

    F = tableau.YoungTableau(rows)
    terms = tensor.straighten(F, k)
    rhs = algebra.AlgebraElement.zero(F.size)
    for d, H in terms:
        rhs = rhs + tensor.realize_tabloid(H).value.scale(d)
    ok = tensor.realize_tabloid(F).value == rhs
    ok = ok and all(labels_form_diagram(H.rows, k) for _, H in terms)
    return ok, terms


def _check_dn_filling(F, n: int, sigma):
    from ysym import perm, tensor

    real = F.realize()
    ok = not F.has_column_repeat() or real.is_zero()
    ok = ok and F.relabel(perm.Permutation(sigma)).realize() == real
    certs = []
    if F.degree <= DREGULAR_CERT_MAX_DEGREE:
        for k in range(1, n):
            if labels_form_diagram(F.rows, k):
                cert = tensor.symmetrized_membership_certificate(F, k)
                ok = ok and cert.verify()
                certs.append(cert)
    return ok, [real, certs]


def _run_filling(d, rows, sigma, _pairs):
    from ysym import tensor

    return _check_dn_filling(tensor.DnFilling(rows, d), len(sigma), sigma)


def _run_graph(d, n, edges, sigma, _pairs):
    from ysym import tensor

    F = tensor.graph_tabloid(tensor.MultiGraph.make(n, d, edges))
    return _check_dn_filling(F, n, sigma)


def _run_sweep(suite, args):
    from ysym import sweeps

    result = getattr(sweeps, f"{suite}_case")(args)
    return result.ok, [result.case_id, result.ok, result.detail, result.stats]


_RUNNERS = {
    "products": _run_products,
    "certificate": _run_certificate,
    "straighten": _run_straighten,
    "filling": _run_filling,
    "graph": _run_graph,
    "sweep": _run_sweep,
}
