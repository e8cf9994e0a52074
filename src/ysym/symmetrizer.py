"""Young symmetrizers and the product formulas built on them.

The central objects: for a tableau T with subtableau S, a small element E
supported on permutations that move entries of S weakly left, satisfying

    c(T) * c(S) = c(T) * E        (exactly, in the group algebra)

with the identity coefficient of E equal to the hook product of the shape
of S.  One corner of difference gives the closed formula
alpha_S * prod (1 - x_i / r_i) over the blocks of the truncated subtableau;
in general E is alpha_S times one ordered chain of these hook factors,
collected while the rightmost corners of T outside S are peeled off.

The module also houses the Garnir relation check and the congruence
machinery (an equivalence modulo a chain of right annihilators) used to
validate the supporting identities of the closed formula.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

from .algebra import AlgebraElement, Coeff, _chain, _group_factors, transposition_sum
from .perm import Permutation, _permutations_of
from .tableau import (
    BlockDecomposition,
    Partition,
    YoungTableau,
    blocks_from_column,
    in_left_set,
    rightmost_corner_outside,
)


# The largest |R(T)| * |C(T)|, row group order times column group order,
# that is ever expanded.  c(T) has that many terms (8! at idempotence
# --max-n 8), and a lifted d-regular certificate works with the c(T) of the
# lift and its products; the 12-cell display filling 1,1,1,2,3,4,4/2,2,3,3,4
# (19,353,600 pairs) ran out of memory at 1.4 GB.
_PAIR_BUDGET = math.factorial(8)


def _check_pair_budget(shape: Partition, what: str) -> int:
    """|R| * |C| of the shape; refuses, with ValueError, one above _PAIR_BUDGET."""
    pairs = shape.factorial() * shape.conjugate().factorial()
    if pairs > _PAIR_BUDGET:
        raise ValueError(
            f"shape {shape} has |R|*|C| = {pairs} group pairs, above the {what} "
            f"budget of {_PAIR_BUDGET}"
        )
    return pairs


@dataclass(frozen=True)
class SymmetrizerTriple:
    """Row symmetrization, signed column antisymmetrization, their product.

    ``factors`` holds the Jucys-Murphy factors 1 + L of a, then 1 - L of b:
    x * c is ``_chain(x, factors)``, which never convolves x with all of c.
    a, b and c are formed on first use: many callers need only the factors.
    """

    tableau: YoungTableau
    degree: int
    factors: tuple[AlgebraElement, ...]

    def _row_factor_count(self) -> int:
        # a row of k entries contributes k - 1 factors
        return self.tableau.size - len(self.tableau.rows)

    @functools.cached_property
    def a_part(self) -> AlgebraElement:
        unit = AlgebraElement.unit(self.degree)
        return _chain(unit, self.factors[: self._row_factor_count()])

    @functools.cached_property
    def b_part(self) -> AlgebraElement:
        unit = AlgebraElement.unit(self.degree)
        return _chain(unit, self.factors[self._row_factor_count() :])

    @functools.cached_property
    def c(self) -> AlgebraElement:
        """The Young symmetrizer a*b, with up to |R(T)|*|C(T)| terms; a shape
        above _PAIR_BUDGET is refused before anything is built."""
        _check_pair_budget(self.tableau.shape, "symmetrizer")
        return self.a_part * self.b_part

    @property
    def alpha(self) -> int:
        """Hook product of the shape; the quasi-idempotence scalar."""
        return self.tableau.shape.hook_product()


_SYMMETRIZER_CACHE_SIZE = 4096


def _degree(T: YoungTableau, degree: int | None) -> int:
    """The degree of the group algebra for T: its largest entry by default,
    and never less."""
    n = T.max_entry() if degree is None else degree
    if T.max_entry() > n:
        raise ValueError(f"tableau entries exceed degree {n}")
    return n


def young_symmetrizer(T: YoungTableau, degree: int | None = None) -> SymmetrizerTriple:
    """The Young symmetrizer of T inside the group algebra of S_degree."""
    return _build_symmetrizer(T, _degree(T, degree))


@functools.lru_cache(maxsize=_SYMMETRIZER_CACHE_SIZE)
def _build_symmetrizer(T: YoungTableau, n: int) -> SymmetrizerTriple:
    rows = [T.row_set(i) for i in range(1, len(T.rows) + 1)]
    cols = [T.column_set(j) for j in range(1, T.shape.part(1) + 1)]
    factors = (*_group_factors(rows, n, signed=False), *_group_factors(cols, n, signed=True))
    return SymmetrizerTriple(T, n, factors)


@dataclass(frozen=True)
class ExpansionMultiplier:
    """An element E with c(T)*c(S) = c(T)*E.

    ``alpha`` is the hook product of the subtableau shape; it must equal the
    identity coefficient.  ``source`` records whether E came from the
    one-corner closed formula or from a chain of several peeled corners.
    """

    element: AlgebraElement
    source: str
    alpha: int
    degree: int

    def identity_coefficient(self) -> Coeff:
        return self.element.coeff(Permutation.identity(self.degree))

    def all_integral(self) -> bool:
        return all(isinstance(c, int) for _, c in self.element.items())

    def support_in_left_set(self, T: YoungTableau, S: YoungTableau) -> bool:
        return all(in_left_set(p, T, S) for p in self.element.support())

    def signs_match_parity(self) -> bool:
        for p, c in self.element.items():
            if p.sign() > 0 and c < 0:
                return False
            if p.sign() < 0 and c > 0:
                return False
        return True


def _added_corner(T: YoungTableau, S: YoungTableau) -> tuple[int, int]:
    """The unique cell of T outside S, which must be a single corner."""
    lam, mu = T.shape, S.shape
    if lam.n != mu.n + 1:
        raise ValueError("shapes must differ by exactly one cell")
    if not T.has_subtableau(S):
        raise ValueError("S is not a subtableau of T")
    for i in range(1, len(lam.parts) + 1):
        if lam.part(i) != mu.part(i):
            return (i, lam.part(i))
    raise AssertionError("unreachable: shapes differ by one cell")


def _hook_factors(
    a: int, blocks: BlockDecomposition, base_row: int, n: int
) -> list[AlgebraElement]:
    """The factors 1 - x_i / r_i of the closed formula, in block order.

    x_i sums the transpositions of a with the entries of block i, and r_i is
    the hook number of block i over ``base_row``.
    """
    unit = AlgebraElement.unit(n)
    return [
        unit - transposition_sum(a, b.entries, n).scale(Fraction(1, r))
        for b, r in zip(blocks, blocks.hook_numbers(base_row))
    ]


def _corner_factors(a: int, U: YoungTableau, u: int, v: int, n: int) -> list[AlgebraElement]:
    """The hook factors of adding the entry a to U at the corner (u, v).

    The blocks are those of U stripped of its first v columns; v may exceed
    the width of U (corner at the end of row one), which strips them all.
    """
    return _hook_factors(a, blocks_from_column(U, min(v, U.shape.part(1))), u, n)


def closed_form_multiplier(
    T: YoungTableau, S: YoungTableau, degree: int | None = None
) -> ExpansionMultiplier:
    """The one-corner multiplier: alpha * prod_i (1 - x_i / r_i).

    The product runs over the blocks of S stripped of its first v columns,
    in left-to-right block order, where (u, v) is the added cell; x_i sums
    the transpositions of the new entry with the block entries, and r_i is
    the hook length of the subshape at (h_i, v).  This is ``expand_product``
    restricted to a single added corner, which it peels in one step.
    """
    _added_corner(T, S)
    return expand_product(T, S, degree)


def expand_product(
    T: YoungTableau, S: YoungTableau, degree: int | None = None
) -> ExpansionMultiplier:
    """General multiplier: alpha_S times one ordered chain of hook factors.

    The rightmost corner of T outside S is peeled off, one at a time, until
    S is left; each step from U to U minus its corner contributes its
    closed-form factors 1 - x_i / r_i, the outermost step first.  Equal
    tableaux give alpha_S times the identity and one corner of difference
    the closed formula ("closed-form"); longer chains are "recursive".
    """
    n = _degree(T, degree)
    if not T.has_subtableau(S):
        raise ValueError("S is not a subtableau of T")
    factors: list[AlgebraElement] = []
    U = T
    while U.shape != S.shape:
        u, v = rightmost_corner_outside(U, S)
        a = U.entry(u, v)
        U = U.remove_cell(u, v)
        factors += _corner_factors(a, U, u, v, n)
    alpha = S.shape.hook_product()
    source = "recursive" if T.size > S.size + 1 else "closed-form"
    element = _chain(AlgebraElement.unit(n).scale(alpha), factors)
    return ExpansionMultiplier(element, source, alpha, n)


def garnir_zero(
    T: YoungTableau, i: int, j: int, a: int, degree: int | None = None
) -> AlgebraElement:
    """c(T) * (1 - sum of (a, x) over column j); contractually zero.

    Requires i != j, column i no taller than column j, and a in column i.
    """
    n = _degree(T, degree)
    lamc = T.shape.conjugate()
    if i == j:
        raise ValueError("need two distinct columns")
    if lamc.part(i) > lamc.part(j):
        raise ValueError(f"column {i} is taller than column {j}")
    if a not in T.column_set(i):
        raise ValueError(f"{a} is not in column {i}")
    c = young_symmetrizer(T, n).c
    z = transposition_sum(a, T.column_set(j), n)
    return c * (AlgebraElement.unit(n) - z)


# -- congruence machinery ----------------------------------------------------


class CongruenceContext:
    """Decides congruence modulo the right annihilator chain of a * c * X^i.

    Here T is S plus one box at (u, v), a is the new entry, and X sums the
    transpositions of a with every entry of S in columns v and beyond.  Two
    elements are congruent when a(T) * c(S) * X^i kills their difference for
    every i >= 0; the power chain is cut off once the linear span of the
    accumulated vectors stabilizes, which is sound because right
    multiplication by X preserves the stabilized span.
    """

    def __init__(self, T: YoungTableau, S: YoungTableau, degree: int | None = None):
        n = _degree(T, degree)
        u, v = _added_corner(T, S)
        a = T.entry(u, v)
        right_entries = [e for j in range(v, S.shape.part(1) + 1) for e in S.column_set(j)]
        self.degree = n
        self.x_total = transposition_sum(a, right_entries, n)
        w = _chain(young_symmetrizer(T, n).a_part, young_symmetrizer(S, n).factors)
        chain: list[AlgebraElement] = []
        # Echelon rows, each scaled to coefficient 1 at its pivot, the least
        # permutation of its support by word.
        basis: list[tuple[bytes, AlgebraElement]] = []
        while True:
            reduced = w
            for pivot, row in basis:
                c = reduced.coeff(pivot)
                if c:
                    reduced = reduced - row.scale(c)
            if not reduced:
                break
            pivot = min(reduced._terms)
            basis.append((pivot, reduced.scale(Fraction(1, reduced.coeff(pivot)))))
            chain.append(w)
            w = w * self.x_total
        self.chain = chain

    def _residuals(
        self, pairs: Iterable[tuple[AlgebraElement, AlgebraElement]]
    ) -> Iterator[AlgebraElement]:
        """w * (f - g) for each pair (f, g) and each w in the chain: f and g
        are congruent exactly when every one of these vanishes."""
        for f, g in pairs:
            d = f - g
            for w in self.chain:
                yield w * d

    def congruent(self, f: AlgebraElement, g: AlgebraElement) -> bool:
        return all(r.is_zero() for r in self._residuals([(f, g)]))


def congruent(f: AlgebraElement, g: AlgebraElement, T: YoungTableau, S: YoungTableau) -> bool:
    """Whether a(T) * c(S) * X^i annihilates f - g for every power i."""
    return CongruenceContext(T, S, f.degree).congruent(f, g)


# -- the identity suite for one added corner ---------------------------------


@dataclass
class CheckResult:
    check_id: str
    shape: str
    subshape: str
    ok: bool

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status} {self.check_id} {self.shape} {self.subshape}"


@dataclass
class IdentityReport:
    shape: str
    subshape: str
    results: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def lines(self) -> list[str]:
        return [r.line() for r in self.results]


def verify_corner_identities(
    T: YoungTableau, S: YoungTableau, degree: int | None = None
) -> IdentityReport:
    """Exhaustively check the supporting identities of the one-corner formula.

    Covers the column and block product rules, the two corner reductions,
    the cyclic sandwich collapse, left-column annihilation, commutation of
    the full transposition sum, the polynomial sandwich, and the congruence
    relations between the block polynomials P_t and Q_t.  Each check is a
    list of residuals that must all vanish; a relation f = g holds under
    c(S) when c(S) * (f - g) vanishes, and modulo the annihilator chain when
    every residual of the congruence context does.
    """
    n = _degree(T, degree)
    u, v = _added_corner(T, S)
    a = T.entry(u, v)
    mu = S.shape
    muc = mu.conjugate()
    report = IdentityReport(str(T.shape), str(mu))
    unit = AlgebraElement.unit(n)
    zero = AlgebraElement.zero(n)
    cS = young_symmetrizer(S, n).c
    ctx = CongruenceContext(T, S, n)
    # a(T)a(S) = |R(S)| a(T), so a(T)c(S) is nonzero and heads the chain
    aTcS = ctx.chain[0]

    def z(j: int) -> AlgebraElement:
        return transposition_sum(a, S.column_set(j), n)

    def add(check_id: str, residuals: Iterable[AlgebraElement]) -> None:
        ok = all(r.is_zero() for r in residuals)
        report.results.append(CheckResult(check_id, str(T.shape), str(mu), ok))

    def under_cS(pairs: Iterable[tuple[AlgebraElement, AlgebraElement]]):
        return (cS * (f - g) for f, g in pairs)

    # column products: z_i z_j collapses onto z_i, z_i^2 is affine in z_i
    column_relations = []
    for i in range(1, mu.part(1) + 1):
        zi, hi = z(i), muc.part(i)
        for j in range(1, mu.part(1) + 1):
            if i != j and muc.part(i) <= muc.part(j):
                column_relations.append((zi * z(j), zi))
        column_relations.append((zi * zi, unit.scale(hi) - zi.scale(hi - 1)))
    add("column-products", under_cS(column_relations))

    dec = blocks_from_column(S, min(v - 1, mu.part(1)))
    m = len(dec)
    xs = [transposition_sum(a, b.entries, n) for b in dec]
    ls = dec.lengths
    hs = dec.heights
    rs = dec.hook_numbers(hs[0]) if m else ()
    factors = _hook_factors(a, dec, hs[0] if m else 0, n)

    def x_upto(t: int) -> AlgebraElement:
        """x_1 + ... + x_t, the blocks being disjoint."""
        return transposition_sum(a, [e for b in dec[:t] for e in b.entries], n)

    # block products: x_i x_j = l_j x_i and x_i^2 = (l_i - h_i) x_i + l_i h_i,
    # under c(S) and again modulo the chain
    block_relations = []
    for i in range(m):
        for j in range(i):
            block_relations.append((xs[i] * xs[j], xs[i].scale(ls[j])))
        square = xs[i].scale(ls[i] - hs[i]) + unit.scale(ls[i] * hs[i])
        block_relations.append((xs[i] * xs[i], square))
    add("block-products", under_cS(block_relations))

    # corner reduction: absorbing (1 - z_v) into the block product
    lhs = _chain(cS * (unit - z(v)), _corner_factors(a, S, u, v, n))
    add("corner-reduction", [lhs - _chain(cS, factors)])

    # corner sandwich: only the first block survives between two symmetrizers
    first_sandwich = _chain(cS, factors[:1]) * cS
    add("corner-sandwich", [cS * (unit - z(v)) * cS - first_sandwich])

    # cyclic sandwich: a cycle through increasing columns collapses or dies
    def cycle_sandwich_residuals():
        # cS * sigma is one cheap gather; the convolution by cS is done once
        # per distinct gather, since many sigma and tau give the same one
        sandwiches: dict[frozenset, AlgebraElement] = {}

        def sandwich(sigma: Permutation) -> AlgebraElement:
            left = cS * sigma
            key = frozenset(left._terms.items())
            found = sandwiches.get(key)
            if found is None:
                found = sandwiches[key] = left * cS
            return found

        ncols = mu.part(1)
        columns = [sorted(S.column_set(j)) for j in range(1, ncols + 1)]
        for p in range(2, ncols + 1):
            for js in itertools.combinations(range(ncols), p):
                for bs in itertools.product(*[columns[j] for j in js]):
                    lhs = sandwich(Permutation.cycle(a, list(bs), n))
                    if S.row_of(bs[0]) != S.row_of(bs[1]):
                        yield lhs
                    else:
                        yield lhs - sandwich(Permutation.cycle(a, list(bs[1:]), n))

    add("cycle-sandwich", cycle_sandwich_residuals())

    # full block sandwich: the whole hook-factor product collapses likewise
    add("block-sandwich", [_chain(cS, factors) * cS - first_sandwich] if m else [])

    # left-column annihilation for permutations fixing the left of S
    fixed = set().union(*(S.column_set(j) for j in range(1, v)))
    add(
        "left-column-annihilation",
        (
            aTcS * sigma * (unit - z(j))
            for j in range(1, v)
            for sigma in _permutations_of(set(range(1, n + 1)) - fixed, n)
        ),
    )

    # the sum over all columns commutes with the subtableau symmetrizer and
    # with every permutation fixing a
    Z = transposition_sum(a, S.entries, n)

    def commutation_residuals():
        yield cS * Z - Z * cS
        for sigma in _permutations_of(set(range(1, n + 1)) - {a}, n):
            yield sigma * Z - Z * sigma

    add("colsum-commutation", commutation_residuals())

    # polynomial sandwich: a c alpha X^t = a c X^t c for t < 5
    alpha = mu.hook_product()
    powers = itertools.accumulate(itertools.repeat(ctx.x_total, 4), operator.mul, initial=aTcS)
    add("polynomial-sandwich", (w.scale(alpha) - w * cS for w in powers))

    # block polynomials: P_t and Q_t, their base case and congruences
    def poly_P(t: int) -> AlgebraElement:
        return _chain(unit, [xs[i] - unit.scale(rs[i]) for i in range(t)])

    def poly_Q(t: int) -> AlgebraElement:
        xt = x_upto(t)
        cum = list(itertools.accumulate(ls))
        shifts = [cum[i - 1] - (hs[i] if i < t else 0) for i in range(1, t + 1)]
        return _chain(unit, [xt - unit.scale(s) for s in shifts])

    if m:
        add("first-block-polys", [poly_P(1) - (xs[0] - unit.scale(ls[0])), poly_Q(1) - poly_P(1)])
    else:
        add("first-block-polys", [])

    add("congruence-products", ctx._residuals(block_relations))
    add("congruence-pt-qt", ctx._residuals((poly_P(t), poly_Q(t)) for t in range(1, m + 1)))

    def annihilation_relations():
        for t in range(1, m + 1):
            pt, shifted = poly_P(t), x_upto(t) + unit.scale(hs[0])
            yield pt * shifted, zero
            yield shifted * pt, zero

    add("congruence-annihilation", ctx._residuals(annihilation_relations()))

    return report
