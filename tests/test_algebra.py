import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ysym.algebra import (
    AlgebraElement,
    _chain,
    _group_product_sum,
    _mul_full,
    antisymmetrize_set,
    conjugate,
    random_element,
    symmetrize_set,
    transposition_sum,
)
from ysym.perm import Permutation, all_permutations
from ysym.symmetrizer import expand_product, young_symmetrizer
from ysym.tableau import YoungTableau, partitions
from ysym.tensor import star_algebra


def test_linear_cancellation():
    f = AlgebraElement.unit(3)
    assert (f.scale(1) + f.scale(-1)).is_zero()


def test_linear_merge():
    two = AlgebraElement.unit(2).scale(2)
    three = AlgebraElement.unit(2).scale(3)
    assert two + three == AlgebraElement.unit(2).scale(5)


def test_linear_fraction_merge():
    e = Permutation.identity(2)
    t = Permutation.transposition(1, 2, 2)
    f = AlgebraElement(2, {e: Fraction(1, 2)})
    g = AlgebraElement(2, {t: Fraction(1, 3)})
    h = f + g
    assert h.coeff(e) == Fraction(1, 2)
    assert h.coeff(t) == Fraction(1, 3)
    assert len(h) == 2


def test_linear_degree_mismatch():
    with pytest.raises(ValueError):
        AlgebraElement.unit(2).scale(1) + AlgebraElement.unit(3).scale(1)


def test_multiply_by_unit():
    rng = random.Random(7)
    f = random_element(4, 5, rng)
    assert f * AlgebraElement.unit(4) == f
    assert AlgebraElement.unit(4) * f == f


def _pointwise(f, g):
    """The oracle: accumulate coefficients over all pairs by hand."""
    expected = {}
    for p, cp in f.items():
        for q, cq in g.items():
            r = p * q
            expected[r] = expected.get(r, 0) + cp * cq
    return {p: c for p, c in expected.items() if c}


def test_multiply_matches_pointwise_convolution():
    rng = random.Random(11)
    f = random_element(4, 4, rng)
    g = random_element(4, 4, rng)
    assert dict((f * g).items()) == _pointwise(f, g)


_KERNEL_COEFFS = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


@st.composite
def _kernel_operands(draw):
    """Two elements of one degree 0..6; one side often has just one or two
    terms, and either side may carry one coefficient on every term."""
    n = draw(st.integers(0, 6))
    perm = st.permutations(list(range(1, n + 1))).map(Permutation)

    def element(size):
        if draw(st.booleans()):
            words = draw(st.sets(perm, max_size=size))
            return AlgebraElement(n, dict.fromkeys(words, draw(_KERNEL_COEFFS)))
        return AlgebraElement(n, draw(st.dictionaries(perm, _KERNEL_COEFFS, max_size=size)))

    left, right = draw(st.sampled_from([(24, 1), (1, 24), (24, 2), (2, 24), (12, 12)]))
    return element(left), element(right)


def _assert_normalized(x):
    # no zero coefficient, and an int wherever the value is integral
    for c in x._terms.values():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


@given(_kernel_operands())
def test_kernel_matches_pointwise_oracle(operands):
    f, g = operands
    got = f * g
    assert dict(got.items()) == _pointwise(f, g)
    _assert_normalized(got)
    assert (f * (g - g)).is_zero()
    assert ((g - g) * f).is_zero()


@pytest.mark.parametrize("n", list(range(2, 7)))
def test_kernel_cancels_across_coefficient_groups(n):
    # (1 + t)(1 - t) = 1 - t^2 = 0: every composed word meets its negative.
    unit = AlgebraElement.unit(n)
    t = AlgebraElement.from_perm(Permutation.transposition(1, n, n))
    f = (unit + t).scale(Fraction(2, 3))
    g = (unit - t).scale(Fraction(3, 4))
    assert (f * g).is_zero()
    assert (f * (unit + t)) == (unit + t).scale(Fraction(4, 3))
    # the same with integer coefficients, and a(X)(1 - t) = 0 for t in S_X,
    # where the words of a(X) all carry one coefficient
    assert ((unit + t) * (unit - t).scale(3)).is_zero()
    assert (symmetrize_set(range(1, n + 1), n) * (unit - t)).is_zero()
    half = (unit + t) * (unit + t).scale(Fraction(1, 2))
    assert half == unit + t
    _assert_normalized(half)


def test_kernel_degree_limit():
    t = AlgebraElement.from_perm(Permutation.transposition(1, 256, 256))
    assert t * t == AlgebraElement.unit(256)
    with pytest.raises(ValueError, match="257"):
        AlgebraElement.unit(257) * AlgebraElement.unit(257)


@settings(max_examples=60, deadline=None)
@given(_kernel_operands())
def test_every_key_is_a_permutation(operands):
    # elements key their terms by plain bytes words; items() must still
    # hand out a Permutation for each, whichever operation made the element
    f, g = operands
    n = f.degree
    p = Permutation(range(n, 0, -1))
    results = [
        _mul_full(f, g),
        f * p,
        p * f,
        star_algebra(f, g),
        conjugate(p, f),
        transposition_sum(1, range(2, n + 1), n),
        f + g,
        f - g,
        f.scale(Fraction(2, 3)),
        AlgebraElement.from_json(f.to_json()),
    ]
    for x in results:
        assert all(type(q) is Permutation for q, _ in x.items())


def test_permutation_has_no_bytes_arithmetic():
    p, q = Permutation([2, 1, 3]), Permutation([1, 3, 2])
    with pytest.raises(TypeError):
        p * 3
    with pytest.raises(TypeError):
        3 * p
    with pytest.raises(TypeError):
        p + q
    assert bool(Permutation.identity(0))


def _non_canonical_fillings(lam):
    """Two hand-picked fillings of lam and a degree above their largest entry:
    entries n..1 in reading order, and 2..n+1 down the columns with degree n+2."""
    n = lam.n
    down = iter(range(n, 0, -1))
    yield YoungTableau([[next(down) for _ in range(part)] for part in lam]), n
    up = iter(range(2, n + 2))
    columns = [[next(up) for _ in range(height)] for height in lam.conjugate()]
    rows = [[col[i] for col in columns if i < len(col)] for i in range(len(lam))]
    yield YoungTableau(rows), n + 2


@pytest.mark.parametrize("n", list(range(1, 6)))
def test_symmetrizer_products_on_non_canonical_tableaux(n):
    for lam in partitions(n):
        for t, degree in _non_canonical_fillings(lam):
            c = young_symmetrizer(t, degree).c
            assert c * c == c.scale(lam.hook_product())
            for k in range(1, n + 1):
                for mu in partitions(k, within=lam):
                    s = t.restrict(mu)
                    e = expand_product(t, s, degree).element
                    assert c * young_symmetrizer(s, degree).c == c * e


def test_multiply_associative_random():
    rng = random.Random(23)
    for n in range(1, 7):
        for _ in range(3):
            f = random_element(n, 4, rng)
            g = random_element(n, 4, rng)
            h = random_element(n, 4, rng)
            assert (f * g) * h == f * (g * h)


def _element_strategy(n):
    coeffs = st.integers(-4, 4)
    perm = st.permutations(list(range(1, n + 1))).map(Permutation)
    return st.dictionaries(perm, coeffs, max_size=4).map(
        lambda terms: AlgebraElement(n, terms)
    )


@given(_element_strategy(4), _element_strategy(4), _element_strategy(4))
def test_multiply_distributes(f, g, h):
    assert f * (g + h) == f * g + f * h
    assert (g + h) * f == g * f + h * f


@given(_element_strategy(3), _element_strategy(3))
def test_scalar_compatibility(f, g):
    assert (f * g).scale(Fraction(3, 2)) == f.scale(Fraction(3, 2)) * g
    assert (f * g).scale(Fraction(3, 2)) == f * g.scale(Fraction(3, 2))


def test_symmetrize_trivial():
    assert symmetrize_set([], 3) == AlgebraElement.unit(3)
    assert symmetrize_set([2], 3) == AlgebraElement.unit(3)
    got = symmetrize_set([1, 2], 2)
    assert got.coeff(Permutation.identity(2)) == 1
    assert got.coeff(Permutation.transposition(1, 2, 2)) == 1
    assert len(got) == 2


def test_symmetrize_fixes_complement():
    got = symmetrize_set([1, 2, 3], 4)
    assert len(got) == 6
    for p in got.support():
        assert p(4) == 4
        assert got.coeff(p) == 1


def test_set_sums_reject_bad_entries():
    for build in (symmetrize_set, antisymmetrize_set):
        with pytest.raises(ValueError, match="not contained"):
            build([0, 1], 3)
        with pytest.raises(ValueError, match="not contained"):
            build([2, 4], 3)
        with pytest.raises(ValueError, match="repeated"):
            build([1, 2, 1], 3)


def _brute_group_sum(sets, n, signed):
    """Oracle: filter S_n for the permutations that map every set onto itself
    and fix every point outside them."""
    terms = {}
    for p in all_permutations(n):
        if all({p(x) for x in s} == set(s) for s in sets) and all(
            p(x) == x for x in range(1, n + 1) if not any(x in s for s in sets)
        ):
            terms[p] = p.sign() if signed else 1
    return AlgebraElement(n, terms)


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize(
    "sets",
    [
        [],
        [[4]],
        [[]],
        [[2, 5]],
        [[1], [3, 6]],
        [[1, 2, 3], [4, 5]],
        [[6, 1, 4], [2], [5, 3]],
        [[1, 2], [3, 4], [5, 6]],
        [[2, 3, 4, 5, 6]],
    ],
)
def test_group_product_sum_matches_brute_filter(sets, signed):
    assert _group_product_sum(sets, 6, signed) == _brute_group_sum(sets, 6, signed)


@pytest.mark.parametrize("n", list(range(1, 7)))
def test_symmetrizer_parts_match_brute_filter(n):
    for lam in partitions(n):
        t = YoungTableau.canonical(lam)
        rows = [t.row_set(i) for i in range(1, len(t.rows) + 1)]
        cols = [t.column_set(j) for j in range(1, lam.part(1) + 1)]
        for degree in (n, n + 1):
            triple = young_symmetrizer(t, degree)
            assert triple.a_part == _brute_group_sum(rows, degree, False)
            assert triple.b_part == _brute_group_sum(cols, degree, True)


def test_antisymmetrize_small():
    assert antisymmetrize_set([1], 3) == AlgebraElement.unit(3)
    got = antisymmetrize_set([1, 2], 2)
    assert got.coeff(Permutation.identity(2)) == 1
    assert got.coeff(Permutation.transposition(1, 2, 2)) == -1


def test_antisymmetrize_signs_match_parity():
    got = antisymmetrize_set([1, 3, 4], 5)
    assert len(got) == 6
    for p in got.support():
        assert got.coeff(p) == p.sign()
        assert p(2) == 2 and p(5) == 5


@pytest.mark.parametrize("n", list(range(1, 7)))
def test_quasi_idempotence_of_set_sums(n):
    for size in range(n + 1):
        for xs in itertools.combinations(range(1, n + 1), size):
            a = symmetrize_set(xs, n)
            b = antisymmetrize_set(xs, n)
            fact = math.factorial(size)
            assert a * a == a.scale(fact)
            assert b * b == b.scale(fact)


@pytest.mark.parametrize("n", list(range(2, 7)))
def test_mixed_products_vanish_on_overlap(n):
    universe = list(range(1, n + 1))
    for xsz in range(2, n + 1):
        for xs in itertools.combinations(universe, xsz):
            for ysz in range(2, n + 1):
                for ys in itertools.combinations(universe, ysz):
                    if len(set(xs) & set(ys)) >= 2:
                        a = symmetrize_set(xs, n)
                        b = antisymmetrize_set(ys, n)
                        assert (a * b).is_zero()
                        assert (b * a).is_zero()


@pytest.mark.parametrize("n", list(range(1, 7)))
def test_adjoin_point_expansion(n):
    # a(X u {x}) = a(X)(1+z) = (1+z)a(X), b variant with (1-z)
    unit = AlgebraElement.unit(n)
    for size in range(n):
        for xs in itertools.combinations(range(1, n + 1), size):
            rest = [x for x in range(1, n + 1) if x not in xs]
            for extra in rest:
                z = AlgebraElement(
                    n,
                    {Permutation.transposition(extra, x, n): 1 for x in xs},
                )
                bigger = sorted(xs + (extra,))
                a_small, a_big = symmetrize_set(xs, n), symmetrize_set(bigger, n)
                b_small, b_big = antisymmetrize_set(xs, n), antisymmetrize_set(bigger, n)
                assert a_big == a_small * (unit + z)
                assert a_big == (unit + z) * a_small
                assert b_big == b_small * (unit - z)
                assert b_big == (unit - z) * b_small


def test_conjugate_identity():
    rng = random.Random(3)
    f = random_element(4, 5, rng)
    assert conjugate(Permutation.identity(4), f) == f


def test_conjugate_moves_set_sums():
    n = 5
    for delta in itertools.islice(all_permutations(n), 0, 120, 7):
        for xs in [(1, 2), (2, 4, 5), (1, 3, 4)]:
            moved = tuple(sorted(delta(x) for x in xs))
            assert conjugate(delta, symmetrize_set(xs, n)) == symmetrize_set(moved, n)
            assert conjugate(delta, antisymmetrize_set(xs, n)) == antisymmetrize_set(
                moved, n
            )


def test_conjugate_matches_products():
    rng = random.Random(5)
    f = random_element(5, 6, rng)
    for delta in [Permutation([2, 3, 1, 5, 4]), Permutation([5, 4, 3, 2, 1])]:
        d = AlgebraElement.from_perm(delta)
        dinv = AlgebraElement.from_perm(delta.inverse())
        assert conjugate(delta, f) == d * f * dinv


def test_conjugate_degree_mismatch():
    with pytest.raises(ValueError, match="degree mismatch"):
        conjugate(Permutation.identity(3), AlgebraElement.unit(4))


def test_json_round_trip_exact():
    rng = random.Random(13)
    f = random_element(5, 8, rng)
    blob = f.dumps()
    assert AlgebraElement.loads(blob) == f
    data = json.loads(blob)
    words = [tuple(t["perm"]) for t in data["terms"]]
    assert words == sorted(words)
    for t in data["terms"]:
        assert isinstance(t["coeff"], str)


def test_json_fraction_formatting():
    e = Permutation.identity(2)
    f = AlgebraElement(2, {e: Fraction(-3, 4)})
    data = f.to_json()
    assert data["terms"][0]["coeff"] == "-3/4"
    assert AlgebraElement.from_json(data) == f


def test_zero_pruning_and_equality():
    e = Permutation.identity(3)
    assert AlgebraElement(3, {e: 0}).is_zero()
    f = AlgebraElement(3, {e: Fraction(4, 2)})
    assert f.coeff(e) == 2
    assert isinstance(f.coeff(e), int)


def test_degree_mismatch_multiply():
    with pytest.raises(ValueError):
        AlgebraElement.unit(2) * AlgebraElement.unit(3)


def test_scalar_and_perm_multiplication():
    t = Permutation.transposition(1, 2, 3)
    c = Permutation.from_cycles([(1, 2, 3)], 3)
    f = AlgebraElement(3, {t: 2, c: Fraction(1, 2)})
    assert (f * 2).coeff(c) == 1
    assert (2 * f) == f * 2
    g = f * t
    assert g.coeff(t * t) == 2
    assert g.coeff(c * t) == Fraction(1, 2)
    h = t * f
    assert h.coeff(t * t) == 2
    assert h.coeff(t * c) == Fraction(1, 2)


def _composed_term_by_term(x, p, right):
    """x * p (right) or p * x, one Permutation product per term: the oracle
    for the gathered element-by-permutation actions."""
    return AlgebraElement(x.degree, {(q * p if right else p * q): c for q, c in x.items()})


@pytest.mark.parametrize("n", list(range(8)))
def test_permutation_actions_match_per_term_composition(n):
    rng = random.Random(100 + n)
    perms = [Permutation.identity(n)] + [
        Permutation(rng.sample(range(1, n + 1), n)) for _ in range(3)
    ]
    elements = [
        AlgebraElement.zero(n),
        AlgebraElement(n, {p: rng.randint(-5, 5) for p in perms}),
        random_element(n, 12, rng),
        symmetrize_set(range(1, n + 1), n),
        antisymmetrize_set(range(1, n + 1), n).scale(Fraction(-2, 3)),
    ]
    for x in elements:
        for p in perms:
            right, left = x * p, p * x
            as_element = AlgebraElement.from_perm(p)
            assert right == _composed_term_by_term(x, p, True) == _mul_full(x, as_element)
            assert left == _composed_term_by_term(x, p, False) == _mul_full(as_element, x)
            # each coefficient is carried over as it is, int or Fraction
            coeffs = sorted(map(repr, x._terms.values()))
            assert sorted(map(repr, right._terms.values())) == coeffs
            assert sorted(map(repr, left._terms.values())) == coeffs
        other = Permutation.identity(n + 1)
        with pytest.raises(ValueError, match="degree mismatch"):
            x * other
        with pytest.raises(ValueError, match="degree mismatch"):
            other * x


def test_elements_built_from_permutations_equal_products():
    # words made by products and Permutation keys given by a caller meet in
    # one dict: equality, coeff and JSON see no difference
    n = 5
    x = symmetrize_set([1, 2, 4], n).scale(Fraction(3, 2)) * Permutation([2, 3, 4, 5, 1])
    built = AlgebraElement(n, dict(x.items()))
    assert built == x and x == built
    assert AlgebraElement.from_json(x.to_json()) == x
    assert AlgebraElement.loads(x.dumps()) == x
    for p, c in built.items():
        assert x.coeff(p) == c
    assert built - x == AlgebraElement.zero(n)
    assert x * AlgebraElement.unit(n) == built == AlgebraElement.unit(n) * built


def test_product_results_keep_their_text_forms():
    x = symmetrize_set([1, 3], 3).scale(Fraction(2, 3)) - antisymmetrize_set([2, 3], 3)
    p = Permutation([2, 3, 1])
    right, left = x * p, p * x
    assert repr(right) == "AlgebraElement(S_3, 2/3*(1 2)(3) + -1/3*(1 2 3) + 1*(1 3)(2))"
    assert right.to_json() == {
        "degree": 3,
        "terms": [
            {"perm": [2, 1, 3], "coeff": "2/3"},
            {"perm": [2, 3, 1], "coeff": "-1/3"},
            {"perm": [3, 2, 1], "coeff": "1"},
        ],
    }
    assert repr(left) == "AlgebraElement(S_3, 2/3*(1)(2 3) + 1*(1 2)(3) + -1/3*(1 2 3))"
    assert left.to_json() == {
        "degree": 3,
        "terms": [
            {"perm": [1, 3, 2], "coeff": "2/3"},
            {"perm": [2, 1, 3], "coeff": "1"},
            {"perm": [2, 3, 1], "coeff": "-1/3"},
        ],
    }
    assert repr(AlgebraElement.unit(0) * Permutation.identity(0)) == "AlgebraElement(S_0, 1*())"


def test_scaling_by_one_and_negation_leave_the_element_alone():
    # scale(1) hands back the element itself, so no sum, difference or
    # product formed from it or its negation may change it
    rng = random.Random(5)
    x = random_element(4, 8, rng)
    g = random_element(4, 8, rng)
    p = Permutation([3, 1, 4, 2])
    snapshot = x.to_json()
    assert x.scale(1) is x and x.scale(Fraction(1)) is x
    assert x.scale(-1) == -x == x.scale(Fraction(-1)) == x * -1
    assert (x + x.scale(-1)).is_zero()
    for y in (x.scale(1), x.scale(-1), -x):
        for z in (y + g, g + y, y - g, g - y, y + y, y - y, y * p, p * y, y * g, y.scale(3)):
            assert z.degree == 4
    assert x.to_json() == snapshot
    assert all(type(c) is int or c.denominator > 1 for _, c in (-x).items())


def test_products_build_permutations_only_at_the_edge(monkeypatch):
    # keys are plain byte words: a product builds no Permutation, and
    # items() builds exactly one per term
    from ysym import algebra, perm

    triple = young_symmetrizer(YoungTableau.parse("1,2,3/4,5"), 5)
    c = triple.c
    unit = AlgebraElement.unit(5)
    rho = Permutation([2, 4, 5, 1, 3])
    built = []
    real = perm._from_word

    def spy(w):
        built.append(w)
        return real(w)

    monkeypatch.setattr(algebra, "_from_word", spy)
    monkeypatch.setattr(perm, "_from_word", spy)
    single = AlgebraElement.from_perm(rho, Fraction(1, 2))
    products = [
        c * c,
        c * rho,
        rho * c,
        c * single,
        single * c,
        _chain(unit, triple.factors),
    ]
    assert built == []
    made = [
        AlgebraElement(5, {rho: 2}),
        AlgebraElement.from_perm(rho),
        AlgebraElement.unit(5),
        transposition_sum(1, [2, 3], 5),
        -c,
        c.scale(Fraction(1, 2)),
        star_algebra(c, AlgebraElement.unit(1)),
    ]
    assert all(type(w) is bytes for x in products + made for w in x._terms)
    for x in products:
        built.clear()
        x.items()
        assert len(built) == len(x) > 0
