import copy
import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ysym.algebra import symmetrize_set
from ysym.perm import Permutation, _permutations_of, all_permutations, star
from ysym.tableau import YoungTableau
from ysym.tensor import membership_certificate


def perm_strategy(n):
    return st.permutations(list(range(1, n + 1))).map(Permutation)


def test_identity_compose():
    e3 = Permutation.identity(3)
    t = Permutation.transposition(1, 2, 3)
    assert e3 * t == t
    assert t * e3 == t


def test_involution():
    t = Permutation.transposition(1, 2, 2)
    assert t * t == Permutation.identity(2)


def test_compose_pointwise():
    # p(q(i)) evaluated by hand: (1 2) after (2 3) maps 1->2, 2->3, 3->1
    p = Permutation.transposition(1, 2, 3)
    q = Permutation.transposition(2, 3, 3)
    r = p * q
    assert [r(i) for i in (1, 2, 3)] == [2, 3, 1]
    for i in (1, 2, 3):
        assert r(i) == p(q(i))


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        Permutation.identity(2) * Permutation.identity(3)


def test_inverse():
    assert Permutation.identity(4).inverse() == Permutation.identity(4)
    t = Permutation.transposition(1, 2, 2)
    assert t.inverse() == t
    c = Permutation.from_cycles([(1, 2, 3)], 3)
    assert c.inverse() == Permutation.from_cycles([(1, 3, 2)], 3)
    for p in all_permutations(4):
        assert p * p.inverse() == Permutation.identity(4)


def test_sign():
    assert Permutation.identity(5).sign() == 1
    assert Permutation.transposition(1, 2, 2).sign() == -1
    assert Permutation.from_cycles([(1, 2, 3)], 3).sign() == 1


def test_sign_multiplicative_exhaustive():
    for p in all_permutations(4):
        for q in all_permutations(4):
            assert (p * q).sign() == p.sign() * q.sign()


def test_cycle_empty_is_identity():
    assert Permutation.cycle(3, [], 5) == Permutation.identity(5)


def test_cycle_single_is_transposition():
    assert Permutation.cycle(9, [4], 9) == Permutation.transposition(9, 4, 9)


def test_cycle_matches_transposition_product():
    got = Permutation.cycle(3, [1, 2], 3)
    want = Permutation.transposition(3, 1, 3) * Permutation.transposition(3, 2, 3)
    assert got == want


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_cycle_transposition_product_exhaustive(n):
    # (a,b_1)(a,b_2)...(a,b_r) composed left to right equals the cycle, r <= 4
    for r in range(5):
        for entries in itertools.permutations(range(1, n + 1), r + 1):
            a, bs = entries[0], list(entries[1:])
            prod = Permutation.identity(n)
            for b in bs:
                prod = prod * Permutation.transposition(a, b, n)
            assert Permutation.cycle(a, bs, n) == prod


def test_cycle_rejects_repeats():
    with pytest.raises(ValueError):
        Permutation.cycle(1, [2, 2], 3)
    with pytest.raises(ValueError):
        Permutation.cycle(1, [1], 3)


def test_star_identities():
    assert star(Permutation.identity(2), Permutation.identity(3)) == Permutation.identity(5)
    t = Permutation.transposition(1, 2, 2)
    assert star(t, Permutation.identity(1)) == Permutation.transposition(1, 2, 3)
    got = star(t, t)
    assert got == Permutation.from_cycles([(1, 2), (3, 4)], 4)


def test_star_restriction_and_sign():
    for p in all_permutations(3):
        for q in all_permutations(3):
            s = star(p, q)
            assert all(s(i) == p(i) for i in range(1, 4))
            assert s.sign() == p.sign() * q.sign()


@given(
    st.permutations([1, 2, 3]).map(Permutation),
    st.permutations([1, 2]).map(Permutation),
    st.permutations([1, 2, 3, 4]).map(Permutation),
)
def test_star_associative(p, q, r):
    assert star(star(p, q), r) == star(p, star(q, r))


def test_one_line_round_trip():
    p = Permutation([2, 1, 3])
    assert p.one_line() == "[2,1,3]"
    assert Permutation.from_one_line("[2,1,3]") == p
    for q in all_permutations(4):
        assert Permutation.from_one_line(q.one_line()) == q


def test_cycle_string_round_trip():
    p = Permutation([2, 1, 3])
    assert p.cycle_string() == "(1 2)(3)"
    for q in all_permutations(5):
        assert Permutation.from_cycle_string(q.cycle_string()) == q
    assert Permutation.from_cycle_string("()") == Permutation.identity(0)


def test_bad_words_rejected():
    with pytest.raises(ValueError):
        Permutation([1, 1, 2])
    with pytest.raises(ValueError):
        Permutation([0, 1])
    with pytest.raises(ValueError):
        Permutation([2, 3])


def test_bad_generator_word_reported_in_full():
    with pytest.raises(ValueError, match=r"\[1, 1, 2\]"):
        Permutation(x for x in [1, 1, 2])
    assert Permutation(x for x in [2, 1, 3]) == Permutation([2, 1, 3])


def test_pad():
    t = Permutation.transposition(1, 2, 2)
    assert t.pad(4) == Permutation.transposition(1, 2, 4)
    with pytest.raises(ValueError):
        t.pad(1)


def test_interning_and_hash():
    a = Permutation([2, 1, 3])
    b = Permutation([2, 1, 3])
    assert a == b
    assert hash(a) == hash(b)


def test_pickle_and_deepcopy_round_trip():
    p = Permutation([2, 1, 3])
    for clone in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert clone == p and type(clone) is Permutation
    f = symmetrize_set([1, 3], 3).scale(Fraction(2, 3)) * p
    g = pickle.loads(pickle.dumps(f))
    assert g == f and all(type(q) is Permutation for q, _ in g.items())
    assert copy.deepcopy(f) == f
    cert = membership_certificate(YoungTableau.parse("1,2,3,6/4,5/7"), 5)
    clone = pickle.loads(pickle.dumps(cert))
    assert clone.to_json() == cert.to_json()
    assert clone.verify()


def test_cycles_listing():
    p = Permutation.from_cycles([(1, 2, 3), (4, 5)], 6)
    assert p.cycles() == [(1, 2, 3), (4, 5)]
    assert p.cycles(include_fixed=True) == [(1, 2, 3), (4, 5), (6,)]
    assert p.moved_points() == frozenset({1, 2, 3, 4, 5})


def test_permutations_of_subset_is_filtered_symmetric_group():
    for n in range(6):
        group = list(all_permutations(n))
        for r in range(n + 1):
            for points in itertools.combinations(range(1, n + 1), r):
                expected = [p for p in group if p.moved_points() <= set(points)]
                assert list(_permutations_of(points, n)) == expected
