import itertools

import pytest

from ysym.perm import Permutation, all_permutations
from ysym.tableau import (
    Partition,
    YoungTableau,
    blocks_from_column,
    dominates,
    in_left_set,
    partitions,
    rightmost_corner_outside,
    subtableau_fillings,
)

P = Partition.parse
T = YoungTableau.parse


def hook_cells(shape, x, y):
    """Oracle: the hook as an explicit cell set."""
    cells = set()
    for j in range(y, shape.part(x) + 1):
        cells.add((x, j))
    for i in range(x, len(shape.parts) + 1):
        if shape.part(i) >= y:
            cells.add((i, y))
    return cells


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, 0])
    assert Partition([]).n == 0


def test_parse_and_str():
    p = P("4,2,1")
    assert p.parts == (4, 2, 1)
    assert str(p) == "4,2,1"
    assert P("") == Partition([])


def test_conjugate_involution_up_to_ten():
    for n in range(11):
        for lam in partitions(n):
            assert lam.conjugate().conjugate() == lam


def test_hook_lengths_against_cell_oracle():
    for n in range(1, 9):
        for lam in partitions(n):
            for (i, j) in lam.cells():
                assert lam.hook_length(i, j) == len(hook_cells(lam, i, j))


def test_hook_product_values():
    assert P("1").hook_product() == 1
    assert P("2,1").hook_product() == 3
    assert P("4,3,1,1").hook_product() == 1680


def test_hook_product_conjugation_invariant():
    for n in range(1, 9):
        for lam in partitions(n):
            assert lam.hook_product() == lam.conjugate().hook_product()


def test_hook_outside_diagram():
    with pytest.raises(ValueError):
        P("2,1").hook_length(1, 3)


def test_partition_enumeration():
    assert [p.parts for p in partitions(0)] == [()]
    got = [p.parts for p in partitions(4)]
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    counts = [sum(1 for _ in partitions(n)) for n in range(11)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_partition_enumeration_with_constraint():
    got = [p.parts for p in partitions(3, within=P("2,1"))]
    assert got == [(2, 1)]
    inside = [p.parts for p in partitions(4, within=P("2,2,2"))]
    assert inside == [(2, 2), (2, 1, 1)]


def test_tableau_parse_round_trip():
    t = T("1,2,3,6/4,5/7")
    assert str(t) == "1,2,3,6/4,5/7"
    assert t.shape == P("4,2,1")
    assert t.entry(2, 1) == 4
    assert t.column_set(1) == {1, 4, 7}
    assert t.position(6) == (1, 4)


def test_tableau_rejects_bad_fills():
    with pytest.raises(ValueError):
        T("1,2/3,4,5")
    with pytest.raises(ValueError):
        T("1,1/2")


def test_canonical_tableau():
    t = YoungTableau.canonical(P("4,3,1,1"))
    assert str(t) == "1,2,3,4/5,6,7/8/9"


def test_fill_gives_canonical_rows():
    assert P("4,3,1,1").fill(range(1, 10)) == ((1, 2, 3, 4), (5, 6, 7), (8,), (9,))
    assert P("3,3").fill(range(1, 7)) == ((1, 2, 3), (4, 5, 6))
    assert P("").fill([]) == ()


def test_fill_round_trips_reading_word():
    for n in range(0, 6):
        for lam in partitions(n):
            for word in itertools.permutations(range(1, n + 1)):
                rows = lam.fill(word)
                assert tuple(len(row) for row in rows) == lam.parts
                assert tuple(e for row in rows for e in row) == word


def test_fill_rejects_wrong_count():
    with pytest.raises(ValueError):
        P("2,1").fill([1, 2])
    with pytest.raises(ValueError):
        P("2,1").fill([1, 2, 3, 4])
    with pytest.raises(ValueError):
        P("").fill([1])


def test_restriction_keeps_labels():
    t = T("1,2,3,4/5,6,7/8/9")
    s = t.restrict(P("2,1,1"))
    assert str(s) == "1,2/5/8"
    assert t.has_subtableau(s)
    assert not t.has_subtableau(T("1,3/5/8"))


def test_relabel():
    t = T("1,2/3")
    sigma = Permutation.from_cycles([(1, 2, 3)], 3)
    assert t.relabel(sigma) == T("2,3/1")


def _same_tableau(a, b):
    # equality compares rows only; the trusted builds must also agree on
    # the shape and the entry positions a validating build computes
    return (a.rows, a.shape, a._pos) == (b.rows, b.shape, b._pos)


def test_relabel_restrict_and_canonical_match_validated_builds():
    t = T("4,1,6/2,7/3/5")
    for sigma in (Permutation([3, 1, 2, 7, 6, 5, 4]), Permutation.identity(9)):
        got = t.relabel(sigma)
        assert _same_tableau(got, YoungTableau([[sigma(e) for e in row] for row in t.rows]))
    for mu in (P("3,2,1,1"), P("2,1"), P("1"), P("")):
        assert _same_tableau(t.restrict(mu), YoungTableau([r[:p] for r, p in zip(t.rows, mu)]))
        assert _same_tableau(YoungTableau.canonical(mu), YoungTableau(mu.fill(range(1, mu.n + 1))))


def test_relabel_refuses_short_permutation():
    # a permutation of {1..6} cannot relabel the entry 7
    with pytest.raises(ValueError, match="below largest entry 7"):
        T("4,1,6/2,7/3/5").relabel(Permutation.identity(6))


def test_blocks_whole_tableau():
    t = T("1,2,3,4/5,6,7/8/9")
    dec = blocks_from_column(t, 0)
    assert dec.lengths == (1, 2, 1)
    assert dec.heights == (4, 2, 1)
    assert dec.cell_count() == 9


def test_blocks_after_removing_one_column():
    # the 9-entry tableau with its bottom corner stripped
    s = T("1,2,3,4/5,6,7/8")
    dec = blocks_from_column(s, 1)
    assert [b.entries for b in dec] == [frozenset({2, 3, 6, 7}), frozenset({4})]
    assert dec.hook_numbers(4) == (4, 6)


def test_blocks_empty_when_everything_removed():
    s = T("1,2/3,4")
    assert len(blocks_from_column(s, 2)) == 0
    with pytest.raises(ValueError):
        blocks_from_column(s, 3)


def test_block_hook_numbers_are_hooks():
    # with base row one past the height of column v, r_i equals the hook
    # length of the shape at (h_i, v)
    for n in range(2, 8):
        for lam in partitions(n):
            t = YoungTableau.canonical(lam)
            for v in range(1, lam.part(1)):
                dec = blocks_from_column(t, v)
                base = lam.conjugate().part(v) + 1
                for b, r in zip(dec, dec.hook_numbers(base)):
                    assert r == lam.hook_length(b.height, v)


def test_block_case_split_at_corner():
    # stripping v-1 versus v columns: the first block either is the v-th
    # column alone or absorbs it, depending on the two column heights
    for n in range(2, 8):
        for lam in partitions(n):
            t = YoungTableau.canonical(lam)
            for (u, v) in lam.removable_corners():
                mu = lam.remove_corner(u, v)
                s = t.restrict(mu)
                if v > mu.part(1):
                    continue
                muc = mu.conjugate()
                dec = blocks_from_column(s, v - 1)
                dect = blocks_from_column(s, min(v, mu.part(1)))
                col_v = frozenset(s.column_set(v))
                if muc.part(v) > muc.part(v + 1):
                    assert len(dec) == len(dect) + 1
                    assert dec[0].entries == col_v
                    for b1, b2 in zip(dec.blocks[1:], dect.blocks):
                        assert b1 == b2
                else:
                    assert len(dec) == len(dect)
                    assert dec[0].entries == col_v | dect[0].entries
                    for b1, b2 in zip(dec.blocks[1:], dect.blocks[1:]):
                        assert b1 == b2


def test_blocks_cover_cells_heights_decrease():
    for n in range(1, 8):
        for lam in partitions(n):
            t = YoungTableau.canonical(lam)
            for v in range(0, lam.part(1) + 1):
                dec = blocks_from_column(t, v)
                stripped = sum(min(p, v) for p in lam.parts)
                assert dec.cell_count() == n - stripped
                hs = dec.heights
                assert all(a > b for a, b in zip(hs, hs[1:]))


def test_dominates_reflexive_and_mismatch():
    s = T("1,2,3/4,5")
    assert dominates(s, s)
    with pytest.raises(ValueError):
        dominates(T("1,2/3"), s)


def test_dominates_example_family():
    s = T("1,2,3/4,5")
    family = [
        "1,2,3/4,5",
        "1,2,3/4/5",
        "1,5,3/4/2",
        "1,2/4,5/3",
        "1,2/4,3/5",
        "1,3/4,5/2",
    ]
    import itertools as it

    for text in family:
        member = T(text)
        assert dominates(member, s)
        # every within-column rearrangement dominates as well
        cols = [member.column(j) for j in range(1, member.shape.part(1) + 1)]
        for arrs in it.product(*[it.permutations(c) for c in cols]):
            heights = [len(c) for c in arrs]
            rows = [
                [c[i] for c in arrs if len(c) > i]
                for i in range(max(heights))
            ]
            assert dominates(YoungTableau(rows), s)


def test_dominance_fails_moving_right():
    s = T("1,2/3,4")
    # swapping within columns preserves dominance
    assert dominates(T("3,4/1,2"), s)
    # moving 1 into column 2 moves it strictly right
    assert not dominates(T("4,1/3,2"), s)
    # exhaustive: any entry strictly right of its column breaks dominance
    for cand in subtableau_fillings(P("2,2"), range(1, 5)):
        moved_right = any(cand.column_of(i) > s.column_of(i) for i in range(1, 5))
        assert dominates(cand, s) == (not moved_right)


def test_dominates_transitive_sample():
    shapes = [P("2,2,1"), P("3,1,1"), P("3,2")]
    tabs = [t for sh in shapes for t in subtableau_fillings(sh, range(1, 6))]
    import random

    rng = random.Random(2)
    picked = rng.sample(tabs, 40)
    for a in picked[:10]:
        for b in picked:
            for c in picked[:10]:
                if dominates(a, b) and dominates(b, c):
                    assert dominates(a, c)


def test_in_left_set_basic():
    t = T("1,2,3,6/4,5/7")
    s = t.restrict(P("3,2"))
    n = 7
    assert in_left_set(Permutation.identity(n), t, s)
    assert in_left_set(Permutation.transposition(3, 7, n), t, s)
    assert not in_left_set(Permutation.transposition(1, 2, n), t, s)


def test_in_left_set_requires_subtableau():
    t = T("1,2/3")
    with pytest.raises(ValueError):
        in_left_set(Permutation.identity(3), t, T("2,1"))


def test_in_left_set_nonidentity_moves_something():
    t = YoungTableau.canonical(P("3,2"))
    s = t.restrict(P("2,1"))
    for sigma in all_permutations(5):
        if in_left_set(sigma, t, s) and not sigma.is_identity():
            assert any(
                sigma(e) != e and t.column_of(sigma(e)) < t.column_of(e)
                for e in s.entries
            )


def test_rightmost_corner_outside():
    t = YoungTableau.canonical(P("3,2,2,1"))
    s = t.restrict(P("3,1"))
    assert rightmost_corner_outside(t, s) == (3, 2)
    assert t.remove_cell(3, 2).shape == P("3,2,1,1")

    t2 = YoungTableau.canonical(P("2"))
    assert rightmost_corner_outside(t2, t2.restrict(P("1"))) == (1, 2)

    t3 = YoungTableau.canonical(P("2,2"))
    assert rightmost_corner_outside(t3, t3.restrict(P("2"))) == (2, 2)

    with pytest.raises(ValueError):
        rightmost_corner_outside(t3, t3)
