import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ysym.algebra import AlgebraElement, _group_product_sum
from ysym.perm import Permutation, all_permutations, star
from ysym.symmetrizer import _build_symmetrizer, young_symmetrizer
from ysym.sweeps import _dn_fillings, _split_fillings
from ysym.tableau import Partition, YoungTableau, partitions, subtableau_fillings
from ysym import tensor
from ysym.tensor import (
    Certificate,
    DnCertificate,
    DnFilling,
    MultiGraph,
    Summand,
    SymElement,
    Tabloid,
    TensorElement,
    _act_group_sum,
    _blocks_key,
    _canonical_key,
    _expand_canonical,
    _key_blocks,
    _left_anchor,
    _push_filling,
    _project_word,
    _split_shape,
    _twist_filling,
    column_group,
    graph_tabloid,
    graphs_containing,
    membership_certificate,
    project_sym,
    realize_tabloid,
    star_algebra,
    straighten,
    symmetrized_membership_certificate,
)

P = Partition.parse
T = YoungTableau.parse


def all_fillings(lam):
    return subtableau_fillings(lam, range(1, lam.n + 1))


def test_star_algebra_matches_perm_star():
    for p in all_permutations(3):
        for q in all_permutations(2):
            got = star_algebra(
                AlgebraElement.from_perm(p), AlgebraElement.from_perm(q)
            )
            assert got == AlgebraElement.from_perm(star(p, q))


def test_tensor_unit_and_degrees():
    x = TensorElement.monomial([2, 1])
    assert (x * TensorElement.unit()).value == x.value
    assert (TensorElement.unit() * x).value == x.value
    y = TensorElement.monomial([1])
    assert (x * y).degree == 3
    assert x * y == TensorElement.monomial([2, 1, 3])


def test_realize_single_cell():
    f = T("1")
    assert realize_tabloid(f).value == AlgebraElement.unit(1)


def test_realize_single_column():
    f = T("1/2")
    got = realize_tabloid(f).value
    assert got.coeff(Permutation.identity(2)) == 1
    assert got.coeff(Permutation.transposition(1, 2, 2)) == -1


def test_realize_nonzero_for_seven_entry_filling():
    got = realize_tabloid(T("1,2,3,6/4,5/7")).value
    assert not got.is_zero()
    assert len(got) > 1


def test_column_sign_rule_exhaustive():
    # relabeling by a column-preserving permutation flips by its sign
    for n in range(2, 6):
        for lam in partitions(n):
            for f in itertools.islice(all_fillings(lam), 0, None, 7):
                base = realize_tabloid(f).value
                for sigma, sign in column_group(f):
                    moved = realize_tabloid(f.relabel(sigma)).value
                    assert moved == base.scale(sign)


def shuffle_zero_sum(f, values, n):
    """Oracle: the alternating sum over the symmetric group of the values."""
    total = AlgebraElement.zero(n)
    for arr in itertools.permutations(sorted(values)):
        w = list(range(1, n + 1))
        for src, dst in zip(sorted(values), arr):
            w[src - 1] = dst
        sigma = Permutation(w)
        total = total + realize_tabloid(f.relabel(sigma)).value.scale(sigma.sign())
    return total


@pytest.mark.parametrize("n", [3, 4])
def test_shuffle_relation_exhaustive(n):
    for lam in partitions(n):
        ncols = lam.part(1)
        if ncols < 2:
            continue
        for f in all_fillings(lam):
            for i in range(1, ncols):
                ci, cnext = set(f.column(i)), set(f.column(i + 1))
                for xs in _subsets(ci):
                    for ys in _subsets(cnext):
                        if not ys or len(xs) + len(ys) <= len(ci):
                            continue
                        assert shuffle_zero_sum(f, xs | ys, n).is_zero()


def _subsets(s):
    out = []
    items = sorted(s)
    for r in range(len(items) + 1):
        out.extend(set(c) for c in itertools.combinations(items, r))
    return out


def test_straighten_already_split():
    f = T("1,2/3,4")
    got = straighten(f, 2)
    assert got == [(1, f)]


def test_straighten_column_sort_sign():
    # distinguished entry below an undistinguished one costs a sign
    g = T("1,3/4,2")
    got = straighten(g, 2)
    assert len(got) == 1
    coeff, h = got[0]
    assert coeff == -1
    assert h == T("1,2/4,3")


def test_straighten_step_budget(monkeypatch):
    # this filling takes 17 work-list steps
    f = T("4,5,1/6,2,3")
    monkeypatch.setattr(tensor, "_STRAIGHTEN_STEP_BUDGET", 17)
    assert len(straighten(f, 3)) == 12
    monkeypatch.setattr(tensor, "_STRAIGHTEN_STEP_BUDGET", 16)
    with pytest.raises(ValueError, match="budget of 16 steps"):
        straighten(f, 3)


def test_straighten_reconstruction_exhaustive():
    for n in range(2, 5):
        for lam in partitions(n):
            for f in all_fillings(lam):
                for k in range(1, n + 1):
                    parts = straighten(f, k)
                    total = AlgebraElement.zero(n)
                    for c, h in parts:
                        # split: distinguished cells form a diagram
                        from ysym.tensor import _split_shape

                        _split_shape(h, k)
                        # monotone: distinguished entries only move left
                        for e in range(1, k + 1):
                            assert h.column_of(e) <= f.column_of(e)
                        total = total + realize_tabloid(h).value.scale(c)
                    assert total == realize_tabloid(f).value


def test_membership_certificate_trivial_cutoff():
    f = T("1,2/3")
    cert = membership_certificate(f, 3)
    assert cert.scale == P("2,1").hook_product()
    assert len(cert.summands) == 1
    assert cert.verify()


def test_membership_certificate_small():
    f = T("1,2/3")
    cert = membership_certificate(f, 2)
    assert cert.scale == 2  # hook product of one row of two
    assert cert.verify()
    assert cert.verify_symmetrizer_form()
    for gen in cert.generator_fillings():
        assert gen.entries == frozenset({1, 2})


def test_membership_certificate_requires_split():
    # entry 1 sits at (1,2), so the distinguished cells miss the corner
    f = T("2,1/3")
    with pytest.raises(ValueError):
        membership_certificate(f, 1)
    # {1,2} at cells (1,1),(1,3) is not a diagram either
    with pytest.raises(ValueError):
        membership_certificate(T("1,3,2/4"), 2)


def test_membership_certificate_seven_entries():
    f = T("1,2,3,6/4,5/7")
    cert = membership_certificate(f, 5)
    assert cert.scale == P("3,2").hook_product()
    assert cert.verify()
    assert cert.verify_symmetrizer_form()
    # generators live on {1..5} and dominate the split subtableau
    from ysym.tableau import dominates

    s = f.restrict(P("3,2"))
    for gen in cert.generator_fillings():
        assert gen.entries == frozenset(range(1, 6))
        assert dominates(gen, s)


@pytest.mark.parametrize("n", [3, 4])
def test_membership_certificates_exhaustive(n):
    from ysym.tableau import dominates

    for lam in partitions(n):
        for k in range(1, n + 1):
            for mu in partitions(k, within=lam):
                for sub in subtableau_fillings(mu, range(1, k + 1)):
                    rest_shape = [lam.part(i) - mu.part(i) for i in range(1, len(lam.parts) + 1)]
                    rest_cells = [
                        (i, j)
                        for i in range(1, len(lam.parts) + 1)
                        for j in range(mu.part(i) + 1, lam.part(i) + 1)
                    ]
                    for arr in itertools.permutations(range(k + 1, n + 1)):
                        rows = [list(sub.rows[i - 1]) if i <= len(mu.parts) else [] for i in range(1, len(lam.parts) + 1)]
                        for (cell, val) in zip(rest_cells, arr):
                            rows[cell[0] - 1].append(val)
                        f = YoungTableau(rows)
                        cert = membership_certificate(f, k)
                        assert cert.verify(), f
                        s = f.restrict(mu)
                        for gen in cert.generator_fillings():
                            assert dominates(gen, s)


def test_certificate_json_round_trip():
    cert = membership_certificate(T("1,2/3"), 2)
    data = cert.to_json()
    back = Certificate.from_json(data)
    assert back.verify()
    assert back.to_json() == data


def test_certificate_summand_order_is_pinned():
    # Summands come in the first-seen order of the split fillings, which
    # follows the term order of the multiplier products; the JSON shows it.
    cert = membership_certificate(T("1,2,3,6/4,5/7"), 5)
    assert [str(s.generator) for s in cert.summands] == [
        "1,2,3/4,5", "1,2/3,5/4", "1,5,3/2/4", "1,3/2,5/4", "1,2,3/4/5", "1,2/4,3/5",
    ]
    F = tensor.graph_tabloid(tensor.MultiGraph.make(3, 2, ((2, 3), (2, 3))))
    cert = tensor.symmetrized_membership_certificate(F, 2)
    assert [str(s.generator) for s in cert.summands] == [
        "2,2,1,1", "2,1,1/2", "1,2,1/2", "1,1/2,2", "1,2,1/2", "1,1/2,2", "2,1,1/2",
    ]


def _element_certificate(F, k):
    """The certificate as the element-valued recursion builds it: every level
    forms c(T) * anchor, scales each sub-summand and merges the summands by
    (generator, right) in first-seen order, dropping zero lefts."""
    n = F.size
    alpha = _split_shape(F, k).hook_product()
    if k == n:
        only = Summand(AlgebraElement.unit(n).scale(alpha), F, Permutation.identity(0))
        return Certificate(n, k, alpha, F, (only,))
    memo = {}

    def summands(G):
        if G.rows in memo:
            return memo[G.rows]
        mu = _split_shape(G, k)
        cT = young_symmetrizer(YoungTableau.canonical(G.shape), n).c
        collected = [(G.restrict(mu), Permutation.identity(n - k), cT * _left_anchor(G, mu))]
        for sigma, m in _expand_canonical(G.shape, mu, n).element.items():
            if sigma.is_identity():
                continue
            for d, H in straighten(_twist_filling(G, sigma), k):
                factor = Fraction(-1) * m * d / _split_shape(H, k).hook_product()
                collected += [(s.generator, s.right, s.left.scale(factor)) for s in summands(H)]
        merged = {}
        for gen, right, left in collected:
            merged[gen, right] = merged[gen, right] + left if (gen, right) in merged else left
        result = tuple(Summand(left, g, r) for (g, r), left in merged.items() if left)
        memo[G.rows] = result
        return result

    return Certificate(n, k, alpha, F, summands(F))


def test_certificate_matches_element_recursion():
    # scalar weights over split fillings give the same JSON, summand order included
    count = 0
    for n in range(1, 6):
        for lam in partitions(n):
            for k in range(1, n + 1):
                for mu in partitions(k, within=lam):
                    for f in _split_fillings(lam, mu):
                        got = membership_certificate(f, k).to_json()
                        assert got == _element_certificate(f, k).to_json(), (str(f), k)
                        count += 1
    assert count > 1000


def test_lifted_certificate_matches_element_recursion():
    count = 0
    for n in (1, 2, 3):
        for lam in partitions(2 * n):
            for f in _dn_fillings(lam, n, 2):
                for k in range(1, n + 1):
                    try:
                        cert = symmetrized_membership_certificate(f, k)
                    except ValueError:
                        continue
                    lifted = _element_certificate(f.lift(), 2 * k)
                    pushed = tuple(
                        Summand(s.left, _push_filling(s.generator, 2), s.right)
                        for s in lifted.summands
                    )
                    want = DnCertificate(2 * n, 2, k, lifted.scale, f, pushed, lifted)
                    assert cert.lifted.to_json() == lifted.to_json(), (str(f), k)
                    assert cert.to_json() == want.to_json(), (str(f), k)
                    count += 1
    assert count > 1000


DISPLAY = "1,2,3,6/4,5/7"


def test_certificate_with_changed_left_fails():
    cert = membership_certificate(T(DISPLAY), 5)
    first = cert.summands[0]
    p, c = next(iter(first.left.items()))
    bumped = first.left + AlgebraElement.from_perm(p)
    bad = dataclasses.replace(
        cert, summands=(dataclasses.replace(first, left=bumped),) + cert.summands[1:]
    )
    assert not bad.verify()
    assert not bad.verify_symmetrizer_form()


def test_certificate_with_dropped_summand_fails():
    cert = membership_certificate(T(DISPLAY), 5)
    assert len(cert.summands) > 1
    for i in (0, len(cert.summands) - 1):
        bad = dataclasses.replace(cert, summands=cert.summands[:i] + cert.summands[i + 1 :])
        assert not bad.verify()
        assert not bad.verify_symmetrizer_form()


def test_certificate_with_split_summand_verifies():
    # summands sharing a generator and right factor add up
    cert = membership_certificate(T(DISPLAY), 5)
    first = cert.summands[0]
    half = dataclasses.replace(first, left=first.left.scale(Fraction(1, 2)))
    split = dataclasses.replace(cert, summands=(half, half) + cert.summands[1:])
    assert split.verify()
    assert split.verify_symmetrizer_form()
    assert Certificate.from_json(split.to_json()).verify()


def test_dn_certificate_with_changed_scale_fails():
    # the graph tabloid of 1-2 1-3: its target does not vanish
    f = DnFilling.parse("1,1,2,3/2,3", 2)
    assert not f.realize().is_zero()
    cert = symmetrized_membership_certificate(f, 2)
    assert cert.verify()
    assert not dataclasses.replace(cert, scale=2 * cert.scale).verify()


def test_certificate_builds_one_symmetrizer(monkeypatch):
    # c(T) is applied once per generator, not once per recursion level
    calls = []

    def counting(*args):
        calls.append(args)
        return young_symmetrizer(*args)

    monkeypatch.setattr(tensor, "young_symmetrizer", counting)
    membership_certificate(T(DISPLAY), 5)
    assert len(calls) == 1


def test_realization_word_is_inverse_reading_word():
    # reference: i goes to the canonical-tableau entry at F's cell of i
    for n in range(1, 7):
        for lam in partitions(n):
            t = YoungTableau.canonical(lam)
            for f in all_fillings(lam):
                want = Permutation(t.entry(*f.position(i)) for i in range(1, n + 1))
                assert Tabloid(f).realization_word() == want, f


def _check_twist(f, sigma):
    c = young_symmetrizer(YoungTableau.canonical(f.shape), f.size).c
    rho = Tabloid(f).realization_word()
    assert realize_tabloid(_twist_filling(f, sigma)).value == c * sigma * rho, (f, sigma)


def test_twist_filling_realizes_twisted_product():
    for n in range(1, 5):
        for lam in partitions(n):
            for f in all_fillings(lam):
                for sigma in all_permutations(n):
                    _check_twist(f, sigma)
    rng = random.Random(7)
    for n in (5, 6):
        for lam in partitions(n):
            for _ in range(3):
                vals, word = list(range(1, n + 1)), list(range(1, n + 1))
                rng.shuffle(vals)
                rng.shuffle(word)
                _check_twist(YoungTableau(lam.fill(vals)), Permutation(word))


def test_left_anchor_matches_cellwise_formula():
    # reference: i <= k goes to the canonical-tableau entry at the cell the
    # canonical mu-tableau gives i, k+j to the one at F's cell of k+j
    count = 0
    for n in range(1, 7):
        for lam in partitions(n):
            t = YoungTableau.canonical(lam)
            for f in all_fillings(lam):
                for k in range(1, n + 1):
                    try:
                        mu = _split_shape(f, k)
                    except ValueError:
                        continue
                    tmu = YoungTableau.canonical(mu)
                    want = [t.entry(*tmu.position(i)) for i in range(1, k + 1)]
                    want += [t.entry(*f.position(j)) for j in range(k + 1, n + 1)]
                    assert _left_anchor(f, mu) == Permutation(want), (f, k)
                    count += 1
    assert count == 16367


def test_project_sym_block_collapse():
    x = TensorElement.monomial([1, 2, 3, 4, 5, 6])
    got = project_sym(x, 3)
    assert got.terms == {((1, 2, 3), (4, 5, 6)): 1}
    # block-internal order is forgotten
    y = TensorElement.monomial([2, 1, 3, 6, 5, 4])
    assert project_sym(y, 3) == got
    # block order is forgotten too
    z = TensorElement.monomial([4, 5, 6, 1, 2, 3])
    assert project_sym(z, 3) == got


def test_project_sym_multiplicative():
    rng = random.Random(31)
    for _ in range(10):
        w1 = list(range(1, 5))
        w2 = list(range(1, 3))
        rng.shuffle(w1)
        rng.shuffle(w2)
        x = TensorElement.monomial(w1)
        y = TensorElement.monomial(w2)
        lhs = project_sym(x * y, 2)
        rhs = project_sym(x, 2).star(project_sym(y, 2))
        assert lhs == rhs


def test_project_sym_degree_check():
    with pytest.raises(ValueError):
        project_sym(TensorElement.monomial([1, 2, 3]), 2)


def test_dnfilling_validation():
    with pytest.raises(ValueError):
        DnFilling([[1, 1], [2]], 2)  # label 2 appears once
    f = DnFilling([[1, 1, 2], [2]], 2)
    assert f.n == 2 and f.degree == 4
    assert f.shape == P("3,1")


def test_dnfilling_lift_and_push():
    f = DnFilling([[1, 1, 2], [2]], 2)
    lifted = f.lift()
    assert lifted == T("1,2,3/4")
    from ysym.tensor import _push_filling

    assert _push_filling(lifted, 2) == f


def test_dn_zero_on_column_repeat():
    # the 12-cell filling with a repeated label in the first column
    f = DnFilling.parse("1,2,3,1,3,3/2,4,4/1,2/4", 3)
    assert f.has_column_repeat()
    assert f.realize().is_zero()


def test_dn_relabel_invariance_small():
    f = DnFilling.parse("1,1,2,3/2,3", 2)
    base = f.realize()
    assert len(base.terms) == 15
    for sigma in all_permutations(3):
        assert f.relabel(sigma).realize() == base


def test_dn_relabel_invariance_exhaustive_d2_n2():
    seen = set()
    for lam in partitions(4):
        for f in _dn_fillings(lam, n=2, d=2):
            key = f.rows
            if key in seen:
                continue
            seen.add(key)
            base = f.realize()
            for sigma in all_permutations(2):
                assert f.relabel(sigma).realize() == base


def _dn_fillings(lam, n, d):
    values = []
    for i in range(1, n + 1):
        values.extend([i] * d)
    for arr in set(itertools.permutations(values)):
        yield DnFilling(lam.fill(arr), d)


def test_dn_realize_matches_projected_tabloid():
    # oracle: project the full bijective realization c(T) rho of the lift
    for d in range(1, 7):
        for n in range(1, 6 // d + 1):
            for lam in partitions(d * n):
                for f in _dn_fillings(lam, n, d):
                    want = project_sym(Tabloid(f.lift()).realize(), d)
                    assert f.realize() == want, f


def _expanded_dn_realization(f):
    # the formula realize used before acting factor by factor: b(T) rho is
    # expanded and projected, then the expanded a(T) acts on it
    triple = young_symmetrizer(YoungTableau.canonical(f.shape), f.degree)
    rho = Tabloid(f.lift()).realization_word()
    return project_sym(triple.b_part * rho, f.d).act(triple.a_part)


def test_dn_realize_matches_expanded_formula():
    rng = random.Random(606)
    cases = 0
    for d, n in ((2, 4), (3, 3), (4, 2)):
        labels = [i for i in range(1, n + 1) for _ in range(d)]
        for lam in partitions(d * n):
            if lam.factorial() * lam.conjugate().factorial() > 40320:
                continue
            for _ in range(3):
                rng.shuffle(labels)
                f = DnFilling(lam.fill(labels), d)
                assert f.realize() == _expanded_dn_realization(f), f
                cases += 1
    assert cases == 3 * (22 + 23 + 22)
    for text in ("1,2,3,1,3,3/2,4,4/1,2/4", "1,3,4,1,4,4/3,2,2/1,3/2"):
        f = DnFilling.parse(text, 3)
        assert f.realize() == _expanded_dn_realization(f)


@st.composite
def _sym_element(draw, d=None):
    """A random SymElement of at most four terms, degree at most 6."""
    if d is None:
        d = draw(st.integers(1, 3))
    degree = d * draw(st.integers(1, 6 // d))
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        w = draw(st.permutations(range(degree)))
        terms[_tuple_project_word(w, d)] = draw(st.integers(-3, 3))
    return SymElement(degree, d, terms)


@st.composite
def _sym_element_and_sets(draw):
    """A random SymElement and disjoint entry sets of its degree."""
    x = draw(_sym_element())
    degree = x.degree
    # each entry joins one of three sets or none
    owner = draw(st.lists(st.integers(0, 3), min_size=degree, max_size=degree))
    sets = [[e for e in range(1, degree + 1) if owner[e - 1] == s] for s in (1, 2, 3)]
    return x, sets, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(_sym_element_and_sets())
def test_act_group_sum_matches_expanded_action(case):
    x, sets, signed = case
    expanded = _group_product_sum(sets, x.degree, signed)
    assert _act_group_sum(x, sets, signed) == x.act(expanded)


def test_dn_realize_builds_no_symmetrizer():
    # degree 10 with d = 5 is used nowhere else, so its shape is fresh
    f = DnFilling.parse("1,1,1,1,1,2/2,2,2,2", 5)
    before = _build_symmetrizer.cache_info()
    assert not f.realize().is_zero()
    assert _build_symmetrizer.cache_info() == before


def test_project_word_matches_letterwise_sort():
    rng = random.Random(17)
    for d, degree in ((1, 6), (2, 8), (3, 9), (4, 12), (5, 255)):
        for _ in range(20):
            w = list(range(degree))
            rng.shuffle(w)
            want = tuple(
                sorted(tuple(sorted(v + 1 for v in w[i : i + d])) for i in range(0, degree, d))
            )
            assert _key_blocks(_project_word(bytes(w), d)) == want
    with pytest.raises(ValueError, match="exceeds 255"):
        _project_word(bytes(range(256)), 2)


# -- the tuple-keyed formulas that byte-word keys replaced, kept as oracles --


def _tuple_project_word(w, d):
    """The block partition of a 0-based word as sorted tuples of sorted blocks."""
    return tuple(sorted(map(tuple, map(sorted, zip(*[iter(v + 1 for v in w)] * d)))))


def _tuple_terms(pairs):
    acc = {}
    for key, c in pairs:
        acc[key] = acc.get(key, 0) + c
    return {k: c for k, c in acc.items() if c}


def _tuple_act(terms, f):
    """The tuple-keyed left action: each term of f relabels every block."""
    return _tuple_terms(
        (tuple(sorted(tuple(sorted(p[v - 1] + 1 for v in blk)) for blk in key)), cp * c)
        for p, cp in f._terms.items()
        for key, c in terms.items()
    )


def _tuple_star(terms1, terms2, shift):
    """The tuple-keyed star product: shift the second's letters, merge blocks."""
    return _tuple_terms(
        (tuple(sorted(k1 + tuple(tuple(v + shift for v in blk) for blk in k2))), c1 * c2)
        for k1, c1 in terms1.items()
        for k2, c2 in terms2.items()
    )


def test_block_key_matches_sorted_tuples_exhaustive():
    # every word with d*n <= 6: the key is a restricted-growth word, it
    # stands for the sorted-tuple projection, and equal keys mean equal
    # block partitions, both ways round
    count = 0
    for d in range(1, 7):
        for n in range(1, 6 // d + 1):
            degree = d * n
            seen = {}
            for w in itertools.permutations(range(degree)):
                key = _project_word(bytes(w), d)
                want = _tuple_project_word(w, d)
                assert len(key) == degree
                assert all(key[i] <= max(key[:i], default=-1) + 1 for i in range(degree))
                assert _key_blocks(key) == want
                assert _blocks_key(want, degree, d) == key
                assert seen.setdefault(want, key) == key
                count += 1
            assert len(seen) == math.factorial(degree) // (
                math.factorial(d) ** n * math.factorial(n)
            )
    assert count == 4 * 720 + 2 * 120 + 3 * 24 + 2 * 6 + 2 * 2 + 1
    assert _canonical_key(b"\2\2\0\1\0\1") == b"\0\0\1\2\1\2"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_project_sym_matches_tuple_projection(data):
    d = data.draw(st.integers(1, 3))
    degree = d * data.draw(st.integers(0, 6 // d))
    words = data.draw(st.lists(st.permutations(range(degree)), max_size=5))
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(words), max_size=len(words)))
    perms = (Permutation([v + 1 for v in w]) for w in words)
    x = AlgebraElement(degree, dict(zip(perms, coeffs)))
    want = _tuple_terms((_tuple_project_word(w, d), c) for w, c in x._terms.items())
    assert project_sym(x, d).terms == want


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_act_and_star_match_tuple_formulas(data):
    x = data.draw(_sym_element())
    y = data.draw(_sym_element(d=x.d))
    perms = data.draw(st.lists(st.permutations(range(1, x.degree + 1)), max_size=4))
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(perms), max_size=len(perms)))
    f = AlgebraElement(x.degree, dict(zip(map(Permutation, perms), coeffs)))
    assert x.act(f).terms == _tuple_act(x.terms, f)
    for p in f.support():
        assert x.act(p).terms == _tuple_act(x.terms, AlgebraElement.from_perm(p))
    assert x.star(y).terms == _tuple_star(x.terms, y.terms, x.degree)


def test_sym_act_checks_degree():
    x = project_sym(TensorElement.monomial([1, 2, 3, 4]), 2)
    for p in (Permutation([1, 2, 3, 4, 6, 5]), Permutation([2, 1])):
        with pytest.raises(ValueError, match="degree mismatch"):
            x.act(p)
        with pytest.raises(ValueError, match="degree mismatch"):
            x.act(AlgebraElement.from_perm(p))


def test_sym_constructor_canonicalizes_and_validates():
    assert SymElement(4, 2, {((2, 1), (4, 3)): 1}) == SymElement(4, 2, {((1, 2), (3, 4)): 1})
    assert SymElement(4, 2, {((4, 3), (2, 1)): 1}).terms == {((1, 2), (3, 4)): 1}
    # the same partition written twice adds up, and cancels
    assert SymElement(4, 2, {((1, 2), (3, 4)): 1, ((4, 3), (1, 2)): -1}).is_zero()
    assert SymElement(0, 3, {(): 5}).terms == {(): 5}
    for bad in (
        ((1, 2, 3),),
        ((1, 2),),
        ((1, 2), (3, 4), (5, 6)),
        ((1, 2), (2, 3)),
        ((1, 2), (3, 5)),
        ((0, 1), (2, 3)),
        ((1, 2, 3), (4,)),
    ):
        with pytest.raises(ValueError):
            SymElement(4, 2, {bad: 1})


def test_sym_terms_and_repr_keep_tuple_form():
    x = SymElement(4, 2, {((1, 3), (2, 4)): 2, ((1, 2), (3, 4)): Fraction(-1, 2)})
    assert x.terms == {((1, 3), (2, 4)): 2, ((1, 2), (3, 4)): Fraction(-1, 2)}
    x.terms.clear()  # terms is a copy
    assert len(x.terms) == 2
    assert repr(x) == "SymElement(deg 4, d=2, -1/2*{1,2}{3,4} + 2*{1,3}{2,4})"
    assert repr(SymElement.zero(4, 2)) == "SymElement(deg 4, d=2, 0)"
    real = DnFilling.parse("1,1,2,3/2,3", 2).realize()
    assert repr(real) == (
        "SymElement(deg 6, d=2, 16*{1,2}{3,4}{5,6} + -4*{1,2}{3,5}{4,6} + "
        "-4*{1,2}{3,6}{4,5} + 16*{1,3}{2,4}{5,6} + ... 15 terms)"
    )
    assert sorted(real.terms.items())[:3] == [
        (((1, 2), (3, 4), (5, 6)), 16),
        (((1, 2), (3, 5), (4, 6)), -4),
        (((1, 2), (3, 6), (4, 5)), -4),
    ]


def test_dn_relabel_checks_labels():
    f = DnFilling.parse("1,1,2,3/2,3", 2)
    for sigma in (Permutation([2, 1]), Permutation([1, 4, 3, 2])):
        with pytest.raises(ValueError, match="does not permute"):
            f.relabel(sigma)
    g = f.relabel(Permutation([3, 1, 2, 4]))
    assert g == DnFilling.parse("3,3,1,2/1,2", 2)
    assert (g.n, g.d, g.shape) == (3, 2, f.shape)


def test_lifted_certificate_budget():
    # |R|*|C| of shape 7,5 is 19,353,600; the lift would need gigabytes
    f = DnFilling.parse("1,1,1,2,3,4,4/2,2,3,3,4", 3)
    with pytest.raises(ValueError, match="budget of 40320"):
        symmetrized_membership_certificate(f, 2)


def test_dn_realize_display_fillings_vanish():
    # The full realization of these 12-cell lifts has 2.49M terms, too many
    # for the oracle above; a label repeated in a column forces zero instead.
    for text in ("1,2,3,1,3,3/2,4,4/1,2/4", "1,3,4,1,4,4/3,2,2/1,3/2"):
        f = DnFilling.parse(text, 3)
        assert f.has_column_repeat()
        assert f.realize() == SymElement.zero(12, 3)


def test_column_group_matches_brute_filter():
    for text in ("1/2", "3,1/2", "2,5,1/4,3", "4,1,6/2,5/3", "1,2,3"):
        f = T(text)
        n = f.size
        cols = [set(f.column(j)) for j in range(1, f.shape.part(1) + 1)]
        want = {
            (p, p.sign())
            for p in all_permutations(n)
            if all({p(x) for x in col} == col for col in cols)
        }
        assert set(column_group(f)) == want


def test_dn_d1_reduces_to_plain_tabloid():
    f1 = DnFilling.parse("1,2/3", 1)
    assert f1.lift() == T("1,2/3")
    got = f1.realize()
    want = project_sym(realize_tabloid(T("1,2/3")), 1)
    assert got == want


def test_graph_parse_and_str():
    q = MultiGraph.parse("n=4 d=3; 1-2 1-2 1-3 2-3 3-4")
    assert q.edge_count == 5
    assert q.degree_of(1) == 3 and q.degree_of(4) == 1
    assert MultiGraph.parse(str(q)) == q
    edgeless = MultiGraph.parse("n=3 d=2;")
    assert edgeless.edge_count == 0


def test_graph_degree_bound():
    with pytest.raises(ValueError):
        MultiGraph.make(2, 1, [(1, 2), (1, 2)])


def test_graph_tabloid_edgeless():
    q = MultiGraph.make(3, 2, [])
    f = graph_tabloid(q)
    assert f.shape == P("6")
    assert f.rows == ((1, 1, 2, 2, 3, 3),)


def test_graph_tabloid_display_case():
    q = MultiGraph.parse("n=4 d=3; 1-2 1-2 1-3 2-3 3-4")
    f = graph_tabloid(q)
    assert f.shape == P("7,5")
    assert f.canonical() == DnFilling.parse("1,1,1,2,3,4,4/2,2,3,3,4", 3)


def test_graph_tabloid_triangle():
    q = MultiGraph.make(3, 2, [(1, 2), (1, 3), (2, 3)])
    f = graph_tabloid(q)
    assert f.shape == P("3,3")
    for j in range(1, 4):
        assert len(f.column(j)) == 2


def test_dn_membership_certificate_small():
    # the graph tabloid of 1-2 1-3, split at one label; its target is nonzero
    f = DnFilling.parse("1,1,2,3/2,3", 2)
    assert not f.realize().is_zero()
    cert = symmetrized_membership_certificate(f, 1)
    assert len(cert.summands) == 2
    assert cert.lifted.verify()
    assert cert.verify()


def test_dn_membership_certificate_square():
    # the 2x2 shape with label 1 on top: splits at one label
    f = DnFilling.parse("1,1/2,2", 2)
    cert = symmetrized_membership_certificate(f, 1)
    assert cert.scale == P("2").hook_product()
    assert cert.lifted.verify()
    assert cert.verify()


def test_project_sym_surjective_small():
    # every pairing of {1..4} into two blocks arises from some monomial
    images = set()
    for p in all_permutations(4):
        images.add(next(iter(project_sym(TensorElement(AlgebraElement.from_perm(p)), 2).terms)))
    assert images == {
        ((1, 2), (3, 4)),
        ((1, 3), (2, 4)),
        ((1, 4), (2, 3)),
    }


def test_summand_form_closed_under_ideal_actions():
    # left multiplication and right concatenation keep the summand shape:
    # (left, generator, right) maps to (f*left, generator, right) and to
    # (left star unit, generator, right star w) with matching values
    from ysym.algebra import random_element

    cert = membership_certificate(T("1,2/3"), 2)
    s = cert.summands[0]
    value = s.left * star_algebra(
        realize_tabloid(s.generator).value, AlgebraElement.from_perm(s.right)
    )
    rng = random.Random(41)
    f = random_element(3, 3, rng)
    left2 = f * s.left
    assert f * value == left2 * star_algebra(
        realize_tabloid(s.generator).value, AlgebraElement.from_perm(s.right)
    )
    w = Permutation([2, 1])
    right2 = star(s.right, w)
    left3 = star_algebra(s.left, AlgebraElement.unit(2))
    assert star_algebra(value, AlgebraElement.from_perm(w)) == left3 * star_algebra(
        realize_tabloid(s.generator).value, AlgebraElement.from_perm(right2)
    )


def test_dn_membership_trivial_cutoff():
    f = DnFilling.parse("1,1,2,3/2,3", 2)
    assert not f.realize().is_zero()
    cert = symmetrized_membership_certificate(f, 3)
    assert cert.verify()
    assert len(cert.summands) == 1


def test_subgraph_membership_instance():
    # one extra edge beyond the base: certificate generators are graph
    # tabloids of supergraphs of the base on its own vertex set
    q = MultiGraph.make(3, 2, [(1, 2), (1, 3)])
    f = graph_tabloid(q)
    assert f.rows == ((1, 1, 2, 3), (2, 3))
    cert = symmetrized_membership_certificate(f, 2)
    assert cert.verify()
    family = graphs_containing(MultiGraph.make(2, 2, [(1, 2)]), q.edge_count)
    family_tabs = {graph_tabloid(g).canonical() for g in family}
    for s in cert.summands:
        assert s.generator.canonical() in family_tabs
