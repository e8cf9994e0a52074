"""Sparse exact-rational linear combinations of permutations.

An :class:`AlgebraElement` is the ambient object every identity in this
package is checked in: a finite map from permutations of {1..n} to nonzero
rational coefficients.  All arithmetic is exact; equality is exact map
equality and there is no tolerance parameter anywhere.

The keys are plain ``bytes``: the 0-based one-line word of each
permutation, the value a :class:`Permutation` holds.  A Permutation hashes
and compares like its word, so ``coeff(p)`` and equality take either.
Products compose and gather these words in C and build no Permutation;
``items()``, ``support()``, ``repr`` and the JSON form build one per term,
at the edge.

Coefficients are stored as ``int`` whenever the denominator is 1 and as
``fractions.Fraction`` otherwise.  Python compares and hashes the two
consistently.  The convolution kernel scales each operand to integer
coefficients and divides once at the end, so a product of integer elements
never touches a Fraction.  Its Python work grows with the number of
distinct coefficients and result words, not with the number of terms:
scaling, grouping, composing and counting run in C, and a Fraction is made
once per distinct coefficient of the result.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import struct
from collections import Counter
from fractions import Fraction
from typing import Collection, Iterable, Mapping, Union

from .perm import _BYTE_IDENTITY, Permutation, _from_word, _table, all_permutations

Coeff = Union[int, Fraction]

_numerator = operator.attrgetter("numerator")
_denominator = operator.attrgetter("denominator")
_first = operator.itemgetter(0)
_second = operator.itemgetter(1)


def normalize_coeff(c: Coeff) -> Coeff:
    """Collapse Fractions with denominator 1 to plain ints."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _add_into(acc: dict, pairs: Iterable[tuple]) -> dict:
    """Add each (key, coeff) pair into acc, dropping keys whose sum is zero.

    The one accumulation loop behind every sparse linear combination:
    group algebra elements, symmetrized elements and block projections.
    """
    get = acc.get
    for key, c in pairs:
        s = get(key, 0) + c
        if s:
            acc[key] = normalize_coeff(s)
        else:
            acc.pop(key, None)
    return acc


def coeff_to_str(c: Coeff) -> str:
    c = normalize_coeff(c)
    if isinstance(c, int):
        return str(c)
    return f"{c.numerator}/{c.denominator}"


def coeff_from_str(s: str) -> Coeff:
    return normalize_coeff(Fraction(s))


class AlgebraElement:
    """An element of the group algebra of S_n over the rationals."""

    __slots__ = ("degree", "_terms")

    degree: int
    _terms: dict[bytes, Coeff]

    def __init__(self, degree: int, terms: Mapping[Permutation, Coeff] | None = None):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        clean: dict[bytes, Coeff] = {}
        if terms:
            for p, c in terms.items():
                if p.degree != degree:
                    raise ValueError(
                        f"term degree {p.degree} does not match element degree {degree}"
                    )
                c = normalize_coeff(c)
                if c:
                    clean[bytes(p)] = c
        self.degree = degree
        self._terms = clean

    @classmethod
    def _make(cls, degree: int, terms: dict[bytes, Coeff]) -> "AlgebraElement":
        """Trusted constructor: terms already pruned and degree-checked, each
        key a plain bytes word, never mutated afterwards."""
        el = object.__new__(cls)
        el.degree = degree
        el._terms = terms
        return el

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(degree: int) -> "AlgebraElement":
        return AlgebraElement._make(degree, {})

    @staticmethod
    def unit(degree: int) -> "AlgebraElement":
        return AlgebraElement._make(degree, {bytes(Permutation.identity(degree)): 1})

    @staticmethod
    def from_perm(p: Permutation, coeff: Coeff = 1) -> "AlgebraElement":
        coeff = normalize_coeff(coeff)
        return AlgebraElement._make(p.degree, {bytes(p): coeff} if coeff else {})

    # -- inspection --------------------------------------------------------

    def items(self) -> list[tuple[Permutation, Coeff]]:
        return list(zip(map(_from_word, self._terms), self._terms.values()))

    def support(self) -> frozenset[Permutation]:
        return frozenset(map(_from_word, self._terms))

    def coeff(self, p: Permutation) -> Coeff:
        return self._terms.get(p, 0)

    def __len__(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.degree == other.degree
            and self._terms == other._terms
        )

    def __repr__(self) -> str:
        if not self._terms:
            return f"AlgebraElement(S_{self.degree}, 0)"
        bits = []
        for w, c in sorted(self._terms.items()):
            bits.append(f"{coeff_to_str(c)}*{_from_word(w).cycle_string()}")
            if len(bits) == 6 and len(self._terms) > 6:
                bits.append(f"... {len(self._terms)} terms")
                break
        return f"AlgebraElement(S_{self.degree}, " + " + ".join(bits) + ")"

    # -- linear structure ----------------------------------------------------

    def _check_degree(self, other: "AlgebraElement") -> None:
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_degree(other)
        acc = _add_into(dict(self._terms), other._terms.items())
        return AlgebraElement._make(self.degree, acc)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_degree(other)
        negated = ((p, -c) for p, c in other._terms.items())
        return AlgebraElement._make(self.degree, _add_into(dict(self._terms), negated))

    def __neg__(self) -> "AlgebraElement":
        negated = map(operator.neg, self._terms.values())
        return AlgebraElement._make(self.degree, dict(zip(self._terms, negated)))

    def scale(self, a: Coeff) -> "AlgebraElement":
        """a times self; scaling by 1 returns self, which is safe because no
        element is mutated after it is made."""
        if a == 1:
            return self
        if a == -1:
            return -self
        a = normalize_coeff(a)
        if not a:
            return AlgebraElement.zero(self.degree)
        # one product per distinct coefficient; the terms are mapped in C
        values = self._terms.values()
        products = {c: normalize_coeff(c * a) for c in set(values)}
        return AlgebraElement._make(
            self.degree, dict(zip(self._terms, map(products.__getitem__, values)))
        )

    # -- multiplication ------------------------------------------------------

    def __mul__(self, other) -> "AlgebraElement":
        if isinstance(other, AlgebraElement):
            self._check_degree(other)
            return _mul_full(self, other)
        if isinstance(other, Permutation):
            if other.degree != self.degree:
                raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
            return _times_perm(self, other)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other) -> "AlgebraElement":
        if isinstance(other, Permutation):
            if other.degree != self.degree:
                raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
            return _perm_times(other, self)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        terms = sorted(self._terms.items())
        return {
            "degree": self.degree,
            "terms": [
                {"perm": [v + 1 for v in w], "coeff": coeff_to_str(c)} for w, c in terms
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "AlgebraElement":
        degree = data["degree"]
        terms: dict[Permutation, Coeff] = {}
        for t in data["terms"]:
            p = Permutation(t["perm"])
            if p in terms:
                raise ValueError(f"duplicate term {t['perm']}")
            terms[p] = coeff_from_str(t["coeff"])
        return AlgebraElement(degree, terms)

    def dumps(self) -> str:
        return json.dumps(self.to_json())

    @staticmethod
    def loads(s: str) -> "AlgebraElement":
        return AlgebraElement.from_json(json.loads(s))


def _split_words(buf: bytes | bytearray, like: AlgebraElement) -> AlgebraElement:
    """The element whose words lie back to back in buf, each as long as the
    degree of ``like``, carrying the coefficients of ``like`` in key order.

    One ``struct`` call cuts every word; the Struct is built per call and
    not cached, since its size grows with the number of words.
    """
    terms = like._terms
    words = struct.Struct(f"{like.degree}s" * len(terms)).unpack(buf)
    return AlgebraElement._make(like.degree, dict(zip(words, terms.values())))


def _times_perm(x: AlgebraElement, rho: bytes) -> AlgebraElement:
    """x * rho, for a permutation or its word.  Letter i of the word of
    p * rho is letter rho(i) of p's, so with every word of x joined into one
    buffer, n strided slice copies gather all the composed words at once."""
    n = x.degree
    if not n:
        return x  # S_0 holds only the identity
    buf = bytearray().join(x._terms)
    out = bytearray(len(buf))
    for i, r in enumerate(rho):
        out[i::n] = buf[r::n]
    return _split_words(out, x)


def _perm_times(rho: bytes, x: AlgebraElement) -> AlgebraElement:
    """rho * x, for a permutation or its word: one translation of the joined
    words of x by rho."""
    return _split_words(b"".join(x._terms).translate(_table(rho)), x)


def _integer_groups(f: AlgebraElement) -> tuple[int, list[tuple[int, list[bytes]]]]:
    """f scaled to integers: the lcm d of its denominators, and each integer
    coefficient d*c with the words that carry it.  Scaling, sorting and
    grouping run in C; for an integer element no Python runs per term.

    Groups come in order of first appearance, words in term order: the
    product's term order follows, and certificate summands follow that.
    """
    terms = f._terms
    coeffs = terms.values()
    den = math.lcm(*map(_denominator, coeffs))
    if den != 1:
        scaled = map(operator.mul, map(_numerator, coeffs), itertools.repeat(den))
        coeffs = list(map(operator.floordiv, scaled, map(_denominator, coeffs)))
    distinct = list(dict.fromkeys(coeffs))
    rank = dict(zip(distinct, itertools.count()))
    pairs = sorted(zip(map(rank.__getitem__, coeffs), terms), key=_first)
    groups = itertools.groupby(pairs, _first)
    return den, [(distinct[r], list(map(_second, grp))) for r, grp in groups]


def _mul_full(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """Convolution product, the hot loop of the whole package.

    Every one of the |f|*|g| compositions is formed, in C, so this stays the
    brute-force oracle.  A one-term factor composes with the other operand
    the way a permutation does, by one gather or one translation of all its
    words, and then scales it.  Otherwise both operands are scaled to integer
    coefficients and their words grouped by coefficient.  The words of each
    group of f become 256-byte translation tables, so p*q is
    ``q.translate(p)``, and a Counter per product of coefficients counts the
    composed words of each pair of groups.  Python runs once per pair of
    groups; with more than one product of coefficients, also once per word
    of each Counter.  A single Counter is scaled in C, and the result makes
    one Fraction per distinct coefficient.
    """
    if len(f._terms) == 1:
        ((w, c),) = f._terms.items()
        return _perm_times(w, g).scale(c)
    if len(g._terms) == 1:
        ((w, c),) = g._terms.items()
        return _times_perm(f, w).scale(c)
    fden, fgroups = _integer_groups(f)
    gden, ggroups = _integer_groups(g)
    suffix = _BYTE_IDENTITY[f.degree :]
    counts: dict[int, Counter] = {}
    for kf, ps in fgroups:
        tables = list(map(bytes.__add__, ps, itertools.repeat(suffix)))
        for kg, qs in ggroups:
            counter = counts.get(kf * kg)
            if counter is None:
                counter = counts[kf * kg] = Counter()
            counter.update(itertools.starmap(bytes.translate, itertools.product(qs, tables)))
    if len(counts) == 1:
        ((k, acc),) = counts.items()
        sums = map(operator.mul, acc.values(), itertools.repeat(k))
    else:
        acc = {}
        acc_get = acc.get
        for k, counter in counts.items():
            for w, m in counter.items():
                acc[w] = acc_get(w, 0) + k * m
        sums = acc.values()
    den = fden * gden
    if den != 1:
        sums = list(sums)
        ratios = {c: c // den if c % den == 0 else Fraction(c, den) for c in set(sums)}
        sums = map(ratios.__getitem__, sums)
    return AlgebraElement._make(f.degree, dict(filter(_second, zip(acc, sums))))


def conjugate(d: Permutation, f: AlgebraElement) -> AlgebraElement:
    """d * f * d^{-1}."""
    return d * f * d.inverse()


def transposition_sum(a: int, entries: Iterable[int], n: int) -> AlgebraElement:
    """Sum of the transpositions (a, b) over the given entries b."""
    bs = sorted(set(entries))
    if a in bs:
        raise ValueError(f"{a} may not appear in its own transposition sum")
    terms: dict[bytes, Coeff] = {}
    for b in bs:
        terms[bytes(Permutation.transposition(a, b, n))] = 1
    return AlgebraElement._make(n, terms)


def _jucys_murphy_factors(
    entry_sets: Iterable[Collection[int]],
) -> list[tuple[int, list[int]]]:
    """The pairs (x_j, [x_1..x_{j-1}]) of each set x_1 < ... < x_k, j = 2..k.

    In product order: a Young-subgroup sum is the product, left to right,
    of the factors 1 + L (signed, 1 - L) with L the sum of the
    transpositions (x_j y) over the listed y.
    """
    factors = []
    for s in entry_sets:
        xs = sorted(s)
        factors.extend((xs[j], xs[:j]) for j in range(1, len(xs)))
    return factors


def _chain(x: AlgebraElement, factors: Iterable[AlgebraElement]) -> AlgebraElement:
    """x times the factors, left to right, one convolution per factor: the
    one way to multiply by a product kept as its list of small factors."""
    return functools.reduce(_mul_full, factors, x)


def _group_factors(
    entry_sets: Iterable[Collection[int]], n: int, signed: bool
) -> list[AlgebraElement]:
    """The factors 1 + L_j (signed, 1 - L_j) of a Young-subgroup sum, in order."""
    unit = AlgebraElement.unit(n)
    jms = (transposition_sum(x, below, n) for x, below in _jucys_murphy_factors(entry_sets))
    return [unit - jm if signed else unit + jm for jm in jms]


def _group_product_sum(
    entry_sets: Iterable[Collection[int]], n: int, signed: bool
) -> AlgebraElement:
    """Sum over the product of the symmetric groups of disjoint entry sets.

    The rows of a tableau give a(T), its columns b(T), a single set
    symmetrize_set.  With ``signed`` the coefficient of each group element
    is its sign.  For a set x_1 < ... < x_k the sum is (1 + L_2)...(1 + L_k),
    signed (1 - L_2)...(1 - L_k), with the Jucys-Murphy element
    L_j = (x_1 x_j) + ... + (x_{j-1} x_j); the sets must be disjoint.
    """
    return _chain(AlgebraElement.unit(n), _group_factors(entry_sets, n, signed))


def _set_sum(entries: Iterable[int], n: int, signed: bool) -> AlgebraElement:
    xs = tuple(sorted(entries))
    if any(not (1 <= x <= n) for x in xs):
        raise ValueError(f"entries {list(xs)} not contained in {{1..{n}}}")
    if len(set(xs)) != len(xs):
        raise ValueError(f"repeated entry in {list(xs)}")
    return _group_product_sum([xs], n, signed)


def symmetrize_set(entries: Iterable[int], n: int) -> AlgebraElement:
    """Sum of all permutations of the given entries, fixing the complement."""
    return _set_sum(entries, n, signed=False)


def antisymmetrize_set(entries: Iterable[int], n: int) -> AlgebraElement:
    """Signed sum over all permutations of the given entries."""
    return _set_sum(entries, n, signed=True)


def random_element(n: int, nterms: int, rng, max_num: int = 5) -> AlgebraElement:
    """Small random element, used by property tests."""
    terms: dict[Permutation, Coeff] = {}
    order = math.factorial(n)
    perms = list(all_permutations(n)) if order <= 720 else None
    for _ in range(nterms):
        if perms is not None:
            p = rng.choice(perms)
        else:
            w = list(range(n))
            rng.shuffle(w)
            p = _from_word(w)
        num = rng.randint(-max_num, max_num)
        den = rng.randint(1, 3)
        c = normalize_coeff(Fraction(num, den))
        if c:
            terms[p] = c
    return AlgebraElement(n, terms)
