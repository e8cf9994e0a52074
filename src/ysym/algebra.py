"""Sparse exact-rational linear combinations of permutations.

An :class:`AlgebraElement` is the ambient object every identity in this
package is checked in: a finite map from permutations of {1..n} to nonzero
rational coefficients.  All arithmetic is exact; equality is exact map
equality and there is no tolerance parameter anywhere.

Coefficients are stored as ``int`` whenever the denominator is 1 and as
``fractions.Fraction`` otherwise.  Python compares and hashes the two
consistently.  The convolution kernel scales each operand to integer
coefficients and divides once at the end, so a product of integer elements
never touches a Fraction.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from typing import Collection, Iterable, Mapping, Union

from .perm import Permutation, _intern, all_permutations

Coeff = Union[int, Fraction]


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
    _terms: dict[Permutation, Coeff]

    def __init__(self, degree: int, terms: Mapping[Permutation, Coeff] | None = None):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        clean: dict[Permutation, Coeff] = {}
        if terms:
            for p, c in terms.items():
                if p.degree != degree:
                    raise ValueError(
                        f"term degree {p.degree} does not match element degree {degree}"
                    )
                c = normalize_coeff(c)
                if c:
                    clean[p] = c
        self.degree = degree
        self._terms = clean

    @classmethod
    def _make(cls, degree: int, terms: dict[Permutation, Coeff]) -> "AlgebraElement":
        """Trusted constructor: terms already pruned and degree-checked."""
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
        return AlgebraElement._make(degree, {Permutation.identity(degree): 1})

    @staticmethod
    def from_perm(p: Permutation, coeff: Coeff = 1) -> "AlgebraElement":
        coeff = normalize_coeff(coeff)
        return AlgebraElement._make(p.degree, {p: coeff} if coeff else {})

    # -- inspection --------------------------------------------------------

    def items(self):
        return self._terms.items()

    def support(self) -> frozenset[Permutation]:
        return frozenset(self._terms)

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
        for p, c in sorted(self._terms.items(), key=lambda kv: kv[0].w):
            bits.append(f"{coeff_to_str(c)}*{p.cycle_string()}")
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
        return AlgebraElement._make(self.degree, {p: -c for p, c in self._terms.items()})

    def scale(self, a: Coeff) -> "AlgebraElement":
        a = normalize_coeff(a)
        if not a:
            return AlgebraElement.zero(self.degree)
        return AlgebraElement._make(
            self.degree,
            {p: normalize_coeff(c * a) for p, c in self._terms.items()},
        )

    # -- multiplication ------------------------------------------------------

    def __mul__(self, other) -> "AlgebraElement":
        if isinstance(other, AlgebraElement):
            self._check_degree(other)
            return _mul_full(self, other)
        if isinstance(other, Permutation):
            if other.degree != self.degree:
                raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
            qw = other.w
            return AlgebraElement._make(
                self.degree,
                {_intern(tuple(map(p.w.__getitem__, qw))): c for p, c in self._terms.items()},
            )
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other) -> "AlgebraElement":
        if isinstance(other, Permutation):
            if other.degree != self.degree:
                raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
            qw = other.w
            return AlgebraElement._make(
                self.degree,
                {_intern(tuple(map(qw.__getitem__, p.w))): c for p, c in self._terms.items()},
            )
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        terms = sorted(self._terms.items(), key=lambda kv: kv[0].word)
        return {
            "degree": self.degree,
            "terms": [
                {"perm": list(p.word), "coeff": coeff_to_str(c)} for p, c in terms
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


_BYTE_IDENTITY = bytes(range(256))


def _integer_groups(f: AlgebraElement, tail: bytes) -> tuple[int, dict[int, list[bytes]]]:
    """f scaled to integers: the lcm d of its denominators, and for each
    integer coefficient d*c the words of its permutations as bytes + tail."""
    den = math.lcm(*{c.denominator for c in f._terms.values()})
    groups: dict[int, list[bytes]] = {}
    for p, c in f._terms.items():
        groups.setdefault(c.numerator * (den // c.denominator), []).append(bytes(p.w) + tail)
    return den, groups


def _mul_full(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """Convolution product, the hot loop of the whole package.

    Every one of the |f|*|g| compositions is formed, in C: a word of f
    becomes a 256-byte translation table, so p*q is ``q.translate(p)``, and
    a Counter counts the composed words of each pair of coefficient groups.
    Coefficients meet only once per distinct result word and coefficient.
    """
    n = f.degree
    if n > 256:
        raise ValueError(f"degree {n} exceeds 256, the largest the byte-word kernel holds")
    fden, tables = _integer_groups(f, _BYTE_IDENTITY[n:])
    gden, words = _integer_groups(g, b"")
    counts: dict[int, Counter] = {}
    for kf, ps in tables.items():
        for kg, qs in words.items():
            counter = counts.get(kf * kg)
            if counter is None:
                counter = counts[kf * kg] = Counter()
            counter.update(itertools.starmap(bytes.translate, itertools.product(qs, ps)))
    acc: dict[bytes, int] = {}
    acc_get = acc.get
    for k, counter in counts.items():
        for w, m in counter.items():
            acc[w] = acc_get(w, 0) + k * m
    den = fden * gden
    terms: dict[Permutation, Coeff] = {}
    for w, c in acc.items():
        if c:
            terms[_intern(tuple(w))] = c // den if c % den == 0 else Fraction(c, den)
    return AlgebraElement._make(f.degree, terms)


def conjugate(d: Permutation, f: AlgebraElement) -> AlgebraElement:
    """d * f * d^{-1}."""
    return d * f * d.inverse()


def transposition_sum(a: int, entries: Iterable[int], n: int) -> AlgebraElement:
    """Sum of the transpositions (a, b) over the given entries b."""
    bs = sorted(set(entries))
    if a in bs:
        raise ValueError(f"{a} may not appear in its own transposition sum")
    terms: dict[Permutation, Coeff] = {}
    for b in bs:
        terms[Permutation.transposition(a, b, n)] = 1
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


def _group_product_sum(
    entry_sets: Iterable[Collection[int]], n: int, signed: bool
) -> AlgebraElement:
    """Sum over the product of the symmetric groups of disjoint entry sets.

    The one builder of a Young-subgroup sum: the rows of a tableau give
    a(T), its columns b(T), a single set symmetrize_set.  With ``signed``
    the coefficient of each group element is its sign.  For a set
    x_1 < ... < x_k the sum is (1 + L_2)...(1 + L_k), signed
    (1 - L_2)...(1 - L_k), with the Jucys-Murphy element
    L_j = (x_1 x_j) + ... + (x_{j-1} x_j); the sets must be disjoint.
    """
    unit = AlgebraElement.unit(n)
    factors = []
    for x, below in _jucys_murphy_factors(entry_sets):
        jm = transposition_sum(x, below, n)
        factors.append(unit - jm if signed else unit + jm)
    return functools.reduce(_mul_full, factors, unit)


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
            p = _intern(tuple(w))
        num = rng.randint(-max_num, max_num)
        den = rng.randint(1, 3)
        c = normalize_coeff(Fraction(num, den))
        if c:
            terms[p] = c
    return AlgebraElement(n, terms)
