"""The generic tensor algebra, tabloids, straightening and certificates.

Everything is computed in one canonical realization: the degree-n component
is the group algebra of S_n, a basis word being the tensor monomial whose
i-th slot holds the letter word[i].  The degree-graded product is the star
(concatenation) product.  A tabloid built from a filling F of a diagram by
{1..n} is realized as c(T) * rho_F, where T is the canonical tableau of the
shape and rho_F the inverse of F's row reading word: it sends i to the
reading position of the cell F puts i in, which is T's entry there.

The partially symmetrized algebra identifies letters inside consecutive
blocks of size d; its elements are kept as canonical block partitions.
"""

from __future__ import annotations

import functools
import itertools
import struct
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable, Iterator, Sequence

from .algebra import (
    AlgebraElement,
    Coeff,
    _add_into,
    _group_product_sum,
    _jucys_murphy_factors,
    coeff_from_str,
    coeff_to_str,
    normalize_coeff,
)
from .perm import _BYTE_IDENTITY, Permutation, _from_word, _parity_of_word, _shifted
from .perm import star as perm_star
from .symmetrizer import _check_pair_budget, expand_product, young_symmetrizer
from .tableau import Partition, YoungTableau


def star_algebra(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of the star product to algebra elements."""
    shifted = [(_shifted(q, f.degree), cq) for q, cq in g._terms.items()]
    terms = {
        p + q: normalize_coeff(cp * cq) for p, cp in f._terms.items() for q, cq in shifted
    }
    return AlgebraElement._make(f.degree + g.degree, terms)


@dataclass(frozen=True)
class TensorElement:
    """A homogeneous element of the generic tensor algebra."""

    value: AlgebraElement

    @property
    def degree(self) -> int:
        return self.value.degree

    @staticmethod
    def monomial(word: Sequence[int]) -> "TensorElement":
        return TensorElement(AlgebraElement.from_perm(Permutation(word)))

    @staticmethod
    def unit() -> "TensorElement":
        """The empty tensor, the multiplicative unit in degree zero."""
        return TensorElement(AlgebraElement.unit(0))

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        if not isinstance(other, TensorElement):
            return NotImplemented
        return TensorElement(star_algebra(self.value, other.value))

    def __rmul__(self, other) -> "TensorElement":
        if isinstance(other, AlgebraElement):
            return TensorElement(other * self.value)
        return NotImplemented

    def __add__(self, other: "TensorElement") -> "TensorElement":
        return TensorElement(self.value + other.value)

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return TensorElement(self.value - other.value)

    def scale(self, c: Coeff) -> "TensorElement":
        return TensorElement(self.value.scale(c))

    def is_zero(self) -> bool:
        return self.value.is_zero()


# -- tabloids -----------------------------------------------------------------


class Tabloid:
    """A tabloid: the realization class of a bijective filling by {1..n}."""

    __slots__ = ("filling",)

    def __init__(self, filling: YoungTableau):
        n = filling.size
        if filling.entries != frozenset(range(1, n + 1)):
            raise ValueError("tabloid fillings must use exactly {1..n}")
        self.filling = filling

    def realization_word(self) -> Permutation:
        """rho_F: the permutation sending i to the reading position of F's cell of i."""
        return _reading_word(self.filling).inverse()

    def realize(self) -> TensorElement:
        F = self.filling
        c = young_symmetrizer(YoungTableau.canonical(F.shape), F.size).c
        return TensorElement(c * self.realization_word())


def realize_tabloid(filling: YoungTableau) -> TensorElement:
    return Tabloid(filling).realize()


def _reading_word(F: YoungTableau) -> Permutation:
    """The entries of a filling by {1..n}, read row by row, as a permutation."""
    return Permutation(e for row in F.rows for e in row)


def _columns_to_rows(columns: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    height = max((len(c) for c in columns), default=0)
    rows = []
    for i in range(height):
        rows.append(tuple(c[i] for c in columns if len(c) > i))
    return tuple(rows)


def column_group(F: YoungTableau) -> Iterable[tuple[Permutation, int]]:
    """The column-preserving value permutations of F with their signs."""
    cols = [F.column_set(j) for j in range(1, F.shape.part(1) + 1)]
    return _group_product_sum(cols, max(F.entries), signed=True).items()


# -- straightening ------------------------------------------------------------


def _column_sorted_with_sign(F: YoungTableau, k: int) -> tuple[int, YoungTableau]:
    """Sort each column: distinguished entries (<= k) first, all ascending.

    Returns the sign of the column permutation relating the two fillings.
    """
    sign = 1
    cols = []
    for j in range(1, F.shape.part(1) + 1):
        col = list(F.column(j))
        want = sorted([e for e in col if e <= k]) + sorted([e for e in col if e > k])
        if want != col:
            index = {v: i for i, v in enumerate(col)}
            sign *= _parity_of_word([index[v] for v in want])
        cols.append(want)
    return sign, YoungTableau(_columns_to_rows(cols))


def _split_violation(F: YoungTableau, k: int) -> int | None:
    """Leftmost column whose count of distinguished entries grows rightward."""
    ncols = F.shape.part(1)
    counts = [sum(1 for e in F.column(j) if e <= k) for j in range(1, ncols + 1)]
    for i in range(len(counts) - 1):
        if counts[i] < counts[i + 1]:
            return i + 1
    return None


def _exchange_representatives(
    X: Sequence[int], Y: Sequence[int], n: int
) -> Iterable[tuple[Permutation, int]]:
    """Order-preserving coset representatives swapping part of X with part of Y.

    Yields every nonidentity representative of the cosets of S_X x S_Y in
    S_{X u Y}: choose equal-sized subsets to trade, map order-preservingly.
    """
    xs, ys = sorted(X), sorted(Y)
    for s in range(1, min(len(xs), len(ys)) + 1):
        for xsub in itertools.combinations(xs, s):
            for ysub in itertools.combinations(ys, s):
                new_x = sorted(set(xs) - set(xsub) | set(ysub))
                new_y = sorted(set(ys) - set(ysub) | set(xsub))
                w = list(range(n))
                for src, dst in zip(xs, new_x):
                    w[src - 1] = dst - 1
                for src, dst in zip(ys, new_y):
                    w[src - 1] = dst - 1
                p = _from_word(w)
                yield p, p.sign()


# The most work-list entries one straightening may process.  The largest
# count seen is 515, for 6,4,1/8,5,3/7,2 at k = 5, the worst of 158,921
# random fillings at n = 8; a filling needing more than this is refused
# instead of letting the work list grow without bound.
_STRAIGHTEN_STEP_BUDGET = 100_000


def straighten(F: YoungTableau, k: int) -> list[tuple[Coeff, YoungTableau]]:
    """Rewrite a filling as split fillings: entries <= k forming a diagram.

    Returns pairs (coeff, H) with realize(F) = sum coeff * realize(H); every
    H is column sorted, its distinguished entries form a subdiagram, and no
    distinguished entry ever moves right of where F put it.  Raises
    ``ValueError`` after _STRAIGHTEN_STEP_BUDGET work-list entries.
    """
    n = F.size
    if F.entries != frozenset(range(1, n + 1)):
        raise ValueError("straightening needs a filling by exactly {1..n}")
    out: dict[YoungTableau, Coeff] = {}
    work: list[tuple[Coeff, YoungTableau]] = [(1, F)]
    steps = 0
    while work:
        steps += 1
        if steps > _STRAIGHTEN_STEP_BUDGET:
            raise ValueError(
                f"straightening {F} at k={k} exceeds the budget of "
                f"{_STRAIGHTEN_STEP_BUDGET} steps"
            )
        c, cur = work.pop()
        sign, cur = _column_sorted_with_sign(cur, k)
        c = normalize_coeff(c * sign)
        i = _split_violation(cur, k)
        if i is None:
            prev = out.get(cur, 0)
            out[cur] = normalize_coeff(prev + c)
            continue
        X = [e for e in cur.column(i) if e > k]
        Y = [e for e in cur.column(i + 1) if e <= k]
        for tau, sgn in _exchange_representatives(X, Y, n):
            work.append((normalize_coeff(-c * sgn), cur.relabel(tau)))
    return [(c, H) for H, c in out.items() if c]


# -- membership certificates ---------------------------------------------------


@dataclass(frozen=True)
class Summand:
    """One term of a certificate: left * (realize(generator) star right)."""

    left: AlgebraElement
    generator: YoungTableau | DnFilling
    right: Permutation

    def to_json(self) -> dict:
        return {
            "left": self.left.to_json(),
            "generator": str(self.generator),
            "right": list(self.right.word),
        }


def _split_shape(F: YoungTableau, k: int) -> Partition:
    """The shape of the cells holding 1..k, which must form a diagram: each
    such cell has its left and upper neighbours among them."""
    cells = {F.position(i) for i in range(1, k + 1)}
    for i, j in sorted(cells):
        if (j > 1 and (i, j - 1) not in cells) or (i > 1 and (i - 1, j) not in cells):
            raise ValueError(f"entries 1..{k} of {F} do not fill a diagram (cell {(i, j)})")
    rows = Counter(i for i, _ in cells)
    return Partition(rows[i] for i in range(1, len(rows) + 1))


def _twist_filling(F: YoungTableau, sigma: Permutation) -> YoungTableau:
    """The filling whose realization is c(T) * sigma * rho_F, T canonical.

    Its reading word is F's reading word times sigma^-1, so its
    realization word is sigma * rho_F.
    """
    return YoungTableau(F.shape.fill((_reading_word(F) * sigma.inverse()).word))


def _left_anchor(F: YoungTableau, mu: Partition) -> Permutation:
    """The permutation aligning the canonical split realization with F's.

    The realization word of F with its mu cells, which hold 1..|mu|,
    refilled by the canonical mu-tableau.
    """
    head = mu.fill(range(1, mu.n + 1))
    rows = (h + row[len(h) :] for h, row in itertools.zip_longest(head, F.rows, fillvalue=()))
    return _reading_word(YoungTableau(rows)).inverse()


@dataclass
class Certificate:
    """Witnesses scale * [target] = sum left * ([generator] star right)."""

    degree: int
    cutoff: int
    scale: Coeff
    target: YoungTableau
    summands: tuple[Summand, ...]

    def generator_fillings(self) -> list[YoungTableau]:
        seen = []
        for s in self.summands:
            if s.generator not in seen:
                seen.append(s.generator)
        return seen

    def verify(self) -> bool:
        lhs = realize_tabloid(self.target).value.scale(self.scale)
        rhs = AlgebraElement.zero(self.degree)
        for s in self.summands:
            gen = realize_tabloid(s.generator).value
            rhs = rhs + s.left * star_algebra(gen, AlgebraElement.from_perm(s.right))
        return lhs == rhs

    def verify_symmetrizer_form(self) -> bool:
        """The same identity with generators kept as whole symmetrizers.

        Writes each summand as left * (c(canonical) star 1) * word, so the
        target symmetrizer visibly lies in the right ideal the generator
        symmetrizers span.
        """
        lhs = realize_tabloid(self.target).value.scale(self.scale)
        rhs = AlgebraElement.zero(self.degree)
        for s in self.summands:
            gen = s.generator
            c_delta = young_symmetrizer(YoungTableau.canonical(gen.shape), gen.size).c
            rho = Tabloid(gen).realization_word()
            embedded = star_algebra(c_delta, AlgebraElement.unit(self.degree - gen.size))
            rhs = rhs + s.left * (embedded * perm_star(rho, s.right))
        return lhs == rhs

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "cutoff": self.cutoff,
            "scale": coeff_to_str(self.scale),
            "target": str(self.target),
            "summands": [s.to_json() for s in self.summands],
        }

    @staticmethod
    def from_json(data: dict) -> "Certificate":
        summands = tuple(
            Summand(
                AlgebraElement.from_json(s["left"]),
                YoungTableau.parse(s["generator"]),
                Permutation(s["right"]) if s["right"] else Permutation.identity(0),
            )
            for s in data["summands"]
        )
        return Certificate(
            data["degree"],
            data["cutoff"],
            coeff_from_str(data["scale"]),
            YoungTableau.parse(data["target"]),
            summands,
        )


_EXPAND_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=_EXPAND_CACHE_SIZE)
def _expand_canonical(lam: Partition, mu: Partition, n: int):
    T = YoungTableau.canonical(lam)
    return expand_product(T, T.restrict(mu), n)


def membership_certificate(F: YoungTableau, k: int) -> Certificate:
    """Express the tabloid of F inside the ideal of its split generators.

    Requires the entries 1..k of F to fill a subdiagram.  The certificate
    scale is the hook product of that subdiagram; the generators are
    restrictions of split fillings dominating F's, so every generator
    tabloid uses the entries 1..k only.  The recursion runs on scalar
    weights over split fillings (``_split_weights``); each generator
    collects the weighted anchors of the fillings it restricts, and c(T)
    multiplies that sum once, T the canonical tableau of F's shape.
    """
    n = F.size
    if F.entries != frozenset(range(1, n + 1)):
        raise ValueError("filling must use exactly {1..n}")
    if not (1 <= k <= n):
        raise ValueError(f"cutoff {k} out of range 1..{n}")
    alpha = _split_shape(F, k).hook_product()
    if k == n:
        only = Summand(AlgebraElement.unit(n).scale(alpha), F, Permutation.identity(0))
        return Certificate(n, k, alpha, F, (only,))
    anchors: dict[YoungTableau, dict[bytes, Coeff]] = {}
    for H, w in _split_weights(F, k, {}).items():
        delta = _split_shape(H, k)
        _add_into(anchors.setdefault(H.restrict(delta), {}), [(bytes(_left_anchor(H, delta)), w)])
    cT = young_symmetrizer(YoungTableau.canonical(F.shape), n).c
    right = Permutation.identity(n - k)
    lefts = ((gen, cT * AlgebraElement._make(n, x)) for gen, x in anchors.items())
    summands = tuple(Summand(left, gen, right) for gen, left in lefts if left)
    return Certificate(n, k, alpha, F, summands)


def _split_weights(F: YoungTableau, k: int, memo: dict) -> dict[YoungTableau, Coeff]:
    """The weights w_H of split fillings H of F's shape, in first-seen order, with

        hook(mu) [F] = sum_H w_H c(T) anchor_H ([H restricted to delta_H] star 1),

    mu and delta_H the split shapes and anchor_H = _left_anchor(H, delta_H).
    c(T) c(S) = c(T) E, S = T restricted to mu, gives hook(mu) [F] the term
    H = F plus the terms -m [sigma rho_F] over E = sum m sigma, sigma not 1;
    each of those straightens into split fillings H of F's shape, which
    recurse with their own hook(delta_H).  Requires k < F.size.
    """
    cached = memo.get(F.rows)
    if cached is not None:
        return cached
    n = F.size
    weights: dict[YoungTableau, Coeff] = {F: 1}
    for sigma, m in _expand_canonical(F.shape, _split_shape(F, k), n).element.items():
        if sigma.is_identity():
            continue
        for d, H in straighten(_twist_filling(F, sigma), k):
            factor = Fraction(-1) * m * d / _split_shape(H, k).hook_product()
            sub = _split_weights(H, k, memo)
            _add_into(weights, ((G, factor * w) for G, w in sub.items()))
    memo[F.rows] = weights
    return weights


# -- partial symmetrization -----------------------------------------------------
#
# A block partition of {1..n} into blocks of size d is keyed by one byte word
# of length n: byte v - 1 holds the label of letter v's block, the blocks
# numbered 0, 1, ... in order of their smallest letter (a restricted-growth
# word).  Projection, relabeling and the star product then work on whole
# words in C; the sorted tuples of sorted tuples of the public ``terms`` and
# ``repr`` are built only at the edge.


_KEY_CACHE_SIZE = 1 << 14


@functools.lru_cache(maxsize=_KEY_CACHE_SIZE)
def _canonical_key(labels: bytes) -> bytes:
    """The labels renumbered 0, 1, ... in order of first occurrence."""
    firsts = bytes(dict.fromkeys(labels))
    return labels.translate(bytes.maketrans(firsts, _BYTE_IDENTITY[: len(firsts)]))


def _slot_blocks(degree: int, d: int) -> bytes:
    """Byte i holds i // d, the block of slot i of a tensor monomial."""
    if degree % d:
        raise ValueError(f"degree {degree} not divisible by {d}")
    if degree > 255:
        raise ValueError(f"degree {degree} exceeds 255, the largest a byte-word projection holds")
    return bytes(i // d for i in range(degree))


def _project_word(w: bytes, d: int) -> bytes:
    """Key of the block partition of a 0-based word: letter w[i] joins block
    i // d.  Raises ``ValueError`` unless the length of w is a multiple of
    d and at most 255."""
    n = len(w)
    return _canonical_key(bytes.maketrans(w, _slot_blocks(n, d))[:n])


def _key_blocks(key: bytes) -> tuple[tuple[int, ...], ...]:
    """The sorted tuple of sorted 1-based blocks that a key stands for."""
    blocks: list[list[int]] = [[] for _ in range(max(key, default=-1) + 1)]
    for v, label in enumerate(key, 1):
        blocks[label].append(v)
    return tuple(map(tuple, blocks))


def _blocks_key(blocks: Iterable[Iterable[int]], degree: int, d: int) -> bytes:
    """The key of a block partition given as blocks of 1-based letters.

    Raises ``ValueError`` unless the blocks partition {1..degree} into
    blocks of size d.
    """
    blocks = [tuple(blk) for blk in blocks]
    labels = bytearray(degree)
    seen = set()
    for label, blk in enumerate(blocks):
        if len(blk) != d:
            raise ValueError(f"block {blk} of {blocks} does not have size {d}")
        for v in blk:
            if not (1 <= v <= degree) or v in seen:
                raise ValueError(f"{blocks} is not a partition of {{1..{degree}}}")
            seen.add(v)
            labels[v - 1] = label
    if len(seen) != degree:
        raise ValueError(f"{blocks} is not a partition of {{1..{degree}}}")
    return _canonical_key(bytes(labels))


def _split_keys(buf: bytes | bytearray, degree: int, count: int) -> Iterator[bytes]:
    """The canonical keys of the count label words lying back to back in buf."""
    return map(_canonical_key, struct.Struct(f"{degree}s" * count).unpack(buf))


def _act_group_sum(
    x: "SymElement", entry_sets: Iterable[Collection[int]], signed: bool
) -> "SymElement":
    """A Young-subgroup sum acting on x by relabeling, never expanded.

    Equals ``x.act(_group_product_sum(entry_sets, x.degree, signed))``: the
    Jucys-Murphy factors of that product act one at a time, the last
    first.  A factor 1 + L (signed, 1 - L) sends a block partition to
    itself plus (minus) its image under each transposition (x_j y) of L.
    The image swaps bytes x_j - 1 and y - 1 of the key, so with every key
    joined into one buffer two strided slice copies move all of them, and
    every intermediate stays a sparse sum of block partitions.
    """
    sign = -1 if signed else 1
    n = x.degree
    terms = x._terms
    for xj, below in reversed(_jucys_murphy_factors(entry_sets)):
        buf = b"".join(terms)
        scaled = [sign * c for c in terms.values()]
        pairs = []
        a = xj - 1
        for y in below:
            b = y - 1
            out = bytearray(buf)
            out[a::n] = buf[b::n]
            out[b::n] = buf[a::n]
            pairs.extend(zip(_split_keys(out, n, len(scaled)), scaled))
        terms = _add_into(dict(terms), pairs)
    return SymElement._make(x.degree, x.d, terms)


class SymElement:
    """An element of the partially symmetrized algebra in one degree.

    Basis monomials are partitions of {1..degree} into blocks of size d.
    The letters inside a block commute, and so do the blocks.  ``terms``
    shows each monomial as a sorted tuple of sorted tuples of letters, the
    form the constructor takes; inside, terms are keyed by block-label
    words (see ``_canonical_key``).
    """

    __slots__ = ("degree", "d", "_terms")

    def __init__(self, degree: int, d: int, terms: dict | None = None):
        if d < 1 or degree % d:
            raise ValueError(f"degree {degree} not divisible by block size {d}")
        self.degree = degree
        self.d = d
        pairs = ((_blocks_key(k, degree, d), c) for k, c in terms.items()) if terms else ()
        self._terms = _add_into({}, pairs)

    @classmethod
    def _make(cls, degree: int, d: int, terms: dict[bytes, Coeff]) -> "SymElement":
        """Trusted constructor: terms pruned, keyed by canonical label words."""
        el = object.__new__(cls)
        el.degree = degree
        el.d = d
        el._terms = terms
        return el

    @staticmethod
    def zero(degree: int, d: int) -> "SymElement":
        return SymElement(degree, d, {})

    @property
    def terms(self) -> dict[tuple[tuple[int, ...], ...], Coeff]:
        """A fresh copy of the terms, each key a sorted tuple of sorted blocks."""
        return {_key_blocks(k): c for k, c in self._terms.items()}

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SymElement)
            and self.degree == other.degree
            and self.d == other.d
            and self._terms == other._terms
        )

    def __add__(self, other: "SymElement") -> "SymElement":
        if (self.degree, self.d) != (other.degree, other.d):
            raise ValueError("degree/block mismatch")
        acc = _add_into(dict(self._terms), other._terms.items())
        return SymElement._make(self.degree, self.d, acc)

    def __sub__(self, other: "SymElement") -> "SymElement":
        return self + other.scale(-1)

    def scale(self, c: Coeff) -> "SymElement":
        c = normalize_coeff(c)
        if not c:
            return SymElement.zero(self.degree, self.d)
        return SymElement._make(
            self.degree, self.d, {k: normalize_coeff(v * c) for k, v in self._terms.items()}
        )

    def star(self, other: "SymElement") -> "SymElement":
        """Product: concatenate block partitions, shifting the other's letters.

        Every letter of the other comes after every letter of self, so
        self's key followed by the other's, its labels raised by self's
        block count, is already canonical.
        """
        if self.d != other.d:
            raise ValueError("block size mismatch")
        shifted = [
            (_shifted(k2, self.degree // self.d), c2) for k2, c2 in other._terms.items()
        ]
        terms = {
            k1 + k2: normalize_coeff(c1 * c2)
            for k1, c1 in self._terms.items()
            for k2, c2 in shifted
        }
        return SymElement._make(self.degree + other.degree, self.d, terms)

    def act(self, f) -> "SymElement":
        """Left action by relabeling letters; no signs are involved.

        p sends the block partition with labels L to the one with labels
        L(p^-1(u)) at letter u, so one translation by each key of the
        joined inverse words of f relabels that key by every term of f.
        """
        if isinstance(f, Permutation):
            f = AlgebraElement.from_perm(f)
        n = self.degree
        if f.degree != n:
            raise ValueError(f"degree mismatch: {n} vs {f.degree}")
        ident = _BYTE_IDENTITY[:n]
        inverses = b"".join(bytes.maketrans(p, ident)[:n] for p in f._terms)
        coeffs = f._terms.values()
        pad = bytes(256 - n)
        pairs = (
            (key, cp * c)
            for k, c in self._terms.items()
            for key, cp in zip(_split_keys(inverses.translate(k + pad), n, len(f)), coeffs)
        )
        return SymElement._make(n, self.d, _add_into({}, pairs))

    def __repr__(self) -> str:
        if not self._terms:
            return f"SymElement(deg {self.degree}, d={self.d}, 0)"
        bits = []
        for key, c in sorted(self.terms.items()):
            mono = "".join("{" + ",".join(map(str, blk)) + "}" for blk in key)
            bits.append(f"{coeff_to_str(c)}*{mono}")
            if len(bits) == 4 and len(self._terms) > 4:
                bits.append(f"... {len(self._terms)} terms")
                break
        return f"SymElement(deg {self.degree}, d={self.d}, " + " + ".join(bits) + ")"


def project_sym(x: TensorElement | AlgebraElement, d: int) -> SymElement:
    """Collapse each tensor monomial onto its block partition.

    Each key is ``_project_word(w, d)``, written out so that the slot
    blocks are built once per element.
    """
    value = x.value if isinstance(x, TensorElement) else x
    n = value.degree
    blocks = _slot_blocks(n, d)
    maketrans = bytes.maketrans
    pairs = ((_canonical_key(maketrans(w, blocks)[:n]), c) for w, c in value._terms.items())
    return SymElement._make(n, d, _add_into({}, pairs))


# -- d-regular fillings and their tabloids ---------------------------------------


class DnFilling:
    """A filling of a diagram by {1..n} in which every label appears d times."""

    __slots__ = ("rows", "d", "n", "shape")

    def __init__(self, rows: Iterable[Iterable[int]], d: int):
        rws = tuple(tuple(int(e) for e in row) for row in rows)
        shape = Partition(len(r) for r in rws)
        counts: dict[int, int] = {}
        for row in rws:
            for e in row:
                counts[e] = counts.get(e, 0) + 1
        if not counts:
            raise ValueError("empty filling")
        n = max(counts)
        if set(counts) != set(range(1, n + 1)) or any(c != d for c in counts.values()):
            raise ValueError(f"every label of 1..{n} must appear exactly {d} times")
        self.rows = rws
        self.d = d
        self.n = n
        self.shape = shape

    @property
    def degree(self) -> int:
        return self.shape.n

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j - 1] for row in self.rows if len(row) >= j)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(1, self.shape.part(1) + 1)]

    def has_column_repeat(self) -> bool:
        return any(len(set(c)) != len(c) for c in self.columns())

    def relabel(self, sigma: Permutation) -> "DnFilling":
        """Apply sigma to every label; sigma must map {1..n} onto itself."""
        n = self.n
        if len(sigma) < n or max(sigma[:n]) >= n:
            raise ValueError(f"{sigma!r} does not permute the labels 1..{n}")
        out = object.__new__(DnFilling)
        out.rows = tuple(tuple(sigma[e - 1] + 1 for e in row) for row in self.rows)
        out.d, out.n, out.shape = self.d, n, self.shape
        return out

    def canonical(self) -> "DnFilling":
        """Sort within columns, then sort equal-height column runs."""
        cols = [tuple(sorted(c)) for c in self.columns()]
        by_height: dict[int, list] = {}
        for c in cols:
            by_height.setdefault(len(c), []).append(c)
        ordered: list[tuple[int, ...]] = []
        for h in sorted(by_height, reverse=True):
            ordered.extend(sorted(by_height[h]))
        return DnFilling(_columns_to_rows(ordered), self.d)

    def lift(self) -> YoungTableau:
        """A bijective filling inducing this one: label i becomes d(i-1)+1..di.

        Cells of each fiber are numbered in reading order.
        """
        seen = [0] * (self.n + 1)
        word = []
        for e in itertools.chain.from_iterable(self.rows):
            seen[e] += 1
            word.append(self.d * (e - 1) + seen[e])
        return YoungTableau(self.shape.fill(word))

    def realize(self) -> SymElement:
        """The symmetrized realization; zero when a column repeats a label.

        The projection of a(T) b(T) rho, T the canonical tableau of the
        shape and rho the realization word of the lift.  Projection commutes
        with relabeling, proj(p q) = p . proj(q), so the realization starts
        from the single block partition proj(rho), and the Jucys-Murphy
        factors of b(T), then of a(T), act on it one at a time.  Neither
        a(T), b(T) nor any product with rho is formed, and no intermediate
        has more terms than there are block partitions of {1..degree}.
        rho puts the letter p, the reading position of a cell, in the slot
        of that cell's lifted entry, and the d lifted entries of label e
        are the slots of block e - 1; so proj(rho) gives letter p the label
        at reading position p, less one, and the lift is never built.
        """
        T = YoungTableau.canonical(self.shape)
        labels = bytes(e - 1 for row in self.rows for e in row)
        x = SymElement._make(self.degree, self.d, {_canonical_key(labels): 1})
        cols = [T.column(j) for j in range(1, self.shape.part(1) + 1)]
        x = _act_group_sum(x, cols, signed=True)
        return _act_group_sum(x, T.rows, signed=False)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DnFilling)
            and self.d == other.d
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.d))

    def __str__(self) -> str:
        return "/".join(",".join(str(e) for e in row) for row in self.rows)

    def __repr__(self) -> str:
        return f"DnFilling({self}, d={self.d})"

    @staticmethod
    def parse(text: str, d: int) -> "DnFilling":
        rows = [
            [int(t) for t in row.split(",") if t.strip()]
            for row in text.strip().split("/")
        ]
        return DnFilling(rows, d)


# -- graphs and their covariant tabloids -----------------------------------------


@dataclass(frozen=True)
class MultiGraph:
    """A multigraph on vertices {1..n} with a degree bound."""

    n: int
    d: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for (x, y) in self.edges:
            if not (1 <= x < y <= self.n):
                raise ValueError(f"bad edge ({x},{y}) on {self.n} vertices")
        for v in range(1, self.n + 1):
            if self.degree_of(v) > self.d:
                raise ValueError(
                    f"vertex {v} has degree {self.degree_of(v)} > bound {self.d}"
                )

    @staticmethod
    def make(n: int, d: int, edges: Iterable[Iterable[int]]) -> "MultiGraph":
        normed = tuple(sorted(tuple(sorted(e)) for e in edges))
        return MultiGraph(n, d, normed)

    def degree_of(self, v: int) -> int:
        return sum(1 for (x, y) in self.edges if v in (x, y))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def __str__(self) -> str:
        es = " ".join(f"{x}-{y}" for (x, y) in self.edges)
        return f"n={self.n} d={self.d}; {es}".rstrip("; ")

    @staticmethod
    def parse(text: str) -> "MultiGraph":
        body = text.strip()
        if ";" in body:
            head, tail = body.split(";", 1)
        else:
            head, tail = body, ""
        n = d = None
        for tok in head.split():
            if tok.startswith("n="):
                n = int(tok[2:])
            elif tok.startswith("d="):
                d = int(tok[2:])
            else:
                raise ValueError(f"unexpected token {tok!r} in graph header")
        if n is None or d is None:
            raise ValueError("graph header must set n= and d=")
        edges = []
        for tok in tail.split():
            x, y = tok.split("-")
            edges.append((int(x), int(y)))
        return MultiGraph.make(n, d, edges)


def graph_tabloid(Q: MultiGraph) -> DnFilling:
    """The two-row tabloid of a graph: one height-2 column per edge.

    The shape is (n*d - e, e); the remaining width-one columns repeat each
    vertex until it appears d times.
    """
    n, d, e = Q.n, Q.d, Q.edge_count
    if n * d - e < e:
        raise ValueError(f"too many edges ({e}) for a two-row shape at n={n}, d={d}")
    top, bottom = [], []
    for (x, y) in Q.edges:
        top.append(x)
        bottom.append(y)
    singles = []
    for v in range(1, n + 1):
        singles.extend([v] * (d - Q.degree_of(v)))
    rows = [top + sorted(singles)]
    if bottom:
        rows.append(bottom)
    return DnFilling(rows, d)


def graphs_containing(
    base: MultiGraph, max_edges: int
) -> list[MultiGraph]:
    """All multigraphs on base's vertices containing it, up to an edge count.

    Respects the degree bound of the base graph.
    """
    pairs = [(x, y) for x in range(1, base.n + 1) for y in range(x + 1, base.n + 1)]
    out = []
    seen = set()
    for extra in range(0, max_edges - base.edge_count + 1):
        for combo in itertools.combinations_with_replacement(pairs, extra):
            edges = tuple(sorted(base.edges + combo))
            if edges in seen:
                continue
            seen.add(edges)
            try:
                out.append(MultiGraph(base.n, base.d, edges))
            except ValueError:
                continue
    return out


# -- certificates in the symmetrized algebra -------------------------------------


@dataclass
class DnCertificate:
    """A membership certificate pushed through the block projection."""

    degree: int
    d: int
    cutoff: int
    scale: Coeff
    target: DnFilling
    summands: tuple[Summand, ...]
    lifted: Certificate

    def verify(self) -> bool:
        """Check the identity entirely inside the symmetrized algebra."""
        d = self.d
        lhs = self.target.realize().scale(self.scale)
        rhs = SymElement.zero(self.degree, d)
        gen_cache: dict[DnFilling, SymElement] = {}
        for s in self.summands:
            gen_real = gen_cache.get(s.generator)
            if gen_real is None:
                gen_real = s.generator.realize()
                gen_cache[s.generator] = gen_real
            right_sym = SymElement._make(len(s.right), d, {_project_word(s.right, d): 1})
            rhs = rhs + gen_real.star(right_sym).act(s.left)
        return lhs == rhs

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "d": self.d,
            "cutoff": self.cutoff,
            "scale": coeff_to_str(self.scale),
            "target": str(self.target),
            "summands": [s.to_json() for s in self.summands],
        }


def _push_filling(gen: YoungTableau, d: int) -> DnFilling:
    """Collapse a bijective filling to block labels: value v becomes ceil(v/d)."""
    return DnFilling(
        (tuple((e - 1) // d + 1 for e in row) for row in gen.rows), d
    )


def symmetrized_membership_certificate(F: DnFilling, k: int) -> DnCertificate:
    """Certificate for a d-regular tabloid: lift, certify, project.

    Requires the cells labeled 1..k to fill a subdiagram.  Generators are
    d-regular fillings on the labels 1..k.  A shape with more than
    ``symmetrizer._PAIR_BUDGET`` row-by-column group pairs is refused with
    ``ValueError`` before anything is lifted.
    """
    if not (1 <= k <= F.n):
        raise ValueError(f"cutoff {k} out of range 1..{F.n}")
    _check_pair_budget(F.shape, "lifted certificate")
    lifted = F.lift()
    base = membership_certificate(lifted, k * F.d)
    summands = tuple(
        Summand(s.left, _push_filling(s.generator, F.d), s.right)
        for s in base.summands
    )
    return DnCertificate(F.degree, F.d, k, base.scale, F, summands, base)
