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
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable, Sequence

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
from .perm import Permutation, _intern, _parity_of_word
from .perm import star as perm_star
from .symmetrizer import expand_product, young_symmetrizer
from .tableau import Partition, YoungTableau


def star_algebra(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of the star product to algebra elements."""
    n = f.degree
    terms: dict[Permutation, Coeff] = {}
    for p, cp in f.items():
        pw = p.w
        for q, cq in g.items():
            w = pw + tuple(n + v for v in q.w)
            terms[_intern(w)] = normalize_coeff(cp * cq)
    return AlgebraElement._make(n + g.degree, terms)


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
                p = _intern(tuple(w))
                yield p, p.sign()


def straighten(F: YoungTableau, k: int) -> list[tuple[Coeff, YoungTableau]]:
    """Rewrite a filling as split fillings: entries <= k forming a diagram.

    Returns pairs (coeff, H) with realize(F) = sum coeff * realize(H); every
    H is column sorted, its distinguished entries form a subdiagram, and no
    distinguished entry ever moves right of where F put it.
    """
    n = F.size
    if F.entries != frozenset(range(1, n + 1)):
        raise ValueError("straightening needs a filling by exactly {1..n}")
    out: dict[YoungTableau, Coeff] = {}
    work: list[tuple[Coeff, YoungTableau]] = [(1, F)]
    while work:
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

    def scaled(self, c: Coeff) -> "Summand":
        return Summand(self.left.scale(c), self.generator, self.right)

    def to_json(self) -> dict:
        return {
            "left": self.left.to_json(),
            "generator": str(self.generator),
            "right": list(self.right.word),
        }


def _split_shape(F: YoungTableau, k: int) -> Partition:
    """The shape of the cells holding 1..k, which must form a diagram."""
    cells = set(F.position(i) for i in range(1, k + 1))

    def offending() -> tuple[int, int]:
        for cell in sorted(cells):
            i, j = cell
            if (j > 1 and (i, j - 1) not in cells) or (i > 1 and (i - 1, j) not in cells):
                return cell
        return min(cells)

    rowlens: dict[int, int] = {}
    for (i, _j) in cells:
        rowlens[i] = rowlens.get(i, 0) + 1
    parts = [rowlens.get(i, 0) for i in range(1, max(rowlens, default=0) + 1)]
    try:
        mu = Partition(parts)
    except ValueError:
        raise ValueError(
            f"entries 1..{k} of {F} do not fill a diagram (cell {offending()})"
        ) from None
    expected = set()
    for i, p in enumerate(mu.parts, start=1):
        for j in range(1, p + 1):
            expected.add((i, j))
    if cells != expected:
        raise ValueError(
            f"entries 1..{k} of {F} do not fill a diagram (cell {offending()})"
        )
    return mu


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
        for (gen, right), left in _merge_summands(self.summands).items():
            piece = star_algebra(realize_tabloid(gen).value, AlgebraElement.from_perm(right))
            rhs = rhs + left * piece
        return lhs == rhs

    def verify_symmetrizer_form(self) -> bool:
        """The same identity with generators kept as whole symmetrizers.

        Writes each summand as left * (c(canonical) star 1) * word, so the
        target symmetrizer visibly lies in the right ideal the generator
        symmetrizers span.
        """
        target_tab = Tabloid(self.target)
        lhs = (
            young_symmetrizer(YoungTableau.canonical(self.target.shape), self.degree).c
            * target_tab.realization_word()
        ).scale(self.scale)
        rhs = AlgebraElement.zero(self.degree)
        for (gen, right), left in _merge_summands(self.summands).items():
            delta = gen.shape
            c_delta = young_symmetrizer(YoungTableau.canonical(delta), gen.size).c
            rho = Tabloid(gen).realization_word()
            embedded = star_algebra(c_delta, AlgebraElement.unit(self.degree - gen.size))
            word = perm_star(rho, right)
            rhs = rhs + left * (embedded * word)
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


def _merge_summands(
    summands: Iterable[Summand],
) -> dict[tuple[YoungTableau, Permutation], AlgebraElement]:
    """The summed left factor of each (generator, right) pair, in first-seen order."""
    merged: dict[tuple[YoungTableau, Permutation], AlgebraElement] = {}
    for s in summands:
        key = (s.generator, s.right)
        merged[key] = merged[key] + s.left if key in merged else s.left
    return merged


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
    tabloid uses the entries 1..k only.
    """
    n = F.size
    if F.entries != frozenset(range(1, n + 1)):
        raise ValueError("filling must use exactly {1..n}")
    if not (1 <= k <= n):
        raise ValueError(f"cutoff {k} out of range 1..{n}")
    mu = _split_shape(F, k)
    memo: dict[tuple, tuple[Summand, ...]] = {}
    summands = _certificate_summands(F, k, memo)
    return Certificate(n, k, mu.hook_product(), F, summands)


def _certificate_summands(
    F: YoungTableau, k: int, memo: dict
) -> tuple[Summand, ...]:
    """Summands expressing hook_product(mu) * [F] with mu the split shape."""
    key = F.rows
    cached = memo.get(key)
    if cached is not None:
        return cached
    n = F.size
    mu = _split_shape(F, k)
    lam = F.shape
    T = YoungTableau.canonical(lam)
    gen0 = F.restrict(mu)
    if k == n:
        result = (
            Summand(
                AlgebraElement.unit(n).scale(mu.hook_product()),
                F,
                Permutation.identity(0),
            ),
        )
        memo[key] = result
        return result
    cT = young_symmetrizer(T, n).c
    anchor = _left_anchor(F, mu)
    collected: list[Summand] = [Summand(cT * anchor, gen0, Permutation.identity(n - k))]
    expansion = _expand_canonical(lam, mu, n)
    for sigma, m in expansion.element.items():
        if sigma.is_identity():
            continue
        G = _twist_filling(F, sigma)
        for d, H in straighten(G, k):
            delta = _split_shape(H, k)
            sub = _certificate_summands(H, k, memo)
            factor = normalize_coeff(Fraction(-1) * m * d / delta.hook_product())
            for s in sub:
                collected.append(s.scaled(factor))
    result = tuple(
        Summand(left, gen, right)
        for (gen, right), left in _merge_summands(collected).items()
        if left
    )
    memo[key] = result
    return result


# -- partial symmetrization -----------------------------------------------------


# Byte translation table taking each 0-based letter v to the 1-based v + 1.
_SHIFT_UP = bytes(range(1, 256)) + b"\0"


def _project_word(w: tuple[int, ...], d: int) -> tuple[tuple[int, ...], ...]:
    """Canonical block partition of a 0-based word: sorted blocks of size d.

    The length of w must be a multiple of d, and at most 255 so that every
    shifted letter fits in a byte.
    """
    if len(w) > 255:
        raise ValueError(f"degree {len(w)} exceeds 255, the largest a byte-word projection holds")
    letters = bytes(w).translate(_SHIFT_UP)
    return tuple(sorted(map(tuple, map(sorted, zip(*[iter(letters)] * d)))))


def _act_group_sum(
    x: "SymElement", entry_sets: Iterable[Collection[int]], signed: bool
) -> "SymElement":
    """A Young-subgroup sum acting on x by relabeling, never expanded.

    Equals ``x.act(_group_product_sum(entry_sets, x.degree, signed))``: the
    Jucys-Murphy factors of that product act one at a time, the last
    first.  A factor 1 + L (signed, 1 - L) sends a block partition to
    itself plus (minus) its image under each transposition (x_j y) of L,
    which moves two letters between at most two blocks, so only those two
    are rebuilt and every intermediate stays a sparse sum of block
    partitions.
    """
    sign = -1 if signed else 1
    terms = x.terms
    # letter -> block index of each key met, shared by all the factors
    located: dict[tuple, dict[int, int]] = {}
    for xj, below in reversed(_jucys_murphy_factors(entry_sets)):
        pairs = []
        for key, c in terms.items():
            where = located.get(key)
            if where is None:
                where = located[key] = {v: i for i, blk in enumerate(key) for v in blk}
            i = where[xj]
            sc = sign * c
            for y in below:
                k = where[y]
                if k == i:
                    pairs.append((key, sc))
                    continue
                blocks = list(key)
                blocks[i] = tuple(sorted([y if v == xj else v for v in key[i]]))
                blocks[k] = tuple(sorted([xj if v == y else v for v in key[k]]))
                blocks.sort()
                pairs.append((tuple(blocks), sc))
        terms = _add_into(dict(terms), pairs)
    return SymElement._make(x.degree, x.d, terms)


class SymElement:
    """An element of the partially symmetrized algebra in one degree.

    Basis monomials are partitions of {1..degree} into blocks of size d,
    kept as a sorted tuple of sorted tuples.  The letters inside a block
    commute, and so do the blocks.
    """

    __slots__ = ("degree", "d", "terms")

    def __init__(self, degree: int, d: int, terms: dict | None = None):
        if d < 1 or degree % d:
            raise ValueError(f"degree {degree} not divisible by block size {d}")
        self.degree = degree
        self.d = d
        self.terms = _add_into({}, terms.items()) if terms else {}

    @classmethod
    def _make(cls, degree: int, d: int, terms: dict) -> "SymElement":
        el = object.__new__(cls)
        el.degree = degree
        el.d = d
        el.terms = terms
        return el

    @staticmethod
    def zero(degree: int, d: int) -> "SymElement":
        return SymElement(degree, d, {})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SymElement)
            and self.degree == other.degree
            and self.d == other.d
            and self.terms == other.terms
        )

    def __add__(self, other: "SymElement") -> "SymElement":
        if (self.degree, self.d) != (other.degree, other.d):
            raise ValueError("degree/block mismatch")
        acc = _add_into(dict(self.terms), other.terms.items())
        return SymElement._make(self.degree, self.d, acc)

    def __sub__(self, other: "SymElement") -> "SymElement":
        return self + other.scale(-1)

    def scale(self, c: Coeff) -> "SymElement":
        c = normalize_coeff(c)
        if not c:
            return SymElement.zero(self.degree, self.d)
        return SymElement._make(
            self.degree, self.d, {k: normalize_coeff(v * c) for k, v in self.terms.items()}
        )

    def star(self, other: "SymElement") -> "SymElement":
        """Product: concatenate block partitions, shifting the other's letters."""
        if self.d != other.d:
            raise ValueError("block size mismatch")
        shift = self.degree
        shifted = [
            (tuple(tuple(v + shift for v in blk) for blk in k2), c2)
            for k2, c2 in other.terms.items()
        ]
        pairs = (
            (tuple(sorted(k1 + k2)), c1 * c2)
            for k1, c1 in self.terms.items()
            for k2, c2 in shifted
        )
        return SymElement._make(self.degree + other.degree, self.d, _add_into({}, pairs))

    def act(self, f) -> "SymElement":
        """Left action by relabeling letters; no signs are involved."""
        if isinstance(f, Permutation):
            f = AlgebraElement.from_perm(f)
        pairs = (
            (tuple(sorted(tuple(sorted(p.w[v - 1] + 1 for v in blk)) for blk in key)), cp * c)
            for p, cp in f.items()
            for key, c in self.terms.items()
        )
        return SymElement._make(self.degree, self.d, _add_into({}, pairs))

    def __repr__(self) -> str:
        if not self.terms:
            return f"SymElement(deg {self.degree}, d={self.d}, 0)"
        bits = []
        for key, c in sorted(self.terms.items()):
            mono = "".join("{" + ",".join(map(str, blk)) + "}" for blk in key)
            bits.append(f"{coeff_to_str(c)}*{mono}")
            if len(bits) == 4 and len(self.terms) > 4:
                bits.append(f"... {len(self.terms)} terms")
                break
        return f"SymElement(deg {self.degree}, d={self.d}, " + " + ".join(bits) + ")"


def project_sym(x: TensorElement | AlgebraElement, d: int) -> SymElement:
    """Collapse each tensor monomial onto its block partition."""
    value = x.value if isinstance(x, TensorElement) else x
    if value.degree % d:
        raise ValueError(f"degree {value.degree} not divisible by {d}")
    pairs = ((_project_word(p.w, d), c) for p, c in value.items())
    return SymElement._make(value.degree, d, _add_into({}, pairs))


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
        return DnFilling(
            (tuple(sigma(e) for e in row) for row in self.rows), self.d
        )

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
        """
        T = YoungTableau.canonical(self.shape)
        rho = Tabloid(self.lift()).realization_word()
        x = SymElement._make(self.degree, self.d, {_project_word(rho.w, self.d): 1})
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
            right_sym = project_sym(AlgebraElement.from_perm(s.right), d)
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


# The largest |R(lambda)| * |C(lambda)| whose lifted certificate is built.
# The lift lives in degree d*n, where certifying works with c(T) and its
# products, up to that many terms each; the 12-cell display filling
# 1,1,1,2,3,4,4/2,2,3,3,4 (19,353,600 pairs) ran out of memory at 1.4 GB.
_LIFTED_CERTIFICATE_BUDGET = math.factorial(8)


def symmetrized_membership_certificate(F: DnFilling, k: int) -> DnCertificate:
    """Certificate for a d-regular tabloid: lift, certify, project.

    Requires the cells labeled 1..k to fill a subdiagram.  Generators are
    d-regular fillings on the labels 1..k.  A shape with more than
    _LIFTED_CERTIFICATE_BUDGET row-by-column group pairs is refused with
    ``ValueError`` before anything is lifted.
    """
    if not (1 <= k <= F.n):
        raise ValueError(f"cutoff {k} out of range 1..{F.n}")
    pairs = F.shape.factorial() * F.shape.conjugate().factorial()
    if pairs > _LIFTED_CERTIFICATE_BUDGET:
        raise ValueError(
            f"shape {F.shape} has |R|*|C| = {pairs} group pairs, above the lifted "
            f"certificate budget of {_LIFTED_CERTIFICATE_BUDGET}"
        )
    lifted = F.lift()
    base = membership_certificate(lifted, k * F.d)
    summands = tuple(
        Summand(s.left, _push_filling(s.generator, F.d), s.right)
        for s in base.summands
    )
    return DnCertificate(F.degree, F.d, k, base.scale, F, summands, base)
