"""Partitions, Young diagrams and tableaux, hooks, blocks, dominance.

Ground sets of tableaux are arbitrary distinct positive integers, so a
subtableau keeps the labels of its parent.  The canonical tableau of a shape
fills the diagram row by row, left to right, top to bottom, with 1..n.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, NamedTuple

from .perm import Permutation


class Partition:
    """A weakly decreasing sequence of positive integers."""

    __slots__ = ("parts", "_conj", "_alpha")

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int]):
        ps = tuple(int(p) for p in parts)
        for a, b in zip(ps, ps[1:]):
            if a < b:
                raise ValueError(f"parts not weakly decreasing: {list(ps)}")
        if ps and ps[-1] < 1:
            raise ValueError(f"parts must be positive: {list(ps)}")
        self.parts = ps
        self._conj = None
        self._alpha = None

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def part(self, i: int) -> int:
        """The i-th part, 1-based, zero beyond the last row."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)

    @staticmethod
    def parse(text: str) -> "Partition":
        s = text.strip()
        if not s:
            return Partition(())
        return Partition(int(t) for t in s.split(","))

    def conjugate(self) -> "Partition":
        if self._conj is None:
            ps = self.parts
            conj = tuple(
                sum(1 for p in ps if p >= j) for j in range(1, (ps[0] if ps else 0) + 1)
            )
            self._conj = Partition(conj)
        return self._conj

    def contains(self, other: "Partition") -> bool:
        """True iff the other diagram fits inside this one rowwise."""
        return all(other.part(i) <= self.part(i) for i in range(1, len(other) + 1))

    def fill(self, values: Iterable[int]) -> tuple[tuple[int, ...], ...]:
        """The rows of this diagram holding the values in row reading order."""
        vals = tuple(values)
        if len(vals) != self.n:
            raise ValueError(f"{len(vals)} values for a diagram of {self.n} cells")
        it = iter(vals)
        return tuple(tuple(itertools.islice(it, p)) for p in self.parts)

    def cells(self) -> Iterator[tuple[int, int]]:
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                yield (i, j)

    def hook_length(self, i: int, j: int) -> int:
        """Size of the hook at cell (i, j): arm, leg and the cell itself."""
        if not (1 <= i <= len(self.parts) and 1 <= j <= self.parts[i - 1]):
            raise ValueError(f"cell ({i},{j}) outside diagram {self}")
        arm = self.parts[i - 1] - j
        leg = self.conjugate().parts[j - 1] - i
        return arm + leg + 1

    def hook_product(self) -> int:
        """Product of all hook lengths of the diagram."""
        if self._alpha is None:
            alpha = 1
            for i, j in self.cells():
                alpha *= self.hook_length(i, j)
            self._alpha = alpha
        return self._alpha

    def removable_corners(self) -> list[tuple[int, int]]:
        """Cells whose removal leaves a partition."""
        out = []
        for i, p in enumerate(self.parts, start=1):
            if p > self.part(i + 1):
                out.append((i, p))
        return out

    def remove_corner(self, i: int, j: int) -> "Partition":
        if (i, j) not in self.removable_corners():
            raise ValueError(f"({i},{j}) is not a removable corner of {self}")
        ps = list(self.parts)
        ps[i - 1] -= 1
        if ps[i - 1] == 0:
            ps.pop(i - 1)
        return Partition(ps)

    def factorial(self) -> int:
        """Product of the factorials of the parts."""
        out = 1
        for p in self.parts:
            out *= math.factorial(p)
        return out


def partitions(n: int, within: Partition | None = None) -> Iterator[Partition]:
    """All partitions of n, lexicographically descending.

    With ``within`` given, only partitions whose diagram fits inside it.
    """
    if n < 0:
        raise ValueError("n must be >= 0")

    bound = within.parts if within is not None else None

    def rec(remaining: int, max_part: int, row: int, acc: list[int]):
        if remaining == 0:
            yield Partition(tuple(acc))
            return
        hi = min(remaining, max_part)
        if bound is not None:
            hi = min(hi, bound[row] if row < len(bound) else 0)
        for p in range(hi, 0, -1):
            acc.append(p)
            yield from rec(remaining - p, p, row + 1, acc)
            acc.pop()

    yield from rec(n, n, 0, [])


class YoungTableau:
    """A bijective filling of a Young diagram by distinct positive integers."""

    __slots__ = ("shape", "rows", "_pos")

    shape: Partition
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows: Iterable[Iterable[int]]):
        rws = tuple(tuple(int(e) for e in row) for row in rows)
        shape = Partition(len(r) for r in rws)
        pos: dict[int, tuple[int, int]] = {}
        for i, row in enumerate(rws, start=1):
            for j, e in enumerate(row, start=1):
                if e < 1:
                    raise ValueError(f"entries must be positive, got {e}")
                if e in pos:
                    raise ValueError(f"repeated entry {e}")
                pos[e] = (i, j)
        self.shape = shape
        self.rows = rws
        self._pos = pos

    @classmethod
    def _make(cls, shape: Partition, rows: tuple[tuple[int, ...], ...]) -> "YoungTableau":
        """Trusted constructor: rows already a valid filling of the shape."""
        t = object.__new__(cls)
        t.shape = shape
        t.rows = rows
        t._pos = {e: (i, j) for i, row in enumerate(rows, 1) for j, e in enumerate(row, 1)}
        return t

    @staticmethod
    def canonical(shape: Partition) -> "YoungTableau":
        """Row-major filling by 1..n."""
        return YoungTableau._make(shape, shape.fill(range(1, shape.n + 1)))

    @staticmethod
    def parse(text: str) -> "YoungTableau":
        rows = [
            [int(t) for t in row.split(",") if t.strip()]
            for row in text.strip().split("/")
        ]
        return YoungTableau(rows)

    def __str__(self) -> str:
        return "/".join(",".join(str(e) for e in row) for row in self.rows)

    def __repr__(self) -> str:
        return f"YoungTableau({self})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, YoungTableau) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    @property
    def size(self) -> int:
        return self.shape.n

    @property
    def entries(self) -> frozenset[int]:
        return frozenset(self._pos)

    def entry(self, i: int, j: int) -> int:
        if not (1 <= i <= len(self.rows) and 1 <= j <= len(self.rows[i - 1])):
            raise ValueError(f"cell ({i},{j}) outside tableau of shape {self.shape}")
        return self.rows[i - 1][j - 1]

    def position(self, e: int) -> tuple[int, int]:
        try:
            return self._pos[e]
        except KeyError:
            raise ValueError(f"entry {e} not in tableau") from None

    def column_of(self, e: int) -> int:
        return self.position(e)[1]

    def row_of(self, e: int) -> int:
        return self.position(e)[0]

    def row_set(self, i: int) -> frozenset[int]:
        return frozenset(self.rows[i - 1])

    def column_set(self, j: int) -> frozenset[int]:
        return frozenset(
            row[j - 1] for row in self.rows if len(row) >= j
        )

    def column(self, j: int) -> tuple[int, ...]:
        """Entries of column j, top to bottom."""
        return tuple(row[j - 1] for row in self.rows if len(row) >= j)

    def restrict(self, mu: Partition) -> "YoungTableau":
        """The subtableau on the cells of the given subdiagram."""
        if not self.shape.contains(mu):
            raise ValueError(f"{mu} is not contained in {self.shape}")
        return YoungTableau._make(mu, tuple(row[:p] for row, p in zip(self.rows, mu.parts)))

    def has_subtableau(self, S: "YoungTableau") -> bool:
        return self.shape.contains(S.shape) and self.restrict(S.shape) == S

    def remove_cell(self, i: int, j: int) -> "YoungTableau":
        delta = self.shape.remove_corner(i, j)
        return self.restrict(delta)

    def relabel(self, sigma: Permutation) -> "YoungTableau":
        """Apply a permutation to every entry."""
        if sigma.degree < self.max_entry():
            raise ValueError(
                f"permutation degree {sigma.degree} below largest entry {self.max_entry()}"
            )
        return YoungTableau._make(
            self.shape, tuple(tuple(sigma[e - 1] + 1 for e in row) for row in self.rows)
        )

    def max_entry(self) -> int:
        return max(self._pos, default=0)


class Block(NamedTuple):
    """A maximal run of equal-height columns: length, height, entry set."""

    length: int
    height: int
    entries: frozenset[int]


class BlockDecomposition:
    """Blocks of equal-height columns, heights strictly decreasing."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: Iterable[Block]):
        bs = tuple(blocks)
        for a, b in zip(bs, bs[1:]):
            if a.height <= b.height:
                raise ValueError("block heights must strictly decrease")
        self.blocks = bs

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __getitem__(self, i: int) -> Block:
        return self.blocks[i]

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(b.length for b in self.blocks)

    @property
    def heights(self) -> tuple[int, ...]:
        return tuple(b.height for b in self.blocks)

    def cell_count(self) -> int:
        return sum(b.length * b.height for b in self.blocks)

    def hook_numbers(self, base_row: int) -> tuple[int, ...]:
        """r_i = l_1 + ... + l_i + base_row - h_i for each block."""
        out = []
        cum = 0
        for b in self.blocks:
            cum += b.length
            out.append(cum + base_row - b.height)
        return tuple(out)


def blocks_from_column(S: YoungTableau, v: int) -> BlockDecomposition:
    """Blocks of the tableau left after deleting the first v columns of S."""
    mu1 = S.shape.part(1)
    if not (0 <= v <= mu1):
        raise ValueError(f"column cut {v} out of range 0..{mu1}")
    blocks: list[Block] = []
    j = v + 1
    while j <= mu1:
        h = len(S.column(j))
        entries: set[int] = set()
        length = 0
        while j <= mu1 and len(S.column(j)) == h:
            entries.update(S.column(j))
            length += 1
            j += 1
        blocks.append(Block(length, h, frozenset(entries)))
    return BlockDecomposition(blocks)


def dominates(s_prime: YoungTableau, s: YoungTableau) -> bool:
    """True iff every entry sits weakly further left in s_prime than in s.

    Both tableaux must be filled by exactly {1..k} for the same k.
    """
    k = s.size
    expected = frozenset(range(1, k + 1))
    if s.entries != expected or s_prime.entries != expected:
        raise ValueError("dominance needs both tableaux filled by {1..k}")
    return all(s_prime.column_of(i) <= s.column_of(i) for i in range(1, k + 1))


def in_left_set(sigma: Permutation, T: YoungTableau, S: YoungTableau) -> bool:
    """Membership in L(T;S).

    Every entry of S must either stay fixed or land in a column of T
    strictly to its left, and only the identity may fix all of S.
    """
    if not T.has_subtableau(S):
        raise ValueError("S is not a subtableau of T")
    if sigma.degree < T.max_entry():
        raise ValueError(
            f"permutation degree {sigma.degree} below largest entry {T.max_entry()}"
        )
    moved = False
    tpos = T._pos
    for s in S.entries:
        t = sigma(s)
        if t == s:
            continue
        target = tpos.get(t)
        if target is None or target[1] >= tpos[s][1]:
            return False
        moved = True
    if not moved and not sigma.is_identity():
        return False
    return True


def rightmost_corner_outside(T: YoungTableau, S: YoungTableau) -> tuple[int, int]:
    """The corner cell of T with the largest column index not inside S.

    Removing it leaves a valid diagram still containing the shape of S.
    """
    lam, mu = T.shape, S.shape
    if not T.has_subtableau(S):
        raise ValueError("S is not a subtableau of T")
    if lam == mu:
        raise ValueError("S equals T; no cell outside")
    lamc, muc = lam.conjugate(), mu.conjugate()
    v = max(j for j in range(1, lam.part(1) + 1) if lamc.part(j) != muc.part(j))
    u = lamc.part(v)
    delta = lam.remove_corner(u, v)
    assert delta.contains(mu)
    return (u, v)


def subtableau_fillings(shape: Partition, entries: Iterable[int]) -> Iterator[YoungTableau]:
    """All bijective fillings of a shape by the given entries."""
    for arr in itertools.permutations(sorted(entries)):
        yield YoungTableau(shape.fill(arr))
