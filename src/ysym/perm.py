"""Permutations of {1..n} with composition, sign, cycles and the star product.

A permutation is a ``bytes`` object whose value is its 0-based one-line
word: byte i holds sigma(i+1) - 1.  Equality, hashing, ordering, ``len``
and indexing are those of the word and run in C, and products compose
words with ``bytes.translate`` without converting them.  Nothing is
interned: equal permutations are equal objects, not one shared object.
A byte holds 256 letters, so every permutation has degree at most 256.
The public ``word`` property is the usual 1-based one-line form.

Degrees are explicit everywhere: there is no implicit embedding of S_k into
S_n.  Use :meth:`Permutation.pad` or :func:`star` to change degree.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable, Iterator, Sequence

_BYTE_IDENTITY = bytes(range(256))


def _from_word(w: Sequence[int]) -> "Permutation":
    """The permutation of a trusted 0-based word, given as bytes or ints.

    Every permutation is made here, so this is the one degree limit.
    """
    if len(w) > 256:
        raise ValueError(f"degree {len(w)} exceeds 256, the largest a byte word holds")
    return bytes.__new__(Permutation, w)


def _table(p: "Permutation") -> bytes:
    """p as a translation table: ``q.translate(_table(p))`` is the word of p * q."""
    return bytes.__add__(p, _BYTE_IDENTITY[len(p) :])


def _parity_of_word(w: Sequence[int]) -> int:
    """Sign of the permutation given by a 0-based word, via cycle traversal."""
    n = len(w)
    seen = [False] * n
    sign = 1
    for i in range(n):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = w[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


class Permutation(bytes):
    """A bijection of {1..n}; the atom all the algebra is built on."""

    __slots__ = ()

    def __new__(cls, word: Iterable[int]) -> "Permutation":
        word = list(word)
        n = len(word)
        if sorted(word) != list(range(1, n + 1)):
            raise ValueError(f"not a one-line word of {{1..{n}}}: {word}")
        return _from_word([v - 1 for v in word])

    def __reduce__(self):
        return (Permutation, (self.word,))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "Permutation":
        if n < 0:
            raise ValueError("degree must be >= 0")
        return _from_word(range(n))

    @staticmethod
    def transposition(a: int, b: int, n: int) -> "Permutation":
        if a == b:
            raise ValueError("transposition needs two distinct entries")
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError(f"entries {a},{b} out of range for degree {n}")
        w = list(range(n))
        w[a - 1], w[b - 1] = b - 1, a - 1
        return _from_word(w)

    @staticmethod
    def cycle(a: int, bs: Sequence[int], n: int) -> "Permutation":
        """The cyclic permutation (a, b_r, ..., b_1) for bs = [b_1, ..., b_r].

        Equals the product of transpositions (a,b_1)(a,b_2)...(a,b_r),
        composed left to right.  With bs empty this is the identity.
        """
        entries = [a, *bs]
        if len(set(entries)) != len(entries):
            raise ValueError(f"repeated entry in cycle {entries}")
        if any(not (1 <= e <= n) for e in entries):
            raise ValueError(f"cycle entries {entries} out of range for degree {n}")
        w = list(range(n))
        # a -> b_r -> b_{r-1} -> ... -> b_1 -> a
        ring = [a] + list(reversed(bs))
        for src, dst in zip(ring, ring[1:] + ring[:1]):
            w[src - 1] = dst - 1
        return _from_word(w)

    @staticmethod
    def from_cycles(cycles: Iterable[Sequence[int]], n: int) -> "Permutation":
        w = list(range(n))
        used: set[int] = set()
        for cyc in cycles:
            for e in cyc:
                if e in used:
                    raise ValueError(f"entry {e} appears in two cycles")
                if not (1 <= e <= n):
                    raise ValueError(f"entry {e} out of range for degree {n}")
                used.add(e)
            for src, dst in zip(cyc, list(cyc[1:]) + [cyc[0]]):
                w[src - 1] = dst - 1
        return _from_word(w)

    # -- basic protocol ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self)

    @property
    def word(self) -> tuple[int, ...]:
        """One-line form: position i holds sigma(i), 1-based."""
        return tuple(v + 1 for v in self)

    def __call__(self, i: int) -> int:
        return self[i - 1] + 1

    def __bool__(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"Permutation({list(self.word)})"

    def __str__(self) -> str:
        return self.cycle_string()

    # -- group operations --------------------------------------------------

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (p * q)(i) = p(q(i))."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if len(self) != len(other):
            raise ValueError(f"degree mismatch: {len(self)} vs {len(other)}")
        return _from_word(other.translate(_table(self)))

    # bytes would repeat or concatenate words; a permutation has no such ops
    def __rmul__(self, other):
        return NotImplemented

    def __add__(self, other):
        return NotImplemented

    def inverse(self) -> "Permutation":
        return _from_word(sorted(range(len(self)), key=self.__getitem__))

    def sign(self) -> int:
        return _parity_of_word(self)

    def is_identity(self) -> bool:
        return self == _BYTE_IDENTITY[: len(self)]

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycles, each starting at its least entry, sorted by it."""
        seen = [False] * len(self)
        out = []
        for i in range(len(self)):
            if seen[i]:
                continue
            cyc = [i + 1]
            seen[i] = True
            j = self[i]
            while j != i:
                seen[j] = True
                cyc.append(j + 1)
                j = self[j]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out

    def moved_points(self) -> frozenset[int]:
        return frozenset(i + 1 for i, v in enumerate(self) if v != i)

    def pad(self, n: int) -> "Permutation":
        """Embed into S_n fixing every new point."""
        if n < len(self):
            raise ValueError(f"cannot pad degree {len(self)} down to {n}")
        return _from_word([*self, *range(len(self), n)])

    # -- text formats ------------------------------------------------------

    def one_line(self) -> str:
        return "[" + ",".join(str(v) for v in self.word) + "]"

    def cycle_string(self) -> str:
        if not len(self):
            return "()"
        cycs = self.cycles(include_fixed=True)
        return "".join("(" + " ".join(str(e) for e in c) + ")" for c in cycs)

    @staticmethod
    def from_one_line(text: str) -> "Permutation":
        s = text.strip()
        if not (s.startswith("[") and s.endswith("]")):
            raise ValueError(f"not a one-line form: {text!r}")
        body = s[1:-1].strip()
        if not body:
            return Permutation.identity(0)
        return Permutation(int(t) for t in body.split(","))

    @staticmethod
    def from_cycle_string(text: str, n: int | None = None) -> "Permutation":
        """Parse "(1 2)(3)"; degree defaults to the largest entry present."""
        s = text.strip().replace(",", " ")
        if s == "()":
            return Permutation.identity(n or 0)
        parts = re.findall(r"\(([^()]*)\)", s)
        if not parts or re.sub(r"\([^()]*\)", "", s).strip():
            raise ValueError(f"not a cycle form: {text!r}")
        cycles = [tuple(int(t) for t in p.split()) for p in parts]
        entries = [e for c in cycles for e in c]
        if not entries:
            raise ValueError(f"not a cycle form: {text!r}")
        deg = n if n is not None else max(entries)
        return Permutation.from_cycles(cycles, deg)


def star(p: Permutation, q: Permutation) -> Permutation:
    """Degree-graded concatenation: S_n x S_m -> S_{n+m}.

    The first n points follow p; the remaining m points follow q shifted
    up by n.
    """
    return _from_word(bytes.__add__(p, _shifted(q, len(p))))


def _shifted(q: bytes, n: int) -> bytes:
    """The word of q with every letter raised by n: the right half of the
    star product of a word of length n with q."""
    if n + len(q) > 256:
        raise ValueError(f"degree {n + len(q)} exceeds 256, the largest a byte word holds")
    return q.translate(_BYTE_IDENTITY[n:] + _BYTE_IDENTITY[:n])


def all_permutations(n: int):
    """All of S_n in lexicographic one-line order."""
    return map(_from_word, itertools.permutations(range(n)))


def _permutations_of(points: Iterable[int], n: int) -> Iterator[Permutation]:
    """Every permutation of {1..n} that moves only ``points``, in
    lexicographic one-line order.

    Built on ``itertools.permutations`` alone, so the sweeps that sum over
    these stay independent oracles for the group sums of the algebra.
    """
    slots = sorted(p - 1 for p in points)
    for arr in itertools.permutations(slots):
        w = list(range(n))
        for pos, val in zip(slots, arr):
            w[pos] = val
        yield _from_word(w)
