"""Words in a finitely generated free group, and Fox differential calculus.

Generators are indexed 0, 1, ..., rank-1 and written ``x0, x1, ...``.  A
:class:`Word` is an immutable, freely reduced sequence of letters, each
letter a pair ``(generator index, sign)`` with sign +1 or -1.  The empty
word is the identity.  Words carry the rank of their ambient free group;
mixing ranks in a binary operation raises :class:`RankMismatch` rather
than silently promoting, so component-indexing bugs surface early.

:class:`GroupRingElement` is a finitely supported integer combination of
words, the carrier for Fox derivatives.  The Fox derivative with respect
to generator ``g`` satisfies

    D(uv) = D(u) + u * D(v),   D(x_j) = [j == g],   D(x_j^-1) = -x_j^-1 [j == g]

and its augmentation equals the exponent sum of ``g``.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping

Letter = tuple[int, int]


class RankMismatch(ValueError):
    """Binary operation on words of different ambient ranks."""


class GeneratorRange(ValueError):
    """Generator index outside the declared rank."""


def _reduce_letters(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    # single stack pass; adjacent (g,+1)(g,-1) pairs cancel
    stack: list[Letter] = []
    for gen, sign in letters:
        if sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {sign!r}")
        if stack and stack[-1][0] == gen and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((gen, sign))
    return tuple(stack)


class Word:
    """A freely reduced word.  Immutable and hashable."""

    __slots__ = ("rank", "letters")

    def __init__(self, rank: int, letters: Iterable[Letter] = ()):
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        reduced = _reduce_letters(letters)
        for gen, _ in reduced:
            if not 0 <= gen < rank:
                raise GeneratorRange(f"generator x{gen} outside rank {rank}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "letters", reduced)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Word is immutable")

    # -- basic protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.rank == other.rank
            and self.letters == other.letters
        )

    def __hash__(self) -> int:
        return hash((self.rank, self.letters))

    def __repr__(self) -> str:
        return f"Word({self.rank}, {format_word(self)!r})"

    def __str__(self) -> str:
        return format_word(self)

    def is_identity(self) -> bool:
        return not self.letters

    # -- group operations ----------------------------------------------

    def _check_rank(self, other: "Word") -> None:
        if self.rank != other.rank:
            raise RankMismatch(f"rank {self.rank} vs {other.rank}")

    def __mul__(self, other: "Word") -> "Word":
        self._check_rank(other)
        return Word(self.rank, self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(self.rank, [(g, -s) for g, s in reversed(self.letters)])

    def __pow__(self, n: int) -> "Word":
        base = self if n >= 0 else self.inverse()
        out = Word(self.rank)
        for _ in range(abs(n)):
            out = out * base
        return out

    def exponent_sum(self, gen: int) -> int:
        return sum(s for g, s in self.letters if g == gen)


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u v u^-1 v^-1."""
    u._check_rank(v)
    return u * v * u.inverse() * v.inverse()


# -- text syntax -------------------------------------------------------
#
# Generators x0, x1, ...; integer powers with ^; juxtaposition by
# whitespace or '*'.  The identity prints as '1'.  parse(print(w)) == w.

_TOKEN = re.compile(r"x(\d+)(?:\^(-?\d+))?$")


def format_word(w: Word) -> str:
    if w.is_identity():
        return "1"
    parts: list[str] = []
    i = 0
    letters = w.letters
    while i < len(letters):
        g, s = letters[i]
        j = i
        while j < len(letters) and letters[j] == (g, s):
            j += 1
        power = s * (j - i)
        parts.append(f"x{g}" if power == 1 else f"x{g}^{power}")
        i = j
    return " ".join(parts)


def parse_word(text: str, rank: int) -> Word:
    """Parse the textual word syntax.  '1' denotes the identity."""
    stripped = text.replace("*", " ").strip()
    if not stripped:
        raise ValueError("empty word text; use '1' for the identity")
    if stripped == "1":
        return Word(rank)
    letters: list[Letter] = []
    for token in stripped.split():
        m = _TOKEN.match(token)
        if not m:
            raise ValueError(f"bad word token {token!r}")
        gen = int(m.group(1))
        power = int(m.group(2)) if m.group(2) is not None else 1
        if gen >= rank:
            raise GeneratorRange(f"generator x{gen} outside rank {rank}")
        sign = 1 if power >= 0 else -1
        letters.extend([(gen, sign)] * abs(power))
    return Word(rank, letters)


# -- integral group ring ----------------------------------------------


class GroupRingElement:
    """Finite integer combination of words in a fixed free group."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: Mapping[Word, int] | None = None):
        self.rank = rank
        clean: dict[Word, int] = {}
        if terms:
            for w, c in terms.items():
                if w.rank != rank:
                    raise RankMismatch(f"word rank {w.rank} vs ring rank {rank}")
                if c:
                    clean[w] = clean.get(w, 0) + c
                    if not clean[w]:
                        del clean[w]
        self.terms = clean

    @classmethod
    def from_word(cls, w: Word, coeff: int = 1) -> "GroupRingElement":
        return cls(w.rank, {w: coeff})

    @classmethod
    def zero(cls, rank: int) -> "GroupRingElement":
        return cls(rank)

    @classmethod
    def one(cls, rank: int) -> "GroupRingElement":
        return cls(rank, {Word(rank): 1})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupRingElement)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.rank, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w.letters), w.letters)):
            c = self.terms[w]
            bits.append(f"{'+' if c >= 0 else '-'} {abs(c) if abs(c) != 1 else ''}{w}".strip())
        out = " ".join(bits)
        return out[2:] if out.startswith("+ ") else out

    def _check(self, other: "GroupRingElement") -> None:
        if self.rank != other.rank:
            raise RankMismatch(f"rank {self.rank} vs {other.rank}")

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, 0) + c
        return GroupRingElement(self.rank, terms)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(self.rank, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check(other)
        terms: dict[Word, int] = {}
        for u, a in self.terms.items():
            for v, b in other.terms.items():
                w = u * v
                terms[w] = terms.get(w, 0) + a * b
        return GroupRingElement(self.rank, terms)

    def scaled(self, n: int) -> "GroupRingElement":
        return GroupRingElement(self.rank, {w: n * c for w, c in self.terms.items()})

    def translated(self, u: Word) -> "GroupRingElement":
        """Left multiplication by the group element u."""
        return GroupRingElement(self.rank, {u * w: c for w, c in self.terms.items()})

    def augmentation(self) -> int:
        """Image under the ring map sending every group element to 1."""
        return sum(self.terms.values())


def fox_derivative(w: Word, gen: int) -> GroupRingElement:
    """Fox derivative of a word with respect to generator ``gen``.

    Computed letter by letter from the product rule:
    D(l_1 ... l_k) = sum_i (l_1 ... l_{i-1}) * D(l_i).
    """
    if not 0 <= gen < w.rank:
        raise GeneratorRange(f"generator x{gen} outside rank {w.rank}")
    terms: dict[Word, int] = {}
    prefix = Word(w.rank)
    for g, s in w.letters:
        if g == gen:
            if s == 1:
                piece = prefix  # D(x) = 1, translated by the prefix
                coeff = 1
            else:
                piece = prefix * Word(w.rank, [(g, -1)])  # D(x^-1) = -x^-1
                coeff = -1
            terms[piece] = terms.get(piece, 0) + coeff
        prefix = prefix * Word(w.rank, [(g, s)])
    return GroupRingElement(w.rank, terms)


def fox_derivative_of_element(e: GroupRingElement, gen: int) -> GroupRingElement:
    """Linear extension of the Fox derivative to the group ring."""
    out = GroupRingElement.zero(e.rank)
    for w, c in e.terms.items():
        out = out + fox_derivative(w, gen).scaled(c)
    return out


def iterated_fox_coefficient(w: Word, index: tuple[int, ...]) -> int:
    """aug(D_{j1}(D_{j2}(... D_{js}(w)))) for index (j1, ..., js).

    This equals the coefficient of k_{j1}...k_{js} in the Magnus expansion
    of w; the innermost derivative is taken with respect to the last entry.
    """
    e = GroupRingElement.from_word(w)
    for j in reversed(index):
        e = fox_derivative_of_element(e, j)
    return e.augmentation()
