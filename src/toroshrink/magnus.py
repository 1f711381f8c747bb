"""Truncated non-commutative integer power series and the Magnus expansion.

The Magnus expansion sends a free-group generator x_j to 1 + k_j and its
inverse to the geometric series 1 - k_j + k_j^2 - ..., truncated at a
fixed total degree q.  Monomials are tuples of variable indices (the
variables do not commute); coefficients are Python ints, so arbitrary
precision comes for free.  Series are stored sparsely as a dict from
monomial to nonzero coefficient.

The constant term of the expansion of any group element is 1, and the
expansion is multiplicative up to truncation.  A word lies in the k-th
lower central subgroup of the free group exactly when its expansion is
1 modulo monomials of degree >= k, which :func:`lcs_depth` exploits.

A single coefficient needs no series: :func:`word_coefficient` reads it
with a dynamic programme over the prefixes of the monomial, at a cost
independent of the number of variables.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .freegroup import Word

Monomial = tuple[int, ...]


class TruncationMismatch(ValueError):
    """Arithmetic between series of different truncation degrees."""


class TruncationTooShallow(ValueError):
    """A coefficient of degree beyond the truncation degree was requested."""


class MagnusSeries:
    """Integer power series in non-commuting variables, truncated at degree q."""

    __slots__ = ("trunc", "terms")

    def __init__(self, trunc: int, terms: Mapping[Monomial, int] | None = None):
        if trunc < 1:
            raise ValueError("truncation degree must be >= 1")
        self.trunc = trunc
        clean: dict[Monomial, int] = {}
        if terms:
            for mon, c in terms.items():
                if len(mon) > trunc or not c:
                    continue
                clean[mon] = clean.get(mon, 0) + c
                if not clean[mon]:
                    del clean[mon]
        self.terms = clean

    @classmethod
    def one(cls, trunc: int) -> "MagnusSeries":
        return cls(trunc, {(): 1})

    @classmethod
    def zero(cls, trunc: int) -> "MagnusSeries":
        return cls(trunc)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MagnusSeries)
            and self.trunc == other.trunc
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.trunc, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"MagnusSeries(q={self.trunc}, {format_series(self)!r})"

    def _check(self, other: "MagnusSeries") -> None:
        if self.trunc != other.trunc:
            raise TruncationMismatch(f"degree {self.trunc} vs {other.trunc}")

    def __add__(self, other: "MagnusSeries") -> "MagnusSeries":
        self._check(other)
        terms = dict(self.terms)
        for mon, c in other.terms.items():
            terms[mon] = terms.get(mon, 0) + c
        return MagnusSeries(self.trunc, terms)

    def __neg__(self) -> "MagnusSeries":
        return MagnusSeries(self.trunc, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "MagnusSeries") -> "MagnusSeries":
        return self + (-other)

    def __mul__(self, other: "MagnusSeries") -> "MagnusSeries":
        self._check(other)
        q = self.trunc
        terms: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            room = q - len(m1)
            for m2, c2 in other.terms.items():
                if len(m2) > room:
                    continue
                mon = m1 + m2
                terms[mon] = terms.get(mon, 0) + c1 * c2
        return MagnusSeries(q, terms)

    def coefficient(self, index: Iterable[int]) -> int:
        mon = tuple(index)
        if len(mon) > self.trunc:
            raise TruncationTooShallow(
                f"degree {len(mon)} coefficient from a series truncated at {self.trunc}"
            )
        return self.terms.get(mon, 0)

    def min_positive_degree(self) -> int | None:
        """Smallest degree >= 1 carrying a nonzero term, or None."""
        degrees = [len(m) for m in self.terms if m]
        return min(degrees) if degrees else None

    def is_one_modulo(self, degree: int) -> bool:
        """True if the series equals 1 after dropping all terms of degree >= degree."""
        if self.terms.get((), 0) != 1:
            return False
        low = self.min_positive_degree()
        return low is None or low >= degree


def _generator_series(gen: int, sign: int, q: int) -> MagnusSeries:
    if sign == 1:
        return MagnusSeries(q, {(): 1, (gen,): 1})
    return MagnusSeries(q, {(gen,) * p: (-1) ** p for p in range(q + 1)})


def expand(w: Word, q: int) -> MagnusSeries:
    """Magnus expansion of a word, truncated at total degree q."""
    out = MagnusSeries.one(q)
    for gen, sign in w.letters:
        out = out * _generator_series(gen, sign, q)
    return out


def word_coefficient(w: Word, index: Iterable[int]) -> int:
    """Coefficient of k_{j1}...k_{js} in the Magnus expansion of w.

    Equal to ``expand(w, q).coefficient(index)`` for any q >= s, and to the
    augmented iterated Fox derivative, but computed without a series:
    c[t] is the coefficient of index[:t] in the expansion of the letters
    read so far.  Reading x_g multiplies by 1 + k_g, so c[t] += c[t-1]
    where index[t-1] == g; reading x_g^-1 multiplies by the alternating
    series in k_g, so c[t] gains sum_p (-1)^p c[t-p] over the run of g's
    ending at index[t-1].  Updating t downwards reads only old values.
    Cost O(|w| s^2) in the worst case, independent of the rank.
    """
    index = tuple(index)
    # per generator, the positions t (descending) with index[t-1] == g,
    # each with the length of the run of g's ending there
    slots: dict[int, list[tuple[int, int]]] = {}
    run = 0
    for t, g in enumerate(index, 1):
        run = run + 1 if t > 1 and index[t - 2] == g else 1
        slots.setdefault(g, []).insert(0, (t, run))
    c = [1] + [0] * len(index)
    for gen, sign in w.letters:
        targets = slots.get(gen)
        if targets is None:
            continue
        if sign == 1:
            for t, _ in targets:
                c[t] += c[t - 1]
        else:
            for t, run in targets:
                acc = 0
                for p in range(1, run + 1):
                    acc = acc - c[t - p] if p % 2 else acc + c[t - p]
                c[t] += acc
    return c[-1]


def series_multiply(a: MagnusSeries, b: MagnusSeries) -> MagnusSeries:
    return a * b


def coefficient(s: MagnusSeries, index: Iterable[int]) -> int:
    return s.coefficient(index)


def lcs_depth(w: Word, q: int) -> int:
    """Certified lower-central-series depth of a word, up to truncation.

    Returns the largest k <= q such that expand(w, q) is 1 modulo monomials
    of degree >= k.  The identity saturates at q; a word with a nonzero
    exponent vector returns 1.
    """
    if q < 1:
        raise ValueError("truncation degree must be >= 1")
    s = expand(w, q)
    low = s.min_positive_degree()
    return q if low is None else min(low, q)


def format_series(s: MagnusSeries) -> str:
    """Canonical rendering: degree-lexicographic order, k1*k2 monomials.

    Byte-stable across runs; used for golden tests and --dump-series.
    """
    if not s.terms:
        return "0"
    parts: list[str] = []
    for mon in sorted(s.terms, key=lambda m: (len(m), m)):
        c = s.terms[mon]
        body = "*".join(f"k{v}" for v in mon)
        if not mon:
            text = str(abs(c))
        elif abs(c) == 1:
            text = body
        else:
            text = f"{abs(c)}*{body}"
        if not parts:
            parts.append(text if c > 0 else f"-{text}")
        else:
            parts.append(f"+ {text}" if c > 0 else f"- {text}")
    return " ".join(parts)
