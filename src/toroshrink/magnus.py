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


def expand(w: Word, q: int) -> MagnusSeries:
    """Magnus expansion of a word, truncated at total degree q.

    Each maximal run x_g^e of the word multiplies the series by
    (1 + k_g)^e = sum_p C(e, p) k_g^p (the generalized binomial, so
    e < 0 gives the signed coefficients of the inverse's powers).  The
    series is kept as one dict per degree and multiplied in place from
    the top degree down: a term of degree d only feeds degrees > d,
    which have already been read.
    """
    layers: list[dict[Monomial, int]] = [{(): 1}] + [{} for _ in range(q)]
    letters = w.letters
    i = 0
    while i < len(letters):
        gen = letters[i][0]
        e = 0
        while i < len(letters) and letters[i][0] == gen:
            e += letters[i][1]
            i += 1
        # binom[p - 1] = C(e, p) for p = 1..q, cut where it vanishes (e > 0)
        binom = [e]
        for p in range(2, q + 1):
            b = binom[-1] * (e - p + 1) // p
            if not b:
                break
            binom.append(b)
        for d in range(q - 1, -1, -1):
            # (coefficient, target layer) for each power of k_g that fits
            steps = list(zip(binom, layers[d + 1 :]))
            for mon, c in layers[d].items():
                tail = mon
                for b, layer in steps:
                    tail += (gen,)
                    v = layer.get(tail, 0) + b * c
                    if v:
                        layer[tail] = v
                    else:
                        del layer[tail]
    return MagnusSeries(q, {mon: c for layer in layers for mon, c in layer.items()})


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


def lcs_depth(w: Word, q: int) -> int:
    """Certified lower-central-series depth of a word, up to truncation.

    Returns the largest k <= q such that expand(w, q) is 1 modulo monomials
    of degree >= k.  The identity saturates at q; a word with a nonzero
    exponent vector returns 1.  A term of degree q cannot lower that value,
    so the expansion stops at degree q - 1.
    """
    if q < 1:
        raise ValueError("truncation degree must be >= 1")
    if q == 1:
        return 1
    low = expand(w, q - 1).min_positive_degree()
    return q if low is None else low


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
