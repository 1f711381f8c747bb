"""Defining sequences of chain links, and the restricted symbolic terms
used to describe them.

A decomposition of the 3-sphere is specified by the sequence of links
glued in at each stage; here every stage is an (n,m) chain link, so a
sequence is just i -> (n_i, m_i).  Four variants are supported: periodic,
eventually periodic, closed-form (integer polynomials in the index, with
an even/odd split), and explicit finite data with an unknown tail.

The polynomial grammar is deliberately small: integer constants, one
variable, +, -, *, ^, degree at most 64 and constant powers below about
2^4096.  Positivity of a polynomial from an index onward is decidable
exactly: `IntPoly.first_negative` first shifts the polynomial to start at
that index, and when no shifted coefficient is negative it is nonnegative
from there on; otherwise `IntPoly.sign_changes` lists every integer where
the sign flips, by bisection between the sign changes of its forward
difference.  Either way every certificate stays symbolic rather than
numeric sampling.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate, chain, count, cycle, islice, repeat
from typing import Iterable, Iterator, Sequence

from .drf import NMLinkSpec, chain_steps, parse_link_name

__all__ = [
    "IntPoly",
    "parse_poly",
    "LinkSequence",
    "Period",
    "Branch",
    "PeriodicSequence",
    "EventuallyPeriodicSequence",
    "GeneratorSequence",
    "ExplicitSequence",
    "GapSequence",
    "HorizonError",
    "SequenceError",
    "parse_sequence_config",
    "sequence_to_config",
    "partial_products",
]


class SequenceError(ValueError):
    pass


class HorizonError(LookupError):
    """The sequence is not known at the requested index."""


# -- integer polynomials -----------------------------------------------------
#
# Coefficient lists, ascending, are the working form: `parse_poly` and the
# `IntPoly` operators all go through these helpers.  Sums and products come
# back without trailing zeros, so a base whose variable terms cancel, such
# as (i - i + 2), is a constant when `parse_poly` reads its exponent.


def _trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _poly_add(a: Sequence[int], b: Sequence[int], scale: int = 1) -> list[int]:
    """a + scale * b."""
    out = list(a) + [0] * (len(b) - len(a))
    for j, c in enumerate(b):
        out[j] += scale * c
    return _trim(out)


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


@dataclass(frozen=True)
class IntPoly:
    """Polynomial with integer coefficients, ascending order."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(_trim(list(self.coeffs))))

    @classmethod
    def const(cls, c: int) -> "IntPoly":
        return cls((c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return self.degree <= 0

    def __call__(self, i: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * i + c
        return out

    def __add__(self, other: "IntPoly") -> "IntPoly":
        return IntPoly(_poly_add(self.coeffs, other.coeffs))

    def __neg__(self) -> "IntPoly":
        return self.scaled(-1)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return IntPoly(_poly_add(self.coeffs, other.coeffs, -1))

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        return IntPoly(_poly_mul(self.coeffs, other.coeffs))

    def scaled(self, c: int) -> "IntPoly":
        return IntPoly([c * x for x in self.coeffs])

    def shifted_arg(self, delta: int) -> "IntPoly":
        """p(i + delta) as a polynomial in i, by a Taylor shift in place: pass
        k divides by (i + delta) with Horner's rule, leaving coefficient k of
        the result at position k."""
        out = list(self.coeffs)
        for k in range(len(out) - 1):
            for j in range(len(out) - 2, k - 1, -1):
                out[j] += delta * out[j + 1]
        return IntPoly(out)

    def sign_changes(self, i_min: int) -> list[int]:
        """The integers i > i_min where p(i) < 0 and p(i-1) < 0 differ, in
        order; zero counts as nonnegative.

        Between two sign changes of the forward difference p(i+1) - p(i)
        (this method, one degree lower) p is monotone, so it changes sign
        there at most once and bisection finds where.  Past the last of them
        p moves toward the sign of its lead, so a step doubled until p has
        that sign closes the last run.  The cost grows with the degree and
        the bit length of the coefficients, not with their size.
        """
        if self.degree < 1:
            return []
        ends = (self.shifted_arg(1) - self).sign_changes(i_min)
        last = ends[-1] if ends else i_min
        step = 1
        while (self(last + step) < 0) != (self.coeffs[-1] < 0):
            step *= 2
        out = []
        for lo, hi in zip([i_min, *ends], [*ends, last + step]):
            below = self(hi) < 0
            if (self(lo) < 0) == below:
                continue
            while hi - lo > 1:  # p(lo) < 0 and p(hi) < 0 differ
                mid = (lo + hi) // 2
                if (self(mid) < 0) == below:
                    hi = mid
                else:
                    lo = mid
            out.append(hi)
        return out

    def first_negative(self, i_min: int) -> int | None:
        """The first integer i >= i_min where p(i) < 0, exactly, or None when
        p(i) >= 0 for every i >= i_min.

        The Taylor shift q(t) = p(i_min + t) answers most calls: its constant
        term is p(i_min), so i_min is the answer when that is negative, and
        when no coefficient of q is negative, q(t) is a sum of nonnegative
        terms for every t >= 0.  Otherwise the answer is the first of
        `sign_changes(i_min)`, where p turns negative.
        """
        shifted = self.shifted_arg(i_min).coeffs
        if shifted and shifted[0] < 0:
            return i_min
        if all(c >= 0 for c in shifted):
            return None
        changes = self.sign_changes(i_min)
        return changes[0] if changes else None

    def divide_exact(self, other: "IntPoly") -> "IntPoly | None":
        """self / other when the quotient is a polynomial with integer
        coefficients; None otherwise."""
        if other.is_zero():
            return None
        if self.is_zero():
            return IntPoly(())
        if self.degree < other.degree:
            return None
        rem = list(self.coeffs)
        den = other.coeffs
        q = [0] * (len(rem) - len(den) + 1)
        for k in range(len(q) - 1, -1, -1):
            num = rem[k + len(den) - 1]
            if num % den[-1]:
                return None
            q[k] = num // den[-1]
            for j, d in enumerate(den):
                rem[k + j] -= q[k] * d
        if any(rem):
            return None
        return IntPoly(tuple(q))

    def text(self, var: str = "i") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for e in range(self.degree, -1, -1):
            c = self.coeffs[e]
            if not c:
                continue
            if e == 0:
                body = str(abs(c))
            else:
                v = var if e == 1 else f"{var}^{e}"
                body = v if abs(c) == 1 else f"{abs(c)}*{v}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


_POLY_TOKEN = re.compile(r"\s*(\d+|[A-Za-z]|\^|\*|\+|-|\(|\))")

# The highest degree `parse_poly` expands to.  Expanding `^` and `*` costs
# time that grows with the degree, not with the length of the text, so
# "(i+1)^100000" would take hours.  The bound sits far above degree 9,
# the highest in the demos and the benchmark configs.
_MAX_DEGREE = 64
# A constant power c^e is rejected before it is formed when its lower bound
# 2^(e * (bit length of c - 1)) reaches 2^4096; one that is formed has
# fewer than 8192 bits.
_MAX_CONSTANT_BITS = 4096


def parse_poly(text: str) -> IntPoly:
    """Parse the restricted arithmetic grammar into a polynomial.

    Accepts integer constants, a single variable letter, +, -, *, ^ and
    parentheses, e.g. "2*s^2" or "(s+1)^2".
    """
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _POLY_TOKEN.match(text, pos)
        if not m:
            raise SequenceError(f"bad character in term {text!r} at {pos}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("$")
    state = {"i": 0, "var": None}

    def peek():
        return tokens[state["i"]]

    def take():
        t = tokens[state["i"]]
        state["i"] += 1
        return t

    def check_degree(degree: int) -> None:
        if degree > _MAX_DEGREE:
            raise SequenceError(f"term {text!r} has degree above {_MAX_DEGREE}")

    def atom() -> list[int]:
        t = take()
        if t == "(":
            p = expr()
            if take() != ")":
                raise SequenceError(f"unbalanced parentheses in {text!r}")
        elif t.isdigit():
            p = [int(t)]
        elif t.isalpha():
            if state["var"] is None:
                state["var"] = t
            elif state["var"] != t:
                raise SequenceError(f"two variables {state['var']!r}, {t!r} in {text!r}")
            p = [0, 1]
        else:
            raise SequenceError(f"unexpected token {t!r} in {text!r}")
        if peek() == "^":
            take()
            e = take()
            if not e.isdigit():
                raise SequenceError(f"exponent must be a constant in {text!r}")
            e = int(e)
            if len(p) > 1:
                check_degree((len(p) - 1) * e)
                p = reduce(_poly_mul, [p] * e, [1])
            else:
                c = p[0] if p else 0
                if e * (abs(c).bit_length() - 1) >= _MAX_CONSTANT_BITS:
                    raise SequenceError(
                        f"term {text!r} has a constant of more than {_MAX_CONSTANT_BITS} bits"
                    )
                p = [c**e]
        return p

    def term() -> list[int]:
        p = atom()
        while peek() == "*":
            take()
            p = _poly_mul(p, atom())
            check_degree(len(p) - 1)
        return p

    def expr() -> list[int]:
        p: list[int] = []
        sign = 1
        if peek() in "+-":
            sign = -1 if take() == "-" else 1
        while True:
            p = _poly_add(p, term(), sign)
            if peek() not in "+-":
                return p
            sign = -1 if take() == "-" else 1

    out = expr()
    if take() != "$":
        raise SequenceError(f"trailing tokens in {text!r}")
    return IntPoly(out)


# -- link sequences -----------------------------------------------------------


def partial_products(pairs: Iterable[tuple[int, int]]) -> tuple[Fraction, ...]:
    """The running products t_1, t_1 t_2, t_1 t_2 t_3, ... of the ratios
    t_i = n_i/(2m_i) of links given as (n, 2m) pairs, formed in integers:
    one `Fraction` per partial, built from the previous partial's numerator
    and denominator, so no integer grows beyond the partials themselves."""
    out = []
    num, den = 1, 1
    for n, two_m in pairs:
        partial = Fraction(num * n, den * two_m)
        num, den = partial.as_integer_ratio()
        out.append(partial)
    return tuple(out)


def _checked(first: int) -> int:
    if first < 1:
        raise SequenceError("sequence indices start at 1")
    return first


class Period:
    """The head (the links before the first period) and one period of a
    periodic or eventually periodic sequence, as (n, 2m) pairs, with the
    exact tau data the criteria read.

    `taus` are the ratios n/(2m) of the period's `pairs` and `product`
    the product of those; the orbit slope prod 2m/n of one period is its
    inverse.  `block_partials` are the running products of `taus`, and
    `partials` the running products prod_{i<=j} tau_i over the head and
    one period.
    """

    def __init__(self, head: tuple[tuple[int, int], ...], pairs: tuple[tuple[int, int], ...]):
        self.head = head
        self.pairs = pairs
        self.taus = tuple(Fraction(n, two_m) for n, two_m in pairs)
        self.block_partials = partial_products(pairs)
        self.product = self.block_partials[-1]
        self.partials = partial_products(head + pairs) if head else self.block_partials

    @property
    def slope(self) -> Fraction:
        return 1 / self.product

    def links_from(self, first: int) -> Iterator[tuple[int, int]]:
        """Links first, first + 1, ... of the head and then the period repeated."""
        skip = _checked(first) - 1
        turn = max(skip - len(self.head), 0) % len(self.pairs)
        return chain(self.head[skip:], islice(cycle(self.pairs), turn, None))

    def ascent(self, upto: int) -> int | None:
        """The least k in 1..upto with g(k) >= k, g the composed DRFs of one
        period, or None when g descends on all of them; g runs once over
        the whole range."""
        ks = range(1, upto + 1)
        return next((k for k, g in zip(ks, chain_steps(self.pairs, ks)) if g >= k), None)


class LinkSequence:
    """Interface: links_from(first), the (n, 2m) of links first, first + 1,
    ... as an endless iterator that stops only where the links stop being
    known, is the one link reader a variant implements.  link_pairs(first,
    count) takes count of them and link(i) one, both derived here.
    one_period is the `Period` of the periodic variants (None otherwise)."""

    one_period: Period | None = None

    def links_from(self, first: int) -> Iterator[tuple[int, int]]:  # pragma: no cover
        raise NotImplementedError

    def link_pairs(self, first: int, count: int) -> list[tuple[int, int]]:
        """(n, 2m) of links first, ..., first + count - 1, while they are known."""
        return list(islice(self.links_from(first), count))

    def link(self, i: int) -> NMLinkSpec:
        pairs = self.link_pairs(i, 1)
        if not pairs:
            raise HorizonError(f"link {i} beyond the declared data")
        n, two_m = pairs[0]
        return NMLinkSpec(n, two_m // 2)


def _coerce_specs(links: Sequence) -> tuple[NMLinkSpec, ...]:
    out = []
    for item in links:
        if isinstance(item, NMLinkSpec):
            out.append(item)
        elif isinstance(item, (tuple, list)) and len(item) == 2:
            out.append(NMLinkSpec(int(item[0]), int(item[1])))
        else:
            raise SequenceError(f"not an (n,m) link spec: {item!r}")
    return tuple(out)


def _pairs(specs: Iterable[NMLinkSpec]) -> tuple[tuple[int, int], ...]:
    return tuple((spec.n, 2 * spec.m) for spec in specs)


@dataclass(frozen=True)
class PeriodicSequence(LinkSequence):
    links: tuple[NMLinkSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "links", _coerce_specs(self.links))
        if not self.links:
            raise SequenceError("period must contain at least one link")

    @cached_property
    def one_period(self) -> Period:
        return Period((), _pairs(self.links))

    def links_from(self, first: int) -> Iterator[tuple[int, int]]:
        return self.one_period.links_from(first)


@dataclass(frozen=True)
class EventuallyPeriodicSequence(LinkSequence):
    prefix: tuple[NMLinkSpec, ...]
    tail: tuple[NMLinkSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "prefix", _coerce_specs(self.prefix))
        object.__setattr__(self, "tail", _coerce_specs(self.tail))
        if not self.tail:
            raise SequenceError("periodic tail must contain at least one link")

    @cached_property
    def one_period(self) -> Period:
        return Period(_pairs(self.prefix), _pairs(self.tail))

    def links_from(self, first: int) -> Iterator[tuple[int, int]]:
        return self.one_period.links_from(first)


@dataclass(frozen=True)
class Branch:
    """One closed-form case of a generator: link index(s) = step*s + offset
    is (n(s), m(s)) for every s >= first.

    The branches of a generator are "all" (i = s, s >= 1), or "even"
    (i = 2s, s >= 1) and "odd" (i = 2s+1, s >= 0).  Every symbolic check
    on a generator is a polynomial in s, read back as a link index here.
    """

    name: str
    n: IntPoly
    m: IntPoly
    first: int
    step: int
    offset: int

    def index(self, s: int) -> int:
        return self.step * s + self.offset

    def param(self, i: int) -> int:
        """The s of link index i, for an i on this branch."""
        return (i - self.offset) // self.step

    def violation(self, margin: IntPoly, i0: int = 1) -> int | None:
        """The first link index i >= i0 on this branch where margin(s) < 0,
        or None when margin(s) >= 0 at all of them."""
        start = max(self.first, -((self.offset - i0) // self.step))
        witness = margin.first_negative(start)
        return None if witness is None else self.index(witness)


@dataclass(frozen=True)
class GeneratorSequence(LinkSequence):
    """Closed-form sequence: either n(i), m(i) for all i >= 1, or separate
    forms for even index i = 2s (s >= 1) and odd index i = 2s+1 (s >= 0).

    `branches` holds these cases as `Branch`es, the one table that maps a
    case's parameter s to a link index.  Positivity n >= 1 and m >= 1 on
    every branch is checked exactly at construction time.  `links_from`
    evaluates each polynomial degree + 1 times, for its forward
    differences, and streams every later value as running sums.
    """

    n_poly: IntPoly | None = None
    m_poly: IntPoly | None = None
    even_n: IntPoly | None = None
    even_m: IntPoly | None = None
    odd_n: IntPoly | None = None
    odd_m: IntPoly | None = None

    def __post_init__(self):
        cases = (self.even_n, self.even_m, self.odd_n, self.odd_m)
        if (self.n_poly, self.m_poly) != (None, None) and cases != (None,) * 4:
            raise SequenceError("generator mixes one-case and two-case terms")
        if self.n_poly is None and None in cases:
            raise SequenceError("two-case generator needs all four terms")
        if self.n_poly is not None and self.m_poly is None:
            raise SequenceError("generator needs both n and m terms")
        for b in self.branches:
            case = "" if b.name == "all" else f"{b.name} "
            for term, poly in (("n", b.n), ("m", b.m)):
                index = b.violation(poly - IntPoly.const(1))
                if index is not None:
                    raise SequenceError(f"{case}{term} term is not >= 1 at index {index}")

    @property
    def two_case(self) -> bool:
        return self.n_poly is None

    @cached_property
    def branches(self) -> tuple[Branch, ...]:
        """("all",) or ("even", "odd"): the branch of link i is branches[i % len]."""
        if not self.two_case:
            return (Branch("all", self.n_poly, self.m_poly, 1, 1, 0),)
        return (
            Branch("even", self.even_n, self.even_m, 1, 2, 0),
            Branch("odd", self.odd_n, self.odd_m, 0, 2, 1),
        )

    def links_from(self, first: int) -> Iterator[tuple[int, int]]:
        # a stream per branch, taken in turn from the branch of link first;
        # construction already checked n, m >= 1
        turn = _checked(first) % 2  # branches[i % 2] holds link i
        streams = []
        for b in self.branches:
            s = b.param(first + (b.offset - first) % b.step)  # first s on b
            streams.append(zip(_values_from(b.n, s), _values_from(b.m, s, 2)))
        if len(streams) == 1:
            return streams[0]
        return chain.from_iterable(zip(streams[turn], streams[1 - turn]))


def _values_from(p: IntPoly, s: int, scale: int = 1) -> Iterator[int]:
    """scale * p(s), scale * p(s + 1), ... endlessly, from degree + 1
    evaluations of p: one `accumulate` per forward difference."""
    row = [scale * p(s + j) for j in range(max(p.degree, 0) + 1)]
    heads = []  # heads[j]: the j-th forward difference at s
    while row:
        heads.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    values = repeat(heads.pop())
    for head in reversed(heads):
        values = accumulate(values, initial=head)
    return values


@dataclass(frozen=True)
class ExplicitSequence(LinkSequence):
    """A finite known prefix; nothing is declared about the tail."""

    links: tuple[NMLinkSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "links", _coerce_specs(self.links))
        if not self.links:
            raise SequenceError("explicit sequence needs at least one link")

    def links_from(self, first: int) -> Iterator[tuple[int, int]]:
        return iter(_pairs(self.links[_checked(first) - 1 :]))


# -- gap sequences for mixed Bing-Whitehead decompositions --------------------


@dataclass(frozen=True)
class GapSequence(LinkSequence):
    """The mixed (2,1)/(1,1) link sequence with c_i (2,1) stages between
    consecutive (1,1) stages: gap g is c_g (2,1) links, then one (1,1).

    kind: 'periodic' (values cycle; `one_period` holds the links of one
    cycle), 'poly' (c(i) closed form), 'two_pow' (c(i) = a*2^i + p(i), p
    the zero polynomial when not given), or 'explicit' (finite prefix,
    unknown tail).  `links_from` walks the gaps exactly, so a gap verdict
    carries this sequence itself and its certificate is re-checked
    against it.

    A periodic `one_period` holds sum(values) + len(values) links, so its
    cost stays linear in sum(values) and cannot fall below that: the
    `periodic_product` certificate lists one tau per link, and that list
    is pinned.
    """

    kind: str
    values: tuple[int, ...] = ()
    poly: IntPoly | None = None
    two_pow_coeff: int = 0

    def __post_init__(self):
        if self.kind not in ("periodic", "poly", "two_pow", "explicit"):
            raise SequenceError(f"unknown gap kind {self.kind!r}")
        if self.kind in ("periodic", "explicit"):
            if not self.values:
                raise SequenceError("gap values required")
            if any(v < 0 for v in self.values):
                raise SequenceError("gap counts must be nonnegative")
        if self.kind == "poly":
            if self.poly is None:
                raise SequenceError("poly gap sequence needs its gap term poly")
            witness = self.poly.first_negative(1)
            if witness is not None:
                raise SequenceError(f"gap term is negative at index {witness}")
        if self.kind == "two_pow":
            if self.poly is None:
                object.__setattr__(self, "poly", IntPoly(()))
            if self.two_pow_coeff < 1:
                raise SequenceError("2^i coefficient must be >= 1")
            witness = self.poly.first_negative(1)
            if witness is not None:
                raise SequenceError(
                    f"2^i gap forms need a nonnegative remainder term "
                    f"(negative at index {witness})"
                )

    @classmethod
    def periodic(cls, values) -> "GapSequence":
        return cls(kind="periodic", values=tuple(int(v) for v in values))

    @classmethod
    def from_poly(cls, poly: IntPoly | str) -> "GapSequence":
        if isinstance(poly, str):
            poly = parse_poly(poly)
        return cls(kind="poly", poly=poly)

    @classmethod
    def two_pow(cls, coeff: int = 1, extra: IntPoly | None = None) -> "GapSequence":
        return cls(kind="two_pow", two_pow_coeff=coeff, poly=extra)

    @classmethod
    def explicit(cls, values) -> "GapSequence":
        return cls(kind="explicit", values=tuple(int(v) for v in values))

    def gap(self, i: int) -> int:
        if i < 1:
            raise SequenceError("gap indices start at 1")
        if self.kind == "periodic":
            return self.values[(i - 1) % len(self.values)]
        if self.kind == "poly":
            return self.poly(i)
        if self.kind == "two_pow":
            return self.two_pow_coeff * 2**i + self.poly(i)
        if i > len(self.values):
            raise HorizonError(f"gap {i} beyond the declared data")
        return self.values[i - 1]

    def term(self, i: int) -> Fraction:
        """c_i / 2^i, the decisive series term."""
        return Fraction(self.gap(i), 2**i)

    def links_from(self, first: int) -> Iterator[tuple[int, int]]:
        return chain.from_iterable(self._runs_after(_checked(first) - 1))

    def _runs_after(self, skip: int) -> Iterator[Iterable[tuple[int, int]]]:
        """The links after the first `skip` in runs, gap g as c_g (2,1) links
        and one (1,1); each gap is read once, when the walk reaches it."""
        end = 0  # gaps 1..g fill links 1..end
        for g in count(1):
            try:
                c = self.gap(g)
            except HorizonError:
                return
            end += c + 1
            if end > skip:
                yield repeat((2, 2), min(c, end - 1 - skip))
                yield ((1, 2),)

    @cached_property
    def one_period(self) -> Period | None:
        if self.kind != "periodic":
            return None
        # one cycle of gaps: sum(values) (2,1) links and len(values) (1,1)
        return Period((), tuple(self.link_pairs(1, sum(self.values) + len(self.values))))


# -- config parsing ------------------------------------------------------------


def _parse_link_entry(entry) -> NMLinkSpec:
    if isinstance(entry, str):
        spec = parse_link_name(entry)
        if spec is None:
            raise SequenceError(f"unknown link entry {entry!r}")
        return spec
    if isinstance(entry, dict) and "nm" in entry:
        pair = _reads(entry, f"link entry {entry!r}", "nm")["nm"]
        # JSON true and false are ints in Python, but not link sizes
        if isinstance(pair, (list, tuple)) and len(pair) == 2 and all(type(v) is int for v in pair):
            return NMLinkSpec(*pair)
        raise SequenceError(f"'nm' must be a pair of integers in link entry {entry!r}")
    raise SequenceError(f"bad link entry {entry!r}")


def _field(config: dict, key: str, where: str, kind):
    """config[key] when it is of type `kind`, or a SequenceError naming
    the missing or wrongly typed key."""
    try:
        value = config[key]
    except KeyError:
        raise SequenceError(f"{where} is missing the key {key!r}") from None
    if not isinstance(value, kind) or isinstance(value, bool):  # a bool is an int in Python
        raise SequenceError(f"{where} has {key!r} of the wrong type {type(value).__name__}")
    return value


def _links(config: dict, key: str, where: str) -> tuple[NMLinkSpec, ...]:
    return tuple(_parse_link_entry(e) for e in _field(config, key, where, (list, tuple)))


def _poly(config: dict, key: str, where: str) -> IntPoly:
    return parse_poly(str(_field(config, key, where, (str, int))))


def _reads(config: dict, where: str, *keys: str) -> dict:
    """config, or a SequenceError naming its first key outside `keys`."""
    for key in config:
        if key not in keys:
            raise SequenceError(f"{where} has the unknown key {key!r}")
    return config


def parse_sequence_config(config) -> LinkSequence:
    """Build a LinkSequence from a JSON string or a parsed config dict;
    a key that the variant does not read is an error."""
    if isinstance(config, str):
        config = json.loads(config)
    if not isinstance(config, dict) or "variant" not in config:
        raise SequenceError("sequence config must be an object with a 'variant'")
    variant = config["variant"]
    where = f"{variant!r} sequence config"
    if variant == "periodic":
        _reads(config, where, "variant", "links")
        return PeriodicSequence(_links(config, "links", where))
    if variant == "eventually_periodic":
        _reads(config, where, "variant", "prefix", "period")
        return EventuallyPeriodicSequence(
            prefix=_links(config, "prefix", where) if "prefix" in config else (),
            tail=_links(config, "period", where),
        )
    if variant == "explicit":
        _reads(config, where, "variant", "links")
        return ExplicitSequence(_links(config, "links", where))
    if variant == "generator":
        if "even" in config or "odd" in config:
            _reads(config, where, "variant", "even", "odd")
            even, odd = (
                _reads(_field(config, case, where, dict), f"{case!r} case", "n", "m")
                for case in ("even", "odd")
            )
            return GeneratorSequence(
                even_n=_poly(even, "n", "'even' case"),
                even_m=_poly(even, "m", "'even' case"),
                odd_n=_poly(odd, "n", "'odd' case"),
                odd_m=_poly(odd, "m", "'odd' case"),
            )
        _reads(config, where, "variant", "n", "m")
        return GeneratorSequence(
            n_poly=_poly(config, "n", where), m_poly=_poly(config, "m", where)
        )
    raise SequenceError(f"unknown sequence variant {variant!r}")


def sequence_to_config(seq: LinkSequence) -> dict:
    """Inverse of parse_sequence_config, for verdict echoes and reports."""
    if isinstance(seq, PeriodicSequence):
        return {
            "variant": "periodic",
            "links": [{"nm": [l.n, l.m]} for l in seq.links],
        }
    if isinstance(seq, EventuallyPeriodicSequence):
        return {
            "variant": "eventually_periodic",
            "prefix": [{"nm": [l.n, l.m]} for l in seq.prefix],
            "period": [{"nm": [l.n, l.m]} for l in seq.tail],
        }
    if isinstance(seq, ExplicitSequence):
        return {
            "variant": "explicit",
            "links": [{"nm": [l.n, l.m]} for l in seq.links],
        }
    if isinstance(seq, GeneratorSequence):
        var = "s" if seq.two_case else "i"
        cases = {b.name: {"n": b.n.text(var), "m": b.m.text(var)} for b in seq.branches}
        # a one-case generator writes its terms at the top level
        return {"variant": "generator", **cases.get("all", cases)}
    raise SequenceError(f"cannot serialize {seq!r}")
