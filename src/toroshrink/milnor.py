"""Milnor invariants from diagrams or presentations.

For a multi-index I = (i_1, ..., i_r) the number mu_I is the coefficient
of k_{i_1}...k_{i_{r-1}} in the Magnus expansion of a word w representing
the zero-framed longitude of component i_r modulo the r-th lower central
subgroup.  That one coefficient is read by the prefix dynamic programme
:func:`~toroshrink.magnus.word_coefficient`, without building the series;
the full truncated expansion is used only for the stability certificate
below, for ``--dump-series`` and as the oracle in the tests.  For diagram
input, w is produced by iterated substitution in
the Wirtinger presentation: every arc starts as the meridian of its
component and is refined through the crossing relators for r-1 rounds
(deeper rounds change the word only inside F_r, which a stability check
certifies through the expansion of the defect word).

The indeterminacy Delta_I is the GCD of all mu_J where J runs over the
multi-indices obtained from I by deleting at least one entry and cyclically
permuting the rest; Delta = 0 encodes an integer-valued invariant.  A
subsequence of a rotation of I is a rotation of a subsequence of I, so every
rotation of I has the same sub-indices and Delta is a function of the cyclic
class of I, named by its least rotation.  For len(I) >= 3 Delta_I is the GCD,
over the one-deletion subsequences J of I, of G(class of J), where G(c) is the
GCD of Delta(c) and of |mu| over every rotation of c (mu itself need not be
cyclically symmetric); Delta is 0 at length 2.  mu is memoized by
(link, index), Delta and G by (link, cyclic class), in bounded memos that all
calls share.  The residue mubar = mu mod Delta is normalized to [0, Delta).

The invariants certify lower disc replicating functions: a derivation
(:class:`~toroshrink.linkio.CoverDerivation`) whose witness has length 2
bounds by |value| * k, a longer one by the chain DRF of a
(kept + blowdowns, d) link, and the bound is the maximum over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Sequence

from .drf import NMLinkSpec, chain_steps
from .freegroup import Word
from .linkio import (
    CoverDerivation,
    LinkData,
    LinkPresentation,
    PDCode,
    WirtingerPresentation,
    bing_axis_pd,
    pd_fixture,
    wirtinger,
)
# expand is not called here; it stays importable from this module because
# perfbench/tracer.py wraps it in every toroshrink namespace that holds it
from .magnus import expand, lcs_depth, word_coefficient  # noqa: F401

__all__ = [
    "MilnorRecord",
    "MilnorError",
    "reduce_longitude",
    "longitude_word",
    "mu",
    "delta",
    "mubar",
    "all_multi_indices",
    "MAX_INDEX_LENGTH",
    "WitnessError",
    "MilnorLowerFn",
    "lower_milnor_drf",
    "nm_lower_drf",
]

MAX_INDEX_LENGTH = 8
MONOMIAL_BUDGET = 2_000_000
# entries kept by each memo: mu is keyed by index, Delta and G by cyclic
# class; all indices of length <= 8 over three components number 9,837
_MEMO_SIZE = 1 << 15


class MilnorError(ValueError):
    pass


class PresentationInconsistent(MilnorError):
    """The iterated substitution failed its stability certificate."""


@dataclass(frozen=True)
class MilnorRecord:
    index: tuple[int, ...]
    mu: int
    delta: int
    mubar: int

    @property
    def signed(self) -> int:
        """Representative of mubar in (-Delta/2, Delta/2] (mu itself if Delta=0)."""
        if self.delta == 0:
            return self.mu
        return self.mubar - self.delta if 2 * self.mubar > self.delta else self.mubar

    def __str__(self):
        idx = ",".join(str(i) for i in self.index)
        if self.delta == 0:
            return f"mu({idx}) = {self.mu}  (integer valued)"
        return f"mubar({idx}) = {self.mubar}  (mu = {self.mu} mod Delta = {self.delta})"


def _check_index(link_labels: tuple[int, ...], index: tuple[int, ...]) -> None:
    if len(index) < 2:
        raise MilnorError("multi-index needs length >= 2")
    if len(index) > MAX_INDEX_LENGTH:
        raise MilnorError(
            f"multi-index length {len(index)} exceeds the guard {MAX_INDEX_LENGTH}"
        )
    for i in index:
        if i not in link_labels:
            raise MilnorError(
                f"index entry {i} is not a component of the link "
                f"(components are {link_labels})"
            )
    rank = max(link_labels) + 1
    if rank ** len(index) > MONOMIAL_BUDGET:
        raise MilnorError(
            f"monomial budget exceeded: rank {rank} at depth {len(index)}"
        )


def _arc_words_at_class(wp: WirtingerPresentation, q: int, rank: int) -> dict[int, Word]:
    eta = {a: Word(rank, [(wp.arc_component[a], 1)]) for a in range(wp.n_arcs)}
    for _ in range(q - 1):
        eta = _substitution_round(wp, eta, rank)
    return eta


def _substitution_round(
    wp: WirtingerPresentation, eta: dict[int, Word], rank: int
) -> dict[int, Word]:
    """One refinement round: conjugators come from the previous level,
    the component's own arcs chain at the new level from its base arc.

    The crossing relation pairs with the longitude reading (over^{+sign})
    as out = over^{-sign} * in * over^{sign}; flipping either side alone
    breaks the cyclic symmetry of the resulting Milnor numbers.
    """
    new_eta: dict[int, Word] = {}
    for label in wp.component_labels:
        meridian = Word(rank, [(label, 1)])
        seq = wp.arc_sequence[label]
        new_eta[seq[0]] = meridian
        u = Word(rank)
        for pos, (over_arc, s) in enumerate(wp.under_passes[label]):
            u = (eta[over_arc] ** (-s)) * u
            nxt = seq[(pos + 1) % len(seq)]
            if nxt != seq[0]:
                new_eta[nxt] = u * meridian * u.inverse()
    return new_eta


def reduce_longitude(wp: WirtingerPresentation, component: int, q: int) -> Word:
    """Longitude of one component as a word in the meridians, valid mod F_q.

    Runs q-1 substitution rounds, then one more, and checks that the
    defect word between the two lies in F_q via its Magnus expansion;
    failure raises :class:`PresentationInconsistent`.
    """
    if q < 2:
        raise MilnorError("class q must be >= 2")
    if component not in wp.component_labels:
        raise MilnorError(f"no component {component}")
    rank = wp.meridian_rank()
    eta = _arc_words_at_class(wp, q, rank)
    word = _longitude_from_arcs(wp, component, eta, rank)
    eta_next = _substitution_round(wp, eta, rank)
    defect = word.inverse() * _longitude_from_arcs(wp, component, eta_next, rank)
    if not defect.is_identity() and lcs_depth(defect, q) < q:
        raise PresentationInconsistent(
            f"longitude of component {component} is not stable modulo F_{q}"
        )
    return word


def _longitude_from_arcs(
    wp: WirtingerPresentation, component: int, eta: dict[int, Word], rank: int
) -> Word:
    # the under-pass factors, concatenated and reduced once
    factors = (eta[over_arc] ** s for over_arc, s in wp.under_passes[component])
    word = Word(rank, [letter for factor in factors for letter in factor.letters])
    return word * Word(rank, [(component, 1)]) ** -word.exponent_sum(component)


@lru_cache(maxsize=512)
def _diagram_longitude(pd: PDCode, component: int, q: int) -> Word:
    return reduce_longitude(wirtinger(pd), component, q)


def longitude_word(link: LinkData, component: int, q: int) -> Word:
    """Meridian word for a longitude, from either carrier of link data."""
    if isinstance(link, PDCode):
        return _diagram_longitude(link, component, q)
    if isinstance(link, LinkPresentation):
        if component not in link.labels:
            raise MilnorError(f"no component {component}")
        if link.valid_class is not None and q > link.valid_class:
            raise MilnorError(
                f"presentation {link.name or ''} is valid to class {link.valid_class}; "
                f"class {q} was requested"
            )
        return link.longitude[component]
    raise TypeError(f"not link data: {link!r}")


def mu(link: LinkData, index: tuple[int, ...]) -> int:
    """The Magnus coefficient mu_I of the link."""
    index = tuple(index)
    _check_index(link.component_labels, index)
    return _mu(link, index)


def delta(link: LinkData, index: tuple[int, ...]) -> int:
    """GCD indeterminacy Delta_I; 0 means integer valued."""
    index = tuple(index)
    _check_index(link.component_labels, index)
    return _delta(link, _least_rotation(index))


# every sub-index of a checked index is valid too: it is shorter, uses the
# same labels and fits the same monomial budget
@lru_cache(maxsize=_MEMO_SIZE)
def _mu(link: LinkData, index: tuple[int, ...]) -> int:
    word = longitude_word(link, index[-1], len(index))
    return word_coefficient(word, index[:-1])


def _least_rotation(index: tuple[int, ...]) -> tuple[int, ...]:
    return min(index[r:] + index[:r] for r in range(len(index)))


@lru_cache(maxsize=_MEMO_SIZE)
def _delta(link: LinkData, cls: tuple[int, ...]) -> int:
    g = 0
    if len(cls) > 2:
        for pos in range(len(cls)):
            g = gcd(g, _class_gcd(link, _least_rotation(cls[:pos] + cls[pos + 1:])))
    return g


@lru_cache(maxsize=_MEMO_SIZE)
def _class_gcd(link: LinkData, cls: tuple[int, ...]) -> int:
    """G(cls): the GCD of Delta and of |mu| at every rotation of the class."""
    g = _delta(link, cls)
    for r in range(len(cls)):
        g = gcd(g, abs(_mu(link, cls[r:] + cls[:r])))
    return g


def mubar(link: LinkData, index: tuple[int, ...]) -> MilnorRecord:
    """The full invariant record (mu, Delta, residue) for one multi-index."""
    index = tuple(index)
    m = mu(link, index)
    d = delta(link, index)
    residue = m % d if d else m
    return MilnorRecord(index=index, mu=m, delta=d, mubar=residue)


def all_multi_indices(labels: tuple[int, ...], max_length: int):
    """All multi-indices over the given components with 2 <= length <= max_length,
    in (length, lexicographic) order."""
    from itertools import product

    if max_length < 2:
        raise MilnorError(f"length bound {max_length} is below 2")
    if max_length > MAX_INDEX_LENGTH:
        raise MilnorError(f"length bound {max_length} exceeds {MAX_INDEX_LENGTH}")
    for r in range(2, max_length + 1):
        yield from product(sorted(labels), repeat=r)


# -- lower disc replicating functions ------------------------------------------


class WitnessError(ValueError):
    """A declared nonzero witness invariant failed verification."""


@dataclass(frozen=True)
class MilnorLowerFn:
    """Lower disc replicating function from declared derivations."""

    derivations: tuple[CoverDerivation, ...]
    records: tuple[MilnorRecord | None, ...] = ()

    def __call__(self, k: int) -> int:
        if k < 0:
            raise ValueError("interlacing count must be nonnegative")
        return max((self.case_value(d, k) for d in self.derivations), default=0)

    @staticmethod
    def case_value(derivation: CoverDerivation, k: int) -> int:
        if k == 0 or not derivation.claims_nonzero:
            return 0
        if len(derivation.witness_index) == 2:
            return abs(derivation.witness_value) * k
        n = derivation.kept_n + derivation.blowdowns
        return chain_steps(((n, 2 * derivation.d),), (k,))[0]


def lower_milnor_drf(derivations: Sequence[CoverDerivation]) -> MilnorLowerFn:
    """Lower bound from derivations, verifying witnesses where possible.

    Each derivation carrying both a nonzero claim and a witness link is
    checked: the witness invariant is recomputed, a zero residue is a
    hard error, and a residue disagreeing in magnitude with the declared
    value is rejected as inconsistent data.
    """
    derivations = tuple(derivations)
    records: list[MilnorRecord | None] = []
    for der in derivations:
        rec = None
        if der.claims_nonzero and der.witness_link is not None:
            rec = mubar(der.witness_link, der.witness_index)
            if rec.mubar == 0:
                raise WitnessError(
                    f"witness mubar{der.witness_index} computes to 0 on the "
                    f"witness link, but a nonzero value was declared"
                )
            if abs(rec.signed) != abs(der.witness_value):
                raise WitnessError(
                    f"declared witness value {der.witness_value} disagrees with "
                    f"computed {rec.signed} for index {der.witness_index}"
                )
        records.append(rec)
    return MilnorLowerFn(derivations=derivations, records=tuple(records))


def nm_lower_drf(spec: NMLinkSpec | tuple[int, int]) -> MilnorLowerFn:
    """The canonical derivation-based lower bound for the (n,m) chain link.

    Take the winding-degree cover (d = m).  For n >= 2 the chain lifts to
    a length-n chain with winding 1; keeping one copy and blowing down
    n-2 of its components leaves the borromean rings with axis, witness
    mubar(0,1,2) = +-1.  For n = 1 the lift contains the whitehead link,
    witness mubar(0,0,1,1) = +-1.
    """
    if not isinstance(spec, NMLinkSpec):
        spec = NMLinkSpec(*spec)
    if spec.n == 1:
        derivation = CoverDerivation(
            d=spec.m,
            kept_n=1,
            blowdowns=0,
            witness_index=(0, 0, 1, 1),
            witness_value=1,
            witness_link=pd_fixture("whitehead"),
            note="degree-m cover; the lifted pattern is a whitehead link",
        )
    else:
        derivation = CoverDerivation(
            d=spec.m,
            kept_n=2,
            blowdowns=spec.n - 2,
            witness_index=(0, 1, 2),
            witness_value=1,
            witness_link=bing_axis_pd(),
            note="degree-m cover, one chain copy kept, n-2 blow-downs",
        )
    return lower_milnor_drf([derivation])
