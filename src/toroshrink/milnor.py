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
(deeper rounds change the word only inside F_r, which the optional
stability check certifies through the expansion of the defect word).

The indeterminacy Delta_I is the GCD of all mu_J where J runs over the
multi-indices obtained from I by deleting at least one entry and cyclically
permuting the rest; Delta = 0 encodes an integer-valued invariant.  The
residue mubar = mu mod Delta is normalized to [0, Delta).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .freegroup import Word
from .linkio import LinkData, LinkPresentation, PDCode, WirtingerPresentation, wirtinger
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
    "sub_multi_indices",
    "all_multi_indices",
    "MAX_INDEX_LENGTH",
]

MAX_INDEX_LENGTH = 8
MONOMIAL_BUDGET = 2_000_000


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


def reduce_longitude(
    wp: WirtingerPresentation, component: int, q: int, verify: bool = True
) -> Word:
    """Longitude of one component as a word in the meridians, valid mod F_q.

    Runs q-1 substitution rounds.  With verify=True an extra round is run
    and the defect word is checked to lie in F_q via its Magnus expansion;
    failure raises :class:`PresentationInconsistent`.
    """
    if q < 2:
        raise MilnorError("class q must be >= 2")
    if component not in wp.component_labels:
        raise MilnorError(f"no component {component}")
    rank = wp.meridian_rank()
    eta = _arc_words_at_class(wp, q, rank)
    word = _longitude_from_arcs(wp, component, eta, rank)
    if verify:
        eta_next = _substitution_round(wp, eta, rank)
        word_next = _longitude_from_arcs(wp, component, eta_next, rank)
        defect = word.inverse() * word_next
        if not defect.is_identity() and lcs_depth(defect, q) < q:
            raise PresentationInconsistent(
                f"longitude of component {component} is not stable modulo F_{q}"
            )
    return word


def _longitude_from_arcs(
    wp: WirtingerPresentation, component: int, eta: dict[int, Word], rank: int
) -> Word:
    word = Word(rank)
    for over_arc, s in wp.under_passes[component]:
        word = word * (eta[over_arc] ** s)
    e = word.exponent_sum(component)
    word = word * (Word(rank, [(component, 1)]) ** (-e))
    return word


@lru_cache(maxsize=512)
def _diagram_longitude(pd: PDCode, component: int, q: int, verify: bool) -> Word:
    return reduce_longitude(wirtinger(pd), component, q, verify=verify)


def longitude_word(link: LinkData, component: int, q: int, verify: bool = True) -> Word:
    """Meridian word for a longitude, from either carrier of link data."""
    if isinstance(link, PDCode):
        return _diagram_longitude(link, component, q, verify)
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


def _labels(link: LinkData) -> tuple[int, ...]:
    return link.component_labels if isinstance(link, PDCode) else link.labels


def mu(link: LinkData, index: tuple[int, ...], verify: bool = True) -> int:
    """The Magnus coefficient mu_I of the link."""
    index = tuple(index)
    _check_index(_labels(link), index)
    q = len(index)
    word = longitude_word(link, index[-1], q, verify=verify)
    return word_coefficient(word, index[:-1])


def sub_multi_indices(index: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """All distinct multi-indices obtained by deleting one or more entries
    and cyclically permuting the remainder (lengths 2 .. len-1)."""
    index = tuple(index)
    n = len(index)
    out: set[tuple[int, ...]] = set()
    for mask in range(1, 2**n - 1):
        kept = tuple(index[i] for i in range(n) if mask & (1 << i))
        if len(kept) < 2:
            continue
        for r in range(len(kept)):
            out.add(kept[r:] + kept[:r])
    return tuple(sorted(out))


def delta(link: LinkData, index: tuple[int, ...], verify: bool = True) -> int:
    """GCD indeterminacy Delta_I; 0 means integer valued."""
    index = tuple(index)
    _check_index(_labels(link), index)
    g = 0
    for sub in sub_multi_indices(index):
        g = gcd(g, abs(mu(link, sub, verify=verify)))
    return g


def mubar(link: LinkData, index: tuple[int, ...], verify: bool = True) -> MilnorRecord:
    """The full invariant record (mu, Delta, residue) for one multi-index."""
    index = tuple(index)
    m = mu(link, index, verify=verify)
    d = delta(link, index, verify=verify)
    residue = m % d if d else m
    return MilnorRecord(index=index, mu=m, delta=d, mubar=residue)


def all_multi_indices(labels: tuple[int, ...], max_length: int):
    """All multi-indices over the given components with 2 <= length <= max_length,
    in (length, lexicographic) order."""
    from itertools import product

    if max_length > MAX_INDEX_LENGTH:
        raise MilnorError(f"length bound {max_length} exceeds {MAX_INDEX_LENGTH}")
    for r in range(2, max_length + 1):
        yield from product(sorted(labels), repeat=r)
