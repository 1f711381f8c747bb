"""Disc replicating functions and certified lower bounds.

A disc replicating function maps the interlacing count of a solid torus
to the interlacing count inherited by some component of the link placed
inside it.  For the chain link with n components and winding number m the
function is exactly

    D(k) = max(ceil(2*m*k / n) - 1, 0),

computed with integer division throughout (for k >= 1 it equals
floor((2mk - 1)/n)); no verdict-relevant path touches floating point.
`chain_steps` is the batch kernel: it applies the functions of links
given as (n, 2m) pairs, in order, to a whole list of values, one list
comprehension per link.  `chain_step` is its one-link, one-value case.

Lower bounds come from declared cover/sublink/blow-down derivations
(:class:`~toroshrink.linkio.CoverDerivation`): a derivation with a
nonvanishing witness invariant of length 2 contributes |value| * k, one
of length > 2 contributes ceil(2*d*k / (kept + blowdowns)) - 1, and the
bound is the maximum over the declared derivations (0 when none apply).
Witness claims are verified against the witness link when it is supplied;
a claim of a nonzero invariant that computes to zero is a hard error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .linkio import CoverDerivation, NMLinkSpec, bing_axis_pd, pd_fixture
from .milnor import MilnorRecord, mubar

__all__ = [
    "ExactChainFn",
    "MilnorLowerFn",
    "WitnessError",
    "ceil_div",
    "chain_step",
    "chain_steps",
    "nm_drf",
    "lower_milnor_drf",
    "nm_lower_drf",
    "compose",
]


class WitnessError(ValueError):
    """A declared nonzero witness invariant failed verification."""


def ceil_div(a: int, b: int) -> int:
    """Exact ceiling of a/b for integers, b > 0."""
    if b <= 0:
        raise ValueError("denominator must be positive")
    return -((-a) // b)


def chain_steps(pairs: Iterable[tuple[int, int]], values: Iterable[int]) -> list[int]:
    """The values after the DRFs of the links with these (n, 2m) pairs,
    applied in order: [f_last(...f_1(v)...) for v in values]."""
    values = list(values)
    for n, two_m in pairs:
        # ceil(2mv/n) - 1 = floor((2mv - 1)/n), which is >= 0 exactly when v > 0
        values = [(two_m * v - 1) // n if v > 0 else 0 for v in values]
    return values


def chain_step(spec: NMLinkSpec, k: int) -> int:
    """D(k) = max(ceil(2mk/n) - 1, 0) of the (n,m) chain link, for k >= 0."""
    return chain_steps(((spec.n, 2 * spec.m),), (k,))[0]


@dataclass(frozen=True)
class ExactChainFn:
    """Exact disc replicating function of the (n,m) chain link."""

    spec: NMLinkSpec

    def __call__(self, k: int) -> int:
        if k < 0:
            raise ValueError("interlacing count must be nonnegative")
        return chain_step(self.spec, k)

    def describe(self) -> str:
        n, m = self.spec.n, self.spec.m
        return f"k -> max(ceil({2 * m}k/{n}) - 1, 0)"


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
        denom = derivation.kept_n + derivation.blowdowns
        return max(ceil_div(2 * derivation.d * k, denom) - 1, 0)


def nm_drf(spec: NMLinkSpec | tuple[int, int]) -> ExactChainFn:
    """Exact disc replicating function for the (n,m) chain link."""
    if not isinstance(spec, NMLinkSpec):
        spec = NMLinkSpec(*spec)
    return ExactChainFn(spec)


def lower_milnor_drf(derivations: Sequence[CoverDerivation]) -> MilnorLowerFn:
    """Lower bound from derivations, verifying witnesses where possible.

    Each derivation carrying both a nonzero claim and a witness link is
    checked: the witness invariant is recomputed, a zero residue is a
    hard error, and a residue disagreeing in magnitude with the declared
    value is rejected as inconsistent data.
    """
    checked: list[CoverDerivation] = []
    records: list[MilnorRecord | None] = []
    for der in derivations:
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
        else:
            records.append(None)
        checked.append(der)
    return MilnorLowerFn(derivations=tuple(checked), records=tuple(records))


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


def compose(fs: Sequence[Callable[[int], int]], k: int) -> list[int]:
    """Orbit of k under the functions applied in order: [k, f1(k), f2(f1(k)), ...].

    Every disc replicating function sends 0 to 0, so the orbit is constant
    once it reaches 0.
    """
    orbit = [k]
    v = k
    for f in fs:
        v = f(v)
        orbit.append(v)
    return orbit
