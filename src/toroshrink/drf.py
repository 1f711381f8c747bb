"""The (n,m) chain link and its disc replicating function.

The disc replicating function (DRF) of the chain link with n components
and winding number m maps the interlacing count of a solid torus to the
one inherited by a component of the link inside it.  It is exactly

    D(k) = max(ceil(2*m*k / n) - 1, 0),  that is floor((2mk - 1)/n) for k >= 1.

This module is the one place that formula is written, in integers, in
two loop shapes over links given as (n, 2m) pairs: the batch kernel
`chain_steps` and the early-exit `chain_walk`, the orbit-evidence kernel,
whose step is one multiply, one floor division and one exit test, and
the one place a link's name is read, by `parse_link_name` for config link
entries, `linkio.builtin` and ``drf eval`` alike.  It imports nothing
from the package; the shrink stack and the Milnor stack both build on it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import length_hint
from typing import Callable, Iterable, Sequence

__all__ = [
    "NMLinkSpec",
    "parse_link_name",
    "ExactChainFn",
    "chain_orbit",
    "chain_steps",
    "chain_walk",
    "nm_drf",
    "compose",
]


@dataclass(frozen=True)
class NMLinkSpec:
    """Closed chain of n unknots winding m times around a solid torus,
    together with the torus meridian as component 0."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("chain length n and winding number m must be >= 1")

    def __str__(self):
        return f"nm({self.n},{self.m})"


_NM_SPEC = re.compile(r"nm\(\s*(\d+)\s*,\s*(\d+)\s*\)$")
_ALIASES = {"bing": NMLinkSpec(2, 1), "whitehead": NMLinkSpec(1, 1)}


def parse_link_name(name: str) -> NMLinkSpec | None:
    """The chain link named ``nm(n,m)``, ``bing`` (nm(2,1)) or ``whitehead``
    (nm(1,1)), in any case and spacing; None for any other name."""
    key = name.strip().lower()
    match = _NM_SPEC.match(key)
    return NMLinkSpec(int(match[1]), int(match[2])) if match else _ALIASES.get(key)


def chain_steps(pairs: Iterable[tuple[int, int]], values: Iterable[int]) -> list[int]:
    """The values after the DRFs of the links with these (n, 2m) pairs,
    applied in order: [f_last(...f_1(v)...) for v in values]."""
    values = list(values)
    for n, two_m in pairs:
        # ceil(2mv/n) - 1 = floor((2mv - 1)/n), which is >= 0 exactly when v > 0
        values = [(two_m * v - 1) // n if v > 0 else 0 for v in values]
    return values


def chain_walk(pairs: Iterable[tuple[int, int]], v: int, cap: int) -> tuple[int, int]:
    """Apply the DRFs of the links with these (n, 2m) pairs to v >= 1, in
    order, stopping after the step where the value reaches 0 or passes
    `cap`: (value, links applied), the value 0, cap + 1 or that after the
    last link.  Only a step's result is capped, so a v above the cap is
    stepped like any other.

    A step is one multiply, one floor division and one exit test, with no
    counter: at the exit the links applied are len(pairs) minus the links
    the iterator has left, which a list or tuple iterator reports exactly
    (any other iterable is copied to a list first).  The exit test is
    `not v or v > cap` rather than `not 0 < v <= cap`: a truth test on an
    int is cheaper than a comparison."""
    if type(pairs) not in (list, tuple):
        pairs = list(pairs)
    links = iter(pairs)
    for n, two_m in links:
        v = (two_m * v - 1) // n  # chain_steps' formula, v >= 1
        if not v or v > cap:
            return v and cap + 1, len(pairs) - length_hint(links)
    return v, len(pairs)


def chain_orbit(pairs: Iterable[tuple[int, int]], k: int) -> list[int]:
    """The orbit [k, f_1(k), f_2(f_1(k)), ...] of k under the DRFs of the
    links with these (n, 2m) pairs, applied in order."""
    orbit = [k]
    for pair in pairs:
        orbit += chain_steps((pair,), orbit[-1:])
    return orbit


@dataclass(frozen=True)
class ExactChainFn:
    """Exact disc replicating function of the (n,m) chain link."""

    spec: NMLinkSpec

    def __call__(self, k: int) -> int:
        if k < 0:
            raise ValueError("interlacing count must be nonnegative")
        return chain_steps(((self.spec.n, 2 * self.spec.m),), (k,))[0]

    def describe(self) -> str:
        n, m = self.spec.n, self.spec.m
        return f"k -> max(ceil({2 * m}k/{n}) - 1, 0)"


def nm_drf(spec: NMLinkSpec | tuple[int, int]) -> ExactChainFn:
    """Exact disc replicating function for the (n,m) chain link."""
    if not isinstance(spec, NMLinkSpec):
        spec = NMLinkSpec(*spec)
    return ExactChainFn(spec)


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
