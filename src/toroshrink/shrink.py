"""Shrinkability verdicts for toroidal decompositions, with certificates.

The decomposition defined by a sequence of chain links shrinks exactly
when every forward orbit of the composed disc replicating functions
reaches 0.  For (n,m) stages the functions are k -> max(ceil(2mk/n)-1, 0),
so everything reduces to exact rational arithmetic in the ratios
tau_i = n_i / (2 m_i):

  * periodic sequences: shrinks iff the product of tau over one period
    is >= 1 (and the one-period composite g then satisfies g(k) < k for
    every k, giving an orbit-level proof of the same fact);
  * if sum_j prod_{i<=j} tau_i converges, the decomposition does not
    shrink; if sum_j (1/n_j) prod_{i<=j} tau_i diverges, it does;
  * strictly expanding stages (n_i < 2 m_i for all i) never shrink;
  * a mixed (2,1)/(1,1) sequence given by its gaps c_i (a `GapSequence`,
    itself a link sequence) shrinks iff sum c_i / 2^i diverges.

No infinite series is ever decided numerically: a verdict requires a
symbolic certificate (periodic product, geometric ratio, term bound,
ratio test, harmonic comparison, or a telescoping composite), validated
against the sequence variant.  Every verdict carries its sequence (a gap
verdict its `GapSequence`).  Each certificate method has one builder,
which takes the sequence and the certificate's free parameters (a ratio
and start index, say) and returns the verdict: the producer chooses the
parameters, and :func:`verify_certificate` calls the same builder with
the parameters read from the certificate.  A criterion states the checks
its certificate rests on (the periodic descent range, the period trace
that must end at or above k0, the telescoping pairs' range), and only
:func:`verify_certificate` runs them, against that sequence.  A
criterion that does not apply declines with a reason; when all decline,
the verdict is an honest Unknown with orbit evidence.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd
from typing import Optional

from .drf import chain_orbit, chain_steps, chain_walk
from .sequences import (
    Branch,
    GapSequence,
    GeneratorSequence,
    HorizonError,
    IntPoly,
    LinkSequence,
    Period,
    partial_products,
)

__all__ = [
    "SHRINKS",
    "DOES_NOT_SHRINK",
    "UNKNOWN",
    "ShrinkVerdict",
    "VerdictConsistencyError",
    "periodic_product",
    "sher_armentrout",
    "convergent_tau_series",
    "divergent_weighted_tau_series",
    "bounded_widths",
    "ancel_starbird",
    "orbit_decide",
    "decide",
    "verify_certificate",
    "DEFAULT_K_MAX",
    "DEFAULT_M_MAX",
    "DEFAULT_P_MAX",
]

SHRINKS = "shrinks"
DOES_NOT_SHRINK = "does_not_shrink"
UNKNOWN = "unknown"

DEFAULT_K_MAX = 64
DEFAULT_M_MAX = 16
DEFAULT_P_MAX = 10_000

_PROBE = 64  # indices probed when proposing symbolic certificates


class VerdictConsistencyError(RuntimeError):
    """Two criteria produced contradictory verdicts: an internal bug."""


# -- verdicts -------------------------------------------------------------------


@dataclass(frozen=True)
class ShrinkVerdict:
    """`declined` holds (criterion, reason) for each criterion that did not apply."""

    outcome: str
    criterion: str
    certificate: dict
    sequence: LinkSequence
    corroborating: tuple[tuple[str, str], ...] = ()
    declined: tuple[tuple[str, str], ...] = ()
    evidence: dict | None = None

    @property
    def exit_code(self) -> int:
        return {SHRINKS: 0, DOES_NOT_SHRINK: 1, UNKNOWN: 2}[self.outcome]

    def summary(self) -> str:
        return f"{self.outcome} (criterion: {self.criterion})"


# -- the periodic product criterion ----------------------------------------------


def periodic_product(seq: LinkSequence) -> ShrinkVerdict | str:
    """Exact decision for (eventually) periodic sequences: shrinks iff the
    product of tau over one period is at least 1."""
    period = seq.one_period
    if period is None:
        return "no period"
    outcome = SHRINKS if period.product >= 1 else DOES_NOT_SHRINK
    cert = {
        "kind": "periodic_product",
        "period": len(period.pairs),
        "prefix_skipped": len(period.head),
        "taus": [str(t) for t in period.taus],
        "product": str(period.product),
        "shrinks_iff": "product >= 1",
    }
    return ShrinkVerdict(outcome, "periodic_product", cert, seq)


# -- strictly expanding stages -----------------------------------------------------


def sher_armentrout(seq: LinkSequence) -> ShrinkVerdict | str:
    """No-shrink when n_i < 2 m_i for every i.

    The hypothesis is checked finitely for the periodic variants and
    symbolically (polynomial positivity of 2m - n - 1) for generators;
    it is never concluded from probing alone.
    """
    period = seq.one_period
    if period is not None:
        pairs = period.head + period.pairs
        index = next((i for i, (n, two_m) in enumerate(pairs, 1) if n >= two_m), 0)
        if index:
            return f"n >= 2m at index {index}"
        cert = {
            "kind": "sher_armentrout",
            "scope": "finite",
            "checked": [[n, two_m // 2] for n, two_m in pairs],
            "consequence": _EXPANSION_CONSEQUENCE,
        }
        return ShrinkVerdict(DOES_NOT_SHRINK, "sher_armentrout", cert, seq)
    if isinstance(seq, GeneratorSequence):
        witness_data = []
        for b in seq.branches:
            margin = _expansion_margin(b)
            index = b.violation(margin)
            if index is not None:
                return f"n >= 2m at index {index}"
            witness_data.append({"branch": b.name, "margin": margin.text("s"), "from": b.first})
        cert = {
            "kind": "sher_armentrout",
            "scope": "symbolic",
            "branches": witness_data,
            "consequence": _EXPANSION_CONSEQUENCE,
        }
        return ShrinkVerdict(DOES_NOT_SHRINK, "sher_armentrout", cert, seq)
    return _NO_CLOSED_FORM


_EXPANSION_CONSEQUENCE = "every stage satisfies D(k) >= k for k >= 1"
_NO_CLOSED_FORM = "neither periodic nor a generator"


def _expansion_margin(b: Branch) -> IntPoly:
    """2m - n - 1, nonnegative exactly where the branch's stage expands."""
    return b.m.scaled(2) - b.n - IntPoly.const(1)


# -- convergence of sum prod tau ---------------------------------------------------


def _periodic_exact_sum(period: Period) -> Fraction:
    """Exact value of sum_j prod_{i<=j} tau_i when the period product is
    < 1: the prefix terms, plus the first period's terms over 1 - product."""
    head = len(period.head)
    tail = sum(period.partials[head:], Fraction(0)) / (1 - period.product)
    return sum(period.partials[:head], Fraction(0)) + tail


def convergent_tau_series(seq: LinkSequence) -> ShrinkVerdict | str:
    """No-shrink from convergence of sum_j prod_{i<=j} tau_i.

    A geometric certificate is derived automatically
    for periodic sequences (exact sum) and for generators whose tau is
    provably bounded by some r < 1 from an index onward.  For a generator,
    the limit of n/(2m) on each branch is read first from the leading
    coefficients (below 1 iff 2m - n has the degree of m and a positive
    leading coefficient); if any branch fails, no ratio exists.  Otherwise
    r is the largest tau over 64 links from i0 = 1, 2, 4, 8 in turn, and
    the first r < 1 that `IntPoly.first_negative` proves is an upper bound
    from i0 on, branchwise, is the certificate.
    """
    period = seq.one_period
    if period is not None and period.product >= 1:
        return f"period product {period.product} >= 1"
    if period is not None:
        total = _periodic_exact_sum(period)
        k0 = int(total) + 1
        cert = {
            "kind": "convergent_tau_series",
            "method": "periodic_geometric",
            "block_product": str(period.product),
            "exact_sum": str(total),
            "k0": k0,
        }
        return ShrinkVerdict(DOES_NOT_SHRINK, "convergent_tau_series", cert, seq)
    if isinstance(seq, GeneratorSequence):
        # lim tau = lim n/(2m) < 1 on a branch iff 2m - n keeps the degree
        # of m with a positive leading coefficient; otherwise every r < 1
        # is exceeded infinitely often and no i0 validates
        for b in seq.branches:
            margin = b.m.scaled(2) - b.n
            if margin.degree != b.m.degree or margin.coeffs[-1] <= 0:
                return "lim sup tau >= 1"
        starts = (1, 2, 4, 8)
        ratios = seq.link_pairs(1, starts[-1] + _PROBE - 1)  # (n_i, 2 m_i)
        for i0 in starts:
            bn, bd = ratios[i0 - 1]
            for n, d in ratios[i0 : i0 + _PROBE - 1]:
                if n * bd > bn * d:
                    bn, bd = n, d
            if bn >= bd:
                continue
            r = Fraction(bn, bd)
            if _geometric_fault(seq, r, i0) is None:
                return _geometric_verdict(seq, r, i0)
        return f"no probed r < 1 bounds tau from i0 in {starts}"
    return _NO_CLOSED_FORM


def _geometric_verdict(seq: LinkSequence, r: Fraction, i0: int) -> ShrinkVerdict:
    bound, k0, prefix = _geometric_bound(seq, r, i0)
    data = {
        "kind": "convergent_tau_series",
        "method": "geometric_ratio",
        "r": str(r),
        "i0": i0,
        "block": 1,
        "prefix_partial_sums": [str(p) for p in prefix],
        "bound": str(bound),
        "k0": k0,
    }
    return ShrinkVerdict(DOES_NOT_SHRINK, "convergent_tau_series", data, seq)


def _geometric_fault(seq: LinkSequence, r: Fraction, i0: int) -> Optional[str]:
    """Why seq is not a generator with tau_i <= r < 1 for all i >= i0, or None."""
    if r >= 1 or r <= 0:
        return "geometric ratio must satisfy 0 < r < 1"
    if i0 < 1:
        return "geometric ratio needs i0 >= 1"
    if not isinstance(seq, GeneratorSequence):
        return "geometric ratios are certified for generators only"
    # tau_i <= r  <=>  den(r) * n_i <= 2 num(r) * m_i, branchwise
    for b in seq.branches:
        margin = b.m.scaled(2 * r.numerator) - b.n.scaled(r.denominator)
        index = b.violation(margin, i0)
        if index is not None:
            return f"tau at index {index} exceeds r"
    return None


def _geometric_bound(seq: LinkSequence, r: Fraction, i0: int):
    """Exact upper bound for the tau series when tau_i <= r from i0 on."""
    partials = partial_products(seq.link_pairs(1, i0 - 1))
    prefix_sum = sum(partials, Fraction(0))
    p0 = partials[-1] if partials else Fraction(1)
    bound = prefix_sum + p0 * r / (1 - r)
    return bound, int(bound) + 1, partials


# -- divergence of the weighted series ----------------------------------------------


def divergent_weighted_tau_series(seq: LinkSequence) -> ShrinkVerdict | str:
    """Shrink verdict from divergence of sum_j (1/n_j) prod_{i<=j} tau_i.

    A periodic sequence with period product >= 1 has no partial product
    below the least one of its first period, so every term is at least
    that over n_max.  A generator with constant widths and tau_i >= 1
    everywhere has every partial product >= 1, so every term is at least
    1/n_max >= (1/n_max)/j: a harmonic floor with c = 1/n_max from i0 = 1.
    """
    period = seq.one_period
    if period is not None:
        if period.product < 1:
            return f"period product {period.product} < 1"
        n_max = _sup_widths(seq)
        cert = {
            "kind": "divergent_weighted_tau_series",
            "method": "periodic_product",
            "product": str(period.product),
            "term_floor": str(min(period.partials) / n_max),
            "n_max": n_max,
        }
    elif not isinstance(seq, GeneratorSequence):
        return _NO_CLOSED_FORM
    elif fault := _harmonic_floor_fault(seq):
        return fault
    else:
        cert = {
            "kind": "divergent_weighted_tau_series",
            "method": "harmonic_comparison",
            "c": str(Fraction(1, _sup_widths(seq))),
            "i0": 1,
        }
    return ShrinkVerdict(SHRINKS, "divergent_weighted_tau_series", cert, seq)


def _harmonic_floor_fault(seq: GeneratorSequence) -> Optional[str]:
    """Why the widths are not bounded or tau_i >= 1 fails somewhere, or None."""
    for b in seq.branches:
        if not b.n.is_constant():
            return "harmonic floors need bounded widths n_i"
        index = b.violation(b.n - b.m.scaled(2))
        if index is not None:
            return f"tau falls below 1 at index {index}; cannot maintain the harmonic floor"
    return None


# -- bounded widths: the two-sided criterion ------------------------------------------


def bounded_widths(seq: LinkSequence) -> ShrinkVerdict | str:
    """When sup n_i < infinity the tau series decides both ways: shrinks
    iff sum prod tau diverges."""
    return _bounded_widths(seq, convergent_tau_series(seq), divergent_weighted_tau_series(seq))


def _bounded_widths(seq, convergent, divergent) -> ShrinkVerdict | str:
    """The bounded-widths verdict read off the results of the two
    tau-series criteria."""
    sup_n = _sup_widths(seq)
    if sup_n is None:
        return "sup n_i is not known to be finite"
    if isinstance(convergent, ShrinkVerdict):
        inner, outcome, decision = convergent, DOES_NOT_SHRINK, "tau series converges"
    elif isinstance(divergent, ShrinkVerdict):
        inner, outcome, decision = divergent, SHRINKS, "tau series diverges"
    else:
        return "neither tau series is certified"
    cert = {
        "kind": "bounded_widths",
        "sup_n": sup_n,
        "decision": decision,
        "inner": inner.certificate,
    }
    return ShrinkVerdict(outcome, "bounded_widths", cert, seq)


def _sup_widths(seq: LinkSequence) -> Optional[int]:
    period = seq.one_period
    if period is not None:
        return max(n for n, _ in period.head + period.pairs)
    if isinstance(seq, GeneratorSequence) and all(b.n.is_constant() for b in seq.branches):
        return max(b.n(1) for b in seq.branches)
    return None


# -- mixed Bing-Whitehead sequences -----------------------------------------------------


def ancel_starbird(
    seq: LinkSequence, product: ShrinkVerdict | str | None = None
) -> ShrinkVerdict | str:
    """Verdict for a mixed (2,1)/(1,1) sequence given the gap counts c_i:
    shrinks iff sum c_i / 2^i diverges.

    The verdict's sequence is `seq` itself.  Periodic gap patterns
    converge (geometric bound), cross-checked by the periodic product
    criterion on `seq` (`product`, when the caller has already run it);
    polynomial gaps converge by an exact ratio test; gaps with a 2^i
    leading term diverge by a term bound.  Explicit gaps, a finite list
    that decides nothing about the sum, and sequences that are not a
    `GapSequence` get the reason the criterion declines.
    """
    if not isinstance(seq, GapSequence):
        return "not a gap sequence"
    if seq.kind == "explicit":
        return "gap tail is undeclared"
    if seq.kind == "periodic":
        cross = periodic_product(seq) if product is None else product
        cert = {
            "kind": "ancel_starbird",
            "method": "periodic_geometric",
            "gap_period": list(seq.values),
            "exact_sum": str(_periodic_gap_sum(seq)),
            "cross_check": cross.certificate,
        }
        verdict = ShrinkVerdict(DOES_NOT_SHRINK, "ancel_starbird", cert, seq)
        return _corroborated(verdict, [cross])
    if seq.kind == "poly":
        if seq.poly.is_zero():
            cert = {"kind": "ancel_starbird", "method": "zero_gaps", "exact_sum": "0"}
            return ShrinkVerdict(DOES_NOT_SHRINK, "ancel_starbird", cert, seq)
        r = Fraction(3, 4)
        return _ratio_test_verdict(seq, r, _ratio_test_start(seq.poly, r))
    # two_pow: terms are bounded below by the leading coefficient
    return _term_bound_verdict(seq, 1)


def _ratio_test_verdict(gaps: GapSequence, r: Fraction, i0: int) -> ShrinkVerdict:
    """Convergence of poly gaps whose terms fall by the ratio r from term i0 on."""
    cert = {
        "kind": "ancel_starbird",
        "method": "ratio_test",
        "gap_term": _gap_term(gaps),
        "r": str(r),
        "i0": i0,
        "bound": str(_ratio_test_bound(gaps, r, i0)),
    }
    return ShrinkVerdict(DOES_NOT_SHRINK, "ancel_starbird", cert, gaps)


def _term_bound_verdict(gaps: GapSequence, i0: int) -> ShrinkVerdict:
    """Divergence of 2^i gaps, every term from i0 on at least the 2^i coefficient."""
    cert = {
        "kind": "ancel_starbird",
        "method": "term_bound",
        "delta": str(gaps.two_pow_coeff),
        "i0": i0,
        "two_pow_coeff": gaps.two_pow_coeff,
        "extra_term": gaps.poly.text("i"),
        "gap_term": _gap_term(gaps),
    }
    return ShrinkVerdict(SHRINKS, "ancel_starbird", cert, gaps)


def _gap_term(gaps: GapSequence) -> str:
    """c(i) of a 'poly' or 'two_pow' gap sequence, as certificates write it."""
    if gaps.kind == "poly":
        return gaps.poly.text("i")
    extra = "" if gaps.poly.is_zero() else f" + {gaps.poly.text('i')}"
    return f"{gaps.two_pow_coeff}*2^i{extra}"


def _gap_partial_sum(gaps: GapSequence, count: int) -> Fraction:
    """sum_{i <= count} c_i / 2^i."""
    return sum((gaps.term(i) for i in range(1, count + 1)), Fraction(0))


def _periodic_gap_sum(gaps: GapSequence) -> Fraction:
    """Exact sum of c_i / 2^i for periodic gaps, one period over 1 - 2^-p."""
    p = len(gaps.values)
    return _gap_partial_sum(gaps, p) / (1 - Fraction(1, 2**p))


def _ratio_margin(poly: IntPoly, r: Fraction) -> IntPoly:
    """Nonnegative at i exactly where c(i+1)/2 <= r * c(i)."""
    return poly.scaled(2 * r.numerator) - poly.shifted_arg(1).scaled(r.denominator)


def _ratio_test_start(poly: IntPoly, r: Fraction) -> int:
    """Smallest i0 >= 1 with c(i+1)/2 <= r * c(i) for all i >= i0.

    The margin's lead is (2 num(r) - den(r)) lead(c): for the caller's
    r = 3/4 that is 2 lead(c) > 0, since a gap term >= 0 has a positive
    lead.  So the margin's last sign change goes upward, and the margin is
    >= 0 from there on, or from 1 when it has none.
    """
    changes = _ratio_margin(poly, r).sign_changes(1)
    return changes[-1] if changes else 1


def _ratio_test_bound(gaps: GapSequence, r: Fraction, i0: int) -> Fraction:
    """The terms before i0, plus a geometric tail of ratio r from term i0."""
    return _gap_partial_sum(gaps, i0 - 1) + gaps.term(i0) / (1 - r)


# -- orbit simulation and the periodic orbit decision -----------------------------------


_ORBIT_VALUE_CAP = 10**9


def orbit_decide(
    seq: LinkSequence,
    k_max: int = DEFAULT_K_MAX,
    m_max: int = DEFAULT_M_MAX,
    p_max: int = DEFAULT_P_MAX,
) -> ShrinkVerdict:
    """Decide through composed disc replicating functions.

    Periodic variants get a full decision: with g the one-period composite
    and a = prod(2m/n), a <= 1 forces g(k) < k for every k (each step
    satisfies f(v) < (2m/n) v), so all orbits vanish; a > 1 gives an
    explicit k0 with g(k0) >= k0, which by monotonicity pins the orbit at
    or above k0 forever; the periodic product criterion corroborates
    either decision.  A two-case generator whose aligned two-step
    composite telescopes to k -> k - 1 also shrinks.  Anything else is
    reported Unknown with orbit evidence; horizon exhaustion is flagged
    separately from a decision.  The horizons shape only that evidence: a
    decision and its certificate are the same whatever they are.
    """
    rows = [("orbit_proof", _orbit_proof(seq)), ("periodic_product", periodic_product(seq))]
    return _conclude(seq, rows, k_max, m_max, p_max)


def _orbit_proof(seq: LinkSequence) -> ShrinkVerdict | str:
    """The orbit decision of a periodic variant, or the telescoping pairs
    of a two-case generator."""
    period = seq.one_period
    if period is not None:
        return _decide_periodic_orbits(seq, period)
    if isinstance(seq, GeneratorSequence) and seq.two_case:
        return _telescoping_certificate(seq)
    return "neither periodic nor a two-case generator"


def _orbit_evidence(seq, k_max, m_max, p_max) -> dict:
    """Orbit statistics for an Unknown verdict, in exact integers.

    Orbit (k, m) starts at value k and applies the DRFs
    f(v) = max(ceil(2mv/n) - 1, 0) of links m, m+1, ... until it reaches
    0, exceeds the cap (it is then frozen at cap + 1), has run p_max
    steps, or runs out of links.  Every DRF is monotone in v, 0 is
    absorbing and cap + 1 is frozen, so for fixed m the capped orbits
    stay ordered: k < k' gives v_t(k) <= v_t(k') at every step t.
    Hence the vanishing starts are a prefix 1..K_m whose vanishing times
    do not decrease with k, and the capped starts are a suffix whose
    capping times do not increase with k.  So a search over k finds K_m
    exactly; the longest vanishing orbit from m is orbit K_m; and the
    longest-lived orbit from m, which decides whether some orbit took
    the last available link (the horizon flag), is orbit K_m or K_m + 1.
    The search doubles k from 1 until an orbit does not vanish, then
    bisects; when every orbit from m - 1 vanished it first tries orbit
    k_max, and if that vanishes K_m = k_max after one orbit.

    Orbits that hold the same value before link m_max share one path
    from there on (`_OrbitPaths`).  A probe costs at most m_max - 1 plain
    steps, and each distinct value at link m_max at most p_max steps in
    all, however many probes reach it.
    """
    orbits = _OrbitPaths(seq, m_max, p_max)
    resolved = 0
    unresolved: list[list[int]] = []
    horizon = False
    longest = 0
    lo = 0
    for m in range(1, m_max + 1):
        top_first = lo == k_max  # every orbit from m - 1 vanished
        runs = {0: (0, 0)}  # the orbit of 0 has vanished before any step
        lo, hi = 0, 1  # orbit lo vanishes; gallop until orbit hi does not
        if top_first:
            runs[k_max] = orbits.orbit(k_max, m)
            if not runs[k_max][0]:
                lo, hi = k_max, k_max + 1
        while hi <= k_max:
            runs[hi] = orbits.orbit(hi, m)
            if runs[hi][0]:
                break
            lo, hi = hi, 2 * hi
        hi = min(hi, k_max + 1)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            runs[mid] = orbits.orbit(mid, m)
            if runs[mid][0]:
                hi = mid
            else:
                lo = mid
        resolved += lo
        longest = max(longest, runs[lo][1])
        life = max(runs[lo][1], runs.get(hi, (0, 0))[1])
        if life < p_max and not orbits.read(m + life):
            horizon = True
        # the first 8 unresolved orbits in (m, k) order; orbit hi is in runs
        for k in range(hi, min(k_max, hi + 7 - len(unresolved)) + 1):
            unresolved.append([k, m, (runs.get(k) or orbits.orbit(k, m))[0]])
    return {
        "orbits_vanishing": resolved,
        "orbits_unresolved": k_max * m_max - resolved,
        "unresolved_sample": unresolved,
        "longest_vanishing_orbit": longest,
        "horizon_exhausted": horizon,
    }


class _OrbitPaths:
    """The orbits (k, m) of `_orbit_evidence`, each distinct one stepped once.

    The DRFs are deterministic, so two orbits that hold the same value
    before the same link share the rest of their path.  Every start
    m <= m_max reaches link m_max, so orbit (k, m) is stepped plainly over
    links m, ..., m_max - 1 and then follows the path of its value there.
    A path keeps only its frontier: its value (0 once it vanished, cap + 1
    once it capped) and the number of links applied.  It is stepped on
    only while it is alive and an orbit's window, links m .. m + p_max - 1,
    reaches past the frontier.  A path still at link m_max has taken no
    step, so its value may be a start k above the cap, which is alive.
    Starts come in increasing order, so each window ends one link after
    the last and never behind a frontier.  `walk` steps a value with
    `drf.chain_walk` over the links already read, and reads ahead in
    doubling chunks only when it reaches their end, so it never steps an
    empty run of links.  The links come from one `links_from(1)` stream,
    so a later chunk goes on where the last one stopped, and once the
    stream ends every later read finds it ended.
    """

    def __init__(self, seq: LinkSequence, m_max: int, p_max: int):
        self.stream = seq.links_from(1)
        self.p_max = p_max
        self.meet = m_max - 1  # links applied before link m_max
        self.links: list[tuple[int, int]] = []  # (n, 2m) of links 1, 2, ...
        self.paths: dict[int, list[int]] = {}  # value at link m_max -> frontier

    def read(self, count: int) -> bool:
        """Extend `links` to `count` links; False when they are not known."""
        links = self.links
        if len(links) < count:
            links += islice(self.stream, count - len(links))
        return len(links) >= count

    def walk(self, v: int, pos: int, end: int) -> tuple[int, int]:
        """Apply links pos + 1, ..., end to v, stopping where it vanishes,
        caps or the links run out: (value, links applied)."""
        links, cap = self.links, _ORBIT_VALUE_CAP
        while pos < end:
            if pos >= len(links):
                # read ahead in doubling chunks, within the window
                self.read(min(end, max(2 * pos, self.meet + 1)))
                if pos >= len(links):
                    break  # the links ran out
            # a slice, not islice: islice would skip pos links on every chunk
            v, applied = chain_walk(links[pos:end], v, cap)
            pos += applied
            # the run was not empty, so a value above the cap came from a step
            if not 0 < v <= cap:
                break
        return v, pos

    def orbit(self, k: int, m: int) -> tuple[int, int]:
        """(final value, steps taken) of orbit (k, m)."""
        start = m - 1
        end = start + self.p_max
        cap, meet = _ORBIT_VALUE_CAP, self.meet
        v, pos = self.walk(k, start, min(end, meet))
        # a value above the cap is frozen only after a step: k itself is not
        if pos == meet < end and v and (v <= cap or pos == start):
            path = self.paths.setdefault(v, [v, pos])
            if path[1] < end and path[0] and (path[0] <= cap or path[1] == meet):
                path[:] = self.walk(path[0], path[1], end)
            v, pos = path
        return v, pos - start


_DESCENT_CHECK_MAX = 4096  # the most starts a periodic descent check runs


def _offset_sum(period: Period) -> Fraction:
    """sum over j of prod_{i>j} 2m_i/n_i, the slope times sum_j prod_{i<=j} tau_i."""
    return period.slope * sum(period.block_partials, Fraction(0))


def _decide_periodic_orbits(seq, period: Period) -> ShrinkVerdict:
    """The orbit certificate of a periodic variant, decided by its slope: it
    states the descent check or the period trace, which the verifier runs."""
    a = period.slope
    if a <= 1:
        # the default horizon, not the caller's: horizons shape only Unknown evidence
        bound = (a.numerator + a.denominator) * len(period.pairs)
        k_star = min(max(bound, DEFAULT_K_MAX), _DESCENT_CHECK_MAX)
        return _descent_verdict(seq, a, k_star, _trace_orbit(period.pairs, 8))
    offsets = _offset_sum(period)
    return _ascent_verdict(seq, period, a, offsets, int(offsets / (a - 1)) + 1)


def _descent_verdict(seq, a: Fraction, k_star: int, sample: list[int]) -> ShrinkVerdict:
    """Slope a <= 1: the descent g(k) < k for 1 <= k <= k_star, and sample,
    an orbit over repeated periods."""
    cert = {
        "kind": "orbit_periodic",
        "slope": str(a),
        "descent": (
            f"g(k) < k verified for 1 <= k <= {k_star}; "
            f"each step satisfies f(v) < (2m/n) v, so g(k) < {a} k <= k for all k"
        ),
        "checked_upto": k_star,
        "sample_orbit": sample,
    }
    return ShrinkVerdict(SHRINKS, "orbit_periodic", cert, seq)


def _ascent_verdict(seq, period: Period, a: Fraction, offsets: Fraction, k0: int) -> ShrinkVerdict:
    """Slope a > 1: the trace of k0 over one period, which must end at or
    above k0."""
    cert = {
        "kind": "orbit_periodic",
        "slope": str(a),
        "offset_sum": str(offsets),
        "k0": k0,
        "period_trace_from_k0": chain_orbit(period.pairs, k0),
        "monotone_argument": (
            "g is monotone with g(k0) >= k0, so the orbit of "
            "k0 from the start of any period never drops below k0"
        ),
        "start_index": len(period.head) + 1,
    }
    return ShrinkVerdict(DOES_NOT_SHRINK, "orbit_periodic", cert, seq)


def _trace_orbit(pairs, k: int) -> list[int]:
    """The orbit of k >= 1 over repeated periods, cut at 64 values or at
    the end of the first period that ends at 0."""
    values = [k]
    while len(values) < 64 and values[-1]:
        values += chain_orbit(pairs[: 64 - len(values)], values[-1])[1:]
    return values


def _telescoping_certificate(seq: GeneratorSequence) -> ShrinkVerdict | str:
    """Check both pair alignments for a two-step composite of k -> k - 1."""
    for label, pair in _alignments(seq).items():
        verdict = _telescoping_verdict(seq, label, pair)
        if verdict is not None:
            return verdict
    return "no pair alignment telescopes to k -> k - 1"


def _telescoping_verdict(seq, label: str, pair: tuple[Branch, Branch]) -> ShrinkVerdict | None:
    """The telescoping pairs of the alignment label, whose branches are
    pair, or None when they have no pair slope."""
    c_poly = _pair_slope(*pair)
    if c_poly is None:
        return None
    c = c_poly.text("s")
    cert = {
        "kind": "telescoping_pairs",
        "alignment": label,
        "pair_slope": c,
        "identity": f"2*m_first = ({c}) * n_first and n_second = 2*m_second * ({c})",
        "numeric_check": (
            "two-step composite is k-1 (k-2 when the pair slope is 1) for s <= 50, k <= 1000"
        ),
        "conclusion": "orbits decrease by at least one per aligned pair, so every orbit reaches 0",
    }
    return ShrinkVerdict(SHRINKS, "telescoping_pairs", cert, seq)


def _alignments(seq: GeneratorSequence) -> dict[str, tuple[Branch, Branch]]:
    """The two ways to pair the links of a two-case generator, odd-first
    first: label -> (branch of the pair's first link, of its second)."""
    even, odd = seq.branches
    return {f"{a.name}_then_{b.name}": (a, b) for a, b in ((odd, even), (even, odd))}


def _pair_slope(first: Branch, second: Branch) -> Optional[IntPoly]:
    """The pair slope c = 2 m_first / n_first, an integer polynomial >= 1,
    when the next link after first's link s is second's link s + shift with
    n_second = 2 m_second c; None otherwise."""
    c = first.m.scaled(2).divide_exact(first.n)
    if c is None or first.violation(c - IntPoly.const(1)) is not None:
        return None
    shift = second.param(first.index(0) + 1)
    if second.n.shifted_arg(shift) != second.m.shifted_arg(shift).scaled(2) * c:
        return None
    return c


def _telescopes_numerically(seq, first: Branch) -> bool:
    """The composite over an aligned pair must be exactly k-1, except that
    a pair slope of 1 gives max(k-2, 0); both decrement.  Checked for the
    pairs s = first.first, ..., 50, whose links are read in one run."""
    start = first.index(first.first)
    pairs = seq.link_pairs(start, first.index(50) + 2 - start)
    return all(
        _pair_decrements(*pairs[j : j + 2])
        for j in (first.index(s) - start for s in range(first.first, 51))
    )


def _pair_decrements(first: tuple[int, int], second: tuple[int, int]) -> bool:
    """Whether the DRFs of two links, given as (n, 2m), compose to
    h(k) = max(k - drop, 0) for every k <= 1000, where drop is 1 when
    2m // n of the first link is above 1 and 2 otherwise.

    Reduced by its gcd g, a link's (n', 2m') = (n, 2m)/g gives
    f(v + n') = f(v) + 2m' for v >= 1.  So with L = n1' n2'/gcd(2m1', n2'),
    f1(k + L) = f1(k) + (2m1' / gcd(2m1', n2')) n2' wherever k >= 1, and
    h(k + L) = h(k) + L wherever f1(k) >= 1, from k = n1 // 2m1 + 1 on,
    exactly when the composite slope 2m1 2m2 / (n1 n2) is 1.  Then
    h(k) - max(k - drop, 0) has period L from k0 = max(n1 // 2m1 + 1, drop)
    on, so k = 1, ..., k0 + L - 1 stand for every k; otherwise all 1000
    are checked."""
    (n1, two_m1), (n2, two_m2) = first, second
    drop = 1 if two_m1 // n1 > 1 else 2
    upto = 1000
    if two_m1 * two_m2 == n1 * n2:
        g1, g2 = gcd(n1, two_m1), gcd(n2, two_m2)
        period = n1 // g1 * (n2 // g2) // gcd(two_m1 // g1, n2 // g2)
        upto = min(upto, max(n1 // two_m1 + 1, drop) + period - 1)
    ks = range(1, upto + 1)
    return chain_steps((first, second), ks) == [max(k - drop, 0) for k in ks]


# -- aggregation ---------------------------------------------------------------------


def decide(
    seq: LinkSequence,
    k_max: int = DEFAULT_K_MAX,
    m_max: int = DEFAULT_M_MAX,
    p_max: int = DEFAULT_P_MAX,
) -> ShrinkVerdict:
    """Run every applicable criterion, the gap criterion on a `GapSequence`
    included, enforce agreement, and return the first verdict in the order
    below, corroborated by the others (Unknown with orbit evidence when
    every criterion declines, each with its reason)."""
    product = periodic_product(seq)
    convergent = convergent_tau_series(seq)
    divergent = divergent_weighted_tau_series(seq)
    rows = [
        ("periodic_product", product),
        ("sher_armentrout", sher_armentrout(seq)),
        ("bounded_widths", _bounded_widths(seq, convergent, divergent)),
        ("convergent_tau_series", convergent),
        ("divergent_weighted_tau_series", divergent),
        ("orbit_proof", _orbit_proof(seq)),
        ("ancel_starbird", ancel_starbird(seq, product)),
    ]
    return _conclude(seq, rows, k_max, m_max, p_max)


def _conclude(seq, rows, k_max: int, m_max: int, p_max: int) -> ShrinkVerdict:
    """The first verdict of rows, (criterion, verdict or reason) pairs, corroborated
    by the others; Unknown with orbit evidence when every row declines."""
    if k_max < 1 or m_max < 1 or p_max < 1:
        raise ValueError("horizons must be >= 1")
    verdicts = [v for _, v in rows if isinstance(v, ShrinkVerdict)]
    declined = tuple((name, v) for name, v in rows if isinstance(v, str))
    if verdicts:
        return _corroborated(verdicts[0], verdicts[1:], declined)
    cert = {"kind": "orbit_evidence", "horizons": [k_max, m_max, p_max]}
    evidence = _orbit_evidence(seq, k_max, m_max, p_max)
    return ShrinkVerdict(UNKNOWN, "orbit_evidence", cert, seq, declined=declined, evidence=evidence)


def _corroborated(primary: ShrinkVerdict, others: list, declined=()) -> ShrinkVerdict:
    """primary, corroborated by every verdict of others, with the declined
    rows; any of others with another outcome is an internal contradiction."""
    if any(v.outcome != primary.outcome for v in others):
        verdicts = [(v.criterion, v.outcome) for v in (primary, *others)]
        raise VerdictConsistencyError(f"contradictory verdicts: {verdicts}")
    corroborating = tuple((v.criterion, v.outcome) for v in others)
    return dataclasses.replace(primary, corroborating=corroborating, declined=declined)


# -- certificate re-checking ------------------------------------------------------------


def verify_certificate(verdict: ShrinkVerdict) -> bool:
    """Re-check a verdict's certificate against its sequence.

    The certificate is rebuilt on the sequence by the builder of the
    criterion that wrote it, from the certificate's free parameters: the
    ratio and start index of a geometric ratio or a ratio test, the start
    index of a term bound, the descent range and sample orbit or the k0 of
    a periodic orbit certificate, the alignment of telescoping pairs, and
    those of a bounded-widths inner certificate.  Every other field is the
    builder's.  The rebuilt verdict must have the same outcome and an equal
    certificate.  The checks that a certificate states and no producer
    runs are run here: the ranges of the free parameters, the periodic
    descent, the sample orbit, the period trace from k0 and the
    telescoping pairs.  A failed check, a kind or method no criterion
    writes, or a malformed field yields False.  The rebuild shares the
    producers' code, so it finds a certificate that is forged or moved to
    another sequence, not a fault in that code.
    """
    try:
        rebuilt = _rebuild(verdict.certificate, verdict.sequence)
    except (HorizonError, KeyError, ValueError, TypeError, ZeroDivisionError):
        return False
    return (
        isinstance(rebuilt, ShrinkVerdict)
        and rebuilt.outcome == verdict.outcome
        and rebuilt.certificate == verdict.certificate
    )


def _rebuild(cert: dict, seq: LinkSequence) -> ShrinkVerdict | str | None:
    """What the criterion of cert builds on seq from cert's free parameters,
    or None when a check that cert states fails."""
    kind, method = cert["kind"], cert.get("method")
    if kind == "periodic_product":
        return periodic_product(seq)
    if kind == "sher_armentrout":
        return sher_armentrout(seq)
    if kind == "divergent_weighted_tau_series":
        return divergent_weighted_tau_series(seq)
    if kind == "convergent_tau_series" and method != "geometric_ratio":
        return convergent_tau_series(seq) if cert["k0"] > Fraction(cert["exact_sum"]) else None
    if kind == "convergent_tau_series":
        r, i0 = Fraction(cert["r"]), cert["i0"]
        # one prefix partial per link before i0: a forged i0 is refused unread
        if len(cert["prefix_partial_sums"]) != i0 - 1 or _geometric_fault(seq, r, i0):
            return None
        return _geometric_verdict(seq, r, i0) if cert["k0"] > Fraction(cert["bound"]) else None
    if kind == "bounded_widths":
        # only a tau-series certificate decides; each is rebuilt in its own slot
        inner = cert["inner"]
        if inner["kind"] == "convergent_tau_series":
            return _bounded_widths(seq, _rebuild(inner, seq), None)
        if inner["kind"] == "divergent_weighted_tau_series":
            return _bounded_widths(seq, None, _rebuild(inner, seq))
        return None
    if kind == "ancel_starbird" and method == "ratio_test":
        r, i0 = Fraction(cert["r"]), cert["i0"]
        if not isinstance(seq, GapSequence) or seq.kind != "poly" or seq.poly.is_zero():
            return None
        if not 0 < r < 1 or _ratio_margin(seq.poly, r).first_negative(i0) is not None:
            return None
        return _ratio_test_verdict(seq, r, i0)
    if kind == "ancel_starbird" and method == "term_bound":
        # from i0 on, c_i / 2^i = coeff + extra(i) / 2^i >= coeff >= 1: divergence
        i0 = cert["i0"]
        if not isinstance(seq, GapSequence) or seq.kind != "two_pow" or i0 < 1:
            return None
        return _term_bound_verdict(seq, i0) if seq.poly.first_negative(i0) is None else None
    if kind == "ancel_starbird":
        return ancel_starbird(seq)
    if kind == "orbit_periodic":
        return _rebuild_orbit_periodic(cert, seq)
    if kind == "telescoping_pairs":
        if not isinstance(seq, GeneratorSequence) or not seq.two_case:
            return None
        label = cert["alignment"]
        pair = _alignments(seq).get(label)
        verdict = None if pair is None else _telescoping_verdict(seq, label, pair)
        return verdict if verdict and _telescopes_numerically(seq, pair[0]) else None
    if kind == "orbit_evidence":
        return ShrinkVerdict(UNKNOWN, kind, cert, seq)  # an Unknown certifies nothing
    return None


def _rebuild_orbit_periodic(cert: dict, seq: LinkSequence) -> ShrinkVerdict | None:
    """The descent certificate when the slope is at most 1, else the ascent."""
    period = seq.one_period
    if period is None:
        return None
    a = period.slope
    if a <= 1:
        upto, trace = cert["checked_upto"], cert["sample_orbit"]
        if not 1 <= upto <= _DESCENT_CHECK_MAX or period.ascent(upto) is not None:
            return None
        # the orbit of trace[0] over repeated periods; DRFs start at k >= 0
        if not trace or trace[0] < 0:
            return None
        if trace != chain_orbit((period.pairs * len(trace))[: len(trace) - 1], trace[0]):
            return None
        return _descent_verdict(seq, a, upto, trace)
    k0 = cert["k0"]
    if k0 < 1:
        return None
    verdict = _ascent_verdict(seq, period, a, _offset_sum(period), k0)
    return verdict if verdict.certificate["period_trace_from_k0"][-1] >= k0 else None
