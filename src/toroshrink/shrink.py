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
  * mixed (2,1)/(1,1) sequences with gaps c_i shrink iff sum c_i / 2^i
    diverges.

No infinite series is ever decided numerically: a verdict requires a
symbolic certificate (periodic product, geometric ratio, term bound,
ratio test, harmonic comparison, or a telescoping composite), validated
against the sequence variant, and every certificate can be re-checked
from the raw sequence by :func:`verify_certificate`.  Inputs outside the
reach of every criterion yield an honest Unknown with orbit evidence.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .drf import chain_step
from .sequences import (
    Branch,
    ExplicitSequence,
    GapSequence,
    GeneratorSequence,
    HorizonError,
    IntPoly,
    LinkSequence,
    Period,
    PeriodicSequence,
    partial_products,
    tau,
)

__all__ = [
    "SHRINKS",
    "DOES_NOT_SHRINK",
    "UNKNOWN",
    "ShrinkVerdict",
    "CertificateError",
    "VerdictConsistencyError",
    "GeometricRatio",
    "UserBound",
    "HarmonicComparison",
    "PeriodicProduct",
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


class CertificateError(ValueError):
    """A supplied certificate failed validation against the sequence."""


class VerdictConsistencyError(RuntimeError):
    """Two criteria produced contradictory verdicts: an internal bug."""


# -- user-suppliable certificate requests -------------------------------------


@dataclass(frozen=True)
class GeometricRatio:
    """Claim: tau_i <= r for all i >= i0 (blockwise when block > 1)."""

    r: Fraction
    i0: int = 1
    block: int = 1


@dataclass(frozen=True)
class UserBound:
    """Claim: sum_j prod_{i<=j} tau_i <= bound, justified off-tool."""

    bound: Fraction
    note: str = ""


@dataclass(frozen=True)
class HarmonicComparison:
    """Claim: (1/n_j) prod_{i<=j} tau_i >= c/j for all j >= i0."""

    c: Fraction
    i0: int = 1


@dataclass(frozen=True)
class PeriodicProduct:
    """Claim: the sequence is periodic with period product >= 1."""


# -- verdicts -------------------------------------------------------------------


@dataclass(frozen=True)
class ShrinkVerdict:
    outcome: str
    criterion: str
    certificate: dict
    sequence: LinkSequence
    corroborating: tuple[tuple[str, str], ...] = ()
    evidence: dict | None = None

    @property
    def exit_code(self) -> int:
        return {SHRINKS: 0, DOES_NOT_SHRINK: 1, UNKNOWN: 2}[self.outcome]

    def summary(self) -> str:
        return f"{self.outcome} (criterion: {self.criterion})"


# -- exact helpers ---------------------------------------------------------------


def _taus(seq: LinkSequence, upto: int) -> list[Fraction]:
    return [seq.tau(i) for i in range(1, upto + 1)]


# -- the periodic product criterion ----------------------------------------------


def periodic_product(seq: LinkSequence) -> Optional[ShrinkVerdict]:
    """Exact decision for (eventually) periodic sequences: shrinks iff the
    product of tau over one period is at least 1."""
    period = seq.one_period
    if period is None:
        return None
    outcome = SHRINKS if period.product >= 1 else DOES_NOT_SHRINK
    cert = {
        "kind": "periodic_product",
        "period": len(period.links),
        "prefix_skipped": len(period.prefix),
        "taus": [str(t) for t in period.taus],
        "product": str(period.product),
        "shrinks_iff": "product >= 1",
    }
    return ShrinkVerdict(outcome, "periodic_product", cert, seq)


# -- strictly expanding stages -----------------------------------------------------


def sher_armentrout(seq: LinkSequence) -> Optional[ShrinkVerdict]:
    """No-shrink when n_i < 2 m_i for every i.

    The hypothesis is checked finitely for the periodic variants and
    symbolically (polynomial positivity of 2m - n - 1) for generators;
    it is never concluded from probing alone.
    """
    period = seq.one_period
    if period is not None:
        specs = period.prefix + period.links
        if all(spec.n < 2 * spec.m for spec in specs):
            cert = {
                "kind": "sher_armentrout",
                "scope": "finite",
                "checked": [[spec.n, spec.m] for spec in specs],
                "consequence": "every stage satisfies D(k) >= k for k >= 1",
            }
            return ShrinkVerdict(DOES_NOT_SHRINK, "sher_armentrout", cert, seq)
        return None
    if isinstance(seq, GeneratorSequence):
        witness_data = []
        for b in seq.branches:
            margin = _expansion_margin(b)
            if b.violation(margin) is not None:
                return None
            witness_data.append({"branch": b.name, "margin": margin.text("s"), "from": b.first})
        cert = {
            "kind": "sher_armentrout",
            "scope": "symbolic",
            "branches": witness_data,
            "consequence": "every stage satisfies D(k) >= k for k >= 1",
        }
        return ShrinkVerdict(DOES_NOT_SHRINK, "sher_armentrout", cert, seq)
    return None


def _expansion_margin(b: Branch) -> IntPoly:
    """2m - n - 1, nonnegative exactly where the branch's stage expands."""
    return b.m.scaled(2) - b.n - IntPoly.const(1)


# -- convergence of sum prod tau ---------------------------------------------------


def _periodic_exact_sum(period: Period) -> Fraction:
    """Exact value of sum_j prod_{i<=j} tau_i when the period product is
    < 1: the prefix terms, plus the first period's terms over 1 - product."""
    head = len(period.prefix)
    tail = sum(period.partials[head:], Fraction(0)) / (1 - period.product)
    return sum(period.partials[:head], Fraction(0)) + tail


def convergent_tau_series(
    seq: LinkSequence, certificate=None
) -> Optional[ShrinkVerdict]:
    """No-shrink from convergence of sum_j prod_{i<=j} tau_i.

    With no certificate supplied, a geometric one is derived automatically
    for periodic sequences (exact sum) and for generators whose tau is
    provably bounded by some r < 1 from an index onward.  For a generator,
    the limit of n/(2m) on each branch is read first from the leading
    coefficients (below 1 iff 2m - n has the degree of m and a positive
    leading coefficient); if any branch fails, no ratio exists.  Otherwise
    r is the largest tau over 64 links from i0 = 1, 2, 4, 8 in turn, and
    the first r < 1 that `IntPoly.ge_from` proves is an upper bound from
    i0 on, branchwise, is the certificate.  A supplied but invalid
    certificate is rejected with the first violating index.
    """
    if certificate is None:
        return _auto_convergent(seq)
    if isinstance(certificate, GeometricRatio):
        _validate_geometric(seq, certificate)
        return _geometric_verdict(seq, certificate)
    if isinstance(certificate, UserBound):
        probe_to = _PROBE
        if seq.known_bound() is not None:
            probe_to = min(probe_to, seq.known_bound())
        partials = partial_products(_taus(seq, probe_to))
        sums = []
        acc = Fraction(0)
        for p in partials:
            acc += p
            sums.append(acc)
            if acc > certificate.bound:
                raise CertificateError(
                    f"partial sum at index {len(sums)} already exceeds the "
                    f"declared bound {certificate.bound}"
                )
        k0 = int(certificate.bound) + 1
        cert = {
            "kind": "convergent_tau_series",
            "method": "user_bound",
            "bound": str(certificate.bound),
            "note": certificate.note,
            "assumed": True,
            "probed_to": probe_to,
            "k0": k0,
        }
        return ShrinkVerdict(DOES_NOT_SHRINK, "convergent_tau_series", cert, seq)
    raise CertificateError(f"unsupported certificate {certificate!r}")


def _auto_convergent(seq: LinkSequence) -> Optional[ShrinkVerdict]:
    period = seq.one_period
    if period is not None and period.product < 1:
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
                return None
        ratios: list[tuple[int, int]] = []  # (n_i, 2 m_i), each link read once
        for i0 in (1, 2, 4, 8):
            for i in range(len(ratios) + 1, i0 + _PROBE):
                spec = seq.link(i)
                ratios.append((spec.n, 2 * spec.m))
            bn, bd = ratios[i0 - 1]
            for n, d in ratios[i0:]:
                if n * bd > bn * d:
                    bn, bd = n, d
            if bn >= bd:
                continue
            cert = GeometricRatio(r=Fraction(bn, bd), i0=i0)
            try:
                _validate_geometric(seq, cert)
            except CertificateError:
                continue
            return _geometric_verdict(seq, cert)
    return None


def _geometric_verdict(seq: LinkSequence, cert: GeometricRatio) -> ShrinkVerdict:
    bound, k0, prefix = _geometric_bound(seq, cert)
    data = {
        "kind": "convergent_tau_series",
        "method": "geometric_ratio",
        "r": str(cert.r),
        "i0": cert.i0,
        "block": cert.block,
        "prefix_partial_sums": [str(p) for p in prefix],
        "bound": str(bound),
        "k0": k0,
    }
    return ShrinkVerdict(DOES_NOT_SHRINK, "convergent_tau_series", data, seq)


def _validate_geometric(seq: LinkSequence, cert: GeometricRatio) -> None:
    if cert.r >= 1 or cert.r <= 0:
        raise CertificateError("geometric ratio must satisfy 0 < r < 1")
    period = seq.one_period
    if cert.block != 1:
        if period is None or cert.block != len(period.links):
            raise CertificateError("blockwise ratios only apply to the period length")
        if cert.i0 != len(period.prefix) + 1:
            raise CertificateError("blockwise ratios must start at the periodic tail")
    if period is not None:
        prefix_len = len(period.prefix)
        if cert.block == 1:
            # every periodic position recurs beyond any i0, so all must obey r
            for offset, t in enumerate(period.taus):
                if t > cert.r:
                    raise CertificateError(
                        f"tau at index {prefix_len + offset + 1} exceeds r"
                    )
            for i in range(cert.i0, prefix_len + 1):
                if seq.tau(i) > cert.r:
                    raise CertificateError(f"tau at index {i} exceeds r")
        elif period.product > cert.r:
            raise CertificateError("period product exceeds the declared block ratio")
        return
    if isinstance(seq, GeneratorSequence):
        if cert.block != 1:
            raise CertificateError("blockwise ratios only apply to periodic sequences")
        # tau_i <= r  <=>  den(r) * n_i <= 2 num(r) * m_i, branchwise
        for b in seq.branches:
            margin = b.m.scaled(2 * cert.r.numerator) - b.n.scaled(cert.r.denominator)
            index = b.violation(margin, cert.i0)
            if index is not None:
                raise CertificateError(f"tau at index {index} exceeds r")
        return
    raise CertificateError("cannot validate a geometric ratio on this variant")


def _geometric_bound(seq: LinkSequence, cert: GeometricRatio):
    """Exact upper bound for the tau series from a validated ratio claim."""
    i0 = cert.i0
    partials = partial_products(_taus(seq, i0 - 1))
    prefix_sum = sum(partials, Fraction(0))
    p0 = partials[-1] if partials else Fraction(1)
    if cert.block == 1:
        tail = p0 * cert.r / (1 - cert.r)
    else:
        # validated: the blocks are whole periods, starting after the prefix
        tail = p0 * sum(seq.one_period.block_partials, Fraction(0)) / (1 - cert.r)
    bound = prefix_sum + tail
    return bound, int(bound) + 1, partials


# -- divergence of the weighted series ----------------------------------------------


def divergent_weighted_tau_series(
    seq: LinkSequence, certificate=None
) -> Optional[ShrinkVerdict]:
    """Shrink verdict from divergence of sum_j (1/n_j) prod_{i<=j} tau_i."""
    if certificate is None:
        certificate = _auto_divergent_cert(seq)
        if certificate is None:
            return None
    elif isinstance(certificate, HarmonicComparison):
        # an automatic floor needs no probe: _auto_divergent_cert proved it
        _validate_harmonic(seq, certificate)
    if isinstance(certificate, PeriodicProduct):
        period = seq.one_period
        if period is None:
            raise CertificateError("periodic-product certificates need a periodic sequence")
        if period.product < 1:
            raise CertificateError("period product is below 1")
        n_max = _sup_widths(seq)
        cert = {
            "kind": "divergent_weighted_tau_series",
            "method": "periodic_product",
            "product": str(period.product),
            # with period product >= 1 no later partial product is smaller
            "term_floor": str(min(period.partials) / n_max),
            "n_max": n_max,
        }
        return ShrinkVerdict(SHRINKS, "divergent_weighted_tau_series", cert, seq)
    if isinstance(certificate, HarmonicComparison):
        cert = {
            "kind": "divergent_weighted_tau_series",
            "method": "harmonic_comparison",
            "c": str(certificate.c),
            "i0": certificate.i0,
        }
        return ShrinkVerdict(SHRINKS, "divergent_weighted_tau_series", cert, seq)
    raise CertificateError(f"unsupported certificate {certificate!r}")


def _auto_divergent_cert(seq: LinkSequence):
    period = seq.one_period
    if period is not None:
        return PeriodicProduct() if period.product >= 1 else None
    if isinstance(seq, GeneratorSequence) and _harmonic_floor_fault(seq) is None:
        # every partial product is >= 1, so term_j >= 1/n_max >= (1/n_max)/j
        return HarmonicComparison(c=Fraction(1, _sup_widths(seq)), i0=1)
    return None


def _harmonic_floor_fault(seq: GeneratorSequence) -> Optional[str]:
    """Why the widths are not bounded or tau_i >= 1 fails somewhere, or None."""
    for b in seq.branches:
        if not b.n.is_constant():
            return "harmonic floors need bounded widths n_i"
        index = b.violation(b.n - b.m.scaled(2))
        if index is not None:
            return f"tau falls below 1 at index {index}; cannot maintain the harmonic floor"
    return None


def _validate_harmonic(seq: LinkSequence, cert: HarmonicComparison) -> None:
    if cert.c <= 0:
        raise CertificateError("harmonic comparison needs c > 0")
    if cert.i0 < 1:
        raise CertificateError("harmonic comparison needs i0 >= 1")
    probe_to = cert.i0 + _PROBE
    try:
        specs = [seq.link(j) for j in range(1, probe_to + 1)]
    except HorizonError:
        raise CertificateError("cannot validate on an explicit tail-unknown sequence")
    partials = partial_products(tau(spec) for spec in specs)
    for j in range(cert.i0, probe_to + 1):
        # partial_j / n_j >= c / j, cross-multiplied
        if partials[j - 1] * j < cert.c * specs[j - 1].n:
            raise CertificateError(f"weighted term at index {j} falls below c/j")
    # beyond the probe window the claim must hold structurally
    period = seq.one_period
    if period is not None:
        if period.product < 1:
            raise CertificateError(
                "periodic weighted terms decay geometrically (period product < 1); "
                "no harmonic floor can hold"
            )
        return
    if isinstance(seq, GeneratorSequence):
        fault = _harmonic_floor_fault(seq)
        if fault is not None:
            raise CertificateError(fault)
        return
    raise CertificateError("cannot validate a harmonic floor on this variant")


# -- bounded widths: the two-sided criterion ------------------------------------------


def bounded_widths(seq: LinkSequence) -> Optional[ShrinkVerdict]:
    """When sup n_i < infinity the tau series decides both ways: shrinks
    iff sum prod tau diverges."""
    if _sup_widths(seq) is None:
        return None
    convergent = convergent_tau_series(seq)
    divergent = divergent_weighted_tau_series(seq) if convergent is None else None
    return _bounded_widths(seq, convergent, divergent)


def _bounded_widths(seq, convergent, divergent) -> Optional[ShrinkVerdict]:
    """The bounded-widths verdict read off the automatic verdicts of the
    two tau-series criteria."""
    sup_n = _sup_widths(seq)
    if sup_n is None:
        return None
    if convergent is not None:
        inner, outcome, decision = convergent, DOES_NOT_SHRINK, "tau series converges"
    elif divergent is not None:
        inner, outcome, decision = divergent, SHRINKS, "tau series diverges"
    else:
        return None
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
        return max(spec.n for spec in period.prefix + period.links)
    if isinstance(seq, GeneratorSequence) and all(b.n.is_constant() for b in seq.branches):
        return max(b.n(1) for b in seq.branches)
    return None


# -- mixed Bing-Whitehead sequences -----------------------------------------------------


def ancel_starbird(gaps: GapSequence) -> ShrinkVerdict:
    """Verdict for a mixed (2,1)/(1,1) sequence given the gap counts c_i:
    shrinks iff sum c_i / 2^i diverges.

    Periodic gap patterns always converge (geometric bound) and are
    cross-checked against the periodic product criterion on the sequence
    they generate; polynomial gaps converge by an exact ratio test; gaps
    with a 2^i leading term diverge by a term bound.
    """
    seq = _gap_sequence_links(gaps)
    if gaps.kind == "explicit":
        partial = sum((gaps.term(i) for i in range(1, len(gaps.values) + 1)), Fraction(0))
        cert = {
            "kind": "ancel_starbird",
            "method": "undetermined",
            "partial_sum": str(partial),
            "known_gaps": list(gaps.values),
        }
        return ShrinkVerdict(
            UNKNOWN,
            "ancel_starbird",
            cert,
            seq,
            evidence={"reason": "gap tail is undeclared"},
        )
    if gaps.kind == "periodic":
        p = len(gaps.values)
        one_period = sum((gaps.term(i) for i in range(1, p + 1)), Fraction(0))
        total = one_period / (1 - Fraction(1, 2**p))
        cross = periodic_product(seq)
        if cross.outcome != DOES_NOT_SHRINK:
            raise VerdictConsistencyError(
                "periodic gaps must agree with the periodic product criterion"
            )
        cert = {
            "kind": "ancel_starbird",
            "method": "periodic_geometric",
            "gap_period": list(gaps.values),
            "exact_sum": str(total),
            "cross_check": cross.certificate,
        }
        return ShrinkVerdict(
            DOES_NOT_SHRINK,
            "ancel_starbird",
            cert,
            seq,
            corroborating=(("periodic_product", cross.outcome),),
        )
    if gaps.kind == "poly":
        if gaps.poly.is_zero():
            cert = {
                "kind": "ancel_starbird",
                "method": "zero_gaps",
                "exact_sum": "0",
            }
            return ShrinkVerdict(DOES_NOT_SHRINK, "ancel_starbird", cert, seq)
        r = Fraction(3, 4)
        i0 = _ratio_test_start(gaps.poly, r)
        prefix = sum((gaps.term(i) for i in range(1, i0)), Fraction(0))
        bound = prefix + gaps.term(i0) / (1 - r)
        cert = {
            "kind": "ancel_starbird",
            "method": "ratio_test",
            "gap_term": gaps.poly.text("i"),
            "r": str(r),
            "i0": i0,
            "bound": str(bound),
        }
        return ShrinkVerdict(DOES_NOT_SHRINK, "ancel_starbird", cert, seq)
    # two_pow: terms are bounded below by the leading coefficient
    extra = gaps.poly if gaps.poly is not None else IntPoly(())
    cert = {
        "kind": "ancel_starbird",
        "method": "term_bound",
        "delta": str(gaps.two_pow_coeff),
        "i0": 1,
        "two_pow_coeff": gaps.two_pow_coeff,
        "extra_term": extra.text("i"),
        "gap_term": f"{gaps.two_pow_coeff}*2^i"
        + (f" + {extra.text('i')}" if not extra.is_zero() else ""),
    }
    return ShrinkVerdict(SHRINKS, "ancel_starbird", cert, seq)


def _ratio_test_start(poly: IntPoly, r: Fraction) -> int:
    """Smallest i0 (by complete search) with c(i+1)/2 <= r * c(i) for all i >= i0."""
    margin = poly.scaled(2 * r.numerator) - poly.shifted_arg(1).scaled(r.denominator)
    i0 = 1
    for _ in range(10_000):
        ok, witness = margin.ge_from(0, i0)
        if ok:
            return i0
        i0 = witness + 1
    raise CertificateError("ratio test start not found")  # pragma: no cover


def _gap_sequence_links(gaps: GapSequence) -> LinkSequence:
    """The link sequence a gap description generates.  Closed-form gaps
    are cut down to their first 12 gaps, or fewer past 4096 links."""
    declared = gaps.kind in ("periodic", "explicit")
    links = []
    for c in gaps.values if declared else map(gaps.gap, range(1, 13)):
        links.extend([(2, 1)] * c)
        links.append((1, 1))
        if not declared and len(links) > 4096:
            break
    if gaps.kind == "periodic":
        return PeriodicSequence(tuple(links))
    return ExplicitSequence(tuple(links))


# -- orbit simulation and the periodic orbit decision -----------------------------------


_ORBIT_VALUE_CAP = 10**9


def orbit_decide(
    seq: LinkSequence,
    k_max: int = DEFAULT_K_MAX,
    m_max: int = DEFAULT_M_MAX,
    p_max: int = DEFAULT_P_MAX,
    collect_evidence: bool = True,
) -> ShrinkVerdict:
    """Decide through composed disc replicating functions.

    Periodic variants get a full decision: with g the one-period composite
    and a = prod(2m/n), a <= 1 forces g(k) < k for every k (each step
    satisfies f(v) < (2m/n) v), so all orbits vanish; a > 1 gives an
    explicit k0 with g(k0) >= k0, which by monotonicity pins the orbit at
    or above k0 forever.  A two-case generator whose aligned two-step
    composite telescopes to k -> k - 1 also shrinks.  Anything else is
    reported Unknown with orbit evidence; horizon exhaustion is flagged
    separately from a decision.
    """
    if k_max < 1 or m_max < 1 or p_max < 1:
        raise ValueError("horizons must be >= 1")
    period = seq.one_period
    if period is not None:
        verdict = _decide_periodic_orbits(seq, period, k_max)
        cross = periodic_product(seq)
        if cross.outcome != verdict.outcome:
            raise VerdictConsistencyError(
                f"orbit decision {verdict.outcome} contradicts the periodic "
                f"product criterion {cross.outcome}"
            )
        return dataclasses.replace(
            verdict, corroborating=(("periodic_product", cross.outcome),)
        )
    if isinstance(seq, GeneratorSequence) and seq.two_case:
        telescoped = _telescoping_certificate(seq)
        if telescoped is not None:
            return telescoped
    cert = {"kind": "orbit_evidence", "horizons": [k_max, m_max, p_max]}
    evidence = (
        _orbit_evidence(seq, k_max, m_max, p_max)
        if collect_evidence
        else {"skipped": "a criterion already decided this sequence"}
    )
    return ShrinkVerdict(UNKNOWN, "orbit_evidence", cert, seq, evidence=evidence)


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
    bisects: O(log K_m) orbit runs, and few of them above K_m, where an
    orbit that neither vanishes nor caps runs all p_max steps.  Links
    are fetched only as far as some orbit reaches.
    """
    links: list[tuple[int, int]] = []  # (n, 2m) of links 1, 2, ...

    def fetch(count: int) -> bool:
        """Extend `links` to `count` links; False when they are not known."""
        while len(links) < count:
            try:
                spec = seq.link(len(links) + 1)
            except HorizonError:
                return False
            links.append((spec.n, 2 * spec.m))
        return True

    cap = _ORBIT_VALUE_CAP

    def orbit(k: int, m: int) -> tuple[int, int]:
        """(final value, steps taken) of orbit (k, m)."""
        v = k
        pos = start = m - 1
        end = start + p_max
        while pos < end and fetch(pos + 1):
            # a slice, not islice: islice would skip pos links on every
            # link fetched at the frontier
            for n, two_m in links[pos:end]:
                pos += 1
                # drf.chain_step inlined: a call per step would dominate
                v = -(-two_m * v // n) - 1  # f(v), >= 0 since v >= 1
                if not v:
                    return 0, pos - start
                if v > cap:
                    return cap + 1, pos - start
        return v, pos - start

    resolved = 0
    unresolved: list[list[int]] = []
    horizon = False
    longest = 0
    for m in range(1, m_max + 1):
        runs = {0: (0, 0)}  # the orbit of 0 has vanished before any step
        lo, hi = 0, 1  # orbit lo vanishes; gallop until orbit hi does not
        while hi <= k_max:
            runs[hi] = orbit(hi, m)
            if runs[hi][0]:
                break
            lo, hi = hi, 2 * hi
        hi = min(hi, k_max + 1)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            runs[mid] = orbit(mid, m)
            if runs[mid][0]:
                hi = mid
            else:
                lo = mid
        resolved += lo
        longest = max(longest, runs[lo][1])
        life = max(runs[lo][1], runs.get(hi, (0, 0))[1])
        if life < p_max and not fetch(m + life):
            horizon = True
        # the first 8 unresolved orbits in (m, k) order
        for k in range(hi, min(k_max, hi + 7 - len(unresolved)) + 1):
            unresolved.append([k, m, (runs[k] if k in runs else orbit(k, m))[0]])
    return {
        "orbits_vanishing": resolved,
        "orbits_unresolved": k_max * m_max - resolved,
        "unresolved_sample": unresolved,
        "longest_vanishing_orbit": longest,
        "horizon_exhausted": horizon,
    }


def _spec_check_bound(period: Period) -> int:
    """Finite verification range for the one-period composite."""
    a = period.slope
    bound = (a.numerator + a.denominator) * len(period.links)
    return max(1, min(bound, 100_000))


def _decide_periodic_orbits(seq, period: Period, k_max) -> ShrinkVerdict:
    a = period.slope
    if a <= 1:
        k_star = min(max(_spec_check_bound(period), k_max), 4096)
        for k in range(1, k_star + 1):
            if period.composite(k) >= k:
                raise VerdictConsistencyError(
                    f"slope {a} <= 1 but the period composite does not descend at {k}"
                )
        trace = _trace_orbit(period.links, min(k_max, 8))
        cert = {
            "kind": "orbit_periodic",
            "slope": str(a),
            "descent": f"g(k) < k verified for 1 <= k <= {k_star}; "
            f"each step satisfies f(v) < (2m/n) v, so g(k) < {a} k <= k for all k",
            "checked_upto": k_star,
            "sample_orbit": trace,
        }
        return ShrinkVerdict(SHRINKS, "orbit_periodic", cert, seq)
    # sum over j of prod_{i>j} 2m_i/n_i, the slope times sum_j prod_{i<=j} tau_i
    offsets = a * sum(period.block_partials, Fraction(0))
    k0 = int(offsets / (a - 1)) + 1
    one_period = [k0]
    for spec in period.links:
        one_period.append(chain_step(spec, one_period[-1]))
    if one_period[-1] < k0:
        raise VerdictConsistencyError(
            f"slope {a} > 1 but g({k0}) = {one_period[-1]} < {k0}"
        )
    cert = {
        "kind": "orbit_periodic",
        "slope": str(a),
        "offset_sum": str(offsets),
        "k0": k0,
        "period_trace_from_k0": one_period,
        "monotone_argument": "g is monotone with g(k0) >= k0, so the orbit of "
        "k0 from the start of any period never drops below k0",
        "start_index": len(period.prefix) + 1,
    }
    return ShrinkVerdict(DOES_NOT_SHRINK, "orbit_periodic", cert, seq)


def _trace_orbit(links, k: int) -> list[int]:
    values = [k]
    v = k
    for _ in range(200):
        for spec in links:
            v = chain_step(spec, v)
            values.append(v)
        if v == 0:
            break
    return values[:64]


def _telescoping_certificate(seq: GeneratorSequence) -> Optional[ShrinkVerdict]:
    """Check both pair alignments for a two-step composite of k -> k - 1."""
    for label, (first, second) in _alignments(seq).items():
        c_poly = _pair_slope(first, second)
        if c_poly is None:
            continue
        if not _telescopes_numerically(seq, first, 50, 1000):
            raise VerdictConsistencyError(
                "telescoping identity verified symbolically but fails numerically"
            )
        c = c_poly.text("s")
        cert = {
            "kind": "telescoping_pairs",
            "alignment": label,
            "pair_slope": c,
            "identity": _telescoping_identity(c),
            "numeric_check": "two-step composite is k-1 (k-2 when the pair "
            "slope is 1) for s <= 50, k <= 1000",
            "conclusion": "orbits decrease by at least one per aligned pair, "
            "so every orbit reaches 0",
        }
        return ShrinkVerdict(SHRINKS, "telescoping_pairs", cert, seq)
    return None


def _telescoping_identity(c: str) -> str:
    return f"2*m_first = ({c}) * n_first and n_second = 2*m_second * ({c})"


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


def _telescopes_numerically(seq, first: Branch, s_max, k_max) -> bool:
    """The composite over an aligned pair must be exactly k-1, except that
    a pair slope of 1 gives max(k-2, 0); both decrement."""
    for s in range(first.first, s_max + 1):
        i = first.index(s)
        spec1, spec2 = seq.link(i), seq.link(i + 1)
        c = 2 * spec1.m // spec1.n
        for k in (1, 2, 3, 5, 17, k_max):
            expected = k - 1 if c > 1 else max(k - 2, 0)
            if chain_step(spec2, chain_step(spec1, k)) != expected:
                return False
    return True


# -- aggregation ---------------------------------------------------------------------


_PRIORITY = (
    "periodic_product",
    "sher_armentrout",
    "bounded_widths",
    "convergent_tau_series",
    "divergent_weighted_tau_series",
    "orbit_periodic",
    "telescoping_pairs",
)


def decide(
    seq: LinkSequence,
    k_max: int = DEFAULT_K_MAX,
    m_max: int = DEFAULT_M_MAX,
    p_max: int = DEFAULT_P_MAX,
) -> ShrinkVerdict:
    """Run every applicable criterion, enforce agreement, and return the
    strongest verdict (Unknown with orbit evidence when nothing fires)."""
    convergent = convergent_tau_series(seq)
    divergent = divergent_weighted_tau_series(seq)
    verdicts = [
        v
        for v in (
            periodic_product(seq),
            sher_armentrout(seq),
            _bounded_widths(seq, convergent, divergent),
            convergent,
            divergent,
        )
        if v is not None
    ]
    orbit_verdict = orbit_decide(
        seq, k_max, m_max, p_max, collect_evidence=not verdicts
    )
    if orbit_verdict.outcome != UNKNOWN:
        verdicts.append(orbit_verdict)
    decisive = [v for v in verdicts if v.outcome != UNKNOWN]
    outcomes = {v.outcome for v in decisive}
    if len(outcomes) > 1:
        raise VerdictConsistencyError(
            f"contradictory verdicts: "
            f"{[(v.criterion, v.outcome) for v in decisive]}"
        )
    if not decisive:
        return orbit_verdict
    decisive.sort(key=lambda v: _PRIORITY.index(v.criterion))
    primary = decisive[0]
    corroborating = tuple(
        (v.criterion, v.outcome) for v in decisive[1:]
    ) + primary.corroborating
    return dataclasses.replace(primary, corroborating=corroborating)


# -- certificate re-checking ------------------------------------------------------------


def verify_certificate(verdict: ShrinkVerdict) -> bool:
    """Independently re-evaluate a verdict's certificate from its sequence.

    Every arithmetic claim stored in the certificate is recomputed from
    the raw sequence; any mismatch, or an outcome that does not follow
    from the certified facts, yields False.
    """
    try:
        return _verify(verdict)
    except (CertificateError, VerdictConsistencyError, HorizonError, KeyError):
        return False
    except (ValueError, TypeError):
        return False


def _verify(verdict: ShrinkVerdict) -> bool:
    cert = verdict.certificate
    kind = cert.get("kind")
    seq = verdict.sequence
    period = seq.one_period
    if kind == "periodic_product":
        if period is None or len(period.links) != cert["period"]:
            return False
        if [str(t) for t in period.taus] != cert["taus"]:
            return False
        if str(period.product) != cert["product"]:
            return False
        expected = SHRINKS if period.product >= 1 else DOES_NOT_SHRINK
        return verdict.outcome == expected
    if kind == "sher_armentrout":
        if verdict.outcome != DOES_NOT_SHRINK:
            return False
        if cert["scope"] == "finite":
            if period is None:
                return False
            specs = period.prefix + period.links
            if [[s.n, s.m] for s in specs] != cert["checked"]:
                return False
            return all(s.n < 2 * s.m for s in specs)
        if cert["scope"] == "symbolic":
            if not isinstance(seq, GeneratorSequence):
                return False
            margins = [(b, _expansion_margin(b)) for b in seq.branches]
            witnesses = [
                {"branch": b.name, "margin": margin.text("s"), "from": b.first}
                for b, margin in margins
            ]
            if cert["branches"] != witnesses:
                return False
            return all(b.violation(margin) is None for b, margin in margins)
        return False
    if kind == "convergent_tau_series":
        if verdict.outcome != DOES_NOT_SHRINK:
            return False
        method = cert["method"]
        if method == "periodic_geometric":
            if period is None or period.product >= 1:
                return False
            total = _periodic_exact_sum(period)
            return (
                str(total) == cert["exact_sum"]
                and str(period.product) == cert["block_product"]
                and cert["k0"] == int(total) + 1
                and cert["k0"] > total
            )
        if method == "geometric_ratio":
            gc = GeometricRatio(
                r=Fraction(cert["r"]), i0=cert["i0"], block=cert.get("block", 1)
            )
            _validate_geometric(seq, gc)
            bound, k0, prefix = _geometric_bound(seq, gc)
            return (
                str(bound) == cert["bound"]
                and k0 == cert["k0"]
                and [str(p) for p in prefix] == cert["prefix_partial_sums"]
                and Fraction(cert["k0"]) > bound
            )
        if method == "user_bound":
            bound = Fraction(cert["bound"])
            partials = partial_products(_taus(seq, cert.get("probed_to", _PROBE)))
            acc = Fraction(0)
            for p in partials:
                acc += p
                if acc > bound:
                    return False
            return cert["k0"] == int(bound) + 1 and cert.get("assumed") is True
        return False
    if kind == "divergent_weighted_tau_series":
        if verdict.outcome != SHRINKS:
            return False
        method = cert["method"]
        if method == "periodic_product":
            if period is None:
                return False
            if str(period.product) != cert["product"] or period.product < 1:
                return False
            return str(min(period.partials) / _sup_widths(seq)) == cert["term_floor"]
        if method == "harmonic_comparison":
            _validate_harmonic(
                seq, HarmonicComparison(c=Fraction(cert["c"]), i0=cert["i0"])
            )
            return True
        return False
    if kind == "bounded_widths":
        if _sup_widths(seq) != cert["sup_n"]:
            return False
        inner = dict(cert["inner"])
        decisions = {
            "tau series converges": (DOES_NOT_SHRINK, "convergent_tau_series"),
            "tau series diverges": (SHRINKS, "divergent_weighted_tau_series"),
        }
        if decisions.get(cert["decision"]) != (verdict.outcome, inner["kind"]):
            return False
        return _verify(ShrinkVerdict(verdict.outcome, inner["kind"], inner, seq))
    if kind == "ancel_starbird":
        return _verify_ancel_starbird(verdict)
    if kind == "orbit_periodic":
        return _verify_orbit_periodic(verdict)
    if kind == "telescoping_pairs":
        return _verify_telescoping(verdict)
    if kind == "orbit_evidence":
        return verdict.outcome == UNKNOWN
    return False


def _verify_ancel_starbird(verdict: ShrinkVerdict) -> bool:
    cert = verdict.certificate
    method = cert["method"]
    if method == "undetermined":
        return verdict.outcome == UNKNOWN
    if method == "periodic_geometric":
        values = tuple(cert["gap_period"])
        gaps = GapSequence.periodic(values)
        p = len(values)
        one_period = sum((gaps.term(i) for i in range(1, p + 1)), Fraction(0))
        total = one_period / (1 - Fraction(1, 2**p))
        if str(total) != cert["exact_sum"]:
            return False
        return verdict.outcome == DOES_NOT_SHRINK
    if method == "zero_gaps":
        return verdict.outcome == DOES_NOT_SHRINK
    if method == "ratio_test":
        from .sequences import parse_poly

        poly = parse_poly(cert["gap_term"].replace(" ", ""))
        r = Fraction(cert["r"])
        i0 = cert["i0"]
        margin = poly.scaled(2 * r.numerator) - poly.shifted_arg(1).scaled(
            r.denominator
        )
        ok, _ = margin.ge_from(0, i0)
        if not ok:
            return False
        gaps = GapSequence.from_poly(poly)
        prefix = sum((gaps.term(i) for i in range(1, i0)), Fraction(0))
        bound = prefix + gaps.term(i0) / (1 - r)
        return str(bound) == cert["bound"] and verdict.outcome == DOES_NOT_SHRINK
    if method == "term_bound":
        from .sequences import parse_poly

        coeff = cert["two_pow_coeff"]
        if Fraction(cert["delta"]) != coeff or coeff < 1:
            return False
        extra_text = cert["extra_term"].replace(" ", "")
        extra = IntPoly(()) if extra_text == "0" else parse_poly(extra_text)
        ok, _ = extra.ge_from(0, cert["i0"])
        # terms are coeff + extra(i)/2^i >= coeff >= 1, so the series diverges
        return ok and verdict.outcome == SHRINKS
    return False


def _verify_orbit_periodic(verdict: ShrinkVerdict) -> bool:
    cert = verdict.certificate
    period = verdict.sequence.one_period
    if period is None:
        return False
    a = period.slope
    if str(a) != cert["slope"]:
        return False
    if verdict.outcome == SHRINKS:
        if a > 1:
            return False
        upto = min(cert["checked_upto"], 4096)
        for k in range(1, upto + 1):
            if period.composite(k) >= k:
                return False
        trace = cert.get("sample_orbit", [])
        return _replay_trace(period.links, trace)
    if verdict.outcome == DOES_NOT_SHRINK:
        if a <= 1:
            return False
        k0 = cert["k0"]
        if period.composite(k0) < k0:
            return False
        trace = cert.get("period_trace_from_k0", [])
        if trace and trace[0] != k0:
            return False
        return _replay_trace(period.links, trace, single_period=True)
    return False


def _replay_trace(links, trace, single_period=False) -> bool:
    if not trace:
        return True
    v = trace[0]
    if v < 0:  # disc replicating functions are defined on k >= 0
        return False
    pos = 1
    steps = links if single_period else links * ((len(trace) // len(links)) + 1)
    for spec in steps:
        if pos >= len(trace):
            break
        v = chain_step(spec, v)
        if trace[pos] != v:
            return False
        pos += 1
    return pos == len(trace)


def _verify_telescoping(verdict: ShrinkVerdict) -> bool:
    seq = verdict.sequence
    if not isinstance(seq, GeneratorSequence) or not seq.two_case:
        return False
    cert = verdict.certificate
    pair = _alignments(seq).get(cert["alignment"])
    if pair is None:
        return False
    c_poly = _pair_slope(*pair)
    if c_poly is None:
        return False
    c = c_poly.text("s")
    if c != cert["pair_slope"] or _telescoping_identity(c) != cert["identity"]:
        return False
    return _telescopes_numerically(seq, pair[0], 20, 200) and verdict.outcome == SHRINKS
