import dataclasses
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import toroshrink
from toroshrink.drf import chain_steps
from toroshrink.sequences import (
    EventuallyPeriodicSequence,
    ExplicitSequence,
    GapSequence,
    GeneratorSequence,
    HorizonError,
    IntPoly,
    PeriodicSequence,
    parse_poly,
)
from toroshrink.shrink import (
    DOES_NOT_SHRINK,
    SHRINKS,
    UNKNOWN,
    ShrinkVerdict,
    VerdictConsistencyError,
    ancel_starbird,
    bounded_widths,
    convergent_tau_series,
    decide,
    divergent_weighted_tau_series,
    orbit_decide,
    periodic_product,
    sher_armentrout,
    verify_certificate,
    _alignments,
    _geometric_fault,
    _geometric_verdict,
    _orbit_evidence,
    _OrbitPaths,
    _pair_decrements,
    _telescopes_numerically,
)

PURE_BING = PeriodicSequence(((2, 1),))
PURE_WHITEHEAD = PeriodicSequence(((1, 1),))
PURE_22 = PeriodicSequence(((2, 2),))

EXAMPLE_55 = GeneratorSequence(n_poly=parse_poly("2*i"), m_poly=parse_poly("i+1"))
EXAMPLE_56 = GeneratorSequence(
    even_n=parse_poly("2*s^2"),
    even_m=parse_poly("1"),
    odd_n=parse_poly("2"),
    odd_m=parse_poly("(s+1)^2"),
)


# -- periodic product ---------------------------------------------------


def test_periodic_product_pure_bing():
    v = periodic_product(PURE_BING)
    assert v.outcome == SHRINKS
    assert v.certificate["product"] == "1"


def test_periodic_product_pure_whitehead():
    v = periodic_product(PURE_WHITEHEAD)
    assert v.outcome == DOES_NOT_SHRINK
    assert v.certificate["product"] == "1/2"


def test_periodic_product_pure_22():
    v = periodic_product(PURE_22)
    assert v.outcome == DOES_NOT_SHRINK
    assert v.certificate["product"] == "1/2"


def test_periodic_product_eventually_periodic_uses_tail():
    seq = EventuallyPeriodicSequence(prefix=((1, 5),), tail=((2, 1),))
    assert periodic_product(seq).outcome == SHRINKS


def test_periodic_product_silent_on_generators():
    assert periodic_product(EXAMPLE_55) == "no period"


# -- strictly expanding stages ------------------------------------------


def test_sher_armentrout_example_55():
    v = sher_armentrout(EXAMPLE_55)
    assert v is not None and v.outcome == DOES_NOT_SHRINK
    assert v.certificate["scope"] == "symbolic"


def test_sher_armentrout_pure_whitehead():
    v = sher_armentrout(PURE_WHITEHEAD)
    assert v is not None and v.outcome == DOES_NOT_SHRINK


def test_sher_armentrout_silent_on_pure_bing():
    assert sher_armentrout(PURE_BING) == "n >= 2m at index 1"


def test_sher_armentrout_silent_on_explicit_tail():
    assert sher_armentrout(ExplicitSequence(((1, 1), (1, 2)))) == "neither periodic nor a generator"


# -- convergent tau series ----------------------------------------------


def test_convergent_series_pure_whitehead():
    v = convergent_tau_series(PURE_WHITEHEAD)
    assert v.outcome == DOES_NOT_SHRINK
    assert v.certificate["exact_sum"] == "1"
    assert v.certificate["k0"] == 2


def test_convergent_series_whitehead_bing_mix():
    # one (2,1) stage between consecutive (1,1) stages
    seq = PeriodicSequence(((1, 1), (2, 1)))
    v = convergent_tau_series(seq)
    assert v.outcome == DOES_NOT_SHRINK
    assert Fraction(v.certificate["exact_sum"]) == 2
    assert v.certificate["k0"] == 3


def test_convergent_series_silent_on_pure_bing():
    assert convergent_tau_series(PURE_BING) == "period product 1 >= 1"


def test_convergent_series_generator_with_decaying_tau():
    # n = 2, m = i: tau = 1/i, eventually below 1/2
    seq = GeneratorSequence(n_poly=parse_poly("2"), m_poly=parse_poly("i"))
    v = convergent_tau_series(seq)
    assert v is not None and v.outcome == DOES_NOT_SHRINK


def test_convergent_series_silent_on_example_55():
    # tau_i = i/(i+1) increases toward 1: no geometric ratio exists
    assert convergent_tau_series(EXAMPLE_55) == "lim sup tau >= 1"


# -- the automatic geometric ratio for generators, against its oracle ----


NO_PROBED_RATIO = "no probed r < 1 bounds tau from i0 in (1, 2, 4, 8)"


def _fraction_window_probe(seq):
    """The search without the limit guard, in Fractions: r is the largest
    tau over 64 links from i0 = 1, 2, 4, 8, and the first r < 1 that
    validates gives the certificate, as (r, i0)."""
    taus = []
    for i0 in (1, 2, 4, 8):
        pairs = seq.link_pairs(len(taus) + 1, i0 + 63 - len(taus))
        taus += [Fraction(n, two_m) for n, two_m in pairs]
        r = max(taus[i0 - 1:])
        if r >= 1:
            continue
        if _geometric_fault(seq, r, i0) is None:
            return r, i0
    return None


class _CountingGenerator(GeneratorSequence):
    """A generator that records every index its links are read at; `link`
    reads through `link_pairs`."""

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "reads", [])

    def link_pairs(self, first, count):
        self.reads.extend(range(first, first + count))
        return super().link_pairs(first, count)


# limits of tau = n/(2m) on one branch; the first two are below 1
_TAU_REGIMES = ("to_zero", "to_c_below_one", "to_one_below", "to_one_above",
                "to_c_above_one", "to_infinity")
_LIMIT_BELOW_ONE = ("to_zero", "to_c_below_one")
_DRAW_REGIME = st.sampled_from(_TAU_REGIMES + _LIMIT_BELOW_ONE)  # half below 1


@st.composite
def _branch(draw, regime, start):
    """(n, m) polynomials, both >= 1 for s >= start, whose tau has the
    named limit.  The lower coefficients of n may be large or negative, so
    tau need not be monotone and the window maximum can sit anywhere."""
    lowest_m = 1 if regime in ("to_zero", "to_one_below") else 0
    dm = draw(st.integers(lowest_m, 2))
    m = IntPoly(
        (draw(st.integers(1, 4)),)
        + tuple(draw(st.integers(0, 4)) for _ in range(dm - 1))
        + ((draw(st.integers(1, 3)),) if dm else ())
    )
    lead = m.coeffs[-1]
    if regime in ("to_one_below", "to_one_above"):
        # n = 2m -+ q with deg q < deg m and q > 0 eventually (or q = 0)
        dq = draw(st.integers(-1 if regime == "to_one_above" else 0, dm - 1))
        q = IntPoly(
            tuple(draw(st.integers(-3, 3)) for _ in range(dq))
            + ((draw(st.integers(1, 3)),) if dq >= 0 else ())
        )
        n = m.scaled(2) + (q if regime == "to_one_above" else -q)
        assume((n - IntPoly.const(1)).first_negative(start) is None)
        return n, m
    if regime == "to_zero":
        dn, a = draw(st.integers(0, dm - 1)), draw(st.integers(1, 6))
    elif regime == "to_c_below_one":
        dn, a = dm, draw(st.integers(1, 2 * lead - 1))
    elif regime == "to_c_above_one":
        dn, a = dm, draw(st.integers(2 * lead + 1, 2 * lead + 6))
    else:
        dn, a = dm + draw(st.integers(1, 2)), draw(st.integers(1, 3))
    n = IntPoly(tuple(draw(st.integers(-6, 40)) for _ in range(dn)) + (a,))
    # raise the constant term until n >= 1 from start on; a stays
    while (n - IntPoly.const(1)).first_negative(start) is not None:
        n = n + IntPoly.const(1)
    return n, m


@st.composite
def _regime_generators(draw):
    """A one-case or two-case generator, and whether every branch has
    lim tau < 1."""
    if draw(st.booleans()):
        regime = draw(_DRAW_REGIME)
        n, m = draw(_branch(regime, 1))
        fields = dict(n_poly=n, m_poly=m)
        below = regime in _LIMIT_BELOW_ONE
    else:
        even, odd = draw(_DRAW_REGIME), draw(_DRAW_REGIME)
        (en, em), (on, om) = draw(_branch(even, 1)), draw(_branch(odd, 0))
        fields = dict(even_n=en, even_m=em, odd_n=on, odd_m=om)
        below = even in _LIMIT_BELOW_ONE and odd in _LIMIT_BELOW_ONE
    return fields, below


@settings(max_examples=300, deadline=None)
@given(_regime_generators())
def test_auto_convergent_matches_fraction_window_probe(case):
    fields, limit_below_one = case
    plain, counted = GeneratorSequence(**fields), _CountingGenerator(**fields)
    expected = _fraction_window_probe(plain)
    got = convergent_tau_series(counted)
    if expected is None:
        # a window search runs only when the limit guard passes
        assert got == (NO_PROBED_RATIO if limit_below_one else "lim sup tau >= 1")
    else:
        assert got.certificate == _geometric_verdict(plain, *expected).certificate
    # the limit guard is exact: it reads no link precisely when some branch
    # has lim tau >= 1, where no geometric ratio can exist
    assert (counted.reads == []) == (not limit_below_one)
    if not limit_below_one:
        assert expected is None


@pytest.mark.parametrize("n", ["2*i - 1", "2*i + 1"])
def test_auto_convergent_reads_no_link_when_tau_tends_to_one(n):
    # 2m - n is the constant -+1: its leading coefficient alone says nothing
    seq = _CountingGenerator(n_poly=parse_poly(n), m_poly=parse_poly("i"))
    assert convergent_tau_series(seq) == "lim sup tau >= 1"
    assert seq.reads == []


@settings(max_examples=25, deadline=None)
@given(_regime_generators())
def test_auto_convergent_guard_matches_sympy_limit(case):
    import sympy

    fields, _ = case
    s = sympy.Symbol("s")

    def expr(poly):
        return sum(c * s**e for e, c in enumerate(poly.coeffs))

    branches = [("n_poly", "m_poly")] if "n_poly" in fields else [
        ("even_n", "even_m"), ("odd_n", "odd_m")
    ]
    limits = [
        sympy.limit(expr(fields[n]) / (2 * expr(fields[m])), s, sympy.oo)
        for n, m in branches
    ]
    counted = _CountingGenerator(**fields)
    convergent_tau_series(counted)
    assert (counted.reads == []) == any(limit >= 1 for limit in limits)


# -- divergent weighted series -------------------------------------------


def test_divergent_series_pure_bing():
    v = divergent_weighted_tau_series(PURE_BING)
    assert v is not None and v.outcome == SHRINKS
    assert v.certificate["method"] == "periodic_product"


def test_divergent_series_harmonic_on_constant_widths():
    seq = GeneratorSequence(n_poly=parse_poly("2"), m_poly=parse_poly("1"))
    v = divergent_weighted_tau_series(seq)
    assert v is not None and v.outcome == SHRINKS


def test_divergent_series_rejects_example_56():
    assert divergent_weighted_tau_series(EXAMPLE_56) == "harmonic floors need bounded widths n_i"


# -- bounded widths --------------------------------------------------------


def test_bounded_widths_pure_bing():
    v = bounded_widths(PURE_BING)
    assert v.outcome == SHRINKS


def test_bounded_widths_pure_22():
    v = bounded_widths(PURE_22)
    assert v.outcome == DOES_NOT_SHRINK


def test_bounded_widths_inapplicable_when_unbounded():
    assert bounded_widths(EXAMPLE_55) == "sup n_i is not known to be finite"


# -- mixed Bing-Whitehead ----------------------------------------------------


def test_ancel_starbird_constant_gaps():
    v = ancel_starbird(GapSequence.periodic([1]))
    assert v.outcome == DOES_NOT_SHRINK
    assert Fraction(v.certificate["exact_sum"]) == 1
    assert ("periodic_product", DOES_NOT_SHRINK) in v.corroborating


def test_ancel_starbird_doubling_gaps():
    v = ancel_starbird(GapSequence.two_pow())
    assert v.outcome == SHRINKS
    assert v.certificate["method"] == "term_bound"


def test_ancel_starbird_linear_gaps():
    v = ancel_starbird(GapSequence.from_poly("i"))
    assert v.outcome == DOES_NOT_SHRINK
    assert v.certificate["method"] == "ratio_test"


def test_ancel_starbird_zero_gaps():
    v = ancel_starbird(GapSequence.from_poly("0"))
    assert v.outcome == DOES_NOT_SHRINK


def test_ancel_starbird_declines_with_its_reason():
    # a finite gap list decides nothing about sum c_i / 2^i
    assert ancel_starbird(GapSequence.explicit([3, 1, 4])) == "gap tail is undeclared"
    for seq in (
        PeriodicSequence(((2, 1),)),
        GeneratorSequence(n_poly=parse_poly("2"), m_poly=parse_poly("1")),
        ExplicitSequence(((3, 1), (1, 1))),
    ):
        assert ancel_starbird(seq) == "not a gap sequence"


def test_ancel_starbird_periodic_agrees_with_periodic_product():
    rng = random.Random(17)
    for _ in range(40):
        p = rng.randrange(1, 6)
        gaps = GapSequence.periodic([rng.randrange(0, 5) for _ in range(p)])
        v = ancel_starbird(gaps)
        w = periodic_product(v.sequence)
        assert v.outcome == w.outcome == DOES_NOT_SHRINK


# -- orbit decisions -----------------------------------------------------------


def test_orbit_decide_pure_bing():
    v = orbit_decide(PURE_BING)
    assert v.outcome == SHRINKS
    assert v.certificate["kind"] == "orbit_periodic"
    assert ("periodic_product", SHRINKS) in v.corroborating


def test_orbit_decide_pure_whitehead_k0_witness():
    v = orbit_decide(PURE_WHITEHEAD)
    assert v.outcome == DOES_NOT_SHRINK
    k0 = v.certificate["k0"]
    assert k0 >= 1
    trace = v.certificate["period_trace_from_k0"]
    assert trace[0] == k0 and trace[-1] >= k0


def test_orbit_decide_example_56_telescopes():
    v = orbit_decide(EXAMPLE_56)
    assert v.outcome == SHRINKS
    assert v.certificate["kind"] == "telescoping_pairs"
    assert v.certificate["pair_slope"] == "s^2 + 2*s + 1"


def test_orbit_decide_example_55_unknown_alone():
    v = orbit_decide(EXAMPLE_55)
    assert v.outcome == UNKNOWN
    assert v.evidence["orbits_unresolved"] > 0


def test_orbit_decide_explicit_reports_horizon():
    v = orbit_decide(ExplicitSequence(((2, 1), (2, 1))))
    assert v.outcome == UNKNOWN
    assert v.evidence["horizon_exhausted"] is True


def test_orbit_decide_rejects_bad_horizons():
    with pytest.raises(ValueError):
        orbit_decide(PURE_BING, k_max=0)


@pytest.mark.parametrize(
    "seq",
    [
        PeriodicSequence(((2, 1), (3, 1))),
        EventuallyPeriodicSequence(prefix=((2, 1), (7, 3)), tail=((1, 1), (3, 2))),
    ],
)
def test_orbit_decision_does_not_depend_on_the_horizons(seq):
    # the horizons bound the Unknown evidence only: the descent check and
    # the sample orbit of a decision are the same for every k_max
    verdicts = [orbit_decide(seq, k_max=k) for k in (4, 64, 5000)]
    assert verdicts[0].outcome != UNKNOWN
    assert all(v == verdicts[0] for v in verdicts)


def test_periodic_orbit_agreement_random():
    rng = random.Random(23)
    for _ in range(60):
        p = rng.randrange(1, 7)
        links = tuple(
            (rng.randrange(1, 13), rng.randrange(1, 13)) for _ in range(p)
        )
        seq = PeriodicSequence(links)
        assert orbit_decide(seq).outcome == periodic_product(seq).outcome


# -- orbit evidence against a lockstep reference ------------------------------------


def _reference_evidence(seq, k_max, m_max, p_max):
    """Every orbit (k, m) stepped in lockstep with Python ints, one start m
    at a time.  The horizon is flagged when the links run out before p_max
    steps and some orbit from m took the last one, even if that step ended
    it (the check for a missing link comes before the check for orbits
    still running)."""
    cap = 10**9
    links = []
    for i in range(1, m_max + p_max):
        try:
            links.append(seq.link(i))
        except HorizonError:
            break
    vanishing, sample, longest, horizon = 0, [], 0, False
    for m in range(1, m_max + 1):
        values = list(range(1, k_max + 1))
        steps = [0] * k_max
        running = list(range(k_max))
        for t in range(p_max):
            if m + t > len(links):
                horizon = True
                break
            if not running:
                break
            spec = links[m + t - 1]
            for j in running:
                ceiling = (2 * spec.m * values[j] + spec.n - 1) // spec.n
                values[j] = min(max(ceiling - 1, 0), cap + 1)
                steps[j] += 1
            running = [j for j in running if 0 < values[j] <= cap]
        for j in range(k_max):
            if values[j] == 0:
                vanishing += 1
                longest = max(longest, steps[j])
            elif len(sample) < 8:
                sample.append([j + 1, m, values[j]])
    return {
        "orbits_vanishing": vanishing,
        "orbits_unresolved": k_max * m_max - vanishing,
        "unresolved_sample": sample,
        "longest_vanishing_orbit": longest,
        "horizon_exhausted": horizon,
    }


_HUGE = st.integers(1, 10**30)
_link_st = st.tuples(st.integers(1, 12), st.integers(1, 6)) | st.tuples(_HUGE, _HUGE)
# c * (1 + small nonnegative terms): >= 1 from index 0 on; c reaches 10^20,
# while the coefficient ratios stay small, which keeps construction cheap
_poly_st = st.builds(
    lambda c, cs: IntPoly(tuple(c * x for x in (1 + cs[0],) + tuple(cs[1:]))),
    st.integers(1, 3) | st.integers(1, 10**20),
    st.lists(st.integers(0, 3), min_size=1, max_size=4),
)


@st.composite
def _evidence_cases(draw):
    k_max = draw(st.integers(1, 80))
    m_max = draw(st.integers(1, 8))
    p_max = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["explicit", "at_horizon", "generator", "two_case", "meeting"]))
    if kind == "meeting":
        # orbits that hold their value for long stretches, so the orbits of
        # the starts meet at link m_max and share paths; p_max falls below or
        # above m_max, and explicit data end before, at or just after link
        # m_max, or further on
        m_max = draw(st.integers(2, 12))
        p_max = draw(st.integers(1, m_max - 1) | st.integers(m_max, 60))
        if draw(st.booleans()):
            # Example 5.6 shape: even (2 s^2, 1), odd (2, (s+1)^2 + c)
            c = draw(st.integers(0, 6))
            seq = GeneratorSequence(
                even_n=IntPoly((0, 0, 2)), even_m=IntPoly((1,)),
                odd_n=IntPoly((2,)), odd_m=IntPoly((1 + c, 2, 1)),
            )
        else:
            # (2m - d, m): d = 0 steps every orbit down by one, d in 1..4
            # holds the small ones
            size = draw(
                st.integers(max(1, m_max - 2), m_max + 1)
                | st.integers(m_max + 2, m_max + p_max + 1)
            )
            link = st.tuples(st.integers(70, 400), st.integers(0, 4)).map(
                lambda md: (2 * md[0] - md[1], md[0])
            )
            seq = ExplicitSequence(tuple(draw(st.lists(link, min_size=size, max_size=size))))
    elif kind == "generator":
        seq = GeneratorSequence(n_poly=draw(_poly_st), m_poly=draw(_poly_st))
    elif kind == "two_case":
        seq = GeneratorSequence(
            even_n=draw(_poly_st), even_m=draw(_poly_st),
            odd_n=draw(_poly_st), odd_m=draw(_poly_st),
        )
    else:
        # at_horizon: the data end at most two links before the last link an
        # orbit can use (m_max + p_max - 1), or one link after it
        size = (
            draw(st.integers(max(1, m_max + p_max - 3), m_max + p_max))
            if kind == "at_horizon"
            else draw(st.integers(1, 50))
        )
        seq = ExplicitSequence(tuple(draw(st.lists(_link_st, min_size=size, max_size=size))))
    return seq, k_max, m_max, p_max


@settings(max_examples=200, deadline=None)
@given(_evidence_cases())
def test_orbit_evidence_matches_lockstep_reference(case):
    assert _orbit_evidence(*case) == _reference_evidence(*case)


def _record(monkeypatch, method):
    """Record the arguments and result of every call of an `_OrbitPaths` method."""
    calls = []
    original = getattr(_OrbitPaths, method)

    def recording(self, *args):
        result = original(self, *args)
        calls.append((*args, result))
        return result

    monkeypatch.setattr(_OrbitPaths, method, recording)
    return calls


# link 1 caps every orbit; link 2 doubles and a run of (4, 1) links halves,
# so with p_max = 6 from start 2 only the small orbits vanish, and from
# start 3 on every orbit up to 64 does
_TOP_FIRST = ExplicitSequence(((1, 10**9), (1, 1)) + ((4, 1),) * 30)


def test_orbit_search_tries_k_max_first_only_after_every_orbit_vanished(monkeypatch):
    calls = _record(monkeypatch, "orbit")
    evidence = _orbit_evidence(_TOP_FIRST, 64, 5, 6)
    assert evidence == _reference_evidence(_TOP_FIRST, 64, 5, 6)
    probes = {m: [k for k, start, _ in calls if start == m] for m in range(1, 6)}
    vanished = {m: max([k for k, start, run in calls if start == m and not run[0]], default=0)
                for m in range(1, 6)}
    assert vanished[1] == 0 and 0 < vanished[2] < 64
    assert vanished[3] == vanished[4] == vanished[5] == 64
    assert [probes[m][0] for m in (1, 2, 3)] == [1, 1, 1]
    assert probes[4] == probes[5] == [64]


def test_orbit_paths_meet_at_link_m_max_and_are_stepped_once(monkeypatch):
    walks = _record(monkeypatch, "walk")
    seq = GeneratorSequence(
        even_n=parse_poly("2*s^2"), even_m=parse_poly("1"),
        odd_n=parse_poly("2"), odd_m=parse_poly("(s+1)^2 + 2"),
    )
    k_max, m_max, p_max = 40, 6, 300
    assert _orbit_evidence(seq, k_max, m_max, p_max) == _reference_evidence(seq, k_max, m_max, p_max)
    meet = m_max - 1  # links applied before link m_max
    plain = [w for w in walks if w[2] <= meet]
    paths = [w for w in walks if w[2] > meet]
    assert plain and paths
    # every plain walk starts at link m <= m_max, and every path walk goes on
    # from a frontier at or past link m_max that has not vanished or capped
    assert all(pos <= meet for _, pos, _, _ in plain)
    assert all(pos >= meet and 0 < v <= 10**9 for v, pos, _, _ in paths)
    # a path starts once per value at link m_max, and later walks go on from
    # where one ended, within the window of the latest start
    firsts = [v for v, pos, _, _ in paths if pos == meet]
    assert len(firsts) == len(set(firsts))
    ends = {(v, pos) for _, _, _, (v, pos) in paths}
    assert all(pos == meet or (v, pos) in ends for v, pos, _, _ in paths)
    assert all(end <= meet + p_max for _, _, end, _ in paths)


@pytest.mark.parametrize(
    "links, flagged",
    [
        (((4, 1),), True),  # orbit 1 vanishes on the last link
        (((4, 1), (4, 1)), False),  # it vanishes before the last link
        (((1, 10**9),), True),  # orbit 1 passes the cap on the last link
        (((1, 10**9), (4, 1)), False),
        (((1, 1),), True),  # orbit 1 is still running when the links end
    ],
)
def test_orbit_evidence_horizon_counts_the_last_link(links, flagged):
    seq = ExplicitSequence(links)
    evidence = _orbit_evidence(seq, 1, 1, 5)
    assert evidence["horizon_exhausted"] is flagged
    assert evidence == _reference_evidence(seq, 1, 1, 5)


def test_orbit_evidence_exact_beyond_int64():
    # 2*m*v passes 2^63 here: int64 orbits wrapped and reported 2777
    # vanishing orbits.  Link 1 maps v to 2v - 1; link i >= 2 fixes every
    # v <= 2i^4 - 1, so no orbit vanishes.
    seq = GeneratorSequence(n_poly=parse_poly("2*i^4 - 1"), m_poly=parse_poly("i^4"))
    evidence = _orbit_evidence(seq, 3000, 1, 10_000)
    assert evidence["orbits_vanishing"] == 0
    assert evidence["unresolved_sample"] == [[k, 1, 2 * k - 1] for k in range(1, 9)]


@pytest.mark.parametrize("m_max", [1, 2])
def test_orbit_evidence_steps_starts_above_the_cap(m_max):
    # link (10^12, 1) sends every v <= 5 * 10^11 to 0, so each of the
    # 2 * 10^9 orbits from each start vanishes at its first step, also
    # those whose start k is above the 10^9 cap
    k_max = 2 * 10**9
    evidence = _orbit_evidence(ExplicitSequence(((10**12, 1),) * 5), k_max, m_max, 5)
    assert evidence == {
        "orbits_vanishing": k_max * m_max,
        "orbits_unresolved": 0,
        "unresolved_sample": [],
        "longest_vanishing_orbit": 1,
        "horizon_exhausted": False,
    }


@pytest.mark.parametrize("m_max", [1, 2])
def test_orbit_path_from_a_start_above_the_cap_takes_a_step(m_max):
    # link (2, 1) maps v to v - 1: from k = 2 * 10^9 the first step caps
    orbits = _OrbitPaths(ExplicitSequence(((2, 1),) * 6), m_max, 5)
    assert orbits.orbit(2 * 10**9, m_max) == (10**9 + 1, 1)
    assert orbits.orbit(10**9 + 1, m_max) == (10**9 - 4, 5)


@pytest.mark.parametrize(
    "seq",
    [
        # tau -> 1 from below, and a near-miss of Example 5.6
        GeneratorSequence(n_poly=parse_poly("2*i^4 - 1"), m_poly=parse_poly("i^4")),
        GeneratorSequence(
            even_n=parse_poly("2*s^2"), even_m=parse_poly("1"),
            odd_n=parse_poly("2"), odd_m=parse_poly("(s+1)^2 + 2"),
        ),
    ],
    ids=["one-case", "two-case"],
)
def test_orbit_evidence_evaluates_each_branch_polynomial_once_per_coefficient(monkeypatch, seq):
    # one link stream per evidence run: each polynomial is evaluated
    # degree + 1 times, for its forward differences, however many chunks
    # of links the orbits read
    calls = []
    horner = IntPoly.__call__

    def counting(p, i):
        calls.append(p)
        return horner(p, i)

    monkeypatch.setattr(IntPoly, "__call__", counting)
    evidence = _orbit_evidence(seq, 64, 8, 10_000)
    assert evidence["orbits_unresolved"] > 0
    assert len(calls) == sum(p.degree + 1 for b in seq.branches for p in (b.n, b.m))


def test_orbit_decide_degree_five_generator_is_unknown():
    seq = GeneratorSequence(n_poly=parse_poly("2*i^5 - 1"), m_poly=parse_poly("i^5"))
    v = orbit_decide(seq)
    assert v.outcome == UNKNOWN
    assert v.evidence["orbits_vanishing"] == 0


def test_decide_unknown_does_not_import_numpy():
    script = (
        "import sys\n"
        "from toroshrink import ExplicitSequence, decide\n"
        "v = decide(ExplicitSequence(((3, 1), (5, 2))))\n"
        "print(v.outcome, 'orbits_vanishing' in v.evidence, 'numpy' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(toroshrink.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["unknown", "True", "False"]


# -- aggregation -----------------------------------------------------------------


def test_decide_pure_bing():
    v = decide(PURE_BING)
    assert v.outcome == SHRINKS
    assert v.criterion == "periodic_product"
    assert v.exit_code == 0
    assert any(c == "orbit_periodic" for c, _ in v.corroborating)


def test_decide_pure_whitehead():
    v = decide(PURE_WHITEHEAD)
    assert v.outcome == DOES_NOT_SHRINK
    assert v.exit_code == 1


def test_decide_pure_22():
    assert decide(PURE_22).outcome == DOES_NOT_SHRINK


def test_decide_example_55_via_sher_armentrout():
    v = decide(EXAMPLE_55)
    assert v.outcome == DOES_NOT_SHRINK
    assert v.criterion == "sher_armentrout"


def test_decide_example_56_via_telescoping():
    v = decide(EXAMPLE_56)
    assert v.outcome == SHRINKS
    assert v.criterion == "telescoping_pairs"


def test_decide_explicit_unknown():
    v = decide(ExplicitSequence(((3, 1),)))
    assert v.outcome == UNKNOWN
    assert v.exit_code == 2


@pytest.mark.parametrize(
    "run, seq",
    [
        (decide, PURE_BING),
        (decide, PURE_WHITEHEAD),
        (orbit_decide, PURE_BING),
        (orbit_decide, PURE_WHITEHEAD),
        (ancel_starbird, GapSequence.periodic([1])),
    ],
    ids=["decide-bing", "decide-whitehead", "orbit-bing", "orbit-whitehead", "gaps"],
)
def test_disagreeing_criteria_raise(monkeypatch, run, seq):
    # a periodic product with the other outcome contradicts every criterion
    # that proves the same verdict
    from toroshrink import shrink

    original = shrink.periodic_product
    other = {SHRINKS: DOES_NOT_SHRINK, DOES_NOT_SHRINK: SHRINKS}

    def flipped(s):
        v = original(s)
        return None if v is None else dataclasses.replace(v, outcome=other[v.outcome])

    monkeypatch.setattr(shrink, "periodic_product", flipped)
    with pytest.raises(VerdictConsistencyError, match="contradictory verdicts"):
        run(seq)


# -- certificate verification ------------------------------------------------------


ALL_VERDICTS = [
    lambda: periodic_product(PURE_BING),
    lambda: periodic_product(PURE_WHITEHEAD),
    lambda: sher_armentrout(PURE_WHITEHEAD),
    lambda: sher_armentrout(EXAMPLE_55),
    lambda: convergent_tau_series(PURE_WHITEHEAD),
    lambda: convergent_tau_series(PeriodicSequence(((1, 1), (2, 1)))),
    lambda: divergent_weighted_tau_series(PURE_BING),
    lambda: bounded_widths(PURE_22),
    lambda: bounded_widths(PURE_BING),
    lambda: ancel_starbird(GapSequence.periodic([1])),
    lambda: ancel_starbird(GapSequence.from_poly("i")),
    lambda: ancel_starbird(GapSequence.two_pow()),
    lambda: orbit_decide(PURE_BING),
    lambda: orbit_decide(PURE_WHITEHEAD),
    lambda: orbit_decide(EXAMPLE_56),
    lambda: decide(PURE_BING),
    lambda: decide(EXAMPLE_55),
]


@pytest.mark.parametrize("make", ALL_VERDICTS)
def test_verify_accepts_emitted_certificates(make):
    v = make()
    assert verify_certificate(v) is True


def _tamper(verdict, **updates):
    cert = dict(verdict.certificate)
    cert.update(updates)
    return dataclasses.replace(verdict, certificate=cert)


def test_verify_rejects_tampered_product():
    v = periodic_product(PURE_BING)
    assert verify_certificate(_tamper(v, product="2")) is False


@pytest.mark.parametrize("field, value", [("prefix_skipped", 7), ("shrinks_iff", "product < 1")])
def test_verify_rejects_tampered_periodic_product_field(field, value):
    v = periodic_product(EventuallyPeriodicSequence(((4, 1),), ((2, 1),)))
    assert verify_certificate(v) is True
    assert verify_certificate(_tamper(v, **{field: value})) is False


def test_verify_rejects_tampered_exact_sum():
    v = convergent_tau_series(PURE_WHITEHEAD)
    assert verify_certificate(_tamper(v, exact_sum="17")) is False


def test_verify_rejects_tampered_orbit_trace():
    v = orbit_decide(PURE_WHITEHEAD)
    trace = list(v.certificate["period_trace_from_k0"])
    trace[-1] += 1
    assert verify_certificate(_tamper(v, period_trace_from_k0=trace)) is False


def test_verify_rejects_wrong_outcome():
    v = periodic_product(PURE_BING)
    flipped = dataclasses.replace(v, outcome=DOES_NOT_SHRINK)
    assert verify_certificate(flipped) is False


def test_verify_rejects_swapped_sequence():
    v = periodic_product(PURE_BING)
    swapped = dataclasses.replace(v, sequence=PURE_WHITEHEAD)
    assert verify_certificate(swapped) is False


def test_verify_rejects_tampered_k0():
    v = orbit_decide(PURE_WHITEHEAD)
    assert verify_certificate(_tamper(v, k0=0)) is False
    # g(-3) = 0 >= -3, but no orbit starts below 0
    assert verify_certificate(_tamper(v, k0=-3, period_trace_from_k0=[-3, 0])) is False


def test_verify_rejects_tampered_gap_bound():
    v = ancel_starbird(GapSequence.from_poly("i"))
    assert verify_certificate(_tamper(v, bound="1/1000")) is False


def test_verify_rejects_unknown_telescoping_alignment():
    # slope-one pairs telescope in both alignments, so only a label that
    # names neither can fail; it must not be read as one of them
    seq = GeneratorSequence(
        even_n=parse_poly("2*s"),
        even_m=parse_poly("s"),
        odd_n=parse_poly("2*s+2"),
        odd_m=parse_poly("s+1"),
    )
    v = orbit_decide(seq, k_max=12, m_max=3, p_max=200)
    assert v.criterion == "telescoping_pairs"
    for label in ("odd_then_even", "even_then_odd"):
        assert verify_certificate(_tamper(v, alignment=label)) is True
    for label in ("bogus", "", "even"):
        assert verify_certificate(_tamper(v, alignment=label)) is False


def test_verify_rejects_tampered_expansion_branches():
    v = decide(GeneratorSequence(n_poly=parse_poly("2"), m_poly=parse_poly("i+1")))
    assert v.criterion == "sher_armentrout" and v.certificate["scope"] == "symbolic"
    assert verify_certificate(v) is True
    (witness,) = v.certificate["branches"]
    for branches in (
        "bogus",
        [],
        [dict(witness, margin="2*s")],
        [dict(witness, **{"from": witness["from"] + 1})],
        [dict(witness, branch="even")],
        [witness, witness],
    ):
        assert verify_certificate(_tamper(v, branches=branches)) is False


@pytest.mark.parametrize("n, m", [("3", "i"), ("3", "1")])
def test_verify_rejects_unknown_bounded_widths_decision(n, m):
    v = decide(GeneratorSequence(n_poly=parse_poly(n), m_poly=parse_poly(m)))
    assert v.criterion == "bounded_widths"
    assert verify_certificate(v) is True
    other = {
        "tau series converges": "tau series diverges",
        "tau series diverges": "tau series converges",
    }[v.certificate["decision"]]
    for decision in ("bogus", "", other):
        assert verify_certificate(_tamper(v, decision=decision)) is False


def test_verify_rejects_tampered_telescoping_identity():
    v = decide(EXAMPLE_56)
    assert v.criterion == "telescoping_pairs"
    assert verify_certificate(v) is True
    for identity in ("anything", v.certificate["identity"].replace("2*m_first", "m_first")):
        assert verify_certificate(_tamper(v, identity=identity)) is False


@pytest.mark.parametrize(
    "field, value",
    [
        ("checked_upto", 1),
        ("checked_upto", 10**12),
        ("checked_upto", 0),
        ("descent", "bogus"),
        ("sample_orbit", []),
        # every DRF sends -3 to 0, but no orbit starts below 0
        ("sample_orbit", [-3, 0, 0]),
    ],
)
def test_verify_rejects_forged_periodic_descent_field(field, value):
    v = orbit_decide(PeriodicSequence(((2, 1), (3, 1))))
    assert v.outcome == SHRINKS and v.criterion == "orbit_periodic"
    assert verify_certificate(v) is True
    assert verify_certificate(_tamper(v, **{field: value})) is False


@pytest.mark.parametrize(
    "updates",
    [
        {"offset_sum": "7"},
        {"monotone_argument": "g is monotone"},
        {"start_index": 99},
        {"period_trace_from_k0": []},
        # the orbit of 0 stays at 0 >= 0, which proves nothing
        {"k0": 0, "period_trace_from_k0": [0, 0]},
        # the orbit of k0 = 2, but over two periods
        {"period_trace_from_k0": [2, 3, 5]},
        # the orbit of k0 = 2, cut short of one period
        {"period_trace_from_k0": [2]},
    ],
)
def test_verify_rejects_forged_periodic_ascent_field(updates):
    v = orbit_decide(PURE_WHITEHEAD)
    assert v.outcome == DOES_NOT_SHRINK and v.certificate["offset_sum"] == "1"
    assert verify_certificate(v) is True
    assert verify_certificate(_tamper(v, **updates)) is False


class _OneLinkOff(GeneratorSequence):
    """A generator whose link `off` winds twice as often."""

    def link_pairs(self, first, count):
        pairs = super().link_pairs(first, count)
        if first <= self.off < first + len(pairs):
            n, two_m = pairs[self.off - first]
            pairs[self.off - first] = (n, 2 * two_m)
        return pairs


def _example_56_with_link_off(off):
    fields = {f: getattr(EXAMPLE_56, f) for f in ("even_n", "even_m", "odd_n", "odd_m")}
    seq = _OneLinkOff(**fields)
    object.__setattr__(seq, "off", off)
    return seq


def test_telescoping_check_reads_every_pair():
    first = _alignments(EXAMPLE_56)["odd_then_even"][0]
    assert _telescopes_numerically(EXAMPLE_56, first)
    for s in range(first.first, 51):
        for off in (first.index(s), first.index(s) + 1):
            seq = _example_56_with_link_off(off)
            assert not _telescopes_numerically(seq, first), (s, off)


@st.composite
def _link_pairs(draw):
    """Two links as (n, 2m): any two, two whose composite slope
    2m1 2m2 / (n1 n2) is 1, or a telescoping pair (n, c n), (2 m c, 2 m)
    with each entry moved by a little."""
    kind = draw(st.sampled_from(["any", "slope one", "near telescoping"]))
    link = st.tuples(st.integers(1, 60), st.integers(1, 60).map(lambda m: 2 * m))
    if kind == "any":
        return draw(link), draw(link)
    if kind == "slope one":
        n, two_m = draw(link)
        return (n, two_m), (2 * two_m, 2 * n)
    n, c, m = draw(st.integers(1, 30)), draw(st.integers(1, 30)), draw(st.integers(1, 30))
    d = draw(st.lists(st.integers(-2, 2), min_size=4, max_size=4))
    return (
        (max(n + d[0], 1), max(c * n + 2 * d[1], 2)),
        (max(2 * m * c + d[2], 1), max(2 * m + 2 * d[3], 2)),
    )


@settings(max_examples=1000, deadline=None)
@given(_link_pairs())
@example(((4, 2), (4, 8)))  # slope 1, first wrong at k = 4, the last k it needs
def test_pair_decrements_matches_every_k_up_to_1000(pair):
    drop = 1 if pair[0][1] // pair[0][0] > 1 else 2
    ks = range(1, 1001)
    expected = chain_steps(pair, ks) == [max(k - drop, 0) for k in ks]
    assert _pair_decrements(*pair) == expected


@pytest.mark.parametrize("s", [21, 37, 50])
def test_verify_reads_every_telescoping_pair_the_certificate_states(s):
    # the certificate states the pair composite for s <= 50
    v = decide(EXAMPLE_56)
    first = _alignments(EXAMPLE_56)[v.certificate["alignment"]][0]
    seq = _example_56_with_link_off(first.index(s))
    assert verify_certificate(v) is True
    assert verify_certificate(dataclasses.replace(v, sequence=seq)) is False


@pytest.mark.parametrize(
    "name, field, value",
    [
        ("divergent_periodic_product", "n_max", 9),
        ("bounded_widths_periodic_diverges", "inner.n_max", 9),
        ("sher_armentrout_finite", "consequence", "every stage satisfies D(k) >= 0"),
        ("sher_armentrout_symbolic", "consequence", "every stage satisfies D(k) >= 0"),
        ("telescoping_pairs", "numeric_check", "two-step composite is k-1 for s <= 5"),
        ("telescoping_pairs", "conclusion", "every orbit is bounded"),
    ],
)
def test_verify_rejects_a_forged_stated_field(name, field, value):
    v = CERTIFICATE_CASES[name]()
    assert verify_certificate(v) is True
    if field.startswith("inner."):
        value = dict(v.certificate["inner"], **{field[len("inner."):]: value})
        field = "inner"
    assert verify_certificate(_tamper(v, **{field: value})) is False


# -- forged certificates: the verifier accepts only what a criterion writes ----

# what `user_bound` claimed: sum prod tau <= 1000, "justified off-tool"
USER_BOUND = {
    "kind": "convergent_tau_series",
    "method": "user_bound",
    "bound": "1000",
    "note": "",
    "assumed": True,
    "probed_to": 64,
    "k0": 1001,
}


@pytest.mark.parametrize(
    "seq",
    [PURE_BING, GeneratorSequence(n_poly=parse_poly("2"), m_poly=parse_poly("1"))],
    ids=["bing", "generator_2_1"],
)
def test_verify_rejects_user_bound_on_a_shrinking_sequence(seq):
    assert decide(seq).outcome == SHRINKS
    forged = ShrinkVerdict(DOES_NOT_SHRINK, "convergent_tau_series", dict(USER_BOUND), seq)
    assert verify_certificate(forged) is False


def test_verify_rejects_blockwise_geometric_ratio_on_a_generator():
    v = convergent_tau_series(GeneratorSequence(n_poly=parse_poly("1"), m_poly=parse_poly("i")))
    assert v.certificate["block"] == 1 and verify_certificate(v) is True
    assert verify_certificate(_tamper(v, block=2)) is False


@pytest.mark.parametrize("i0", [0, -3])
def test_verify_rejects_geometric_ratio_below_index_one(i0):
    # links start at index 1, so an i0 below it claims a bound on no link
    v = convergent_tau_series(GeneratorSequence(n_poly=parse_poly("i"), m_poly=parse_poly("i^2")))
    assert (v.certificate["method"], v.certificate["i0"]) == ("geometric_ratio", 1)
    assert verify_certificate(v) is True
    assert verify_certificate(_tamper(v, i0=i0)) is False


@pytest.mark.parametrize(
    "prefix, tail, cert",
    [
        (((3, 1),), ((1, 1), (2, 3)), {"r": "1/2", "i0": 2, "block": 1,
                                       "prefix_partial_sums": ["3/2"]}),
        (((3, 1), (1, 2)), ((3, 1), (1, 2)), {"r": "3/8", "i0": 3, "block": 2,
                                              "prefix_partial_sums": ["3/2", "3/8"]}),
    ],
    ids=["block_1", "block_period"],
)
def test_verify_rejects_geometric_ratio_on_a_periodic_sequence(prefix, tail, cert):
    # periodic sequences are certified by their exact sum, never by a ratio
    seq = EventuallyPeriodicSequence(prefix=prefix, tail=tail)
    cert = dict(cert, kind="convergent_tau_series", method="geometric_ratio", bound="3", k0=4)
    forged = ShrinkVerdict(DOES_NOT_SHRINK, "convergent_tau_series", cert, seq)
    assert verify_certificate(forged) is False


def test_verify_rejects_harmonic_comparison_off_the_width_floor():
    seq = GeneratorSequence(n_poly=parse_poly("2"), m_poly=parse_poly("1"))
    v = divergent_weighted_tau_series(seq)
    assert (v.certificate["c"], v.certificate["i0"]) == ("1/2", 1)
    assert verify_certificate(v) is True
    for c, i0 in (("1/4", 3), ("1/4", 1), ("1", 1), ("1/2", 3), ("2/4", 1)):
        assert verify_certificate(_tamper(v, c=c, i0=i0)) is False


# one gap sequence per certificate method, and another of the same kind
GAP_METHODS = {
    "periodic_geometric": (GapSequence.periodic([2, 0, 1]), GapSequence.periodic([2, 1, 0])),
    "ratio_test": (GapSequence.from_poly("i^2+1"), GapSequence.from_poly("i^2+2")),
    "term_bound": (GapSequence.two_pow(2, parse_poly("i")), GapSequence.two_pow(2)),
    "zero_gaps": (GapSequence.from_poly("0"), GapSequence.from_poly("1")),
}


@pytest.mark.parametrize("method", sorted(GAP_METHODS))
def test_ancel_starbird_verdict_carries_its_gaps(method):
    gaps, _ = GAP_METHODS[method]
    v = ancel_starbird(gaps)
    assert v.certificate["method"] == method
    assert v.sequence is gaps
    assert verify_certificate(v) is True


@pytest.mark.parametrize("method", sorted(GAP_METHODS))
@pytest.mark.parametrize(
    "other",
    [
        PURE_BING,
        GeneratorSequence(n_poly=parse_poly("2"), m_poly=parse_poly("1")),
        PURE_WHITEHEAD,
        GapSequence.explicit([3, 1, 4]),
        "same_kind",
    ],
    ids=["bing", "generator_2_1", "whitehead", "explicit_gaps", "same_kind"],
)
def test_verify_rejects_gap_certificate_on_another_sequence(method, other):
    gaps, same_kind = GAP_METHODS[method]
    other = same_kind if other == "same_kind" else other
    v = ancel_starbird(gaps)
    assert verify_certificate(dataclasses.replace(v, sequence=other)) is False


@pytest.mark.parametrize(
    "method, field, value",
    [
        ("periodic_geometric", "gap_period", [2, 1, 0]),
        ("ratio_test", "gap_term", "i^2 + 2"),
        ("ratio_test", "r", "2"),
        ("ratio_test", "r", "1"),
        ("ratio_test", "i0", 1),
        ("term_bound", "gap_term", "2*2^i"),
        ("term_bound", "extra_term", "0"),
        ("term_bound", "two_pow_coeff", 1),
        ("term_bound", "delta", "1"),
        ("term_bound", "i0", 0),
        ("zero_gaps", "exact_sum", "1"),
        ("zero_gaps", "method", "ratio_test"),
        ("ratio_test", "method", "zero_gaps"),
        ("periodic_geometric", "method", "undetermined"),
    ],
)
def test_verify_rejects_tampered_gap_field(method, field, value):
    v = ancel_starbird(GAP_METHODS[method][0])
    assert verify_certificate(_tamper(v, **{field: value})) is False


def _cross_check_tampers():
    cross = ancel_starbird(GapSequence.periodic([2, 0, 1])).certificate["cross_check"]
    return [
        dict(cross, product="1"),
        dict(cross, taus=list(reversed(cross["taus"]))),
        dict(cross, period=cross["period"] + 1),
        dict(cross, kind="sher_armentrout"),
        ancel_starbird(GapSequence.periodic([2, 1, 0])).certificate["cross_check"],
        periodic_product(PURE_WHITEHEAD).certificate,
        "periodic_product",
        dict(cross, prefix_skipped=7),
        dict(cross, shrinks_iff="product < 1"),
    ]


@pytest.mark.parametrize("cross", _cross_check_tampers())
def test_verify_rejects_tampered_cross_check(cross):
    v = ancel_starbird(GapSequence.periodic([2, 0, 1]))
    assert verify_certificate(_tamper(v, cross_check=cross)) is False


def test_verify_rejects_a_cross_check_of_another_criterion():
    # all-(1,1) gaps also satisfy sher_armentrout, so only the kind can fail
    v = ancel_starbird(GapSequence.periodic([0]))
    other = sher_armentrout(v.sequence)
    assert verify_certificate(other) is True
    assert verify_certificate(_tamper(v, cross_check=other.certificate)) is False


def test_no_contradictions_on_random_periodic():
    rng = random.Random(31)
    for _ in range(150):
        p = rng.randrange(1, 7)
        links = tuple(
            (rng.randrange(1, 13), rng.randrange(1, 13)) for _ in range(p)
        )
        decide(PeriodicSequence(links))  # raises on any contradiction


def test_raising_tau_preserves_divergence_certificate():
    # with the same widths n_j, raising every tau (lowering m) only raises
    # the weighted terms, so the term floor can only rise
    rng = random.Random(41)
    for _ in range(40):
        p = rng.randrange(1, 5)
        base = [(rng.randrange(1, 7), rng.randrange(1, 4)) for _ in range(p)]
        seq_b = PeriodicSequence(tuple(base))
        v = divergent_weighted_tau_series(seq_b)
        if isinstance(v, str):
            assert v == f"period product {seq_b.one_period.product} < 1"
            continue
        floor = Fraction(v.certificate["term_floor"])
        raised = [
            (n, max(1, m - rng.randrange(0, m))) for n, m in base
        ]  # lower m -> raise tau
        seq_a = PeriodicSequence(tuple(raised))
        w = divergent_weighted_tau_series(seq_a)
        assert isinstance(w, ShrinkVerdict) and w.outcome == SHRINKS
        assert Fraction(w.certificate["term_floor"]) >= floor


# -- certificate bytes ----------------------------------------------------------------
#
# One verdict per certificate kind and method, serialized the way the CLI
# reads them.  The expected strings in data/certificate_bytes.json were
# captured from the code before the shrink module was restructured around
# `Period`; a refactor must reproduce them byte for byte, so never
# regenerate that file to make this test pass.

CERTIFICATE_DATA = os.path.join(os.path.dirname(__file__), "data", "certificate_bytes.json")


def _eventually(prefix, tail):
    return EventuallyPeriodicSequence(prefix=prefix, tail=tail)


def _two_case(even_n, even_m, odd_n, odd_m):
    return GeneratorSequence(
        even_n=parse_poly(even_n),
        even_m=parse_poly(even_m),
        odd_n=parse_poly(odd_n),
        odd_m=parse_poly(odd_m),
    )


def _generator(n, m):
    return GeneratorSequence(n_poly=parse_poly(n), m_poly=parse_poly(m))


CERTIFICATE_CASES = {
    "periodic_product": lambda: decide(_eventually(((1, 1), (3, 1)), ((2, 1), (3, 2)))),
    "periodic_product_shrinks": lambda: decide(PeriodicSequence(((2, 1), (3, 1)))),
    "sher_armentrout_finite": lambda: sher_armentrout(
        _eventually(((1, 1),), ((3, 2), (1, 3)))
    ),
    "sher_armentrout_symbolic": lambda: decide(_two_case("2*s", "s+1", "1", "s+1")),
    "bounded_widths_converges": lambda: decide(_generator("3", "i")),
    "bounded_widths_diverges": lambda: decide(_generator("3", "1")),
    "bounded_widths_periodic_converges": lambda: bounded_widths(
        _eventually(((5, 1),), ((1, 1), (3, 1)))
    ),
    "bounded_widths_periodic_diverges": lambda: bounded_widths(
        _eventually(((1, 2),), ((3, 1), (3, 2)))
    ),
    "convergent_periodic_geometric": lambda: convergent_tau_series(
        _eventually(((3, 1), (2, 1)), ((1, 1), (5, 2)))
    ),
    "convergent_geometric_ratio_auto": lambda: convergent_tau_series(_generator("1", "i")),
    "divergent_periodic_product": lambda: divergent_weighted_tau_series(
        _eventually(((1, 1), (4, 1)), ((4, 1), (1, 1)))
    ),
    "divergent_harmonic_auto": lambda: divergent_weighted_tau_series(
        _two_case("4", "1", "2", "1")
    ),
    "orbit_periodic_shrinks": lambda: orbit_decide(_eventually(((1, 3),), ((2, 1), (5, 2)))),
    "orbit_periodic_does_not_shrink": lambda: orbit_decide(
        _eventually(((2, 1), (7, 3)), ((1, 1), (3, 2)))
    ),
    "telescoping_pairs": lambda: decide(EXAMPLE_56),
    "telescoping_pairs_slope_one": lambda: decide(
        _two_case("2*s", "s", "2*s+2", "s+1"), k_max=12, m_max=3, p_max=200
    ),
    "orbit_evidence_generator": lambda: decide(_generator("2*i", "i"), k_max=20, m_max=4, p_max=300),
    "orbit_evidence_two_case": lambda: decide(
        _two_case("2*s", "s", "2*s+3", "s+1"), k_max=12, m_max=3, p_max=200
    ),
    "orbit_evidence_explicit": lambda: decide(
        ExplicitSequence(((2, 1), (3, 1), (1, 1), (2, 1))), k_max=10, m_max=3, p_max=50
    ),
    "ancel_starbird_periodic_geometric": lambda: ancel_starbird(GapSequence.periodic([2, 0, 1])),
    "ancel_starbird_ratio_test": lambda: ancel_starbird(GapSequence.from_poly("i^2+1")),
    "ancel_starbird_term_bound": lambda: ancel_starbird(GapSequence.two_pow(2, parse_poly("i"))),
    "ancel_starbird_zero_gaps": lambda: ancel_starbird(GapSequence.from_poly("0")),
}


def certificate_bytes(verdict) -> str:
    return json.dumps(
        {
            "outcome": verdict.outcome,
            "criterion": verdict.criterion,
            "certificate": verdict.certificate,
            "corroborating": verdict.corroborating,
            "evidence": verdict.evidence,
        },
        sort_keys=True,
    )


@pytest.mark.parametrize("name", sorted(CERTIFICATE_CASES))
def test_certificate_bytes_unchanged(name):
    with open(CERTIFICATE_DATA, encoding="utf-8") as fh:
        expected = json.load(fh)
    verdict = CERTIFICATE_CASES[name]()
    assert certificate_bytes(verdict) == expected[name]
    assert verify_certificate(verdict) is True


def test_certificate_bytes_cover_every_case():
    with open(CERTIFICATE_DATA, encoding="utf-8") as fh:
        assert sorted(json.load(fh)) == sorted(CERTIFICATE_CASES)


# -- declined criteria ------------------------------------------------------------------

_GENERATOR_DECLINES = (
    ("periodic_product", "no period"),
    ("sher_armentrout", "n >= 2m at index 2"),
    ("bounded_widths", "sup n_i is not known to be finite"),
    ("convergent_tau_series", "lim sup tau >= 1"),
    ("divergent_weighted_tau_series", "harmonic floors need bounded widths n_i"),
)
DECLINED_CASES = {
    "orbit_evidence_generator": (
        CERTIFICATE_CASES["orbit_evidence_generator"],
        (
            ("periodic_product", "no period"),
            ("sher_armentrout", "n >= 2m at index 1"),
            *_GENERATOR_DECLINES[2:],
            ("orbit_proof", "neither periodic nor a two-case generator"),
            ("ancel_starbird", "not a gap sequence"),
        ),
    ),
    "orbit_evidence_two_case": (
        CERTIFICATE_CASES["orbit_evidence_two_case"],
        (
            *_GENERATOR_DECLINES,
            ("orbit_proof", "no pair alignment telescopes to k -> k - 1"),
            ("ancel_starbird", "not a gap sequence"),
        ),
    ),
    "orbit_evidence_explicit": (
        CERTIFICATE_CASES["orbit_evidence_explicit"],
        (
            ("periodic_product", "no period"),
            ("sher_armentrout", "neither periodic nor a generator"),
            ("bounded_widths", "sup n_i is not known to be finite"),
            ("convergent_tau_series", "neither periodic nor a generator"),
            ("divergent_weighted_tau_series", "neither periodic nor a generator"),
            ("orbit_proof", "neither periodic nor a two-case generator"),
            ("ancel_starbird", "not a gap sequence"),
        ),
    ),
    "n_i_m_1": (
        lambda: decide(_generator("i", "1"), k_max=8, m_max=2, p_max=50),
        (
            *_GENERATOR_DECLINES,
            ("orbit_proof", "neither periodic nor a two-case generator"),
            ("ancel_starbird", "not a gap sequence"),
        ),
    ),
    # a decided verdict lists the criteria that declined around its own
    "example_55": (
        lambda: decide(EXAMPLE_55),
        (
            ("periodic_product", "no period"),
            *_GENERATOR_DECLINES[2:],
            ("orbit_proof", "neither periodic nor a two-case generator"),
            ("ancel_starbird", "not a gap sequence"),
        ),
    ),
    "orbit_decide_example_55": (
        lambda: orbit_decide(EXAMPLE_55, k_max=8, m_max=2, p_max=50),
        (
            ("orbit_proof", "neither periodic nor a two-case generator"),
            ("periodic_product", "no period"),
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(DECLINED_CASES))
def test_verdict_lists_the_declined_criteria_in_order(name):
    make, expected = DECLINED_CASES[name]
    assert make().declined == expected


# the gap sequences this module builds, one or more of each kind
GAP_SEQUENCES = [
    GapSequence.periodic([1]),
    GapSequence.periodic([0]),
    GapSequence.periodic([2, 0, 1]),
    GapSequence.from_poly("0"),
    GapSequence.from_poly("i"),
    GapSequence.from_poly("i^2+1"),
    GapSequence.two_pow(),
    GapSequence.two_pow(2, parse_poly("i")),
    GapSequence.explicit([3, 1, 4]),
]


@pytest.mark.parametrize("gaps", GAP_SEQUENCES, ids=repr)
def test_decide_agrees_with_ancel_starbird(gaps):
    expected = ancel_starbird(gaps)
    v = decide(gaps)
    assert verify_certificate(v) is True
    if gaps.kind == "explicit":
        # the gap row declines with the reason ancel_starbird gives
        assert (v.criterion, v.outcome) == ("orbit_evidence", UNKNOWN)
        assert v.declined[-1] == ("ancel_starbird", expected)
    elif gaps.kind == "periodic":
        # the periodic product stays primary; the gap row corroborates last
        assert (v.criterion, v.outcome) == ("periodic_product", expected.outcome)
        assert v.corroborating[-1] == ("ancel_starbird", expected.outcome)
    else:
        assert (v.criterion, v.outcome, v.certificate) == (
            "ancel_starbird", expected.outcome, expected.certificate
        )


def _count_calls(monkeypatch, name) -> list:
    """The sequences shrink.<name> is called with, recorded from now on."""
    from toroshrink import shrink

    calls = []
    original = getattr(shrink, name)

    def counting(seq):
        calls.append(seq)
        return original(seq)

    monkeypatch.setattr(shrink, name, counting)
    return calls


def test_decide_runs_the_automatic_convergence_check_once(monkeypatch):
    calls = _count_calls(monkeypatch, "convergent_tau_series")
    v = decide(_generator("3", "1"))
    assert v.criterion == "bounded_widths"
    assert len(calls) == 1


@pytest.mark.parametrize(
    "seq",
    [PURE_BING, PURE_WHITEHEAD, GapSequence.periodic([2, 0, 1])],
    ids=["bing", "whitehead", "periodic-gaps"],
)
def test_decide_runs_the_periodic_product_once(monkeypatch, seq):
    calls = _count_calls(monkeypatch, "periodic_product")
    v = decide(seq)
    assert v.criterion == "periodic_product"
    assert ("orbit_periodic", v.outcome) in v.corroborating
    assert len(calls) == 1
