import random
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import example, given, strategies as st

from toroshrink.drf import chain_orbit, chain_steps, chain_walk, compose, nm_drf
from toroshrink.freegroup import Word
from toroshrink.linkio import CoverDerivation, LinkPresentation
from toroshrink.milnor import MilnorLowerFn, WitnessError, lower_milnor_drf, nm_lower_drf


def fraction_ceil(a, b):
    # independent rational-ceiling oracle
    return ceil(Fraction(a, b))


def test_lower_chain_case_matches_fraction_oracle():
    # a witness of length > 2 bounds by the DRF of a (kept + blowdowns, d) chain
    rng = random.Random(3)
    for _ in range(500):
        d, kept, blowdowns = rng.randrange(1, 50), rng.randrange(1, 10), rng.randrange(0, 40)
        k = rng.randrange(0, 10_000)
        der = CoverDerivation(
            d=d, kept_n=kept, blowdowns=blowdowns, witness_index=(0, 1, 2), witness_value=1
        )
        oracle = max(fraction_ceil(2 * d * k, kept + blowdowns) - 1, 0)
        assert MilnorLowerFn.case_value(der, k) == oracle


_links_st = st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)), max_size=6)


@given(links=_links_st, values=st.lists(st.integers(1, 10**6), max_size=20))
def test_chain_steps_match_fraction_oracle(links, values):
    values = [0, *values]
    expected = []
    for v in values:
        for n, m in links:
            v = max(fraction_ceil(2 * m * v, n) - 1, 0)
        expected.append(v)
    assert chain_steps([(n, 2 * m) for n, m in links], values) == expected


@given(links=_links_st, v=st.integers(1, 10**6), cap=st.integers(1, 10**4))
def test_chain_walk_stops_where_the_orbit_vanishes_or_caps(links, v, cap):
    pairs = [(n, 2 * m) for n, m in links]
    orbit = chain_orbit(pairs, v)
    # the first step whose value is 0 or above the cap; v itself is not capped
    stop = next((t for t, w in enumerate(orbit) if t and (w == 0 or w > cap)), None)
    if stop is None:
        expected = (orbit[-1], len(pairs))
    else:
        expected = (min(orbit[stop], cap + 1), stop)
    assert chain_walk(pairs, v, cap) == expected


def _enumerate_walk(pairs, v, cap):
    """The counting loop `chain_walk` replaced, kept as its oracle."""
    for applied, (n, two_m) in enumerate(pairs, 1):
        v = (two_m * v - 1) // n
        if not v:
            return 0, applied
        if v > cap:
            return cap + 1, applied
    return v, len(pairs)


_HUGE = st.integers(1, 10**30)


@given(
    links=st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)) | st.tuples(_HUGE, _HUGE),
                   max_size=8),
    v=st.integers(1, 10**6) | _HUGE,
    cap=st.integers(1, 10**4) | st.just(10**9),
)
@example(links=[], v=5, cap=3)  # no links: v comes back unstepped, above the cap
@example(links=[(1, 1)] * 3, v=10**20, cap=10**9)  # a start above the cap
@example(links=[(2**64 + 1, 2**65)] * 4, v=3, cap=10**9)  # links above 2^63
def test_chain_walk_matches_the_counting_loop(links, v, cap):
    pairs = [(n, 2 * m) for n, m in links]
    expected = _enumerate_walk(pairs, v, cap)
    assert chain_walk(pairs, v, cap) == expected
    assert chain_walk(tuple(pairs), v, cap) == expected
    assert chain_walk(iter(pairs), v, cap) == expected


def test_bing_formula():
    f = nm_drf((2, 1))
    for k in range(1, 200):
        assert f(k) == k - 1


def test_whitehead_formula():
    f = nm_drf((1, 1))
    for k in range(1, 200):
        assert f(k) == 2 * k - 1


def test_three_two_chain_at_eight():
    assert nm_drf((3, 2))(8) == 10


def test_exact_nm_43_at_one():
    assert nm_drf((4, 3))(1) == fraction_ceil(6, 4) - 1 == 1


def test_zero_absorption():
    for f in (nm_drf((3, 2)), nm_lower_drf((2, 1))):
        assert f(0) == 0


def test_negative_k_rejected():
    for f in (nm_drf((2, 1)), nm_lower_drf((2, 1))):
        with pytest.raises(ValueError):
            f(-1)


def test_lower_milnor_whitehead_case():
    # winding-degree cover with the whitehead witness: f(k) = 2mk - 1
    for m in (1, 2, 5):
        f = nm_lower_drf((1, m))
        for k in range(1, 50):
            assert f(k) == 2 * m * k - 1


def test_lower_milnor_chain_case():
    # one kept chain copy, n-2 blow-downs: f(k) = ceil(2mk/n) - 1
    for n, m in [(2, 1), (3, 2), (5, 3), (8, 1)]:
        f = nm_lower_drf((n, m))
        for k in range(1, 50):
            assert f(k) == max(fraction_ceil(2 * m * k, n) - 1, 0)


def test_lower_milnor_empty_is_zero():
    f = lower_milnor_drf([])
    assert all(f(k) == 0 for k in range(10))


def test_lower_milnor_no_witness_case_is_zero():
    der = CoverDerivation(d=3, kept_n=2, blowdowns=1)
    f = lower_milnor_drf([der])
    assert f(7) == 0


def test_lower_milnor_length_two_witness():
    der = CoverDerivation(
        d=1, kept_n=1, blowdowns=0, witness_index=(0, 1), witness_value=-2
    )
    f = lower_milnor_drf([der])
    assert f(5) == 10


def test_witness_verification_rejects_zero():
    rank2_unlink = LinkPresentation(
        labels=(0, 1),
        longitude={0: Word(2), 1: Word(2)},
    )
    der = CoverDerivation(
        d=1,
        kept_n=1,
        blowdowns=0,
        witness_index=(0, 0, 1, 1),
        witness_value=1,
        witness_link=rank2_unlink,
    )
    with pytest.raises(WitnessError, match="computes to 0"):
        lower_milnor_drf([der])


def test_witness_verification_rejects_wrong_value():
    from toroshrink.linkio import pd_fixture

    der = CoverDerivation(
        d=1,
        kept_n=1,
        blowdowns=0,
        witness_index=(0, 0, 1, 1),
        witness_value=7,
        witness_link=pd_fixture("whitehead"),
    )
    with pytest.raises(WitnessError, match="disagrees"):
        lower_milnor_drf([der])


def test_lower_bound_never_exceeds_exact():
    for n in range(1, 8):
        for m in range(1, 8):
            exact = nm_drf((n, m))
            lower = nm_lower_drf((n, m))
            for k in range(0, 300):
                assert lower(k) <= exact(k)


def test_monotonicity_sampled():
    rng = random.Random(11)
    for _ in range(30):
        n, m = rng.randrange(1, 21), rng.randrange(1, 21)
        f = nm_drf((n, m))
        prev = 0
        for k in range(0, 2000):
            v = f(k)
            assert v >= prev
            prev = v


def test_expansion_when_n_below_2m():
    # feeds the nonshrinking criterion: D(k) >= k whenever n < 2m
    for n, m in [(1, 1), (2, 2), (3, 2), (5, 3)]:
        if n < 2 * m:
            f = nm_drf((n, m))
            for k in range(1, 500):
                assert f(k) >= k


def test_compose_mixed_pair():
    # two-step pattern: first expand by 4k-1, then contract
    orbit = compose([nm_drf((2, 4)), nm_drf((8, 1))], 3)
    assert orbit == [3, 11, 2]


def test_compose_pure_bing():
    orbit = compose([nm_drf((2, 1))] * 5, 5)
    assert orbit == [5, 4, 3, 2, 1, 0]


def test_compose_empty():
    assert compose([], 7) == [7]
