import random
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import given, strategies as st

from toroshrink.freegroup import Word
from toroshrink.linkio import CoverDerivation, LinkPresentation, NMLinkSpec
from toroshrink.drf import (
    WitnessError,
    ceil_div,
    chain_step,
    chain_steps,
    compose,
    lower_milnor_drf,
    nm_drf,
    nm_lower_drf,
)


def fraction_ceil(a, b):
    # independent rational-ceiling oracle
    return ceil(Fraction(a, b))


def test_ceil_div_matches_fraction_oracle():
    rng = random.Random(3)
    for _ in range(500):
        a = rng.randrange(0, 10_000)
        b = rng.randrange(1, 50)
        assert ceil_div(a, b) == fraction_ceil(a, b)


@given(
    links=st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)), max_size=6),
    values=st.lists(st.integers(1, 10**6), max_size=20).map(lambda vs: [0, *vs]),
)
def test_chain_steps_match_chain_step_link_by_link(links, values):
    expected = []
    for v in values:
        for n, m in links:
            oracle = max(fraction_ceil(2 * m * v, n) - 1, 0)
            v = chain_step(NMLinkSpec(n, m), v)
            assert v == oracle
        expected.append(v)
    assert chain_steps([(n, 2 * m) for n, m in links], values) == expected


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
