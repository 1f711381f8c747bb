import itertools
import random
from math import comb

import pytest
from hypothesis import given, strategies as st

from toroshrink.freegroup import (
    Word,
    commutator,
    iterated_fox_coefficient,
    parse_word,
)
from toroshrink.magnus import (
    MagnusSeries,
    TruncationMismatch,
    TruncationTooShallow,
    expand,
    format_series,
    lcs_depth,
    word_coefficient,
)

x0, x1, x2 = (Word(3, [(g, 1)]) for g in range(3))


def random_word(rng, rank=3, max_len=10):
    n = rng.randrange(max_len + 1)
    return Word(rank, [(rng.randrange(rank), rng.choice((1, -1))) for _ in range(n)])


def test_expand_generator():
    assert expand(x1, 2) == MagnusSeries(2, {(): 1, (1,): 1})


def test_expand_inverse_generator():
    assert expand(x1.inverse(), 2) == MagnusSeries(2, {(): 1, (1,): -1, (1, 1): 1})


def test_expand_commutator():
    # direct product of the four truncated factors, computed independently
    # with iterated Fox derivatives below as well
    got = expand(commutator(x1, x2), 2)
    assert got == MagnusSeries(2, {(): 1, (1, 2): 1, (2, 1): -1})


def test_series_multiply_inverse_pair():
    a = MagnusSeries(2, {(): 1, (1,): 1})
    b = MagnusSeries(2, {(): 1, (1,): -1, (1, 1): 1})
    assert a * b == MagnusSeries.one(2)


def test_series_multiply_identity():
    s = expand(x1 * x2.inverse(), 3)
    assert MagnusSeries.one(3) * s == s


def test_series_multiply_binomial():
    a = MagnusSeries(2, {(): 1, (1,): 1})
    b = MagnusSeries(2, {(): 1, (2,): 1})
    assert a * b == MagnusSeries(
        2, {(): 1, (1,): 1, (2,): 1, (1, 2): 1}
    )


def test_series_multiply_degree_mismatch():
    with pytest.raises(TruncationMismatch):
        MagnusSeries.one(2) * MagnusSeries.one(3)


def test_coefficient_examples():
    s = expand(commutator(x1, x2), 2)
    assert s.coefficient((1, 2)) == 1
    assert expand(x1, 2).coefficient((2,)) == 0
    assert expand(Word(3), 3).coefficient((1,)) == 0
    assert expand(Word(3), 3).coefficient((1, 2, 1)) == 0


def test_coefficient_too_deep():
    with pytest.raises(TruncationTooShallow):
        expand(x1, 2).coefficient((0, 1, 2))


def test_lcs_depth_examples():
    assert lcs_depth(x1, 4) == 1
    assert lcs_depth(commutator(x1, x2), 3) == 2
    assert lcs_depth(Word(3), 3) == 3


# words of rank 3: random letters, and commutators nested up to four leaves
words_st = st.recursive(
    st.lists(st.tuples(st.integers(0, 2), st.sampled_from((1, -1))), max_size=10).map(
        lambda letters: Word(3, letters)
    ),
    lambda inner: st.tuples(inner, inner).map(lambda uv: commutator(*uv)),
    max_leaves=4,
)


@given(words_st, st.integers(1, 6))
def test_lcs_depth_matches_full_expansion(w, q):
    # lcs_depth stops at degree q - 1; the oracle expands all of degree q
    assert lcs_depth(w, q) == min(expand(w, q).min_positive_degree() or q, q)
    # iterated commutator lands one level deeper
    assert lcs_depth(commutator(commutator(x1, x2), x0), 4) == 3


def test_homomorphism_law_random():
    rng = random.Random(5)
    for q in (2, 3, 4):
        for _ in range(60):
            u, v = random_word(rng), random_word(rng)
            assert expand(u * v, q) == expand(u, q) * expand(v, q)


def test_inverse_law_random():
    rng = random.Random(6)
    for q in (2, 3, 4):
        for _ in range(60):
            w = random_word(rng)
            assert expand(w, q) * expand(w.inverse(), q) == MagnusSeries.one(q)


def test_fox_magnus_agreement_random():
    # coefficients of the Magnus expansion and of the prefix DP match
    # augmented iterated Fox derivatives; Fox calculus shares no code path
    # with either
    rng = random.Random(8)
    for _ in range(120):
        w = random_word(rng)
        length = rng.randrange(1, 4)
        index = tuple(rng.randrange(3) for _ in range(length))
        fox = iterated_fox_coefficient(w, index)
        assert expand(w, length).coefficient(index) == fox
        assert word_coefficient(w, index) == fox


@pytest.mark.parametrize(
    "text",
    ["x1^-3", "x1^-3 x2 x1^-2", "x0^-2 x1^-1 x0^-2 x1^-1", "x2 x1^-4 x2^-3 x1^2"],
)
def test_word_coefficient_inverse_runs(text):
    # runs of inverse letters against runs in the index exercise the
    # alternating sum of the DP
    w = parse_word(text, 3)
    series = expand(w, 5)
    for length in range(6):
        for index in itertools.product(range(3), repeat=length):
            fox = iterated_fox_coefficient(w, index)
            assert word_coefficient(w, index) == fox == series.coefficient(index)


def test_word_coefficient_inverse_powers_are_binomial():
    # (1 + k)^-n = sum_p (-1)^p C(n+p-1, p) k^p
    for n in range(1, 5):
        w = Word(3, [(1, -1)] * n)
        for p in range(6):
            assert word_coefficient(w, (1,) * p) == (-1) ** p * comb(n + p - 1, p)


def test_truncation_stability_random():
    rng = random.Random(9)
    for _ in range(40):
        w = random_word(rng)
        index = tuple(rng.randrange(3) for _ in range(rng.randrange(1, 4)))
        values = {expand(w, q).coefficient(index) for q in range(len(index), 7)}
        assert len(values) == 1


def test_format_series_canonical():
    s = expand(commutator(x1, x2), 2)
    assert format_series(s) == "1 + k1*k2 - k2*k1"
    assert format_series(MagnusSeries(2)) == "0"
    assert format_series(expand(x1.inverse(), 2)) == "1 - k1 + k1*k1"


def test_format_series_coefficient_magnitudes():
    s = MagnusSeries(2, {(): -2, (0, 1): 3})
    assert format_series(s) == "-2 + 3*k0*k1"
