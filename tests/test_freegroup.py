import random

import pytest
from hypothesis import example, given, strategies as st

from toroshrink.freegroup import (
    GeneratorRange,
    GroupRingElement,
    RankMismatch,
    Word,
    commutator,
    fox_derivative,
    format_word,
    iterated_fox_coefficient,
    parse_word,
)

x0, x1, x2 = (Word(3, [(g, 1)]) for g in range(3))


def random_word(rng, rank=3, max_len=12):
    n = rng.randrange(max_len + 1)
    return Word(rank, [(rng.randrange(rank), rng.choice((1, -1))) for _ in range(n)])


# letters strategy for hypothesis: raw (gen, sign) pairs in rank 3
letters_st = st.lists(
    st.tuples(st.integers(0, 2), st.sampled_from((1, -1))), max_size=14
)


def test_reduce_cancellation():
    assert Word(3, [(1, 1), (1, -1)]).is_identity()


def test_reduce_inner_cancellation():
    w = Word(3, [(1, 1), (2, 1), (2, -1), (1, 1)])
    assert w == Word(3, [(1, 1), (1, 1)])


def test_reduce_already_reduced():
    letters = [(1, 1), (2, 1), (1, -1)]
    assert Word(3, letters).letters == tuple(letters)


def test_reduce_rejects_out_of_range():
    with pytest.raises(GeneratorRange):
        Word(2, [(2, 1)])


def test_multiply_inverse_pair():
    assert (x1 * x1.inverse()).is_identity()


def test_multiply_cancels_across_boundary():
    assert (x1 * x2) * (x2.inverse() * x0) == x1 * x0


def test_multiply_identity_neutral():
    w = x1 * x2 * x1.inverse()
    assert Word(3) * w == w
    assert w * Word(3) == w


def test_multiply_rank_mismatch():
    with pytest.raises(RankMismatch):
        Word(2, [(0, 1)]) * Word(3, [(0, 1)])


def test_invert_examples():
    assert (x1 * x2).inverse() == x2.inverse() * x1.inverse()
    assert Word(3).inverse().is_identity()
    assert x1.inverse().inverse() == x1


def test_commutator_examples():
    assert commutator(x1, x2) == Word(3, [(1, 1), (2, 1), (1, -1), (2, -1)])
    assert commutator(x1, x1).is_identity()
    assert commutator(x1, Word(3)).is_identity()


@given(letters_st)
def test_reduce_idempotent(letters):
    w = Word(3, letters)
    assert Word(3, w.letters) == w


@given(letters_st)
def test_inverse_laws(letters):
    w = Word(3, letters)
    assert (w * w.inverse()).is_identity()
    assert w.inverse().inverse() == w


@given(letters_st, letters_st, st.integers(-4, 4))
@example([(1, 1)], [(2, 1)], 3)  # x1 x2 x1^-1: each junction cancels x1^-1 x1
def test_power(outer, inner, n):
    assert x1**3 == Word(3, [(1, 1)] * 3)
    assert x1**-2 == Word(3, [(1, -1)] * 2)
    assert (x1**0).is_identity()
    # a conjugate u v u^-1 cancels where one copy meets the next
    u = Word(3, outer)
    w = u * Word(3, inner) * u.inverse()
    repeated = Word(3)
    for _ in range(abs(n)):
        repeated = repeated * (w if n >= 0 else w.inverse())
    assert w**n == repeated


# -- text syntax -------------------------------------------------------


def test_parse_format_round_trip_examples():
    for text in ["x1 x2 x1^-1 x2^-1", "x0^3 x2^-2", "1"]:
        w = parse_word(text, 3)
        assert format_word(w) == text
        assert parse_word(format_word(w), 3) == w


def test_parse_star_separator():
    assert parse_word("x1*x2", 3) == x1 * x2


def test_parse_rejects_garbage():
    for bad in ["", "y1", "x1^", "x1 ^2", "xx1"]:
        with pytest.raises(ValueError):
            parse_word(bad, 3)


@given(letters_st)
def test_round_trip_random(letters):
    w = Word(3, letters)
    assert parse_word(format_word(w), 3) == w


# -- Fox calculus ------------------------------------------------------


def test_fox_base_rule():
    assert fox_derivative(x1, 1) == GroupRingElement.one(3)
    assert fox_derivative(x1, 2) == GroupRingElement.zero(3)


def test_fox_inverse_rule():
    assert fox_derivative(x1.inverse(), 1) == GroupRingElement.from_word(
        x1.inverse(), -1
    )


def test_fox_commutator_by_hand():
    # D([x1,x2], x1) = 1 - x1 x2 x1^-1, from the product rule applied letterwise
    got = fox_derivative(commutator(x1, x2), 1)
    expected = GroupRingElement(3, {Word(3): 1, x1 * x2 * x1.inverse(): -1})
    assert got == expected


def test_fox_product_rule_random():
    rng = random.Random(7)
    for _ in range(200):
        u, v = random_word(rng), random_word(rng)
        g = rng.randrange(3)
        lhs = fox_derivative(u * v, g)
        rhs = fox_derivative(u, g) + fox_derivative(v, g).translated(u)
        assert lhs == rhs


def test_fox_augmentation_is_exponent_sum():
    rng = random.Random(11)
    for _ in range(200):
        w = random_word(rng)
        g = rng.randrange(3)
        assert fox_derivative(w, g).augmentation() == w.exponent_sum(g)


def test_iterated_fox_degree_two():
    # coefficient of k1 k2 in the expansion of x1 x2 is 1; of k2 k1 it is 0
    w = x1 * x2
    assert iterated_fox_coefficient(w, (1, 2)) == 1
    assert iterated_fox_coefficient(w, (2, 1)) == 0
