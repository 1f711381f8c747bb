import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toroshrink.drf import compose, nm_drf
from toroshrink.linkio import NMLinkSpec
from toroshrink.sequences import (
    EventuallyPeriodicSequence,
    ExplicitSequence,
    GapSequence,
    GeneratorSequence,
    HorizonError,
    IntPoly,
    PeriodicSequence,
    SequenceError,
    parse_poly,
    parse_sequence_config,
    sequence_to_config,
    tau,
)


def test_parse_poly_examples():
    assert parse_poly("2*s^2")(3) == 18
    assert parse_poly("(s+1)^2")(2) == 9
    assert parse_poly("i+1")(7) == 8
    assert parse_poly("3")(100) == 3
    assert parse_poly("2*i - 4")(1) == -2
    assert parse_poly("-s + s^2")(3) == 6


def test_parse_poly_rejects_garbage():
    for bad in ["", "s + t", "s^", "2**s", "s^-1", "(s+1", "s)"]:
        with pytest.raises(SequenceError):
            parse_poly(bad)


def test_poly_text_round_trip():
    for text in ["2*s^2", "(s+1)^2", "i+1", "7", "s^3 - 2*s + 1"]:
        p = parse_poly(text)
        assert parse_poly(p.text("s")) == p


def test_ge_from_complete_decision():
    p = parse_poly("2*i - 4")
    assert p.ge_from(0, 1) == (False, 1)
    assert p.ge_from(0, 2) == (True, None)
    q = parse_poly("i^2 - 10*i + 1")
    ok, witness = q.ge_from(0, 1)
    assert not ok and q(witness) < 0
    assert q.ge_from(0, 10) == (True, None)
    neg = parse_poly("5 - i^2")
    ok, witness = neg.ge_from(0, 1)
    assert not ok and neg(witness) < 0


def test_ge_from_constant():
    assert IntPoly.const(3).ge_from(1, 5) == (True, None)
    assert IntPoly.const(0).ge_from(1, 5)[0] is False


def test_divide_exact():
    s = IntPoly.var()
    p = parse_poly("2*s^2 + 2*s")
    assert p.divide_exact(parse_poly("2*s")) == parse_poly("s + 1")
    assert p.divide_exact(parse_poly("3*s")) is None
    assert parse_poly("s^2+1").divide_exact(parse_poly("s")) is None
    assert parse_poly("2*(s+1)^2").divide_exact(IntPoly.const(2)) == parse_poly(
        "(s+1)^2"
    )


def test_shifted_arg():
    p = parse_poly("s^2")
    assert p.shifted_arg(1) == parse_poly("(s+1)^2")
    assert p.shifted_arg(1)(4) == 25


def test_periodic_sequence():
    seq = PeriodicSequence(((2, 1), (1, 1)))
    assert seq.link(1) == NMLinkSpec(2, 1)
    assert seq.link(2) == NMLinkSpec(1, 1)
    assert seq.link(3) == NMLinkSpec(2, 1)
    assert seq.tau(2) == Fraction(1, 2)


def test_eventually_periodic_sequence():
    seq = EventuallyPeriodicSequence(prefix=((4, 1),), tail=((2, 1),))
    assert seq.link(1) == NMLinkSpec(4, 1)
    assert seq.link(2) == seq.link(77) == NMLinkSpec(2, 1)


def test_generator_single_form():
    seq = GeneratorSequence(n_poly=parse_poly("2*i"), m_poly=parse_poly("i+1"))
    assert seq.link(3) == NMLinkSpec(6, 4)
    assert seq.tau(3) == Fraction(6, 8)


def test_generator_two_case_form():
    seq = GeneratorSequence(
        even_n=parse_poly("2*s^2"),
        even_m=parse_poly("1"),
        odd_n=parse_poly("2"),
        odd_m=parse_poly("(s+1)^2"),
    )
    assert seq.link(1) == NMLinkSpec(2, 1)  # odd index 1: s = 0
    assert seq.link(2) == NMLinkSpec(2, 1)  # even index 2: s = 1
    assert seq.link(5) == NMLinkSpec(2, 9)  # odd index 5: s = 2
    assert seq.link(6) == NMLinkSpec(18, 1)  # even index 6: s = 3


def test_generator_rejects_nonpositive_terms():
    with pytest.raises(SequenceError, match=">= 1"):
        GeneratorSequence(n_poly=parse_poly("i - 3"), m_poly=parse_poly("1"))


@pytest.mark.parametrize("case, index", [("odd", 1), ("even", 2)])
def test_two_case_positivity_error_names_the_link_index(case, index):
    # s - 4 < 1 already at the first s of the case: odd s = 0, even s = 1
    terms = {"even_n": "2", "even_m": "1", "odd_n": "2", "odd_m": "1", f"{case}_n": "s-4"}
    with pytest.raises(SequenceError, match=f"^{case} n term is not >= 1 at index {index}$"):
        GeneratorSequence(**{key: parse_poly(text) for key, text in terms.items()})


# n and m terms >= 1 at every s >= 0: a constant >= 1 and nonnegative rest
_branch_term = st.lists(st.integers(0, 3), min_size=1, max_size=3).map(
    lambda cs: IntPoly((cs[0] + 1, *cs[1:]))
)


@settings(max_examples=200, deadline=None)
@given(
    terms=st.lists(_branch_term, min_size=4, max_size=4),
    two_case=st.booleans(),
    weights=st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-6, 6)),
    i0=st.integers(1, 12),
)
def test_branch_violation_matches_link_scan(terms, two_case, weights, i0):
    if two_case:
        seq = GeneratorSequence(even_n=terms[0], even_m=terms[1], odd_n=terms[2], odd_m=terms[3])
    else:
        seq = GeneratorSequence(n_poly=terms[0], m_poly=terms[1])
    a, b, c = weights
    for branch in seq.branches:
        margin = branch.n.scaled(a) + branch.m.scaled(b) + IntPoly.const(c)
        # every coefficient of the margin is at most 30 in size, so it has
        # no sign change past s = 31 (Cauchy), i.e. past link index 63
        parity = {"all": None, "even": 0, "odd": 1}[branch.name]
        scan = [i for i in range(i0, 200) if parity is None or i % 2 == parity]
        bad = [i for i in scan if a * seq.link(i).n + b * seq.link(i).m + c < 0]
        assert branch.violation(margin, i0) == (bad[0] if bad else None)


def test_explicit_sequence_horizon():
    seq = ExplicitSequence(((2, 1), (1, 1)))
    assert seq.known_bound() == 2
    assert seq.link(2) == NMLinkSpec(1, 1)
    with pytest.raises(HorizonError):
        seq.link(3)


def test_parse_sequence_config_periodic():
    cfg = '{"variant":"periodic","links":[{"nm":[2,1]},{"nm":[1,1]}]}'
    seq = parse_sequence_config(cfg)
    assert isinstance(seq, PeriodicSequence)
    assert seq.links == (NMLinkSpec(2, 1), NMLinkSpec(1, 1))


def test_parse_sequence_config_generator_two_case():
    cfg = (
        '{"variant":"generator",'
        '"even":{"n":"2*s^2","m":"1"},'
        '"odd":{"n":"2","m":"(s+1)^2"}}'
    )
    seq = parse_sequence_config(cfg)
    assert isinstance(seq, GeneratorSequence) and seq.two_case


def test_parse_sequence_config_aliases():
    seq = parse_sequence_config(
        {"variant": "periodic", "links": ["bing", "whitehead", "nm(3,2)"]}
    )
    assert seq.links == (NMLinkSpec(2, 1), NMLinkSpec(1, 1), NMLinkSpec(3, 2))


def test_config_round_trip():
    configs = [
        {"variant": "periodic", "links": [{"nm": [2, 2]}]},
        {
            "variant": "eventually_periodic",
            "prefix": [{"nm": [4, 1]}],
            "period": [{"nm": [2, 1]}],
        },
        {"variant": "explicit", "links": [{"nm": [1, 1]}, {"nm": [2, 1]}]},
        {"variant": "generator", "n": "2*i", "m": "i + 1"},
        {
            "variant": "generator",
            "even": {"n": "2*s^2", "m": "1"},
            "odd": {"n": "2", "m": "s^2 + 2*s + 1"},
        },
    ]
    for cfg in configs:
        seq = parse_sequence_config(json.dumps(cfg))
        again = parse_sequence_config(sequence_to_config(seq))
        upto = seq.known_bound() or 8
        for i in range(1, upto + 1):
            assert seq.link(i) == again.link(i)


def test_parse_sequence_config_errors():
    with pytest.raises(SequenceError):
        parse_sequence_config({"variant": "spiral"})
    with pytest.raises(SequenceError):
        parse_sequence_config({"variant": "periodic", "links": ["trefoil"]})


@pytest.mark.parametrize(
    "cfg, key",
    [
        ({"variant": "periodic"}, "links"),
        ({"variant": "explicit"}, "links"),
        ({"variant": "eventually_periodic", "prefix": []}, "period"),
        ({"variant": "generator", "n": "2*i"}, "m"),
        ({"variant": "generator", "m": "1"}, "n"),
        ({"variant": "generator", "odd": {"n": "2", "m": "1"}}, "even"),
        ({"variant": "generator", "even": {"n": "2"}, "odd": {"n": "2", "m": "1"}}, "m"),
    ],
)
def test_parse_sequence_config_names_missing_key(cfg, key):
    with pytest.raises(SequenceError, match=f"missing the key {key!r}"):
        parse_sequence_config(cfg)


def test_gap_sequence_periodic():
    gaps = GapSequence.periodic([1, 2])
    assert [gaps.gap(i) for i in range(1, 5)] == [1, 2, 1, 2]
    assert gaps.term(2) == Fraction(2, 4)


def test_gap_sequence_poly():
    gaps = GapSequence.from_poly("i")
    assert gaps.gap(5) == 5
    assert gaps.term(3) == Fraction(3, 8)


def test_gap_sequence_two_pow():
    gaps = GapSequence.two_pow()
    assert gaps.gap(4) == 16
    assert gaps.term(4) == 1


def test_gap_sequence_rejects_negative():
    with pytest.raises(SequenceError):
        GapSequence.periodic([2, -1])
    with pytest.raises(SequenceError):
        GapSequence.from_poly("i - 5")


def test_tau_helper():
    assert tau(NMLinkSpec(3, 2)) == Fraction(3, 4)


# -- the Period of the periodic variants ---------------------------------------
#
# The criteria and the certificate verifier both read `one_period`, so the
# oracle below recomputes everything from seq.link(i) alone.

_link_st = st.tuples(st.integers(1, 12), st.integers(1, 12))


@st.composite
def _periodic_case(draw):
    prefix = draw(st.lists(_link_st, max_size=4))
    links = draw(st.lists(_link_st, min_size=1, max_size=5))
    if not prefix and draw(st.booleans()):
        return PeriodicSequence(tuple(links)), 0, len(links)
    return EventuallyPeriodicSequence(tuple(prefix), tuple(links)), len(prefix), len(links)


@given(_periodic_case())
def test_period_matches_a_link_by_link_oracle(case):
    seq, prefix_len, p = case
    specs = [seq.link(i) for i in range(1, prefix_len + p + 1)]
    taus = [Fraction(s.n, 2 * s.m) for s in specs]
    partials = []
    running = Fraction(1)
    for t in taus:
        running *= t
        partials.append(running)
    product = Fraction(1)
    for t in taus[prefix_len:]:
        product *= t
    slope = Fraction(1)
    for s in specs[prefix_len:]:
        slope *= Fraction(2 * s.m, s.n)

    period = seq.one_period
    assert period is seq.one_period
    assert list(period.prefix) == specs[:prefix_len]
    assert list(period.links) == specs[prefix_len:]
    assert list(period.taus) == taus[prefix_len:]
    assert period.product == product
    assert period.slope == slope
    assert list(period.partials) == partials
    assert list(period.block_partials) == [
        q / (partials[prefix_len - 1] if prefix_len else 1) for q in partials[prefix_len:]
    ]
    fns = [nm_drf(s) for s in specs[prefix_len:]]
    for k in range(0, 25):
        assert period.composite(k) == compose(fns, k)[-1]


def test_period_is_none_off_the_periodic_variants():
    assert GeneratorSequence(n_poly=parse_poly("2"), m_poly=parse_poly("1")).one_period is None
    two_case = GeneratorSequence(
        even_n=parse_poly("2"), even_m=parse_poly("1"), odd_n=parse_poly("1"), odd_m=parse_poly("1")
    )
    assert two_case.one_period is None
    assert ExplicitSequence(((2, 1), (1, 1))).one_period is None
