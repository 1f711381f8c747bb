import json
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from toroshrink import sequences
from toroshrink.drf import NMLinkSpec, chain_steps, compose, nm_drf
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
    partial_products,
    sequence_to_config,
)


def test_parse_poly_examples():
    assert parse_poly("2*s^2")(3) == 18
    assert parse_poly("(s+1)^2")(2) == 9
    assert parse_poly("i+1")(7) == 8
    assert parse_poly("3")(100) == 3
    assert parse_poly("2*i - 4")(1) == -2
    assert parse_poly("-s + s^2")(3) == 6


@st.composite
def _poly_text(draw, var, depth=2):
    """Text in the term grammar: signed sums of products of factors, each
    factor a constant, the variable or a parenthesised sum, maybe raised
    to a constant power."""

    def factor():
        kind = draw(st.sampled_from(("const", "var", "paren") if depth else ("const", "var")))
        if kind == "const":
            body = str(draw(st.integers(0, 10**4)))
        elif kind == "var":
            body = var
        else:
            body = f"({draw(_poly_text(var, depth - 1))})"
        if draw(st.booleans()):
            body += f"^{draw(st.integers(0, 3))}"
        return body

    terms = [
        "*".join(factor() for _ in range(draw(st.integers(1, 3))))
        for _ in range(draw(st.integers(1, 3)))
    ]
    text = terms[0]
    for term in terms[1:]:
        text += draw(st.sampled_from((" + ", " - ", "+", "-"))) + term
    return ("-" + text) if draw(st.booleans()) else text


@settings(max_examples=100, deadline=None)
@given(st.sampled_from("isxk").flatmap(lambda v: st.tuples(st.just(v), _poly_text(v))))
def test_parse_poly_matches_sympy_expansion(case):
    import sympy

    var, text = case
    x = sympy.Symbol(var)
    expanded = sympy.Poly(sympy.sympify(text.replace("^", "**"), locals={var: x}), x)
    coeffs = [int(c) for c in reversed(expanded.all_coeffs())]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    try:
        parsed = parse_poly(text)
    except SequenceError as e:
        # with positive constants, + for -, and no ^0, no term cancels or
        # vanishes: the degree bounds that of every part of the text
        positive = re.sub(r"(?<!\^)\d+", "1", text).replace("-", "+").replace("^0", "^1")
        degree = sympy.Poly(sympy.sympify(positive.replace("^", "**"), locals={var: x}), x)
        assert "degree above 64" in str(e) and degree.degree() > 64
        return
    assert parsed.coeffs == tuple(coeffs)


def test_parse_poly_rejects_garbage():
    for bad in ["", "s + t", "s^", "2**s", "s^-1", "(s+1", "s)"]:
        with pytest.raises(SequenceError):
            parse_poly(bad)


def test_parse_poly_bounds_the_degree():
    assert parse_poly("(i+1)^64").degree == 64
    assert parse_poly("i^30*i^30*(i^2)^2").degree == 64
    for bad in ["(i+1)^65", "(i^2)^33", "i^30*i^30*i^5", "(i*i^64)^0", "(i+1)^100000"]:
        with pytest.raises(SequenceError, match=re.escape(f"term {bad!r} has degree above 64")):
            parse_poly(bad)


def test_parse_poly_bounds_a_constant_power_by_its_size():
    # a constant has degree 0 whatever its exponent
    assert parse_poly("10^100").coeffs == (10**100,)
    assert parse_poly("1^1000000").coeffs == (1,)
    assert parse_poly("2^65*i").coeffs == (0, 2**65)
    assert parse_poly("(0-3)^3 + 2^4095").coeffs == (2**4095 - 27,)
    # so is a base whose variable terms cancel
    assert parse_poly("(i-i+2)^65").coeffs == (2**65,)
    assert parse_poly("(i-i)^70").is_zero()
    assert parse_poly("(0*i)^65").is_zero()
    assert parse_poly("(i-i)^0").coeffs == (1,)
    for bad in ["2^4096", "3^4096", "10^2000", "(1 + 1)^100000000", "(i-i+2)^100000000"]:
        with pytest.raises(SequenceError, match=re.escape(f"term {bad!r} has a constant of")):
            parse_poly(bad)


def test_poly_text_round_trip():
    for text in ["2*s^2", "(s+1)^2", "i+1", "7", "s^3 - 2*s + 1"]:
        p = parse_poly(text)
        assert parse_poly(p.text("s")) == p


def test_first_negative_complete_decision():
    p = parse_poly("2*i - 4")
    assert p.first_negative(1) == 1
    assert p.first_negative(2) is None
    q = parse_poly("i^2 - 10*i + 1")
    witness = q.first_negative(1)
    assert witness is not None and q(witness) < 0
    assert q.first_negative(10) is None
    neg = parse_poly("5 - i^2")
    witness = neg.first_negative(1)
    assert witness is not None and neg(witness) < 0


def _scan_first_negative(p: IntPoly, i_min: int):
    """first_negative by the plain scan: every i from i_min up to the
    dominance bound 1 + ceil((sum |lower| + 1) / |lead|) of p, past which
    the lead alone sets the sign."""
    coeffs = list(p.coeffs) or [0]

    def q(i):
        return sum(c * i**e for e, c in enumerate(coeffs))

    lead = coeffs[-1]
    if len(coeffs) == 1:
        return None if lead >= 0 else i_min
    lower = sum(abs(c) for c in coeffs[:-1])
    dominance = 1 + -(-(lower + 1) // abs(lead))
    for i in range(i_min, max(i_min, dominance) + 1):
        if q(i) < 0:
            return i
    if lead > 0:
        return None
    i = max(i_min, dominance) + 1
    while q(i) >= 0:
        i += 1
    return i


@settings(max_examples=300, deadline=None)
@given(
    lower=st.lists(st.integers(-3000, 3000), max_size=4),
    lead=st.integers(-6, 6).filter(bool),
    bound=st.integers(-20, 20),
    i_min=st.integers(-5, 40),
)
def test_first_negative_matches_the_plain_scan(lower, lead, bound, i_min):
    p = IntPoly((*lower, lead)) - IntPoly.const(bound)
    assert p.first_negative(i_min) == _scan_first_negative(p, i_min)


def test_first_negative_constant():
    assert IntPoly.const(2).first_negative(5) is None
    assert IntPoly(()).first_negative(5) is None
    assert IntPoly.const(-1).first_negative(5) == 5


@pytest.mark.parametrize(
    "text, i_min",
    [("i^2 - 10*i + 25", 5), ("(i - 1000)^64 + 1", 1000), ("2*i - 4", 2), ("i^3 - i", 1)],
)
def test_first_negative_answers_a_nonnegative_shift_without_sign_changes(
    monkeypatch, text, i_min
):
    # p(i_min + t) has no negative coefficient, so p >= 0 from i_min on
    p = parse_poly(text)
    assert all(c >= 0 for c in p.shifted_arg(i_min).coeffs)
    monkeypatch.setattr(IntPoly, "sign_changes", None)
    assert p.first_negative(i_min) is None


def _flips(p: IntPoly, candidates, i_min: int) -> list[int]:
    """The candidates i > i_min where p(i) < 0 and p(i-1) < 0 differ."""
    return sorted(c for c in set(candidates) if c > i_min and (p(c) < 0) != (p(c - 1) < 0))


@settings(max_examples=150, deadline=None)
@given(
    coeffs=st.lists(st.integers(-(10**30), 10**30), min_size=2, max_size=5).filter(
        lambda cs: cs[-1] != 0
    ),
    i_min=st.integers(-60, 60),
)
# the larger root lies 10^-9 below 1207959551, where sympy.floor of the
# algebraic root rounds up; the flip at 1207959551 must still be a candidate
@example(coeffs=[1, -1207959551, 1], i_min=0)
def test_first_negative_matches_sympy_real_roots(coeffs, i_min):
    # p < 0 turns on or off at i only if a real root r lies in [i-1, i],
    # so i is floor(r) + 1 or ceil(r): the only integers worth evaluating.
    # Each root is taken as an exact rational interval [a, b] of width
    # <= 1/2, and every integer from floor(a) to ceil(b) + 1 is a candidate.
    import sympy

    p = IntPoly(tuple(coeffs))
    x = sympy.Symbol("x")
    candidates = [i_min]
    for (a, b), _ in sympy.Poly(coeffs[::-1], x).intervals(eps=sympy.Rational(1, 2)):
        candidates += range(int(sympy.floor(a)), int(sympy.ceiling(b)) + 2)
    assert p.sign_changes(i_min) == _flips(p, candidates, i_min)
    violations = sorted(c for c in candidates if c >= i_min and p(c) < 0)
    assert p.first_negative(i_min) == (violations[0] if violations else None)


@settings(max_examples=300, deadline=None)
@given(
    lower=st.lists(st.integers(-20, 20), max_size=4),
    lead=st.integers(-3, 3).filter(bool),
    i_min=st.integers(-30, 30),
)
def test_sign_changes_lists_the_flips_of_a_scan(lower, lead, i_min):
    # every real root has |r| < 1 + 20/|lead| <= 21, so no flip lies past 22
    p = IntPoly((*lower, lead))
    assert p.sign_changes(i_min) == _flips(p, range(i_min + 1, 23), i_min)


@pytest.mark.parametrize(
    "n",
    [
        "i^2 - 2000*i + 1000001",  # (i - 10^3)^2 + 1
        "i^2 - 6000*i + 9000001",  # (i - 3*10^3)^2 + 1
        "i^2 - 20000*i + 100000001",  # (i - 10^4)^2 + 1
        "i + 10^9",
        "(i - 1000)^64 + 1",
    ],
)
def test_large_coefficients_build_without_a_scan(n):
    # a plain scan up to the coefficient bound would take seconds to hours on each
    seq = GeneratorSequence(n_poly=parse_poly(n), m_poly=IntPoly.const(1))
    assert seq.link(1).n == parse_poly(n)(1)


@pytest.mark.parametrize("c", [10**3, 3 * 10**3, 10**4])
def test_sign_changes_find_a_one_point_dip(c):
    p = parse_poly(f"(i - {c})^2 - 1")  # negative at i = c alone
    assert p.sign_changes(1) == [c, c + 1]
    assert p.first_negative(1) == c
    assert p.first_negative(c + 1) is None


def test_sign_changes_of_a_degree_64_term():
    # (i + 1)^64 < 10^100 exactly for |i + 1| <= 36
    p = parse_poly("(i + 1)^64") - IntPoly.const(10**100)
    assert p.sign_changes(-100) == [-37, 36]
    assert p.first_negative(-100) == -37
    assert p.first_negative(36) is None


def test_divide_exact():
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
    assert seq.link_pairs(2, 1) == [(1, 2)]


def test_eventually_periodic_sequence():
    seq = EventuallyPeriodicSequence(prefix=((4, 1),), tail=((2, 1),))
    assert seq.link(1) == NMLinkSpec(4, 1)
    assert seq.link(2) == seq.link(77) == NMLinkSpec(2, 1)


def test_generator_single_form():
    seq = GeneratorSequence(n_poly=parse_poly("2*i"), m_poly=parse_poly("i+1"))
    assert seq.link(3) == NMLinkSpec(6, 4)
    assert seq.link_pairs(3, 1) == [(6, 8)]


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
    assert len(seq.links) == 2
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
        upto = len(seq.links) if isinstance(seq, ExplicitSequence) else 8
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


_CASES = {"even": {"n": "2", "m": "1"}, "odd": {"n": "2", "m": "1"}}


# each config holds one key that its variant, or the named case, does not read
@pytest.mark.parametrize(
    "cfg, case, key",
    [
        ({"variant": "periodic", "links": ["bing"], "prefix": ["whitehead"]}, None, "prefix"),
        ({"variant": "explicit", "links": [], "period": []}, None, "period"),
        ({"variant": "eventually_periodic", "period": [], "links": []}, None, "links"),
        ({"variant": "generator", "n": "2", "m": "1", **_CASES}, None, "n"),
        ({"variant": "generator", "n": "2", "m": "1", "s": "1"}, None, "s"),
        ({"variant": "generator", **_CASES, "even": {"n": "2", "i": 1}}, "even", "i"),
        ({"variant": "generator", **_CASES, "odd": {"n": "2", "m": "1", "k": 3}}, "odd", "k"),
        ({"variant": "periodic", "links": [{"nm": [2, 1], "n": 7}]}, "link", "n"),
    ],
)
def test_parse_sequence_config_names_unknown_key(cfg, case, key):
    if case is None:
        where = f"{cfg['variant']!r} sequence config"
    elif case == "link":
        where = f"link entry {cfg['links'][0]!r}"
    else:
        where = f"{case!r} case"
    message = re.escape(f"{where} has the unknown key {key!r}")
    with pytest.raises(SequenceError, match=f"^{message}$"):
        parse_sequence_config(cfg)


@pytest.mark.parametrize("one_case", [{"n_poly": "2", "m_poly": "1"}, {"m_poly": "1"}])
def test_generator_rejects_mixed_one_and_two_case_terms(one_case):
    two_case = {"even_n": "2", "even_m": "1", "odd_n": "2", "odd_m": "1"}
    terms = {name: parse_poly(text) for name, text in {**one_case, **two_case}.items()}
    with pytest.raises(SequenceError, match="mixes one-case and two-case terms"):
        GeneratorSequence(**terms)


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


def test_gap_sequence_two_pow_extra_term_defaults_to_zero():
    gaps = GapSequence.two_pow(3)
    assert gaps.poly == IntPoly(())
    assert gaps == GapSequence.two_pow(3, IntPoly(()))
    assert gaps.gap(2) == 12


# (kind, data): periodic and explicit gap values, poly coefficients, or
# (2^i coefficient, extra coefficients); nonnegative data, nonnegative gaps
_gap_cases = st.one_of(
    st.tuples(st.just("periodic"), st.lists(st.integers(0, 5), min_size=1, max_size=5)),
    st.tuples(st.just("explicit"), st.lists(st.integers(0, 5), min_size=1, max_size=6)),
    st.tuples(st.just("poly"), st.lists(st.integers(0, 3), max_size=3)),
    st.tuples(
        st.just("two_pow"), st.tuples(st.integers(1, 3), st.lists(st.integers(0, 3), max_size=2))
    ),
)


def _written_gap(kind, data, g):
    """c(g) computed by hand from the data."""
    if kind in ("periodic", "explicit"):
        return data[(g - 1) % len(data)]
    if kind == "poly":
        return sum(c * g**k for k, c in enumerate(data))
    coeff, extra = data
    return coeff * 2**g + sum(c * g**k for k, c in enumerate(extra))


def _gap_sequence(kind, data) -> GapSequence:
    return {
        "periodic": lambda: GapSequence.periodic(data),
        "explicit": lambda: GapSequence.explicit(data),
        "poly": lambda: GapSequence.from_poly(IntPoly(tuple(data))),
        "two_pow": lambda: GapSequence.two_pow(data[0], IntPoly(tuple(data[1]))),
    }[kind]()


@settings(max_examples=80, deadline=None)
@given(case=_gap_cases, picks=st.lists(st.integers(1, 6000), min_size=1, max_size=4))
def test_gap_sequence_link_matches_the_gaps_written_out(case, picks):
    kind, data = case
    gaps = _gap_sequence(kind, data)
    checked = set(picks) | set(range(1, 41))
    if kind in ("poly", "two_pow"):
        checked |= {4096, 4097, 6000}  # past where a 4096-link cut would end
    # each gap g is c(g) (2,1) links and then one (1,1) link
    written = []
    g = 1
    while len(written) < max(checked) and not (kind == "explicit" and g > len(data)):
        written += [(2, 1)] * _written_gap(kind, data, g) + [(1, 1)]
        g += 1
    for i in sorted(checked):
        if i <= len(written):
            assert (gaps.link(i).n, gaps.link(i).m) == written[i - 1]
        else:
            assert kind == "explicit"
            with pytest.raises(HorizonError, match="beyond the declared data"):
                gaps.link(i)
    if kind == "periodic":
        period = []  # (n, 2m) pairs
        for c in data:
            period += [(2, 2)] * c + [(1, 2)]
        assert gaps.one_period.pairs == tuple(period)
        assert gaps.one_period.head == ()
    else:
        assert gaps.one_period is None


class _CountingGaps(GapSequence):
    """A gap sequence that records every gap index it reads."""

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "reads", [])

    def gap(self, i):
        self.reads.append(i)
        return super().gap(i)


@pytest.mark.parametrize(
    "gaps",
    [
        _CountingGaps(kind="poly", poly=parse_poly("0")),
        _CountingGaps(kind="poly", poly=parse_poly("i")),
        _CountingGaps(kind="poly", poly=parse_poly("i^2")),
        _CountingGaps(kind="periodic", values=(3, 0, 1)),
        _CountingGaps(kind="two_pow", two_pow_coeff=1, poly=IntPoly(())),
    ],
)
def test_gap_link_pairs_read_each_gap_they_span_once(gaps):
    pairs = gaps.link_pairs(1, 10_000)
    assert len(pairs) == 10_000
    # gap g ends at its (1,1) link; the last gap may still be open
    spanned = pairs.count((1, 2)) + (pairs[-1] == (2, 2))
    assert gaps.reads == list(range(1, spanned + 1))


def test_gap_sequence_rejects_negative():
    with pytest.raises(SequenceError):
        GapSequence.periodic([2, -1])
    with pytest.raises(SequenceError):
        GapSequence.from_poly("i - 5")


def test_poly_gap_sequence_without_a_term_names_it():
    with pytest.raises(SequenceError, match="gap term poly"):
        GapSequence(kind="poly")


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
    written = [(s.n, 2 * s.m) for s in specs]
    assert list(period.head) == written[:prefix_len]
    assert list(period.pairs) == written[prefix_len:]
    assert list(period.taus) == taus[prefix_len:]
    assert period.product == product
    assert period.slope == slope
    assert list(period.partials) == partials
    assert list(period.block_partials) == [
        q / (partials[prefix_len - 1] if prefix_len else 1) for q in partials[prefix_len:]
    ]
    fns = [nm_drf(s) for s in specs[prefix_len:]]
    assert chain_steps(period.pairs, range(25)) == [compose(fns, k)[-1] for k in range(25)]


@settings(max_examples=200, deadline=None)
@given(_periodic_case())
def test_period_ascent_matches_the_per_k_composite_oracle(case):
    seq, prefix_len, p = case
    fns = [nm_drf(seq.link(i)) for i in range(prefix_len + 1, prefix_len + p + 1)]
    first = next((k for k in range(1, 41) if compose(fns, k)[-1] >= k), None)
    for upto in range(1, 41):
        expected = first if first is not None and first <= upto else None
        assert seq.one_period.ascent(upto) == expected


def test_partial_products_keep_their_integers_reduced(monkeypatch):
    # each partial is built from the previous one in lowest terms: on 10^4
    # (2, 2) links every partial is 1, so no integer handed to Fraction may
    # grow with the index, as the unreduced 2^j / 2^j did
    sizes = []

    def recording(num, den):
        sizes.append(max(num.bit_length(), den.bit_length()))
        return Fraction(num, den)

    monkeypatch.setattr(sequences, "Fraction", recording)
    partials = partial_products([(2, 2)] * 10**4 + [(1, 2)])
    assert partials == (Fraction(1),) * 10**4 + (Fraction(1, 2),)
    assert len(sizes) == 10**4 + 1 and max(sizes) <= 2


def test_period_is_none_off_the_periodic_variants():
    assert GeneratorSequence(n_poly=parse_poly("2"), m_poly=parse_poly("1")).one_period is None
    two_case = GeneratorSequence(
        even_n=parse_poly("2"), even_m=parse_poly("1"), odd_n=parse_poly("1"), odd_m=parse_poly("1")
    )
    assert two_case.one_period is None
    assert ExplicitSequence(((2, 1), (1, 1))).one_period is None


# -- link_pairs, the bulk read of the orbit steppers ----------------------------

# n and m terms up to degree 4, >= 1 at every s >= 0
_bulk_term = st.lists(st.integers(0, 4), min_size=1, max_size=5).map(
    lambda cs: IntPoly((cs[0] + 1, *cs[1:]))
)
_any_sequence = st.one_of(
    st.lists(_link_st, min_size=1, max_size=5).map(lambda links: PeriodicSequence(tuple(links))),
    st.builds(
        lambda prefix, tail: EventuallyPeriodicSequence(tuple(prefix), tuple(tail)),
        st.lists(_link_st, max_size=4),
        st.lists(_link_st, min_size=1, max_size=4),
    ),
    st.builds(lambda n, m: GeneratorSequence(n_poly=n, m_poly=m), _bulk_term, _bulk_term),
    st.builds(
        lambda en, em, on, om: GeneratorSequence(even_n=en, even_m=em, odd_n=on, odd_m=om),
        _bulk_term, _bulk_term, _bulk_term, _bulk_term,
    ),
    st.lists(_link_st, min_size=1, max_size=30).map(lambda links: ExplicitSequence(tuple(links))),
    _gap_cases.map(lambda case: _gap_sequence(*case)),
)


def _written_links(seq, upto):
    """(n, m) of links 1..upto, written out from the variant's own data;
    explicit data may end first."""
    if isinstance(seq, GeneratorSequence):
        if not seq.two_case:
            return [(seq.n_poly(i), seq.m_poly(i)) for i in range(1, upto + 1)]
        # i = 2s is even, i = 2s + 1 odd
        return [
            (seq.even_n(i // 2), seq.even_m(i // 2))
            if i % 2 == 0
            else (seq.odd_n(i // 2), seq.odd_m(i // 2))
            for i in range(1, upto + 1)
        ]
    if isinstance(seq, GapSequence):
        # gap g: c_g (2,1) links, then one (1,1) link
        written = []
        g = 1
        while len(written) < upto and not (seq.kind == "explicit" and g > len(seq.values)):
            written += [(2, 1)] * seq.gap(g) + [(1, 1)]
            g += 1
        return written[:upto]
    if isinstance(seq, PeriodicSequence):
        specs = [seq.links[(i - 1) % len(seq.links)] for i in range(1, upto + 1)]
    elif isinstance(seq, EventuallyPeriodicSequence):
        specs = (list(seq.prefix) + [seq.tail[j % len(seq.tail)] for j in range(upto)])[:upto]
    else:
        specs = seq.links[:upto]
    return [(spec.n, spec.m) for spec in specs]


@settings(max_examples=200, deadline=None)
@given(seq=_any_sequence, first=st.integers(1, 40), count=st.integers(0, 40))
def test_link_pairs_match_link(seq, first, count):
    written = _written_links(seq, first + count - 1)
    expected = [(n, 2 * m) for n, m in written[first - 1 :]]
    assert seq.link_pairs(first, count) == expected
    for i in range(first, first + count):
        if i <= len(written):
            assert (seq.link(i).n, seq.link(i).m) == written[i - 1]
        else:  # explicit data end here
            with pytest.raises(HorizonError, match=f"link {i} beyond the declared data"):
                seq.link(i)


@given(
    coeffs=st.lists(st.integers(-50, 50), max_size=6),
    start=st.integers(-30, 30),
    count=st.integers(0, 30),
)
def test_poly_values_match_evaluation(coeffs, start, count):
    p = IntPoly(tuple(coeffs))
    assert p.values(start, count) == [p(i) for i in range(start, start + count)]


@pytest.mark.parametrize(
    "seq",
    [
        GeneratorSequence(n_poly=parse_poly("i"), m_poly=parse_poly("1")),
        ExplicitSequence(((2, 1),)),
        PeriodicSequence(((2, 1),)),
        EventuallyPeriodicSequence(((1, 1),), ((2, 1),)),
        GapSequence.periodic([1]),
        GapSequence.explicit([2]),
    ],
)
def test_link_pairs_reject_index_zero(seq):
    with pytest.raises(SequenceError):
        seq.link_pairs(0, 3)
    with pytest.raises(SequenceError):
        seq.link(0)


# a period with no head has partials equal to its block partials, formed once
@pytest.mark.parametrize(
    "seq",
    [PeriodicSequence(((2, 1), (1, 1))), GapSequence.periodic([2, 0, 1])],
    ids=["periodic", "periodic-gaps"],
)
def test_a_headless_period_forms_its_partial_products_once(monkeypatch, seq):
    calls = []

    def counting(pairs):
        calls.append(pairs)
        return partial_products(pairs)

    monkeypatch.setattr(sequences, "partial_products", counting)
    period = seq.one_period
    assert len(calls) == 1
    assert period.partials == period.block_partials == partial_products(period.pairs)
