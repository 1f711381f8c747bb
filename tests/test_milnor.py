import itertools
import random
from math import gcd

import pytest

from toroshrink.freegroup import commutator, parse_word
from toroshrink.linkio import (
    LinkPresentation,
    PDCode,
    bing_axis_pd,
    builtin,
    parse_pd,
    pd_fixture,
    wirtinger,
)
from toroshrink.magnus import MagnusSeries, expand, word_coefficient
from toroshrink.milnor import (
    MilnorError,
    longitude_word,
    mu,
    mubar,
    delta,
    reduce_longitude,
    all_multi_indices,
)

UNLINK = parse_pd("% component 1: -\n% component 2: -")


def test_reduce_longitude_hopf():
    wp = wirtinger(pd_fixture("hopf"))
    assert reduce_longitude(wp, 1, 2) == parse_word("x2", 3)
    assert reduce_longitude(wp, 2, 2) == parse_word("x1", 3)


def test_reduce_longitude_split_unknot():
    wp = wirtinger(UNLINK)
    assert reduce_longitude(wp, 1, 3).is_identity()


def test_reduce_longitude_borromean_commutator():
    wp = wirtinger(pd_fixture("borromean"))
    w = reduce_longitude(wp, 3, 3)
    target = commutator(parse_word("x1", 4), parse_word("x2", 4))
    defect = w * target.inverse()
    # 1 modulo degree 3: the expansion truncated at degree 2 is 1
    assert expand(defect, 2) == MagnusSeries.one(2)


def test_reduce_longitude_rejects_shallow_class():
    wp = wirtinger(pd_fixture("hopf"))
    with pytest.raises(MilnorError):
        reduce_longitude(wp, 1, 1)


def test_mu_hopf():
    assert mu(pd_fixture("hopf"), (2, 1)) == 1
    assert mu(pd_fixture("hopf"), (1, 2)) == 1


def test_mu_borromean_triple():
    assert abs(mu(builtin("borromean"), (1, 2, 3))) == 1
    assert abs(mu(pd_fixture("borromean"), (1, 2, 3))) == 1


def test_mu_unlink():
    assert mu(UNLINK, (1, 2)) == 0


def test_mu_bad_index():
    with pytest.raises(MilnorError):
        mu(pd_fixture("hopf"), (1,))
    with pytest.raises(MilnorError):
        mu(pd_fixture("hopf"), (1, 7))
    with pytest.raises(MilnorError, match="guard"):
        mu(pd_fixture("hopf"), (1, 2) * 5)


def test_presentation_class_ceiling():
    link = builtin("nm(4,3)")  # model words valid to class 2 only
    assert mu(link, (0, 1)) == 0
    with pytest.raises(MilnorError, match="valid to class"):
        mu(link, (0, 1, 2))


def test_delta_length_two_is_zero():
    assert delta(pd_fixture("hopf"), (1, 2)) == 0


def test_delta_borromean_vanishes():
    # all pairwise linking numbers are 0, so the GCD set is all zeros
    assert delta(builtin("borromean"), (1, 2, 3)) == 0


def test_delta_whitehead_0011():
    # gcd over the length-2 and length-3 sub-invariants, all of which vanish
    assert delta(pd_fixture("whitehead"), (0, 0, 1, 1)) == 0


def _brute_force_subindices(index):
    # independent enumeration: subsets of positions, order kept, then rotations
    n = len(index)
    out = set()
    for keep in itertools.product((False, True), repeat=n):
        if not all(keep) and sum(keep) >= 2:
            sub = tuple(x for x, k in zip(index, keep) if k)
            for r in range(len(sub)):
                out.add(sub[r:] + sub[:r])
    return out


def test_delta_matches_brute_force_gcd():
    link = bing_axis_pd()
    index = (0, 1, 2)
    g = 0
    for sub in _brute_force_subindices(index):
        g = gcd(g, abs(mu(link, sub)))
    assert delta(link, index) == g


def test_mubar_whitehead():
    rec = mubar(pd_fixture("whitehead"), (0, 0, 1, 1))
    assert rec.delta == 0
    assert rec.mubar in (1, -1)


def test_mubar_bing():
    rec = mubar(builtin("bing"), (0, 1, 2))
    assert rec.delta == 0
    assert rec.mubar in (1, -1)


def test_mubar_unlink():
    rec = mubar(UNLINK, (1, 2, 1))
    assert rec.mu == 0 and rec.mubar == 0


def test_mubar_residue_normalization():
    # the hopf with a repeated index: the sub-invariants include lk = 1,
    # so Delta = 1 and the residue collapses to 0
    rec = mubar(pd_fixture("hopf"), (1, 2, 2))
    assert rec.delta == 1
    assert rec.mubar == 0
    assert rec.mubar == rec.mu % rec.delta
    assert 0 <= rec.mubar < rec.delta


def test_length_two_agreement_with_signed_count():
    for name in ("hopf", "whitehead", "borromean"):
        pd = pd_fixture(name)
        labels = pd.component_labels
        for i in labels:
            for j in labels:
                if i < j:
                    lk = pd.linking_number(i, j)
                    assert mu(pd, (i, j)) == lk
                    assert mu(pd, (j, i)) == lk


def test_truncation_stability_on_diagrams():
    for name in ("hopf", "whitehead", "borromean"):
        pd = pd_fixture(name)
        labels = pd.component_labels
        for index in all_multi_indices(labels, 4):
            if len(index) > 3:
                continue
            base = mu(pd, index)
            # recompute through a deeper reduction: coefficients must agree
            deeper = longitude_word(pd, index[-1], len(index) + 2)
            assert expand(deeper, len(index)).coefficient(index[:-1]) == base


def test_longitude_self_exponent_zero():
    for name in ("hopf", "whitehead", "borromean"):
        pd = pd_fixture(name)
        for label in pd.component_labels:
            w = longitude_word(pd, label, 3)
            assert w.exponent_sum(label) == 0


def test_borromean_profile():
    link = builtin("borromean")
    assert mu(link, (1, 2)) == mu(link, (1, 3)) == mu(link, (2, 3)) == 0
    assert abs(mu(link, (1, 2, 3))) == 1


def test_whitehead_cyclic_symmetry():
    pd = pd_fixture("whitehead")
    for index in itertools.product((0, 1), repeat=4):
        rotated = index[1:] + index[:1]
        assert mu(pd, index) == mu(pd, rotated)


def test_all_multi_indices_enumeration():
    idx = list(all_multi_indices((1, 2), 3))
    assert (1, 2) in idx and (2, 1, 1) in idx
    assert len(idx) == 4 + 8
    assert all(2 <= len(i) <= 3 for i in idx)
    for bound in (1, 0, -3):
        with pytest.raises(MilnorError, match="below 2"):
            list(all_multi_indices((1, 2), bound))


def test_monomial_budget_guard():
    from toroshrink.drf import NMLinkSpec
    from toroshrink.linkio import nm_presentation

    wide = nm_presentation(NMLinkSpec(20, 1))
    with pytest.raises(MilnorError, match="budget"):
        mu(wide, (0,) * 8)


def test_crossingless_only_diagram_is_free():
    pd = parse_pd("% component 1: -")
    wp = wirtinger(pd)
    assert wp.n_arcs == 1
    assert wp.n_relators == 0


def test_reduction_stability_explicit():
    # one more substitution round changes the longitude only inside F_q
    from toroshrink.milnor import _arc_words_at_class, _substitution_round, _longitude_from_arcs
    from toroshrink.magnus import lcs_depth

    pd = pd_fixture("borromean")
    wp = wirtinger(pd)
    rank = wp.meridian_rank()
    for q in (2, 3, 4):
        eta = _arc_words_at_class(wp, q, rank)
        deeper = _substitution_round(wp, eta, rank)
        for label in (1, 2, 3):
            w = _longitude_from_arcs(wp, label, eta, rank)
            w_next = _longitude_from_arcs(wp, label, deeper, rank)
            defect = w.inverse() * w_next
            assert defect.is_identity() or lcs_depth(defect, q) >= q


ORACLE_LINKS = {
    "hopf": pd_fixture("hopf"),
    "whitehead": pd_fixture("whitehead"),
    "borromean": pd_fixture("borromean"),
    "bing_axis": bing_axis_pd(),
    "nm(1,1)": builtin("nm(1,1)"),
    "nm(2,1)": builtin("nm(2,1)"),
}


@pytest.mark.parametrize("name", sorted(ORACLE_LINKS))
def test_word_coefficient_matches_full_expansion_on_longitudes(name):
    # the prefix DP behind mu against the full truncated expansion, on
    # every monomial of length <= q in the longitude words for class q <= 5
    # (a presentation has one word per component, whatever its valid class)
    link = ORACLE_LINKS[name]
    diagram = isinstance(link, PDCode)
    labels = link.component_labels
    top = 5 if diagram else min(5, link.valid_class)
    for component in labels:
        for q in range(2, 6):
            word = longitude_word(link, component, q) if diagram else link.longitude[component]
            series = expand(word, q)
            for length in range(1, q + 1):
                for mono in itertools.product(labels, repeat=length):
                    assert word_coefficient(word, mono) == series.coefficient(mono), (
                        name, component, q, mono,
                    )
            if q <= top:
                for head in itertools.product(labels, repeat=q - 1):
                    assert mu(link, head + (component,)) == series.coefficient(head)


# zero-framed words that are no link's longitudes: their mu is not
# cyclically symmetric, so Delta must visit every rotation to match the
# definition
FREE_WORDS = LinkPresentation(
    labels=(0, 1, 2),
    longitude={
        0: parse_word("x1 x2 x1 x2^-1 x1^-1 x2", 3),
        1: parse_word("x0 x2 x0 x2^-1 x0^-1", 3),
        2: parse_word("x0 x1 x0^-1 x1 x1", 3),
    },
)
DELTA_ORACLE_LINKS = {**ORACLE_LINKS, "free_words": FREE_WORDS}


@pytest.mark.parametrize("name", sorted(DELTA_ORACLE_LINKS))
def test_delta_matches_literal_gcd_up_to_length_six(name):
    # the one-deletion recursion against the GCD over every cyclic
    # sub-index, enumerated literally; a presentation gives Delta up to one
    # past its valid class, since Delta reads only shorter indices
    link = DELTA_ORACLE_LINKS[name]
    valid_class = getattr(link, "valid_class", None)
    top = 6 if valid_class is None else min(6, valid_class + 1)
    mus = {}
    for index in all_multi_indices(link.component_labels, top):
        g = 0
        for sub in _brute_force_subindices(index):
            if sub not in mus:
                mus[sub] = mu(link, sub)
            g = gcd(g, abs(mus[sub]))
        assert delta(link, index) == g, index


def _records(calls):
    return {(id(link), index): mubar(link, index) for link, index in calls}


def test_memo_gives_the_same_records_in_any_order():
    from toroshrink import milnor

    # hopf and the unlink share their labels but not their invariants, so
    # interleaving them checks that the memo keeps links apart
    links = (pd_fixture("hopf"), UNLINK, bing_axis_pd())
    calls = [
        (link, index)
        for link in links
        for index in all_multi_indices(link.component_labels, 5)
    ]
    expected = {}
    for link in links:
        milnor._mu.cache_clear()
        milnor._delta.cache_clear()
        expected.update(_records([c for c in calls if c[0] is link]))
    shuffled = list(calls)
    random.Random(7).shuffle(shuffled)
    milnor._mu.cache_clear()
    milnor._delta.cache_clear()
    assert _records(shuffled) == expected
    assert any(rec.delta for rec in expected.values())
