import pytest

from toroshrink.freegroup import commutator, parse_word
from toroshrink.linkio import (
    BORROMEAN_PD,
    HOPF_PD,
    WHITEHEAD_PD,
    CoverDerivation,
    LinkPresentation,
    NMLinkSpec,
    PDError,
    bing_axis_pd,
    builtin,
    first_homology,
    format_pd,
    longitudes,
    nm_presentation,
    parse_pd,
    pd_fixture,
    wirtinger,
)


def test_parse_hopf():
    pd = parse_pd("X[1,3,2,4] X[3,1,4,2]")
    assert pd.n_crossings == 2
    assert pd.n_components == 2
    assert pd.component_labels == (1, 2)


def test_parse_empty_is_error():
    with pytest.raises(PDError, match="empty"):
        parse_pd("")


def test_parse_single_crossing_is_error():
    with pytest.raises(PDError, match="exactly twice"):
        parse_pd("X[1,3,2,4]")


def test_parse_bad_token():
    with pytest.raises(PDError, match="bad token"):
        parse_pd("X[1,3,2] X[3,1,4,2]")


def test_parse_gap_in_labels():
    with pytest.raises(PDError, match="1..2c"):
        parse_pd("X[1,5,2,6] X[5,1,6,2]")


def test_components_must_cover_arcs():
    with pytest.raises(PDError, match="cover"):
        parse_pd("X[1,3,2,4] X[3,1,4,2]\n% component 1: 1,2")


def test_round_trip_fixtures():
    for text in (HOPF_PD, WHITEHEAD_PD, BORROMEAN_PD):
        pd = parse_pd(text)
        assert parse_pd(format_pd(pd)) == pd


def test_crossingless_component():
    pd = parse_pd("X[1,3,2,4] X[3,1,4,2]\n% component 1: 1,2\n% component 2: 3,4\n% component 3: -")
    assert pd.n_components == 3
    words = longitudes(pd)
    assert words[3].is_identity()


def test_hopf_linking_number_positive():
    pd = parse_pd(HOPF_PD)
    assert pd.linking_number(1, 2) == 1
    assert pd.signs() == (1, 1)


def test_wirtinger_hopf_shape():
    wp = wirtinger(parse_pd(HOPF_PD))
    # one arc per component, one conjugation relator per crossing
    assert wp.n_arcs == 2
    assert wp.n_relators == 2


def test_wirtinger_borromean_shape():
    wp = wirtinger(parse_pd(BORROMEAN_PD))
    assert wp.n_arcs == 6
    assert wp.n_relators == 6


def test_homology_of_builtin_diagrams():
    for name in ("hopf", "whitehead", "borromean"):
        pd = pd_fixture(name)
        assert first_homology(pd) == (pd.n_components, [])


def test_longitude_exponent_sums_hopf():
    pd = parse_pd(HOPF_PD)
    words = longitudes(pd)
    arc_of, _ = pd.arcs()
    wp = wirtinger(pd)
    # component 1's longitude has exponent sum 1 in the other component's
    # arc class and 0 in its own
    w = words[1]
    own = sum(s for g, s in w.letters if wp.arc_component[g] == 1)
    other = sum(s for g, s in w.letters if wp.arc_component[g] == 2)
    assert own == 0 and other == 1


def test_longitude_zero_framing_all_fixtures():
    for name in ("hopf", "whitehead", "borromean"):
        pd = pd_fixture(name)
        wp = wirtinger(pd)
        for label, w in longitudes(pd).items():
            own = sum(s for g, s in w.letters if wp.arc_component[g] == label)
            assert own == 0


def test_inferred_components_when_unannotated():
    pd = parse_pd("X[1,3,2,4] X[3,1,4,2]")
    assert pd.components == ((1, (1, 2)), (2, (3, 4)))


def test_orientation_inconsistency_detected():
    # under strand 1 -> 4 contradicts the consecutive numbering
    with pytest.raises(PDError, match="orientation"):
        parse_pd("X[1,3,4,2] X[2,4,3,1]\n% component 1: 1,2,3,4")


# -- builtin families ---------------------------------------------------


def test_builtin_borromean_presentation():
    link = builtin("borromean")
    assert isinstance(link, LinkPresentation)
    assert link.labels == (1, 2, 3)
    x1 = parse_word("x1", 4)
    x2 = parse_word("x2", 4)
    assert link.longitude[3] == commutator(x1, x2)


def test_builtin_bing_is_nm21():
    assert builtin("bing") == builtin("nm(2,1)")
    assert builtin("bing").labels == (0, 1, 2)


def test_builtin_hopf_linking():
    pd = builtin("hopf")
    assert pd.linking_number(1, 2) == 1


def test_builtin_nm_component_count():
    link = builtin("nm(4,3)")
    assert link.n_components == 5
    assert link.labels == (0, 1, 2, 3, 4)


def test_builtin_unknown_family():
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin("granny")


def test_builtin_bad_parameters():
    with pytest.raises(ValueError):
        builtin("nm(0,2)")


def test_nm_chain_longitude_exponent_sums():
    # chain component adjacent to two neighbours: exponent sum +1 in each
    link = nm_presentation(NMLinkSpec(5, 2))
    for i in range(1, 6):
        w = link.longitude[i]
        prev = 5 if i == 1 else i - 1
        nxt = 1 if i == 5 else i + 1
        assert w.exponent_sum(prev % 6 if prev != 5 or i != 1 else 5) == 1
        assert w.exponent_sum(nxt) == 1
        assert w.exponent_sum(i) == 0
        assert w.exponent_sum(0) == 0


def test_nm_presentation_zero_framed():
    for n, m in [(1, 1), (1, 3), (2, 1), (2, 4), (3, 2), (6, 5)]:
        link = nm_presentation(NMLinkSpec(n, m))
        for i, w in link.longitude.items():
            assert w.exponent_sum(i) == 0


def test_presentation_rejects_bad_framing():
    with pytest.raises(ValueError, match="zero framed"):
        LinkPresentation(
            labels=(1, 2),
            longitude={1: parse_word("x1 x2", 3), 2: parse_word("x1", 3)},
        )


def test_nm_spec_validation():
    with pytest.raises(ValueError):
        NMLinkSpec(0, 1)
    with pytest.raises(ValueError):
        NMLinkSpec(2, 0)


def test_cover_derivation_validation():
    CoverDerivation(d=2, kept_n=2, blowdowns=1, witness_index=(0, 1, 2), witness_value=1)
    with pytest.raises(ValueError, match="distinguished"):
        CoverDerivation(d=2, kept_n=2, blowdowns=0, witness_index=(1, 2), witness_value=1)
    with pytest.raises(ValueError):
        CoverDerivation(d=0, kept_n=1, blowdowns=0)


def test_bing_axis_pd_labels():
    pd = bing_axis_pd()
    assert pd.component_labels == (0, 1, 2)
