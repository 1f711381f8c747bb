import itertools
import random

import pytest

from toroshrink.drf import NMLinkSpec
from toroshrink.freegroup import commutator, format_word, parse_word
from toroshrink.linkio import (
    BORROMEAN_PD,
    HOPF_PD,
    WHITEHEAD_PD,
    CoverDerivation,
    LinkPresentation,
    PDCode,
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
from toroshrink.milnor import mu


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
    crossingless = "X[1,3,2,4] X[3,1,4,2]\n% component 1: 1,2\n% component 2: 3,4\n% component 3: -"
    diagrams = [pd_fixture(name) for name in ("hopf", "whitehead", "borromean")]
    for pd in diagrams + [parse_pd(crossingless), bing_axis_pd()]:
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


@pytest.mark.parametrize(
    "pd, words",
    [
        (HOPF_PD, {1: "x1", 2: "x0"}),
        (WHITEHEAD_PD, {0: "x4^-1 x3", 1: "x1 x2 x0^-1 x2^-1"}),
        (BORROMEAN_PD, {1: "x5^-1 x4", 2: "x0^-1 x1", 3: "x3 x2^-1"}),
        # trefoil, self-writhe +3, and its mirror, self-writhe -3
        ("X[1,5,2,4] X[3,1,4,6] X[5,3,6,2]", {1: "x2 x0 x1 x0^-3"}),
        ("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]", {1: "x2^-1 x0^-1 x1^-1 x0^3"}),
    ],
)
def test_longitude_words_pinned(pd, words):
    # the writhe correction sits on the component's own base arc
    assert {label: format_word(w) for label, w in longitudes(parse_pd(pd)).items()} == words


def test_inferred_components_when_unannotated():
    pd = parse_pd("X[1,3,2,4] X[3,1,4,2]")
    assert pd.components == ((1, (1, 2)), (2, (3, 4)))


def test_orientation_inconsistency_detected():
    # under strand 1 -> 4 contradicts the consecutive numbering
    with pytest.raises(PDError, match="orientation"):
        parse_pd("X[1,3,4,2] X[2,4,3,1]\n% component 1: 1,2,3,4")


HOPF_ANNOTATIONS = "% component 1: 1,2\n% component 2: 3,4"
WHITEHEAD_ANNOTATIONS = "% component 0: 1,2,3,4\n% component 1: 5,6,7,8,9,10"


@pytest.mark.parametrize(
    "text, message",
    [
        # component 2 is over at both crossings: no crossing fixes its direction
        (f"X[1,3,2,4] X[2,4,1,3]\n{HOPF_ANNOTATIONS}", "globally ambiguous"),
        # the over strand {4, 2} of the first crossing is not a step of 1 -> 2 -> 3 -> 4
        ("X[1,4,2,2] X[3,1,4,3]", "X\\[1,4,2,2\\]: over strand matches neither"),
        # edge 2 hands over to 3 twice, under X[2,9,3,10] and over
        # X[10,3,5,2], and so does edge 4 to 1; edges 1 and 3 never do
        (
            f"X[10,3,5,2] X[4,8,1,7] X[8,6,9,5] X[2,9,3,10] X[6,4,7,1]\n{WHITEHEAD_ANNOTATIONS}",
            "edge used twice one way",
        ),
    ],
)
def test_orientation_errors(text, message):
    with pytest.raises(PDError, match=message):
        parse_pd(text)


def test_reversed_hopf_links_negatively():
    # the hopf diagram with component 2 traversed 4 -> 3: each component
    # passes over at one crossing and takes its direction there from the
    # other, where it passes under
    pd = parse_pd("X[1,3,2,4] X[4,2,3,1]\n% component 1: 1,2\n% component 2: 4,3")
    assert pd.signs() == (-1, -1)
    assert pd.linking_number(1, 2) == -1
    assert mu(pd, (1, 2)) == -1


class _ReferenceOrientation(PDCode):
    """PDCode with the earlier orientation routine: arrival and departure
    tallies and a fixed-point loop over the ambiguous over strands."""

    def _orientation(self):
        edges = sorted(self._next)
        arrivals = {e: 0 for e in edges}
        departures = {e: 0 for e in edges}
        for a, b, c, d in self.crossings:
            if self._next[a] != c:
                raise PDError(
                    f"inconsistent orientation: under strand {a}->{c} does not "
                    f"follow the traversal order"
                )
            arrivals[a] += 1
            departures[c] += 1
        over_dir = []  # +1: d->b, -1: b->d
        for a, b, c, d in self.crossings:
            d_to_b = self._next[d] == b
            b_to_d = self._next[b] == d
            if not d_to_b and not b_to_d:
                raise PDError(
                    f"inconsistent orientation at crossing X[{a},{b},{c},{d}]: "
                    f"over strand matches neither traversal direction"
                )
            if d_to_b and b_to_d:
                over_dir.append(None)
            else:
                over_dir.append(1 if d_to_b else -1)
                arrivals[d if d_to_b else b] += 1
                departures[b if d_to_b else d] += 1
        changed = True
        while changed:
            changed = False
            for i, direction in enumerate(over_dir):
                if direction is not None:
                    continue
                a, b, c, d = self.crossings[i]
                can_db = arrivals[d] == 0 and departures[b] == 0
                can_bd = arrivals[b] == 0 and departures[d] == 0
                if not can_db and not can_bd:
                    raise PDError(f"inconsistent orientation at crossing X[{a},{b},{c},{d}]")
                if can_db != can_bd:
                    over_dir[i] = 1 if can_db else -1
                    arrivals[d if can_db else b] += 1
                    departures[b if can_db else d] += 1
                    changed = True
        if any(direction is None for direction in over_dir):
            raise PDError(
                "over strand directions are globally ambiguous; "
                "add component annotations or renumber the arcs"
            )
        if any(v != 1 for v in arrivals.values()) or any(v != 1 for v in departures.values()):
            raise PDError("inconsistent orientation data: edge used twice one way")
        signs = [1 if direction == 1 else -1 for direction in over_dir]
        return signs, [x[3] if s == 1 else x[1] for x, s in zip(self.crossings, signs)]


# (crossings, components) of the fixtures, a two-component unlink whose
# component 2 is over at both crossings, and a one-crossing two-edge knot
_ORIENTATION_BASES = [
    (pd.crossings, pd.components)
    for pd in map(parse_pd, (HOPF_PD, WHITEHEAD_PD, BORROMEAN_PD, "X[1,2,2,1]"))
] + [(((1, 3, 2, 4), (2, 4, 1, 3)), ((1, (1, 2)), (2, (3, 4))))]


def _reversed(crossings, components, labels):
    """The diagram with the components in labels traversed backwards."""
    flip = {e for label, es in components if label in labels for e in es}
    crossings = [(c, d, a, b) if a in flip else (a, b, c, d) for a, b, c, d in crossings]
    return crossings, [(label, es[::-1] if label in labels else es) for label, es in components]


def _scrambled(crossings, rng):
    """Up to three random slot swaps (across crossings) and rotations."""
    slots = [list(x) for x in crossings]
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            x, y = rng.choice(slots), rng.choice(slots)
            i, j = rng.randrange(4), rng.randrange(4)
            x[i], y[j] = y[j], x[i]
        else:
            x = rng.choice(slots)
            r = rng.randint(1, 3)
            x[:] = x[r:] + x[:r]
    return [tuple(x) for x in slots]


def _orientation_outcome(cls, crossings, components):
    try:
        pd = cls(crossings, components)
    except PDError as exc:
        return str(exc)
    return pd.signs(), tuple(pd._over_in), pd.arcs()[1]


def test_orientation_matches_the_reference_routine():
    # every subset of reversed components of each base, scrambled four
    # times in five, each read with its annotations and without
    rng = random.Random(20)
    messages = set()
    for _ in range(60):
        for crossings, components in _ORIENTATION_BASES:
            labels = [label for label, _ in components]
            for r in range(len(labels) + 1):
                for subset in itertools.combinations(labels, r):
                    cr, comps = _reversed(crossings, components, set(subset))
                    if rng.random() < 0.8:
                        cr = _scrambled(cr, rng)
                    for annotations in (comps, None):
                        expected = _orientation_outcome(_ReferenceOrientation, cr, annotations)
                        assert _orientation_outcome(PDCode, cr, annotations) == expected, (
                            cr, annotations,
                        )
                        if isinstance(expected, str):
                            messages.add(expected.split(":")[0].split(";")[0])
    # the families reach every orientation error
    assert {
        "inconsistent orientation",
        "over strand directions are globally ambiguous",
        "inconsistent orientation data",
    } <= messages
    assert any(m.startswith("inconsistent orientation at crossing X[") for m in messages)


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


def test_builtin_nm_family_is_spelled_nm_n_m():
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin("nm")


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
