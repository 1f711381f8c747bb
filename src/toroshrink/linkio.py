"""Link input: planar diagram codes, Wirtinger data, and builtin families.

PD text format
--------------

A diagram is a whitespace separated list of crossing tuples ``X[a,b,c,d]``
plus optional component annotations::

    X[1,3,2,4] X[3,1,4,2]
    % component 1: 1,2
    % component 2: 3,4

Tuple convention: ``a`` is the incoming under-strand edge and ``b,c,d``
follow counterclockwise around the crossing, so ``c`` is the outgoing
under-strand edge and the over-strand occupies ``b`` and ``d``.  Edges are
numbered 1..2c consecutively along each component following its
orientation (the classic convention), unless an annotation line lists a
component's edges in traversal order explicitly.  A crossing is positive
when the over-strand runs from slot ``d`` to slot ``b`` (with the under
strand drawn left to right, counterclockwise listing puts ``b`` below and
``d`` above, so a positive over-strand runs downward; the README has the
picture)::

    positive:  under a -> c, over d -> b
    negative:  under a -> c, over b -> d

An annotation ``% component 3: -`` declares a crossingless (split unknot)
component.  Component labels must be contiguous and start at 0 or at 1;
label 0 marks the distinguished unknotted component used in decomposition
context.  Without annotations, components are inferred and labelled 1..n
in order of their smallest edge.

Builtin families
----------------

``hopf`` and ``whitehead`` are diagrams; ``borromean`` and the chain
family ``nm(n,m)`` are presentations (meridians plus longitude words).
``bing`` is an alias for ``nm(2,1)``.  PD fixtures for the whitehead and
borromean links back the presentations as cross-check data.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .freegroup import Word, commutator

__all__ = [
    "PDError",
    "PDCode",
    "parse_pd",
    "format_pd",
    "WirtingerPresentation",
    "wirtinger",
    "longitudes",
    "LinkPresentation",
    "NMLinkSpec",
    "CoverDerivation",
    "LinkData",
    "builtin",
    "pd_fixture",
    "bing_axis_pd",
    "nm_presentation",
    "borromean_presentation",
    "first_homology",
    "BUILTIN_NAMES",
]


class PDError(ValueError):
    """Malformed or inconsistent planar diagram data."""


_CROSSING = re.compile(r"X\[(\d+),(\d+),(\d+),(\d+)\]$")
_ANNOTATION = re.compile(r"%\s*component\s+(\d+)\s*:\s*(.*)$")


class PDCode:
    """A validated planar diagram.

    crossings: tuple of (a, b, c, d) edge tuples, incoming under first,
    counterclockwise.  components: tuple of (label, edges-in-traversal-order)
    pairs, sorted by label; a crossingless component has an empty edge tuple.
    """

    def __init__(
        self,
        crossings: Sequence[tuple[int, int, int, int]],
        components: Sequence[tuple[int, Sequence[int]]] | None = None,
    ):
        self.crossings = tuple(tuple(int(e) for e in x) for x in crossings)
        for x in self.crossings:
            if len(x) != 4 or any(e < 1 for e in x):
                raise PDError(f"malformed crossing tuple {x}")

        counts: dict[int, int] = {}
        for x in self.crossings:
            for e in x:
                counts[e] = counts.get(e, 0) + 1
        bad = sorted(e for e, c in counts.items() if c != 2)
        if bad:
            raise PDError(f"arc labels {bad} do not appear exactly twice")
        edges = sorted(counts)
        if edges and edges != list(range(1, len(edges) + 1)):
            raise PDError("arc labels must be 1..2c with no gaps")

        if components is None:
            components = self._infer_components(edges)
        comps = tuple(
            (int(label), tuple(int(e) for e in es)) for label, es in components
        )
        comps = tuple(sorted(comps, key=lambda it: it[0]))
        labels = [label for label, _ in comps]
        if not labels:
            raise PDError("empty diagram: no crossings and no components")
        if len(set(labels)) != len(labels):
            raise PDError("duplicate component labels")
        start = labels[0]
        if start not in (0, 1) or labels != list(range(start, start + len(labels))):
            raise PDError(
                f"component labels {labels} must be contiguous starting at 0 or 1"
            )
        covered = [e for _, es in comps for e in es]
        if sorted(covered) != edges:
            raise PDError("component annotations must cover every arc exactly once")
        self.components = comps

        self._next: dict[int, int] = {}
        self._component_of: dict[int, int] = {}
        for label, es in comps:
            for i, e in enumerate(es):
                self._next[e] = es[(i + 1) % len(es)]
                self._component_of[e] = label

        # Orientation consistency and crossing signs.  The under strand is
        # oriented a -> c by convention; the over strand direction must agree
        # with the traversal order.  A short two-edge component makes both
        # directions locally next-consistent, so ambiguous crossings are
        # resolved globally: every edge arrives at exactly one crossing and
        # departs from exactly one.
        arrivals: dict[int, int] = {e: 0 for e in edges}
        departures: dict[int, int] = {e: 0 for e in edges}
        for a, b, c, d in self.crossings:
            if self._next[a] != c:
                raise PDError(
                    f"inconsistent orientation: under strand {a}->{c} does not "
                    f"follow the traversal order"
                )
            arrivals[a] += 1
            departures[c] += 1

        over_dir: list[int | None] = []  # +1: d->b, -1: b->d
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
                over_in, over_out = (d, b) if d_to_b else (b, d)
                arrivals[over_in] += 1
                departures[over_out] += 1

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
                    raise PDError(
                        f"inconsistent orientation at crossing X[{a},{b},{c},{d}]"
                    )
                if can_db != can_bd:
                    over_dir[i] = 1 if can_db else -1
                    over_in, over_out = (d, b) if can_db else (b, d)
                    arrivals[over_in] += 1
                    departures[over_out] += 1
                    changed = True
        if any(direction is None for direction in over_dir):
            raise PDError(
                "over strand directions are globally ambiguous; "
                "add component annotations or renumber the arcs"
            )
        if any(v != 1 for v in arrivals.values()) or any(
            v != 1 for v in departures.values()
        ):
            raise PDError("inconsistent orientation data: edge used twice one way")

        self._sign = [1 if direction == 1 else -1 for direction in over_dir]
        self._over_in = [
            (x[3] if s == 1 else x[1]) for x, s in zip(self.crossings, self._sign)
        ]

        self._arcs_cache: tuple[dict[int, int], int] | None = None

    def _infer_components(self, edges: list[int]):
        parent = {e: e for e in edges}

        def find(e):
            while parent[e] != e:
                parent[e] = parent[parent[e]]
                e = parent[e]
            return e

        def union(e, f):
            parent[find(e)] = find(f)

        for a, b, c, d in self.crossings:
            union(a, c)
            union(b, d)
        classes: dict[int, list[int]] = {}
        for e in edges:
            classes.setdefault(find(e), []).append(e)
        blocks = sorted((sorted(es) for es in classes.values()), key=lambda es: es[0])
        for es in blocks:
            if es != list(range(es[0], es[0] + len(es))):
                raise PDError(
                    f"component with arcs {es} is not consecutively numbered; "
                    f"add explicit '% component' annotations"
                )
        return [(i + 1, tuple(es)) for i, es in enumerate(blocks)]

    # -- basic protocol --------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, PDCode)
            and self.crossings == other.crossings
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.crossings, self.components))

    def __repr__(self):
        return f"PDCode({len(self.crossings)} crossings, {self.n_components} components)"

    # -- accessors --------------------------------------------------------

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def component_labels(self) -> tuple[int, ...]:
        return tuple(label for label, _ in self.components)

    @property
    def has_distinguished(self) -> bool:
        return self.component_labels[0] == 0

    def component_of(self, edge: int) -> int:
        return self._component_of[edge]

    def next_edge(self, edge: int) -> int:
        return self._next[edge]

    def sign(self, crossing_index: int) -> int:
        return self._sign[crossing_index]

    def signs(self) -> tuple[int, ...]:
        return tuple(self._sign)

    # -- invariant-level data ----------------------------------------------

    def crossing_components(self, i: int) -> tuple[int, int]:
        """(under component, over component) at crossing i."""
        a, b, c, d = self.crossings[i]
        return self._component_of[a], self._component_of[b]

    def linking_number(self, i: int, j: int) -> int:
        """Half the signed count of crossings between components i and j."""
        if i == j:
            raise ValueError("linking number needs two distinct components")
        total = 0
        for idx in range(self.n_crossings):
            cu, co = self.crossing_components(idx)
            if {cu, co} == {i, j}:
                total += self._sign[idx]
        if total % 2:
            raise PDError("odd signed crossing count between two components")
        return total // 2

    def linking_matrix(self) -> dict[tuple[int, int], int]:
        labels = self.component_labels
        out = {}
        for i in labels:
            for j in labels:
                if i < j:
                    out[(i, j)] = self.linking_number(i, j)
        return out

    def writhe(self, label: int) -> int:
        """Signed count of self-crossings of one component."""
        total = 0
        for idx in range(self.n_crossings):
            cu, co = self.crossing_components(idx)
            if cu == co == label:
                total += self._sign[idx]
        return total

    # -- Wirtinger arcs -----------------------------------------------------

    def arcs(self) -> tuple[dict[int, int], int]:
        """(edge -> arc id, number of arcs).  Arcs glue edges across over-passes."""
        if self._arcs_cache is not None:
            return self._arcs_cache
        edges = sorted(self._component_of)
        parent = {e: e for e in edges}

        def find(e):
            while parent[e] != e:
                parent[e] = parent[parent[e]]
                e = parent[e]
            return e

        for idx, (a, b, c, d) in enumerate(self.crossings):
            over_in = self._over_in[idx]
            over_out = b if over_in == d else d
            parent[find(over_in)] = find(over_out)
        reps = sorted(
            {find(e) for e in edges},
            key=lambda r: min(e for e in edges if find(e) == r),
        )
        rep_ids = {r: i for i, r in enumerate(reps)}
        arc_of = {e: rep_ids[find(e)] for e in edges}
        self._arcs_cache = (arc_of, len(reps))
        return self._arcs_cache


def parse_pd(text: str) -> PDCode:
    """Parse the PD text format; raises :class:`PDError` with the offending token."""
    crossings = []
    annotations: list[tuple[int, tuple[int, ...]]] = []
    saw_annotation = False
    for raw_line in text.splitlines() or [""]:
        line = raw_line.strip()
        if not line:
            continue
        m = _ANNOTATION.match(line)
        if m:
            saw_annotation = True
            label = int(m.group(1))
            body = m.group(2).strip()
            if body in ("-", ""):
                annotations.append((label, ()))
            else:
                try:
                    es = tuple(int(tok) for tok in body.replace(",", " ").split())
                except ValueError:
                    raise PDError(f"bad component annotation {line!r}") from None
                annotations.append((label, es))
            continue
        for token in line.split():
            m = _CROSSING.match(token)
            if not m:
                raise PDError(f"bad token {token!r}")
            crossings.append(tuple(int(g) for g in m.groups()))
    if not crossings and not annotations:
        raise PDError("empty diagram")
    return PDCode(crossings, annotations if saw_annotation else None)


def format_pd(pd: PDCode) -> str:
    """Canonical text rendering; parse(format(pd)) == pd."""
    lines = [" ".join(f"X[{a},{b},{c},{d}]" for a, b, c, d in pd.crossings)]
    if not pd.crossings:
        lines = []
    for label, es in pd.components:
        body = ",".join(str(e) for e in es) if es else "-"
        lines.append(f"% component {label}: {body}")
    return "\n".join(lines)


# -- Wirtinger presentations ---------------------------------------------


@dataclass(frozen=True)
class WirtingerPresentation:
    """One generator per arc, one conjugation relator per crossing.

    Relators are stored as (in_arc, over_arc, sign, out_arc) meaning
    out = over^-sign * in * over^sign.  under_passes lists, per component
    and in traversal order from the base arc, the (over_arc, sign) pairs
    met while passing under crossings; together with the self-writhe this
    determines the zero-framed longitudes.
    """

    n_arcs: int
    arc_component: tuple[int, ...]
    component_labels: tuple[int, ...]
    relators: tuple[tuple[int, int, int, int], ...]
    base_arc: Mapping[int, int]
    under_passes: Mapping[int, tuple[tuple[int, int], ...]]
    arc_sequence: Mapping[int, tuple[int, ...]]
    self_writhe: Mapping[int, int]

    @property
    def n_relators(self) -> int:
        return len(self.relators)

    def meridian_rank(self) -> int:
        return max(self.component_labels) + 1


def wirtinger(pd: PDCode) -> WirtingerPresentation:
    arc_of, n_arcs = pd.arcs()
    arc_component = [0] * n_arcs
    for e, a in arc_of.items():
        arc_component[a] = pd.component_of(e)

    under_in_at: dict[int, int] = {}
    for idx, (a, b, c, d) in enumerate(pd.crossings):
        under_in_at[a] = idx

    relators = []
    for idx, (a, b, c, d) in enumerate(pd.crossings):
        relators.append((arc_of[a], arc_of[b], pd.sign(idx), arc_of[c]))

    base_arc: dict[int, int] = {}
    under_passes: dict[int, tuple[tuple[int, int], ...]] = {}
    arc_sequence: dict[int, tuple[int, ...]] = {}
    self_writhe: dict[int, int] = {}
    next_arc_id = n_arcs
    for label, es in pd.components:
        if not es:
            # crossingless component: fresh arc with no relators
            base_arc[label] = next_arc_id
            arc_component.append(label)
            under_passes[label] = ()
            arc_sequence[label] = (next_arc_id,)
            self_writhe[label] = 0
            next_arc_id += 1
            continue
        base_arc[label] = arc_of[es[0]]
        passes = []
        seq = [arc_of[es[0]]]
        w = 0
        for i, e in enumerate(es):
            idx = under_in_at.get(e)
            if idx is None:
                continue
            a, b, c, d = pd.crossings[idx]
            s = pd.sign(idx)
            over_arc = arc_of[b]
            passes.append((over_arc, s))
            seq.append(arc_of[es[(i + 1) % len(es)]])
            if pd.component_of(b) == label:
                w += s
        if len(seq) > 1 and seq[-1] != seq[0]:
            raise PDError(f"component {label} arc traversal does not close up")
        under_passes[label] = tuple(passes)
        arc_sequence[label] = tuple(seq[:-1]) if len(seq) > 1 else tuple(seq)
        self_writhe[label] = w

    return WirtingerPresentation(
        n_arcs=next_arc_id,
        arc_component=tuple(arc_component),
        component_labels=pd.component_labels,
        relators=tuple(relators),
        base_arc=base_arc,
        under_passes=under_passes,
        arc_sequence=arc_sequence,
        self_writhe=self_writhe,
    )


def longitudes(pd: PDCode) -> dict[int, Word]:
    """Zero-framed longitudes as words in the arc generators.

    The word multiplies the over-arcs met while traversing the component,
    then a base-arc power cancelling the self-writhe.
    """
    wp = wirtinger(pd)
    out = {}
    for label in wp.component_labels:
        w = wp.self_writhe[label]
        correction = [(wp.base_arc[label], -1 if w > 0 else 1)] * abs(w)
        out[label] = Word(wp.n_arcs, list(wp.under_passes[label]) + correction)
    return out


# -- abelianization oracle -------------------------------------------------


def _integer_snf_diagonal(rows: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form of a small integer matrix."""
    m = [row[:] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    diag = []
    r = c = 0
    while r < n_rows and c < n_cols:
        # find a pivot of least absolute value
        pivot = None
        for i in range(r, n_rows):
            for j in range(c, n_cols):
                if m[i][j] and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i0, j0 = pivot
        m[r], m[i0] = m[i0], m[r]
        for row in m:
            row[c], row[j0] = row[j0], row[c]
        again = True
        while again:
            again = False
            for i in range(r + 1, n_rows):
                q = m[i][c] // m[r][c]
                if q:
                    for j in range(c, n_cols):
                        m[i][j] -= q * m[r][j]
                if m[i][c]:
                    m[r], m[i] = m[i], m[r]
                    again = True
            for j in range(c + 1, n_cols):
                q = m[r][j] // m[r][c]
                if q:
                    for i in range(r, n_rows):
                        m[i][j] -= q * m[i][c]
                if m[r][j]:
                    for i in range(r, n_rows):
                        m[i][c], m[i][j] = m[i][j], m[i][c]
                    again = True
        diag.append(abs(m[r][c]))
        r += 1
        c += 1
    return diag


def first_homology(pd: PDCode) -> tuple[int, list[int]]:
    """(betti number, torsion coefficients) of the abelianized Wirtinger
    presentation.  For a genuine link diagram this is (n_components, [])."""
    wp = wirtinger(pd)
    rows = []
    for in_arc, over_arc, sign, out_arc in wp.relators:
        row = [0] * wp.n_arcs
        row[out_arc] += 1
        row[in_arc] -= 1
        if any(row):
            rows.append(row)
    if not rows:
        return wp.n_arcs, []
    diag = _integer_snf_diagonal(rows)
    torsion = [d for d in diag if d not in (0, 1)]
    rank = sum(1 for d in diag if d != 0)
    return wp.n_arcs - rank, torsion


# -- presentations and builtin families -------------------------------------


@dataclass(frozen=True)
class LinkPresentation:
    """A link given by meridians and longitude words.

    Component labels are contiguous, starting at 0 when the distinguished
    unknotted component is present, else at 1.  The meridian of component
    i is the generator x_i; longitude words live in the free group of rank
    max(label)+1.  valid_class bounds the lower-central-series class to
    which the words represent the true longitudes (None: taken as exact).
    """

    labels: tuple[int, ...]
    longitude: Mapping[int, Word]
    valid_class: int | None = None
    name: str = ""

    def __post_init__(self):
        labels = tuple(sorted(self.labels))
        object.__setattr__(self, "labels", labels)
        start = labels[0]
        if start not in (0, 1) or labels != tuple(range(start, start + len(labels))):
            raise ValueError(f"component labels {labels} must be contiguous from 0 or 1")
        rank = self.rank
        longs = {}
        for i in labels:
            if i not in self.longitude:
                raise ValueError(f"missing longitude for component {i}")
            w = self.longitude[i]
            if w.rank != rank:
                raise ValueError(f"longitude of component {i} has rank {w.rank}, need {rank}")
            if w.exponent_sum(i) != 0:
                raise ValueError(
                    f"longitude of component {i} is not zero framed "
                    f"(exponent sum {w.exponent_sum(i)})"
                )
            longs[i] = w
        object.__setattr__(self, "longitude", longs)

    @property
    def rank(self) -> int:
        return self.labels[-1] + 1

    @property
    def has_distinguished(self) -> bool:
        return self.labels[0] == 0

    @property
    def n_components(self) -> int:
        return len(self.labels)

    def __hash__(self):
        return hash((self.labels, tuple(sorted(self.longitude.items(), key=lambda kv: kv[0])), self.valid_class))

    def __eq__(self, other):
        return (
            isinstance(other, LinkPresentation)
            and self.labels == other.labels
            and self.longitude == other.longitude
            and self.valid_class == other.valid_class
        )

    def linking_number(self, i: int, j: int) -> int:
        if i == j:
            raise ValueError("linking number needs two distinct components")
        return self.longitude[j].exponent_sum(i)


LinkData = Union[PDCode, LinkPresentation]


@dataclass(frozen=True)
class NMLinkSpec:
    """Closed chain of n unknots winding m times around a solid torus,
    together with the torus meridian as component 0."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("chain length n and winding number m must be >= 1")

    @property
    def n_components(self) -> int:
        return self.n + 1

    def __str__(self):
        return f"nm({self.n},{self.m})"


@dataclass(frozen=True)
class CoverDerivation:
    """Declared branched-cover / sublink / blow-down derivation data.

    d: branched cover degree; kept_n: components of the derived witness
    link excluding its distinguished component; blowdowns: number of
    blown-down components.  witness_index and witness_value declare a
    nonvanishing Milnor residue of the witness link; witness_link, when
    given, lets the invariant engine verify the claim.
    """

    d: int
    kept_n: int
    blowdowns: int
    witness_index: tuple[int, ...] = ()
    witness_value: int = 0
    witness_link: LinkData | None = None
    note: str = ""

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("cover degree d must be >= 1")
        if self.kept_n < 1:
            raise ValueError("kept component count must be >= 1")
        if self.blowdowns < 0:
            raise ValueError("blow-down count must be >= 0")
        object.__setattr__(self, "witness_index", tuple(self.witness_index))
        if self.witness_value != 0:
            if len(self.witness_index) < 2:
                raise ValueError("witness multi-index needs length >= 2")
            if 0 not in self.witness_index:
                raise ValueError(
                    "a nonzero witness invariant must involve the distinguished "
                    "component (index 0)"
                )

    @property
    def claims_nonzero(self) -> bool:
        return self.witness_value != 0


# -- fixtures ---------------------------------------------------------------

HOPF_PD = """\
X[1,3,2,4] X[3,1,4,2]
% component 1: 1,2
% component 2: 3,4
"""

# Axis circle 0 plus the clasped pattern curve 1.  Verified: lk = 0, all
# invariants of length <= 3 vanish, mu(0,0,1,1) = 1 and mu(0,1,0,1) = -2
# with full cyclic symmetry, H1 = Z^2.
WHITEHEAD_PD = """\
X[10,1,5,2] X[4,8,1,7] X[8,6,9,5] X[2,9,3,10] X[6,4,7,3]
% component 0: 1,2,3,4
% component 1: 5,6,7,8,9,10
"""

# Standard three-circle arrangement.  Verified: all pairwise linking
# numbers 0, mu(1,2,3) = 1, H1 = Z^3, and the longitude of component 3
# reduces to the commutator of the meridians of components 1 and 2.
BORROMEAN_PD = """\
X[5,1,6,2] X[7,4,8,3] X[4,10,1,9] X[2,11,3,12] X[10,7,11,6] X[12,8,9,5]
% component 1: 1,2,3,4
% component 2: 5,6,7,8
% component 3: 9,10,11,12
"""


def pd_fixture(name: str) -> PDCode:
    """Diagram fixtures for the builtin links (cross-check data)."""
    table = {
        "hopf": HOPF_PD,
        "whitehead": WHITEHEAD_PD,
        "borromean": BORROMEAN_PD,
    }
    if name not in table:
        raise ValueError(f"no PD fixture named {name!r}")
    return parse_pd(table[name])


def bing_axis_pd() -> PDCode:
    """The borromean fixture relabelled with component 3 as the axis 0.

    Cross-check fixture for the nm(2,1) presentation.
    """
    pd = pd_fixture("borromean")
    relabel = {1: 1, 2: 2, 3: 0}
    comps = [(relabel[label], es) for label, es in pd.components]
    return PDCode(pd.crossings, comps)


# -- nm presentations --------------------------------------------------------

# Longitude words for the length-1 chain with winding 1 (the whitehead
# link), axis component 0.  Frozen from the Wirtinger reduction of
# WHITEHEAD_PD (lambda_1 at class 4, lambda_0 at class 5) and
# cross-checked against it in the test suite.
_WH_L0_TEXT = (
    "x1^-1 x0^-1 x1 x0^-1 x1^-1 x0 x1^-1 x0^-1 x1 x0 x1^-1 x0 "
    "x1 x0^-1 x1 x0^-1 x1^-1 x0 x1 x0^-1 x1 x0 x1^-1 x0"
)
_WH_L1_TEXT = "x0^-1 x1 x0 x1^-1 x0 x1 x0^-1 x1^-1"

# Longitude words for the length-2 chain with winding 1 (the borromean
# rings with the axis as component 0), frozen from the reduction of the
# relabelled BORROMEAN_PD at class 6.
_BING_L0_TEXT = "x1 x2 x1^-1 x2^-1"
_BING_L1_TEXT = "x1 x2^-1 x1^-1 x0^-1 x1 x2 x1^-1 x0"
_BING_L2_TEXT = "x2^-1 x1^-1 x0 x1 x2 x1 x2^-1 x1^-1 x0^-1 x1 x2 x1^-1"


def nm_presentation(spec: NMLinkSpec) -> LinkPresentation:
    """Model presentation of the (n,m) chain link with axis component 0.

    The chain cases with a published invariant profile, (1,1) and (2,1),
    carry exact words (cross-checked against diagram fixtures).  For other
    parameters the words encode the chain linking pattern and the winding
    conjugation only, and are declared valid to class 2.
    """
    n, m = spec.n, spec.m
    rank = n + 1
    x = [Word(rank, [(i, 1)]) for i in range(rank)]

    def pw(i, e):
        return x[i] ** e

    longs: dict[int, Word] = {}
    if n == 1:
        longs[0] = _stretch_axis_power(_parse_in_rank(_WH_L0_TEXT, 2), m)
        longs[1] = _stretch_axis_power(_parse_in_rank(_WH_L1_TEXT, 2), m)
        valid = 4 if m == 1 else 2
    elif n == 2:
        longs[0] = _parse_in_rank(_BING_L0_TEXT, 3)
        longs[1] = _stretch_axis_power(_parse_in_rank(_BING_L1_TEXT, 3), m)
        longs[2] = _stretch_axis_power(_parse_in_rank(_BING_L2_TEXT, 3), m)
        valid = 6 if m == 1 else 2
    else:
        for i in range(2, n):
            longs[i] = x[i - 1] * x[i + 1]
        longs[1] = (pw(0, m) * x[n] * pw(0, -m)) * x[2]
        longs[n] = x[n - 1] * (pw(0, -m) * x[1] * pw(0, m))
        w0 = Word(rank)
        for s in range(1, m + 1):
            a = 1 + ((s - 1) % n)
            b = 1 + (s % n)
            w0 = w0 * commutator(x[a], x[b])
        longs[0] = w0
        valid = 2
    return LinkPresentation(
        labels=tuple(range(rank)),
        longitude=longs,
        valid_class=valid,
        name=str(spec),
    )


def _parse_in_rank(text: str, rank: int) -> Word:
    from .freegroup import parse_word

    return parse_word(text, rank)


def _stretch_axis_power(w: Word, m: int) -> Word:
    """Replace each x0^{+-1} letter by x0^{+-m} (model winding generalization)."""
    if m == 1:
        return w
    letters = []
    for g, s in w.letters:
        letters.extend([(g, s)] * (m if g == 0 else 1))
    return Word(w.rank, letters)


def borromean_presentation() -> LinkPresentation:
    """Borromean rings, components 1,2,3.

    Longitude words frozen from the class-6 Wirtinger reduction of the
    BORROMEAN_PD fixture; the longitude of component 3 is the plain
    commutator of the meridians of components 1 and 2, the other two are
    commutators with conjugated entries (base point artifacts).
    """
    rank = 4
    longs = {
        1: _parse_in_rank("x1 x2^-1 x1^-1 x3^-1 x1 x2 x1^-1 x3", rank),
        2: _parse_in_rank(
            "x2^-1 x1^-1 x3 x1 x2 x1 x2^-1 x1^-1 x3^-1 x1 x2 x1^-1", rank
        ),
        3: _parse_in_rank("x1 x2 x1^-1 x2^-1", rank),
    }
    return LinkPresentation(
        labels=(1, 2, 3), longitude=longs, valid_class=6, name="borromean"
    )


BUILTIN_NAMES = ("hopf", "whitehead", "borromean", "bing", "nm")

_NM_SPEC = re.compile(r"nm\(\s*(\d+)\s*,\s*(\d+)\s*\)$")


def builtin(name: str, n: int | None = None, m: int | None = None) -> LinkData:
    """Builtin link families: nm(n,m), hopf, whitehead, borromean, bing."""
    key = name.strip().lower()
    msp = _NM_SPEC.match(key)
    if msp:
        return nm_presentation(NMLinkSpec(int(msp.group(1)), int(msp.group(2))))
    if key == "nm":
        if n is None or m is None:
            raise ValueError("nm family needs parameters, e.g. builtin('nm', 2, 1)")
        return nm_presentation(NMLinkSpec(n, m))
    if key == "hopf":
        return parse_pd(HOPF_PD)
    if key == "whitehead":
        return parse_pd(WHITEHEAD_PD)
    if key == "borromean":
        return borromean_presentation()
    if key == "bing":
        return nm_presentation(NMLinkSpec(2, 1))
    raise ValueError(f"unknown builtin link {name!r}")

