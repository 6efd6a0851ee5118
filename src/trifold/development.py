"""The finalized ball of the triangle complex, and its persistence.

Faces of the complex correspond to group elements; the base face is the
identity.  Each edge carries a letter and k face slots indexed mod k, and
crossing from slot i to slot i' multiplies on the right by that letter to the
power i'-i.  Each vertex carries a chart of the faces around it into its
vertex group.  `grower.py` grows a ball by deduction from the charts; it is
imported only when a ball is grown, and `_Grower`, `init_development` and
`grow_to_radius` still resolve here.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import namedtuple
from functools import cached_property
from itertools import accumulate, chain
from operator import le

from .groups import LETTERS, LETTER_TYPES, VERTEX_LETTERS, TriangleGroupSpec


class VerificationError(Exception):
    """A check on a ball found it wrong, or could not answer from it: the
    verdict is a failure (exit 1), not bad usage."""


class DevelopmentError(VerificationError, RuntimeError):
    """Growth found contradictory chart values, or an identification the
    deductions rule out (see grower.py); the spec cannot develop."""


class InsufficientRadiusError(VerificationError, ValueError):
    """A query touched frontier data whose distances are not trusted."""


class GeneratorSymbol(namedtuple("GeneratorSymbol", "letter power")):
    """One generator: a letter with a power in 1..k-1, ordered letter first."""

    __slots__ = ()

    def name(self) -> str:
        return f"{LETTERS[self.letter]}{self.power}"

    @staticmethod
    def parse(text: str, k: int) -> "GeneratorSymbol":
        letter = text[:1]
        if letter not in LETTERS or not text[1:].isdigit():
            raise ValueError(f"bad generator symbol {text!r}")
        power = int(text[1:])
        if not 1 <= power < k:
            raise ValueError(f"power of {text!r} out of range for k={k}")
        return GeneratorSymbol(LETTERS.index(letter), power)


def symbols_for(k: int) -> list[GeneratorSymbol]:
    return [GeneratorSymbol(l, p) for l in range(3) for p in range(1, k)]


_GROWER_NAMES = ("_Grower", "init_development", "grow_to_radius")


def __getattr__(name: str):
    # the grower is compiled only by the calls that grow a ball
    if name in _GROWER_NAMES:
        from . import grower

        return getattr(grower, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Development:
    """Finalized, immutable ball with canonical breadth-first numbering.

    The columns are flat lists with a fixed number of entries per element:
    face f's edge, slot, vertex and element for letter or vertex type t are
    f_edge[3*f + t], f_slot[3*f + t], f_vert[3*f + t] and f_elem[3*f + t],
    the element being f's value in the chart of its type-t vertex.  These
    five face columns, with `dist`, are the ball; `derive_columns` builds
    the rest from them in one pass: edge e's letter, its k slots
    edge_slots[k*e:k*e + k] and its ends edge_ends[2*e:2*e + 2], and vertex
    v's type and its edges vert_edges[o[v]:o[v + 1]] for o =
    vert_edge_offsets.  Face adjacency, the faces at a vertex and its
    chart, and a face's cone signature (`cones.signature`) are derived for
    one element when first asked for, then kept, so a suite pays only for
    the part of the ball it visits and no call derives one twice.

    Faces are numbered breadth first, so `dist` starts at 0 and never
    decreases, and the faces within any radius r form the prefix
    `ball_faces(r)`.  Edges and vertices are numbered in order of first
    appearance, each edge's first face holds its slot 0 and each vertex's
    first face is the identity of its chart.  Distances are trusted out to
    `radius`.  `margin` is the grower's, 1 + delta: one layer of trust
    budget, which fixes the distance, edges and corners of every face out
    to `radius`, and delta layers of reach, which keep the stars around the
    vertices of trusted faces (see `grower.py`).  The grower grew the ball
    to radius + margin and kept the faces out to radius + margin - 1, the
    farthest any reader goes, so every face here is at most that far from
    the base face.
    """

    def __init__(self, spec: TriangleGroupSpec, radius: int, margin: int):
        self.spec = spec
        self.k = spec.k
        self.radius = radius
        self.margin = margin
        self.symbols = symbols_for(spec.k)
        self.letter_types = LETTER_TYPES
        self.dist: list[int] = []
        self.final: list[bool] = []
        self.f_edge: list[int] = []
        self.f_slot: list[int] = []
        self.f_vert: list[int] = []
        self.f_elem: list[int] = []
        self.edge_letter: list[int] = []
        self.edge_slots: list[int] = []
        self.edge_ends: list[int] = []
        self.vert_type: list[int] = []
        self.vert_edges: list[int] = []
        self.vert_edge_offsets: list[int] = [0]
        self._adjacency: dict[int, list[int]] = {}
        self._vert_faces: dict[int, list[int]] = {}
        self._charts: dict[int, dict[int, int]] = {}
        self._signatures: dict[int, tuple] = {}  # cones.signature's memo

    def derive_columns(self) -> None:
        """Build the edge and vertex columns from the face columns in one
        pass, checking that these describe one canonical ball; ValueError
        where they do not.

        Faces are read in order, and each face by its corner types and then
        its letters.  An edge or vertex first met there takes the next id,
        which the face column must hold, and takes its letter and ends, or
        its type, from that face, whose slot on the edge must be 0 and whose
        element at the vertex the identity.  Every later appearance must
        agree, no two faces may hold one slot of an edge, and every element
        must lie in its vertex group.  The charts must be injective and
        follow the crossing rule: at both ends of an edge, the face in slot
        j holds the element of the face in slot 0 times the designated
        generator of the edge's letter to the power j.  `dist` must start at
        0 and never decrease, and each later face must have a neighbour one
        closer and none closer, so it is the breadth-first distance; as
        faces are numbered by distance, the nearest face on an edge is its
        first."""
        k, dist = self.k, self.dist
        f_edge, f_slot, f_vert, f_elem = self.f_edge, self.f_slot, self.f_vert, self.f_elem
        if dist[:1] != [0] or not all(map(le, dist, dist[1:])):
            raise ValueError("dist: the column does not start at 0 or it decreases")
        groups = self.spec.vertex_groups
        for t, group in enumerate(groups):
            elements = f_elem[t::3]
            if elements and (min(elements) < 0 or max(elements) >= group.order):
                raise ValueError(f"face_elements: an element at a V{t + 1} vertex lies outside its group")
        # per letter, its types t1 and t2 and, at each end of its edges, the
        # crossing rule: rows[x][j] is x times the designated generator of
        # the letter to the power j
        steps = []
        for letter, types in enumerate(LETTER_TYPES):
            ends = []
            for t in types:
                gen = self.spec.designated[t][VERTEX_LETTERS[t].index(letter)]
                powers = groups[t].cyclic_subgroup(gen)
                ends.append([[row[p] for p in powers] for row in groups[t].mult])
            steps.append((letter, *types, *ends))
        edge_letter: list[int] = []
        edge_slots: list[int] = []
        edge_ends: list[int] = []
        edge_near: list[int] = []  # the distance of the edge's first face
        vert_type: list[int] = []
        vert_edges: list[list[int]] = []  # ascending, as edges are met in order
        # charted[m*v + x] is set once a face holds element x at vertex v
        m = max(group.order for group in groups)
        charted = bytearray(m * (max(f_vert, default=-1) + 1))
        blank = [-1] * k
        ne = nv = 0
        for f, d in enumerate(dist):
            x = 3 * f
            corners = f_vert[x:x + 3]
            for t, v in enumerate(corners):
                if v >= nv:
                    if v > nv:
                        raise ValueError(f"face_vertices: vertex {v} is not numbered by first appearance")
                    if f_elem[x + t]:
                        raise ValueError(f"face_elements: vertex {v}'s first face {f} is not the identity")
                    vert_type.append(t)
                    vert_edges.append([])
                    nv += 1
                elif vert_type[v] != t:
                    raise ValueError(f"face_vertices: vertex {v} appears under two types")
                c = m * v + f_elem[x + t]
                if charted[c]:
                    raise ValueError(f"face_elements: face {f} repeats an element of vertex {v}'s chart")
                charted[c] = 1
            near = d  # the least distance on f's edges
            for letter, t1, t2, rows1, rows2 in steps:
                e, j = f_edge[x + letter], f_slot[x + letter]
                a, b = corners[t1], corners[t2]
                if e >= ne:
                    if e > ne:
                        raise ValueError(f"face_edges: edge {e} is not numbered by first appearance")
                    if j:
                        raise ValueError(f"face_slots: edge {e}'s first face {f} is not in slot 0")
                    edge_letter.append(letter)
                    edge_ends += (a, b)
                    edge_slots += blank
                    edge_near.append(d)
                    vert_edges[a].append(e)
                    vert_edges[b].append(e)
                    ne += 1
                elif edge_letter[e] != letter:
                    raise ValueError(f"face_edges: edge {e} appears under two letters")
                elif edge_ends[2 * e] != a or edge_ends[2 * e + 1] != b:
                    raise ValueError(f"face_edges: edge {e} appears with two pairs of ends")
                elif edge_near[e] < near:
                    near = edge_near[e]
                s = k * e + j
                if edge_slots[s] != -1:
                    raise ValueError(f"face_slots: slot {j} of edge {e} is claimed by faces {edge_slots[s]} and {f}")
                edge_slots[s] = f
                if j:
                    y = 3 * edge_slots[k * e]  # the edge's first face, in slot 0
                    if f_elem[x + t1] != rows1[f_elem[y + t1]][j] or f_elem[x + t2] != rows2[f_elem[y + t2]][j]:
                        raise ValueError(f"face_elements: face {f} breaks the crossing rule on edge {e}")
            if f and near != d - 1:
                raise ValueError(f"dist: face {f} at distance {d} has no neighbour at {d - 1}, or one nearer")
        self.edge_letter, self.edge_slots, self.edge_ends = edge_letter, edge_slots, edge_ends
        self.vert_type = vert_type
        self.vert_edges = list(chain.from_iterable(vert_edges))
        self.vert_edge_offsets = list(accumulate(map(len, vert_edges), initial=0))

    # -- derived data ------------------------------------------------------

    @cached_property
    def half_girths(self) -> tuple[float, float, float]:
        """The spec's half-girths, computed once per ball."""
        return self.spec.half_girths()

    @property
    def face_count(self) -> int:
        return len(self.dist)

    @property
    def symbol_count(self) -> int:
        return len(self.symbols)

    @property
    def sphere_sizes(self) -> list[int]:
        ends = [len(self.ball_faces(r)) for r in range(-1, self.radius + 1)]
        return [b - a for a, b in zip(ends, ends[1:])]

    def ball_faces(self, radius: int | None = None) -> range:
        """The faces within `radius` of the base face, capped at the trusted
        radius (the default): a prefix of the breadth-first numbering."""
        r = self.radius if radius is None else min(radius, self.radius)
        return range(bisect_right(self.dist, r))

    def slots(self, e: int) -> list[int]:
        """The face in each of edge e's k slots, -1 where none is built."""
        k = self.k
        return self.edge_slots[k * e:k * e + k]

    def edge_saturated(self, e: int) -> bool:
        return -1 not in self.slots(e)

    def edges_at_vertex(self, v: int) -> list[int]:
        """The edges at v, ascending."""
        offsets = self.vert_edge_offsets
        return self.vert_edges[offsets[v]:offsets[v + 1]]

    def vertex_chart(self, v: int) -> dict[int, int]:
        """The chart at v: face to element of its vertex group, by ascending face."""
        chart = self._charts.get(v)
        if chart is None:
            t, elements = self.vert_type[v], self.f_elem
            chart = self._charts[v] = {f: elements[3 * f + t] for f in self.faces_at_vertex(v)}
        return chart

    def neighbor(self, f: int, symbol: int) -> int | None:
        letter, power = divmod(symbol, self.k - 1)
        x = 3 * f + letter
        k = self.k
        raw = self.edge_slots[k * self.f_edge[x] + (self.f_slot[x] + power + 1) % k]
        return None if raw == -1 else raw

    def adjacent_faces(self, f: int) -> list[int]:
        """The faces sharing an edge with f, ascending."""
        near = self._adjacency.get(f)
        if near is None:
            k, slots = self.k, self.edge_slots
            x, y, z = self.f_edge[3 * f:3 * f + 3]
            x, y, z = k * x, k * y, k * z
            found = {*slots[x:x + k], *slots[y:y + k], *slots[z:z + k]}
            found.discard(-1)
            found.discard(f)
            near = self._adjacency[f] = sorted(found)
        return near

    def faces_at_vertex(self, v: int) -> list[int]:
        """The faces with a corner at v, ascending: every face in a slot of an
        edge at v, since a face's two edges at its corner both end there."""
        faces = self._vert_faces.get(v)
        if faces is None:
            k, slots = self.k, self.edge_slots
            found = set()
            for e in self.edges_at_vertex(v):
                found.update(slots[k * e:k * e + k])
            found.discard(-1)
            faces = self._vert_faces[v] = sorted(found)
        return faces

    def shared_edge(self, f1: int, f2: int) -> int | None:
        if f1 == f2:
            return None
        f_edge, x, y = self.f_edge, 3 * f1, 3 * f2
        for letter in range(3):
            e = f_edge[x + letter]
            if e == f_edge[y + letter]:
                return e
        return None

    def vertex_complete(self, v: int) -> bool:
        order = self.spec.vertex_groups[self.vert_type[v]].order
        if len(self.faces_at_vertex(v)) != order:
            return False
        return all(self.edge_saturated(e) for e in self.edges_at_vertex(v))

    def vertex_interior(self, v: int) -> bool:
        """v's link is complete with every face around it final."""
        return self.vertex_complete(v) and all(self.final[g] for g in self.faces_at_vertex(v))

    def is_interior(self, f: int) -> bool:
        """All three of f's vertices are interior."""
        return all(map(self.vertex_interior, self.f_vert[3 * f:3 * f + 3]))

    def interior_vertices(self) -> list[int]:
        """The interior vertices, in ascending order.

        Such a vertex carries a final face, so only the corners of the trusted
        faces, the first 3n entries of f_vert, are candidates."""
        candidates = sorted(set(self.f_vert[:3 * len(self.ball_faces())]))
        return [v for v in candidates if self.vertex_interior(v)]

    def bfs_from(self, start: int, cap: int | None = None) -> dict[int, int]:
        # the memo is read here directly: a call per face would be most of
        # the cost of the short searches the suites run by the thousand
        known = self._adjacency
        dist = {start: 0}
        queue = [start]
        for f in queue:
            d = dist[f]
            if cap is not None and d >= cap:
                continue
            near = known.get(f)
            if near is None:
                near = self.adjacent_faces(f)
            d += 1
            for g in near:
                if g not in dist:
                    dist[g] = d
                    queue.append(g)
        return dist

    # -- local structure ---------------------------------------------------

    def minimal_triangles(self, v: int) -> list[int]:
        """Faces at v of minimum distance; checked pairwise adjacent (C1)."""
        if not self.vertex_interior(v):
            raise InsufficientRadiusError(f"vertex {v} has an incomplete or frontier link")
        faces = self.faces_at_vertex(v)
        best = min(self.dist[f] for f in faces)
        minimal = [f for f in faces if self.dist[f] == best]
        for i, f1 in enumerate(minimal):
            for f2 in minimal[i + 1:]:
                if self.shared_edge(f1, f2) is None:
                    raise DevelopmentError(
                        f"minimal faces {f1} and {f2} at vertex {v} are not adjacent"
                    )
        return minimal

    def local_distances(self, v: int) -> dict[int, int]:
        """Each face at v with its distance from the minimal faces inside
        v's link, where two faces are adjacent when they share an edge at v.

        Checks C1 (see `minimal_triangles`) and then C4 at every face at v in
        ascending order: its distance is the least distance at v plus its
        link distance.  The first failure raises DevelopmentError."""
        minimal = self.minimal_triangles(v)
        letters = VERTEX_LETTERS[self.vert_type[v]]  # of the two edges at v
        k, f_edge, slots = self.k, self.f_edge, self.edge_slots
        link = dict.fromkeys(minimal, 0)
        queue = list(minimal)
        for f in queue:
            d = link[f] + 1
            for letter in letters:
                e = k * f_edge[3 * f + letter]
                for g in slots[e:e + k]:
                    if g not in link:
                        link[g] = d
                        queue.append(g)
        best = self.dist[minimal[0]]
        for f in self.faces_at_vertex(v):
            if f not in link:
                raise DevelopmentError(f"face {f} unreachable inside the link of {v}")
            if self.dist[f] != best + link[f]:
                raise DevelopmentError(
                    f"distance decomposition fails at vertex {v}, face {f}"
                )
        return link


# -- serialization ---------------------------------------------------------


DEVELOPMENT_FORMAT = "trifold-development/5"


def trust_margin(spec: TriangleGroupSpec) -> int:
    """1 + delta, how far past its trusted radius a ball is grown (see grower.py)."""
    return 1 + spec.delta


def export_development(dev: Development) -> dict:
    """The ball as its header and one flat JSON array per face column (see
    the README for the layout).

    The lists are the ball's own, not copies.  Nothing derived is stored:
    not `final`, which is `dist <= radius`, nor the edge and vertex columns,
    which `derive_columns` rebuilds."""
    return {
        "format": DEVELOPMENT_FORMAT,
        "name": dev.spec.name,
        "k": dev.k,
        "radius": dev.radius,
        "margin": dev.margin,
        "dist": dev.dist,
        "face_edges": dev.f_edge,
        "face_slots": dev.f_slot,
        "face_vertices": dev.f_vert,
        "face_elements": dev.f_elem,
    }


def development_to_json(dev: Development) -> str:
    return json.dumps(export_development(dev), sort_keys=True, separators=(",", ":")) + "\n"


def _integer(doc: dict, name: str) -> int:
    """`doc[name]`, checked to be a JSON integer, not a bool or a string."""
    value = doc[name]
    if type(value) is not int:
        raise ValueError(f"{name}: {value!r} is not an integer")
    return value


def _column(doc: dict, name: str, length: int | None = None, high: int | None = None) -> list[int]:
    """`doc[name]`, checked to hold only JSON integers (no bool or string),
    `length` of them unless `length` is None, each in 0..high-1 unless
    `high` is None."""
    column = doc[name]
    if not set(map(type, column)) <= {int}:
        raise ValueError(f"{name}: an entry is not an integer")
    if length is not None and len(column) != length:
        raise ValueError(f"{name} has {len(column)} entries, expected {length}")
    if high is not None and column and (min(column) < 0 or max(column) >= high):
        raise ValueError(f"{name}: an entry lies outside 0..{high - 1}")
    return column


def import_development(doc: dict, spec: TriangleGroupSpec) -> Development:
    """Rebuild a ball from `export_development`'s document.

    The parsed arrays become the ball's face columns as they are, and
    `derive_columns` builds the rest, rejecting face columns that disagree
    with each other.  Before that, a negative radius, a margin other than
    `trust_margin`, a farthest face other than at radius + margin - 1, the
    extent a ball is kept to, and a face column of the wrong length or with
    an id or slot out of range raise ValueError, so a malformed document
    never fails later inside a suite.  So does a bool or a string in
    `radius`, `margin`, `dist` or a face column: JSON integers only."""
    if not isinstance(doc, dict):
        raise ValueError("not a development document")
    if doc.get("format") != DEVELOPMENT_FORMAT:
        raise ValueError(
            f"development format {doc.get('format')!r} is not {DEVELOPMENT_FORMAT!r}; "
            f"rebuild the ball"
        )
    dev = Development(spec, _integer(doc, "radius"), _integer(doc, "margin"))
    if dev.radius < 0:
        raise ValueError(f"radius: {dev.radius} is negative")
    if dev.margin != trust_margin(spec):
        raise ValueError(f"margin: {dev.margin} is not 1 + delta = {trust_margin(spec)}")
    dist = _column(doc, "dist")
    n = 3 * len(dist)
    extent = dev.radius + dev.margin - 1
    reach = max(dist, default=0)
    if reach > extent:
        raise ValueError(f"dist: a face lies past radius + margin - 1 = {extent}")
    if reach < extent:
        raise ValueError(f"radius: the faces reach distance {reach}, short of radius + margin - 1 = {extent}")
    dev.dist = dist
    dev.final = [d <= dev.radius for d in dist]
    dev.f_edge = _column(doc, "face_edges", n, n)
    dev.f_slot = _column(doc, "face_slots", n, dev.k)
    dev.f_vert = _column(doc, "face_vertices", n, n)
    dev.f_elem = _column(doc, "face_elements", n)  # ranges per vertex type in derive_columns
    dev.derive_columns()
    return dev


def embeds_in(small: Development, big: Development) -> bool:
    """The trusted ball of `small` must appear verbatim at the start of `big`."""
    n = len(small.ball_faces())
    if big.dist[:n] != small.dist[:n]:
        return False
    for f in range(n):
        for s in range(small.symbol_count):
            g_small = small.neighbor(f, s)
            g_big = big.neighbor(f, s)
            if g_small is not None and g_small < n:
                if g_big != g_small:
                    return False
            elif g_big is not None and g_big < n:
                return False
    return True
