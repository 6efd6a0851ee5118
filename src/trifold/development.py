"""The finalized ball of the triangle complex, and its persistence.

Faces of the complex correspond to group elements; the base face is the
identity.  Each edge carries a letter and k face slots indexed mod k, and
crossing from slot i to slot i' multiplies on the right by that letter to the
power i'-i.  Each vertex carries a chart of the faces around it into its
vertex group.  `grower.py` grows a ball by deduction from the charts; it is
imported only when a ball is grown, and `_Grower` still resolves here.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import namedtuple
from itertools import accumulate, chain

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


def __getattr__(name: str):
    # the grower is compiled only by the calls that grow a ball
    if name == "_Grower":
        from .grower import _Grower

        return _Grower
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Development:
    """Finalized, immutable ball with canonical breadth-first numbering.

    The columns are flat lists with a fixed number of entries per element:
    face f's edge, slot, vertex and element for letter or vertex type t are
    f_edge[3*f + t], f_slot[3*f + t], f_vert[3*f + t] and f_elem[3*f + t],
    the element being f's value in the chart of its type-t vertex.  The
    edges and slots are the ball, and the only columns stored;
    `derive_columns` derives the rest from them in one pass: `dist` and
    `final`, the vertices and elements, edge e's letter, its k slots
    edge_slots[k*e:k*e + k] and its ends edge_ends[2*e:2*e + 2], and vertex
    v's type and its edges vert_edges[o[v]:o[v + 1]] for o =
    vert_edge_offsets.  Face adjacency, the faces at a vertex and its
    chart, and a face's cone signature (`cones.signature`) are derived for
    one element when first asked for, then kept, so a suite pays only for
    the part of the ball it visits and no call derives one twice.

    Faces are numbered breadth first from the base face: the faces first
    met from each face in turn, across its edges in letter order and each
    edge's slots upward from the face's own.  So `dist` starts at 0 and
    never decreases, and the faces within any radius r form the prefix
    `ball_faces(r)`.  Edges and vertices are numbered in order of first
    appearance, each edge's first face holds its slot 0 and each vertex's
    first face is the identity of its chart.  The grower makes faces, edges
    and vertices in this order.  Distances are trusted out to `radius`.
    `margin` is the grower's, 1 + delta.  The grower makes the faces out to
    radius + margin - 1 = radius + delta and keeps them all: the delta
    layers past `radius` are reach, which keep the stars around the
    vertices of trusted faces and are the farthest any reader goes (see
    `grower.py`), so every face here is at most that far from the base
    face.
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
        """Derive every other column from `f_edge` and `f_slot` in one pass
        over the faces, checking that these describe one canonical ball;
        ValueError where they do not.

        `dist[f]` is one more than the least distance of an earlier face on
        one of f's edges.  f's type-t corner is the end of whichever of its
        two type-t edges was met earlier, its element there given by the
        crossing rule on that edge: the face in slot j holds the element of
        the face in slot 0 times the designated generator of the edge's
        letter to the power j.  Where neither edge was met, the corner is a
        new vertex, whose chart sends f to the identity; by C1 and C4 (see
        `grower.py`) a vertex is always met through an earlier face on one of
        its edges.  A new edge takes its letter and ends from its first face.

        Checked: edges are numbered by first appearance, each with its first
        face in slot 0; an edge has one letter and each of its slots at most
        one face; both edges at a corner, where met, agree on it; the charts
        are injective; each face after the base face has an earlier
        neighbour as far as the one before it has, so `dist` never decreases
        and is the breadth-first distance; and the faces are in breadth-first
        order.  For that, each face after the base face has the key (g,
        letter, j), least over its edges met earlier, where g is the edge's
        slot-0 face and j the face's slot there: g is the face's least
        neighbour, the one it is met from, and (letter, j) when it is met.
        The keys must increase; a face out of order is named only after the
        pass, so that any other fault is named first.

        The order check alone would refuse every ball the distance check
        refuses, since a face with no earlier neighbour has key -1.  The
        distance check stays for its message: it names the misplaced face as
        it is met, where without it the pass runs on and a later face, whose
        corners the misplaced one put wrong, is named instead."""
        k, f_edge, f_slot = self.k, self.f_edge, self.f_slot
        groups = self.spec.vertex_groups
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
        # per vertex type t, its letters l1 and l2 and which end of their edges is t's
        corners_of = [(t, l1, LETTER_TYPES[l1].index(t), l2, LETTER_TYPES[l2].index(t))
                      for t, (l1, l2) in enumerate(VERTEX_LETTERS)]
        dist: list[int] = []
        f_vert: list[int] = []
        f_elem: list[int] = []
        edge_letter: list[int] = []
        edge_slots: list[int] = []
        edge_ends: list[int] = []
        edge_rows: list[list[int]] = []  # at each end, its first face's row of steps
        vert_type: list[int] = []
        vert_edges: list[list[int]] = []  # ascending, as edges are met in order
        # charted[m*v + x] is set once a face holds element x at vertex v
        m = max(group.order for group in groups)
        charted = bytearray()
        unmet = bytes(m)
        blank = [-1] * k
        ne = 0
        last = 0
        prev = -1  # the key of the face before
        unordered = 0  # the first face after the base whose key is not above the one before
        for f in range(len(f_edge) // 3):
            x = 3 * f
            met = ne  # edges below this id were met on earlier faces
            key = -1  # f's key as one integer, least over its edges met earlier
            for letter in 0, 1, 2:
                e = f_edge[x + letter]
                if e < met:
                    if edge_letter[e] != letter:
                        raise ValueError(f"face_edges: edge {e} appears under two letters")
                    j = f_slot[x + letter]
                    s = k * e + j
                    if edge_slots[s] != -1:
                        raise ValueError(f"face_slots: slot {j} of edge {e} is claimed by faces {edge_slots[s]} and {f}")
                    edge_slots[s] = f
                    here = (3 * edge_slots[k * e] + letter) * k + j
                    if key < 0 or here < key:
                        key = here
            # dist does not decrease before f, so its least earlier neighbour
            # has the least distance on its edges met earlier
            near = dist[key // (3 * k)] if key >= 0 else -2
            if f and near < last - 1:
                raise ValueError(f"face_edges: face {f} has no earlier neighbour at distance {max(last - 1, 0)} or more")
            last = near + 1 if f else 0
            dist.append(last)
            for t, l1, s1, l2, s2 in corners_of:
                e1, e2 = f_edge[x + l1], f_edge[x + l2]
                if e1 < met:
                    i = 2 * e1 + s1
                    v, a = edge_ends[i], edge_rows[i][f_slot[x + l1]]
                    if e2 < met:
                        i = 2 * e2 + s2
                        if edge_ends[i] != v or edge_rows[i][f_slot[x + l2]] != a:
                            raise ValueError(f"face_edges: edges {e1} and {e2} of face {f} disagree on its V{t + 1} corner")
                elif e2 < met:
                    i = 2 * e2 + s2
                    v, a = edge_ends[i], edge_rows[i][f_slot[x + l2]]
                else:
                    v, a = len(vert_type), 0
                    vert_type.append(t)
                    vert_edges.append([])
                    charted += unmet
                c = m * v + a
                if charted[c]:
                    raise ValueError(f"face_edges: face {f} repeats an element of vertex {v}'s chart")
                charted[c] = 1
                f_vert.append(v)
                f_elem.append(a)
            for letter, t1, t2, rows1, rows2 in steps:
                e = f_edge[x + letter]
                if e >= met:
                    if e != ne:
                        raise ValueError(f"face_edges: edge {e} is not numbered by first appearance")
                    if f_slot[x + letter]:
                        raise ValueError(f"face_slots: edge {e}'s first face {f} is not in slot 0")
                    a, b = f_vert[x + t1], f_vert[x + t2]
                    edge_letter.append(letter)
                    edge_ends += (a, b)
                    edge_rows += (rows1[f_elem[x + t1]], rows2[f_elem[x + t2]])
                    edge_slots += blank
                    edge_slots[k * e] = f
                    vert_edges[a].append(e)
                    vert_edges[b].append(e)
                    ne += 1
            if key <= prev and not unordered:
                unordered = f
            prev = key
        if unordered:
            raise ValueError(f"face_edges: face {unordered} is out of breadth-first order")
        self.dist, self.f_vert, self.f_elem = dist, f_vert, f_elem
        self.final = [d <= self.radius for d in dist]
        self.edge_letter, self.edge_slots, self.edge_ends = edge_letter, edge_slots, edge_ends
        self.vert_type = vert_type
        self.vert_edges = list(chain.from_iterable(vert_edges))
        self.vert_edge_offsets = list(accumulate(map(len, vert_edges), initial=0))

    # -- derived data ------------------------------------------------------

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


DEVELOPMENT_FORMAT = "trifold-development/6"


def trust_margin(spec: TriangleGroupSpec) -> int:
    """1 + delta: a ball is grown, and kept, out to radius + margin - 1 =
    radius + delta (see grower.py)."""
    return 1 + spec.delta


def export_development(dev: Development) -> dict:
    """The ball as its header and its edges and slots, one flat JSON array
    each (see the README for the layout); the lists are the ball's own, not
    copies.  Nothing derived is stored: `margin` is `trust_margin(spec)`,
    and `derive_columns` rebuilds every other column."""
    return {
        "format": DEVELOPMENT_FORMAT,
        "name": dev.spec.name,
        "k": dev.k,
        "radius": dev.radius,
        "face_edges": dev.f_edge,
        "face_slots": dev.f_slot,
    }


def development_to_json(dev: Development) -> str:
    return json.dumps(export_development(dev), sort_keys=True, separators=(",", ":")) + "\n"


def _column(doc: dict, name: str, length: int, high: int) -> list[int]:
    """`doc[name]`, checked to hold `length` JSON integers (no bool or
    string), each in 0..high-1."""
    column = doc[name]
    if not set(map(type, column)) <= {int}:
        raise ValueError(f"{name}: an entry is not an integer")
    if len(column) != length:
        raise ValueError(f"{name} has {len(column)} entries, expected {length}")
    if column and (min(column) < 0 or max(column) >= high):
        raise ValueError(f"{name}: an entry lies outside 0..{high - 1}")
    return column


def import_development(doc: dict, spec: TriangleGroupSpec) -> Development:
    """Rebuild a ball from `export_development`'s document.

    The parsed arrays become the ball's `f_edge` and `f_slot` as they are,
    `margin` is `trust_margin(spec)`, and `derive_columns` derives the rest,
    rejecting edges and slots that are no canonical ball.  A radius that is
    negative or not a JSON integer, face columns that are not 3 JSON
    integers per face, or an edge id or slot out of range is refused before,
    and a farthest face other than at radius + margin - 1, the extent a
    ball is kept to, after: ValueError, so a malformed document never fails
    later inside a suite."""
    if not isinstance(doc, dict):
        raise ValueError("not a development document")
    if doc.get("format") != DEVELOPMENT_FORMAT:
        raise ValueError(
            f"development format {doc.get('format')!r} is not {DEVELOPMENT_FORMAT!r}; "
            f"rebuild the ball"
        )
    radius = doc["radius"]
    if type(radius) is not int:
        raise ValueError(f"radius: {radius!r} is not an integer")
    if radius < 0:
        raise ValueError(f"radius: {radius} is negative")
    dev = Development(spec, radius, trust_margin(spec))
    n = len(doc["face_edges"])
    if n % 3:
        raise ValueError(f"face_edges has {n} entries, not 3 per face")
    dev.f_edge = _column(doc, "face_edges", n, n)
    dev.f_slot = _column(doc, "face_slots", n, dev.k)
    dev.derive_columns()
    extent = dev.radius + dev.margin - 1
    reach = max(dev.dist, default=-1)
    if reach > extent:
        raise ValueError(f"face_edges: a face lies past radius + margin - 1 = {extent}")
    if reach < extent:
        raise ValueError(f"radius: the faces reach distance {reach}, short of radius + margin - 1 = {extent}")
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
