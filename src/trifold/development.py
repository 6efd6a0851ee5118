"""The finalized ball of the triangle complex, and its persistence.

Faces of the complex correspond to group elements; the base face is the
identity.  Each edge carries a letter and k face slots indexed mod k, and
crossing from slot i to slot i' multiplies on the right by that letter to the
power i'-i.  Each vertex carries a chart of the faces around it into its
vertex group.  `grower.py` grows a ball by link closure and folding; it is
imported only when a ball is grown, and `_find`, `_Grower`,
`init_development` and `grow_to_radius` still resolve here.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from operator import le

from .groups import LETTERS, LETTER_TYPES, TriangleGroupSpec


class DevelopmentError(RuntimeError):
    """The closure found contradictory chart values; the spec cannot develop."""


class InsufficientRadiusError(ValueError):
    """A query touched frontier data whose distances are not trusted."""


@dataclass(frozen=True, order=True)
class GeneratorSymbol:
    """One generator: a letter with a power in 1..k-1, ordered letter first."""

    letter: int
    power: int

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


_GROWER_NAMES = ("_find", "_Grower", "init_development", "grow_to_radius")


def __getattr__(name: str):
    # the grower is compiled only by the calls that grow a ball
    if name in _GROWER_NAMES:
        from . import grower

        return getattr(grower, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Development:
    """Finalized, immutable ball with canonical breadth-first numbering.

    The columns are flat lists with a fixed number of entries per element:
    face f's edge, slot and vertex for letter or vertex type t are
    f_edge[3*f + t], f_slot[3*f + t] and f_vert[3*f + t]; edge e's k slots
    are edge_slots[k*e:k*e + k] and its ends edge_ends[2*e:2*e + 2].  The
    two ragged vertex columns have an offsets column each: vertex v's edges
    are vert_edges[o[v]:o[v + 1]] for o = vert_edge_offsets, and its chart is
    the (face, element) pairs in vert_charts[c[v]:c[v + 1]] for
    c = vert_chart_offsets.  Face adjacency, the faces at a vertex and the
    chart as a dict are derived for one element when first asked for, then
    kept, so a suite pays only for the part of the ball it visits.

    Faces are numbered breadth first, so `dist` starts at 0 and never
    decreases, and the faces within any radius r form the prefix
    `ball_faces(r)`; `import_development` rejects a column that breaks this.
    Distances are trusted out to `radius`.  `margin` is the grower's: it grew
    the ball to radius + margin and kept the faces out to radius + margin - 1,
    the farthest any reader goes (see `grower.py`), so every face here is at
    most that far from the base face.
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
        self.edge_letter: list[int] = []
        self.edge_slots: list[int] = []
        self.edge_ends: list[int] = []
        self.vert_type: list[int] = []
        self.vert_edges: list[int] = []
        self.vert_edge_offsets: list[int] = [0]
        self.vert_charts: list[int] = []
        self.vert_chart_offsets: list[int] = [0]
        self._adjacency: dict[int, list[int]] = {}
        self._vert_faces: dict[int, list[int]] = {}
        self._charts: dict[int, dict[int, int]] = {}

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
            offsets = self.vert_chart_offsets
            pairs = self.vert_charts[offsets[v]:offsets[v + 1]]
            chart = self._charts[v] = dict(zip(pairs[::2], pairs[1::2]))
        return chart

    def neighbor(self, f: int, symbol: int) -> int | None:
        letter, power = divmod(symbol, self.k - 1)
        x = 3 * f + letter
        k = self.k
        raw = self.edge_slots[k * self.f_edge[x] + (self.f_slot[x] + power + 1) % k]
        return None if raw == -1 else raw

    def neighbors(self, f: int) -> dict[GeneratorSymbol, int]:
        """Total neighbor map on all 3(k-1) symbols; frontier faces fail."""
        out = {}
        for s, sym in enumerate(self.symbols):
            g = self.neighbor(f, s)
            if g is None:
                raise InsufficientRadiusError(
                    f"face {f} has an unsaturated {sym.name()} crossing"
                )
            out[sym] = g
        return out

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
        if len(self.vertex_chart(v)) != order:
            return False
        return all(self.edge_saturated(e) for e in self.edges_at_vertex(v))

    def is_interior(self, f: int) -> bool:
        """All three links complete with every face around them final."""
        for v in self.f_vert[3 * f:3 * f + 3]:
            if not self.vertex_complete(v):
                return False
            if not all(self.final[g] for g in self.faces_at_vertex(v)):
                return False
        return True

    def interior_vertices(self) -> list[int]:
        """Complete vertices whose faces are all final, in ascending order.

        Such a vertex carries a final face, so only the corners of the trusted
        faces, the first 3n entries of f_vert, are candidates."""
        candidates = sorted(set(self.f_vert[:3 * len(self.ball_faces())]))
        return [
            v
            for v in candidates
            if self.vertex_complete(v) and all(self.final[g] for g in self.faces_at_vertex(v))
        ]

    def distance(self, f: int) -> int:
        if not self.final[f]:
            raise InsufficientRadiusError(f"face {f} is outside the trusted ball")
        return self.dist[f]

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
        """Faces at v of minimum distance; checked pairwise adjacent."""
        faces = self.faces_at_vertex(v)
        if not self.vertex_complete(v) or not all(self.final[f] for f in faces):
            raise InsufficientRadiusError(f"vertex {v} has an incomplete or frontier link")
        best = min(self.dist[f] for f in faces)
        minimal = [f for f in faces if self.dist[f] == best]
        for i, f1 in enumerate(minimal):
            for f2 in minimal[i + 1:]:
                if self.shared_edge(f1, f2) is None:
                    raise DevelopmentError(
                        f"minimal faces {f1} and {f2} at vertex {v} are not adjacent"
                    )
        return minimal

    def link_distances(self, v: int, sources: list[int]) -> dict[int, int]:
        """Graph distances inside the face-adjacency link at v."""
        at_v = set(self.faces_at_vertex(v))
        dist = {f: 0 for f in sources}
        queue = list(sources)
        qi = 0
        while qi < len(queue):
            f = queue[qi]
            qi += 1
            for g in self.adjacent_faces(f):
                if g in at_v and g not in dist and self.shared_edge_at_vertex(f, g, v):
                    dist[g] = dist[f] + 1
                    queue.append(g)
        return dist

    def shared_edge_at_vertex(self, f1: int, f2: int, v: int) -> bool:
        e = self.shared_edge(f1, f2)
        return e is not None and v in self.edge_ends[2 * e:2 * e + 2]

    def local_distance(self, v: int, f: int) -> int:
        minimal = self.minimal_triangles(v)
        dists = self.link_distances(v, minimal)
        if f not in dists:
            raise DevelopmentError(f"face {f} unreachable inside the link of {v}")
        dv = dists[f]
        if self.dist[f] != self.dist[minimal[0]] + dv:
            raise DevelopmentError(
                f"distance decomposition fails at vertex {v}, face {f}"
            )
        return dv


# -- serialization ---------------------------------------------------------


DEVELOPMENT_FORMAT = "trifold-development/4"


def trust_margin(spec: TriangleGroupSpec) -> int:
    """1 + delta, how far past its trusted radius a ball is grown (see grower.py)."""
    return 1 + spec.delta


def export_development(dev: Development) -> dict:
    """The ball as one flat JSON array per column (see the README for the
    layout).

    The lists are the ball's own, not copies; `final` is not stored, since it
    is `dist <= radius`."""
    return {
        "format": DEVELOPMENT_FORMAT,
        "name": dev.spec.name,
        "k": dev.k,
        "radius": dev.radius,
        "margin": dev.margin,
        "sphere_sizes": dev.sphere_sizes,
        "dist": dev.dist,
        "face_edges": dev.f_edge,
        "face_slots": dev.f_slot,
        "face_vertices": dev.f_vert,
        "edge_letters": "".join([LETTERS[x] for x in dev.edge_letter]),
        "edge_slots": dev.edge_slots,
        "edge_ends": dev.edge_ends,
        "vertex_types": dev.vert_type,
        "vertex_charts": dev.vert_charts,
        "vertex_chart_offsets": dev.vert_chart_offsets,
        "vertex_edges": dev.vert_edges,
        "vertex_edge_offsets": dev.vert_edge_offsets,
    }


def development_to_json(dev: Development) -> str:
    return json.dumps(export_development(dev), sort_keys=True, separators=(",", ":")) + "\n"


def _column(doc: dict, name: str, length: int | None, low: int, high: int) -> list[int]:
    """`doc[name]`, checked to hold `length` entries (any number if None),
    each in low..high-1."""
    column = doc[name]
    if length is not None and len(column) != length:
        raise ValueError(f"{name} has {len(column)} entries, expected {length}")
    if column and (min(column) < low or max(column) >= high):
        raise ValueError(f"{name}: an entry lies outside {low}..{high - 1}")
    return column


def _ragged(doc: dict, name: str, rows: int, low: int, high: int) -> tuple[list[int], list[int]]:
    """`doc[name]`, checked as by _column, and its offsets column, checked to
    hold rows + 1 ascending entries from 0 to the length of `doc[name]`."""
    data = _column(doc, name, None, low, high)
    offsets_name = f"{name[:-1]}_offsets"
    offsets = _column(doc, offsets_name, rows + 1, 0, len(data) + 1)
    if offsets[0] != 0 or offsets[-1] != len(data) or not all(map(le, offsets, offsets[1:])):
        raise ValueError(
            f"{offsets_name} does not ascend from 0 to {len(data)}, the length of {name}"
        )
    return data, offsets


def import_development(doc: dict, spec: TriangleGroupSpec) -> Development:
    """Rebuild a ball from `export_development`'s document.

    The parsed arrays become the ball's columns as they are.  Column lengths,
    offsets and every id are checked first, each column by its minimum and
    maximum, so a malformed document raises ValueError rather than failing
    later inside a suite; so do a margin other than `trust_margin`, a `dist`
    column that does not start at 0 or that decreases, and a face past
    radius + margin - 1, the extent a ball is kept to."""
    if not isinstance(doc, dict):
        raise ValueError("not a development document")
    if doc.get("format") != DEVELOPMENT_FORMAT:
        raise ValueError(
            f"development format {doc.get('format')!r} is not {DEVELOPMENT_FORMAT!r}; "
            f"rebuild the ball"
        )
    dev = Development(spec, int(doc["radius"]), int(doc["margin"]))
    if dev.margin != trust_margin(spec):
        raise ValueError(f"margin: {dev.margin} is not 1 + delta = {trust_margin(spec)}")
    dist = doc["dist"]
    letters = doc["edge_letters"]
    types = doc["vertex_types"]
    nf, ne, nv, k = len(dist), len(letters), len(types), dev.k
    if dist[:1] != [0] or not all(map(le, dist, dist[1:])):
        raise ValueError("dist: the column does not start at 0 or it decreases")
    extent = dev.radius + dev.margin - 1
    if dist[-1] > extent:
        raise ValueError(f"dist: a face lies past radius + margin - 1 = {extent}")
    if not set(letters) <= set(LETTERS):
        raise ValueError("edge_letters: a letter is not a, b or c")
    if not set(types) <= {0, 1, 2}:
        raise ValueError("vertex_types: a type is not 0, 1 or 2")
    dev.dist = dist
    dev.final = [d <= dev.radius for d in dist]
    dev.f_edge = _column(doc, "face_edges", 3 * nf, 0, ne)
    dev.f_slot = _column(doc, "face_slots", 3 * nf, 0, k)
    dev.f_vert = _column(doc, "face_vertices", 3 * nf, 0, nv)
    dev.edge_letter = list(map(LETTERS.index, letters))
    dev.edge_slots = _column(doc, "edge_slots", k * ne, -1, nf)
    dev.edge_ends = _column(doc, "edge_ends", 2 * ne, 0, nv)
    dev.vert_type = types
    dev.vert_edges, dev.vert_edge_offsets = _ragged(doc, "vertex_edges", nv, 0, ne)
    orders = [g.order for g in spec.vertex_groups]
    charts, offsets = _ragged(doc, "vertex_charts", nv, 0, max(nf, *orders))
    elements = charts[1::2]
    if (
        any(x & 1 for x in offsets)
        or max(charts[::2], default=0) >= nf
        or (
            # below the least group order no element needs its vertex's type
            max(elements, default=0) >= min(orders)
            and any(
                max(elements[i // 2:j // 2], default=0) >= orders[t]
                for t, i, j in zip(types, offsets, offsets[1:])
            )
        )
    ):
        raise ValueError("vertex_charts: a row is not pairs of a face and an element of its vertex group")
    dev.vert_charts, dev.vert_chart_offsets = charts, offsets
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
