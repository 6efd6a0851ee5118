"""Exact combinatorial curvature over angled 2-complexes.

Angles are rational multiples of pi stored as Fractions, so the
Gauss-Bonnet audit is an equality test, never a tolerance test.  Vertex
links are computed as multigraphs from corner incidences, which makes the
curvature formulas valid on branching complexes, not just surfaces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import comb, lcm

from .development import Development

AnglePi = Fraction  # the value q stands for the angle q*pi


class ComplexError(ValueError):
    pass


@dataclass(frozen=True)
class Cell:
    """A 2-cell with its cyclic boundary walk and one corner per stop.

    edges[i] joins vertices[i] and vertices[i+1]; corners[i] sits at
    vertices[i] between edges[i-1] and edges[i].
    """

    vertices: tuple[int, ...]
    edges: tuple[int, ...]
    corners: tuple[AnglePi, ...]

    @property
    def size(self) -> int:
        return len(self.vertices)


class AngledComplex:
    def __init__(self, n_vertices: int, edges: list[tuple[int, int]], cells: list[Cell]):
        self.n_vertices = n_vertices
        self.edges = [tuple(e) for e in edges]
        self.cells = list(cells)
        self._validate()

    def _validate(self) -> None:
        edges = self.edges
        # cells may share one corner tuple, whose signs are then checked once
        checked: set[int] = set()
        for eid, (u, v) in enumerate(edges):
            if u == v:
                raise ComplexError(f"edge {eid} is a loop")
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise ComplexError(f"edge {eid} endpoint out of range")
        for cid, cell in enumerate(self.cells):
            n = cell.size
            if n < 2 or len(cell.edges) != n or len(cell.corners) != n:
                raise ComplexError(f"cell {cid} walk data is ragged")
            walk = cell.vertices
            for i, (eid, a, b) in enumerate(zip(cell.edges, walk, walk[1:] + walk[:1])):
                if not 0 <= eid < len(edges):
                    raise ComplexError(f"cell {cid} edge {i} is {eid}, outside 0..{len(edges) - 1}")
                u, v = edges[eid]
                if not (u == a and v == b or u == b and v == a):
                    raise ComplexError(
                        f"cell {cid} edge {i} does not join consecutive walk vertices"
                    )
            corners = cell.corners
            if id(corners) not in checked:
                if min(corners) < 0:
                    raise ComplexError(f"cell {cid} has a negative corner")
                checked.add(id(corners))

    # -- local structure ---------------------------------------------------

    @cached_property
    def _links(self) -> tuple[list[list[int]], list[list[tuple[int, int]]], list[list[AnglePi]]]:
        """Every vertex's link_graph nodes and arcs and its corners_at, from
        one pass over the edges and one over the cells."""
        nodes: list[list[int]] = [[] for _ in range(self.n_vertices)]
        arcs: list[list[tuple[int, int]]] = [[] for _ in range(self.n_vertices)]
        corners: list[list[AnglePi]] = [[] for _ in range(self.n_vertices)]
        for eid, (u, v) in enumerate(self.edges):
            nodes[u].append(eid)
            nodes[v].append(eid)
        for cell in self.cells:
            edges = cell.edges
            for i, (w, angle) in enumerate(zip(cell.vertices, cell.corners)):
                arcs[w].append((edges[i - 1], edges[i]))
                corners[w].append(angle)
        return nodes, arcs, corners

    def corners_at(self, v: int) -> list[AnglePi]:
        return self._links[2][v]

    def link_graph(self, v: int) -> tuple[list[int], list[tuple[int, int]]]:
        """Link as a multigraph: nodes are edge ends at v, arcs are corners."""
        nodes, arcs, _corners = self._links
        return nodes[v], arcs[v]

    def vertex_curvature(self, v: int) -> AnglePi:
        nodes, arcs, corners = self._links
        return Fraction(2) - (len(nodes[v]) - len(arcs[v])) - sum(corners[v], Fraction(0))

    def vertex_curvatures(self) -> list[AnglePi]:
        return [self.vertex_curvature(v) for v in range(self.n_vertices)]

    def face_curvature(self, cid: int) -> AnglePi:
        cell = self.cells[cid]
        return sum(cell.corners, Fraction(0)) - (cell.size - 2)

    def euler_characteristic(self) -> int:
        return self.n_vertices - len(self.edges) + len(self.cells)

    def gauss_bonnet(self) -> "GaussBonnetVerdict":
        """Total vertex and face curvature against twice the Euler
        characteristic.

        Every corner is scaled by L, the lcm of the corner denominators, so
        the vertex and face terms add up as integers and the total is one
        Fraction(total, L): the exact sum of vertex_curvatures and of every
        face_curvature.

        The identity holds for every complex `_validate` accepts, whatever
        the corners: each corner enters once with a minus sign in its
        vertex's curvature and once with a plus sign in its cell's, so the
        left side is sum over v of (2 - link nodes + link arcs) minus sum
        over cells of (size - 2), which is 2V - 2E + 2F.  An audit built on
        it exercises the complex's construction and validation, not the
        angles.
        """
        # cells may share one corner tuple, which is then scaled once
        distinct = {id(cell.corners): cell.corners for cell in self.cells}
        scale = lcm(*(a.denominator for corners in distinct.values() for a in corners))
        scaled = {}
        for key, corners in distinct.items():
            ints = [a.numerator * (scale // a.denominator) for a in corners]
            scaled[key] = (ints, sum(ints) - (len(ints) - 2) * scale)
        # per vertex, L times (2 - link nodes + link arcs - corners): each
        # edge end is a node, each corner an arc
        vertex = [2 * scale] * self.n_vertices
        for u, v in self.edges:
            vertex[u] -= scale
            vertex[v] -= scale
        faces = 0
        for cell in self.cells:
            ints, face = scaled[id(cell.corners)]
            for w, a in zip(cell.vertices, ints):
                vertex[w] += scale - a
            faces += face
        rhs = Fraction(2 * self.euler_characteristic())
        return GaussBonnetVerdict(Fraction(sum(vertex) + faces, scale), rhs)

    # -- surface structure ---------------------------------------------------

    def edge_face_incidence(self) -> list[int]:
        count = [0] * len(self.edges)
        for cell in self.cells:
            for eid in cell.edges:
                count[eid] += 1
        return count

    def is_connected(self) -> bool:
        return _connected(_adjacency(range(self.n_vertices), self.edges))

    def is_disc(self) -> bool:
        """Connected, every edge in at most two cells, every link a path or a
        cycle, one simple boundary circle, Euler characteristic one."""
        if not self.cells or not self.is_connected():
            return False
        if self.euler_characteristic() != 1:
            return False
        incidence = self.edge_face_incidence()
        if any(c == 0 or c > 2 for c in incidence):
            return False
        boundary = [eid for eid, c in enumerate(incidence) if c == 1]
        if not boundary or not _single_simple_cycle(self, boundary):
            return False
        for nodes, arcs, _corners in zip(*self._links):
            adj = _adjacency(nodes, arcs)
            if any(len(near) > 2 for near in adj.values()) or not _connected(adj):
                return False
        return True


def _single_simple_cycle(y: AngledComplex, edge_ids: list[int]) -> bool:
    # a connected 2-regular graph is one cycle
    pairs = [y.edges[eid] for eid in edge_ids]
    adj = _adjacency({v for pair in pairs for v in pair}, pairs)
    return all(len(near) == 2 for near in adj.values()) and _connected(adj)


def _adjacency(nodes, pairs) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {n: [] for n in nodes}
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _connected(adj: dict[int, list[int]]) -> bool:
    """Whether the graph with these adjacency lists is nonempty and connected."""
    if not adj:
        return False
    start = next(iter(adj))
    seen = {start}
    queue = [start]
    while queue:
        u = queue.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(adj)


@dataclass
class GaussBonnetVerdict:
    lhs: AnglePi  # total curvature, in multiples of pi
    rhs: AnglePi  # 2 * Euler characteristic

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs

    @property
    def discrepancy(self) -> AnglePi:
        return self.lhs - self.rhs

    def __bool__(self):
        return self.ok

    def __str__(self):
        mark = "ok" if self.ok else f"FAIL (off by {self.discrepancy}*pi)"
        return f"total curvature {self.lhs}*pi vs 2*chi = {self.rhs}*pi: {mark}"


# -- patches of the angled complex over the Cayley ball ---------------------------


@dataclass
class PatchReport:
    complex: AngledComplex
    edge_labels: list[int]  # letter per edge
    cell_kinds: list[str]  # "link" or "torsion"
    omitted_cells: int
    vertex_of_cell: list[int]  # development vertex carrying each link cell, -1 for torsion


def build_patch(dev: Development, radius: int) -> PatchReport:
    """The 2-complex over the radius ball: one 2-cell with corners 2pi/3 per
    embedded cycle of every complete vertex link, and one zero-cornered
    triangle per residue triple on every saturated edge for k at least 3.

    Only the vertices and edges of ball faces are visited, and link cycles
    are enumerated inside the ball only.  omitted_cells counts the candidates
    that were enumerated and then rejected: torsion triples on saturated
    edges of ball faces with a member outside the ball.  No link cycle is
    rejected, since two consecutive faces of one share the link node between
    them, an edge at its vertex.
    """
    if radius > dev.radius:
        raise ComplexError("patch radius exceeds the trusted ball")
    # the ball is the prefix 0..n-1 of the face numbering, so ids map to
    # themselves and the ball's corners and edges are the first 3n column entries
    in_ball = dev.ball_faces(radius)
    n = len(in_ball)
    edge_index: dict[tuple[int, int], int] = {}
    edges: list[tuple[int, int]] = []
    labels: list[int] = []

    def cayley_edge(a: int, b: int, letter: int) -> int:
        key = (a, b) if a < b else (b, a)
        eid = edge_index.get(key)
        if eid is None:
            eid = len(edges)
            edge_index[key] = eid
            edges.append(key)
            labels.append(letter)
        return eid

    # ascending ids keep the order of Cayley edges and cells of a full scan
    ball_vertices = sorted(set(dev.f_vert[:3 * n]))
    ball_edges = sorted(set(dev.f_edge[:3 * n]))

    for e in ball_edges:
        slots = [f for f in dev.slots(e) if f in in_ball]
        for i in range(len(slots)):
            for j in range(i + 1, len(slots)):
                cayley_edge(slots[i], slots[j], dev.edge_letter[e])

    cells: list[Cell] = []
    kinds: list[str] = []
    cell_vertex: list[int] = []
    omitted = 0
    # one corner tuple per cell size, shared by the cells of that size
    link_corners: dict[int, tuple[AnglePi, ...]] = {}

    for v in ball_vertices:
        if not dev.vertex_complete(v):
            continue
        for cycle, nodes in _link_cycles(dev, v, in_ball):
            m = len(cycle)
            # faces i - 1 and i of the cycle meet at node i, mod m
            walk_edges = tuple(
                cayley_edge(cycle[i - 1], cycle[i % m], dev.edge_letter[nodes[i % m]])
                for i in range(1, m + 1)
            )
            corners = link_corners.get(m)
            if corners is None:
                corners = link_corners[m] = (Fraction(2, 3),) * m
            cells.append(Cell(tuple(cycle), walk_edges, corners))
            kinds.append("link")
            cell_vertex.append(v)

    if dev.k >= 3:
        triples = _torsion_triples(dev.k)
        zero_corners = (Fraction(0),) * 3
        for e in ball_edges:
            if not dev.edge_saturated(e):
                continue
            slots = dev.slots(e)
            letter = dev.edge_letter[e]
            for (i, j, l) in triples:
                members = (slots[i], slots[j], slots[l])
                if any(f not in in_ball for f in members):
                    omitted += 1
                    continue
                walk_edges = tuple(
                    cayley_edge(members[t], members[(t + 1) % 3], letter)
                    for t in range(3)
                )
                cells.append(Cell(members, walk_edges, zero_corners))
                kinds.append("torsion")
                cell_vertex.append(-1)

    complex_ = AngledComplex(n, edges, cells)
    return PatchReport(complex_, labels, kinds, omitted, cell_vertex)


def _torsion_triples(k: int) -> list[tuple[int, int, int]]:
    base = set()
    for a in range(k):
        for b in range(k):
            triple = (-a % k, -b % k, (a + b) % k)
            if len(set(triple)) == 3:
                for shift in range(k):
                    base.add(tuple(sorted((x + shift) % k for x in triple)))
    return sorted(base)


def _link_cycles(dev: Development, v: int, keep: range) -> list[tuple[list[int], list[int]]]:
    """Embedded cycles of the link at v made of faces in keep, each returned
    as its face cycle and its node cycle: face i lies between nodes i and
    i + 1 (mod the length).

    Nodes of the link are the edges at v, arcs the faces; an embedded node
    cycle of length 2m yields the 2m-gon of faces between consecutive nodes.
    Arcs of faces outside keep are left out of the search, which prunes
    subtrees of its pre-order walk, so the cycles inside keep come out in
    the order a search over the whole link would give them.
    """
    nodes = dev.edges_at_vertex(v)
    faces = dev.faces_at_vertex(v)
    vtype = dev.vert_type[v]
    letters = [l for l in range(3) if vtype in dev.letter_types[l]]
    arc: dict[tuple[int, int], list[int]] = {}
    node_adj: dict[int, list[int]] = {e: [] for e in nodes}
    for f in faces:
        e1 = dev.f_edge[3 * f + letters[0]]
        e2 = dev.f_edge[3 * f + letters[1]]
        key = (e1, e2) if e1 < e2 else (e2, e1)
        arc.setdefault(key, []).append(f)
        if f in keep:
            node_adj[e1].append(e2)
            node_adj[e2].append(e1)
    for key, shared in arc.items():
        if len(shared) > 1:
            raise ComplexError(
                "parallel link arcs found; half-girth below 2 is unsupported"
            )
    # larger neighbours first; with no parallel arcs none is listed twice
    for near in node_adj.values():
        near.sort(reverse=True)
    cycles: list[tuple[list[int], list[int]]] = []

    def extend(path: list[int], on_path: set[int]) -> None:
        # a pre-order walk over the node paths from path[0] through larger
        # nodes; path and on_path are extended in place and restored
        start, near = path[0], node_adj[path[-1]]
        if len(path) >= 3 and start in near and path[1] < path[-1]:
            closed = path + [start]
            face_cycle = []
            for a, b in zip(closed, closed[1:]):
                face_cycle.append(arc[(a, b) if a < b else (b, a)][0])
            cycles.append((face_cycle, list(path)))
        for nxt in near:
            if nxt > start and nxt not in on_path:
                path.append(nxt)
                on_path.add(nxt)
                extend(path, on_path)
                path.pop()
                on_path.remove(nxt)

    for start in sorted(nodes):
        extend([start], {start})
    return cycles


def extract_disc_diagrams(
    patch: PatchReport, count: int, seed: int = 0, max_cells: int = 6
) -> list[AngledComplex]:
    """Randomly grown disc subcomplexes of a patch, for curvature audits."""
    rng = random.Random(seed)
    y = patch.complex
    edge_cells: list[list[int]] = [[] for _ in y.edges]
    for cid, cell in enumerate(y.cells):
        for e in cell.edges:
            edge_cells[e].append(cid)
    # is_disc does not depend on the order of the cells
    disc_memo: dict[tuple[int, ...], bool] = {}

    def is_disc(cells: list[int]) -> bool:
        key = tuple(sorted(cells))
        if key not in disc_memo:
            disc_memo[key] = _subcomplex(y, cells).is_disc()
        return disc_memo[key]

    out: list[AngledComplex] = []
    # every set drawn has 1 to max_cells distinct cells; once each such set
    # has been drawn, every later draw repeats one and adds no disc
    possible = sum(comb(len(y.cells), size) for size in range(1, max_cells + 1))
    drawn: set[tuple[int, ...]] = set()
    attempts = 0
    while y.cells and len(out) < count and attempts < count * 60 and len(drawn) < possible:
        attempts += 1
        chosen = [rng.randrange(len(y.cells))]
        target = rng.randint(1, max_cells)
        while len(chosen) < target:
            near = {c for p in chosen for e in y.cells[p].edges for c in edge_cells[e]}
            fringe = sorted(near.difference(chosen))
            if not fringe:
                break
            cand = chosen + [rng.choice(fringe)]
            if is_disc(cand):
                chosen = cand
            elif rng.random() < 0.5:
                break
        key = tuple(sorted(chosen))
        if key in drawn:
            continue
        drawn.add(key)
        if is_disc(chosen):
            out.append(_subcomplex(y, chosen))
    return out


def _subcomplex(y: AngledComplex, cell_ids: list[int]) -> AngledComplex:
    used_edges = sorted({e for c in cell_ids for e in y.cells[c].edges})
    used_vertices = sorted({v for c in cell_ids for v in y.cells[c].vertices})
    vmap = {v: i for i, v in enumerate(used_vertices)}
    emap = {e: i for i, e in enumerate(used_edges)}
    edges = [(vmap[y.edges[e][0]], vmap[y.edges[e][1]]) for e in used_edges]
    cells = [
        Cell(
            tuple(vmap[v] for v in y.cells[c].vertices),
            tuple(emap[e] for e in y.cells[c].edges),
            y.cells[c].corners,
        )
        for c in cell_ids
    ]
    return AngledComplex(len(used_vertices), edges, cells)


# -- document schema ---------------------------------------------------------------


def complex_to_document(y: AngledComplex) -> dict:
    return {
        "format": "trifold-angled-complex/1",
        "vertices": y.n_vertices,
        "edges": [list(e) for e in y.edges],
        "faces": [
            {
                "vertices": list(c.vertices),
                "edges": list(c.edges),
                "corners": [[a.numerator, a.denominator] for a in c.corners],
            }
            for c in y.cells
        ],
    }


def complex_from_document(doc: dict) -> AngledComplex:
    if doc.get("format") != "trifold-angled-complex/1":
        raise ComplexError("not an angled-complex document")
    cells = [
        Cell(
            _integers(face["vertices"], f"face {i} vertices"),
            _integers(face["edges"], f"face {i} edges"),
            tuple(
                Fraction(n, d)
                for n, d in (_integers(c, f"face {i} corners") for c in face["corners"])
            ),
        )
        for i, face in enumerate(doc["faces"])
    ]
    (n_vertices,) = _integers([doc["vertices"]], "vertices")
    edges = [_integers(e, f"edge {eid}") for eid, e in enumerate(doc["edges"])]
    return AngledComplex(n_vertices, edges, cells)


def _integers(values, field: str) -> tuple[int, ...]:
    """values as a tuple, or ComplexError if one is not a JSON integer: a
    float, a bool or a string is refused, never truncated or parsed."""
    values = tuple(values)
    for x in values:
        if type(x) is not int:
            raise ComplexError(f"{field} holds {x!r}, which is not an integer")
    return values


# -- stock fixtures ------------------------------------------------------------------


def triangle_fixture(corner: AnglePi) -> AngledComplex:
    c = Fraction(corner)
    return AngledComplex(
        3, [(0, 1), (1, 2), (2, 0)], [Cell((0, 1, 2), (0, 1, 2), (c, c, c))]
    )


def polygon_fixture(n: int, corner: AnglePi) -> AngledComplex:
    c = Fraction(corner)
    edges = [(i, (i + 1) % n) for i in range(n)]
    return AngledComplex(n, edges, [Cell(tuple(range(n)), tuple(range(n)), (c,) * n)])


# the corners random_angles draws from: _RANDOM_CORNERS[a][b - 1] is a/b
_RANDOM_CORNERS = tuple(tuple(Fraction(a, b) for b in range(1, 7)) for a in range(7))


def random_angles(y: AngledComplex, rng: random.Random) -> AngledComplex:
    """y with every corner replaced by a random fraction a/b, 0 <= a < 7 and
    1 <= b < 7, drawn cell by cell from rng, a before b."""
    cells = []
    for cell in y.cells:
        corners = tuple(
            _RANDOM_CORNERS[rng.randrange(0, 7)][rng.randrange(1, 7) - 1] for _ in cell.corners
        )
        cells.append(Cell(cell.vertices, cell.edges, corners))
    return AngledComplex(y.n_vertices, list(y.edges), cells)

