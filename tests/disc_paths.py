"""Disc diagrams with marked boundary paths, and the counting the paper does
along such a path: path curvatures, the census of g-cells (the cells that
meet the path in an edge), the ladder bound, and the max / almost-max
classification of positively curved path vertices.

No command builds a disc diagram with a marked path yet, so this machinery
lives beside the tests that exercise it on the hand-built `ladder_fixture`.
So does `link_eccentricities`, the eccentricity of every node of a local
link, which only a test reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from trifold.curvature import AnglePi, AngledComplex, Cell, ComplexError
from trifold.groups import LocalLink, _bfs_eccentricity


def boundary_edges(y: AngledComplex) -> list[int]:
    return [eid for eid, c in enumerate(y.edge_face_incidence()) if c == 1]


def interior_vertices(y: AngledComplex) -> list[int]:
    boundary_v = set()
    for eid in boundary_edges(y):
        boundary_v.update(y.edges[eid])
    return [v for v in range(y.n_vertices) if v not in boundary_v]


# -- disc diagrams with marked boundary paths -----------------------------------


@dataclass
class BoundaryPath:
    """A subpath of the boundary: consecutive vertices and the edges between."""

    vertices: list[int]
    edges: list[int]

    @property
    def interior_vertices(self) -> list[int]:
        return self.vertices[1:-1]


class DiscDiagram:
    def __init__(self, complex_: AngledComplex, paths: dict[str, BoundaryPath] | None = None):
        if not complex_.is_disc():
            raise ComplexError("complex is not a disc")
        self.complex = complex_
        self.paths = dict(paths or {})
        boundary = set(boundary_edges(complex_))
        for name, path in self.paths.items():
            if len(path.edges) != len(path.vertices) - 1:
                raise ComplexError(f"path {name} is ragged")
            for i, eid in enumerate(path.edges):
                if eid not in boundary:
                    raise ComplexError(f"path {name} leaves the boundary")
                if set(complex_.edges[eid]) != {path.vertices[i], path.vertices[i + 1]}:
                    raise ComplexError(f"path {name} edges disagree with its vertices")

    def path_vertex_curvature(self, name: str) -> AnglePi:
        path = self.paths[name]
        return sum(
            (self.complex.vertex_curvature(v) for v in path.interior_vertices),
            Fraction(0),
        )

    def _cells_meeting(self, vertex_set: set[int]) -> list[int]:
        return [
            cid
            for cid, cell in enumerate(self.complex.cells)
            if vertex_set.intersection(cell.vertices)
        ]

    def path_face_curvature(self, name: str) -> AnglePi:
        cells = self._cells_meeting(set(self.paths[name].vertices))
        return sum((self.complex.face_curvature(c) for c in cells), Fraction(0))

    def shared_face_curvature(self, name_a: str, name_b: str) -> AnglePi:
        sa = set(self.paths[name_a].vertices)
        sb = set(self.paths[name_b].vertices)
        cells = [c for c in self._cells_meeting(sa) if sb.intersection(self.complex.cells[c].vertices)]
        return sum((self.complex.face_curvature(c) for c in cells), Fraction(0))

    # -- census of cells along a marked path --------------------------------

    def g_cells(self, name: str) -> list[int]:
        """Cells meeting the path in at least one edge."""
        path_edges = set(self.paths[name].edges)
        return [
            cid
            for cid, cell in enumerate(self.complex.cells)
            if path_edges.intersection(cell.edges)
        ]

    def _path_triangles(self, name: str) -> tuple[int, dict[int, int]]:
        """The number of triangles among the path's g_cells, and for each
        other g_cell how many of those triangles share a path vertex with it."""
        path_vertices = set(self.paths[name].vertices)
        cells = self.complex.cells
        on_path = self.g_cells(name)
        triangles = [c for c in on_path if cells[c].size == 3]
        adjacency = {}
        for cid in on_path:
            if cells[cid].size != 3:
                mine = path_vertices.intersection(cells[cid].vertices)
                adjacency[cid] = sum(1 for t in triangles if mine.intersection(cells[t].vertices))
        return len(triangles), adjacency

    def census(self, name: str) -> "GCellCensus":
        triangle_count, adjacency = self._path_triangles(name)
        counts: dict[tuple[int, int], int] = {}
        for cid, j in adjacency.items():
            key = (self.complex.cells[cid].size, j)
            counts[key] = counts.get(key, 0) + 1
        return GCellCensus(counts, triangle_count)

    def classify_positive_curvature(self, name: str, cid: int) -> str:
        """max / almost-max / neither, against the thresholds that depend on
        how many path-adjacent triangles the cell carries."""
        cell = self.complex.cells[cid]
        _triangles, adjacency = self._path_triangles(name)
        if cell.size < 6 or cid not in adjacency:
            raise ComplexError("classification applies to non-triangle cells on the path")
        j = adjacency[cid]
        path_vertices = set(self.paths[name].vertices)
        threshold = cell.size // 2 - 1 if j <= 1 else cell.size // 2
        positive = sum(
            1
            for v in cell.vertices
            if v in path_vertices and self.complex.vertex_curvature(v) > 0
        )
        if positive == threshold:
            return "max"
        if positive == threshold - 1:
            return "almost-max"
        return "neither"


@dataclass
class GCellCensus:
    polygon_counts: dict[tuple[int, int], int]  # (size, adjacent triangles) -> count
    triangle_count: int

    def count(self, size: int, j: int) -> int:
        return self.polygon_counts.get((size, j), 0)

    @property
    def ladder_bound_holds(self) -> bool:
        """Triangle count must cover half the polygon adjacencies in a
        reduced diagram."""
        need = Fraction(0)
        for (_, j), m in self.polygon_counts.items():
            if j == 1:
                need += Fraction(m, 2)
            elif j == 2:
                need += Fraction(m)
        return Fraction(self.triangle_count) >= need


def ladder_fixture(hexagons: int = 3) -> tuple[DiscDiagram, str]:
    """Hexagons alternating with triangles along one boundary path.

    Each hexagon carries one bottom edge of the path, each triangle fills the
    gap between consecutive hexagons and also sits on the path.  Hexagons get
    2pi/3 corners and triangles zero corners, matching the attached complex.
    """
    if hexagons < 2:
        raise ComplexError("the ladder needs at least two hexagons")
    two_thirds = Fraction(2, 3)
    zero = Fraction(0)
    vertices: list[str] = []
    index: dict[str, int] = {}

    def vid(name: str) -> int:
        if name not in index:
            index[name] = len(vertices)
            vertices.append(name)
        return index[name]

    edges: list[tuple[int, int]] = []
    edge_index: dict[tuple[int, int], int] = {}

    def eid(a: int, b: int) -> int:
        key = (a, b) if a < b else (b, a)
        if key not in edge_index:
            edge_index[key] = len(edges)
            edges.append(key)
        return edge_index[key]

    h = hexagons
    bottom = [vid(f"v{i}") for i in range(2 * h)]
    cells: list[Cell] = []
    for i in range(h):
        left, right = bottom[2 * i], bottom[2 * i + 1]
        if i == 0:
            walk = [left, right, vid("x1"), vid("c2"), vid("c1"), vid("c0")]
        elif i == h - 1:
            walk = [left, right, vid(f"e{i}2"), vid(f"e{i}1"), vid(f"e{i}0"), vid(f"x{i}")]
        else:
            walk = [left, right, vid(f"x{i+1}"), vid(f"t{i}2"), vid(f"t{i}1"), vid(f"x{i}")]
        walk_edges = tuple(eid(walk[j], walk[(j + 1) % 6]) for j in range(6))
        cells.append(Cell(tuple(walk), walk_edges, (two_thirds,) * 6))
    for i in range(h - 1):
        walk = [bottom[2 * i + 1], bottom[2 * i + 2], vid(f"x{i+1}")]
        walk_edges = tuple(eid(walk[j], walk[(j + 1) % 3]) for j in range(3))
        cells.append(Cell(tuple(walk), walk_edges, (zero,) * 3))

    y = AngledComplex(len(vertices), edges, cells)
    path = BoundaryPath(
        vertices=list(bottom),
        edges=[eid(bottom[i], bottom[i + 1]) for i in range(2 * h - 1)],
    )
    return DiscDiagram(y, {"g": path}), "g"


# -- local links ---------------------------------------------------------------


def link_eccentricities(link: LocalLink) -> list[int]:
    return [_bfs_eccentricity(link.neighbors, v) for v in range(link.order)]
