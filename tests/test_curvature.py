import random
from fractions import Fraction

import pytest

from trifold.grower import grow_to_radius
from trifold.samples import load_sample
from trifold.curvature import (
    AngledComplex,
    Cell,
    ComplexError,
    PatchReport,
    _subcomplex,
    _torsion_triples,
    build_patch,
    complex_from_document,
    complex_to_document,
    extract_disc_diagrams,
    polygon_fixture,
    random_angles,
    triangle_fixture,
)

from disc_paths import BoundaryPath, DiscDiagram, interior_vertices, ladder_fixture

F = Fraction


def test_vertex_curvature_cases():
    # interior vertex with three 2pi/3 corners is flat
    y = polygon_fixture(6, F(2, 3))
    assert y.vertex_curvature(0) == F(1, 3)  # boundary vertex, one corner
    tri = triangle_fixture(F(0))
    assert tri.vertex_curvature(0) == 1  # zero corner on the boundary
    tri3 = triangle_fixture(F(2, 3))
    assert tri3.vertex_curvature(0) == F(1, 3)


def test_face_curvature_cases():
    assert triangle_fixture(F(0)).face_curvature(0) == -1
    for n in (6, 8, 10):
        y = polygon_fixture(n, F(2, 3))
        assert y.face_curvature(0) == -F(n - 6, 3)
    assert triangle_fixture(F(1, 3)).face_curvature(0) == 0


def test_euler_characteristic_cases():
    assert triangle_fixture(F(1, 3)).euler_characteristic() == 1
    circle = AngledComplex(3, [(0, 1), (1, 2), (2, 0)], [])
    assert circle.euler_characteristic() == 0
    sphere_like = AngledComplex(
        3,
        [(0, 1), (1, 2), (2, 0)],
        [
            Cell((0, 1, 2), (0, 1, 2), (F(1, 3),) * 3),
            Cell((0, 1, 2), (0, 1, 2), (F(2, 3),) * 3),
        ],
    )
    assert sphere_like.euler_characteristic() == 2
    assert sphere_like.gauss_bonnet().ok


def test_gauss_bonnet_trivial_fixtures():
    for y in (triangle_fixture(F(1, 3)), triangle_fixture(F(0)), polygon_fixture(6, F(2, 3))):
        verdict = y.gauss_bonnet()
        assert verdict.ok and verdict.rhs == 2


def test_gauss_bonnet_on_circle_alone():
    circle = AngledComplex(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [])
    verdict = circle.gauss_bonnet()
    assert verdict.ok and verdict.rhs == 0


def test_gauss_bonnet_random_angles_identity():
    rng = random.Random(99)
    base = polygon_fixture(8, F(2, 3))
    for _ in range(25):
        corners = tuple(F(rng.randrange(0, 9), rng.randrange(1, 7)) for _ in range(8))
        y = AngledComplex(8, list(base.edges), [Cell(base.cells[0].vertices, base.cells[0].edges, corners)])
        assert y.gauss_bonnet().ok


def test_path_curvatures():
    diagram, g = ladder_fixture(2)
    y = diagram.complex
    # single-edge subpath has no interior vertices
    sub = DiscDiagram(
        y,
        {
            "e": BoundaryPath(
                diagram.paths[g].vertices[:2], diagram.paths[g].edges[:1]
            ),
            "g": diagram.paths[g],
        },
    )
    assert sub.path_vertex_curvature("e") == 0
    # a flat hexagon contributes no face curvature along its half boundary
    hexa = polygon_fixture(6, F(2, 3))
    half = DiscDiagram(
        hexa, {"g": BoundaryPath([0, 1, 2, 3], [0, 1, 2])}
    )
    assert half.path_face_curvature("g") == 0
    # disjoint paths on one hexagon share no cell only if vertex-disjoint
    two = DiscDiagram(
        hexa,
        {
            "g": BoundaryPath([0, 1], [0]),
            "h": BoundaryPath([3, 4], [3]),
        },
    )
    assert two.shared_face_curvature("g", "h") == hexa.face_curvature(0)


def test_shared_face_curvature_disjoint_and_overlapping():
    # far ends of the three-hexagon ladder share no cell; adjacent subpaths
    # share the triangle between them
    diagram, g = ladder_fixture(3)
    path = diagram.paths[g]
    left = BoundaryPath(path.vertices[:2], path.edges[:1])
    right = BoundaryPath(path.vertices[-2:], path.edges[-1:])
    d = DiscDiagram(diagram.complex, {"l": left, "r": right})
    assert d.shared_face_curvature("l", "r") == 0

    short, g2 = ladder_fixture(2)
    p2 = short.paths[g2]
    a = BoundaryPath(p2.vertices[:2], p2.edges[:1])
    b = BoundaryPath(p2.vertices[2:], p2.edges[2:])
    d2 = DiscDiagram(short.complex, {"a": a, "b": b})
    # only the middle triangle meets both, and its curvature is -pi
    assert d2.shared_face_curvature("a", "b") == -1


def test_census_hand_counts():
    diagram, g = ladder_fixture(2)
    census = diagram.census(g)
    assert census.polygon_counts == {(6, 1): 2}
    assert census.triangle_count == 1
    assert census.ladder_bound_holds

    diagram, g = ladder_fixture(3)
    census = diagram.census(g)
    assert census.polygon_counts == {(6, 1): 2, (6, 2): 1}
    assert census.triangle_count == 2
    assert census.ladder_bound_holds


def test_census_single_hexagon():
    hexa = polygon_fixture(6, F(2, 3))
    d = DiscDiagram(hexa, {"g": BoundaryPath([0, 1], [0])})
    census = d.census("g")
    assert census.polygon_counts == {(6, 0): 1}
    assert census.triangle_count == 0


def _hexagon_with_corners(corners):
    edges = [(i, (i + 1) % 6) for i in range(6)]
    return AngledComplex(6, edges, [Cell(tuple(range(6)), tuple(range(6)), corners)])


def test_positive_curvature_classification():
    # exactly two positively curved path vertices reach the n/2 - 1 maximum
    path = BoundaryPath([0, 1, 2, 3], [0, 1, 2])
    two = _hexagon_with_corners((F(1), F(2, 3), F(2, 3), F(1), F(1), F(1)))
    d = DiscDiagram(two, {"g": path})
    assert [v for v in range(6) if two.vertex_curvature(v) > 0] == [1, 2]
    assert d.classify_positive_curvature("g", 0) == "max"
    one = _hexagon_with_corners((F(1), F(2, 3), F(1), F(1), F(1), F(1)))
    assert DiscDiagram(one, {"g": path}).classify_positive_curvature("g", 0) == "almost-max"
    none = _hexagon_with_corners((F(1),) * 6)
    assert DiscDiagram(none, {"g": path}).classify_positive_curvature("g", 0) == "neither"


def test_classification_octagon_with_two_triangles():
    # octagon flanked by two path-adjacent triangles: threshold is 4
    verts = list(range(10))
    edges = []
    eidx = {}

    def eid(a, b):
        key = (min(a, b), max(a, b))
        if key not in eidx:
            eidx[key] = len(edges)
            edges.append(key)
        return eidx[key]

    octagon = Cell(
        (0, 1, 2, 3, 8, 9, 7, 6),
        tuple(
            eid(a, b)
            for a, b in [(0, 1), (1, 2), (2, 3), (3, 8), (8, 9), (9, 7), (7, 6), (6, 0)]
        ),
        (F(2, 3),) * 8,
    )
    tri_l = Cell((4, 0, 6), (eid(4, 0), eid(0, 6), eid(6, 4)), (F(0),) * 3)
    tri_r = Cell((3, 5, 8), (eid(3, 5), eid(5, 8), eid(8, 3)), (F(0),) * 3)
    y = AngledComplex(10, edges, [octagon, tri_l, tri_r])
    path = BoundaryPath([4, 0, 1, 2, 3, 5], [eid(4, 0), eid(0, 1), eid(1, 2), eid(2, 3), eid(3, 5)])
    d = DiscDiagram(y, {"g": path})
    census = d.census("g")
    assert census.polygon_counts == {(8, 2): 1}
    assert census.triangle_count == 2
    positive = sum(
        1 for v in octagon.vertices if v in set(path.vertices) and y.vertex_curvature(v) > 0
    )
    assert positive == 4  # threshold n/2 with two path-adjacent triangles
    assert d.classify_positive_curvature("g", 0) == "max"

    # flattening one corner drops to three positive vertices: almost maximal
    flat = Cell(octagon.vertices, octagon.edges,
                (F(2, 3), F(1), F(2, 3), F(2, 3), F(2, 3), F(2, 3), F(2, 3), F(2, 3)))
    y2 = AngledComplex(10, edges, [flat, tri_l, tri_r])
    d2 = DiscDiagram(y2, {"g": path})
    assert d2.classify_positive_curvature("g", 0) == "almost-max"


def test_additivity_inclusion_exclusion():
    diagram, g = ladder_fixture(3)
    path = diagram.paths[g]
    a = BoundaryPath(path.vertices[:3], path.edges[:2])
    b = BoundaryPath(path.vertices[2:], path.edges[2:])
    d = DiscDiagram(diagram.complex, {"a": a, "b": b})
    union_vertices = set(a.vertices) | set(b.vertices)
    total = sum(
        (
            d.complex.face_curvature(c)
            for c, cell in enumerate(d.complex.cells)
            if union_vertices.intersection(cell.vertices)
        ),
        F(0),
    )
    assert (
        d.path_face_curvature("a")
        + d.path_face_curvature("b")
        - d.shared_face_curvature("a", "b")
        == total
    )


def test_patch_k2_has_no_torsion_triangles(dev333):
    patch = build_patch(dev333, 4)
    assert set(patch.cell_kinds) == {"link"}
    assert all(cell.size == 6 for cell in patch.complex.cells)
    assert all(c == F(2, 3) for cell in patch.complex.cells for c in cell.corners)


def test_patch_k3_torsion_policy(devs):
    dev = devs["f21_333"]
    patch = build_patch(dev, 3)
    kinds = set(patch.cell_kinds)
    assert kinds == {"link", "torsion"}
    for cell, kind in zip(patch.complex.cells, patch.cell_kinds):
        if kind == "torsion":
            assert cell.size == 3 and set(cell.corners) == {F(0)}
        else:
            assert cell.size >= 6 and set(cell.corners) == {F(2, 3)}


def test_patch_cells_at_least_hexagons_when_girth_allows(devs):
    for name in ("d333", "d444", "f21_333"):
        patch = build_patch(devs[name], 3)
        for cell, kind in zip(patch.complex.cells, patch.cell_kinds):
            if kind == "link":
                assert cell.size >= 6


def test_patch_half_girth_two_has_square_cells(devs):
    patch = build_patch(devs["d244"], 3)
    sizes = {cell.size for cell in patch.complex.cells}
    assert 4 in sizes  # the 4-cycle links of the order-4 vertex group


def test_disc_extraction_and_exact_identity(dev333):
    patch = build_patch(dev333, 5)
    discs = extract_disc_diagrams(patch, 25, seed=5, max_cells=6)
    assert len(discs) >= 10
    for disc in discs:
        assert disc.is_disc()
        assert disc.gauss_bonnet().ok


def _scan_link_graph(y, v):
    """v's link nodes and arcs, from a scan of every edge and every cell."""
    nodes = [eid for eid, e in enumerate(y.edges) if v in e]
    arcs = [
        (cell.edges[(i - 1) % cell.size], cell.edges[i])
        for cell in y.cells
        for i, w in enumerate(cell.vertices)
        if w == v
    ]
    return nodes, arcs


def _scan_corners_and_curvature(y, v):
    nodes, arcs = _scan_link_graph(y, v)
    corners = [cell.corners[i] for cell in y.cells for i, w in enumerate(cell.vertices) if w == v]
    return corners, F(2) - (len(nodes) - len(arcs)) - sum(corners, F(0))


def test_one_pass_links_match_per_vertex_scans(devs):
    """The links and curvatures of every vertex from one pass equal the
    per-vertex scans, on fixtures, patches, discs and random angles."""
    rng = random.Random(7)
    complexes = [
        triangle_fixture(F(1, 3)), triangle_fixture(F(0)), polygon_fixture(6, F(2, 3)),
        ladder_fixture()[0].complex,
    ]
    for name in ("d333", "d244", "f21_333"):
        patch = build_patch(devs[name], 3)
        discs = extract_disc_diagrams(patch, 20, seed=11, max_cells=6)
        complexes += [patch.complex, *discs, *(random_angles(d, rng) for d in discs)]
    for y in complexes:
        for v in range(y.n_vertices):
            assert y.link_graph(v) == _scan_link_graph(y, v)
            assert (y.corners_at(v), y.vertex_curvature(v)) == _scan_corners_and_curvature(y, v)
        scanned = [_scan_corners_and_curvature(y, v)[1] for v in range(y.n_vertices)]
        assert y.vertex_curvatures() == scanned


def test_interior_vertices_nonpositive_in_reduced_discs(devs):
    # with all half-girths at least 3, an interior vertex of a reduced disc
    # carries at least three corners, hence curvature at most zero
    for name in ("d333", "d444"):
        patch = build_patch(devs[name], 4)
        discs = extract_disc_diagrams(patch, 20, seed=31, max_cells=7)
        for disc in discs:
            for v in interior_vertices(disc):
                _nodes, arcs = disc.link_graph(v)
                if len(set(arcs)) == len(arcs):  # no doubled corner pair
                    assert disc.vertex_curvature(v) <= 0


def test_document_roundtrip():
    diagram, _ = ladder_fixture(2)
    doc = complex_to_document(diagram.complex)
    again = complex_from_document(doc)
    assert again.gauss_bonnet().ok
    assert again.euler_characteristic() == diagram.complex.euler_characteristic()
    assert [c.corners for c in again.cells] == [c.corners for c in diagram.complex.cells]


def test_validation_errors():
    with pytest.raises(ComplexError, match="loop"):
        AngledComplex(2, [(0, 0)], [])
    with pytest.raises(ComplexError, match="negative"):
        triangle_fixture(F(-1, 3))
    with pytest.raises(ComplexError, match="consecutive"):
        AngledComplex(
            3,
            [(0, 1), (1, 2), (2, 0)],
            [Cell((0, 1, 2), (1, 2, 0), (F(0),) * 3)],
        )
    # a cell naming an edge the complex does not have, past either end
    for eid in (5, -1):
        with pytest.raises(ComplexError, match=f"cell 0 edge 0 is {eid}, outside 0..0"):
            AngledComplex(2, [(0, 1)], [Cell((0, 1), (eid, 0), (F(0),) * 2)])


# -- the full scans that build_patch and extract_disc_diagrams replaced -------------


def _full_scan_link_cycles(dev, v):
    """Every embedded cycle of the link at v, ball or not."""
    faces = dev.faces_at_vertex(v)
    letters = [l for l in range(3) if dev.vert_type[v] in dev.letter_types[l]]
    arc = {}
    node_adj = {e: [] for e in dev.edges_at_vertex(v)}
    for f in faces:
        e1, e2 = dev.f_edge[3 * f + letters[0]], dev.f_edge[3 * f + letters[1]]
        arc[(min(e1, e2), max(e1, e2))] = f
        node_adj[e1].append(e2)
        node_adj[e2].append(e1)
    cycles = []
    for start in sorted(dev.edges_at_vertex(v)):
        stack = [(start, [start], {start})]
        while stack:
            node, path, seen = stack.pop()
            for nxt in sorted(set(node_adj[node])):
                if nxt == start and len(path) >= 3:
                    if path[1] < path[-1]:
                        closed = path + [start]
                        cycles.append(
                            [arc[(min(a, b), max(a, b))] for a, b in zip(closed, closed[1:])]
                        )
                elif nxt > start and nxt not in seen:
                    stack.append((nxt, path + [nxt], seen | {nxt}))
    return cycles


def _full_scan_patch(dev, radius):
    """build_patch as a scan over every vertex and edge of the whole ball,
    dropping the link cycles and torsion triples that leave the patch."""
    ball = [f for f in dev.ball_faces() if dev.dist[f] <= radius]
    in_ball = set(ball)
    edge_index, edges, labels = {}, [], []

    def cayley_edge(a, b, letter):
        key = (min(a, b), max(a, b))
        if key not in edge_index:
            edge_index[key] = len(edges)
            edges.append(key)
            labels.append(letter)
        return edge_index[key]

    for e in range(len(dev.edge_letter)):
        slots = [f for f in dev.slots(e) if f != -1 and f in in_ball]
        for i in range(len(slots)):
            for j in range(i + 1, len(slots)):
                cayley_edge(slots[i], slots[j], dev.edge_letter[e])
    cells, kinds, cell_vertex = [], [], []
    for v in range(len(dev.vert_type)):
        if not dev.vertex_complete(v):
            continue
        for cycle in _full_scan_link_cycles(dev, v):
            if any(f not in in_ball for f in cycle):
                continue
            m = len(cycle)
            shared = [dev.shared_edge(cycle[i], cycle[(i + 1) % m]) for i in range(m)]
            if None in shared:
                continue
            walk = tuple(
                cayley_edge(cycle[i], cycle[(i + 1) % m], dev.edge_letter[shared[i]])
                for i in range(m)
            )
            cells.append(Cell(tuple(cycle), walk, (F(2, 3),) * m))
            kinds.append("link")
            cell_vertex.append(v)
    if dev.k >= 3:
        for e in range(len(dev.edge_letter)):
            if not dev.edge_saturated(e):
                continue
            slots = dev.slots(e)
            for (i, j, l) in _torsion_triples(dev.k):
                members = (slots[i], slots[j], slots[l])
                if any(f not in in_ball for f in members):
                    continue
                walk = tuple(
                    cayley_edge(members[t], members[(t + 1) % 3], dev.edge_letter[e])
                    for t in range(3)
                )
                cells.append(Cell(members, walk, (F(0),) * 3))
                kinds.append("torsion")
                cell_vertex.append(-1)
    return PatchReport(AngledComplex(len(ball), edges, cells), labels, kinds, 0, cell_vertex)


def _full_scan_discs(patch, count, seed, max_cells):
    """extract_disc_diagrams with the fringe taken over every cell, no memo,
    and no stop once every set of at most max_cells cells has been drawn."""
    rng = random.Random(seed)
    y = patch.complex
    cell_edges = [set(c.edges) for c in y.cells]
    out, seen_choices, attempts = [], set(), 0
    while len(out) < count and attempts < count * 60:
        attempts += 1
        chosen = [rng.randrange(len(y.cells))]
        target = rng.randint(1, max_cells)
        while len(chosen) < target:
            fringe = [
                c
                for c in range(len(y.cells))
                if c not in chosen and any(cell_edges[c] & cell_edges[p] for p in chosen)
            ]
            if not fringe:
                break
            cand = chosen + [rng.choice(fringe)]
            if _subcomplex(y, cand).is_disc():
                chosen = cand
            elif rng.random() < 0.5:
                break
        key = tuple(sorted(chosen))
        if key in seen_choices:
            continue
        sub = _subcomplex(y, chosen)
        if sub.is_disc():
            seen_choices.add(key)
            out.append(sub)
    return out


def _patch_fields(patch):
    y = patch.complex
    return (y.n_vertices, y.edges, y.cells, patch.edge_labels, patch.cell_kinds,
            patch.vertex_of_cell)


def _disc_fields(discs):
    return [(d.n_vertices, d.edges, d.cells) for d in discs]


@pytest.mark.parametrize("name", ["d333", "d244", "d236", "d444", "f21_333"])
def test_patch_and_discs_match_full_scan(devs, name):
    # the f21_333 session ball (radius 9) takes minutes to scan in full
    dev = grow_to_radius(load_sample(name), 4) if name == "f21_333" else devs[name]
    for radius in range(1, 6):
        if radius > dev.radius:
            break
        patch = build_patch(dev, radius)
        assert _patch_fields(patch) == _patch_fields(_full_scan_patch(dev, radius))
        if patch.complex.cells:
            assert _disc_fields(extract_disc_diagrams(patch, 30, seed=20259)) == _disc_fields(
                _full_scan_discs(patch, 30, seed=20259, max_cells=6)
            )


# -- the Fraction kernels that gauss_bonnet and random_angles replaced ------------


def _fraction_gauss_bonnet(y):
    """gauss_bonnet's two sides as Fraction sums over vertex_curvatures and
    every face_curvature."""
    lhs = sum(y.vertex_curvatures(), F(0))
    lhs += sum((y.face_curvature(c) for c in range(len(y.cells))), F(0))
    return lhs, F(2 * y.euler_characteristic())


def _fraction_random_angles(y, rng):
    """random_angles drawing each corner as Fraction(a, b)."""
    cells = [
        Cell(c.vertices, c.edges, tuple(F(rng.randrange(0, 7), rng.randrange(1, 7)) for _ in c.corners))
        for c in y.cells
    ]
    return AngledComplex(y.n_vertices, list(y.edges), cells)


@pytest.mark.parametrize("name", ["d333", "d244", "d236", "d444", "f21_333"])
def test_integer_gauss_bonnet_and_angle_table_match_fractions(devs, name):
    """On the gaussbonnet suite's complexes (fixtures, the patch at radius
    min(r, 4), its discs and their random_angles copies), the integer sum
    gives the Fraction sum's verdict, and random_angles draws the Fraction
    reference's corners with the same draws."""
    dev = devs[name]
    patch = build_patch(dev, min(dev.radius, 4))
    discs = extract_disc_diagrams(patch, 30, seed=20259, max_cells=6)
    complexes = [
        triangle_fixture(F(1, 3)), triangle_fixture(F(0)), polygon_fixture(6, F(2, 3)),
        ladder_fixture()[0].complex, patch.complex, *discs,
    ]
    rng, reference_rng = random.Random(414243), random.Random(414243)
    for disc in discs:
        for _ in range(3):
            got = random_angles(disc, rng)
            assert got.cells == _fraction_random_angles(disc, reference_rng).cells
            complexes.append(got)
    assert rng.getstate() == reference_rng.getstate()
    for y in complexes:
        verdict = y.gauss_bonnet()
        assert (verdict.lhs, verdict.rhs) == _fraction_gauss_bonnet(y)
        assert verdict.ok
    # denominators 1 to 6 over shared and unshared corner tuples
    assert {a.denominator for y in complexes for c in y.cells for a in c.corners} >= {1, 2, 3, 5}

