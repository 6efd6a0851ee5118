import json
from dataclasses import dataclass

import pytest

from trifold.development import (
    DevelopmentError,
    GeneratorSymbol,
    InsufficientRadiusError,
    development_to_json,
    embeds_in,
    export_development,
    grow_to_radius,
    import_development,
    init_development,
    symbols_for,
)
from trifold.groups import TriangleGroupSpec
from trifold.samples import dihedral, dihedral_reflections, load_sample

# sphere sizes frozen from the exact-isometry oracle (first computed there)
ORACLE_SPHERES = {
    "d333": [1, 3, 6, 9, 12, 15],
    "d244": [1, 3, 5, 8, 11, 13],
    "d236": [1, 3, 5, 7, 9, 12],
}


def test_symbol_order_and_parse():
    syms = symbols_for(3)
    assert [s.name() for s in syms] == ["a1", "a2", "b1", "b2", "c1", "c2"]
    assert syms == sorted(syms)
    assert GeneratorSymbol.parse("b2", 3) == GeneratorSymbol(1, 2)
    with pytest.raises(ValueError):
        GeneratorSymbol.parse("d1", 3)
    with pytest.raises(ValueError):
        GeneratorSymbol.parse("a3", 3)


def test_init_development_seed_counts():
    grower = init_development(load_sample("d333"))
    assert len(grower.f_alive) == 1
    assert len(grower.e_alive) == 3
    assert len(grower.v_alive) == 3


def test_init_refuses_positive_excess():
    groups = (dihedral(2), dihedral(3), dihedral(4))
    spec = TriangleGroupSpec(
        2, groups, tuple(dihedral_reflections(n) for n in (2, 3, 4)), name="d234"
    )
    with pytest.raises(DevelopmentError, match="excess"):
        init_development(spec)


@pytest.mark.parametrize("name", sorted(ORACLE_SPHERES))
def test_sphere_sizes_match_frozen_oracle_values(name):
    dev = grow_to_radius(load_sample(name), 5)
    assert dev.sphere_sizes == ORACLE_SPHERES[name]


def test_distance_queries(dev333):
    assert dev333.distance(0) == 0
    for s in range(dev333.symbol_count):
        assert dev333.distance(dev333.neighbor(0, s)) == 1
    # the face reached by a then b sits at distance 2
    fa = dev333.neighbor(0, 0)
    fab = dev333.neighbor(fa, 1)
    assert dev333.distance(fab) == 2


def test_neighbors_total_and_involutive(devs):
    for name in ("d333", "f21_333"):
        dev = devs[name]
        k = dev.k
        for f in dev.ball_faces()[:40]:
            nbr = dev.neighbors(f)
            assert len(nbr) == 3 * (k - 1)
            for sym, g in nbr.items():
                back = GeneratorSymbol(sym.letter, k - sym.power)
                assert dev.neighbor(g, back.letter * (k - 1) + back.power - 1) == f


def test_neighbor_on_frontier_raises(dev333):
    frontier = max(range(dev333.face_count), key=lambda f: dev333.dist[f])
    with pytest.raises(InsufficientRadiusError):
        dev333.neighbors(frontier)
    with pytest.raises(InsufficientRadiusError):
        dev333.distance(frontier)


def test_minimal_triangles_contain_base(dev333):
    for t in range(3):
        v = dev333.f_vert[t]
        assert 0 in dev333.minimal_triangles(v)


def test_minimal_triangles_pairwise_adjacent(devs):
    for name in ("d333", "d244", "f21_333"):
        dev = devs[name]
        for v in range(len(dev.vert_type)):
            faces = dev.faces_at_vertex(v)
            if dev.vertex_complete(v) and all(dev.final[f] for f in faces):
                dev.minimal_triangles(v)  # raises on a violation


@pytest.mark.parametrize("name", ["d333", "d244", "d236", "d444", "f21_333"])
def test_interior_vertices_match_full_scan(devs, name):
    dev = devs[name]
    expected = [
        v
        for v in range(len(dev.vert_type))
        if dev.vertex_complete(v) and all(dev.final[f] for f in dev.faces_at_vertex(v))
    ]
    assert expected and dev.interior_vertices() == expected


def test_minimal_triangles_frontier_vertex_raises(dev333):
    frontier_face = max(range(dev333.face_count), key=lambda f: dev333.dist[f])
    v = dev333.f_vert[3 * frontier_face]
    with pytest.raises(InsufficientRadiusError):
        dev333.minimal_triangles(v)


def test_local_distance_decomposition(devs):
    for name in ("d333", "d444"):
        dev = devs[name]
        checked = 0
        for v in range(len(dev.vert_type)):
            faces = dev.faces_at_vertex(v)
            if not dev.vertex_complete(v) or not all(dev.final[f] for f in faces):
                continue
            minimal = set(dev.minimal_triangles(v))
            for f in faces:
                dv = dev.local_distance(v, f)
                if f in minimal:
                    assert dv == 0
                checked += 1
        assert checked > 50


@dataclass
class DirectedDualLink:
    """Face adjacency at a vertex plus its orientation by distance increase."""

    vertex: int
    faces: list[int]
    undirected: list[tuple[int, int]]
    directed: list[tuple[int, int]]
    labels: dict[tuple[int, int], GeneratorSymbol]


def dual_link(dev, v: int) -> DirectedDualLink:
    faces = dev.faces_at_vertex(v)
    if not dev.vertex_complete(v) or not all(dev.final[f] for f in faces):
        raise InsufficientRadiusError(f"vertex {v} has an incomplete or frontier link")
    undirected = []
    labels = {}
    for e in dev.edges_at_vertex(v):
        slots = dev.slots(e)
        letter = dev.edge_letter[e]
        for i in range(dev.k):
            for j in range(dev.k):
                if i != j and slots[i] != -1 and slots[j] != -1:
                    pair = (slots[i], slots[j])
                    labels[pair] = GeneratorSymbol(letter, (j - i) % dev.k)
                    if slots[i] < slots[j]:
                        undirected.append(pair)
    directed = [
        (f1, f2)
        for (f1, f2) in labels
        if dev.dist[f2] == dev.dist[f1] + 1
    ]
    return DirectedDualLink(v, faces, sorted(set(undirected)), sorted(directed), labels)


def test_dual_link_structure(dev333):
    base_vertex = dev333.f_vert[0]
    link = dual_link(dev333, base_vertex)
    group = dev333.spec.vertex_groups[0]
    assert len(link.faces) == group.order
    # undirected reduct is the local link: same degree everywhere
    degree = {f: 0 for f in link.faces}
    for f1, f2 in link.undirected:
        degree[f1] += 1
        degree[f2] += 1
    assert set(degree.values()) == {2 * (dev333.k - 1)}
    # the base face has in-degree zero
    assert all(f2 != 0 for (f1, f2) in link.directed)
    # directed edges equal a recount from raw distances
    recount = [
        (f1, f2)
        for (f1, f2) in link.labels
        if dev333.dist[f2] == dev333.dist[f1] + 1
    ]
    assert sorted(recount) == link.directed


def test_chart_edge_crossing_invariant(devs):
    from trifold.groups import VERTEX_LETTERS

    for name in ("d333", "f21_333"):
        dev = devs[name]
        k = dev.k
        for v in range(0, len(dev.vert_type), 7):
            if not dev.vertex_complete(v):
                continue
            chart = dev.vertex_chart(v)
            vtype = dev.vert_type[v]
            group = dev.spec.vertex_groups[vtype]
            letters = VERTEX_LETTERS[vtype]
            for e in dev.edges_at_vertex(v):
                slots = dev.slots(e)
                gen = dev.spec.designated[vtype][letters.index(dev.edge_letter[e])]
                for i in range(k):
                    for j in range(k):
                        if slots[i] == -1 or slots[j] == -1:
                            continue
                        acc = 0
                        for _ in range((j - i) % k):
                            acc = group.mult[acc][gen]
                        assert chart[slots[j]] == group.mult[chart[slots[i]]][acc]


def test_determinism_byte_identical_rebuild():
    a = development_to_json(grow_to_radius(load_sample("d333"), 3))
    b = development_to_json(grow_to_radius(load_sample("d333"), 3))
    assert a == b
    a = development_to_json(grow_to_radius(load_sample("f21_333"), 2))
    b = development_to_json(grow_to_radius(load_sample("f21_333"), 2))
    assert a == b


def test_monotone_embedding():
    small = grow_to_radius(load_sample("d333"), 3)
    big = grow_to_radius(load_sample("d333"), 4)
    assert embeds_in(small, big)
    small = grow_to_radius(load_sample("f21_333"), 2)
    big = grow_to_radius(load_sample("f21_333"), 3)
    assert embeds_in(small, big)


COLUMNS = (
    "radius", "margin", "dist", "final", "f_edge", "f_slot", "f_vert", "edge_letter",
    "edge_slots", "edge_ends", "vert_type", "vert_edges", "vert_edge_offsets",
    "vert_charts", "vert_chart_offsets",
)


@pytest.fixture(scope="module")
def five_balls(devs):
    # f21_333 on a ball of its own: the shared radius-9 ball is large
    balls = [devs[name] for name in ("d333", "d244", "d236", "d444")]
    return balls + [grow_to_radius(load_sample("f21_333"), 4)]


def _rows(column, width):
    return [column[i:i + width] for i in range(0, len(column), width)]


def _reference_caches(dev):
    """Per face its adjacency, per edge whether it is saturated, and per
    vertex its faces, chart and completeness, by plain loops over the
    columns regrouped into the rows that format 2 stored."""
    f_edge, f_vert = _rows(dev.f_edge, 3), _rows(dev.f_vert, 3)
    edge_slots = _rows(dev.edge_slots, dev.k)
    edge_rows = dev.vert_edge_offsets
    vert_edges = [dev.vert_edges[i:j] for i, j in zip(edge_rows, edge_rows[1:])]
    chart_rows = dev.vert_chart_offsets
    charts = [dev.vert_charts[i:j] for i, j in zip(chart_rows, chart_rows[1:])]
    charts = [dict(zip(c[::2], c[1::2])) for c in charts]
    vert_faces = [[] for _ in dev.vert_type]
    for f in range(dev.face_count):
        for t in range(3):
            vert_faces[f_vert[f][t]].append(f)
    adjacency = []
    for f in range(dev.face_count):
        near = set()
        for letter in range(3):
            near.update(g for g in edge_slots[f_edge[f][letter]] if g not in (-1, f))
        adjacency.append(sorted(near))
    saturated = [-1 not in slots for slots in edge_slots]
    complete = []
    for v, vtype in enumerate(dev.vert_type):
        order = dev.spec.vertex_groups[vtype].order
        complete.append(
            len(vert_faces[v]) == order
            and len(charts[v]) == order
            and all(saturated[e] for e in vert_edges[v])
        )
    return adjacency, saturated, [sorted(faces) for faces in vert_faces], charts, complete


def _derived(dev):
    """What _reference_caches computes, through the ball's accessors."""
    vertices = range(len(dev.vert_type))
    return (
        [dev.adjacent_faces(f) for f in range(dev.face_count)],
        [dev.edge_saturated(e) for e in range(len(dev.edge_letter))],
        [dev.faces_at_vertex(v) for v in vertices],
        [dev.vertex_chart(v) for v in vertices],
        [dev.vertex_complete(v) for v in vertices],
    )


def test_lazy_derivations_equal_plain_loops(five_balls):
    for dev in five_balls:
        assert _derived(dev) == _reference_caches(dev), dev.spec.name


def test_export_import_roundtrip(five_balls):
    for dev in five_balls:
        again = import_development(json.loads(development_to_json(dev)), dev.spec)
        for column in COLUMNS:
            assert getattr(again, column) == getattr(dev, column), (dev.spec.name, column)
        assert again.sphere_sizes == dev.sphere_sizes
        assert _derived(again) == _derived(dev)
        assert _reference_caches(again) == _derived(again)
        assert export_development(again) == export_development(dev)


def test_vertex_charts_are_bijections(devs):
    for name in ("d333", "d236", "f21_333"):
        dev = devs[name]
        for v in range(len(dev.vert_type)):
            if dev.vertex_complete(v):
                group = dev.spec.vertex_groups[dev.vert_type[v]]
                chart = dev.vertex_chart(v)
                assert len(chart) == group.order
                assert sorted(chart.values()) == list(range(group.order))
