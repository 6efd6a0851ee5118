import functools
import hashlib
import json
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import pytest

from trifold.automata import (
    _geodesic_machine_once,
    build_geodesic_automaton,
    build_lexfirst_automaton,
    fellow_traveller_check,
)
from trifold.curvature import build_patch
from trifold.development import (
    Development,
    DevelopmentError,
    GeneratorSymbol,
    InsufficientRadiusError,
    VerificationError,
    development_to_json,
    embeds_in,
    export_development,
    import_development,
    symbols_for,
)
from trifold.groups import (
    LETTER_TYPES,
    VERTEX_LETTERS,
    TriangleGroupSpec,
    group_from_permutations,
    npc_check,
)
from trifold.grower import _Grower, grow_to_radius, init_development
from trifold.oracle import source_geodesics
from trifold.samples import (
    dihedral,
    dihedral_reflections,
    frobenius21,
    frobenius21_generators,
    load_sample,
)

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
    assert len(grower.f_prov) == 1
    assert len(grower.e_letter) == 3
    assert len(grower.v_type) == 3


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


def _series_product(a, b, n):
    return [sum(a[i] * b[k - i] for i in range(k + 1) if i < len(a) and k - i < len(b))
            for k in range(n)]


def _series_inverse(a, n):
    """The first n coefficients of 1 / a, for a[0] nonzero."""
    out = []
    for k in range(n):
        known = sum(a[i] * out[k - i] for i in range(1, min(k, len(a) - 1) + 1))
        out.append((Fraction(int(k == 0)) - known) / a[0])
    return out


def steinberg_growth(orders, n):
    """The first n coefficients of the growth series W(t) of the Coxeter
    triangle group whose vertex groups are dihedral of the given orders 2m.

    Steinberg's formula, 1 / W(1/t) = sum over T with W_T finite of
    (-1)^|T| / W_T(t), with W_T(1/t) = t^-N W_T(t) for the length N of W_T's
    longest element, gives 1 / W(t) = sum of (-1)^|T| t^N / W_T(t): 1 for the
    empty set, t / (1 + t) for each letter and, for each vertex group,
    t^m / ((1 + t)(1 + ... + t^(m-1))).
    """
    letter = _series_product([0, 1], _series_inverse([1, 1], n), n)
    inverse = [Fraction(int(k == 0)) - 3 * c for k, c in enumerate(letter)]
    for order in orders:
        m = order // 2
        poincare = _series_product([1, 1], [1] * m, n)
        vertex = _series_product([0] * m + [1], _series_inverse(poincare, n), n)
        inverse = [x + y for x, y in zip(inverse, vertex)]
    return _series_inverse(inverse, n)


def test_steinberg_growth_pinned():
    assert steinberg_growth([8, 8, 8], 12) == [1, 3, 6, 12, 21, 36, 63, 108, 186, 321, 552, 951]
    assert steinberg_growth([6, 6, 6], 6) == ORACLE_SPHERES["d333"]


@pytest.mark.parametrize("name", ["d333", "d244", "d236", "d444"])
def test_sphere_sizes_match_steinberg_growth(devs, name):
    # the four Coxeter samples: vertex groups dihedral, letters reflections
    dev = devs[name]
    orders = [group.order for group in dev.spec.vertex_groups]
    assert dev.spec.k == 2 and orders == [2 * r for r in dev.half_girths]
    assert dev.sphere_sizes == steinberg_growth(orders, dev.radius + 1)


@pytest.mark.parametrize("name", ["d333", "d244", "d236", "d444", "f21_333"])
def test_ball_faces_match_whole_ball_filter(devs, name):
    dev = devs[name]
    for radius in range(dev.radius + 2):
        expected = [f for f in range(dev.face_count) if dev.final[f] and dev.dist[f] <= radius]
        assert list(dev.ball_faces(radius)) == expected, radius
    assert list(dev.ball_faces()) == [f for f in range(dev.face_count) if dev.final[f]]
    sizes = [0] * (dev.radius + 1)
    for f in range(dev.face_count):
        if dev.final[f]:
            sizes[dev.dist[f]] += 1
    assert dev.sphere_sizes == sizes


def test_distance_queries(dev333):
    assert dev333.dist[0] == 0
    for s in range(dev333.symbol_count):
        assert dev333.dist[dev333.neighbor(0, s)] == 1
    # the face reached by a then b sits at distance 2
    fa = dev333.neighbor(0, 0)
    fab = dev333.neighbor(fa, 1)
    assert dev333.dist[fab] == 2


def test_neighbors_total_and_involutive(devs):
    for name in ("d333", "f21_333"):
        dev = devs[name]
        k = dev.k
        for f in dev.ball_faces()[:40]:
            for s, sym in enumerate(dev.symbols):
                g = dev.neighbor(f, s)
                assert g is not None
                back = GeneratorSymbol(sym.letter, k - sym.power)
                assert dev.neighbor(g, back.letter * (k - 1) + back.power - 1) == f
        # a face at the stored extent has a crossing whose face is not stored
        frontier = dev.face_count - 1
        assert None in [dev.neighbor(frontier, s) for s in range(dev.symbol_count)]


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
            minimal = dev.minimal_triangles(v)
            link = dev.local_distances(v)
            assert sorted(link) == faces
            assert [f for f in faces if link[f] == 0] == minimal
            checked += len(faces)
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


@pytest.mark.parametrize("name", ["d333", "d244", "d236", "d444", "f21_333"])
def test_margin_one_keeps_the_trusted_prefix(devs, name):
    """Grown with a trust budget of one layer past the radius, each session
    ball keeps the trusted prefix of every stored face column."""
    dev = devs[name]
    grower = init_development(load_sample(name))
    grower.margin = 1
    thin = grow_to_radius(grower, dev.radius)
    n = len(dev.ball_faces())
    assert len(thin.ball_faces()) == n
    assert thin.dist[:n] == dev.dist[:n]
    for column in ("f_edge", "f_slot", "f_vert", "f_elem"):
        assert getattr(thin, column)[:3 * n] == getattr(dev, column)[:3 * n], column
    assert embeds_in(thin, dev) and embeds_in(dev, thin)


DERIVED_COLUMNS = (
    "edge_letter", "edge_slots", "edge_ends", "vert_type", "vert_edges", "vert_edge_offsets",
)
COLUMNS = ("radius", "margin", "dist", "final", "f_edge", "f_slot", "f_vert", "f_elem",
           *DERIVED_COLUMNS)


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
    columns regrouped into rows: one per face, edge and vertex."""
    f_edge, f_vert = _rows(dev.f_edge, 3), _rows(dev.f_vert, 3)
    edge_slots = _rows(dev.edge_slots, dev.k)
    edge_rows = dev.vert_edge_offsets
    vert_edges = [dev.vert_edges[i:j] for i, j in zip(edge_rows, edge_rows[1:])]
    vert_faces = [[] for _ in dev.vert_type]
    charts = [{} for _ in dev.vert_type]
    for f in range(dev.face_count):
        for t in range(3):
            vert_faces[f_vert[f][t]].append(f)
            charts[f_vert[f][t]][f] = dev.f_elem[3 * f + t]
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


def test_vertex_stars_of_trusted_faces_end_by_radius_plus_delta(five_balls):
    """The premise of the kept extent: the star of every vertex of a trusted
    face is complete and spans at most delta layers, so it ends by radius +
    delta = radius + margin - 1.  The spread is exactly delta and some star
    reaches that far, so no further layer can be dropped."""
    for dev in five_balls:
        delta = max(link.diameter for link in dev.spec.local_links())
        assert dev.margin == delta + 1
        spread = reach = 0
        for v in sorted({v for f in dev.ball_faces() for v in dev.f_vert[3 * f:3 * f + 3]}):
            assert dev.vertex_complete(v), (dev.spec.name, v)
            dists = [dev.dist[f] for f in dev.faces_at_vertex(v)]
            spread = max(spread, max(dists) - min(dists))
            reach = max(reach, max(dists))
        assert spread == delta, dev.spec.name
        assert reach == dev.radius + delta == max(dev.dist), dev.spec.name


# -- the grower against the folding grower it replaced ---------------------


def _ref_find(parent: list[int], x: int) -> int:
    """Union-find root of x in the forest `parent`, compressing the path."""
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


class ReferenceGrower:
    """The grower as it was before growth became deduction: each empty slot
    gets a fresh face, and chart propagation and folds merge the duplicates.
    Each propagation walks the whole chart, and each round scans every edge
    after a breadth-first pass over the whole ball."""

    def __init__(self, spec: TriangleGroupSpec):
        verdict = npc_check(spec)
        if not verdict.nonpositively_curved:
            raise DevelopmentError(
                f"spec is not nonpositively curved: excess {verdict.excess}"
            )
        self.spec = spec
        self.verdict = verdict
        self.k = spec.k
        links = spec.local_links()
        self.link_diameters = [link.diameter for link in links]
        self.margin = 1 + max(self.link_diameters)
        # designated generator powers per (vertex type, letter)
        self.gen_pow: list[dict[int, list[int]]] = []
        for ti in range(3):
            group = spec.vertex_groups[ti]
            table = {}
            for pos, letter in enumerate(VERTEX_LETTERS[ti]):
                g = spec.designated[ti][pos]
                powers = [0]
                for _ in range(1, self.k):
                    powers.append(group.mult[powers[-1]][g])
                table[letter] = powers
            self.gen_pow.append(table)

        self.f_edge: list[list[int]] = []
        self.f_slot: list[list[int]] = []
        self.f_vert: list[list[int]] = []
        self.f_alive: list[bool] = []
        self.f_prov: list[int] = []
        self.uf_f: list[int] = []

        self.e_letter: list[int] = []
        self.e_slots: list[list[int]] = []
        self.e_ends: list[list[int]] = []
        self.e_alive: list[bool] = []
        self.uf_e: list[int] = []

        self.v_type: list[int] = []
        self.v_chart: list[dict[int, int]] = []
        self.v_edges: list[list[int]] = []
        self.v_alive: list[bool] = []
        self.uf_v: list[int] = []

        self.face_q: deque[tuple[int, int]] = deque()
        self.edge_q: deque[tuple[int, int]] = deque()
        self.vert_q: deque[tuple[int, int]] = deque()
        self.dirty: set[int] = set()

        self._seed()

    # -- construction ------------------------------------------------------

    def _new_face(self, prov: int) -> int:
        f = len(self.f_alive)
        self.f_edge.append([-1, -1, -1])
        self.f_slot.append([-1, -1, -1])
        self.f_vert.append([-1, -1, -1])
        self.f_alive.append(True)
        self.f_prov.append(prov)
        self.uf_f.append(f)
        return f

    def _new_edge(self, letter: int, ends: list[int]) -> int:
        e = len(self.e_alive)
        self.e_letter.append(letter)
        self.e_slots.append([-1] * self.k)
        self.e_ends.append(list(ends))
        self.e_alive.append(True)
        self.uf_e.append(e)
        for v in ends:
            self.v_edges[v].append(e)
        return e

    def _new_vertex(self, vtype: int) -> int:
        v = len(self.v_alive)
        self.v_type.append(vtype)
        self.v_chart.append({})
        self.v_edges.append([])
        self.v_alive.append(True)
        self.uf_v.append(v)
        self.dirty.add(v)
        return v

    def _attach(self, face: int, letter: int, edge: int, slot: int) -> None:
        self.f_edge[face][letter] = edge
        self.f_slot[face][letter] = slot
        self.e_slots[edge][slot] = face

    def _seed(self) -> None:
        face = self._new_face(0)
        verts = [self._new_vertex(t) for t in range(3)]
        for letter in range(3):
            t1, t2 = LETTER_TYPES[letter]
            edge = self._new_edge(letter, [verts[t1], verts[t2]])
            self._attach(face, letter, edge, 0)
        for t in range(3):
            self.f_vert[face][t] = verts[t]
            self.v_chart[verts[t]][face] = 0

    # -- closure -----------------------------------------------------------

    def _saturate_edge(self, e: int) -> None:
        letter = self.e_letter[e]
        slots = self.e_slots[e]
        base_prov = min(self.f_prov[_ref_find(self.uf_f, f)] for f in slots if f != -1)
        t1, t2 = LETTER_TYPES[letter]
        third_type = 3 - t1 - t2
        ends = [_ref_find(self.uf_v, v) for v in self.e_ends[e]]
        self.e_ends[e] = ends
        self.dirty.update(ends)
        for j in range(self.k):
            if slots[j] != -1:
                continue
            face = self._new_face(base_prov + 1)
            self._attach(face, letter, e, j)
            self.f_vert[face][t1] = ends[0]
            self.f_vert[face][t2] = ends[1]
            third = self._new_vertex(third_type)
            self.f_vert[face][third_type] = third
            for other in range(3):
                if other == letter:
                    continue
                o1, o2 = LETTER_TYPES[other]
                endpoints = [self.f_vert[face][o1], self.f_vert[face][o2]]
                new_edge = self._new_edge(other, endpoints)
                self._attach(face, other, new_edge, 0)

    def _propagate(self, v: int) -> bool:
        """Extend the chart at v across edge crossings; queue folds. Returns
        True if the chart grew."""
        vtype = self.v_type[v]
        chart = self._chart_resolved(v)
        edges = self._edges_at(v)
        faces: list[int] = []
        seen = set()
        for e in edges:
            for f in self.e_slots[e]:
                if f != -1:
                    rf = _ref_find(self.uf_f, f)
                    if rf not in seen:
                        seen.add(rf)
                        faces.append(rf)
        if not faces:
            return False
        grew = False
        if not chart:
            chart[min(faces)] = 0
            grew = True
        value_owner: dict[int, int] = {}
        for f in sorted(chart):
            owner = value_owner.get(chart[f])
            if owner is None:
                value_owner[chart[f]] = f
            elif owner != f:
                self.face_q.append((owner, f))
        queue = sorted(chart)
        qi = 0
        gen_pow = self.gen_pow[vtype]
        while qi < len(queue):
            f = queue[qi]
            qi += 1
            base = chart.get(f)
            if base is None:
                continue
            for letter in VERTEX_LETTERS[vtype]:
                e = _ref_find(self.uf_e, self.f_edge[f][letter])
                jf = self.f_slot[f][letter]
                powers = gen_pow[letter]
                group = self.spec.vertex_groups[vtype]
                for j2, raw in enumerate(self.e_slots[e]):
                    if raw == -1 or j2 == jf:
                        continue
                    f2 = _ref_find(self.uf_f, raw)
                    val = group.mult[base][powers[(j2 - jf) % self.k]]
                    have = chart.get(f2)
                    if have is None:
                        chart[f2] = val
                        grew = True
                        queue.append(f2)
                        owner = value_owner.get(val)
                        if owner is None:
                            value_owner[val] = f2
                        elif owner != f2:
                            self.face_q.append((owner, f2))
                    elif have != val:
                        raise DevelopmentError(
                            f"development inconsistency at vertex {v}: face {f2} "
                            f"needs chart values {have} and {val}"
                        )
        return grew

    def _edges_at(self, v: int) -> list[int]:
        out = []
        seen = set()
        for e in self.v_edges[v]:
            re = _ref_find(self.uf_e, e)
            if self.e_alive[re] and re not in seen:
                seen.add(re)
                out.append(re)
        out.sort()
        self.v_edges[v] = list(out)
        return out

    def _process_queues(self) -> bool:
        did = False
        while self.face_q or self.edge_q or self.vert_q:
            did = True
            if self.face_q:
                self._merge_faces(*self.face_q.popleft())
            elif self.edge_q:
                self._merge_edges(*self.edge_q.popleft())
            else:
                self._merge_vertices(*self.vert_q.popleft())
        return did

    def _merge_faces(self, a: int, b: int) -> None:
        ra, rb = _ref_find(self.uf_f, a), _ref_find(self.uf_f, b)
        if ra == rb:
            return
        keep, dead = min(ra, rb), max(ra, rb)
        self.uf_f[dead] = keep
        self.f_alive[dead] = False
        self.f_prov[keep] = min(self.f_prov[keep], self.f_prov[dead])
        for letter in range(3):
            e1 = _ref_find(self.uf_e, self.f_edge[keep][letter])
            e2 = _ref_find(self.uf_e, self.f_edge[dead][letter])
            if e1 != e2:
                self.edge_q.append((e1, e2))
            elif self.f_slot[keep][letter] != self.f_slot[dead][letter]:
                raise DevelopmentError(
                    f"edge slot collision while folding faces {keep} and {dead}"
                )
        for t in range(3):
            v1 = _ref_find(self.uf_v, self.f_vert[keep][t])
            v2 = _ref_find(self.uf_v, self.f_vert[dead][t])
            self.dirty.add(v1)
            if v1 != v2:
                self.dirty.add(v2)
                self.vert_q.append((v1, v2))

    def _merge_edges(self, a: int, b: int) -> None:
        ra, rb = _ref_find(self.uf_e, a), _ref_find(self.uf_e, b)
        if ra == rb:
            return
        if self.e_letter[ra] != self.e_letter[rb]:
            raise DevelopmentError("cannot fold edges of different letters")
        keep, dead = min(ra, rb), max(ra, rb)
        letter = self.e_letter[keep]
        roots_keep = {}
        for j, f in enumerate(self.e_slots[keep]):
            if f != -1:
                roots_keep[_ref_find(self.uf_f, f)] = j
        jk = jd = -1
        for j, f in enumerate(self.e_slots[dead]):
            if f != -1:
                rf = _ref_find(self.uf_f, f)
                if rf in roots_keep:
                    jk, jd = roots_keep[rf], j
                    break
        if jk < 0:
            raise DevelopmentError("edge fold without a shared face")
        self.uf_e[dead] = keep
        self.e_alive[dead] = False
        delta = (jk - jd) % self.k
        for j, f in enumerate(self.e_slots[dead]):
            if f == -1:
                continue
            rf = _ref_find(self.uf_f, f)
            target = (j + delta) % self.k
            cur = self.e_slots[keep][target]
            self.f_edge[rf][letter] = keep
            self.f_slot[rf][letter] = target
            if cur == -1:
                self.e_slots[keep][target] = rf
            else:
                rc = _ref_find(self.uf_f, cur)
                if rc != rf:
                    self.face_q.append((rc, rf))
        for i in range(2):
            v1 = _ref_find(self.uf_v, self.e_ends[keep][i])
            v2 = _ref_find(self.uf_v, self.e_ends[dead][i])
            self.dirty.add(v1)
            if v1 != v2:
                self.dirty.add(v2)
                self.vert_q.append((v1, v2))

    def _merge_vertices(self, a: int, b: int) -> None:
        ra, rb = _ref_find(self.uf_v, a), _ref_find(self.uf_v, b)
        if ra == rb:
            return
        if self.v_type[ra] != self.v_type[rb]:
            raise DevelopmentError("cannot fold vertices of different types")
        keep, dead = min(ra, rb), max(ra, rb)
        self.uf_v[dead] = keep
        self.v_alive[dead] = False
        self.dirty.discard(dead)
        self.dirty.add(keep)
        self.v_edges[keep].extend(self.v_edges[dead])
        self.v_edges[dead] = []
        ck = self._chart_resolved(keep)
        cd = self._chart_resolved(dead)
        # keep the larger chart; propagation rebuilds the rest in its frame,
        # charts being unique up to left translation
        if len(cd) > len(ck):
            self.v_chart[keep] = cd
        else:
            self.v_chart[keep] = ck
        self.v_chart[dead] = {}

    def _chart_resolved(self, v: int) -> dict[int, int]:
        """The chart at v keyed by face roots, stored back and returned."""
        chart = self.v_chart[v]
        out: dict[int, int] = {}
        for f in sorted(chart):
            rf = _ref_find(self.uf_f, f)
            val = chart[f]
            have = out.get(rf)
            if have is None:
                out[rf] = val
            elif have != val:
                raise DevelopmentError(
                    f"development inconsistency at vertex {v}: face {rf} "
                    f"needs chart values {have} and {val}"
                )
        self.v_chart[v] = out
        return out

    def _face_adjacency(self, f: int) -> list[int]:
        out = []
        for letter in range(3):
            e = _ref_find(self.uf_e, self.f_edge[f][letter])
            for raw in self.e_slots[e]:
                if raw != -1:
                    rf = _ref_find(self.uf_f, raw)
                    if rf != f:
                        out.append(rf)
        return out

    def _recompute_prov(self) -> None:
        base = _ref_find(self.uf_f, 0)
        dist = {base: 0}
        queue = [base]
        qi = 0
        while qi < len(queue):
            f = queue[qi]
            qi += 1
            for g in self._face_adjacency(f):
                if g not in dist:
                    dist[g] = dist[f] + 1
                    queue.append(g)
        for f in range(len(self.f_alive)):
            if self.f_alive[f] and _ref_find(self.uf_f, f) == f:
                self.f_prov[f] = dist.get(f, self.f_prov[f])

    def _settle(self) -> bool:
        any_change = False
        while True:
            merged = self._process_queues()
            wave = sorted(self.dirty)
            self.dirty.clear()
            grew = False
            for v in wave:
                v = _ref_find(self.uf_v, v)
                if not self.v_alive[v]:
                    continue
                if self._propagate(v):
                    grew = True
                if self.face_q or self.edge_q or self.vert_q:
                    self._process_queues()
                    merged = True
            if not merged and not grew and not self.dirty:
                return any_change
            any_change = True

    def grow(self, radius: int) -> None:
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        budget = radius + self.margin
        self._settle()
        while True:
            self._recompute_prov()
            created = False
            for e in range(len(self.e_alive)):
                if not self.e_alive[e] or _ref_find(self.uf_e, e) != e:
                    continue
                slots = self.e_slots[e]
                if all(s != -1 for s in slots):
                    continue
                prov = min(self.f_prov[_ref_find(self.uf_f, f)] for f in slots if f != -1)
                if prov <= budget - 1:
                    self._saturate_edge(e)
                    created = True
            settled = self._settle()
            if not created and not settled:
                break
        self._recompute_prov()

    # -- finalization ------------------------------------------------------

    def finalize(self, radius: int) -> Development:
        uf_f, uf_e, uf_v = self.uf_f, self.uf_e, self.uf_v
        base = _ref_find(uf_f, 0)
        order: list[int] = [base]
        pos = {base: 0}
        dist = {base: 0}
        qi = 0
        k = self.k
        while qi < len(order):
            f = order[qi]
            qi += 1
            for letter in range(3):
                e = _ref_find(uf_e, self.f_edge[f][letter])
                jf = self.f_slot[f][letter]
                for p in range(1, k):
                    raw = self.e_slots[e][(jf + p) % k]
                    if raw == -1:
                        continue
                    g = _ref_find(uf_f, raw)
                    if g not in pos:
                        pos[g] = len(order)
                        dist[g] = dist[f] + 1
                        order.append(g)

        edge_order: list[int] = []
        edge_pos: dict[int, int] = {}
        vert_order: list[int] = []
        vert_pos: dict[int, int] = {}
        for f in order:
            for letter in range(3):
                e = _ref_find(uf_e, self.f_edge[f][letter])
                if e not in edge_pos:
                    edge_pos[e] = len(edge_order)
                    edge_order.append(e)
            for t in range(3):
                v = _ref_find(uf_v, self.f_vert[f][t])
                if v not in vert_pos:
                    vert_pos[v] = len(vert_order)
                    vert_order.append(v)

        dev = Development(self.spec, radius, self.margin)
        dev.dist = [dist[f] for f in order]
        dev.final = [d <= radius for d in dev.dist]
        rotations = {}
        for e in edge_order:
            filled = [
                (pos[_ref_find(uf_f, f)], j)
                for j, f in enumerate(self.e_slots[e])
                if f != -1
            ]
            rotations[e] = min(filled)[1]
        for f in order:
            for letter in range(3):
                e = _ref_find(uf_e, self.f_edge[f][letter])
                dev.f_edge.append(edge_pos[e])
                dev.f_slot.append((self.f_slot[f][letter] - rotations[e]) % k)
            dev.f_vert.extend(vert_pos[_ref_find(uf_v, v)] for v in self.f_vert[f])
        for e in edge_order:
            rot = rotations[e]
            row = self.e_slots[e]
            for j in range(k):
                raw = row[(j + rot) % k]
                dev.edge_slots.append(pos[_ref_find(uf_f, raw)] if raw != -1 else -1)
            dev.edge_letter.append(self.e_letter[e])
            dev.edge_ends.extend(vert_pos[_ref_find(uf_v, v)] for v in self.e_ends[e])
        charts = []
        for v in vert_order:
            vtype = self.v_type[v]
            group = self.spec.vertex_groups[vtype]
            chart = self._chart_resolved(v)
            renamed = {pos[f]: val for f, val in chart.items() if f in pos}
            if renamed:
                anchor = renamed[min(renamed)]
                inv = group.inv(anchor)
                renamed = {f: group.mult[inv][val] for f, val in renamed.items()}
            dev.vert_type.append(vtype)
            charts.append(dict(sorted(renamed.items())))
            dev.vert_edges.extend(
                sorted({edge_pos[_ref_find(uf_e, e)] for e in self.v_edges[v] if self.e_alive[_ref_find(uf_e, e)]})
            )
            dev.vert_edge_offsets.append(len(dev.vert_edges))
        dev.f_elem = [charts[v][f] for f in range(len(order)) for v in dev.f_vert[3 * f:3 * f + 3]]
        # the charts go where the ball keeps the ones it derives, so every
        # reader of this ball reads these
        dev._charts = dict(enumerate(charts))
        return dev


def _reference_grow(spec, radius):
    """The reference ball, with its faces at distance radius + margin, and
    its number of breadth-first passes."""
    grower = ReferenceGrower(spec)
    passes = []
    full_pass = grower._recompute_prov

    def counted():
        passes.append(1)
        full_pass()

    grower._recompute_prov = counted
    grower.grow(radius)
    return grower.finalize(radius), len(passes)


@functools.lru_cache(maxsize=None)
def _reference_sample(name, radius):
    spec = f155_333() if name == "f155_333" else load_sample(name)
    return _reference_grow(spec, radius)


def _derived_copy(dev, faces=None):
    """A ball holding the first `faces` faces of dev (all by default) with
    their face columns, and every other column derived from those."""
    n = dev.face_count if faces is None else faces
    out = Development(dev.spec, dev.radius, dev.margin)
    out.dist, out.final = dev.dist[:n], dev.final[:n]
    out.f_edge, out.f_slot = dev.f_edge[:3 * n], dev.f_slot[:3 * n]
    out.f_vert, out.f_elem = dev.f_vert[:3 * n], dev.f_elem[:3 * n]
    out.derive_columns()
    return out


def _drop_ring(dev):
    """dev without its faces past radius + margin - 1.  They are the last
    faces, and the edges and vertices of the faces before them come first,
    with each edge's least face in slot 0 and each vertex's least face the
    identity of its chart, so the face columns are cut and the rest derived;
    `derive_columns` checks all of this.  Slots holding a dropped face read
    -1 and charts leave such faces out."""
    return _derived_copy(dev, bisect_right(dev.dist, dev.radius + dev.margin - 1))


def _reference_build(spec, radius):
    """The reference ball's bytes once its outer ring is dropped, and its
    number of breadth-first passes."""
    dev, passes = _reference_grow(spec, radius)
    return development_to_json(_drop_ring(dev)), passes


def _fresh_distances(grower):
    """Breadth-first distances from the base face over the grown faces."""
    k = grower.k
    dist = {0: 0}
    queue = [0]
    for f in queue:
        for x in range(3 * f, 3 * f + 3):
            e = grower.f_edge[x]
            for g in grower.e_slots[k * e:k * e + k]:
                if g != -1 and g not in dist:
                    dist[g] = dist[f] + 1
                    queue.append(g)
    return dist


def _checked_build(spec, radius):
    """The ball's bytes and its number of rounds, checking before each
    round and after the last that every face grown is reached from the base
    face and that its distance is its breadth-first distance."""
    grower = init_development(spec)
    rounds = []
    scan = grower._saturate_frontier

    def check():
        fresh = _fresh_distances(grower)
        faces = range(len(grower.f_prov))
        assert sorted(fresh) == list(faces), (spec.name, radius, len(rounds))
        wrong = [f for f in faces if grower.f_prov[f] != fresh[f]]
        assert not wrong, (spec.name, radius, len(rounds), wrong[:5])
        rounds.append(1)

    def checked_scan(budget):
        check()
        return scan(budget)

    grower._saturate_frontier = checked_scan
    grower.grow(radius)
    check()
    return development_to_json(grower.finalize(radius)), len(rounds)


@pytest.mark.parametrize("name", ["d236", "d244", "d333", "d444", "f21_333"])
def test_grower_matches_reference_at_small_radii(name):
    spec = load_sample(name)
    for radius in range(4):
        fast, rounds = _checked_build(spec, radius)
        slow, passes = _reference_build(spec, radius)
        assert fast == slow, (name, radius)
        assert rounds == passes, (name, radius)


REFERENCE_BALLS = [("d333", 11), ("d244", 15), ("d236", 30), ("d444", 8), ("f21_333", 4)]


@pytest.mark.parametrize("name, radius", REFERENCE_BALLS)
def test_grower_matches_reference_with_exact_distances(name, radius):
    """Equal bytes, and the same rounds with every provisional distance
    exact in each (17, 22, 39, 15 and 10 checks in order)."""
    fast, rounds = _checked_build(load_sample(name), radius)
    dev, passes = _reference_sample(name, radius)
    assert fast == development_to_json(_drop_ring(dev))
    assert rounds == passes


def f155_333() -> TriangleGroupSpec:
    """Z/31 : Z/5, of order 155, on its order-5 elements 2 and 4 at every
    vertex type: the k = 5 analogue of f21_333."""
    p = 31
    group = group_from_permutations(
        "F155", [tuple((x + 1) % p for x in range(p)), tuple(2 * x % p for x in range(p))]
    )
    spec = TriangleGroupSpec(5, (group,) * 3, ((2, 4),) * 3, name="f155_333")
    spec.validate()
    return spec


@pytest.fixture(scope="module")
def k5_ball():
    return grow_to_radius(f155_333(), 0)


def test_grower_matches_reference_at_k5(k5_ball):
    assert k5_ball.face_count == 4579
    slow, _ = _reference_sample("f155_333", 0)
    assert development_to_json(k5_ball) == development_to_json(_drop_ring(slow))


def test_outer_layer_growth_matters_at_k5(k5_ball):
    """Grown one layer short, to radius + delta, the stored extent, the
    f155_333 ball keeps its faces and their distances but not its edges and
    vertices: the faces at the stored extent are then the budget layer, and
    get fresh edges and corners where they share ones."""
    grower = init_development(f155_333())
    grower.margin -= 1
    grower.grow(0)
    grower.margin += 1
    short = grower.finalize(0)
    assert short.dist == k5_ball.dist
    assert (len(k5_ball.edge_letter), len(k5_ball.vert_type)) == (8013, 3435)
    assert (len(short.edge_letter), len(short.vert_type)) == (8445, 3867)
    assert development_to_json(short) != development_to_json(k5_ball)


def _dihedral_spec(name, orders):
    spec = TriangleGroupSpec(
        2, tuple(dihedral(n) for n in orders), tuple(dihedral_reflections(n) for n in orders), name=name
    )
    spec.validate()
    return spec


def f21_f21_f39() -> TriangleGroupSpec:
    """A mixed k = 3 spec: F21 at two vertex types with its shipped pair, and
    F39 = Z/13 : Z/3 on its order-3 elements 2 and 4 at the third."""
    p = 13
    f39 = group_from_permutations(
        "F39", [tuple((x + 1) % p for x in range(p)), tuple(3 * x % p for x in range(p))]
    )
    f21, pair = frobenius21(), frobenius21_generators()
    spec = TriangleGroupSpec(3, (f21, f21, f39), (pair, pair, (2, 4)), name="f21_f21_f39")
    spec.validate()
    return spec


@pytest.mark.parametrize(
    "make, radius",
    [
        (lambda: _dihedral_spec("d237", (2, 3, 7)), 6),
        (lambda: _dihedral_spec("d345", (3, 4, 5)), 3),
        (f21_f21_f39, 1),
    ],
    ids=["d237", "d345", "f21_f21_f39"],
)
def test_grower_matches_reference_beyond_the_samples(make, radius):
    """Equal bytes and rounds, with every distance exact in each, on a
    hyperbolic triangle of half-girth 2, one with every half-girth above 2, and a spec
    that mixes vertex groups."""
    spec = make()
    fast, rounds = _checked_build(spec, radius)
    slow, passes = _reference_build(spec, radius)
    assert fast == slow
    assert rounds == passes


class BlindGrower(_Grower):
    """The grower finding no edge in the charts: a new face is still charted
    at its edge's ends, but its other edges and third corner are made fresh,
    so some later slot needs a face that is already charted elsewhere."""

    def _known_edge(self, *args):
        return None


@pytest.mark.parametrize("name", ["d333", "d244", "d236", "d444", "f21_333", "f155_333"])
def test_sabotaged_deduction_raises(name):
    """With the edge deduction switched off, growth meets a face it would
    have had to merge, and raises instead of merging it."""
    spec = f155_333() if name == "f155_333" else load_sample(name)
    with pytest.raises(DevelopmentError, match="already charted"):
        BlindGrower(spec).grow(0)


@pytest.mark.parametrize(
    "name, radius, kept",
    [("f21_333", 4, (10759, 17415, 6657)), ("d444", 8, (6718, 12753, 6036))],
)
def test_grower_allocates_only_what_it_keeps(name, radius, kept):
    """The grower allocates exactly the faces, edges and vertices it keeps:
    every face is reached from the base face, every edge holds a face, and
    every vertex is a corner of one."""
    grower = init_development(load_sample(name))
    grower.grow(radius)
    faces = range(len(grower.f_prov))
    assert (len(faces), len(grower.e_letter), len(grower.v_type)) == kept
    assert len(_fresh_distances(grower)) == len(faces)
    assert {grower.f_edge[x] for x in range(3 * len(faces))} == set(range(len(grower.e_letter)))
    assert set(grower.f_vert) == set(range(len(grower.v_type)))


@pytest.mark.parametrize(
    "name, radius, digest",
    [
        ("f21_333", 5, "45052e6687d07d0c12696a4b339ffd61a4ff6e9b61777f305e92e35139db39a5"),
        ("d444", 9, "0be626191a79cf2850f4d69351a398422b8a7d47eca4107a06b1739a47258c6c"),
        ("d236", 19, "f0db2ccefa060f999be6bc5229716bc48bc3d61cda9d4889eafe95c5444bfb8e"),
    ],
)
def test_bytes_beyond_golden_radii(name, radius, digest):
    """The sha256 of balls past the golden radii, as the create-then-fold
    grower wrote them."""
    data = development_to_json(grow_to_radius(load_sample(name), radius))
    assert hashlib.sha256(data.encode()).hexdigest() == digest


@pytest.mark.parametrize("name, radius", [*REFERENCE_BALLS, ("f155_333", 0)])
def test_reference_columns_equal_derived_columns(name, radius):
    """The edge and vertex columns and the charts that ReferenceGrower
    builds on its own, outer layer and all, equal those that
    `derive_columns` builds from its face columns."""
    dev, _ = _reference_sample(name, radius)
    again = _derived_copy(dev)
    for column in DERIVED_COLUMNS:
        assert getattr(again, column) == getattr(dev, column), column
    vertices = range(len(dev.vert_type))
    assert [again.vertex_chart(v) for v in vertices] == [dev.vertex_chart(v) for v in vertices]


def _outcome(call, *args):
    """What call(*args) returns, or the type and message of the error it raises."""
    try:
        return call(*args)
    except VerificationError as exc:
        return type(exc).__name__, str(exc)


def _answers(dev):
    """Everything the readers of a ball take from it: each verify suite's
    Verdict, the fellow report, interior vertices, patches and both machines'
    canonical forms, certified and not, and every catacomb pair's gallery."""
    from trifold import cli

    def machine(build, *args):
        return build(dev, *args).canonical_form()

    delta = dev.margin - 1
    out = {
        "interior": dev.interior_vertices(),
        "cor1": _outcome(cli._suite_cor1, dev),
        "cor2": _outcome(cli._suite_cor2, dev),
        "enters": _outcome(cli._suite_enters, dev),
        "conetypes": _outcome(cli._suite_conetypes, dev, 3),
        "fellow": _outcome(cli._suite_fellow, dev),
        "fellow report": _outcome(fellow_traveller_check, dev, dev.radius - 1),
        "gaussbonnet": _outcome(cli._suite_gaussbonnet, dev),
    }
    # the default radii of `trifold automaton` and the two below them
    top = max(2, dev.radius - delta)
    for radius in range(max(2, top - 2), top + 1):
        out["geodesic", radius] = _outcome(machine, build_geodesic_automaton, radius)
        out["geodesic once", radius] = _outcome(machine, _geodesic_machine_once, radius)
    for radius in range(max(2, dev.radius - 2), dev.radius + 1):
        out["lexfirst", radius] = _outcome(machine, build_lexfirst_automaton, radius)
        out["lexfirst once", radius] = _outcome(machine, build_lexfirst_automaton, radius, False)
    for radius in range(1, min(dev.radius, 4) + 1):
        patch = build_patch(dev, radius)
        y = patch.complex
        out["patch", radius] = (
            y.n_vertices, y.edges, y.cells, patch.edge_labels, patch.cell_kinds,
            patch.omitted_cells, patch.vertex_of_cell,
        )
    # pair radius 3 on f21_333 takes about a minute per ball
    for radius in range(1, 3 if dev.spec.name == "f21_333" else 4):
        out["catacomb", radius] = _outcome(cli._suite_catacomb, dev, radius, None)
        if 2 in dev.half_girths:
            continue
        for f1 in dev.ball_faces():
            dists, found = source_geodesics(dev, f1, radius)
            out[f1, radius] = {
                f2: (dists[f2], path.path, gallery, crossings, unsure)
                for f2, (path, gallery, crossings, unsure) in found.items()
            }
    return out


@pytest.mark.parametrize("name, radius", REFERENCE_BALLS)
def test_ring_answers_no_reader(name, radius):
    """The reference ball, which keeps the faces at radius + margin, and the
    ball without them give every reader the same answers."""
    kept, _ = _reference_sample(name, radius)
    dev = grow_to_radius(load_sample(name), radius)
    assert dev.face_count < kept.face_count == len(kept.dist)
    assert max(kept.dist) == radius + kept.margin
    assert _answers(dev) == _answers(kept)
