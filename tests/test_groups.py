import math
import random
import re

import pytest

from fractions import Fraction

from trifold.groups import (
    FiniteGroup,
    GroupError,
    build_coset_graph,
    group_from_permutations,
    half_girth,
    load_group,
    load_triangle_spec,
    local_link,
    npc_check,
    CosetGraph,
)
from trifold.samples import (
    dihedral,
    dihedral_reflections,
    frobenius21,
    frobenius21_generators,
    load_sample,
    SAMPLE_BUILDERS,
)

from disc_paths import link_eccentricities


def cyclic_doc(n):
    return {
        "name": f"Z{n}",
        "order": n,
        "mult": [[(i + j) % n for j in range(n)] for i in range(n)],
        "generators": {"a": 1 % n},
    }


def test_load_cyclic_group():
    g = load_group(cyclic_doc(3))
    assert g.order == 3
    assert g.mult[1][2] == 0
    assert g.inv(1) == 2


def test_symmetric_group_from_permutation_composition():
    s3 = group_from_permutations("S3", [(1, 0, 2), (0, 2, 1)])
    assert s3.order == 6
    # independently must be isomorphic to the dihedral table of order 6
    d3 = dihedral(3)
    assert sorted(s3.element_order(x) for x in range(6)) == sorted(
        d3.element_order(x) for x in range(6)
    )


def test_latin_square_violation_is_an_error():
    doc = cyclic_doc(3)
    doc["mult"][2][2] = 2  # row becomes [2, 0, 2]
    with pytest.raises(GroupError, match="Latin square"):
        load_group(doc)


def test_identity_misplacement_is_an_error():
    doc = {
        "name": "bad",
        "order": 2,
        "mult": [[1, 0], [0, 1]],
    }
    with pytest.raises(GroupError, match="identity"):
        load_group(doc)


def test_associativity_failure_is_an_error():
    # a Latin square with identity row/column that is not a group: order 5
    # loop built by swapping two entries of Z5 inside the non-identity block
    doc = cyclic_doc(5)
    m = doc["mult"]
    m[1][2], m[1][4] = m[1][4], m[1][2]
    m[3][2], m[3][4] = m[3][4], m[3][2]
    with pytest.raises(GroupError):
        load_group(doc)


def _cube_failure(mult):
    """The first triple (x, y, z) with (xy)z != x(yz), over the whole cube."""
    n = len(mult)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if mult[mult[x][y]][z] != mult[x][mult[y][z]]:
                    return (x, y, z)
    return None


def _row_cycle_swaps(mult):
    """Latin squares with identity 0 made from mult by trading, for each
    pair of rows x1 < x2 other than 0, the entries of the first of their row
    cycles that avoids column 0."""
    n = len(mult)
    for x1 in range(1, n):
        for x2 in range(x1 + 1, n):
            column_of = {v: y for y, v in enumerate(mult[x2])}
            for y0 in range(1, n):
                cycle = [y0]
                while (y := column_of[mult[x1][cycle[-1]]]) != y0:
                    cycle.append(y)
                if 0 not in cycle:
                    swapped = [list(row) for row in mult]
                    for y in cycle:
                        swapped[x1][y], swapped[x2][y] = mult[x2][y], mult[x1][y]
                    yield swapped
                    break


def test_light_associativity_test_matches_the_full_cube():
    groups = {g.name: g for name in SAMPLE_BUILDERS for g in load_sample(name).vertex_groups}
    groups.update((f"Z{n}", load_group(cyclic_doc(n))) for n in range(1, 8))
    groups["D2"] = dihedral(2)
    failing = 0
    for group in groups.values():
        assert _cube_failure(group.mult) is None, group.name
        for mult in _row_cycle_swaps(group.mult):
            if _cube_failure(mult) is None:
                FiniteGroup("swapped", mult)
                continue
            with pytest.raises(GroupError, match="associativity fails") as err:
                FiniteGroup("swapped", mult)
            # the triple named really fails
            x, s, y = map(int, re.search(r"at \((\d+),(\d+),(\d+)\)", str(err.value)).groups())
            assert mult[mult[x][s]][y] != mult[x][mult[s][y]]
            failing += 1
    assert failing > 200


def test_light_associativity_test_checks_past_a_nuclear_generator():
    # Z2 x L for a non-associative loop L of order 5, with (a, l) numbered
    # 2l + a: the first generator, 1 = (1, e), passes (xs)y = x(sy) for all
    # x and y, so only a later generator exposes the failure
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    assert _cube_failure(loop) is not None
    mult = [
        [2 * loop[l][m] + (a + b) % 2 for m in range(5) for b in range(2)]
        for l in range(5) for a in range(2)
    ]
    assert all(mult[mult[x][1]][y] == mult[x][mult[1][y]] for x in range(10) for y in range(10))
    with pytest.raises(GroupError, match="associativity fails") as err:
        FiniteGroup("Z2xL5", mult)
    x, s, y = map(int, re.search(r"at \((\d+),(\d+),(\d+)\)", str(err.value)).groups())
    assert s != 1 and mult[mult[x][s]][y] != mult[x][mult[s][y]]


def test_coset_graph_klein_four():
    v = dihedral(2)  # Z/2 x Z/2
    x, y = dihedral_reflections(2)
    graph = build_coset_graph(v, x, y)
    assert len(graph.left_cosets) == 2 and len(graph.right_cosets) == 2
    assert len(graph.edges) == 4  # complete bipartite on 2+2
    assert graph.half_girth == 2


def test_coset_graph_s3_is_hexagon():
    v = dihedral(3)
    x, y = dihedral_reflections(3)
    graph = build_coset_graph(v, x, y)
    assert len(graph.left_cosets) == 3 and len(graph.right_cosets) == 3
    assert len(graph.edges) == 6
    assert graph.half_girth == 3


def test_coset_graph_d4_is_octagon():
    v = dihedral(4)
    x, y = dihedral_reflections(4)
    graph = build_coset_graph(v, x, y)
    assert len(graph.edges) == 8
    assert graph.half_girth == 4


def test_coset_graph_needs_generation():
    v = dihedral(4)
    # two reflections generating a proper Klein subgroup: s and s*r^2
    with pytest.raises(GroupError, match="proper subgroup"):
        build_coset_graph(v, 4, 6)


def test_half_girth_tree_is_infinite():
    tree = CosetGraph([(0,)], [(0,)], [(0, 1)], 0)
    assert half_girth(tree) is math.inf


def test_half_girth_invariant_under_relabeling():
    rng = random.Random(11)
    v = dihedral(4)
    x, y = dihedral_reflections(4)
    base = build_coset_graph(v, x, y).half_girth
    for _ in range(5):
        perm = [0] + rng.sample(range(1, v.order), v.order - 1)
        w = v.relabel(perm)
        assert build_coset_graph(w, perm[x], perm[y]).half_girth == base


def test_npc_verdicts():
    assert npc_check(load_sample("d333")).kind == "euclidean"
    assert npc_check(load_sample("d444")).kind == "hyperbolic"
    # half-girths (2,3,4) must fail with excess exactly 1/12
    spec = load_sample("d236")
    groups = (dihedral(2), dihedral(3), dihedral(4))
    from trifold.groups import TriangleGroupSpec

    bad = TriangleGroupSpec(
        2, groups, tuple(dihedral_reflections(n) for n in (2, 3, 4)), name="d234"
    )
    verdict = npc_check(bad)
    assert verdict.kind == "fails"
    assert verdict.excess == Fraction(1, 12)


def test_local_links():
    link = local_link(dihedral(3), *dihedral_reflections(3), 2)
    assert link.order == 6 and link.diameter == 3
    link = local_link(dihedral(2), *dihedral_reflections(2), 2)
    assert link.order == 4 and link.diameter == 2
    # Z/3 x Z/3 with the factor generators at k=3
    z3z3 = group_from_permutations(
        "Z3xZ3", [(1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 5, 3)]
    )
    gx = next(g for g in range(9) if z3z3.element_order(g) == 3)
    gy = next(
        g
        for g in range(9)
        if z3z3.element_order(g) == 3 and g not in z3z3.cyclic_subgroup(gx)
    )
    link = local_link(z3z3, gx, gy, 3)
    assert link.order == 9 and link.diameter == 2


def test_local_link_vertex_transitive_eccentricities():
    for n in (3, 4, 6):
        link = local_link(dihedral(n), *dihedral_reflections(n), 2)
        eccs = link_eccentricities(link)
        assert len(set(eccs)) == 1 and eccs[0] == link.diameter


def test_frobenius21_sample_properties():
    f21 = frobenius21()
    x, y = frobenius21_generators()
    assert f21.order == 21
    assert f21.element_order(x) == 3 and f21.element_order(y) == 3
    graph = build_coset_graph(f21, x, y)
    # half-girth 3 needs a girth-6 bipartite cubic graph on 7+7 vertices
    assert graph.half_girth == 3
    assert npc_check(load_sample("f21_333")).kind == "euclidean"


def test_spec_document_roundtrip_and_schema_errors():
    doc = load_sample("d333").to_document()
    spec = load_triangle_spec(doc)
    assert spec.k == 2 and spec.half_girths() == (3, 3, 3)
    bad = load_sample("d333").to_document()
    bad["designated"]["V1"] = ["b", "a"]
    with pytest.raises(GroupError, match="designated"):
        load_triangle_spec(bad)
    bad = load_sample("d333").to_document()
    del bad["vertex_groups"][0]["generators"]
    with pytest.raises(GroupError, match="generators"):
        load_triangle_spec(bad)


def test_inverse_is_involution_and_identity_law():
    for name in ("d333", "f21_333"):
        spec = load_sample(name)
        for group in spec.vertex_groups:
            for g in range(group.order):
                assert group.mult[g][group.inv(g)] == 0
                assert group.inv(group.inv(g)) == g
