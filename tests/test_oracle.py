import math
import random
import time
from fractions import Fraction

import pytest

from trifold.grower import grow_to_radius
from trifold.oracle import (
    GROUP_IDS,
    Gallery,
    GeodesicResult,
    OracleError,
    catacomb_check,
    cat0_geodesic,
    compare_balls,
    count_crossings,
    funnel_path,
    isometry_ball,
    path_length,
    centroid,
    area2,
    on_segment,
    segment_point_sqdist,
    source_geodesics,
    sqdist,
    _BASE_CORNERS,
    _CHAMBERS,
    _MeasuredPath,
    _ROOT_BITS,
    _check_path_in_sleeve,
    _cross,
    _geodesic_result,
    _reflect,
    _require_metric_gate,
    _segment_crosses,
    _step_across,
)
from trifold import oracle
from trifold.groups import LETTER_TYPES
from trifold.rings import RadicalSum
from trifold.samples import load_sample

import q3_radicals
from q3_radicals import Isometry, Q3, pt, reference


# -- the per-pair reference search ------------------------------------------------
#
# One depth-first search per pair, kept here as the reference the shared
# gallery search (oracle._search, behind cat0_geodesic and source_geodesics)
# is compared against.  It prunes with its own exact bound: a branch dies
# once the distance from the start to its entry portal exceeds the best path.
# It unfolds each gallery whole, into placements by vertex type, and orients
# the portals afterwards from the apexes on either side.


def _unfold_step(dev, placed, cur, nxt):
    """The edge shared by faces cur and nxt, the placement of nxt reflected
    across it, and the portal between the two faces."""
    edge = dev.shared_edge(cur, nxt)
    if edge is None:
        raise OracleError(f"faces {cur} and {nxt} share no edge")
    s0, s1 = dev.letter_types[dev.edge_letter[edge]]
    beyond, _ = _step_across(placed, s0, s1, 3 - s0 - s1)
    va, vb = dev.edge_ends[2 * edge:2 * edge + 2]
    return edge, dict(enumerate(beyond)), (placed[s0], placed[s1], va, vb)


def unfold_gallery(dev, faces):
    """Place the gallery in the plane as glued unit equilateral triangles."""
    placements = [dict(_BASE_CORNERS)]
    edges = []
    portals = []
    for cur, nxt in zip(faces, faces[1:]):
        edge, placed, portal = _unfold_step(dev, placements[-1], cur, nxt)
        edges.append(edge)
        placements.append(placed)
        portals.append(portal)
    return Gallery(list(faces), edges, placements, portals)


def orient_portals(gallery):
    """Order each portal's endpoints as (left, right) seen along the walk."""
    oriented = []
    for i, (a, b, _va, _vb) in enumerate(gallery.portals):
        apex_before = next(p for p in gallery.placements[i].values() if p != a and p != b)
        apex_after = next(p for p in gallery.placements[i + 1].values() if p != a and p != b)
        if area2(apex_before, apex_after, a) > 0:
            oriented.append((a, b))
        else:
            oriented.append((b, a))
    return oriented


def _extend_gallery(dev, gallery, nxt):
    edge, placed, portal = _unfold_step(dev, gallery.placements[-1], gallery.faces[-1], nxt)
    return Gallery(
        gallery.faces + [nxt],
        gallery.edges + [edge],
        gallery.placements + [placed],
        gallery.portals + [portal],
    )


def _exceeded_by(path, q):
    """Whether sqrt(q) is longer than the measured path, for rational q >= 0.

    Reads _ROOT_BITS off the oracle module and compares through
    rings.RadicalSum.compare, so the tests that patch them reach this too."""
    num, den = q.numerator, q.denominator
    if path.square is not None:
        return num * path.square[1] > path.square[0] * den
    num <<= 2 * oracle._ROOT_BITS
    if num > path.hi * path.hi * den:
        return True
    if num < path.lo * path.lo * den:
        return False
    # sqrt(q) = sqrt(numerator * den) / den; num is shifted by now
    return RadicalSum([(Fraction(1, den), q.numerator * den)]).compare(
        RadicalSum((1, n) for n in path.squares)
    ) > 0


def enumerate_galleries(dev, f1, f2, max_len):
    """All face sequences from f1 to f2 of at most max_len faces, unfolded.

    Consecutive faces must share an edge and may not repeat immediately."""
    # a face read below is at most max_len - 2 steps from the goal
    dist_to_goal = dev.bfs_from(f2, max_len)
    out = []
    stack = [(f1,)]
    while stack:
        walk = stack.pop()
        cur = walk[-1]
        if cur == f2:
            out.append(unfold_gallery(dev, list(walk)))
        remaining = max_len - len(walk)
        if remaining <= 0:
            continue
        for nxt in reversed(dev.adjacent_faces(cur)):
            d = dist_to_goal.get(nxt)
            if d is None or d > remaining - 1:
                continue
            stack.append(walk + (nxt,))
    return out


def reference_geodesic(dev, f1, f2, max_len) -> GeodesicResult:
    """cat0_geodesic by its own depth-first search over the simple galleries
    from f1 to f2: the first gallery of least length in that order."""
    _require_metric_gate(dev)
    if f1 == f2:
        g = unfold_gallery(dev, [f1])
        zero = RadicalSum()
        return GeodesicResult(zero, zero, g, [centroid(g.placements[0])], 0)
    # a face read below is at most max_len - 2 steps from the goal
    dist_to_goal = dev.bfs_from(f2, max_len)
    if f1 not in dist_to_goal:
        raise OracleError("no gallery within max_len; raise max_len")
    best = None
    base_gallery = unfold_gallery(dev, [f1])
    start = centroid(base_gallery.placements[0])
    stack = [((f1,), base_gallery)]
    while stack:
        walk, gallery = stack.pop()
        cur = walk[-1]
        if cur == f2:
            # a walk that holds f2 cannot reach it again, so it ends here
            oriented = orient_portals(gallery)
            path = _MeasuredPath(funnel_path(oriented, start, centroid(gallery.placements[-1])))
            if best is None or path.shorter_than(best[0]):
                _check_path_in_sleeve(path.path, oriented)
                crossings = count_crossings(dev, gallery, path.path)
                best = (path, gallery, crossings, len(walk) >= max_len)
            continue
        remaining = max_len - len(walk)
        if remaining <= 0:
            continue
        for nxt in reversed(dev.adjacent_faces(cur)):
            if nxt in walk:
                continue
            d = dist_to_goal.get(nxt)
            if d is None or d > remaining - 1:
                continue
            extended = _extend_gallery(dev, gallery, nxt)
            if best is not None:
                a, b, _, _ = extended.portals[-1]
                if _exceeded_by(best[0], segment_point_sqdist(a, b, start)):
                    continue
            stack.append((walk + (nxt,), extended))
    if best is None:
        raise OracleError("no gallery within max_len; raise max_len")
    return _geodesic_result(*best)


def test_isometry_ball_basics():
    ball = isometry_ball("d333", 0)
    assert len(ball.elements) == 1
    ball = isometry_ball("d333", 1)
    assert ball.sphere_sizes == [1, 3]
    # frozen regression anchor, first computed by this oracle
    assert isometry_ball("d333", 2).sphere_sizes == [1, 3, 6]


def test_unknown_group_id():
    with pytest.raises(OracleError, match="unknown"):
        isometry_ball("d999", 1)


# -- the chamber walk against Q(sqrt 3) reflection matrices ------------------------

# fundamental triangles: corner i carries the angle pi/r_i, mirror for letter
# "a" is the side v1-v3, for "b" the side v1-v2, for "c" the side v2-v3
_TRIANGLES = {
    "d333": (pt(0, 0), pt(1, 0), (Q3(Fraction(1, 2)), Q3(0, Fraction(1, 2)))),
    "d244": (pt(0, 0), pt(1, 0), pt(0, 1)),
    "d236": (pt(0, 0), pt(1, 0), (Q3(0), Q3(0, 1))),
}


def _matrix_ball(group_id, radius):
    """dist and neighbors of the Cayley ball by breadth-first search over
    exact Q(sqrt 3) isometries, element g*x being g composed with x's
    reflection."""
    v1, v2, v3 = _TRIANGLES[group_id]
    gens = [Isometry.reflection(v1, v3), Isometry.reflection(v1, v2), Isometry.reflection(v2, v3)]
    assert all(g.is_orthogonal() for g in gens)
    ident = Isometry.identity()
    index = {ident: 0}
    elements, dist, neighbors = [ident], [0], [{}]
    frontier = [0]
    for d in range(radius):
        new_frontier = []
        for ei in frontier:
            for letter, gen in enumerate(gens):
                h = elements[ei].compose(gen)
                hi = index.get(h)
                if hi is None:
                    hi = index[h] = len(elements)
                    elements.append(h)
                    dist.append(d + 1)
                    neighbors.append({})
                    new_frontier.append(hi)
                neighbors[ei][letter] = hi
                neighbors[hi][letter] = ei
        frontier = new_frontier
    return dist, neighbors


@pytest.mark.parametrize("gid, radius", [("d333", 11), ("d244", 15), ("d236", 14)])
def test_chamber_ball_matches_matrix_reference(gid, radius):
    ball = isometry_ball(gid, radius)
    assert (ball.dist, ball.neighbors) == _matrix_ball(gid, radius)


def test_generators_are_involutions_with_right_orders():
    """Crossing a mirror twice returns to the base chamber, and alternating
    the two letters at a corner of angle pi/r returns first after exactly 2r
    crossings."""
    orders = {"d333": (3, 3, 3), "d244": (2, 4, 4), "d236": (2, 3, 6)}
    for gid in GROUP_IDS:
        base, w = _CHAMBERS[gid]
        for letter in range(3):
            once = _cross(base, letter, w)
            assert once != base and _cross(once, letter, w) == base
        for corner, (x, y) in enumerate(((0, 1), (1, 2), (2, 0))):
            assert set(LETTER_TYPES[x]) & set(LETTER_TYPES[y]) == {corner}
            g = base
            returns = []
            for step in range(4 * orders[gid][corner]):
                g = _cross(g, (x, y)[step % 2], w)
                if g == base:
                    returns.append(step + 1)
            assert returns[0] == 2 * orders[gid][corner], gid


def test_non_lattice_chamber_is_refused():
    """The d236 triangle unscaled reflects a corner off the integer lattice."""
    base = ((0, 0), (1, 0), (0, 1))
    with pytest.raises(OracleError, match="integer lattice"):
        _reflect(base[0], base[1], base[2], 3)
    with pytest.raises(OracleError, match="integer lattice"):
        _cross(base, 2, 3)


def test_reflection_length_parity():
    ball = isometry_ball("d236", 4)
    for e in range(len(ball.elements)):
        for letter, n in ball.neighbors[e].items():
            assert abs(ball.dist[e] - ball.dist[n]) == 1


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_compare_balls_pass(gid):
    dev = grow_to_radius(load_sample(gid), 5)
    ball = isometry_ball(gid, 5)
    assert compare_balls(dev, ball, 5).ok


def test_compare_balls_self_and_fault_injection():
    dev = grow_to_radius(load_sample("d333"), 4)
    ball = isometry_ball("d333", 4)
    assert compare_balls(dev, ball, 4).ok
    # swapping two letters on one element must produce a located divergence
    broken = isometry_ball("d333", 4)
    e = next(i for i in range(len(broken.elements)) if broken.dist[i] == 1)
    nbrs = broken.neighbors[e]
    nbrs[0], nbrs[1] = nbrs[1], nbrs[0]
    result = compare_balls(dev, broken, 4)
    assert not result.ok and result.detail


def test_metric_gate_blocks_half_girth_two():
    dev = grow_to_radius(load_sample("d244"), 3)
    with pytest.raises(OracleError, match="metric oracle unavailable"):
        cat0_geodesic(dev, 0, 1, 3)
    with pytest.raises(OracleError, match="metric oracle unavailable"):
        catacomb_check(dev, 2)


def test_trivial_and_adjacent_galleries(dev333):
    gals = enumerate_galleries(dev333, 0, 0, 1)
    assert len(gals) == 1 and gals[0].faces == [0]
    gals = enumerate_galleries(dev333, 0, 1, 2)
    assert len(gals) == 1 and gals[0].faces == [0, 1]


def test_gallery_count_matches_independent_recount(dev333):
    f2 = next(f for f in dev333.ball_faces() if dev333.dist[f] == 3)
    gals = enumerate_galleries(dev333, 0, f2, 5)

    # independent recount: step-count walks avoiding immediate backtracking
    def count_walks(start, goal, max_faces):
        total = 1 if start == goal else 0
        frontier = {(start, -1): 1}
        for _ in range(max_faces - 1):
            nxt = {}
            for (cur, prev), m in frontier.items():
                for g in dev333.adjacent_faces(cur):
                    if g == cur:
                        continue
                    key = (g, cur)
                    nxt[key] = nxt.get(key, 0) + m
            frontier = nxt
            total += sum(m for (cur, _), m in frontier.items() if cur == goal)
        return total

    assert len(gals) == count_walks(0, f2, 5)


def test_unfolding_consecutive_triangles_share_edges(dev333):
    f2 = next(f for f in dev333.ball_faces() if dev333.dist[f] == 2)
    for gallery in enumerate_galleries(dev333, 0, f2, 4):
        for i, (a, b, _va, _vb) in enumerate(gallery.portals):
            before = set(gallery.placements[i].values())
            after = set(gallery.placements[i + 1].values())
            assert a in before and a in after
            assert b in before and b in after
        for placed in gallery.placements:
            pts = list(placed.values())
            sides = [sqdist(pts[0], pts[1]), sqdist(pts[1], pts[2]), sqdist(pts[0], pts[2])]
            assert sides[0] == sides[1] == sides[2]


def test_cat0_same_face_and_adjacent(dev333):
    same = cat0_geodesic(dev333, 0, 0, 3)
    assert same.crossings == 0 and same.length == RadicalSum()
    adj = cat0_geodesic(dev333, 0, 1, 6)
    assert adj.crossings == 1
    assert adj.squared_length == RadicalSum([(Fraction(1, 3), 1)])


def test_cat0_flat_distances_are_straight_lines(dev333):
    # in the flat case the geodesic between centroids is one straight segment
    rng = random.Random(9)
    faces = [f for f in dev333.ball_faces() if dev333.dist[f] <= 4]
    for f2 in rng.sample(faces, 8):
        if f2 == 0:
            continue
        d = dev333.bfs_from(0)[f2]
        result = cat0_geodesic(dev333, 0, f2, d + 2 * dev333.margin)
        assert result.crossings == d
        assert not result.inconclusive
        assert len(result.path) >= 2
        straight = RadicalSum([(Fraction(1, 6), sqdist(centroid(result.gallery.placements[0]),
                                                      centroid(result.gallery.placements[-1])))])
        assert result.length.compare(straight) == 0


def test_cat0_length_monotone_in_distance(dev333):
    by_dist = {}
    for f in dev333.ball_faces():
        if dev333.dist[f] <= 3:
            by_dist.setdefault(dev333.dist[f], f)
    lengths = [
        cat0_geodesic(dev333, 0, by_dist[d], d + 8).length
        for d in sorted(by_dist)
        if d > 0
    ]
    for a, b in zip(lengths, lengths[1:]):
        assert a.compare(b) < 0


def test_funnel_against_visibility_graph_oracle(dev333):
    # brute-force shortest path over sleeve corners, admissibility checked
    # per portal, independently of the funnel, in the reference sums
    RadicalSum = q3_radicals.RadicalSum

    def brute(portals, s, t):
        nodes = [("s", s)] + [
            (i, p) for i, pair in enumerate(portals) for p in pair
        ] + [("t", t)]
        best = {0: RadicalSum(0)}
        order = []
        n = len(nodes)

        def admissible(i, j):
            (ti, pi), (tj, pj) = nodes[i], nodes[j]
            lo = 0 if ti == "s" else ti + 1
            hi = len(portals) if tj == "t" else tj
            if ti != "s" and not on_segment(pi, *portals[ti]):
                return False
            for m in range(lo, hi):
                if not _segment_crosses(pi, pj, *portals[m]):
                    return False
            return True

        import heapq

        heap = [(0.0, 0, RadicalSum(0))]
        seen = set()
        while heap:
            _, i, dist = heapq.heappop(heap)
            if i in seen:
                continue
            seen.add(i)
            if i == n - 1:
                return dist
            for j in range(1, n):
                if j in seen or not admissible(i, j):
                    continue
                cand = dist + RadicalSum.sqrt_of(sqdist(nodes[i][1], nodes[j][1]))
                if j not in best or cand.compare(best[j]) < 0:
                    best[j] = cand
                    heapq.heappush(heap, (float(cand), j, cand))
        raise AssertionError("no admissible path")

    rng = random.Random(17)
    faces = [f for f in dev333.ball_faces() if 2 <= dev333.dist[f] <= 3]
    for f2 in rng.sample(faces, 4):
        for gallery in enumerate_galleries(dev333, 0, f2, dev333.dist[f2] + 2)[:6]:
            s = centroid(gallery.placements[0])
            t = centroid(gallery.placements[-1])
            oriented = orient_portals(gallery)
            fast = path_length(funnel_path(oriented, s, t))
            slow = brute(oriented, s, t)
            assert reference(fast).compare(slow) == 0


def test_catacomb_small_radius():
    dev = grow_to_radius(load_sample("d333"), 3)
    report = catacomb_check(dev, 1)
    assert report.ok and report.pairs_checked > 0


def test_catacomb_fault_injection():
    dev = grow_to_radius(load_sample("d333"), 3)
    assert catacomb_check(dev, 2).ok
    # corrupt the breadth-first distance table for one source: the geometric
    # crossing count must expose the injected pair
    victim = next(f for f in dev.ball_faces() if dev.dist[f] == 2)
    original = dev.bfs_from

    def corrupted(start, cap=None):
        table = dict(original(start, cap))
        if start == 0 and victim in table:
            table[victim] = 1
        return table

    dev.bfs_from = corrupted
    try:
        bad = catacomb_check(dev, 2)
    finally:
        del dev.bfs_from
    assert not bad.ok
    assert any(victim in pair[:2] for pair in bad.failures)


def test_catacomb_hyperbolic_sample():
    # half-girths (4,4,4) pass the gate; the equilateral structure is still
    # nonpositively curved and crossing counts match ball distances
    dev = grow_to_radius(load_sample("d444"), 3)
    report = catacomb_check(dev, 2)
    assert report.ok and report.pairs_checked > 40


# -- one search per source against the per-pair search ----------------------------


def _assert_same_result(result, ref, pair):
    assert (result.crossings, result.inconclusive) == (ref.crossings, ref.inconclusive), pair
    assert result.length == ref.length, pair
    assert result.squared_length == ref.squared_length, pair
    assert result.gallery == ref.gallery, pair
    assert result.path == ref.path, pair


def _assert_source_search_matches_per_pair(dev, radius, max_len=None, sources=None):
    """Every pair of the shared search, and cat0_geodesic on it, equals the
    per-pair reference field for field; returns the number of pairs."""
    pairs = 0
    for f1 in dev.ball_faces() if sources is None else sources:
        dists, found = source_geodesics(dev, f1, radius, max_len)
        expected = [f2 for f2 in dev.ball_faces() if f2 > f1 and dists.get(f2, radius + 1) <= radius]
        assert list(found) == expected
        for f2, entry in found.items():
            cap = max_len if max_len is not None else dists[f2] + 2 * dev.margin
            ref = reference_geodesic(dev, f1, f2, cap)
            _assert_same_result(_geodesic_result(*entry), ref, (f1, f2))
            _assert_same_result(cat0_geodesic(dev, f1, f2, cap), ref, (f1, f2))
        pairs += len(found)
    return pairs


def test_source_search_matches_per_pair_d333(dev333):
    pairs = _assert_source_search_matches_per_pair(dev333, 2)
    assert pairs == catacomb_check(dev333, 2).pairs_checked == 801


def test_source_search_matches_per_pair_d444():
    dev = grow_to_radius(load_sample("d444"), 8)
    pairs = _assert_source_search_matches_per_pair(dev, 1)
    assert pairs == catacomb_check(dev, 1).pairs_checked == 477


def test_source_search_matches_per_pair_max_len():
    dev = grow_to_radius(load_sample("d333"), 6)
    assert _assert_source_search_matches_per_pair(dev, 2, max_len=9) > 0
    # a cap below the pair distance plus one admits no gallery, as per pair
    f2 = next(f for f in dev.ball_faces() if dev.dist[f] == 2)
    with pytest.raises(OracleError, match="no gallery within max_len"):
        cat0_geodesic(dev, 0, f2, 2)
    with pytest.raises(OracleError, match="no gallery within max_len"):
        source_geodesics(dev, 0, 2, max_len=2)


@pytest.mark.parametrize("name, radius", [("d333", 3), ("d444", 2)])
def test_cat0_geodesic_matches_reference_off_the_catacomb_pairs(name, radius):
    # pairs no catacomb run asks for: one face twice, a source above its
    # target, targets and sources outside the trusted ball, and caps at and
    # below the pair distance that admit no gallery; results and errors agree
    dev = grow_to_radius(load_sample(name), radius)
    first = {d: dev.dist.index(d) for d in range(dev.dist[-1] + 1)}
    outside, last = first[radius + 1], dev.face_count - 1
    pairs = [(0, 0), (first[2], first[2]), (first[3], 0), (first[3], first[1] + 1),
             (0, outside), (first[2], outside), (outside, first[1]), (outside, outside),
             (first[1], last)]
    raised = 0
    for f1, f2 in pairs:
        d = dev.bfs_from(f1)[f2]
        for cap in sorted({1, d, d + 1, d + 3, d + 2 * dev.margin}):
            try:
                ref = reference_geodesic(dev, f1, f2, cap)
            except OracleError as exc:
                with pytest.raises(OracleError) as got:
                    cat0_geodesic(dev, f1, f2, cap)
                assert str(got.value) == str(exc), (f1, f2, cap)
                raised += 1
                continue
            _assert_same_result(cat0_geodesic(dev, f1, f2, cap), ref, (f1, f2, cap))
    assert raised >= 10


def test_source_search_matches_per_pair_f21():
    # k = 3: three faces per edge; a fixed sample of sources keeps it short
    dev = grow_to_radius(load_sample("f21_333"), 4)
    assert _assert_source_search_matches_per_pair(dev, 1, sources=dev.ball_faces()[::9]) > 50


# -- goal tables shared across sources against one table per pair -----------------


def _one_table_per_pair(dev, f1, radius):
    """source_geodesics with a goal table of its own for every pair, two
    steps past the pair's distance."""
    trusted = len(dev.ball_faces())
    dists = dev.bfs_from(f1, radius)
    targets = sorted(f2 for f2 in dists if f1 < f2 < trusted)
    if not targets:
        return dists, {}
    caps = [dists[f2] + 2 * dev.margin for f2 in targets]
    tables = [dev.bfs_from(f2, dists[f2] + 2) for f2 in targets]
    return dists, dict(zip(targets, oracle._search(dev, f1, targets, caps, tables)))


def _assert_shared_tables_match_per_pair(dev, radius):
    """Run the sources as catacomb_check does, sharing and dropping goal
    tables, and compare every entry with the per-pair tables; returns the
    pairs and the distinct targets."""
    tables = {}
    pairs, targets = 0, set()
    for f1 in dev.ball_faces():
        tables.pop(f1, None)
        dists, found = source_geodesics(dev, f1, radius, None, tables)
        expected_dists, expected = _one_table_per_pair(dev, f1, radius)
        assert dists == expected_dists and list(found) == list(expected)
        for f2, entry in found.items():
            got, ref = _geodesic_result(*entry), _geodesic_result(*expected[f2])
            _assert_same_result(got, ref, (f1, f2))
        assert min(tables, default=f1 + 1) > f1
        pairs += len(found)
        targets.update(found)
    return pairs, targets


def _catacomb_bfs_calls(dev, radius):
    calls = []
    original = dev.bfs_from

    def counted(start, cap=None):
        calls.append((start, cap))
        return original(start, cap)

    dev.bfs_from = counted
    try:
        report = catacomb_check(dev, radius)
    finally:
        del dev.bfs_from
    return report, calls


@pytest.mark.parametrize("name, ball_radius, pair_radii", [
    ("d333", 11, (1, 2)), ("d444", 8, (1, 2)), ("f21_333", 4, (1,)),
])
def test_shared_goal_tables_match_one_table_per_pair(dev333, name, ball_radius, pair_radii):
    dev = dev333 if name == "d333" else grow_to_radius(load_sample(name), ball_radius)
    assert dev.radius == ball_radius
    for radius in pair_radii:
        pairs, targets = _assert_shared_tables_match_per_pair(dev, radius)
        report, calls = _catacomb_bfs_calls(dev, radius)
        assert report.ok and report.pairs_checked == pairs > len(targets)
        # one search from each source and one goal table per target
        assert [f for f, cap in calls if cap == radius] == list(dev.ball_faces())
        assert sorted(f for f, cap in calls if cap == radius + 2) == sorted(targets)
        assert len(calls) == len(dev.ball_faces()) + len(targets)


# -- integer gallery kernel against the Q(sqrt 3) reference -----------------------


def _q3_point(p):
    # the gallery point (X, Y) stands for the plane point (X, Y*sqrt(3))
    return (Q3(p[0]), Q3(0, p[1]))


def _reference_segment_crosses(p, q, a, b):
    """The closed-segment predicate over Q(sqrt 3) points."""
    p, q, a, b = (_q3_point(x) for x in (p, q, a, b))
    d1 = q3_radicals.area2(p, q, a).sign()
    d2 = q3_radicals.area2(p, q, b).sign()
    d3 = q3_radicals.area2(a, b, p).sign()
    d4 = q3_radicals.area2(a, b, q).sign()
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    return (
        (d1 == 0 and q3_radicals.on_segment(a, p, q))
        or (d2 == 0 and q3_radicals.on_segment(b, p, q))
        or (d3 == 0 and q3_radicals.on_segment(p, a, b))
        or (d4 == 0 and q3_radicals.on_segment(q, a, b))
    )


def _lattice_cases(seed, count):
    """Random point quadruples, with collinear, endpoint and coincident cases
    mixed in so that every zero branch of the predicates is exercised."""
    rng = random.Random(seed)

    def rand_pt():
        return (rng.randint(-9, 9), rng.randint(-9, 9))

    cases = []
    for i in range(count):
        a, b, p, q = rand_pt(), rand_pt(), rand_pt(), rand_pt()
        kind = i % 5
        if kind == 1:  # p on the line ab, inside or beyond the segment
            k = rng.randint(-2, 3)
            p = (a[0] + k * (b[0] - a[0]), a[1] + k * (b[1] - a[1]))
        elif kind == 2:  # p at an endpoint
            p = rng.choice((a, b))
        elif kind == 3:  # pq along ab
            p = (2 * a[0] - b[0], 2 * a[1] - b[1])
            q = (3 * b[0] - 2 * a[0], 3 * b[1] - 2 * a[1])
        elif kind == 4:  # degenerate segment
            b = a
        cases.append((a, b, p, q))
    return cases


def test_integer_predicates_match_q3_reference():
    for a, b, p, q in _lattice_cases(2024, 3000):
        qa, qb, qp = _q3_point(a), _q3_point(b), _q3_point(p)
        # twice the signed area is sqrt(3) times the integer area2
        assert q3_radicals.area2(qa, qb, qp) == Q3(0, area2(a, b, p))
        assert q3_radicals.area2(qa, qb, qp).sign() == (area2(a, b, p) > 0) - (area2(a, b, p) < 0)
        assert q3_radicals.sqdist(qa, qp) == Q3(sqdist(a, p))
        assert q3_radicals.on_segment(qp, qa, qb) == on_segment(p, a, b)
        assert q3_radicals.segment_point_sqdist(qa, qb, qp) == Q3(segment_point_sqdist(a, b, p))
        assert _segment_crosses(p, q, a, b) == _reference_segment_crosses(p, q, a, b)


def test_gallery_corners_stay_on_the_integer_lattice(dev333):
    # centroids divide exactly because every corner coordinate is a multiple of 3
    f2 = next(f for f in dev333.ball_faces() if dev333.dist[f] == 3)
    for gallery in enumerate_galleries(dev333, 0, f2, 5):
        for placed in gallery.placements:
            assert all(x % 3 == 0 and y % 3 == 0 for x, y in placed.values())
            cx, cy = centroid(placed)
            assert sum(x for x, _ in placed.values()) == 3 * cx
            assert sum(y for _, y in placed.values()) == 3 * cy


def test_cat0_source_beyond_max_len(dev333):
    f2 = next(f for f in dev333.ball_faces() if dev333.dist[f] == 5)
    with pytest.raises(OracleError, match="no gallery within max_len"):
        cat0_geodesic(dev333, 0, f2, 4)
    # within max_len faces but no gallery of that many faces reaches f2
    with pytest.raises(OracleError, match="no gallery within max_len"):
        cat0_geodesic(dev333, 0, f2, 5)
    assert cat0_geodesic(dev333, 0, f2, 6).crossings == 5


def _random_steps(rng: random.Random) -> list[tuple[int, int]]:
    while True:
        steps = [(rng.randrange(-4, 5), rng.randrange(-3, 4)) for _ in range(rng.randrange(1, 5))]
        if (0, 0) not in steps:
            return steps


def _path_of(rng: random.Random, steps: list[tuple[int, int]]) -> list[tuple[int, int]]:
    path = [(rng.randrange(-9, 10), rng.randrange(-9, 10))]
    for dx, dy in steps:
        path.append((path[-1][0] + dx, path[-1][1] + dy))
    return path


@pytest.mark.parametrize("bits", [_ROOT_BITS, 2])
def test_measured_path_comparisons_match_radical_sums(monkeypatch, bits):
    # a path with permuted segments has an equal length and other
    # breakpoints; no enclosure parts the two, so the exact fallback decides.
    # Two-bit enclosures also send near misses and _exceeded_by there.
    calls = []
    compare = RadicalSum.compare

    def counted(xs, ys):
        calls.append(xs.terms)
        return compare(xs, ys)

    monkeypatch.setattr(oracle, "_ROOT_BITS", bits)
    monkeypatch.setattr(RadicalSum, "compare", counted)
    rng = random.Random(3141 + bits)
    ties = 0
    for _ in range(800):
        steps = _random_steps(rng)
        a = _MeasuredPath(_path_of(rng, steps))
        if rng.random() < 0.5:
            rng.shuffle(steps)
        else:
            steps = _random_steps(rng)
        b = _MeasuredPath(_path_of(rng, steps))
        la, lb = reference(path_length(a.path)), reference(path_length(b.path))
        ties += la.compare(lb) == 0
        assert a.shorter_than(b) == (la.compare(lb) < 0)
        assert b.shorter_than(a) == (lb.compare(la) < 0)
        qs = [sum(a.squares), Fraction(rng.randrange(400), rng.randrange(1, 9))]
        if bits == 2:
            # squared lengths inside the enclosure, which only the fallback parts
            qs += [Fraction(x * y, 1 << 2 * bits) for x, y in ((a.lo, a.lo), (a.lo, a.hi), (a.hi, a.hi))]
        for q in qs:
            assert _exceeded_by(a, q) == (q3_radicals.RadicalSum.sqrt_of(q).compare(la) > 0), (a.path, q)
    assert ties > 200
    # _exceeded_by passes its rational as the only term with a fraction
    from_exceeded = sum(isinstance(xs[0][0], Fraction) for xs in calls)
    assert len(calls) - from_exceeded > 200
    assert from_exceeded > (200 if bits == 2 else -1)


def test_exceeded_by_with_a_large_prime_radicand(monkeypatch):
    # the first segment's squared length is a prime of 81 bits; the exact
    # fallback classes radicands by perfect-square products, never by
    # factoring, so it returns at once
    calls = []
    compare = RadicalSum.compare

    def counted(xs, ys):
        calls.append(xs.terms)
        return compare(xs, ys)

    monkeypatch.setattr(RadicalSum, "compare", counted)
    x = 1099511627858
    path = _MeasuredPath([(0, 0), (x, 5), (x + 1, 5)])
    assert path.squares == [x * x + 75, 1] and path.squares[0].bit_length() == 81
    length = reference(path_length(path.path))
    start = time.perf_counter()
    # squared lengths at and inside the enclosure, which only the fallback parts
    for a, b in ((path.lo, path.lo), (path.lo, path.hi), (path.hi, path.hi)):
        q = Fraction(a * b, 1 << 2 * _ROOT_BITS)
        assert _exceeded_by(path, q) == (q3_radicals.RadicalSum.sqrt_of(q).compare(length) > 0), q
    assert time.perf_counter() - start < 1
    assert len(calls) == 3
