"""Two independent oracles for the ball construction.

The first realizes the three Euclidean 2-fold cases as reflection groups of
the plane and builds Cayley balls by breadth-first search over chambers.  A
Coxeter group acts simply transitively on the chambers of its tiling, so an
element is the image of the base triangle, held as its three integer corners
by vertex type, and right multiplication by a letter crosses that letter's
mirror.  The second unfolds galleries of triangles into the plane, runs an
exact funnel shortest-path over the portal sequence, and counts crossed
edges, which certifies that the breadth-first ball metric agrees with the
geometric one.  The chamber walk holds a corner as an integer pair (X, Y)
standing for (X, Y*sqrt(w)) with w 1 or 3, the gallery kernel a point as one
standing for (X, Y*sqrt(3)), so both are plain integer arithmetic.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction
from math import isqrt

from .development import Development, VerificationError
from .groups import LETTER_TYPES
from .rings import RadicalSum
from .samples import REFLECTION_SAMPLES as GROUP_IDS


class OracleError(VerificationError, ValueError):
    pass


# -- chamber walk ----------------------------------------------------------------

# A chamber is its corners by vertex type; corner i carries the angle pi/r_i.
# The corner (x, y) stands for the plane point (x, y*sqrt(w)), and each base
# triangle is scaled so that every reflection keeps its corners integral.
Corner = tuple[int, int]
Chamber = tuple[Corner, Corner, Corner]

_CHAMBERS: dict[str, tuple[Chamber, int]] = {
    "d333": (((0, 0), (2, 0), (1, 1)), 3),
    "d244": (((0, 0), (1, 0), (0, 1)), 1),
    "d236": (((0, 0), (2, 0), (0, 2)), 3),
}


def _reflect(c: Corner, a: Corner, b: Corner, w: int) -> Corner:
    """The mirror image of c across the line through a and b."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    cx, cy = c[0] - a[0], c[1] - a[1]
    dd = dx * dx + w * dy * dy
    t2 = 2 * (cx * dx + w * cy * dy)
    x, rx = divmod(t2 * dx, dd)
    y, ry = divmod(t2 * dy, dd)
    if rx or ry:
        raise OracleError("reflected corner leaves the integer lattice")
    return (a[0] + x - cx, a[1] + y - cy)


def _cross(g: Chamber, letter: int, w: int) -> Chamber:
    """The chamber g*x beyond the mirror of letter x: the two corners on the
    mirror stay, the third is reflected across them."""
    s, t = LETTER_TYPES[letter]
    out = list(g)
    out[3 - s - t] = _reflect(g[3 - s - t], g[s], g[t], w)
    return tuple(out)


class IsometryBall(namedtuple("IsometryBall", "group_id radius elements dist neighbors")):
    """Cayley ball of a plane reflection group, one chamber per element;
    neighbors[i] maps a letter index to the element across it."""

    __slots__ = ()

    @property
    def sphere_sizes(self) -> list[int]:
        sizes = [0] * (self.radius + 1)
        for d in self.dist:
            sizes[d] += 1
        return sizes


def isometry_ball(group_id: str, radius: int) -> IsometryBall:
    try:
        base, w = _CHAMBERS[group_id]
    except KeyError:
        raise OracleError(
            f"unknown oracle group {group_id!r}; available: {', '.join(GROUP_IDS)}"
        )
    elements = [base]
    index = {base: 0}
    dist = [0]
    neighbors: list[dict[int, int]] = [{}]
    frontier = [0]
    for d in range(radius):
        new_frontier = []
        for ei in frontier:
            g = elements[ei]
            for letter in range(3):
                h = _cross(g, letter, w)
                hi = index.get(h)
                if hi is None:
                    hi = len(elements)
                    index[h] = hi
                    elements.append(h)
                    dist.append(d + 1)
                    neighbors.append({})
                    new_frontier.append(hi)
                neighbors[ei][letter] = hi
                neighbors[hi][letter] = ei
        frontier = new_frontier
    return IsometryBall(group_id, radius, elements, dist, neighbors)


class BallComparison(namedtuple("BallComparison", "ok radius matched detail", defaults=("",))):
    __slots__ = ()

    def __bool__(self):
        return self.ok


def compare_balls(dev: Development, ball: IsometryBall, radius: int) -> BallComparison:
    """Compare the development ball with the oracle ball face for face.

    Both number their elements breadth first from the base face, crossing
    letters in order, so two balls that agree as letter-labelled graphs
    agree id for id.  The check is equal ball sizes, equal distances, and
    the same neighbour across every letter of every face below the radius;
    it reports the first face that differs.
    """
    if dev.k != 2:
        raise OracleError("isometry oracle covers only 2-fold specs")
    if radius > dev.radius or radius > ball.radius:
        raise OracleError("both balls must be trusted out to the requested radius")
    dev_size = len(dev.ball_faces(radius))
    oracle_size = bisect_right(ball.dist, radius)
    if dev_size != oracle_size:
        return BallComparison(
            False, radius, 0,
            f"ball sizes differ: development {dev_size}, oracle {oracle_size}",
        )
    for f in range(dev_size):
        if dev.dist[f] != ball.dist[f]:
            return BallComparison(False, radius, f, f"distance mismatch at face {f}")
        if dev.dist[f] < radius:
            for letter in range(3):  # k=2: symbol index == letter index
                if dev.neighbor(f, letter) != ball.neighbors[f].get(letter):
                    return BallComparison(
                        False, radius, f, f"neighbours across letter {letter} differ at face {f}"
                    )
    return BallComparison(True, radius, dev_size)


# -- gallery unfolding ---------------------------------------------------------

# Unfolded coordinates are scaled by 6.  Every triangle corner is then the
# plane point (X, Y*sqrt(3)) with X and Y integer multiples of 3: the base
# corners are (0, 0), (6, 0) and (3, 3*sqrt(3)), and the apex reflection
# a + b - c keeps that form.  A gallery point is held as the int pair (X, Y),
# so centroids divide exactly and every predicate below is plain integer
# arithmetic; reported lengths are unscaled at the end.
GalleryPoint = tuple[int, int]

_UNFOLD_SCALE = 6
_BASE_CORNERS: dict[int, GalleryPoint] = {0: (0, 0), 1: (6, 0), 2: (3, 3)}


def area2(a: GalleryPoint, b: GalleryPoint, c: GalleryPoint) -> int:
    """Twice the signed area of the triangle a, b, c, divided by sqrt(3)."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def sqdist(a: GalleryPoint, b: GalleryPoint) -> int:
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    return dx * dx + 3 * dy * dy


def on_segment(p: GalleryPoint, a: GalleryPoint, b: GalleryPoint) -> bool:
    """Exact membership of p in the closed segment [a, b]."""
    if area2(a, b, p) != 0:
        return False
    dx = b[0] - a[0]
    dy = b[1] - a[1]
    t = (p[0] - a[0]) * dx + 3 * (p[1] - a[1]) * dy
    return 0 <= t <= dx * dx + 3 * dy * dy


def segment_point_sqdist(a: GalleryPoint, b: GalleryPoint, p: GalleryPoint) -> int | Fraction:
    """Exact squared distance from point p to segment [a, b]."""
    num, den = _segment_point_sqdist_ratio(a, b, p)
    return num if den == 1 else Fraction(num, den)


def _segment_point_sqdist_ratio(a: GalleryPoint, b: GalleryPoint, p: GalleryPoint) -> tuple[int, int]:
    """segment_point_sqdist as an unreduced (numerator, denominator) pair."""
    dx = b[0] - a[0]
    dy = b[1] - a[1]
    px = p[0] - a[0]
    py = p[1] - a[1]
    pp = px * px + 3 * py * py
    t = px * dx + 3 * py * dy
    if t <= 0:
        return pp, 1
    dd = dx * dx + 3 * dy * dy
    if t >= dd:
        return sqdist(b, p), 1
    # the foot of the perpendicular lies inside: |p - a|^2 - t^2 / |b - a|^2
    return pp * dd - t * t, dd


class Gallery(namedtuple("Gallery", "faces edges placements portals")):
    """A sequence of faces, consecutive ones sharing an edge, with its unfolding.

    edges[i] is the development edge between faces i and i+1; placements[i]
    maps each vertex type of face i to a gallery point; portals[i] is the
    pair of points shared by faces i and i+1, together with the development
    vertex ids sitting at those points.
    """

    __slots__ = ()


def _require_metric_gate(dev: Development) -> None:
    if any(r == 2 for r in dev.spec.half_girths):
        raise OracleError(
            "metric oracle unavailable for this spec: the unit equilateral "
            "metric needs all half-girths at least 3"
        )


def _step_across(
    placed: dict[int, GalleryPoint] | tuple[GalleryPoint, ...], s0: int, s1: int, other: int
) -> tuple[tuple[GalleryPoint, ...], tuple[GalleryPoint, GalleryPoint]]:
    """The placement, by vertex type, of the face beyond the side of types
    s0 and s1, and that side as a portal (left, right) seen crossing it."""
    a, b, c = placed[s0], placed[s1], placed[other]
    # for an equilateral triangle the foot of the apex is the base midpoint
    apex = (a[0] + b[0] - c[0], a[1] + b[1] - c[1])
    beyond = [a, a, a]
    beyond[s1] = b
    beyond[other] = apex
    return tuple(beyond), ((a, b) if area2(c, apex, a) > 0 else (b, a))


def centroid(placed: dict[int, GalleryPoint] | tuple[GalleryPoint, ...]) -> GalleryPoint:
    (x0, y0), (x1, y1), (x2, y2) = placed[0], placed[1], placed[2]
    return ((x0 + x1 + x2) // 3, (y0 + y1 + y2) // 3)


# -- exact funnel over a portal sleeve ------------------------------------------


def funnel_path(
    portals: list[tuple[GalleryPoint, GalleryPoint]], start: GalleryPoint, goal: GalleryPoint
) -> list[GalleryPoint]:
    """Shortest path through an ordered sleeve of portal segments.

    Portals must be oriented (left, right) as seen along the walk.  Collinear
    configurations tighten the funnel, so paths through portal endpoints are
    produced exactly.
    """
    pts = [(start, start)] + list(portals) + [(goal, goal)]
    n = len(pts)
    path = [start]
    apex, left, right = start, start, start
    apex_i = left_i = right_i = 0
    i = 1
    while i < n:
        pl, prv = pts[i]
        # tighten the right side: the candidate narrows when it sits on or
        # left of the apex-right ray, and crosses over when it passes the
        # apex-left ray, in which case the left point becomes the new apex
        if area2(apex, right, prv) >= 0:
            if right == apex or area2(apex, left, prv) <= 0:
                right, right_i = prv, i
            else:
                path.append(left)
                apex, apex_i = left, left_i
                left = right = apex
                left_i = right_i = apex_i
                i = apex_i + 1
                continue
        # tighten the left side, mirrored
        if area2(apex, left, pl) <= 0:
            if left == apex or area2(apex, right, pl) >= 0:
                left, left_i = pl, i
            else:
                path.append(right)
                apex, apex_i = right, right_i
                left = right = apex
                left_i = right_i = apex_i
                i = apex_i + 1
                continue
        i += 1
    path.append(goal)
    deduped = [path[0]]
    for p in path[1:]:
        if p != deduped[-1]:
            deduped.append(p)
    return deduped


def path_length(path: list[GalleryPoint]) -> RadicalSum:
    """The length of the path, in the units of the unfolding."""
    return RadicalSum((1, sqdist(a, b)) for a, b in zip(path, path[1:]))


# path lengths are enclosed in integer multiples of 2**-_ROOT_BITS, which
# settles nearly every length comparison without reducing square roots
_ROOT_BITS = 40


class _MeasuredPath:
    """A path with an exact or a rigorously enclosed length;
    RadicalSum.compare settles a comparison that neither decides."""

    def __init__(self, path: list[GalleryPoint]):
        self.path = path
        # funnel paths have distinct consecutive points, so squares[0] > 0
        self.squares = squares = [sqdist(a, b) for a, b in zip(path, path[1:])]
        # lo <= 2**_ROOT_BITS * length <= hi
        self.lo = self.hi = 0
        for n in squares:
            n <<= 2 * _ROOT_BITS
            r = isqrt(n)
            self.lo += r
            self.hi += r if r * r == n else r + 1
        # when every squared segment is n0 times a rational square, the
        # length is sqrt(n0) * sum(sqrt(n * n0)) / n0, and its square is the
        # rational self.square[0] / self.square[1]
        n0 = squares[0]
        total = 0
        for n in squares:
            r = isqrt(n * n0)
            if r * r != n * n0:
                self.square = None
                break
            total += r
        else:
            self.square = (total * total, n0)

    def shorter_than(self, other: _MeasuredPath) -> bool:
        if self.square is not None and other.square is not None:
            return self.square[0] * other.square[1] < other.square[0] * self.square[1]
        if self.lo > other.hi:
            return False
        if self.hi < other.lo:
            return True
        return RadicalSum((1, n) for n in self.squares).compare(
            RadicalSum((1, n) for n in other.squares)
        ) < 0


def _check_path_in_sleeve(
    path: list[GalleryPoint], oriented: list[tuple[GalleryPoint, GalleryPoint]]
) -> None:
    """Each portal segment must meet the path; exact containment audit."""
    for a, b in oriented:
        hit = False
        for p, q in zip(path, path[1:]):
            if _segment_crosses(p, q, a, b):
                hit = True
                break
        if not hit:
            raise OracleError("funnel path escaped its sleeve at a portal")


def _segment_crosses(p: GalleryPoint, q: GalleryPoint, a: GalleryPoint, b: GalleryPoint) -> bool:
    """Closed-segment intersection predicate, touching counts."""
    d1 = area2(p, q, a)
    d2 = area2(p, q, b)
    d3 = area2(a, b, p)
    d4 = area2(a, b, q)
    if ((d1 < 0 < d2) or (d2 < 0 < d1)) and ((d3 < 0 < d4) or (d4 < 0 < d3)):
        return True
    if d1 == 0 and on_segment(a, p, q):
        return True
    if d2 == 0 and on_segment(b, p, q):
        return True
    if d3 == 0 and on_segment(p, a, b):
        return True
    if d4 == 0 and on_segment(q, a, b):
        return True
    return False


class GeodesicResult(namedtuple(
    "GeodesicResult", "squared_length length gallery path crossings inconclusive",
    defaults=(False,),
)):
    """Lengths are RadicalSums; path is the list of GalleryPoints."""

    __slots__ = ()


def cat0_geodesic(dev: Development, f1: int, f2: int, max_len: int) -> GeodesicResult:
    """Shortest centroid-to-centroid path over galleries of up to max_len faces.

    Only galleries without repeated faces are searched: a geodesic meets each
    convex face in a connected set, so its own gallery never revisits one.
    Simple connectivity plus nonpositive curvature then make the gallery-wise
    minimum global once max_len exceeds the crossing count of the true
    geodesic; the inconclusive flag reports when the winner sits at the
    search boundary.  This is the one-target case of the gallery search that
    source_geodesics runs (_search).
    """
    _require_metric_gate(dev)
    if f1 == f2:
        zero = RadicalSum()
        gallery = Gallery([f1], [], [dict(_BASE_CORNERS)], [])
        return GeodesicResult(zero, zero, gallery, [centroid(_BASE_CORNERS)], 0)
    table = dev.bfs_from(f2, max_len)
    if f1 not in table:
        raise OracleError("no gallery within max_len; raise max_len")
    return _geodesic_result(*_search(dev, f1, [f2], [max_len], [table])[0])


def _geodesic_result(
    path: _MeasuredPath, gallery: Gallery, crossings: int, inconclusive: bool
) -> GeodesicResult:
    length = path_length(path.path)
    unscale = Fraction(1, _UNFOLD_SCALE)
    return GeodesicResult(
        length.squared() * (unscale * unscale),
        length * unscale,
        gallery,
        path.path,
        crossings,
        inconclusive,
    )


def count_crossings(dev: Development, gallery: Gallery, path: list[GalleryPoint]) -> int:
    """Edges crossed by the path, counting a pass through a vertex as the
    shortest triangle fan around it."""
    events: list[tuple[str, int, int]] = []  # ("cross", portal_idx, -1) or ("vertex", portal_idx, vid)
    for idx, (a, b, va, vb) in enumerate(gallery.portals):
        touched = -1
        for p, q in zip(path, path[1:]):
            if on_segment(a, p, q):
                touched = va
                break
            if on_segment(b, p, q):
                touched = vb
                break
        if touched >= 0:
            events.append(("vertex", idx, touched))
        else:
            events.append(("cross", idx, -1))
    crossings = 0
    i = 0
    while i < len(events):
        kind, idx, vid = events[i]
        if kind == "cross":
            crossings += 1
            i += 1
            continue
        # group consecutive portals touched at vertices with no transversal
        # crossing in between; the run may involve several adjacent vertices
        j = i
        vids = []
        while j < len(events) and events[j][0] == "vertex":
            vids.append(events[j][2])
            j += 1
        entry_face = gallery.faces[events[i][1]]
        exit_face = gallery.faces[events[j - 1][1] + 1]
        crossings += _fan_distance(dev, vids, entry_face, exit_face)
        i = j
    return crossings


def _fan_distance(dev: Development, vids: list[int], entry: int, exit: int) -> int:
    """Fewest shared edges between faces along the touched vertex run."""
    allowed = set()
    for vid in vids:
        allowed.update(dev.faces_at_vertex(vid))
    dist = {entry: 0}
    queue = [entry]
    for f in queue:
        if f == exit:
            return dist[f]
        for g in dev.adjacent_faces(f):
            if g in allowed and g not in dist:
                dist[g] = dist[f] + 1
                queue.append(g)
    raise OracleError("vertex fan is not connected inside the ball")


class CrossingReport(namedtuple(
    "CrossingReport", "ok pairs_checked failures inconclusive farthest"
)):
    """failures and inconclusive list face pairs; farthest is the largest
    ball distance of a checked pair."""

    __slots__ = ()

    def __bool__(self):
        return self.ok


def catacomb_check(dev: Development, radius: int, max_len: int | None = None) -> CrossingReport:
    """Crossing count of the geometric geodesic must equal the ball distance,
    for every face pair within the given distance."""
    _require_metric_gate(dev)
    failures = []
    inconclusive = []
    pairs = farthest = 0
    # one goal table per target, shared by its sources; sources ascend and
    # every target lies above its source, so f1's table is done with
    tables: dict[int, dict[int, int]] = {}
    for f1 in dev.ball_faces():
        tables.pop(f1, None)
        dists, found = source_geodesics(dev, f1, radius, max_len, tables)
        pairs += len(found)
        for f2, (_path, _gallery, crossings, unsure) in found.items():
            farthest = max(farthest, dists[f2])
            if unsure:
                inconclusive.append((f1, f2))
            elif crossings != dists[f2]:
                failures.append((f1, f2, dists[f2], crossings))
    return CrossingReport(not failures and not inconclusive, pairs, failures, inconclusive, farthest)


# A gallery path from the start crosses a portal, then runs inside the
# complex to the goal centroid.  Up to the portal it is at least as long as
# the shortest path through the sleeve so far: the path to the funnel's apex
# plus the distance from the apex to the portal (_cross_portal).  From the
# portal on it is at least sqrt(tail) long, in the squared units of the
# unfolding (unit sides scaled by 6): the goal centroid is sqrt(3) from the
# goal's edges, so tail 3 holds for every portal, and every point of a face
# two or more gallery steps from the goal is at least 2*sqrt(3) from its
# centroid, so tail 12 holds when the portal's face is that far.  For the
# latter, fold the goal's edge neighbours onto the plane triangle of twice
# the side around the goal: the map is 1-Lipschitz, the far faces lie
# outside it, and its boundary is 2*sqrt(3) from the centre.
_TAIL_FLOORS = {tail: isqrt(tail << 2 * _ROOT_BITS) for tail in (3, 12)}

# (apex, floor, squares, left chain, right chain): every shortest path from
# the start to the latest portal runs through the apex; squares are the
# squared segment lengths of the path up to the apex, and floor the sum of
# their rounded-down lengths times 2**_ROOT_BITS; each chain runs from the
# apex to one end of the portal, turning left on the left and right on the
# right (the funnel of Lee and Preparata).
_Funnel = tuple[GalleryPoint, int, tuple[int, ...], tuple[GalleryPoint, ...], tuple[GalleryPoint, ...]]


def _cross_portal(funnel: _Funnel, left: GalleryPoint, right: GalleryPoint) -> _Funnel:
    """The funnel once the walk crosses the portal (left, right)."""
    apex, floor, squares, lchain, rchain = funnel
    if len(lchain) == 1 and len(rchain) == 1:
        # the first portal is an edge of the start face, seen whole
        return apex, floor, squares, (apex, left), (apex, right)
    # consecutive portals are two edges of one face: one end is new
    if left == lchain[-1]:
        new, sign, chain, other = right, -1, list(rchain), list(lchain)
    elif right == rchain[-1]:
        new, sign, chain, other = left, 1, list(lchain), list(rchain)
    else:
        raise OracleError("consecutive portals share no end on the same side")
    # drop the chain's last corner while the new end does not turn past it
    while len(chain) >= 2 and sign * area2(chain[-2], chain[-1], new) <= 0:
        chain.pop()
    if len(chain) == 1:
        # the chain is down to the apex: while the other chain's first corner
        # hides the new end from the apex, the path bends there
        while len(other) >= 2 and sign * area2(apex, other[1], new) < 0:
            square = sqdist(apex, other[1])
            squares += (square,)
            floor += isqrt(square << 2 * _ROOT_BITS)
            apex = other[1]
            del other[0]
            chain = [apex]
    chain.append(new)
    if sign < 0:
        return apex, floor, squares, tuple(other), tuple(chain)
    return apex, floor, squares, tuple(chain), tuple(other)


def _bound_sign(funnel: _Funnel, num: int, den: int, tail: int, path: _MeasuredPath) -> int:
    """The exact sign of the bound minus the path length, where the bound is
    the funnel's path to its apex, then sqrt(num / den) from the apex to the
    portal, then sqrt(tail).  Both sides are scaled by den, which keeps
    every coefficient an integer: den * sqrt(num / den) = sqrt(num * den)."""
    bound = [(1, num * den), (den, tail)] + [(den, square) for square in funnel[2]]
    return RadicalSum(bound).compare(RadicalSum((den, square) for square in path.squares))


# one target's best gallery: measured path, gallery, crossings, inconclusive
_Best = tuple[_MeasuredPath, Gallery, int, bool]


def source_geodesics(
    dev: Development,
    f1: int,
    radius: int,
    max_len: int | None = None,
    tables: dict[int, dict[int, int]] | None = None,
) -> tuple[dict[int, int], dict[int, _Best]]:
    """The catacomb pairs (f1, f2) with f1 < f2, both trusted and at most
    radius apart, solved by one gallery search from f1.

    Returns the ball distances from f1 and, in ascending f2, the best gallery
    of each pair.  For every pair, _geodesic_result of that entry equals
    cat0_geodesic(dev, f1, f2, cap), where cap is max_len or the ball
    distance plus twice the margin.  tables holds goal tables by target, out
    to radius + 2; those missing are added to it, so sources with the same
    radius can share them.
    """
    trusted = len(dev.ball_faces())
    dists = dev.bfs_from(f1, radius)
    targets = sorted(f2 for f2 in dists if f1 < f2 < trusted)
    if not targets:
        return dists, {}
    caps = [max_len if max_len is not None else dists[f2] + 2 * dev.margin for f2 in targets]
    # the goal tables only bound reach, so any depth is sound; two beyond
    # the pair radius keeps them small on a hyperbolic ball
    if tables is None:
        tables = {}
    for f2 in targets:
        if f2 not in tables:
            tables[f2] = dev.bfs_from(f2, radius + 2)
    goals = [tables[f2] for f2 in targets]
    return dists, dict(zip(targets, _search(dev, f1, targets, caps, goals)))


def _descending_gallery(dev: Development, f1: int, to_goal: dict[int, int]) -> list[int]:
    """A shortest face path from f1 down a goal distance table to its goal."""
    walk = [f1]
    cur = f1
    while to_goal[cur]:
        want = to_goal[cur] - 1
        cur = next(g for g in dev.adjacent_faces(cur) if to_goal.get(g) == want)
        walk.append(cur)
    return walk


def _gallery_path(dev: Development, faces: list[int]) -> _MeasuredPath:
    """The funnel path through the gallery, unfolded as _search unfolds."""
    placed = (_BASE_CORNERS[0], _BASE_CORNERS[1], _BASE_CORNERS[2])
    oriented = []
    for cur, nxt in zip(faces, faces[1:]):
        s0, s1 = dev.letter_types[dev.edge_letter[dev.shared_edge(cur, nxt)]]
        placed, portal = _step_across(placed, s0, s1, 3 - s0 - s1)
        oriented.append(portal)
    return _MeasuredPath(funnel_path(oriented, centroid(_BASE_CORNERS), centroid(placed)))


def _search(
    dev: Development, f1: int, targets: list[int], caps: list[int], tables: list[dict[int, int]]
) -> list[_Best]:
    """The best gallery from f1 to every target, from one search.

    The search walks the simple galleries from f1 depth first, neighbours in
    adjacent_faces order, and keeps a branch only while some target off the
    walk can still be reached within its cap and improved.  Each target
    keeps the first gallery of least length in that order among those of at
    most its cap faces, whatever the other targets, because a branch is
    dropped for a target only when no gallery through it could tie that
    winner:

    - reach: tables[i] holds goal distances from targets[i] out to some
      depth; a face missing from it is farther, so it is a lower bound;
    - length: the funnel up to the latest portal, plus a tail to the goal,
      bounds every gallery through the walk from below (_TAIL_FLOORS).
      Before a target has a best, it is bounded by the funnel length of a
      descending ball geodesic, which the search also meets, so a tie with
      that bound keeps the branch; once it has a best, a later gallery must
      be strictly shorter to replace it.
    """
    n = len(targets)
    beyond = [max(table.values()) + 1 for table in tables]
    best: list[_Best | None] = [None] * n
    # per target, the path a branch must stay under, the sign of (bound minus
    # its length) below which the branch lives (1 against the seed, 0 once a
    # best exists), and, for tails 3 and 12, the limits on the bound's floor
    # less the tail (x below) under which the bound is surely shorter than
    # the path and over which it is surely longer; None while nothing bounds
    # the target
    bars: list[tuple | None] = [None] * n

    def set_bar(i: int, path: _MeasuredPath, allow: int) -> None:
        bars[i] = (path, allow) + tuple(
            x
            for floor in (_TAIL_FLOORS[3], _TAIL_FLOORS[12])
            for x in (path.lo - floor - 2, path.hi - floor)
        )

    # per target, the descending gallery that seeds its bar and the seed's
    # measured path, which offer reuses when the walk is that gallery
    seeds: list[tuple[list[int], _MeasuredPath] | None] = [None] * n
    for i, (cap, table) in enumerate(zip(caps, tables)):
        d = table.get(f1)
        if d is not None and d < cap:
            faces = _descending_gallery(dev, f1, table)
            seeds[i] = faces, _gallery_path(dev, faces)
            set_bar(i, seeds[i][1], 1)
    index = {t: i for i, t in enumerate(targets)}

    adjacency = dev.adjacent_faces
    f_edge = dev.f_edge
    edge_letter = dev.edge_letter
    edge_ends = dev.edge_ends
    letter_types = dev.letter_types
    start = centroid(_BASE_CORNERS)

    def offer(i: int) -> None:
        """Make the walk target i's best gallery if it beats the bar."""
        seed = seeds[i]
        if seed is not None and walk == seed[0]:
            path = seed[1]
        else:
            path = _MeasuredPath(funnel_path(oriented, start, centroid(placements[-1])))
        if best[i] is not None:
            if not path.shorter_than(best[i][0]):
                return
        elif bars[i] is not None and bars[i][0].shorter_than(path):
            return
        gallery = Gallery(
            list(walk), list(edges), [dict(enumerate(placed)) for placed in placements], list(portals)
        )
        _check_path_in_sleeve(path.path, oriented)
        best[i] = (path, gallery, count_crossings(dev, gallery, path.path), len(walk) >= caps[i])
        set_bar(i, path, 0)

    # the walk, pushed and popped in place: faces, their placements (corner
    # points by vertex type), crossed edges, portals and oriented portals
    walk = [f1]
    on_walk = {f1}
    placements = [(_BASE_CORNERS[0], _BASE_CORNERS[1], _BASE_CORNERS[2])]
    edges: list[int] = []
    portals: list[tuple[GalleryPoint, GalleryPoint, int, int]] = []
    oriented: list[tuple[GalleryPoint, GalleryPoint]] = []
    # per walk face, its placement in the unfolding with fold-backs
    # straightened, and the funnel there (see _cross_portal)
    sleeves: list[tuple[tuple[GalleryPoint, ...], _Funnel]] = [
        (placements[0], (start, 0, (), (start,), (start,)))
    ]
    # one frame per walk face: its neighbour iterator and the live targets
    frames = [(iter(adjacency(f1)), list(range(n)))]
    while frames:
        neighbours, live = frames[-1]
        budget = len(walk) + 1  # faces on the walk once a neighbour is added
        # per live target: its goal table, the steps it gives a face missing
        # from it, and the most steps a face on the walk may still be away
        checks = [(i, tables[i], beyond[i], caps[i] - budget) for i in live]
        for nxt in neighbours:
            if nxt in on_walk:
                continue
            hit = index.get(nxt, -1)
            if hit >= 0 and (hit not in live or caps[hit] < budget):
                hit = -1
            # live targets still within their cap from nxt, with the tail
            reach = [] if hit < 0 else [(hit, 3)]
            for i, table, missing, limit in checks:
                if i != hit:
                    steps = table.get(nxt, missing)
                    if steps <= limit:
                        reach.append((i, 12 if steps >= 2 else 3))
            if not reach:
                continue
            cur = walk[-1]
            ec, en = 3 * cur, 3 * nxt
            letter = 0 if f_edge[ec] == f_edge[en] else 1 if f_edge[ec + 1] == f_edge[en + 1] else 2
            edge = f_edge[ec + letter]
            if f_edge[en + letter] != edge:
                raise OracleError(f"faces {cur} and {nxt} share no edge")
            s0, s1 = letter_types[edge_letter[edge]]
            other = 3 - s0 - s1
            straight, funnel = sleeves[-1]
            if not edges or edge != edges[-1]:
                straight, portal = _step_across(straight, s0, s1, other)
                funnel = _cross_portal(funnel, *portal)
            # else nxt folds back across the edge that entered cur: a path
            # through both crossings is as long as one crossing the edge once
            # into nxt placed where cur is, so the bound keeps cur's sleeve
            num, den = _segment_point_sqdist_ratio(funnel[3][-1], funnel[4][-1], funnel[0])
            # 2**_ROOT_BITS times the bound lies in [lo, lo + 2 + slack) for
            # lo = x plus the tail's floor, one unit per rounded square root
            x = funnel[1] + isqrt((num << 2 * _ROOT_BITS) // den)
            slack = len(funnel[2])
            keep = []
            for i, tail in reach:
                bar = bars[i]
                if bar is not None:
                    low, high = (bar[2], bar[3]) if tail == 3 else (bar[4], bar[5])
                    if x + slack >= low and (
                        x > high or _bound_sign(funnel, num, den, tail, bar[0]) >= bar[1]
                    ):
                        continue
                keep.append(i)
            if hit >= 0 and keep and keep[0] == hit:
                del keep[0]
            else:
                hit = -1
            if hit < 0 and not keep:
                continue
            placed, portal = _step_across(placements[-1], s0, s1, other)
            walk.append(nxt)
            on_walk.add(nxt)
            placements.append(placed)
            edges.append(edge)
            portals.append((placed[s0], placed[s1], edge_ends[2 * edge], edge_ends[2 * edge + 1]))
            oriented.append(portal)
            sleeves.append((straight, funnel))
            if hit >= 0:
                offer(hit)
            frames.append((iter(adjacency(nxt) if keep else ()), keep))
            break
        else:
            frames.pop()
            if frames:
                on_walk.discard(walk.pop())
                placements.pop()
                edges.pop()
                portals.pop()
                oriented.pop()
                sleeves.pop()
    if None in best:
        raise OracleError("no gallery within max_len; raise max_len")
    return best
