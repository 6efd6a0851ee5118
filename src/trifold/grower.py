"""Growing balls of the triangle complex by link closure and folding.

Faces of the complex correspond to group elements; the base face is the
identity.  Each edge carries a letter and k face slots indexed mod k, and
crossing from slot i to slot i' multiplies on the right by that letter to the
power i'-i.  Each vertex carries a partial chart of the faces around it into
its vertex group; the chart propagates across edge crossings by right
multiplication, and whenever two face ids receive the same chart value at one
vertex they are folded together.

The margin, one more than delta, the largest local-link diameter, has two
jobs.  It is the growth budget: closure runs to a fixed point within radius +
margin, after which breadth-first distances are trusted out to the requested
radius, which is enough because distances are determined by data within one
link of the nearest minimal faces.  And one less than it is the stored
extent: the finalized ball, which `build` also writes, keeps only the faces
out to radius + margin - 1 = radius + delta, since no reader goes farther:

- The trusted ball, and the interior vertices whose faces are all trusted,
  lie within radius.
- The star of a vertex of a trusted face spans at most delta layers, so it
  ends by radius + delta, and completeness and charts at such a vertex read
  nothing farther.  On all five samples the spread is exactly delta and some
  such star reaches radius + delta (tests/test_development.py), so the
  extent is tight: dropping one more layer would cut stars that are whole
  today.
- A face at radius + margin is at least delta + 1 steps from every trusted
  face.  The fellow-traveller check's breadth-first searches start at
  trusted faces and stop at delta + 1 steps, so they would meet such a face
  only as a leaf at the cap, and no query asks for one.
- Catacomb galleries are capped at the pair distance plus twice the margin
  faces, which is no bound inside radius + delta, and none is proved here.
  Every gallery result is checked to be the same with the outer layer kept
  and dropped, at pair radii 1 to 3 on d333 and d444 and 1 to 2 on f21_333
  (the half-girth-2 samples gate catacomb off).

The outer layer at radius + margin is grown but never stored, and it still
cannot go: folds made while growing it merge edges and vertices of the kept
faces.  At k = 5, f155_333 (tests/test_development.py) grown at radius 0 to
radius + delta, one layer short, keeps its 4,579 faces and their distances
but ends with 8,445 edges and 3,867 vertices, where the full budget gives
8,013 and 3,435.  At k <= 3 the two budgets give equal bytes on all five
samples at every radius from 0 to 11 (d333), 15 (d244), 19 (d236), 7 (d444)
and 3 (f21_333).

The closure is incremental; it reaches the same fixed point as walking every
chart and every edge in each round, so the finalized ball is the same:

- A vertex's chart is closed under the crossings of its faces' edges except
  at the faces it is marked dirty with, and propagation expands only from
  those.  Saturating an edge or folding two edges marks one face on that
  edge at both its ends, which reaches the others across it; folding a face
  into another marks the survivor where it took over the folded face's
  chart value.  A new vertex is charted at its one face when it is made.
- A vertex fold merges the two charts by the left translation that agrees on
  a face they share; a chart value met twice queues a face fold.  Without a
  shared face the smaller chart is dropped, and propagation from the dirty
  faces recharts its faces in the larger chart's frame.
- Chart keys are re-rooted when a face folds, at the folded face's corners,
  which are the only vertices that chart it.  The open edges are kept as a
  frontier in ascending order, so a round scans only those.
- Provisional distances only drop.  A face fold keeps the smaller; an edge
  fold lowers its faces to one more than the least among them; after the
  closure settles, a breadth-first pass from the lowered faces makes every
  distance exact again before the next round reads them.
"""

from __future__ import annotations

from collections import deque

from .development import Development, DevelopmentError, trust_margin
from .groups import LETTER_TYPES, VERTEX_LETTERS, TriangleGroupSpec, npc_check


def _find(parent: list[int], x: int) -> int:
    """Union-find root of x in the forest `parent`, compressing the path."""
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


class _Grower:
    """Mutable closure state; finalize() emits the canonical Development.

    The columns are flat: face f's edge, slot and corner for letter or vertex
    type t are f_edge[3*f + t], f_slot[3*f + t] and f_vert[3*f + t]; edge e's
    k slots are e_slots[k*e:k*e + k] and its ends e_ends[2*e:2*e + 2].  An
    element is alive while it is its own union-find root; a folded vertex's
    chart is dropped."""

    def __init__(self, spec: TriangleGroupSpec):
        verdict = npc_check(spec)
        if not verdict.nonpositively_curved:
            raise DevelopmentError(
                f"spec is not nonpositively curved: excess {verdict.excess}"
            )
        self.spec = spec
        self.verdict = verdict
        self.k = spec.k
        self.margin = trust_margin(spec)
        # per vertex type, (letter, designated generator powers) for its two letters
        self.gen_pow: list[list[tuple[int, list[int]]]] = []
        for ti in range(3):
            group = spec.vertex_groups[ti]
            table = []
            for pos, letter in enumerate(VERTEX_LETTERS[ti]):
                g = spec.designated[ti][pos]
                powers = [0]
                for _ in range(1, self.k):
                    powers.append(group.mult[powers[-1]][g])
                table.append((letter, powers))
            self.gen_pow.append(table)

        self.f_edge: list[int] = []
        self.f_slot: list[int] = []
        self.f_vert: list[int] = []
        self.f_prov: list[int] = []
        self.uf_f: list[int] = []

        self.e_letter: list[int] = []
        self.e_slots: list[int] = []
        self.e_ends: list[int] = []
        self.uf_e: list[int] = []

        self.v_type: list[int] = []
        self.v_chart: list[dict[int, int] | None] = []
        self.uf_v: list[int] = []

        self.face_q: deque[tuple[int, int]] = deque()
        self.edge_q: deque[tuple[int, int]] = deque()
        self.vert_q: deque[tuple[int, int]] = deque()
        self.dirty: dict[int, list[int]] = {}  # vertex -> faces to expand from
        # open edges, ascending; each round drops the folded and full ones
        self.frontier: list[int] = []
        self.lowered: list[int] = []  # faces whose provisional distance dropped

        self._seed()

    # -- construction ------------------------------------------------------

    def _new_face(self, prov: int) -> int:
        f = len(self.uf_f)
        self.f_edge += (-1, -1, -1)
        self.f_slot += (-1, -1, -1)
        self.f_vert += (-1, -1, -1)
        self.f_prov.append(prov)
        self.uf_f.append(f)
        return f

    def _new_edge(self, letter: int, a: int, b: int) -> int:
        e = len(self.uf_e)
        self.e_letter.append(letter)
        self.e_slots += [-1] * self.k
        self.e_ends += (a, b)
        self.uf_e.append(e)
        self.frontier.append(e)
        return e

    def _new_vertex(self, vtype: int, face: int) -> int:
        """A vertex charted at its one face."""
        v = len(self.uf_v)
        self.v_type.append(vtype)
        self.v_chart.append({face: 0})
        self.uf_v.append(v)
        return v

    def _attach(self, face: int, letter: int, edge: int, slot: int) -> None:
        self.f_edge[3 * face + letter] = edge
        self.f_slot[3 * face + letter] = slot
        self.e_slots[self.k * edge + slot] = face

    def _seed(self) -> None:
        face = self._new_face(0)
        verts = [self._new_vertex(t, face) for t in range(3)]
        self.f_vert[:3] = verts
        for letter in range(3):
            t1, t2 = LETTER_TYPES[letter]
            self._attach(face, letter, self._new_edge(letter, verts[t1], verts[t2]), 0)

    def _mark_dirty(self, v: int, face: int) -> None:
        """Have the next propagation at v expand from face."""
        seeds = self.dirty.get(v)
        if seeds is None:
            self.dirty[v] = [face]
        else:
            seeds.append(face)

    # -- closure -----------------------------------------------------------

    def _saturate_edge(self, e: int, near: int) -> None:
        """Fill e's empty slots with new faces at distance near + 1."""
        k, uf_f, uf_v, slots = self.k, self.uf_f, self.uf_v, self.e_slots
        letter = self.e_letter[e]
        t1, t2 = LETTER_TYPES[letter]
        third_type = 3 - t1 - t2
        a = _find(uf_v, self.e_ends[2 * e])
        b = _find(uf_v, self.e_ends[2 * e + 1])
        self.e_ends[2 * e:2 * e + 2] = a, b
        x = k * e
        # one face on e reaches every other across e, the new ones too
        seed = next(f for f in slots[x:x + k] if f != -1)
        self._mark_dirty(a, seed)
        self._mark_dirty(b, seed)
        for j in range(k):
            if slots[x + j] != -1:
                continue
            face = self._new_face(near + 1)
            self._attach(face, letter, e, j)
            corners = [-1, -1, -1]
            corners[t1], corners[t2] = a, b
            corners[third_type] = self._new_vertex(third_type, face)
            self.f_vert[3 * face:3 * face + 3] = corners
            for other in range(3):
                if other != letter:
                    o1, o2 = LETTER_TYPES[other]
                    self._attach(face, other, self._new_edge(other, corners[o1], corners[o2]), 0)

    def _propagate(self, v: int, queue: list[int]) -> None:
        """Extend the chart at v across the edge crossings of the faces in
        `queue` and of every face it newly charts; queue folds for values
        met twice."""
        k = self.k
        chart = self.v_chart[v]
        mult = self.spec.vertex_groups[self.v_type[v]].mult
        steps = self.gen_pow[self.v_type[v]]
        uf_f, uf_e, slots = self.uf_f, self.uf_e, self.e_slots
        f_edge, f_slot = self.f_edge, self.f_slot
        owner = None
        queue = list(dict.fromkeys(queue))
        for f in queue:
            r = uf_f[f]
            if uf_f[r] != r:
                r = _find(uf_f, r)
            base = chart.get(r)
            if base is None:
                continue
            row = mult[base]
            for letter, powers in steps:
                x = 3 * r + letter
                e = f_edge[x]
                if uf_e[e] != e:
                    e = f_edge[x] = _find(uf_e, e)
                jf = f_slot[x]
                ke = k * e
                for p in range(1, k):
                    i = ke + (jf + p) % k
                    f2 = slots[i]
                    if f2 == -1:
                        continue
                    if uf_f[f2] != f2:
                        f2 = slots[i] = _find(uf_f, f2)
                    val = row[powers[p]]
                    have = chart.get(f2)
                    if have is None:
                        if owner is None:
                            owner = {val: g for g, val in chart.items()}
                        chart[f2] = val
                        queue.append(f2)
                        first = owner.setdefault(val, f2)
                        if first != f2:
                            self.face_q.append((first, f2))
                    elif have != val:
                        raise DevelopmentError(
                            f"development inconsistency at vertex {v}: face {f2} "
                            f"needs chart values {have} and {val}"
                        )

    def _process_queues(self) -> None:
        while self.face_q or self.edge_q or self.vert_q:
            if self.face_q:
                self._merge_faces(*self.face_q.popleft())
            elif self.edge_q:
                self._merge_edges(*self.edge_q.popleft())
            else:
                self._merge_vertices(*self.vert_q.popleft())

    def _merge_faces(self, a: int, b: int) -> None:
        uf_f, uf_e, uf_v = self.uf_f, self.uf_e, self.uf_v
        ra, rb = _find(uf_f, a), _find(uf_f, b)
        if ra == rb:
            return
        keep, dead = min(ra, rb), max(ra, rb)
        uf_f[dead] = keep
        if self.f_prov[dead] < self.f_prov[keep]:
            self.f_prov[keep] = self.f_prov[dead]
            self.lowered.append(keep)
        xk, xd = 3 * keep, 3 * dead
        for letter in range(3):
            e1 = _find(uf_e, self.f_edge[xk + letter])
            e2 = _find(uf_e, self.f_edge[xd + letter])
            if e1 != e2:
                self.edge_q.append((e1, e2))
            elif self.f_slot[xk + letter] != self.f_slot[xd + letter]:
                raise DevelopmentError(
                    f"edge slot collision while folding faces {keep} and {dead}"
                )
        for t in range(3):
            v1 = _find(uf_v, self.f_vert[xk + t])
            v2 = _find(uf_v, self.f_vert[xd + t])
            chart = self.v_chart[v2]
            val = chart.pop(dead, None)
            if val is not None:
                have = chart.get(keep)
                if have is None:
                    chart[keep] = val
                    self._mark_dirty(v2, keep)
                elif have != val:
                    raise DevelopmentError(
                        f"development inconsistency at vertex {v2}: face {keep} "
                        f"needs chart values {have} and {val}"
                    )
            if v1 != v2:
                self.vert_q.append((v1, v2))

    def _merge_edges(self, a: int, b: int) -> None:
        uf_f, uf_e, uf_v = self.uf_f, self.uf_e, self.uf_v
        ra, rb = _find(uf_e, a), _find(uf_e, b)
        if ra == rb:
            return
        if self.e_letter[ra] != self.e_letter[rb]:
            raise DevelopmentError("cannot fold edges of different letters")
        keep, dead = min(ra, rb), max(ra, rb)
        letter = self.e_letter[keep]
        k, slots = self.k, self.e_slots
        xk, xd = k * keep, k * dead
        # both edges' slots are stored back as roots
        for x in (*range(xk, xk + k), *range(xd, xd + k)):
            f = slots[x]
            if f != -1 and uf_f[f] != f:
                slots[x] = _find(uf_f, f)
        on_keep = slots[xk:xk + k]
        on_dead = slots[xd:xd + k]
        jd = next((j for j, f in enumerate(on_dead) if f != -1 and f in on_keep), -1)
        if jd < 0:
            raise DevelopmentError("edge fold without a shared face")
        shared = on_dead[jd]
        uf_e[dead] = keep
        delta = (on_keep.index(shared) - jd) % k
        for j, f in enumerate(on_dead):
            if f == -1:
                continue
            target = (j + delta) % k
            self.f_edge[3 * f + letter] = keep
            self.f_slot[3 * f + letter] = target
            cur = slots[xk + target]
            if cur == -1:
                slots[xk + target] = f
            elif cur != f:
                self.face_q.append((cur, f))
        # faces on one edge are adjacent
        prov = self.f_prov
        faces = [f for f in slots[xk:xk + k] if f != -1]
        near = min([prov[f] for f in faces]) + 1
        for f in faces:
            if prov[f] > near:
                prov[f] = near
                self.lowered.append(f)
        # the shared face reaches every face now on the edge: wherever a face
        # of either edge is charted, so is the shared face
        for i in range(2):
            v1 = _find(uf_v, self.e_ends[2 * keep + i])
            v2 = _find(uf_v, self.e_ends[2 * dead + i])
            self._mark_dirty(v1, shared)
            if v1 != v2:
                self._mark_dirty(v2, shared)
                self.vert_q.append((v1, v2))

    def _merge_vertices(self, a: int, b: int) -> None:
        uf_v = self.uf_v
        ra, rb = _find(uf_v, a), _find(uf_v, b)
        if ra == rb:
            return
        if self.v_type[ra] != self.v_type[rb]:
            raise DevelopmentError("cannot fold vertices of different types")
        keep, dead = min(ra, rb), max(ra, rb)
        uf_v[dead] = keep
        seeds = self.dirty.pop(dead, None)
        if seeds is not None:
            self.dirty.setdefault(keep, []).extend(seeds)
        # merge the smaller chart into the larger by the left translation
        # that agrees on a shared face; charts are unique up to one
        ck, cd = self.v_chart[keep], self.v_chart[dead]
        self.v_chart[dead] = None
        big, small = (cd, ck) if len(cd) > len(ck) else (ck, cd)
        self.v_chart[keep] = big
        group = self.spec.vertex_groups[self.v_type[keep]]
        shift = None
        for f, val in small.items():
            have = big.get(f)
            if have is not None:
                shift = group.mult[have][group.inv(val)]
                break
        if shift is None:
            # nothing to align by: the smaller chart is dropped, and
            # propagation from the dirty faces recharts its faces in the
            # larger one's frame, which is closed everywhere else
            return
        row = group.mult[shift]
        owner = {val: f for f, val in big.items()}
        for f, val in small.items():
            val = row[val]
            have = big.get(f)
            if have is None:
                big[f] = val
                first = owner.setdefault(val, f)
                if first != f:
                    self.face_q.append((first, f))
            elif have != val:
                raise DevelopmentError(
                    f"development inconsistency at vertex {keep}: face {f} "
                    f"needs chart values {have} and {val}"
                )

    def _lower_prov(self) -> None:
        """Carry the drops in provisional distance to the lowered faces'
        neighbours, breadth first, so every distance is exact again."""
        k, uf_f, uf_e = self.k, self.uf_f, self.uf_e
        f_edge, slots, prov = self.f_edge, self.e_slots, self.f_prov
        queue, self.lowered = self.lowered, []
        for f in queue:
            f = _find(uf_f, f)
            d = prov[f] + 1
            for x in range(3 * f, 3 * f + 3):
                ke = k * _find(uf_e, f_edge[x])
                for g in slots[ke:ke + k]:
                    if g != -1:
                        g = _find(uf_f, g)
                        if prov[g] > d:
                            prov[g] = d
                            queue.append(g)

    def _settle(self) -> None:
        """Run folds and seeded propagation to a fixed point, then repair the
        provisional distances."""
        dirty = self.dirty
        while True:
            self._process_queues()
            if not dirty:
                break
            for v in sorted(dirty):
                seeds = dirty.pop(v, None)
                if seeds is None:
                    continue  # folded earlier in this wave; its seeds moved on
                self._propagate(v, seeds)
                if self.face_q or self.edge_q or self.vert_q:
                    self._process_queues()
        self._lower_prov()

    def _saturate_frontier(self, budget: int) -> bool:
        """One round: saturate every open edge with a face at provisional
        distance below `budget`, in ascending edge order.  Returns whether
        any was."""
        k, uf_f, uf_e, slots, prov = self.k, self.uf_f, self.uf_e, self.e_slots, self.f_prov
        frontier, self.frontier = self.frontier, []
        still_open = []
        for e in frontier:
            if uf_e[e] != e:
                continue
            near = budget
            full = True
            for f in slots[k * e:k * e + k]:
                if f == -1:
                    full = False
                else:
                    if uf_f[f] != f:
                        f = _find(uf_f, f)
                    if prov[f] < near:
                        near = prov[f]
            if full:
                continue
            if near < budget:
                self._saturate_edge(e, near)
            else:
                still_open.append(e)
        created = bool(self.frontier)
        still_open += self.frontier
        self.frontier = still_open
        return created

    def grow(self, radius: int) -> None:
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        budget = radius + self.margin
        self._settle()
        while self._saturate_frontier(budget):
            self._settle()

    # -- finalization ------------------------------------------------------

    def finalize(self, radius: int) -> Development:
        """Number faces breadth first from the base face out to radius +
        margin - 1, crossing each face's edges letter by letter and each
        edge's slots upward from the face's own, and edges and vertices of
        the kept faces in order of first appearance.  Only the face columns
        are built here; `Development.derive_columns` builds the rest from
        them, so slots holding a face past that distance read -1 and charts
        leave such faces out."""
        uf_f, uf_e, uf_v = self.uf_f, self.uf_e, self.uf_v
        k, f_edge, f_slot, f_vert = self.k, self.f_edge, self.f_slot, self.f_vert
        e_slots = self.e_slots
        extent = radius + self.margin - 1
        base = _find(uf_f, 0)
        order: list[int] = [base]
        seen = {base}
        dist = [0]
        # faces are met in breadth-first order, so the first face at the
        # extent ends the search: it and the faces after it add none
        for i, f in enumerate(order):
            d = dist[i] + 1
            if d > extent:
                break
            for x in range(3 * f, 3 * f + 3):
                e = f_edge[x]
                if uf_e[e] != e:
                    e = f_edge[x] = _find(uf_e, e)
                ke, jf = k * e, f_slot[x]
                for p in range(1, k + 1):  # the face's own slot last
                    s = ke + (jf + p) % k
                    g = e_slots[s]
                    if g == -1:
                        continue
                    if uf_f[g] != g:
                        g = e_slots[s] = _find(uf_f, g)
                    if g not in seen:
                        seen.add(g)
                        dist.append(d)
                        order.append(g)

        # edges and vertices are numbered in order of first appearance; an
        # edge's slots are rotated to start at its first face, the first to
        # cross it, and a vertex's chart is left-translated to send its first
        # face to the identity
        dev = Development(self.spec, radius, self.margin)
        dev.dist = dist
        dev.final = [d <= radius for d in dist]
        groups = self.spec.vertex_groups
        edge_pos: dict[int, int] = {}
        edge_rot: list[int] = []
        vert_pos: dict[int, int] = {}
        charts: list[tuple[dict[int, int], list[int]]] = []  # chart, translation
        for f in order:
            x = 3 * f
            for letter in range(3):
                e = f_edge[x + letter]
                if uf_e[e] != e:
                    e = _find(uf_e, e)
                n = edge_pos.get(e)
                if n is None:
                    n = edge_pos[e] = len(edge_rot)
                    edge_rot.append(f_slot[x + letter])
                dev.f_edge.append(n)
                dev.f_slot.append((f_slot[x + letter] - edge_rot[n]) % k)
            for t in range(3):
                v = f_vert[x + t]
                if uf_v[v] != v:
                    v = _find(uf_v, v)
                n = vert_pos.get(v)
                if n is None:
                    n = vert_pos[v] = len(charts)
                    chart = self.v_chart[v]
                    charts.append((chart, groups[t].mult[groups[t].inv(chart[f])]))
                chart, row = charts[n]
                dev.f_vert.append(n)
                dev.f_elem.append(row[chart[f]])
        dev.derive_columns()
        return dev


def init_development(spec: TriangleGroupSpec) -> _Grower:
    """Seed the closure with the base face anchored to the identity."""
    return _Grower(spec)


def grow_to_radius(source: TriangleGroupSpec | _Grower, radius: int) -> Development:
    grower = source if isinstance(source, _Grower) else _Grower(source)
    grower.grow(radius)
    return grower.finalize(radius)
