"""Growing balls of the triangle complex by link closure.

Faces of the complex correspond to group elements; the base face is the
identity.  Each edge carries a letter and k face slots indexed mod k, and
crossing from slot i to slot i' multiplies on the right by that letter to the
power i'-i.  Each vertex carries a partial chart of the faces around it into
its vertex group, and its inverse, from chart value to face.  Growth
saturates open edges, and the charts say at creation time what each slot
needs, so a face is made only where no chart knows it (the define-versus-
deduce choice of coset enumeration, Holt, Eick and O'Brien, Handbook of
Computational Group Theory, ch. 5).  Each deduction is an identification
that the closure below would make anyway:

- The face in a slot.  The chart values at the edge's two ends of a face
  on it, crossed to the empty slot, are those of the face that belongs
  there.  If either chart already holds that value, at face h, then h goes
  in the slot and its own edge of the letter is folded with this one: a
  fresh face would be charted with that value and folded into h in the same
  settle.
- The other two edges and the third corner of a new face.  The face is
  charted at the edge's ends at once.  At the end it shares with each other
  edge, a charted face in the same coset of that letter's generator lies
  on that edge, and the new face goes in the slot the crossing rule gives,
  with its third corner and chart value there taken from the found face.
  This is done only when the edge holds a face below the budget: such an
  edge is saturated before `grow` returns, and the face it gets in that slot
  has the new face's chart value, so the closure folds them.  Provisional
  distances only drop, so an edge below the budget now is below it then.
- Edges of the outer layer, whose faces are all at the budget, are left
  alone, since the closure never saturates them: at k = 5 an identification
  made across them would change the kept bytes (see below).

On every sample ball measured, f155_333 at radius 0 included, these
deductions make every identification: no fold runs, and the grower
allocates exactly the faces, edges and vertices it keeps
(tests/test_development.py checks this on f21_333 at radius 4 and d444 at
radius 8).  The folds below stay as the backstop, and whatever is made
fresh where the charts cannot tell is folded away as before;
tests/test_development.py grows every sample with the deductions switched
off and gets the same bytes.

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
cannot go: identifications made while growing it merge edges and vertices
of the kept faces.  At k = 5, f155_333 (tests/test_development.py) grown at radius 0 to
radius + delta, one layer short, keeps its 4,579 faces and their distances
but ends with 8,445 edges and 3,867 vertices, where the full budget gives
8,013 and 3,435.  At k <= 3 the two budgets give equal bytes on all five
samples at every radius from 0 to 11 (d333), 15 (d244), 19 (d236), 7 (d444)
and 3 (f21_333).

The closure is incremental; it reaches the same fixed point as walking every
chart and every edge in each round, so the finalized ball is the same:

- A vertex's chart is closed under the crossings of its faces' edges except
  at the faces it is marked dirty with, and propagation expands only from
  those.  A new face is charted at its corners when it is made, which keeps
  the charts closed; a new vertex is charted at its one face.  Folding two
  edges marks the shared face at both ends, which reaches the others across
  it, and placing a known face in a slot also marks the edge's seed there;
  folding a face into another marks the survivor where it took over the
  folded face's chart value.
- A vertex fold merges the two charts by the left translation that agrees on
  a face they share; a chart value met twice queues a face fold.  Without a
  shared face the smaller chart is dropped, and propagation from the dirty
  faces recharts its faces in the larger chart's frame.
- Chart keys are re-rooted when a face folds, at the folded face's corners,
  which are the only vertices that chart it, and the inverse charts are
  kept in step at every insert, fold and re-key.  The open edges are kept as
  a frontier in ascending order, so a round scans only those.
- Provisional distances only drop.  A face fold keeps the smaller; an edge
  fold lowers its faces to one more than the least among them; a known face
  placed in a slot, or a new face placed on a known edge, queues the faces
  from which its new neighbours' distances may drop; after the closure
  settles, a breadth-first pass from the lowered faces makes every distance
  exact again before the next round reads them.
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
        # the same powers by vertex type and letter, None where the letter
        # does not meet the type
        self.pow_of = [[dict(table).get(letter) for letter in range(3)] for table in self.gen_pow]

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
        self.v_inv: list[dict[int, int] | None] = []  # chart value -> a face holding it
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
        self.v_inv.append({0: face})
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

    def _saturate_edge(self, e: int, seed: int, js: int, budget: int) -> None:
        """Fill e's empty slots.  seed, in slot js, is a face on e of least
        provisional distance.  Crossed to an empty slot, seed's chart values
        at e's ends are those of the face the slot needs: a face either chart
        already holds there is placed in the slot, and its own edge of e's
        letter is folded with e; otherwise a new face at distance one more
        than seed's is made and charted there, with its other edges and its
        third corner taken from the charts where they are known."""
        k, uf_f, uf_e, uf_v = self.k, self.uf_f, self.uf_e, self.uf_v
        slots, f_edge = self.e_slots, self.f_edge
        letter = self.e_letter[e]
        t1, t2 = LETTER_TYPES[letter]
        a = _find(uf_v, self.e_ends[2 * e])
        b = _find(uf_v, self.e_ends[2 * e + 1])
        self.e_ends[2 * e:2 * e + 2] = a, b
        groups = self.spec.vertex_groups
        inv_a, inv_b = self.v_inv[a], self.v_inv[b]
        row_a = groups[t1].mult[self.v_chart[a][seed]]
        row_b = groups[t2].mult[self.v_chart[b][seed]]
        pow_a, pow_b = self.pow_of[t1][letter], self.pow_of[t2][letter]
        near = self.f_prov[seed] + 1
        x = k * e
        for j in range(k):
            if slots[x + j] != -1:
                continue
            p = (j - js) % k
            va, vb = row_a[pow_a[p]], row_b[pow_b[p]]
            h, h2 = inv_a.get(va), inv_b.get(vb)
            if h is None and h2 is None:
                self._make_face(e, j, near, budget, a, va, b, vb)
                continue
            # the face belongs in slot j: a new one would be charted here and
            # folded into it in the same settle
            if h is None:
                h = h2
            elif h2 is not None and _find(uf_f, h2) != _find(uf_f, h):
                self.face_q.append((h, h2))
            if uf_f[h] != h:
                h = _find(uf_f, h)
            slots[x + j] = h
            he = f_edge[3 * h + letter]
            if uf_e[he] != he:
                he = _find(uf_e, he)
            if he == e:
                raise DevelopmentError(f"edge slot collision while placing face {h} on edge {e}")
            self.edge_q.append((e, he))
            self.lowered += (seed, h)
            # the edge fold may drop the chart at a or b that holds h; seed
            # recharts h's side from the other
            self._mark_dirty(a, seed)
            self._mark_dirty(b, seed)

    def _make_face(self, e: int, j: int, prov: int, budget: int, a: int, va: int, b: int, vb: int) -> None:
        """A new face in slot j of e, charted at e's ends a and b with values
        va and vb.  Its other edges and its third corner are taken from the
        charts where `_known_edge` finds them, and made fresh where not."""
        letter = self.e_letter[e]
        t1, t2 = LETTER_TYPES[letter]
        t3 = 3 - t1 - t2
        face = self._new_face(prov)
        self._attach(face, letter, e, j)
        self.v_chart[a][face] = va
        self.v_inv[a][va] = face
        self.v_chart[b][face] = vb
        self.v_inv[b][vb] = face
        known = [
            (other, self._known_edge(other, t3, a, va, budget) if t1 in LETTER_TYPES[other]
             else self._known_edge(other, t3, b, vb, budget))
            for other in range(3) if other != letter
        ]
        corners = [-1, -1, -1]
        corners[t1], corners[t2] = a, b
        first = next((item for _, item in known if item is not None), None)
        if first is None:
            corners[t3] = self._new_vertex(t3, face)
        else:
            c, val = first[1:3]
            corners[t3] = c
            self.v_chart[c][face] = val
            inv = self.v_inv[c]
            if inv.setdefault(val, face) != face:
                self.face_q.append((inv[val], face))
        self.f_vert[3 * face:3 * face + 3] = corners
        for other, item in known:
            # a second known edge whose far corner or chart value there
            # disagrees with the first is made fresh and left to the folds
            if item is None or item[1:3] != first[1:3]:
                o1, o2 = LETTER_TYPES[other]
                self._attach(face, other, self._new_edge(other, corners[o1], corners[o2]), 0)
                continue
            i, _, _, nearest, low, high = item
            self._attach(face, other, i // self.k, i % self.k)
            # a gap of more than one between the distances of the new face
            # and the edge's faces is closed by lowering from the nearer side
            if prov > low + 1:
                self.lowered.append(nearest)
            if high > prov + 1:
                self.lowered.append(face)

    def _known_edge(self, letter: int, t3: int, u: int, value: int, budget: int):
        """The existing edge of `letter` at vertex u for a new face with chart
        value `value` there, or None.  The chart at u holds a face on that
        edge if it holds one in value's coset of the letter's generator.  The
        edge is taken only when it holds a face below the budget, which the
        closure saturates before it stops, making the same identification;
        edges of the outer layer are left open.  Returns the edge's slot
        index for the new face, the third corner of type t3 as the found
        face has it, the new face's chart value there, and a face of least
        provisional distance on the edge with the least and the greatest
        distance there."""
        k, uf_f, slots, prov = self.k, self.uf_f, self.e_slots, self.f_prov
        tu = self.v_type[u]
        row = self.spec.vertex_groups[tu].mult[value]
        powers = self.pow_of[tu][letter]
        inv = self.v_inv[u]
        for q in range(1, k):
            g = inv.get(row[powers[q]])
            if g is not None:
                break
        else:
            return None
        if uf_f[g] != g:
            g = _find(uf_f, g)
        x = 3 * g + letter
        e = self.f_edge[x]
        if self.uf_e[e] != e:
            e = _find(self.uf_e, e)
        # crossing from g's slot to the new face's multiplies by the
        # generator to the power -q, at both ends
        i = k * e + (self.f_slot[x] - q) % k
        if slots[i] != -1:
            return None
        low, high, nearest = budget, -1, -1
        for f in slots[k * e:k * e + k]:
            if f != -1:
                if uf_f[f] != f:
                    f = _find(uf_f, f)
                d = prov[f]
                if d < low:
                    low, nearest = d, f
                if d > high:
                    high = d
        if nearest < 0:
            return None
        c = _find(self.uf_v, self.f_vert[3 * g + t3])
        val = self.spec.vertex_groups[t3].mult[self.v_chart[c][g]][self.pow_of[t3][letter][k - q]]
        return i, c, val, nearest, low, high

    def _propagate(self, v: int, queue: list[int]) -> None:
        """Extend the chart at v across the edge crossings of the faces in
        `queue` and of every face it newly charts; queue folds for values
        met twice."""
        k = self.k
        chart, inv = self.v_chart[v], self.v_inv[v]
        mult = self.spec.vertex_groups[self.v_type[v]].mult
        steps = self.gen_pow[self.v_type[v]]
        uf_f, uf_e, slots = self.uf_f, self.uf_e, self.e_slots
        f_edge, f_slot = self.f_edge, self.f_slot
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
                        chart[f2] = val
                        queue.append(f2)
                        first = inv.setdefault(val, f2)
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
                if have is None or have == val:
                    self.v_inv[v2][val] = keep
                else:
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
        if len(self.v_chart[dead]) > len(self.v_chart[keep]):
            big, owner, small = self.v_chart[dead], self.v_inv[dead], self.v_chart[keep]
        else:
            big, owner, small = self.v_chart[keep], self.v_inv[keep], self.v_chart[dead]
        self.v_chart[keep], self.v_inv[keep] = big, owner
        self.v_chart[dead] = self.v_inv[dead] = None
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
        saturated = False
        for e in frontier:
            if uf_e[e] != e:
                continue
            near, seed, js = budget, -1, -1
            full = True
            x = k * e
            for j in range(k):
                f = slots[x + j]
                if f == -1:
                    full = False
                else:
                    if uf_f[f] != f:
                        f = _find(uf_f, f)
                    if prov[f] < near:
                        near, seed, js = prov[f], f, j
            if full:
                continue
            if near < budget:
                self._saturate_edge(e, seed, js, budget)
                saturated = True
            else:
                still_open.append(e)
        still_open += self.frontier
        self.frontier = still_open
        return saturated

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
