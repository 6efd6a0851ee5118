"""Growing balls of the triangle complex by deduction.

Faces of the complex correspond to group elements; the base face is the
identity.  Each edge carries a letter and k face slots indexed mod k, and
crossing from slot i to slot i' multiplies on the right by that letter to the
power i'-i.  Each vertex carries a chart of the faces around it into its
vertex group, and its inverse, from chart value to face.  Growth saturates
open edges, and the charts say at creation time what each slot needs, so a
face, edge or vertex is made only where no chart knows it (the
define-versus-deduce choice of coset enumeration, Holt, Eick and O'Brien,
Handbook of Computational Group Theory, ch. 5).  Growth is this one pass:
every face, edge and vertex is made once and never merged.

- The face in a slot.  The chart values at the edge's two ends of a face
  on it, crossed to the empty slot, are those of the face that belongs
  there.  Neither chart may hold that value yet; the face is made there
  at one more than the least distance on the edge, and charted at both
  ends.
- The other two edges and the third corner of a new face.  At the end it
  shares with each other edge, a charted face in the same coset of that
  letter's generator lies on that edge, and the new face goes in the slot
  the crossing rule gives, with its third corner and chart value there
  taken from the found face.  This is done only when the edge holds a face
  below the budget; edges of the outer layer, whose faces are all at the
  budget, are left alone.  Where no edge is found, the edge, or the third
  corner, is made fresh.

Why this is complete.  It rests on two of the paper's local facts about the
development of a nonpositively curved k-fold triangle of groups, which the
`cor1` and `cor2` suites of `trifold verify` check on every ball: C1, the
faces of least distance at a vertex are pairwise adjacent, and C4, the
distance of a face at a vertex is the least distance there plus its distance
in the vertex's link from those minimal faces.

1. By induction, round n saturates exactly the open edges that carry a face
   at distance n - 1.  At that point every face at distance n - 1 or less
   is present exactly once, with `f_prov` equal to its true distance.
2. Every present face at a vertex is in that vertex's chart.  So a new face
   F, made in slot j of edge ab, is truly new.  F's other edge at a or b
   exists exactly when some face on it is present, and `_known_edge` then
   finds that edge.
3. Suppose F's third corner c already has a present face G.  Apply C4 at c.
   If F is not minimal at c, a neighbour of F across ac or bc lies at
   distance n - 1 and is present.  If F is minimal at c, then G is minimal
   too, and by C1 G is adjacent to F across ac or bc.  The development is
   CAT(0), so two vertices span at most one edge.  Either way, c is found
   whenever F lies below the budget.
4. At the budget layer, the fresh edges and corners belong only to faces at
   the budget.  Those faces lie past the stored extent (below).

Each identification the argument rules out raises `DevelopmentError`,
naming its face, edge or vertex: a slot whose face is already charted, a
known edge whose slot for the new face is taken, two known edges that
disagree on the third corner or its chart value, a chart value already held
there, and a new face more than one layer from a face on a known edge.  So a
spec that broke the argument could never yield a wrong ball.
tests/test_development.py checks the bytes against an independent grower
that makes every face fresh and folds duplicates away, and checks that
switching off the edge deduction raises on every sample.

The margin, one more than delta, the largest local-link diameter, is two
parts, and growth runs within radius + margin:

- One layer of trust budget.  By steps 1 and 4, every face below the budget
  has its true distance and the edges and corners of the complex, since
  only faces at the budget can get fresh edges or corners.  So one layer
  past radius already fixes the distance, edges and corners of every face
  out to radius.
- Delta layers of reach: how far past a trusted face a reader looks.  The
  stored extent, radius + margin - 1 = radius + delta, keeps the stars
  around the vertices of trusted faces.

The finalized ball, which `build` also writes, keeps only the faces out to
the stored extent, since no reader goes farther:

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
cannot go: growing it is what finds the edges and corners of the faces at
the stored extent.  Grown one layer short, those faces are the budget layer,
and by step 4 they get fresh edges and corners where they share ones.  At
k = 5, f155_333 (tests/test_development.py) grown at radius 0 to radius +
delta keeps its 4,579 faces and their distances but ends with 8,445 edges
and 3,867 vertices, where the full budget gives 8,013 and 3,435.  At k <= 3
the two budgets give equal bytes on all five samples at every radius from 0
to 11 (d333), 15 (d244), 19 (d236), 7 (d444) and 3 (f21_333).

The open edges are kept as a frontier in ascending order, so a round scans
only those.
"""

from __future__ import annotations

from .development import Development, DevelopmentError, trust_margin
from .groups import LETTER_TYPES, VERTEX_LETTERS, TriangleGroupSpec, npc_check


class _Grower:
    """Growth state; finalize() emits the canonical Development.

    The columns are flat: face f's edge, slot and corner for letter or vertex
    type t are f_edge[3*f + t], f_slot[3*f + t] and f_vert[3*f + t]; edge e's
    k slots are e_slots[k*e:k*e + k] and its ends e_ends[2*e:2*e + 2].  Every
    face, edge and vertex allocated is kept."""

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
        # per vertex type and letter, the designated generator's powers, None
        # where the letter does not meet the type
        self.pow_of: list[list[list[int] | None]] = []
        for ti in range(3):
            row: list[list[int] | None] = [None] * 3
            for pos, letter in enumerate(VERTEX_LETTERS[ti]):
                row[letter] = spec.vertex_groups[ti].cyclic_subgroup(spec.designated[ti][pos])
            self.pow_of.append(row)

        self.f_edge: list[int] = []
        self.f_slot: list[int] = []
        self.f_vert: list[int] = []
        self.f_prov: list[int] = []

        self.e_letter: list[int] = []
        self.e_slots: list[int] = []
        self.e_ends: list[int] = []

        self.v_type: list[int] = []
        self.v_chart: list[dict[int, int]] = []
        self.v_inv: list[dict[int, int]] = []  # chart value -> the face holding it
        # open edges, ascending; each round drops the full ones
        self.frontier: list[int] = []

        self._seed()

    # -- construction ------------------------------------------------------

    def _new_face(self, prov: int) -> int:
        f = len(self.f_prov)
        self.f_edge += (-1, -1, -1)
        self.f_slot += (-1, -1, -1)
        self.f_vert += (-1, -1, -1)
        self.f_prov.append(prov)
        return f

    def _new_edge(self, letter: int, a: int, b: int) -> int:
        e = len(self.e_letter)
        self.e_letter.append(letter)
        self.e_slots += [-1] * self.k
        self.e_ends += (a, b)
        self.frontier.append(e)
        return e

    def _new_vertex(self, vtype: int, face: int) -> int:
        """A vertex charted at its one face."""
        v = len(self.v_type)
        self.v_type.append(vtype)
        self.v_chart.append({face: 0})
        self.v_inv.append({0: face})
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

    # -- growth ------------------------------------------------------------

    def _saturate_edge(self, e: int, seed: int, js: int, budget: int) -> None:
        """Fill e's empty slots.  seed, in slot js, is a face on e of least
        distance.  Crossed to an empty slot, seed's chart values at e's ends
        are those of the face the slot needs, which neither chart may hold
        yet: a new face at distance one more than seed's is made and charted
        there."""
        k, slots = self.k, self.e_slots
        letter = self.e_letter[e]
        t1, t2 = LETTER_TYPES[letter]
        a, b = self.e_ends[2 * e:2 * e + 2]
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
            h = inv_a.get(va, inv_b.get(vb))
            if h is not None:
                raise DevelopmentError(f"slot {j} of edge {e} needs face {h}, which is already charted")
            self._make_face(e, j, near, budget, a, va, b, vb)

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
            (other, self._known_edge(face, other, t3, a, va, budget) if t1 in LETTER_TYPES[other]
             else self._known_edge(face, other, t3, b, vb, budget))
            for other in range(3) if other != letter
        ]
        corners = [-1, -1, -1]
        corners[t1], corners[t2] = a, b
        found = [item[1:] for _, item in known if item is not None]
        if not found:
            corners[t3] = self._new_vertex(t3, face)
        else:
            c, val = found[0]
            if found[-1] != found[0]:
                raise DevelopmentError(
                    f"the known edges of face {face} disagree on its corner of type {t3}: {found}"
                )
            held = self.v_inv[c].setdefault(val, face)
            if held != face:
                raise DevelopmentError(
                    f"face {face} needs chart value {val} at vertex {c}, which face {held} holds"
                )
            corners[t3] = c
            self.v_chart[c][face] = val
        self.f_vert[3 * face:3 * face + 3] = corners
        for other, item in known:
            if item is None:
                o1, o2 = LETTER_TYPES[other]
                self._attach(face, other, self._new_edge(other, corners[o1], corners[o2]), 0)
            else:
                self._attach(face, other, item[0] // self.k, item[0] % self.k)

    def _known_edge(self, face: int, letter: int, t3: int, u: int, value: int, budget: int):
        """The existing edge of `letter` at vertex u for the new face `face`,
        with chart value `value` there, or None.  The chart at u holds a face
        on that edge if it holds one in value's coset of the letter's
        generator.  The edge is taken only when it holds a face below the
        budget; edges of the outer layer are left open.  Returns the edge's
        slot index for the new face, the third corner of type t3 as the found
        face has it, and the new face's chart value there."""
        k, slots, prov = self.k, self.e_slots, self.f_prov
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
        x = 3 * g + letter
        e = self.f_edge[x]
        # crossing from g's slot to the new face's multiplies by the
        # generator to the power -q, at both ends
        i = k * e + (self.f_slot[x] - q) % k
        if slots[i] != -1:
            raise DevelopmentError(
                f"face {face} needs slot {i - k * e} of edge {e}, which face {slots[i]} holds"
            )
        dists = [prov[f] for f in slots[k * e:k * e + k] if f != -1]
        if min(dists) >= budget:
            return None
        d = prov[face]
        if not d - 1 <= min(dists) <= max(dists) <= d + 1:
            raise DevelopmentError(
                f"face {face} at distance {d} meets faces at distances {dists} on edge {e}"
            )
        c = self.f_vert[3 * g + t3]
        val = self.spec.vertex_groups[t3].mult[self.v_chart[c][g]][self.pow_of[t3][letter][k - q]]
        return i, c, val

    def _saturate_frontier(self, budget: int) -> bool:
        """One round: saturate every open edge with a face at distance below
        `budget`, in ascending edge order.  Returns whether any was."""
        k, slots, prov = self.k, self.e_slots, self.f_prov
        frontier, self.frontier = self.frontier, []
        still_open = []
        saturated = False
        for e in frontier:
            near, seed, js = budget, -1, -1
            full = True
            x = k * e
            for j in range(k):
                f = slots[x + j]
                if f == -1:
                    full = False
                elif prov[f] < near:
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
        while self._saturate_frontier(budget):
            pass

    # -- finalization ------------------------------------------------------

    def finalize(self, radius: int) -> Development:
        """Number faces breadth first from the base face out to radius +
        margin - 1, crossing each face's edges letter by letter and each
        edge's slots upward from the face's own, and edges and vertices of
        the kept faces in order of first appearance.  Only the face columns
        are built here; `Development.derive_columns` builds the rest from
        them, so slots holding a face past that distance read -1 and charts
        leave such faces out."""
        k, f_edge, f_slot, f_vert = self.k, self.f_edge, self.f_slot, self.f_vert
        e_slots = self.e_slots
        extent = radius + self.margin - 1
        order: list[int] = [0]
        seen = {0}
        dist = [0]
        # faces are met in breadth-first order, so the first face at the
        # extent ends the search: it and the faces after it add none
        for i, f in enumerate(order):
            d = dist[i] + 1
            if d > extent:
                break
            for x in range(3 * f, 3 * f + 3):
                ke, jf = k * f_edge[x], f_slot[x]
                for p in range(1, k + 1):  # the face's own slot last
                    g = e_slots[ke + (jf + p) % k]
                    if g != -1 and g not in seen:
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
                n = edge_pos.get(e)
                if n is None:
                    n = edge_pos[e] = len(edge_rot)
                    edge_rot.append(f_slot[x + letter])
                dev.f_edge.append(n)
                dev.f_slot.append((f_slot[x + letter] - edge_rot[n]) % k)
            for t in range(3):
                v = f_vert[x + t]
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
    """Seed the growth with the base face anchored to the identity."""
    return _Grower(spec)


def grow_to_radius(source: TriangleGroupSpec | _Grower, radius: int) -> Development:
    grower = source if isinstance(source, _Grower) else _Grower(source)
    grower.grow(radius)
    return grower.finalize(radius)
