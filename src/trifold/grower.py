"""Growing balls of the triangle complex by deduction.

Faces of the complex correspond to group elements; the base face is the
identity.  Each edge carries a letter and k face slots indexed mod k, and
crossing from slot i to slot i' multiplies on the right by that letter to the
power i'-i.  Each vertex carries a chart of the faces around it into its
vertex group, and its inverse, from chart value to face.  Growth takes the
faces in the order they are made, and each saturates the edges it made.
The charts say at creation time what each slot needs, so a face, edge or
vertex is made only where no chart knows it (the
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
  taken from the found face.  Where no edge is found, the edge, or the
  third corner, is made fresh.

Why this is complete.  It rests on two of the paper's local facts about the
development of a nonpositively curved k-fold triangle of groups, which the
`cor1` and `cor2` suites of `trifold verify` check on every ball: C1, the
faces of least distance at a vertex are pairwise adjacent, and C4, the
distance of a face at a vertex is the least distance there plus its distance
in the vertex's link from those minimal faces.

1. Faces are taken in the order they are made, which by induction is in
   order of distance: the faces at distance n - 1 saturate the edges they
   made, exactly the edges whose least face is at distance n - 1, and make
   the faces at distance n.  When the first face at
   distance n - 1 is taken, every face at distance n - 1 or less is present
   exactly once, with `f_prov` equal to its true distance.
2. Every present face at a vertex is in that vertex's chart.  So a new face
   F, made in slot j of edge ab, is truly new.  F's other edge at a or b
   exists exactly when some face on it is present, and `_known_edge` then
   finds that edge.
3. Suppose F's third corner c already has a present face G.  Apply C4 at c.
   If F is not minimal at c, a neighbour of F across ac or bc lies at
   distance n - 1 and is present.  If F is minimal at c, then G is minimal
   too, and by C1 G is adjacent to F across ac or bc.  The development is
   CAT(0), so two vertices span at most one edge.  Either way, c is found.

Why growth needs no face past the ones it keeps.  Take a face F at distance
d.  Everything growth needs to get F right lies no farther from the base
face than F:

- Its distance.  F is made from an edge whose least face is at d - 1,
  and by step 1 that is F's true distance.
- Its edges.  The faces on one edge are pairwise adjacent, so those on an
  edge of F lie at d - 1, d or d + 1.  Faces are made in order of
  distance, so the first one made there is at d or less, and each later
  one finds the edge through it (step 2): the edge is made once.
- Its corners.  By C4, at a corner v of F, least distance m there, F lies
  at link distance d - m from the minimal faces at v.  So a link geodesic
  from a minimal face to F runs through faces at m, m + 1, ..., d, each
  sharing an edge at v with the next.  By step 3 each finds v from the one
  before it, and the first from the minimal faces already at v (C1).  F's
  corner v is the vertex all of them are charted at.

So growth that takes the faces below an extent E makes every face out to E,
each with its distance, edges and corners, and the faces at E are the last
it makes.  tests/test_development.py checks that growing one layer more
changes no byte out to the stored extent, and that growing to the radius
alone keeps the trusted face columns, on the five samples and on specs
beyond them.

Each identification the argument rules out raises `DevelopmentError`,
naming its face, edge or vertex: a slot whose face is already charted, a
known edge whose slot for the new face is taken, two known edges that
disagree on the third corner or its chart value, a chart value already held
there, and a new face more than one layer from a face on a known edge.  So a
spec that broke the argument could never yield a wrong ball.
tests/test_development.py checks the bytes against an independent grower
that makes every face fresh and folds duplicates away, and checks that
switching off the edge deduction raises on every sample.

The margin is one more than delta, the largest local-link diameter, and
growth makes the faces out to the stored extent, radius + margin - 2 =
radius + delta - 1.  The finalized ball, which `build` also writes, keeps
every face grown.  Each reader reads no farther; R is the radius:

- `is_interior`, signatures, the machines and `minimal_triangles` need
  only faces within R.
- `build_patch` at patch radius P <= R.  The star of a vertex whose least
  face is at m <= R - 1 ends by m + delta <= R + delta - 1, so it is whole.
  At a vertex whose least face is at R, the patch holds only its minimal
  faces, pairwise adjacent by C1; in the bipartite link they form no cycle,
  so the vertex adds no link cell.
- The fellow-traveller check's searches of delta + 1 steps.  A path of at
  most delta + 1 steps between two faces within R stays within
  R + floor((delta + 1) / 2) <= R + delta - 1, since delta >= 2.
- Catacomb galleries are capped at the pair distance plus twice the margin,
  and no bound is proved for them.  tests/test_development.py checks every
  reader's answers, catacomb's pair by pair, against a ball grown two
  layers farther.
"""

from __future__ import annotations

from .development import Development, DevelopmentError, trust_margin
from .groups import LETTER_TYPES, VERTEX_LETTERS, TriangleGroupSpec, npc_check


class _Grower:
    """Growth state; finalize() emits the canonical Development.

    The columns are flat: face f's edge, slot, corner and element for letter
    or vertex type t are f_edge[3*f + t], f_slot[3*f + t], f_vert[3*f + t]
    and f_elem[3*f + t], the element being f's value in the chart of its
    type-t vertex; edge e's k slots are e_slots[k*e:k*e + k] and its ends
    e_ends[2*e:2*e + 2].  Every face, edge and vertex allocated is kept."""

    def __init__(self, spec: TriangleGroupSpec):
        self.verdict = npc_check(spec)
        if not self.verdict.nonpositively_curved:
            raise DevelopmentError(
                f"spec is not nonpositively curved: excess {self.verdict.excess}"
            )
        self.spec = spec
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
        self.f_elem: list[int] = []
        self.f_prov: list[int] = []

        self.e_letter: list[int] = []
        self.e_slots: list[int] = []
        self.e_ends: list[int] = []

        self.v_type: list[int] = []
        self.v_inv: list[dict[int, int]] = []  # chart value -> the face holding it

        self._seed()

    # -- construction ------------------------------------------------------

    def _new_face(self, prov: int) -> int:
        f = len(self.f_prov)
        self.f_edge += (-1, -1, -1)
        self.f_slot += (-1, -1, -1)
        self.f_vert += (-1, -1, -1)
        self.f_elem += (-1, -1, -1)
        self.f_prov.append(prov)
        return f

    def _new_edge(self, letter: int, a: int, b: int) -> int:
        e = len(self.e_letter)
        self.e_letter.append(letter)
        self.e_slots += [-1] * self.k
        self.e_ends += (a, b)
        return e

    def _new_vertex(self, vtype: int, face: int) -> int:
        """A vertex charted at its one face, which holds the identity."""
        v = len(self.v_type)
        self.v_type.append(vtype)
        self.v_inv.append({0: face})
        self.f_elem[3 * face + vtype] = 0
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

    def _take(self, f: int) -> None:
        """Saturate the edges f holds in slot 0, letter by letter: f made
        them, so it is their least face and the first one taken."""
        for x in range(3 * f, 3 * f + 3):
            if not self.f_slot[x]:
                self._saturate_edge(self.f_edge[x])

    def _saturate_edge(self, e: int) -> None:
        """Fill e's empty slots upward.  Crossed to slot j, the chart values
        at e's ends of the face in slot 0 are those of the face slot j needs,
        which neither chart may hold yet: a new face at distance one more
        than slot 0's is made and charted there."""
        k, slots = self.k, self.e_slots
        x = k * e
        seed = slots[x]
        letter = self.e_letter[e]
        t1, t2 = LETTER_TYPES[letter]
        a, b = self.e_ends[2 * e:2 * e + 2]
        groups = self.spec.vertex_groups
        inv_a, inv_b = self.v_inv[a], self.v_inv[b]
        row_a = groups[t1].mult[self.f_elem[3 * seed + t1]]
        row_b = groups[t2].mult[self.f_elem[3 * seed + t2]]
        pow_a, pow_b = self.pow_of[t1][letter], self.pow_of[t2][letter]
        near = self.f_prov[seed] + 1
        for j in range(1, k):
            if slots[x + j] != -1:
                continue
            va, vb = row_a[pow_a[j]], row_b[pow_b[j]]
            h = inv_a.get(va, inv_b.get(vb))
            if h is not None:
                raise DevelopmentError(f"slot {j} of edge {e} needs face {h}, which is already charted")
            self._make_face(e, j, near, a, va, b, vb)

    def _make_face(self, e: int, j: int, prov: int, a: int, va: int, b: int, vb: int) -> None:
        """A new face in slot j of e, charted at e's ends a and b with values
        va and vb.  Its other edges and its third corner are taken from the
        charts where `_known_edge` finds them, and made fresh where not."""
        letter = self.e_letter[e]
        t1, t2 = LETTER_TYPES[letter]
        t3 = 3 - t1 - t2
        face = self._new_face(prov)
        x = 3 * face
        self._attach(face, letter, e, j)
        self.f_elem[x + t1] = va
        self.v_inv[a][va] = face
        self.f_elem[x + t2] = vb
        self.v_inv[b][vb] = face
        known = [
            (other, self._known_edge(face, other, t3, a, va) if t1 in LETTER_TYPES[other]
             else self._known_edge(face, other, t3, b, vb))
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
            self.f_elem[x + t3] = val
        self.f_vert[x:x + 3] = corners
        for other, item in known:
            if item is None:
                o1, o2 = LETTER_TYPES[other]
                self._attach(face, other, self._new_edge(other, corners[o1], corners[o2]), 0)
            else:
                self._attach(face, other, item[0] // self.k, item[0] % self.k)

    def _known_edge(self, face: int, letter: int, t3: int, u: int, value: int):
        """The existing edge of `letter` at vertex u for the new face `face`,
        with chart value `value` there, or None.  The chart at u holds a face
        on that edge if it holds one in value's coset of the letter's
        generator.  Returns the edge's slot index for the new face, the third
        corner of type t3 as the found face has it, and the new face's chart
        value there."""
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
        d = prov[face]
        if not d - 1 <= min(dists) <= max(dists) <= d + 1:
            raise DevelopmentError(
                f"face {face} at distance {d} meets faces at distances {dists} on edge {e}"
            )
        c = self.f_vert[3 * g + t3]
        val = self.spec.vertex_groups[t3].mult[self.f_elem[3 * g + t3]][self.pow_of[t3][letter][k - q]]
        return i, c, val

    def grow(self, radius: int) -> None:
        """Take the faces in the order they are made, while they lie below
        the stored extent of radius + margin - 2, so that every face out to
        the extent is made and none past it."""
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        extent = radius + self.margin - 2
        prov = self.f_prov
        f = 0
        while f < len(prov) and prov[f] < extent:
            self._take(f)
            f += 1

    # -- finalization ------------------------------------------------------

    def finalize(self, radius: int) -> Development:
        """Every grown face, out to radius + margin - 2, as the canonical
        ball: it takes the grown edges and slots, and
        `Development.derive_columns` derives the rest.

        The grown numbering is already canonical.  Faces are made in
        breadth-first order from the base face: each face is taken after
        every face made before it, the faces on the edges it did not make
        were made before it, and it fills the edges it made letter by
        letter, each upward from slot 0, which it holds.  Edges and
        vertices are made with their first face, an edge holding it in slot
        0 and a vertex charting it at the identity.

        The derivation is checked against the growth: its distances,
        corners, elements and vertex types must be the grown ones;
        DevelopmentError where not."""
        dev = Development(self.spec, radius, self.margin)
        dev.f_edge, dev.f_slot = self.f_edge, self.f_slot
        try:
            dev.derive_columns()
        except ValueError as exc:
            raise DevelopmentError(f"the grown faces do not derive a ball: {exc}") from exc
        for what, derived, grown in (
            ("distances", dev.dist, self.f_prov),
            ("corners", dev.f_vert, self.f_vert),
            ("elements", dev.f_elem, self.f_elem),
            ("vertex types", dev.vert_type, self.v_type),
        ):
            if derived != grown:
                raise DevelopmentError(f"the derived {what} are not the grown ones")
        return dev


def grow_to_radius(spec: TriangleGroupSpec, radius: int) -> Development:
    grower = _Grower(spec)
    grower.grow(radius)
    return grower.finalize(radius)
