"""Growing balls of the triangle complex by link closure and folding.

Faces of the complex correspond to group elements; the base face is the
identity.  Each edge carries a letter and k face slots indexed mod k, and
crossing from slot i to slot i' multiplies on the right by that letter to the
power i'-i.  Each vertex carries a partial chart of the faces around it into
its vertex group; the chart propagates across edge crossings by right
multiplication, and whenever two face ids receive the same chart value at one
vertex they are folded together.  Closure runs to a fixed point inside a
working radius, after which breadth-first distances are trusted out to the
requested radius: a margin of one more than the largest local-link diameter
is enough because distances are determined by data within one link of the
nearest minimal faces.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from operator import le

from .groups import LETTERS, LETTER_TYPES, VERTEX_LETTERS, TriangleGroupSpec, npc_check


class DevelopmentError(RuntimeError):
    """The closure found contradictory chart values; the spec cannot develop."""


class InsufficientRadiusError(ValueError):
    """A query touched frontier data whose distances are not trusted."""


@dataclass(frozen=True, order=True)
class GeneratorSymbol:
    """One generator: a letter with a power in 1..k-1, ordered letter first."""

    letter: int
    power: int

    def name(self) -> str:
        return f"{LETTERS[self.letter]}{self.power}"

    @staticmethod
    def parse(text: str, k: int) -> "GeneratorSymbol":
        letter = text[:1]
        if letter not in LETTERS or not text[1:].isdigit():
            raise ValueError(f"bad generator symbol {text!r}")
        power = int(text[1:])
        if not 1 <= power < k:
            raise ValueError(f"power of {text!r} out of range for k={k}")
        return GeneratorSymbol(LETTERS.index(letter), power)


def symbols_for(k: int) -> list[GeneratorSymbol]:
    return [GeneratorSymbol(l, p) for l in range(3) for p in range(1, k)]


def _find(parent: list[int], x: int) -> int:
    """Union-find root of x in the forest `parent`, compressing the path."""
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


class _Grower:
    """Mutable closure state; finalize() emits the canonical Development."""

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
        base_prov = min(self.f_prov[_find(self.uf_f, f)] for f in slots if f != -1)
        t1, t2 = LETTER_TYPES[letter]
        third_type = 3 - t1 - t2
        ends = [_find(self.uf_v, v) for v in self.e_ends[e]]
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
                    rf = _find(self.uf_f, f)
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
                e = _find(self.uf_e, self.f_edge[f][letter])
                jf = self.f_slot[f][letter]
                powers = gen_pow[letter]
                group = self.spec.vertex_groups[vtype]
                for j2, raw in enumerate(self.e_slots[e]):
                    if raw == -1 or j2 == jf:
                        continue
                    f2 = _find(self.uf_f, raw)
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
            re = _find(self.uf_e, e)
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
        ra, rb = _find(self.uf_f, a), _find(self.uf_f, b)
        if ra == rb:
            return
        keep, dead = min(ra, rb), max(ra, rb)
        self.uf_f[dead] = keep
        self.f_alive[dead] = False
        self.f_prov[keep] = min(self.f_prov[keep], self.f_prov[dead])
        for letter in range(3):
            e1 = _find(self.uf_e, self.f_edge[keep][letter])
            e2 = _find(self.uf_e, self.f_edge[dead][letter])
            if e1 != e2:
                self.edge_q.append((e1, e2))
            elif self.f_slot[keep][letter] != self.f_slot[dead][letter]:
                raise DevelopmentError(
                    f"edge slot collision while folding faces {keep} and {dead}"
                )
        for t in range(3):
            v1 = _find(self.uf_v, self.f_vert[keep][t])
            v2 = _find(self.uf_v, self.f_vert[dead][t])
            self.dirty.add(v1)
            if v1 != v2:
                self.dirty.add(v2)
                self.vert_q.append((v1, v2))

    def _merge_edges(self, a: int, b: int) -> None:
        ra, rb = _find(self.uf_e, a), _find(self.uf_e, b)
        if ra == rb:
            return
        if self.e_letter[ra] != self.e_letter[rb]:
            raise DevelopmentError("cannot fold edges of different letters")
        keep, dead = min(ra, rb), max(ra, rb)
        letter = self.e_letter[keep]
        roots_keep = {}
        for j, f in enumerate(self.e_slots[keep]):
            if f != -1:
                roots_keep[_find(self.uf_f, f)] = j
        jk = jd = -1
        for j, f in enumerate(self.e_slots[dead]):
            if f != -1:
                rf = _find(self.uf_f, f)
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
            rf = _find(self.uf_f, f)
            target = (j + delta) % self.k
            cur = self.e_slots[keep][target]
            self.f_edge[rf][letter] = keep
            self.f_slot[rf][letter] = target
            if cur == -1:
                self.e_slots[keep][target] = rf
            else:
                rc = _find(self.uf_f, cur)
                if rc != rf:
                    self.face_q.append((rc, rf))
        for i in range(2):
            v1 = _find(self.uf_v, self.e_ends[keep][i])
            v2 = _find(self.uf_v, self.e_ends[dead][i])
            self.dirty.add(v1)
            if v1 != v2:
                self.dirty.add(v2)
                self.vert_q.append((v1, v2))

    def _merge_vertices(self, a: int, b: int) -> None:
        ra, rb = _find(self.uf_v, a), _find(self.uf_v, b)
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
            rf = _find(self.uf_f, f)
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
            e = _find(self.uf_e, self.f_edge[f][letter])
            for raw in self.e_slots[e]:
                if raw != -1:
                    rf = _find(self.uf_f, raw)
                    if rf != f:
                        out.append(rf)
        return out

    def _recompute_prov(self) -> None:
        base = _find(self.uf_f, 0)
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
            if self.f_alive[f] and _find(self.uf_f, f) == f:
                self.f_prov[f] = dist.get(f, self.f_prov[f])

    def _settle(self) -> bool:
        any_change = False
        while True:
            merged = self._process_queues()
            wave = sorted(self.dirty)
            self.dirty.clear()
            grew = False
            for v in wave:
                v = _find(self.uf_v, v)
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
                if not self.e_alive[e] or _find(self.uf_e, e) != e:
                    continue
                slots = self.e_slots[e]
                if all(s != -1 for s in slots):
                    continue
                prov = min(self.f_prov[_find(self.uf_f, f)] for f in slots if f != -1)
                if prov <= budget - 1:
                    self._saturate_edge(e)
                    created = True
            settled = self._settle()
            if not created and not settled:
                break
        self._recompute_prov()

    # -- finalization ------------------------------------------------------

    def finalize(self, radius: int) -> "Development":
        uf_f, uf_e, uf_v = self.uf_f, self.uf_e, self.uf_v
        base = _find(uf_f, 0)
        order: list[int] = [base]
        pos = {base: 0}
        dist = {base: 0}
        qi = 0
        k = self.k
        while qi < len(order):
            f = order[qi]
            qi += 1
            for letter in range(3):
                e = _find(uf_e, self.f_edge[f][letter])
                jf = self.f_slot[f][letter]
                for p in range(1, k):
                    raw = self.e_slots[e][(jf + p) % k]
                    if raw == -1:
                        continue
                    g = _find(uf_f, raw)
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
                e = _find(uf_e, self.f_edge[f][letter])
                if e not in edge_pos:
                    edge_pos[e] = len(edge_order)
                    edge_order.append(e)
            for t in range(3):
                v = _find(uf_v, self.f_vert[f][t])
                if v not in vert_pos:
                    vert_pos[v] = len(vert_order)
                    vert_order.append(v)

        dev = Development(self.spec, radius, self.margin)
        dev.dist = [dist[f] for f in order]
        dev.final = [d <= radius for d in dev.dist]
        rotations = {}
        for e in edge_order:
            filled = [
                (pos[_find(uf_f, f)], j)
                for j, f in enumerate(self.e_slots[e])
                if f != -1
            ]
            rotations[e] = min(filled)[1]
        for f in order:
            for letter in range(3):
                e = _find(uf_e, self.f_edge[f][letter])
                dev.f_edge.append(edge_pos[e])
                dev.f_slot.append((self.f_slot[f][letter] - rotations[e]) % k)
            dev.f_vert.extend(vert_pos[_find(uf_v, v)] for v in self.f_vert[f])
        for e in edge_order:
            rot = rotations[e]
            row = self.e_slots[e]
            for j in range(k):
                raw = row[(j + rot) % k]
                dev.edge_slots.append(pos[_find(uf_f, raw)] if raw != -1 else -1)
            dev.edge_letter.append(self.e_letter[e])
            dev.edge_ends.extend(vert_pos[_find(uf_v, v)] for v in self.e_ends[e])
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
            for pair in sorted(renamed.items()):
                dev.vert_charts.extend(pair)
            dev.vert_chart_offsets.append(len(dev.vert_charts))
            dev.vert_edges.extend(
                sorted({edge_pos[_find(uf_e, e)] for e in self.v_edges[v] if self.e_alive[_find(uf_e, e)]})
            )
            dev.vert_edge_offsets.append(len(dev.vert_edges))
        return dev


class Development:
    """Finalized, immutable ball with canonical breadth-first numbering.

    The columns are flat lists with a fixed number of entries per element:
    face f's edge, slot and vertex for letter or vertex type t are
    f_edge[3*f + t], f_slot[3*f + t] and f_vert[3*f + t]; edge e's k slots
    are edge_slots[k*e:k*e + k] and its ends edge_ends[2*e:2*e + 2].  The
    two ragged vertex columns have an offsets column each: vertex v's edges
    are vert_edges[o[v]:o[v + 1]] for o = vert_edge_offsets, and its chart is
    the (face, element) pairs in vert_charts[c[v]:c[v + 1]] for
    c = vert_chart_offsets.  Face adjacency, the faces at a vertex and the
    chart as a dict are derived for one element when first asked for, then
    kept, so a suite pays only for the part of the ball it visits.
    """

    def __init__(self, spec: TriangleGroupSpec, radius: int, margin: int):
        self.spec = spec
        self.k = spec.k
        self.radius = radius
        self.margin = margin
        self.symbols = symbols_for(spec.k)
        self.letter_types = LETTER_TYPES
        self.dist: list[int] = []
        self.final: list[bool] = []
        self.f_edge: list[int] = []
        self.f_slot: list[int] = []
        self.f_vert: list[int] = []
        self.edge_letter: list[int] = []
        self.edge_slots: list[int] = []
        self.edge_ends: list[int] = []
        self.vert_type: list[int] = []
        self.vert_edges: list[int] = []
        self.vert_edge_offsets: list[int] = [0]
        self.vert_charts: list[int] = []
        self.vert_chart_offsets: list[int] = [0]
        self._adjacency: dict[int, list[int]] = {}
        self._vert_faces: dict[int, list[int]] = {}
        self._charts: dict[int, dict[int, int]] = {}

    # -- derived data ------------------------------------------------------

    @cached_property
    def half_girths(self) -> tuple[float, float, float]:
        """The spec's half-girths, computed once per ball."""
        return self.spec.half_girths()

    @property
    def face_count(self) -> int:
        return len(self.dist)

    @property
    def symbol_count(self) -> int:
        return len(self.symbols)

    @property
    def sphere_sizes(self) -> list[int]:
        sizes = [0] * (self.radius + 1)
        for f in range(self.face_count):
            if self.final[f]:
                sizes[self.dist[f]] += 1
        return sizes

    def ball_faces(self) -> list[int]:
        return [f for f in range(self.face_count) if self.final[f]]

    def slots(self, e: int) -> list[int]:
        """The face in each of edge e's k slots, -1 where none is built."""
        k = self.k
        return self.edge_slots[k * e:k * e + k]

    def edge_saturated(self, e: int) -> bool:
        return -1 not in self.slots(e)

    def edges_at_vertex(self, v: int) -> list[int]:
        """The edges at v, ascending."""
        offsets = self.vert_edge_offsets
        return self.vert_edges[offsets[v]:offsets[v + 1]]

    def vertex_chart(self, v: int) -> dict[int, int]:
        """The chart at v: face to element of its vertex group, by ascending face."""
        chart = self._charts.get(v)
        if chart is None:
            offsets = self.vert_chart_offsets
            pairs = self.vert_charts[offsets[v]:offsets[v + 1]]
            chart = self._charts[v] = dict(zip(pairs[::2], pairs[1::2]))
        return chart

    def neighbor(self, f: int, symbol: int | GeneratorSymbol) -> int | None:
        if isinstance(symbol, GeneratorSymbol):
            letter, power = symbol.letter, symbol.power
        else:
            letter, power = divmod(symbol, self.k - 1)
            power += 1
        x = 3 * f + letter
        k = self.k
        raw = self.edge_slots[k * self.f_edge[x] + (self.f_slot[x] + power) % k]
        return None if raw == -1 else raw

    def neighbors(self, f: int) -> dict[GeneratorSymbol, int]:
        """Total neighbor map on all 3(k-1) symbols; frontier faces fail."""
        out = {}
        for s, sym in enumerate(self.symbols):
            g = self.neighbor(f, s)
            if g is None:
                raise InsufficientRadiusError(
                    f"face {f} has an unsaturated {sym.name()} crossing"
                )
            out[sym] = g
        return out

    def adjacent_faces(self, f: int) -> list[int]:
        """The faces sharing an edge with f, ascending."""
        near = self._adjacency.get(f)
        if near is None:
            k, slots = self.k, self.edge_slots
            x, y, z = self.f_edge[3 * f:3 * f + 3]
            x, y, z = k * x, k * y, k * z
            found = {*slots[x:x + k], *slots[y:y + k], *slots[z:z + k]}
            found.discard(-1)
            found.discard(f)
            near = self._adjacency[f] = sorted(found)
        return near

    def faces_at_vertex(self, v: int) -> list[int]:
        """The faces with a corner at v, ascending: every face in a slot of an
        edge at v, since a face's two edges at its corner both end there."""
        faces = self._vert_faces.get(v)
        if faces is None:
            k, slots = self.k, self.edge_slots
            found = set()
            for e in self.edges_at_vertex(v):
                found.update(slots[k * e:k * e + k])
            found.discard(-1)
            faces = self._vert_faces[v] = sorted(found)
        return faces

    def shared_edge(self, f1: int, f2: int) -> int | None:
        if f1 == f2:
            return None
        f_edge, x, y = self.f_edge, 3 * f1, 3 * f2
        for letter in range(3):
            e = f_edge[x + letter]
            if e == f_edge[y + letter]:
                return e
        return None

    def vertex_complete(self, v: int) -> bool:
        order = self.spec.vertex_groups[self.vert_type[v]].order
        if len(self.faces_at_vertex(v)) != order:
            return False
        if len(self.vertex_chart(v)) != order:
            return False
        return all(self.edge_saturated(e) for e in self.edges_at_vertex(v))

    def is_interior(self, f: int) -> bool:
        """All three links complete with every face around them final."""
        for v in self.f_vert[3 * f:3 * f + 3]:
            if not self.vertex_complete(v):
                return False
            if not all(self.final[g] for g in self.faces_at_vertex(v)):
                return False
        return True

    def interior_vertices(self) -> list[int]:
        """Complete vertices whose faces are all final, in ascending order.

        Such a vertex carries a final face, so only vertices of trusted faces
        are candidates."""
        candidates = sorted({v for f in self.ball_faces() for v in self.f_vert[3 * f:3 * f + 3]})
        return [
            v
            for v in candidates
            if self.vertex_complete(v) and all(self.final[g] for g in self.faces_at_vertex(v))
        ]

    def distance(self, f: int) -> int:
        if not self.final[f]:
            raise InsufficientRadiusError(f"face {f} is outside the trusted ball")
        return self.dist[f]

    def bfs_from(self, start: int, cap: int | None = None) -> dict[int, int]:
        # the memo is read here directly: a call per face would be most of
        # the cost of the short searches the suites run by the thousand
        known = self._adjacency
        dist = {start: 0}
        queue = [start]
        for f in queue:
            d = dist[f]
            if cap is not None and d >= cap:
                continue
            near = known.get(f)
            if near is None:
                near = self.adjacent_faces(f)
            d += 1
            for g in near:
                if g not in dist:
                    dist[g] = d
                    queue.append(g)
        return dist

    # -- local structure ---------------------------------------------------

    def minimal_triangles(self, v: int) -> list[int]:
        """Faces at v of minimum distance; checked pairwise adjacent."""
        faces = self.faces_at_vertex(v)
        if not self.vertex_complete(v) or not all(self.final[f] for f in faces):
            raise InsufficientRadiusError(f"vertex {v} has an incomplete or frontier link")
        best = min(self.dist[f] for f in faces)
        minimal = [f for f in faces if self.dist[f] == best]
        for i, f1 in enumerate(minimal):
            for f2 in minimal[i + 1:]:
                if self.shared_edge(f1, f2) is None:
                    raise DevelopmentError(
                        f"minimal faces {f1} and {f2} at vertex {v} are not adjacent"
                    )
        return minimal

    def link_distances(self, v: int, sources: list[int]) -> dict[int, int]:
        """Graph distances inside the face-adjacency link at v."""
        at_v = set(self.faces_at_vertex(v))
        dist = {f: 0 for f in sources}
        queue = list(sources)
        qi = 0
        while qi < len(queue):
            f = queue[qi]
            qi += 1
            for g in self.adjacent_faces(f):
                if g in at_v and g not in dist and self.shared_edge_at_vertex(f, g, v):
                    dist[g] = dist[f] + 1
                    queue.append(g)
        return dist

    def shared_edge_at_vertex(self, f1: int, f2: int, v: int) -> bool:
        e = self.shared_edge(f1, f2)
        return e is not None and v in self.edge_ends[2 * e:2 * e + 2]

    def local_distance(self, v: int, f: int) -> int:
        minimal = self.minimal_triangles(v)
        dists = self.link_distances(v, minimal)
        if f not in dists:
            raise DevelopmentError(f"face {f} unreachable inside the link of {v}")
        dv = dists[f]
        if self.dist[f] != self.dist[minimal[0]] + dv:
            raise DevelopmentError(
                f"distance decomposition fails at vertex {v}, face {f}"
            )
        return dv


def init_development(spec: TriangleGroupSpec) -> _Grower:
    """Seed the closure with the base face anchored to the identity."""
    return _Grower(spec)


def grow_to_radius(source: TriangleGroupSpec | _Grower, radius: int) -> Development:
    grower = source if isinstance(source, _Grower) else _Grower(source)
    grower.grow(radius)
    return grower.finalize(radius)


# -- serialization ---------------------------------------------------------


DEVELOPMENT_FORMAT = "trifold-development/3"


def export_development(dev: Development) -> dict:
    """The ball as one flat JSON array per column (see the README for the
    layout).

    The lists are the ball's own, not copies; `final` is not stored, since it
    is `dist <= radius`."""
    return {
        "format": DEVELOPMENT_FORMAT,
        "name": dev.spec.name,
        "k": dev.k,
        "radius": dev.radius,
        "margin": dev.margin,
        "sphere_sizes": dev.sphere_sizes,
        "dist": dev.dist,
        "face_edges": dev.f_edge,
        "face_slots": dev.f_slot,
        "face_vertices": dev.f_vert,
        "edge_letters": "".join([LETTERS[x] for x in dev.edge_letter]),
        "edge_slots": dev.edge_slots,
        "edge_ends": dev.edge_ends,
        "vertex_types": dev.vert_type,
        "vertex_charts": dev.vert_charts,
        "vertex_chart_offsets": dev.vert_chart_offsets,
        "vertex_edges": dev.vert_edges,
        "vertex_edge_offsets": dev.vert_edge_offsets,
    }


def development_to_json(dev: Development) -> str:
    return json.dumps(export_development(dev), sort_keys=True, separators=(",", ":")) + "\n"


def _column(doc: dict, name: str, length: int | None, low: int, high: int) -> list[int]:
    """`doc[name]`, checked to hold `length` entries (any number if None),
    each in low..high-1."""
    column = doc[name]
    if length is not None and len(column) != length:
        raise ValueError(f"{name} has {len(column)} entries, expected {length}")
    if column and (min(column) < low or max(column) >= high):
        raise ValueError(f"{name}: an entry lies outside {low}..{high - 1}")
    return column


def _ragged(doc: dict, name: str, rows: int, low: int, high: int) -> tuple[list[int], list[int]]:
    """`doc[name]`, checked as by _column, and its offsets column, checked to
    hold rows + 1 ascending entries from 0 to the length of `doc[name]`."""
    data = _column(doc, name, None, low, high)
    offsets_name = f"{name[:-1]}_offsets"
    offsets = _column(doc, offsets_name, rows + 1, 0, len(data) + 1)
    if offsets[0] != 0 or offsets[-1] != len(data) or not all(map(le, offsets, offsets[1:])):
        raise ValueError(
            f"{offsets_name} does not ascend from 0 to {len(data)}, the length of {name}"
        )
    return data, offsets


def import_development(doc: dict, spec: TriangleGroupSpec) -> Development:
    """Rebuild a ball from `export_development`'s document.

    The parsed arrays become the ball's columns as they are.  Column lengths,
    offsets and every id are checked first, each column by its minimum and
    maximum, so a malformed document raises ValueError rather than failing
    later inside a suite."""
    if not isinstance(doc, dict):
        raise ValueError("not a development document")
    if doc.get("format") != DEVELOPMENT_FORMAT:
        raise ValueError(
            f"development format {doc.get('format')!r} is not {DEVELOPMENT_FORMAT!r}; "
            f"rebuild the ball"
        )
    dev = Development(spec, int(doc["radius"]), int(doc["margin"]))
    dist = doc["dist"]
    letters = doc["edge_letters"]
    types = doc["vertex_types"]
    nf, ne, nv, k = len(dist), len(letters), len(types), dev.k
    if min(dist, default=0) < 0:
        raise ValueError("dist: a distance is negative")
    if not set(letters) <= set(LETTERS):
        raise ValueError("edge_letters: a letter is not a, b or c")
    if not set(types) <= {0, 1, 2}:
        raise ValueError("vertex_types: a type is not 0, 1 or 2")
    dev.dist = dist
    dev.final = [d <= dev.radius for d in dist]
    dev.f_edge = _column(doc, "face_edges", 3 * nf, 0, ne)
    dev.f_slot = _column(doc, "face_slots", 3 * nf, 0, k)
    dev.f_vert = _column(doc, "face_vertices", 3 * nf, 0, nv)
    dev.edge_letter = list(map(LETTERS.index, letters))
    dev.edge_slots = _column(doc, "edge_slots", k * ne, -1, nf)
    dev.edge_ends = _column(doc, "edge_ends", 2 * ne, 0, nv)
    dev.vert_type = types
    dev.vert_edges, dev.vert_edge_offsets = _ragged(doc, "vertex_edges", nv, 0, ne)
    orders = [g.order for g in spec.vertex_groups]
    charts, offsets = _ragged(doc, "vertex_charts", nv, 0, max(nf, *orders))
    elements = charts[1::2]
    if (
        any(x & 1 for x in offsets)
        or max(charts[::2], default=0) >= nf
        or (
            # below the least group order no element needs its vertex's type
            max(elements, default=0) >= min(orders)
            and any(
                max(elements[i // 2:j // 2], default=0) >= orders[t]
                for t, i, j in zip(types, offsets, offsets[1:])
            )
        )
    ):
        raise ValueError("vertex_charts: a row is not pairs of a face and an element of its vertex group")
    dev.vert_charts, dev.vert_chart_offsets = charts, offsets
    return dev


def embeds_in(small: Development, big: Development) -> bool:
    """The trusted ball of `small` must appear verbatim at the start of `big`."""
    ball = small.ball_faces()
    n = len(ball)
    if ball != list(range(n)):
        return False
    if [big.dist[f] for f in range(n)] != [small.dist[f] for f in range(n)]:
        return False
    for f in range(n):
        for s in range(small.symbol_count):
            g_small = small.neighbor(f, s)
            g_big = big.neighbor(f, s)
            if g_small is not None and g_small < n:
                if g_big != g_small:
                    return False
            elif g_big is not None and g_big < n:
                return False
    return True
