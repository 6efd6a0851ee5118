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
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

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

        self.face_q: list[tuple[int, int]] = []
        self.edge_q: list[tuple[int, int]] = []
        self.vert_q: list[tuple[int, int]] = []
        self.dirty: set[int] = set()

        self._seed()

    # -- union-find -------------------------------------------------------

    def find_f(self, f: int) -> int:
        root = f
        while self.uf_f[root] != root:
            root = self.uf_f[root]
        while self.uf_f[f] != root:
            self.uf_f[f], f = root, self.uf_f[f]
        return root

    def find_e(self, e: int) -> int:
        root = e
        while self.uf_e[root] != root:
            root = self.uf_e[root]
        while self.uf_e[e] != root:
            self.uf_e[e], e = root, self.uf_e[e]
        return root

    def find_v(self, v: int) -> int:
        root = v
        while self.uf_v[root] != root:
            root = self.uf_v[root]
        while self.uf_v[v] != root:
            self.uf_v[v], v = root, self.uf_v[v]
        return root

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
        base_prov = min(self.f_prov[self.find_f(f)] for f in slots if f != -1)
        t1, t2 = LETTER_TYPES[letter]
        third_type = 3 - t1 - t2
        ends = [self.find_v(v) for v in self.e_ends[e]]
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
        chart = self._normalize_chart(v)
        edges = self._edges_at(v)
        faces: list[int] = []
        seen = set()
        for e in edges:
            for f in self.e_slots[e]:
                if f != -1:
                    rf = self.find_f(f)
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
                e = self.find_e(self.f_edge[f][letter])
                jf = self.f_slot[f][letter]
                powers = gen_pow[letter]
                group = self.spec.vertex_groups[vtype]
                for j2, raw in enumerate(self.e_slots[e]):
                    if raw == -1 or j2 == jf:
                        continue
                    f2 = self.find_f(raw)
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

    def _normalize_chart(self, v: int) -> dict[int, int]:
        chart = self.v_chart[v]
        fresh: dict[int, int] = {}
        for f in sorted(chart):
            rf = self.find_f(f)
            val = chart[f]
            have = fresh.get(rf)
            if have is None:
                fresh[rf] = val
            elif have != val:
                raise DevelopmentError(
                    f"development inconsistency at vertex {v}: face {rf} "
                    f"needs chart values {have} and {val}"
                )
        self.v_chart[v] = fresh
        return fresh

    def _edges_at(self, v: int) -> list[int]:
        out = []
        seen = set()
        for e in self.v_edges[v]:
            re = self.find_e(e)
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
                self._merge_faces(*self.face_q.pop(0))
            elif self.edge_q:
                self._merge_edges(*self.edge_q.pop(0))
            else:
                self._merge_vertices(*self.vert_q.pop(0))
        return did

    def _merge_faces(self, a: int, b: int) -> None:
        ra, rb = self.find_f(a), self.find_f(b)
        if ra == rb:
            return
        keep, dead = min(ra, rb), max(ra, rb)
        self.uf_f[dead] = keep
        self.f_alive[dead] = False
        self.f_prov[keep] = min(self.f_prov[keep], self.f_prov[dead])
        for letter in range(3):
            e1 = self.find_e(self.f_edge[keep][letter])
            e2 = self.find_e(self.f_edge[dead][letter])
            if e1 != e2:
                self.edge_q.append((e1, e2))
            elif self.f_slot[keep][letter] != self.f_slot[dead][letter]:
                raise DevelopmentError(
                    f"edge slot collision while folding faces {keep} and {dead}"
                )
        for t in range(3):
            v1 = self.find_v(self.f_vert[keep][t])
            v2 = self.find_v(self.f_vert[dead][t])
            self.dirty.add(v1)
            if v1 != v2:
                self.dirty.add(v2)
                self.vert_q.append((v1, v2))

    def _merge_edges(self, a: int, b: int) -> None:
        ra, rb = self.find_e(a), self.find_e(b)
        if ra == rb:
            return
        if self.e_letter[ra] != self.e_letter[rb]:
            raise DevelopmentError("cannot fold edges of different letters")
        keep, dead = min(ra, rb), max(ra, rb)
        letter = self.e_letter[keep]
        roots_keep = {}
        for j, f in enumerate(self.e_slots[keep]):
            if f != -1:
                roots_keep[self.find_f(f)] = j
        jk = jd = -1
        for j, f in enumerate(self.e_slots[dead]):
            if f != -1:
                rf = self.find_f(f)
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
            rf = self.find_f(f)
            target = (j + delta) % self.k
            cur = self.e_slots[keep][target]
            self.f_edge[rf][letter] = keep
            self.f_slot[rf][letter] = target
            if cur == -1:
                self.e_slots[keep][target] = rf
            else:
                rc = self.find_f(cur)
                if rc != rf:
                    self.face_q.append((rc, rf))
        for i in range(2):
            v1 = self.find_v(self.e_ends[keep][i])
            v2 = self.find_v(self.e_ends[dead][i])
            self.dirty.add(v1)
            if v1 != v2:
                self.dirty.add(v2)
                self.vert_q.append((v1, v2))

    def _merge_vertices(self, a: int, b: int) -> None:
        ra, rb = self.find_v(a), self.find_v(b)
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
        out: dict[int, int] = {}
        for f in sorted(self.v_chart[v]):
            rf = self.find_f(f)
            val = self.v_chart[v][f]
            have = out.get(rf)
            if have is None:
                out[rf] = val
            elif have != val:
                raise DevelopmentError(
                    f"development inconsistency at vertex {v}: face {rf} "
                    f"needs chart values {have} and {val}"
                )
        return out

    def _face_adjacency(self, f: int) -> list[int]:
        out = []
        for letter in range(3):
            e = self.find_e(self.f_edge[f][letter])
            for raw in self.e_slots[e]:
                if raw != -1:
                    rf = self.find_f(raw)
                    if rf != f:
                        out.append(rf)
        return out

    def _recompute_prov(self) -> None:
        base = self.find_f(0)
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
            if self.f_alive[f] and self.find_f(f) == f:
                self.f_prov[f] = dist.get(f, self.f_prov[f])

    def _settle(self) -> bool:
        any_change = False
        while True:
            merged = self._process_queues()
            wave = sorted(self.dirty)
            self.dirty.clear()
            grew = False
            for v in wave:
                v = self.find_v(v)
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
                if not self.e_alive[e] or self.find_e(e) != e:
                    continue
                slots = self.e_slots[e]
                if all(s != -1 for s in slots):
                    continue
                prov = min(self.f_prov[self.find_f(f)] for f in slots if f != -1)
                if prov <= budget - 1:
                    self._saturate_edge(e)
                    created = True
            settled = self._settle()
            if not created and not settled:
                break
        self._recompute_prov()

    # -- finalization ------------------------------------------------------

    def finalize(self, radius: int) -> "Development":
        base = self.find_f(0)
        order: list[int] = [base]
        pos = {base: 0}
        dist = {base: 0}
        qi = 0
        k = self.k
        while qi < len(order):
            f = order[qi]
            qi += 1
            for letter in range(3):
                e = self.find_e(self.f_edge[f][letter])
                jf = self.f_slot[f][letter]
                for p in range(1, k):
                    raw = self.e_slots[e][(jf + p) % k]
                    if raw == -1:
                        continue
                    g = self.find_f(raw)
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
                e = self.find_e(self.f_edge[f][letter])
                if e not in edge_pos:
                    edge_pos[e] = len(edge_order)
                    edge_order.append(e)
            for t in range(3):
                v = self.find_v(self.f_vert[f][t])
                if v not in vert_pos:
                    vert_pos[v] = len(vert_order)
                    vert_order.append(v)

        n_faces = len(order)
        dev = Development(self.spec, radius, self.margin)
        dev.dist = [dist[f] for f in order]
        dev.final = [d <= radius for d in dev.dist]
        dev.f_edge = []
        dev.f_slot = []
        dev.f_vert = []
        rotations = {}
        for e in edge_order:
            filled = [
                (pos[self.find_f(f)], j)
                for j, f in enumerate(self.e_slots[e])
                if f != -1
            ]
            rotations[e] = min(filled)[1]
        for f in order:
            edges = []
            slots = []
            verts = []
            for letter in range(3):
                e = self.find_e(self.f_edge[f][letter])
                edges.append(edge_pos[e])
                slots.append((self.f_slot[f][letter] - rotations[e]) % k)
            for t in range(3):
                verts.append(vert_pos[self.find_v(self.f_vert[f][t])])
            dev.f_edge.append(edges)
            dev.f_slot.append(slots)
            dev.f_vert.append(verts)
        dev.edge_letter = []
        dev.edge_slots = []
        dev.edge_ends = []
        dev.edge_saturated = []
        for e in edge_order:
            rot = rotations[e]
            slots = []
            for j in range(k):
                raw = self.e_slots[e][(j + rot) % k]
                slots.append(pos[self.find_f(raw)] if raw != -1 else -1)
            dev.edge_letter.append(self.e_letter[e])
            dev.edge_slots.append(slots)
            dev.edge_ends.append(
                [vert_pos[self.find_v(v)] for v in self.e_ends[e]]
            )
            dev.edge_saturated.append(all(s != -1 for s in slots))
        dev.vert_type = []
        dev.vert_chart = []
        dev.vert_edges = []
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
            dev.vert_chart.append(dict(sorted(renamed.items())))
            edges = sorted(
                {edge_pos[self.find_e(e)] for e in self.v_edges[v] if self.e_alive[self.find_e(e)]}
            )
            dev.vert_edges.append(edges)
        dev.rebuild_caches()
        return dev


class Development:
    """Finalized, immutable ball with canonical breadth-first numbering."""

    def __init__(self, spec: TriangleGroupSpec, radius: int, margin: int):
        self.spec = spec
        self.k = spec.k
        self.radius = radius
        self.margin = margin
        self.symbols = symbols_for(spec.k)
        self.letter_types = LETTER_TYPES
        self.dist: list[int] = []
        self.final: list[bool] = []
        self.f_edge: list[list[int]] = []
        self.f_slot: list[list[int]] = []
        self.f_vert: list[list[int]] = []
        self.edge_letter: list[int] = []
        self.edge_slots: list[list[int]] = []
        self.edge_ends: list[list[int]] = []
        self.edge_saturated: list[bool] = []
        self.vert_type: list[int] = []
        self.vert_chart: list[dict[int, int]] = []
        self.vert_edges: list[list[int]] = []
        self._vert_faces: list[list[int]] = []
        self._adjacency: list[list[int]] = []

    # -- derived data ------------------------------------------------------

    def rebuild_caches(self) -> None:
        vert_faces = [[] for _ in self.vert_type]
        for f, corners in enumerate(self.f_vert):
            for v in corners:
                vert_faces[v].append(f)  # ascending, as f ascends
        slots = self.edge_slots
        adjacency = []
        for f, (x, y, z) in enumerate(self.f_edge):
            near = set(slots[x])
            near.update(slots[y], slots[z])
            near.discard(-1)
            near.discard(f)
            adjacency.append(sorted(near))
        self._vert_faces = vert_faces
        self._adjacency = adjacency

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

    def neighbor(self, f: int, symbol: int | GeneratorSymbol) -> int | None:
        if isinstance(symbol, GeneratorSymbol):
            letter, power = symbol.letter, symbol.power
        else:
            letter, power = divmod(symbol, self.k - 1)
            power += 1
        e = self.f_edge[f][letter]
        raw = self.edge_slots[e][(self.f_slot[f][letter] + power) % self.k]
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
        return self._adjacency[f]

    def faces_at_vertex(self, v: int) -> list[int]:
        return self._vert_faces[v]

    def shared_edge(self, f1: int, f2: int) -> int | None:
        for letter in range(3):
            e = self.f_edge[f1][letter]
            if self.f_edge[f2][letter] == e and f1 != f2:
                return e
        return None

    def vertex_complete(self, v: int) -> bool:
        group = self.spec.vertex_groups[self.vert_type[v]]
        faces = self._vert_faces[v]
        if len(faces) != group.order:
            return False
        chart = self.vert_chart[v]
        if len(chart) != group.order:
            return False
        return all(self.edge_saturated[e] for e in self.vert_edges[v])

    def is_interior(self, f: int) -> bool:
        """All three links complete with every face around them final."""
        for t in range(3):
            v = self.f_vert[f][t]
            if not self.vertex_complete(v):
                return False
            if not all(self.final[g] for g in self._vert_faces[v]):
                return False
        return True

    def interior_vertices(self) -> list[int]:
        """Complete vertices whose faces are all final, in ascending order.

        Such a vertex carries a final face, so only vertices of trusted faces
        are candidates."""
        candidates = sorted({self.f_vert[f][t] for f in self.ball_faces() for t in range(3)})
        return [
            v
            for v in candidates
            if self.vertex_complete(v) and all(self.final[g] for g in self._vert_faces[v])
        ]

    def distance(self, f: int) -> int:
        if not self.final[f]:
            raise InsufficientRadiusError(f"face {f} is outside the trusted ball")
        return self.dist[f]

    def bfs_from(self, start: int, cap: int | None = None) -> dict[int, int]:
        dist = {start: 0}
        queue = [start]
        qi = 0
        while qi < len(queue):
            f = queue[qi]
            qi += 1
            if cap is not None and dist[f] >= cap:
                continue
            for g in self._adjacency[f]:
                if g not in dist:
                    dist[g] = dist[f] + 1
                    queue.append(g)
        return dist

    # -- local structure ---------------------------------------------------

    def minimal_triangles(self, v: int) -> list[int]:
        """Faces at v of minimum distance; checked pairwise adjacent."""
        faces = self._vert_faces[v]
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
        at_v = set(self._vert_faces[v])
        dist = {f: 0 for f in sources}
        queue = list(sources)
        qi = 0
        while qi < len(queue):
            f = queue[qi]
            qi += 1
            for g in self._adjacency[f]:
                if g in at_v and g not in dist and self.shared_edge_at_vertex(f, g, v):
                    dist[g] = dist[f] + 1
                    queue.append(g)
        return dist

    def shared_edge_at_vertex(self, f1: int, f2: int, v: int) -> bool:
        e = self.shared_edge(f1, f2)
        return e is not None and v in self.edge_ends[e]

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

    def dual_link(self, v: int) -> "DirectedDualLink":
        faces = self._vert_faces[v]
        if not self.vertex_complete(v) or not all(self.final[f] for f in faces):
            raise InsufficientRadiusError(f"vertex {v} has an incomplete or frontier link")
        undirected = []
        labels = {}
        for e in self.vert_edges[v]:
            slots = self.edge_slots[e]
            letter = self.edge_letter[e]
            for i in range(self.k):
                for j in range(self.k):
                    if i != j and slots[i] != -1 and slots[j] != -1:
                        pair = (slots[i], slots[j])
                        labels[pair] = GeneratorSymbol(letter, (j - i) % self.k)
                        if slots[i] < slots[j]:
                            undirected.append(pair)
        directed = [
            (f1, f2)
            for (f1, f2) in labels
            if self.dist[f2] == self.dist[f1] + 1
        ]
        return DirectedDualLink(v, faces, sorted(set(undirected)), sorted(directed), labels)


@dataclass
class DirectedDualLink:
    """Face adjacency at a vertex plus its orientation by distance increase."""

    vertex: int
    faces: list[int]
    undirected: list[tuple[int, int]]
    directed: list[tuple[int, int]]
    labels: dict[tuple[int, int], GeneratorSymbol]


def init_development(spec: TriangleGroupSpec) -> _Grower:
    """Seed the closure with the base face anchored to the identity."""
    return _Grower(spec)


def grow_to_radius(source: TriangleGroupSpec | _Grower, radius: int) -> Development:
    grower = source if isinstance(source, _Grower) else _Grower(source)
    grower.grow(radius)
    return grower.finalize(radius)


# -- serialization ---------------------------------------------------------


DEVELOPMENT_FORMAT = "trifold-development/2"


def export_development(dev: Development) -> dict:
    """The ball as one JSON array per column (see the README for the layout).

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
        "vertex_charts": [[x for item in chart.items() for x in item] for chart in dev.vert_chart],
        "vertex_edges": dev.vert_edges,
    }


def development_to_json(dev: Development) -> str:
    return json.dumps(export_development(dev), sort_keys=True, separators=(",", ":")) + "\n"


def _column(doc: dict, name: str, length: int, width: int | None, low: int, high: int) -> list:
    """`doc[name]`, checked to hold `length` rows of `width` entries (any width
    if None), every entry in low..high-1."""
    rows = doc[name]
    if len(rows) != length:
        raise ValueError(f"{name} has {len(rows)} rows, expected {length}")
    if width is not None and set(map(len, rows)) - {width}:
        raise ValueError(f"{name}: a row does not have {width} entries")
    entries = list(chain.from_iterable(rows))
    if entries and (min(entries) < low or max(entries) >= high):
        raise ValueError(f"{name}: an entry lies outside {low}..{high - 1}")
    return rows


def import_development(doc: dict, spec: TriangleGroupSpec) -> Development:
    """Rebuild a ball from `export_development`'s document.

    The parsed lists become the ball's columns as they are.  Column lengths,
    row widths and every id are checked first, so a malformed document raises
    ValueError rather than failing later inside a suite."""
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
    dev.f_edge = _column(doc, "face_edges", nf, 3, 0, ne)
    dev.f_slot = _column(doc, "face_slots", nf, 3, 0, k)
    dev.f_vert = _column(doc, "face_vertices", nf, 3, 0, nv)
    dev.edge_letter = list(map(LETTERS.index, letters))
    dev.edge_slots = _column(doc, "edge_slots", ne, k, -1, nf)
    dev.edge_ends = _column(doc, "edge_ends", ne, 2, 0, nv)
    dev.edge_saturated = [-1 not in slots for slots in dev.edge_slots]
    dev.vert_type = types
    dev.vert_edges = _column(doc, "vertex_edges", nv, None, 0, ne)
    orders = [g.order for g in spec.vertex_groups]
    flat_charts = _column(doc, "vertex_charts", nv, None, 0, max(nf, *orders))
    dev.vert_chart = [dict(zip(c[::2], c[1::2])) for c in flat_charts]
    if (
        any(len(c) % 2 for c in flat_charts)
        or max(chain.from_iterable(dev.vert_chart), default=0) >= nf
        or any(max(c.values(), default=0) >= orders[t] for c, t in zip(dev.vert_chart, types))
    ):
        raise ValueError("vertex_charts: a row is not pairs of a face and an element of its vertex group")
    dev.rebuild_caches()
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
