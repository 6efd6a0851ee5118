"""Finite group tables, coset graphs, half-girths and the curvature test.

Groups are ingested as full multiplication tables with element 0 as the
identity.  All verification downstream rests on these tables, so invariants
(Latin square, identity law, associativity) are checked eagerly at load time
and violations are errors, never warnings.
"""

from __future__ import annotations

import json
import math
import os
from collections import namedtuple
from functools import cached_property


class GroupError(ValueError):
    """Invalid group document or unsatisfiable group-theoretic precondition."""


LETTERS = ("a", "b", "c")
# vertex group i is generated by the two letters VERTEX_LETTERS[i]
VERTEX_LETTERS = ((0, 1), (1, 2), (2, 0))
# letter x labels the edges joining the two vertex types that contain x
LETTER_TYPES = ((0, 2), (0, 1), (1, 2))
DESIGNATED_PATTERN = {"V1": ["a", "b"], "V2": ["b", "c"], "V3": ["c", "a"]}


class FiniteGroup:
    """A finite group given by its multiplication table, identity at index 0."""

    __slots__ = ("name", "order", "mult", "_inv")

    def __init__(self, name: str, mult: list[list[int]]):
        self.name = str(name)
        self.mult = [list(row) for row in mult]
        self.order = len(self.mult)
        self._validate()
        self._inv = [row.index(0) for row in self.mult]

    def _validate(self) -> None:
        n = self.order
        if n == 0:
            raise GroupError(f"{self.name}: empty multiplication table")
        full = set(range(n))
        for i, row in enumerate(self.mult):
            if len(row) != n:
                raise GroupError(f"{self.name}: row {i} has length {len(row)}, expected {n}")
            for x in row:
                if not 0 <= x < n:
                    raise GroupError(f"{self.name}: entry {x} out of range in row {i}")
            if set(row) != full:
                raise GroupError(f"{self.name}: not a Latin square (row {i} repeats an entry)")
        for j in range(n):
            if {self.mult[i][j] for i in range(n)} != full:
                raise GroupError(f"{self.name}: not a Latin square (column {j} repeats an entry)")
        for x in range(n):
            if self.mult[0][x] != x or self.mult[x][0] != x:
                raise GroupError(f"{self.name}: element 0 is not the identity at {x}")
        # Light's test: the s with (xs)y = x(sy) for all x and y include 0
        # and are closed under products, so it is enough to check s over a
        # set whose right products from 0 reach every element; each s taken
        # is the least element not yet reached
        m = self.mult
        gens: list[int] = []
        reached = {0}
        while len(reached) < n:
            s = next(x for x in range(n) if x not in reached)
            ms = m[s]
            for x in range(n):
                mx = m[x]
                mxs = m[mx[s]]
                for y in range(n):
                    if mxs[y] != mx[ms[y]]:
                        raise GroupError(
                            f"{self.name}: associativity fails at ({x},{s},{y})"
                        )
            gens.append(s)
            reached = self.generated_subgroup(gens)

    def inv(self, x: int) -> int:
        return self._inv[x]

    def element_order(self, x: int) -> int:
        k = 1
        y = x
        while y != 0:
            y = self.mult[y][x]
            k += 1
        return k

    def cyclic_subgroup(self, x: int) -> list[int]:
        """The powers of x in order, from the identity to x^(n-1) for n the
        order of x."""
        out = [0]
        y = x
        while y != 0:
            out.append(y)
            y = self.mult[y][x]
        return out

    def generated_subgroup(self, gens: list[int]) -> set[int]:
        seen = {0}
        frontier = [0]
        while frontier:
            g = frontier.pop()
            for s in gens:
                h = self.mult[g][s]
                if h not in seen:
                    seen.add(h)
                    frontier.append(h)
        return seen

    def relabel(self, perm: list[int]) -> FiniteGroup:
        """Conjugate the table by a permutation fixing 0 (test helper)."""
        if perm[0] != 0:
            raise GroupError("relabeling must fix the identity")
        inv = [0] * self.order
        for i, p in enumerate(perm):
            inv[p] = i
        mult = [
            [perm[self.mult[inv[i]][inv[j]]] for j in range(self.order)]
            for i in range(self.order)
        ]
        return FiniteGroup(self.name + "'", mult)

    def to_document(self, generators: dict[str, int] | None = None) -> dict:
        doc = {"name": self.name, "order": self.order, "mult": [list(r) for r in self.mult]}
        if generators:
            doc["generators"] = dict(generators)
        return doc

    def __repr__(self):
        return f"FiniteGroup({self.name!r}, order={self.order})"


def _integer(value, field: str, error: type[Exception] = GroupError) -> int:
    """value if it is a JSON integer, or `error` naming the field: a float, a
    bool or a string is refused, never truncated or parsed."""
    if type(value) is not int:
        raise error(f"{field} must be an integer, got {value!r}")
    return value


def load_group(document: dict) -> FiniteGroup:
    """Build a FiniteGroup from its document, verifying every invariant."""
    if not isinstance(document, dict):
        raise GroupError("group document must be an object")
    for key in ("name", "order", "mult"):
        if key not in document:
            raise GroupError(f"group document missing field {key!r}")
    name = str(document["name"])
    if any(type(x) is not int for row in document["mult"] for x in row):
        raise GroupError(f"{name}: mult holds an entry that is not an integer")
    group = FiniteGroup(name, document["mult"])
    if group.order != _integer(document["order"], f"{group.name}: order"):
        raise GroupError(
            f"{group.name}: declared order {document['order']} but table has {group.order} rows"
        )
    gens = document.get("generators", {})
    if not isinstance(gens, dict):
        raise GroupError(f"{group.name}: generators must be an object")
    for letter, idx in gens.items():
        if not 0 <= _integer(idx, f"{group.name}: generator {letter!r}") < group.order:
            raise GroupError(f"{group.name}: generator {letter!r} index {idx} out of range")
    return group


def group_from_permutations(name: str, perms: list[tuple[int, ...]]) -> FiniteGroup:
    """Close a set of permutations under composition and build the table.

    Preprocessing helper so permutation-generated groups can be turned into
    plain tables; element 0 is the identity permutation.
    """
    if not perms:
        raise GroupError("need at least one permutation")
    degree = len(perms[0])
    ident = tuple(range(degree))
    elements = [ident]
    index = {ident: 0}
    for g in elements:
        for s in perms:
            if len(s) != degree:
                raise GroupError("permutations must share one degree")
            h = tuple(g[s[i]] for i in range(degree))
            if h not in index:
                index[h] = len(elements)
                elements.append(h)
    mult = []
    for g in elements:
        row = []
        for h in elements:
            gh = tuple(g[h[i]] for i in range(degree))
            row.append(index[gh])
        mult.append(row)
    return FiniteGroup(name, mult)


# -- coset graphs --------------------------------------------------------------


class CosetGraph(namedtuple("CosetGraph", "left_cosets right_cosets edges half_girth")):
    """Bipartite incidence graph of the cosets of <x> and <y> in V.

    Left vertices are cosets of <x>, right vertices cosets of <y>, and there
    is one edge per coset of the intersection, joining the two cosets that
    contain it; right vertices are offset by len(left_cosets).  Parallel
    edges are kept.  half_girth is an integer, or math.inf for a forest.
    """

    __slots__ = ()

    @property
    def vertex_count(self) -> int:
        return len(self.left_cosets) + len(self.right_cosets)


def _left_cosets(group: FiniteGroup, subgroup: list[int]) -> tuple[list[tuple[int, ...]], list[int]]:
    coset_of = [-1] * group.order
    cosets: list[tuple[int, ...]] = []
    for g in range(group.order):
        if coset_of[g] >= 0:
            continue
        members = sorted(group.mult[g][h] for h in subgroup)
        idx = len(cosets)
        cosets.append(tuple(members))
        for m in members:
            coset_of[m] = idx
    return cosets, coset_of


def build_coset_graph(group: FiniteGroup, x: int, y: int) -> CosetGraph:
    gen_x = group.cyclic_subgroup(x)
    gen_y = group.cyclic_subgroup(y)
    reached = group.generated_subgroup([x, y])
    if len(reached) != group.order:
        missing = sorted(set(range(group.order)) - reached)
        raise GroupError(
            f"{group.name}: <x,y> is a proper subgroup; missing elements {missing[:8]}"
        )
    meet = sorted(set(gen_x) & set(gen_y))
    left, left_of = _left_cosets(group, gen_x)
    right, right_of = _left_cosets(group, gen_y)
    edge_cosets, _ = _left_cosets(group, meet)
    offset = len(left)
    edges = []
    for coset in edge_cosets:
        g = coset[0]
        edges.append((left_of[g], offset + right_of[g]))
    graph = CosetGraph(left, right, edges, 0)
    return graph._replace(half_girth=half_girth(graph))


def _multigraph_girth(n_vertices: int, edges: list[tuple[int, int]]) -> float:
    """Girth of an undirected multigraph via per-vertex BFS with parent edges."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n_vertices)]
    for eid, (u, v) in enumerate(edges):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    best = math.inf
    for start in range(n_vertices):
        dist = {start: 0}
        parent_edge = {start: -1}
        queue = [start]
        for u in queue:
            if 2 * dist[u] >= best:
                continue
            for v, eid in adj[u]:
                if eid == parent_edge[u]:
                    continue
                if v not in dist:
                    dist[v] = dist[u] + 1
                    parent_edge[v] = eid
                    queue.append(v)
                else:
                    cycle = dist[u] + dist[v] + 1
                    if cycle < best:
                        best = cycle
    return best


def half_girth(graph: CosetGraph) -> float:
    """Half the minimum cycle length; math.inf for a forest."""
    girth = _multigraph_girth(graph.vertex_count, graph.edges)
    if girth is math.inf:
        return math.inf
    if girth % 2 != 0:
        raise GroupError("coset graph has an odd cycle; it is not bipartite")
    return girth // 2


# -- local links ---------------------------------------------------------------


class LocalLink(namedtuple("LocalLink", "order neighbors diameter")):
    """Cayley graph of a vertex group on all nontrivial powers of its two
    generators; neighbors[e][s] is element e's neighbour on symbol s."""

    __slots__ = ()


def local_link(group: FiniteGroup, x: int, y: int, k: int) -> LocalLink:
    for g, letter in ((x, "first"), (y, "second")):
        if group.element_order(g) != k:
            raise GroupError(
                f"{group.name}: {letter} generator has order {group.element_order(g)}, expected {k}"
            )
    if len(group.generated_subgroup([x, y])) != group.order:
        raise GroupError(f"{group.name}: designated generators do not generate")
    symbols = group.cyclic_subgroup(x)[1:] + group.cyclic_subgroup(y)[1:]
    neighbors = [[group.mult[e][s] for s in symbols] for e in range(group.order)]
    diameter = _bfs_eccentricity(neighbors, 0)
    return LocalLink(group.order, neighbors, diameter)


def _bfs_eccentricity(neighbors: list[list[int]], start: int) -> int:
    dist = {start: 0}
    queue = [start]
    ecc = 0
    for u in queue:
        for v in neighbors[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                ecc = max(ecc, dist[v])
                queue.append(v)
    if len(dist) != len(neighbors):
        raise GroupError("local link is disconnected")
    return ecc


# -- triangle group specs --------------------------------------------------------


class TriangleGroupSpec:
    """Three vertex groups with designated generator pairs of a common order k."""

    def __init__(
        self,
        k: int,
        vertex_groups: tuple[FiniteGroup, FiniteGroup, FiniteGroup],
        designated: tuple[tuple[int, int], tuple[int, int], tuple[int, int]],
        name: str = "triangle-group",
    ):
        self.k = k
        self.vertex_groups = vertex_groups
        self.designated = designated
        self.name = name
        self.validate()

    def __repr__(self):
        return f"TriangleGroupSpec({self.name!r}, k={self.k})"

    def validate(self) -> None:
        """Check each designated pair, and list the vertex types where its
        cyclic subgroups meet beyond the identity; the constructor calls it,
        and a second call finds the same."""
        if self.k < 2:
            raise GroupError("k must be at least 2")
        self.nontrivial_edge_intersections = []
        for i, (group, (x, y)) in enumerate(zip(self.vertex_groups, self.designated)):
            for g in (x, y):
                order = group.element_order(g)
                if order != self.k:
                    raise GroupError(
                        f"{group.name} (V{i+1}): designated generator has order {order}, expected k={self.k}"
                    )
            if len(group.generated_subgroup([x, y])) != group.order:
                raise GroupError(f"{group.name} (V{i+1}): designated generators do not generate")
            meet = set(group.cyclic_subgroup(x)) & set(group.cyclic_subgroup(y))
            if len(meet) > 1:
                # legal but untested territory: edges of the complex would carry
                # extra symmetry; flagged so callers can surface it
                self.nontrivial_edge_intersections.append(i)

    def local_links(self) -> list[LocalLink]:
        return [
            local_link(group, x, y, self.k)
            for group, (x, y) in zip(self.vertex_groups, self.designated)
        ]

    @cached_property
    def link_diameters(self) -> tuple[int, int, int]:
        """The diameters of the three local links."""
        return tuple(link.diameter for link in self.local_links())

    @cached_property
    def delta(self) -> int:
        """The largest local-link diameter."""
        return max(self.link_diameters)

    @cached_property
    def half_girths(self) -> tuple[float, float, float]:
        """The half-girths of the three vertex groups' coset graphs."""
        return tuple(
            build_coset_graph(group, x, y).half_girth
            for group, (x, y) in zip(self.vertex_groups, self.designated)
        )

    def to_document(self) -> dict:
        docs = []
        for i, group in enumerate(self.vertex_groups):
            letters = VERTEX_LETTERS[i]
            gens = {
                LETTERS[letters[0]]: self.designated[i][0],
                LETTERS[letters[1]]: self.designated[i][1],
            }
            docs.append(group.to_document(gens))
        return {
            "name": self.name,
            "k": self.k,
            "vertex_groups": docs,
            "designated": {k: list(v) for k, v in DESIGNATED_PATTERN.items()},
        }


class NpcVerdict(namedtuple("NpcVerdict", "kind half_girths angle_sum excess", defaults=(None,))):
    """kind is "euclidean", "hyperbolic" or "fails"; angle_sum, and excess
    when it fails, are Fractions."""

    __slots__ = ()

    @property
    def nonpositively_curved(self) -> bool:
        return self.kind in ("euclidean", "hyperbolic")

    def __str__(self):
        rs = ",".join("inf" if r is math.inf else str(int(r)) for r in self.half_girths)
        if self.kind == "fails":
            return f"Fails(excess={self.excess}), r=({rs})"
        return f"{self.kind.capitalize()}, r=({rs})"


def npc_check(spec: TriangleGroupSpec) -> NpcVerdict:
    """Classify the spec by the half-girth angle sum 1/r1 + 1/r2 + 1/r3."""
    from fractions import Fraction  # the one rational sum a spec check makes

    girths = spec.half_girths
    total = Fraction(0)
    for r in girths:
        if r is not math.inf:
            total += Fraction(1, int(r))
    if total == 1:
        return NpcVerdict("euclidean", girths, total)
    if total < 1:
        return NpcVerdict("hyperbolic", girths, total)
    return NpcVerdict("fails", girths, total, excess=total - 1)


# -- document parsing ------------------------------------------------------------


def load_triangle_spec(document: dict, base_dir: str = "") -> TriangleGroupSpec:
    """Parse a triangle-group spec document, resolving group file references
    against `base_dir`."""
    if not isinstance(document, dict):
        raise GroupError("spec document must be an object")
    for key in ("k", "vertex_groups"):
        if key not in document:
            raise GroupError(f"spec document missing field {key!r}")
    k = _integer(document["k"], "k")
    raw_groups = document["vertex_groups"]
    if not isinstance(raw_groups, list) or len(raw_groups) != 3:
        raise GroupError("vertex_groups must list exactly three groups")
    designated_doc = document.get("designated", DESIGNATED_PATTERN)
    if not isinstance(designated_doc, dict):
        raise GroupError("designated must be an object")
    for key, want in DESIGNATED_PATTERN.items():
        if list(designated_doc.get(key, [])) != want:
            raise GroupError(
                f"designated map must assign {want} to {key}; letters a, b, c each "
                "belong to exactly two vertex groups"
            )
    groups = []
    designated = []
    for i, raw in enumerate(raw_groups):
        if isinstance(raw, str):
            path = os.path.join(base_dir, raw)
            try:
                with open(path) as fh:
                    raw = json.load(fh)
            except OSError as exc:
                raise GroupError(f"V{i+1}: cannot read group file {path}: {exc.strerror}") from None
            except UnicodeDecodeError as exc:
                raise GroupError(f"V{i+1}: cannot read group file {path}: {exc}") from None
        group = load_group(raw)
        gens = raw.get("generators", {})
        letters = VERTEX_LETTERS[i]
        pair = []
        for letter_idx in letters:
            letter = LETTERS[letter_idx]
            if letter not in gens:
                raise GroupError(
                    f"{group.name} (V{i+1}): generators map must name letter {letter!r}"
                )
            pair.append(gens[letter])  # an integer, checked by load_group
        groups.append(group)
        designated.append((pair[0], pair[1]))
    name = str(document.get("name", "triangle-group"))
    return TriangleGroupSpec(k, tuple(groups), tuple(designated), name=name)


def load_triangle_spec_file(path: str) -> TriangleGroupSpec:
    try:
        with open(path) as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise GroupError(f"cannot read spec file {path}: {exc}") from None
    return load_triangle_spec(json.loads(text), base_dir=os.path.dirname(path))
