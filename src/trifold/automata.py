"""Geodesic and lexicographically-first-geodesic automata over the ball.

States start from cone-type signatures (all-geodesic machine) or from the
prefix tree of lex-first words (lex machine) and are merged or split by
horizon-limited residual refinement: two nodes land in one state only when
the residual behavior they can both exhibit inside the ball agrees.  For
specs whose half-girths are all at least 3 the refinement of signatures
stops at level 0, the machine is the closed signature table, and that one
build certifies it at every length.  At a half-girth of 2, and for the lex
machine, the construction certifies itself by requiring the machines built
at consecutive radii to be isomorphic.  Either way the states of the
minimized all-geodesic machine are exactly the cone types.
"""

from __future__ import annotations

import json
from collections import namedtuple

from .development import Development, GeneratorSymbol, InsufficientRadiusError, VerificationError, symbols_for
from .cones import Signature, signature
from .groups import _integer


class AutomatonError(VerificationError, ValueError):
    pass


class GeodesicAutomaton:
    """Deterministic complete machine; every live state accepts."""

    def __init__(self, kind, k, n_live, start, transitions, metadata=None):
        self.kind = kind
        self.k = k
        self.alphabet = symbols_for(k)
        self.n_live = n_live
        self.dead = n_live  # explicit sink completing the machine
        self.start = start
        self.transitions = transitions  # (n_live+1) x len(alphabet), dead rows to dead
        self.metadata = dict(metadata or {})
        self._check_table()

    def _check_table(self) -> None:
        width = len(self.alphabet)
        if self.n_live < 0 or len(self.transitions) != self.n_states:
            raise AutomatonError(
                f"{len(self.transitions)} transition rows for {self.n_states} states"
            )
        for q, row in enumerate(self.transitions):
            if len(row) != width:
                raise AutomatonError(f"row {q} has {len(row)} entries, alphabet has {width}")
            for t in row:
                if not (isinstance(t, int) and 0 <= t <= self.dead):
                    raise AutomatonError(f"row {q} targets {t!r}, outside 0..{self.dead}")
        if any(t != self.dead for t in self.transitions[self.dead]):
            raise AutomatonError(f"dead state {self.dead} has a live transition")
        if not 0 <= self.start <= self.dead:
            raise AutomatonError(f"start {self.start} outside 0..{self.dead}")

    @property
    def n_states(self) -> int:
        return self.n_live + 1

    def is_accepting(self, state: int) -> bool:
        return state != self.dead

    def _symbol_index(self, symbol) -> int:
        if isinstance(symbol, GeneratorSymbol):
            if not (0 <= symbol.letter < 3 and 1 <= symbol.power < self.k):
                raise AutomatonError(f"symbol {symbol} outside the alphabet")
            return symbol.letter * (self.k - 1) + symbol.power - 1
        if isinstance(symbol, str):
            try:
                parsed = GeneratorSymbol.parse(symbol, self.k)
            except ValueError as exc:
                raise AutomatonError(f"symbol {symbol!r} outside the alphabet: {exc}") from exc
            return self._symbol_index(parsed)
        s = int(symbol)
        if not 0 <= s < len(self.alphabet):
            raise AutomatonError(f"symbol index {s} outside the alphabet")
        return s

    def step(self, state: int, symbol) -> int:
        return self.transitions[state][self._symbol_index(symbol)]

    def accepts(self, word) -> bool:
        state = self.start
        for symbol in word:
            state = self.step(state, symbol)
        return self.is_accepting(state)

    def canonical_form(self):
        """Reachable part renumbered breadth-first; isomorphism-invariant."""
        order = [self.start]
        pos = {self.start: 0}
        for q in order:
            for s in range(len(self.alphabet)):
                t = self.transitions[q][s]
                if t not in pos:
                    pos[t] = len(order)
                    order.append(t)
        table = tuple(
            tuple(pos[self.transitions[q][s]] for s in range(len(self.alphabet)))
            for q in order
        )
        accepting = tuple(self.is_accepting(q) for q in order)
        return (len(order), table, accepting)

    def growth_series(self, n: int) -> list[int]:
        """Accepted-word counts per length 0..n, exact integers."""
        counts = []
        vec = [0] * self.n_states
        vec[self.start] = 1
        counts.append(sum(vec[q] for q in range(self.n_states) if self.is_accepting(q)))
        for _ in range(n):
            nxt = [0] * self.n_states
            for q, weight in enumerate(vec):
                if weight:
                    for s in range(len(self.alphabet)):
                        nxt[self.transitions[q][s]] += weight
            vec = nxt
            counts.append(sum(vec[q] for q in range(self.n_states) if self.is_accepting(q)))
        return counts

    def to_document(self) -> dict:
        return {
            "format": "trifold-automaton/1",
            "kind": self.kind,
            "k": self.k,
            "alphabet": [a.name() for a in self.alphabet],
            "live_states": self.n_live,
            "start": self.start,
            "dead": self.dead,
            "transitions": [list(row) for row in self.transitions],
            "metadata": self.metadata,
        }

    @classmethod
    def from_document(cls, doc: dict) -> "GeodesicAutomaton":
        """The machine a `to_document` document describes: its kind one of
        the two machines built here, and every number a JSON integer."""
        if not isinstance(doc, dict) or doc.get("format") != "trifold-automaton/1":
            raise AutomatonError("not an automaton document")
        kind = doc.get("kind")
        if kind not in ("all-geodesics", "lex-first"):
            raise AutomatonError(f"kind must be 'all-geodesics' or 'lex-first', got {kind!r}")
        k, live, start = (
            _integer(doc.get(field), field, AutomatonError) for field in ("k", "live_states", "start")
        )
        if _integer(doc.get("dead", live), "dead", AutomatonError) != live:
            raise AutomatonError(f"dead {doc['dead']} is not live_states {live}")
        rows = doc.get("transitions")
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise AutomatonError("transitions must be a list of rows")
        for q, row in enumerate(rows):
            for t in row:
                _integer(t, f"transitions row {q}", AutomatonError)
        metadata = doc.get("metadata", {})
        if not isinstance(metadata, dict):
            raise AutomatonError(f"metadata must be an object, got {metadata!r}")
        return cls(kind, k, live, start, [list(row) for row in rows], metadata)

    def to_json(self) -> str:
        return json.dumps(self.to_document(), sort_keys=True, indent=1) + "\n"

    def to_dot(self) -> str:
        lines = ["digraph automaton {", "  rankdir=LR;"]
        for q in range(self.n_live):
            shape = "doublecircle" if self.is_accepting(q) else "circle"
            mark = " (start)" if q == self.start else ""
            lines.append(f'  q{q} [shape={shape}, label="q{q}{mark}"];')
        for q in range(self.n_live):
            for s, a in enumerate(self.alphabet):
                t = self.transitions[q][s]
                if t != self.dead:
                    lines.append(f'  q{q} -> q{t} [label="{a.name()}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def language_equal(a: GeodesicAutomaton, b: GeodesicAutomaton) -> bool:
    """Exact language equality via product reachability."""
    if a.k != b.k:
        return False
    seen = {(a.start, b.start)}
    queue = [(a.start, b.start)]
    for qa, qb in queue:
        if a.is_accepting(qa) != b.is_accepting(qb):
            return False
        for s in range(len(a.alphabet)):
            pair = (a.transitions[qa][s], b.transitions[qb][s])
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return True


def minimize(a: GeodesicAutomaton) -> GeodesicAutomaton:
    """Partition-refinement minimization; result checked language-equal."""
    n = a.n_states
    n_sym = len(a.alphabet)
    cls = [1 if a.is_accepting(q) else 0 for q in range(n)]
    while True:
        keys = {}
        new_cls = [0] * n
        for q in range(n):
            key = (cls[q], tuple(cls[a.transitions[q][s]] for s in range(n_sym)))
            if key not in keys:
                keys[key] = len(keys)
            new_cls[q] = keys[key]
        if new_cls == cls:
            break
        cls = new_cls
    order = [cls[a.start]]
    seen = {cls[a.start]}
    reps = {cls[q]: q for q in range(n - 1, -1, -1)}
    for c in order:
        for s in range(n_sym):
            t = cls[a.transitions[reps[c]][s]]
            if t not in seen:
                seen.add(t)
                order.append(t)
    pos = {c: i for i, c in enumerate(order)}
    live = [c for c in order if a.is_accepting(reps[c])]
    dead_classes = [c for c in order if not a.is_accepting(reps[c])]
    if len(dead_classes) > 1:
        raise AutomatonError("minimization produced several dead classes")
    renum = {}
    for c in order:
        if a.is_accepting(reps[c]):
            renum[c] = len(renum)
    dead_index = len(renum)
    for c in dead_classes:
        renum[c] = dead_index
    transitions = [[dead_index] * n_sym for _ in range(dead_index + 1)]
    for c in order:
        q = renum[c]
        if q == dead_index:
            continue
        for s in range(n_sym):
            transitions[q][s] = renum[cls[a.transitions[reps[c]][s]]]
    out = GeodesicAutomaton(
        a.kind, a.k, dead_index, renum[cls[a.start]], transitions,
        dict(a.metadata, minimized=True),
    )
    if not language_equal(a, out):
        raise AutomatonError("minimization changed the language")
    return out


# -- shared refinement machinery -------------------------------------------------


def _refine_to_machine(kind, dev, radius, children, seed_cls, metadata, max_level=None):
    """Horizon-limited residual refinement over the faces within radius.

    A face's depth is its distance, children[f] maps symbol index to the child
    face, seed_cls[f] is the starting class.  Nodes merge only while every
    residual either can see agrees; refinement stops at the first level whose
    partition repeats on the still-visible domain, and every transition target
    must itself be a state, otherwise the radius is declared too small.  A
    partition that still splits at level max_level is a fault, for there the
    classes must already determine the successors.
    """
    n_sym = dev.symbol_count
    cls = dict(seed_cls)
    level = 0
    while True:
        domain = dev.ball_faces(radius - level - 1)
        if not domain:
            raise InsufficientRadiusError(
                f"{kind}: no residual horizon left at level {level}; radius too small"
            )
        keys = {}
        new_cls = {}
        for f in domain:
            key = (
                cls[f],
                tuple(
                    cls[children[f][s]] if s in children[f] else -1
                    for s in range(n_sym)
                ),
            )
            if key not in keys:
                keys[key] = len(keys)
            new_cls[f] = keys[key]
        # new_cls refines cls on the domain, so the partitions agree
        # exactly when they have as many classes
        if len(keys) == len({cls[f] for f in domain}):
            break
        if level == max_level:
            raise AutomatonError(
                f"{kind}: successor rows INCOHERENT within radius {radius}: the classes "
                f"of refinement level {level} do not determine the successors"
            )
        cls = new_cls
        level += 1

    state_of_class = {}
    for f in domain:
        if cls[f] not in state_of_class:
            state_of_class[cls[f]] = len(state_of_class)
    n_live = len(state_of_class)
    transitions = [[n_live] * n_sym for _ in range(n_live + 1)]
    rep = {}
    for f in domain:
        rep.setdefault(cls[f], f)
    for c, q in state_of_class.items():
        f = rep[c]
        for s in range(n_sym):
            child = children[f].get(s)
            if child is None:
                continue
            if cls[child] not in state_of_class:
                raise InsufficientRadiusError(
                    f"{kind}: the child of face {f} on {dev.symbols[s].name()} has no "
                    f"state at radius {radius}; radius too small"
                )
            transitions[q][s] = state_of_class[cls[child]]
    for f in domain:
        q = state_of_class[cls[f]]
        for s in range(n_sym):
            child = children[f].get(s)
            want = n_live if child is None else state_of_class.get(cls[child], -2)
            if transitions[q][s] != want:
                raise AutomatonError(f"{kind}: transition disagreement inside a state")
    meta = dict(metadata, refinement_level=level, radius=radius)
    return GeodesicAutomaton(kind, dev.k, n_live, state_of_class[cls[0]], transitions, meta)


# -- the all-geodesics machine ----------------------------------------------------


def _geodesic_machine_once(dev: Development, radius: int) -> GeodesicAutomaton:
    nodes = dev.ball_faces(radius)
    sig_ids: dict[Signature, int] = {}
    seed = {}
    for f in nodes:
        sig = signature(dev, f)
        if sig not in sig_ids:
            sig_ids[sig] = len(sig_ids)
        seed[f] = sig_ids[sig]
    children = {}
    for f in nodes:
        row = {}
        for s in range(dev.symbol_count):
            g = dev.neighbor(f, s)
            if g is not None and dev.final[g] and dev.dist[g] == dev.dist[f] + 1:
                row[s] = g
        children[f] = row
    # with every half-girth at least 3 the signatures determine the successors
    return _refine_to_machine(
        "all-geodesics", dev, radius, children, seed,
        {"signature_count": len(sig_ids)},
        max_level=0 if min(dev.spec.half_girths) >= 3 else None,
    )


def build_geodesic_automaton(dev: Development, radius: int) -> GeodesicAutomaton:
    """Machine accepting exactly the geodesic words; minimized, its states are
    the cone types.

    With every half-girth at least 3 a face's signature determines its cone
    type, so the machine must close at refinement level 0, and a level above
    it is a fault.  It is then a closed signature table: every successor of a
    signature is again a signature, and by induction on word length the
    machine is right at every length, so that one build is the certificate.
    At a half-girth of 2 closure proves nothing, and the machine built one
    radius earlier must be isomorphic.  The metadata records the signature
    count, the refinement level and the certified radius.
    """
    if radius < 2:
        raise InsufficientRadiusError("need radius at least 2 for a certificate")
    current = _geodesic_machine_once(dev, radius)
    if min(dev.spec.half_girths) < 3 and (
        current.canonical_form() != _geodesic_machine_once(dev, radius - 1).canonical_form()
    ):
        raise InsufficientRadiusError(
            "geodesic machine not stable between consecutive radii; radius too small"
        )
    current.metadata["certified_radius"] = radius
    return current


# -- lex-first words and their machine ---------------------------------------------


def lexfirst_words(dev: Development, radius: int):
    """Lex-least geodesic word per ball element, with the predecessor tree.

    Words are symbol-index tuples; the lex order is letter first, ascending
    power, matching the symbol indexing.
    """
    if radius > dev.radius:
        raise InsufficientRadiusError("ball not trusted that far")
    words: dict[int, tuple[int, ...]] = {0: ()}
    parents: dict[int, int] = {}
    inverse = [
        sym.letter * (dev.k - 1) + (dev.k - sym.power) - 1 for sym in dev.symbols
    ]
    # a face's predecessors precede it in the breadth-first numbering
    for f in dev.ball_faces(radius)[1:]:
        d = dev.dist[f]
        best = None
        best_parent = None
        for s in range(dev.symbol_count):
            g = dev.neighbor(f, inverse[s])
            if g is None or not dev.final[g] or dev.dist[g] != d - 1:
                continue
            cand = words[g] + (s,)
            if best is None or cand < best:
                best = cand
                best_parent = g
        if best is None:
            raise InsufficientRadiusError(f"face {f} has no predecessor in the ball")
        words[f] = best
        parents[f] = best_parent
    return words, parents


def build_lexfirst_automaton(
    dev: Development, radius: int, certify: bool = True
) -> GeodesicAutomaton:
    """Machine accepting exactly the lex-first geodesic words.

    Always verified extensionally on the visible ball: per-length accepted
    counts must equal sphere sizes and every lex-first word must be accepted,
    which pins the accepted sets exactly.  With certify the machine built one
    radius earlier must in addition be isomorphic.
    """
    if radius < 2:
        raise InsufficientRadiusError("need radius at least 2 for a certificate")
    # the words of length below radius do not depend on the longer ones, so one
    # call serves both machines
    words, parents = lexfirst_words(dev, radius)
    current = _lexfirst_machine_once(dev, radius, words, parents)
    if certify:
        previous = _lexfirst_machine_once(dev, radius - 1, words, parents)
        if current.canonical_form() != previous.canonical_form():
            raise InsufficientRadiusError(
                "lex-first machine not stable between consecutive radii; radius too small"
            )
        current.metadata["certified_radius"] = radius
    counts = current.growth_series(radius)
    spheres = dev.sphere_sizes[: radius + 1]
    if counts != spheres:
        raise AutomatonError(
            f"lex-first machine counts {counts} disagree with sphere sizes {spheres}"
        )
    for f, word in words.items():
        if not current.accepts(word):
            raise AutomatonError(f"lex-first machine rejects the word of face {f}")
    current.metadata["extensional_radius"] = radius
    return current


def _lexfirst_machine_once(
    dev: Development, radius: int, words: dict, parents: dict
) -> GeodesicAutomaton:
    """The machine of the lex-first tree cut at `radius`; `words` and `parents`
    come from `lexfirst_words` at `radius` or beyond."""
    ball = dev.ball_faces(radius)
    children: dict[int, dict[int, int]] = {f: {} for f in ball}
    for f in ball[1:]:
        children[parents[f]][words[f][-1]] = f
    seed = dict.fromkeys(ball, 0)
    return _refine_to_machine(
        "lex-first", dev, radius, children, seed, {"elements": len(ball)}
    )


# -- fellow traveller ---------------------------------------------------------------


class FellowTravellerReport(namedtuple(
    "FellowTravellerReport",
    "delta observed_sync observed_async pairs_checked skipped worst violations",
)):
    """worst is (base word, symbol name, index) of the largest synchronous
    deviation, None when there is none; each violation is (face, symbol
    name, index, distance), the distance None past delta + 1."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self):
        return self.ok


def fellow_traveller_check(dev: Development, radius: int) -> FellowTravellerReport:
    """Synchronous deviation of lex-first words of adjacent elements.

    For every element within the radius and every generator keeping its
    neighbor inside the trusted ball, the two lex-first words are compared
    index by index, the shorter one held at its endpoint; the bound is the
    largest local-link diameter.  The asynchronous deviation is reported as a
    diagnostic alongside.
    """
    if dev.radius < radius + 1:
        raise InsufficientRadiusError("need the ball trusted one step past the radius")
    words, parents = lexfirst_words(dev, radius + 1)
    delta = dev.spec.delta
    cap = delta + 1
    chains: dict[int, list[int]] = {0: [0]}

    def chain(f: int) -> list[int]:
        got = chains.get(f)
        if got is None:
            got = chain(parents[f]) + [f]
            chains[f] = got
        return got

    observed_sync = 0
    observed_async = 0
    worst = None
    violations = []
    pairs = 0
    skipped = 0
    for f in dev.ball_faces(radius):
        for s in range(dev.symbol_count):
            g = dev.neighbor(f, s)
            if g is None or not dev.final[g]:
                skipped += 1
                continue
            pairs += 1
            cf, cg = chain(f), chain(g)
            # both chains run down one tree from face 0, so they agree on a
            # prefix and share no face after it
            shared = 1
            while shared < len(cf) and shared < len(cg) and cf[shared] == cg[shared]:
                shared += 1
            for i in range(shared, max(len(cf), len(cg))):
                x = cf[i] if i < len(cf) else cf[-1]
                y = cg[i] if i < len(cg) else cg[-1]
                d = _distance_within(dev, x, (y,), cap)
                if d is None or d > delta:
                    violations.append((f, dev.symbols[s].name(), i, d))
                    d = cap
                if d > observed_sync:
                    observed_sync = d
                    worst = (words[f], dev.symbols[s].name(), i)
            observed_async = max(
                observed_async,
                _async_side(dev, cf[shared:], cg, cap),
                _async_side(dev, cg[shared:], cf, cap),
            )
    return FellowTravellerReport(
        delta, observed_sync, observed_async, pairs, skipped, worst, violations
    )


def _async_side(dev: Development, tail: list[int], other: list[int], cap: int) -> int:
    """The largest distance from a face of tail to the nearest face of
    other, cap when none is nearer than cap, 0 for an empty tail."""
    goals = set(other)
    out = 0
    for x in tail:
        d = _distance_within(dev, x, goals, cap - 1)
        if d is None:
            return cap
        if d > out:
            out = d
    return out


def _distance_within(dev: Development, x: int, goals, reach: int) -> int | None:
    """The distance from face x to the nearest face in goals, None when none
    is within reach steps: a breadth-first search that stops there."""
    if x in goals:
        return 0
    known = dev._adjacency  # read directly, as Development.bfs_from does
    seen = {x}
    layer = [x]
    for d in range(1, reach + 1):
        outer = []
        for f in layer:
            near = known.get(f)
            if near is None:
                near = dev.adjacent_faces(f)
            for g in near:
                if g not in seen:
                    if g in goals:
                        return d
                    seen.add(g)
                    outer.append(g)
        layer = outer
    return None
