import re

import pytest

from trifold import automata
from trifold.automata import (
    AutomatonError,
    FellowTravellerReport,
    GeodesicAutomaton,
    _geodesic_machine_once,
    _lexfirst_machine_once,
    build_geodesic_automaton,
    build_lexfirst_automaton,
    fellow_traveller_check,
    language_equal,
    lexfirst_words,
    minimize,
)
from trifold.development import (
    GeneratorSymbol,
    InsufficientRadiusError,
    VerificationError,
    export_development,
    import_development,
)
from trifold.grower import grow_to_radius
from trifold.samples import load_sample

MACHINE_RADII = {"d333": 8, "d244": 10, "d236": 23, "d444": 7, "f21_333": 6}
LEX_RADII = {"d333": 11, "d244": 8, "d236": 19, "d444": 10}


def geodesic_word_counts(dev, n):
    counts = [1]
    mult = {0: 1}
    for d in range(1, n + 1):
        nxt = {}
        for f, m in mult.items():
            for s in range(dev.symbol_count):
                g = dev.neighbor(f, s)
                if g is not None and dev.final[g] and dev.dist[g] == d:
                    nxt[g] = nxt.get(g, 0) + m
        counts.append(sum(nxt.values()))
        mult = nxt
    return counts


def all_geodesic_words(dev, n):
    """Exhaustive oracle: distance-increasing walks from the base."""
    out = {(): 0}
    frontier = [((), 0)]
    for _ in range(n):
        nxt = []
        for word, f in frontier:
            for s in range(dev.symbol_count):
                g = dev.neighbor(f, s)
                if g is not None and dev.final[g] and dev.dist[g] == dev.dist[f] + 1:
                    nxt.append((word + (s,), g))
        out.update(nxt)
        frontier = nxt
    return out


def test_geodesic_machine_counts_match_bfs_oracle(devs):
    for name in ("d333", "d444"):
        dev = devs[name]
        machine = build_geodesic_automaton(dev, MACHINE_RADII[name])
        n = MACHINE_RADII[name]
        assert machine.growth_series(n) == geodesic_word_counts(dev, n)


def test_geodesic_machine_accepts_exactly_geodesics(dev333):
    machine = build_geodesic_automaton(dev333, 8)
    words = all_geodesic_words(dev333, 6)
    # soundness and completeness against trace through the ball
    from itertools import product

    for length in range(0, 7):
        for word in product(range(dev333.symbol_count), repeat=length):
            assert machine.accepts(word) == (word in words)


def test_empty_word_and_square_letters(dev333):
    machine = build_geodesic_automaton(dev333, 6)
    assert machine.accepts([])
    for s in range(3):
        assert not machine.accepts([s, s])  # involutions backtrack


def test_prefix_closure(devs):
    for name in ("d333", "f21_333"):
        machine = build_geodesic_automaton(devs[name], MACHINE_RADII[name])
        words = all_geodesic_words(devs[name], 5)
        for word in words:
            for cut in range(len(word)):
                assert machine.accepts(word[:cut])


def test_foreign_symbol_rejected(dev333):
    # symbols are indices 0..2 for k = 2: a name, a record, a bool, a float
    # or an index out of range is refused
    machine = build_geodesic_automaton(dev333, 6)
    for symbol in ("a1", "d1", GeneratorSymbol(0, 1), GeneratorSymbol(0, 2), True, 1.0, 3, -1):
        with pytest.raises(AutomatonError, match="is not an index into the alphabet"):
            machine.accepts([symbol])


def test_states_are_cone_types_when_links_determine(devs):
    for name in ("d333", "d444", "f21_333"):
        machine = build_geodesic_automaton(devs[name], MACHINE_RADII[name])
        assert machine.metadata["refinement_level"] == 0
        assert machine.n_live == machine.metadata["signature_count"]


def test_refinement_splits_states_for_half_girth_two(devs):
    machine = build_geodesic_automaton(devs["d244"], 10)
    assert machine.n_live > machine.metadata["signature_count"]
    n = 10
    assert machine.growth_series(n) == geodesic_word_counts(devs["d244"], n)


def _consecutive_reference(dev, radius):
    """The certificate build_geodesic_automaton gave at every half-girth
    before closure: the machines built at radius and radius - 1 have equal
    canonical forms.  The machine at radius, or None when they differ or
    either build fails."""
    try:
        current = _geodesic_machine_once(dev, radius)
        previous = _geodesic_machine_once(dev, radius - 1)
    except VerificationError:
        return None
    return current if current.canonical_form() == previous.canonical_form() else None


def _certified(dev, radius):
    try:
        return build_geodesic_automaton(dev, radius)
    except InsufficientRadiusError:
        return None


# the first machine radius where closure certifies, and where the
# consecutive-radius reference first holds, one above it
CLOSURE_RADII = {"d333": 5, "d444": 6, "f21_333": 5}


@pytest.mark.parametrize("name", sorted(CLOSURE_RADII))
def test_closure_certifies_one_radius_before_the_reference(devs, monkeypatch, name):
    dev = devs[name]
    radius = CLOSURE_RADII[name]
    assert _certified(dev, radius - 1) is None
    builds = []

    def counted(*args):
        builds.append(args[1])
        return _geodesic_machine_once(*args)

    monkeypatch.setattr(automata, "_geodesic_machine_once", counted)
    machine = _certified(dev, radius)
    assert builds == [radius]  # one build is the certificate
    assert machine.metadata["refinement_level"] == 0
    assert machine.metadata["certified_radius"] == radius
    assert _consecutive_reference(dev, radius) is None
    reference = _consecutive_reference(dev, radius + 1)
    assert reference is not None
    assert language_equal(machine, reference)


@pytest.mark.parametrize("name", ["d244", "d236"])
def test_half_girth_two_keeps_the_consecutive_certificate(devs, name):
    dev = devs[name]
    radius = MACHINE_RADII[name]
    assert _certified(dev, radius - 1) is None
    assert _consecutive_reference(dev, radius - 1) is None
    machine = build_geodesic_automaton(dev, radius)
    assert machine.metadata["refinement_level"] > 0
    assert machine.canonical_form() == _consecutive_reference(dev, radius).canonical_form()


def test_closure_refuses_a_changed_chart_element(dev333):
    # as in test_cli.py::test_verify_fault_injection_fails: the first face at
    # distance 3 takes another element in the chart of its V2 vertex, on a
    # copy of the shared ball, after the load
    dev = import_development(export_development(dev333), dev333.spec)
    x = 3 * dev.dist.index(3) + 1
    dev.f_elem[x] = (dev.f_elem[x] + 1) % 6
    with pytest.raises(AutomatonError, match="successor rows INCOHERENT within radius 8"):
        build_geodesic_automaton(dev, 8)


def test_lexfirst_words_one_per_element_and_minimal(dev333):
    words, parents = lexfirst_words(dev333, 6)
    ball = [f for f in dev333.ball_faces() if dev333.dist[f] <= 6]
    assert sorted(words) == ball
    # brute force: smallest among all geodesic words per element
    reached = {}
    for word, f in all_geodesic_words(dev333, 6).items():
        if f not in reached or word < reached[f]:
            reached[f] = word
    for f in ball:
        assert words[f] == reached[f]


def test_lexfirst_machine_counts_equal_spheres(devs):
    for name, radius in LEX_RADII.items():
        dev = devs[name]
        machine = build_lexfirst_automaton(dev, radius)
        assert machine.growth_series(radius) == dev.sphere_sizes[: radius + 1]


def test_lexfirst_uncertified_f21(devs):
    dev = devs["f21_333"]
    machine = build_lexfirst_automaton(dev, 9, certify=False)
    assert machine.growth_series(9) == dev.sphere_sizes[:10]
    assert "certified_radius" not in machine.metadata
    with pytest.raises(InsufficientRadiusError):
        build_lexfirst_automaton(dev, 8)


def test_lexfirst_machine_from_cut_words(devs):
    # build_lexfirst_automaton builds its radius - 1 machine from the words of
    # radius cut at radius - 1; that must equal the machine of the words of
    # radius - 1, or fail the same way
    def machine(dev, radius, words):
        try:
            return _lexfirst_machine_once(dev, radius, *words).to_document()
        except InsufficientRadiusError as exc:
            return str(exc)

    for name, radius in {**LEX_RADII, "f21_333": 9}.items():
        dev = devs[name]
        for r in (radius - 2, radius - 1):
            assert machine(dev, r, lexfirst_words(dev, radius)) == machine(
                dev, r, lexfirst_words(dev, r)
            ), (name, r)


def test_language_inclusion_lex_in_geodesic(dev333):
    lex = build_lexfirst_automaton(dev333, 11)
    geo = build_geodesic_automaton(dev333, 8)
    words, _ = lexfirst_words(dev333, 8)
    for word in words.values():
        assert geo.accepts(word)


def test_machine_stabilization_three_radii(dev333):
    forms = {
        r: build_geodesic_automaton(dev333, r).canonical_form() for r in (6, 7, 8)
    }
    assert forms[6] == forms[7] == forms[8]


def test_minimize_properties(dev333):
    machine = build_geodesic_automaton(dev333, 8)
    small = minimize(machine)
    again = minimize(small)
    assert small.n_live <= machine.n_live
    assert again.n_live == small.n_live
    assert language_equal(machine, small)
    # a machine with a reachable duplicated state must collapse: row n copies
    # a live state p with two incoming transitions, one of which is redirected
    # to the copy; the sink moves to n+1.  A copy of the start state would be
    # unreachable, since no transition of a geodesic machine enters start.
    n = machine.n_live
    padded = [
        [t if t != machine.dead else n + 1 for t in row] for row in machine.transitions[:n]
    ]
    for p in range(n):
        incoming = [(q, s) for q in range(n) for s, t in enumerate(padded[q]) if t == p]
        if len(incoming) >= 2:
            break
    else:
        pytest.fail("no live state with two incoming transitions")
    padded.append(list(padded[p]))
    q, s = incoming[-1]
    padded[q][s] = n
    padded.append([n + 1] * len(machine.alphabet))
    doubled = GeodesicAutomaton(machine.kind, machine.k, n + 1, machine.start, padded)
    assert doubled.canonical_form()[0] == machine.canonical_form()[0] + 1
    assert language_equal(doubled, machine)
    merged = minimize(doubled)
    assert merged.n_live == small.n_live
    assert language_equal(merged, machine)


def test_malformed_transition_tables_rejected(dev333):
    machine = build_geodesic_automaton(dev333, 8)
    n = machine.n_live
    width = len(machine.alphabet)
    # n+3 rows for n+2 states, and the sink index n+1 holds live transitions
    rows = [[t if t != machine.dead else n + 1 for t in row] for row in machine.transitions]
    rows.append(list(rows[machine.start]))
    rows.append([n + 1] * width)
    with pytest.raises(AutomatonError):
        GeodesicAutomaton(machine.kind, machine.k, n + 1, machine.start, rows)
    # the same live sink with the row count right
    with pytest.raises(AutomatonError):
        GeodesicAutomaton(machine.kind, machine.k, n + 1, machine.start, rows[: n + 2])
    with pytest.raises(AutomatonError):
        GeodesicAutomaton(machine.kind, machine.k, n, n + 1, machine.transitions)
    doc = machine.to_document()
    ragged = dict(doc, transitions=[list(r) for r in doc["transitions"]])
    ragged["transitions"][0] = ragged["transitions"][0][:-1]
    with pytest.raises(AutomatonError):
        GeodesicAutomaton.from_document(ragged)
    far = dict(doc, transitions=[list(r) for r in doc["transitions"]])
    far["transitions"][0][0] = n + 1
    with pytest.raises(AutomatonError):
        GeodesicAutomaton.from_document(far)


# a fault value that deletes its field
MISSING = object()


def _k_one(doc):
    """k = 1, with the empty alphabet and rows of k = 1 to match."""
    doc["alphabet"], doc["transitions"] = [], [[] for _ in doc["transitions"]]
    return 1


# automaton documents with one field wrong, and the error naming it
DOCUMENT_FAULTS = {
    "k": ("k", lambda doc: "2", "k must be an integer, got '2'"),
    "k below 2": ("k", _k_one, "k must be at least 2, got 1"),
    "alphabet letters": ("alphabet", lambda doc: ["x", "y", "z"],
                         "alphabet must be the 3 generator names for k=2, got ['x', 'y', 'z']"),
    "alphabet of k=3": ("alphabet", lambda doc: ["a1", "b1"],
                        "alphabet must be the 3 generator names for k=2, got ['a1', 'b1']"),
    "alphabet string": ("alphabet", lambda doc: "a1b1c1",
                        "alphabet must be the 3 generator names for k=2, got 'a1b1c1'"),
    "alphabet missing": ("alphabet", lambda doc: MISSING,
                         "alphabet must be the 3 generator names for k=2, got None"),
    "live_states": ("live_states", lambda doc: doc["live_states"] + 0.9, "live_states must be an integer"),
    "start": ("start", lambda doc: True, "start must be an integer, got True"),
    "transition": ("transitions", lambda doc: [[False, *doc["transitions"][0][1:]], *doc["transitions"][1:]],
                   "transitions row 0 must be an integer, got False"),
    "transitions": ("transitions", lambda doc: 5, "transitions must be a list of rows"),
    "dead": ("dead", lambda doc: doc["live_states"] + 1, "is not live_states"),
    "metadata": ("metadata", lambda doc: [1], "metadata must be an object, got [1]"),
    "kind": ("kind", lambda doc: "geodesic", "kind must be 'all-geodesics' or 'lex-first', got 'geodesic'"),
    "kind missing": ("kind", lambda doc: MISSING, "kind must be 'all-geodesics' or 'lex-first', got None"),
}


@pytest.mark.parametrize("field, fault, message", DOCUMENT_FAULTS.values(), ids=DOCUMENT_FAULTS)
def test_automaton_document_refuses_a_wrong_field(dev333, field, fault, message):
    doc = build_geodesic_automaton(dev333, 6).to_document()
    doc[field] = fault(doc)
    if doc[field] is MISSING:
        del doc[field]
    with pytest.raises(AutomatonError, match=re.escape(message)):
        GeodesicAutomaton.from_document(doc)


def test_automaton_document_roundtrip(dev333):
    machine = build_geodesic_automaton(dev333, 6)
    doc = machine.to_document()
    again = GeodesicAutomaton.from_document(doc)
    assert language_equal(machine, again)
    assert again.growth_series(6) == machine.growth_series(6)
    dot = machine.to_dot()
    assert dot.startswith("digraph") and "a1" in dot


@pytest.mark.parametrize("name", ["d333", "d244", "d236", "d444"])
def test_fellow_traveller_bound(devs, name):
    dev = devs[name]
    report = fellow_traveller_check(dev, 5)
    assert report.ok
    assert report.observed_sync <= report.delta
    assert report.observed_async <= report.observed_sync
    assert report.pairs_checked > 0


def test_fellow_traveller_prefix_pairs_deviate_by_one(dev333):
    # a word against its own one-step extension deviates by exactly one
    words, parents = lexfirst_words(dev333, 4)

    def chain(f):
        out = [f]
        while out[-1] in parents:
            out.append(parents[out[-1]])
        return out[::-1]

    dists = {}
    for f, parent in parents.items():
        cf, cp = chain(f), chain(parent)
        assert len(cf) == len(words[f]) + 1 == len(cp) + 1
        deviation = 0
        for i in range(len(cf)):
            x, y = cf[i], cp[min(i, len(cp) - 1)]
            if x not in dists:
                dists[x] = dev333.bfs_from(x)
            deviation = max(deviation, dists[x][y])
        assert deviation == 1, f
    report = fellow_traveller_check(dev333, 4)
    assert report.delta == 3
    assert 1 <= report.observed_sync <= report.delta


def test_fellow_refuses_a_missing_neighbour():
    """A face within the check radius with no neighbour on some symbol, a
    ball no load returns, is a fault named by face and symbol, not a pair
    left out."""
    dev = grow_to_radius(load_sample("d444"), 5)
    # a face at distance 4 loses a neighbour on an edge it holds in slot 0,
    # where every other face lies at distance 5 and keeps its lex-first word
    f, s = next(
        (f, s) for f in reversed(dev.ball_faces(4)) for s in range(dev.symbol_count)
        if dev.dist[f] == 4 and dev.f_slot[3 * f + s // (dev.k - 1)] == 0
    )
    g = dev.neighbor(f, s)
    x = 3 * g + s // (dev.k - 1)
    dev.edge_slots[dev.k * dev.f_edge[x] + dev.f_slot[x]] = -1
    with pytest.raises(VerificationError, match=f"^face {f} has no neighbour on {dev.symbols[s].name()} in the ball$"):
        fellow_traveller_check(dev, 4)


# -- the per-pair table scan, the reference for fellow_traveller_check --------------


def _capped_dist_fellow(dev, radius, sides):
    """fellow_traveller_check comparing every index of both chains and
    scanning the asynchronous side with one capped_dist call per face pair,
    each read from the breadth-first table out to delta + 1 of its first
    face, the tables the check built before it searched on demand; each
    pair's two asynchronous sides are appended to sides."""
    parents = lexfirst_words(dev, radius + 1)[1]
    delta = dev.spec.delta
    cap = delta + 1
    chains = {0: [0]}

    def chain(f):
        if f not in chains:
            chains[f] = chain(parents[f]) + [f]
        return chains[f]

    dist_cache = {}

    def capped_dist(x, y):
        if x == y:
            return 0
        if x not in dist_cache:
            dist_cache[x] = dev.bfs_from(x, cap)
        return dist_cache[x].get(y)

    def async_side(cf, cg):
        out = 0
        for x in cf:
            best = None
            for y in cg:
                d = capped_dist(x, y)
                if d is not None and (best is None or d < best):
                    best = d
                    if best == 0:
                        break
            out = max(out, cap if best is None else best)
        return out

    observed_sync = observed_async = pairs = 0
    violations = []
    for f in dev.ball_faces(radius):
        for s in range(dev.symbol_count):
            g = dev.neighbor(f, s)
            pairs += 1
            cf, cg = chain(f), chain(g)
            for i in range(1, max(len(cf), len(cg))):
                x = cf[i] if i < len(cf) else cf[-1]
                y = cg[i] if i < len(cg) else cg[-1]
                d = capped_dist(x, y)
                if d is None or d > delta:
                    violations.append((f, dev.symbols[s].name(), i, d))
                    d = cap
                observed_sync = max(observed_sync, d)
            sides += [async_side(cf, cg), async_side(cg, cf)]
            observed_async = max(observed_async, *sides[-2:])
    return FellowTravellerReport(delta, observed_sync, observed_async, pairs, violations)


def _assert_fellow_matches_capped_dist_scan(monkeypatch, dev, radius):
    """The report, field by field, and each pair's two asynchronous sides
    equal the reference scan's; returns the report."""
    sides = []
    original = automata._async_side

    def recorded(*args):
        sides.append(original(*args))
        return sides[-1]

    monkeypatch.setattr(automata, "_async_side", recorded)
    report = fellow_traveller_check(dev, radius)
    expected_sides = []
    assert report._asdict() == _capped_dist_fellow(dev, radius, expected_sides)._asdict()
    assert sides == expected_sides and len(sides) == 2 * report.pairs_checked
    return report


@pytest.mark.parametrize("name, ball_radius, radius", [
    ("d333", None, 5), ("d333", None, 10), ("d244", None, 5), ("d236", None, 5),
    ("d444", None, 5), ("f21_333", None, 3), ("d444", 8, 7), ("f21_333", 4, 3),
])
def test_fellow_report_matches_capped_dist_scan(monkeypatch, devs, name, ball_radius, radius):
    # the session balls, and the d444 and f21_333 balls the benchmark verifies
    dev = devs[name] if ball_radius is None else grow_to_radius(load_sample(name), ball_radius)
    _assert_fellow_matches_capped_dist_scan(monkeypatch, dev, radius)


@pytest.mark.parametrize("delta", [0, 1])
def test_fellow_report_matches_capped_dist_scan_with_violations(monkeypatch, delta):
    # a bound below the links' diameter: violations, the cap and pairs out of
    # reach all appear, at the indices the full scan gives them
    dev = grow_to_radius(load_sample("d444"), 6)
    monkeypatch.setattr(dev.spec, "delta", delta)
    report = _assert_fellow_matches_capped_dist_scan(monkeypatch, dev, 5)
    assert None in {v[3] for v in report.violations}
