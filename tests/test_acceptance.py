"""Acceptance suite: one test per criterion, exact tolerances throughout.

Each test prints one PASS/FAIL line (run pytest with -s or read captured
output).  Criteria quantifying over the shipped samples are parametrized, so
every sample reports its own line.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from trifold.automata import (
    build_geodesic_automaton,
    build_lexfirst_automaton,
    fellow_traveller_check,
    lexfirst_words,
    minimize,
)
from trifold.cones import signature_counts, verify_cone_determination
from trifold.curvature import (
    build_patch,
    extract_disc_diagrams,
    polygon_fixture,
    random_angles,
    triangle_fixture,
)
from trifold.development import development_to_json, embeds_in
from trifold.grower import grow_to_radius
from trifold.oracle import catacomb_check, compare_balls, isometry_ball
from trifold.samples import load_sample, sample_names

ALL_SAMPLES = sample_names()
EUCLIDEAN_K2 = ["d236", "d244", "d333"]

# per-sample radii.  MACHINE_RADII: the horizon-limited refinement of the
# all-geodesics machine first closes at radius 9 for d244 (24 states) and 22
# for d236 (41 states), and certification needs one radius more; the machine
# also needs interior faces, delta (4 for d244, 6 for d236) below the ball
# radius in conftest.DEV_RADII.  The other radii fit inside those balls.
# TABLE_RADII: signature counts, read only at a half-girth of 2.
TABLE_RADII = {"d244": 8, "d236": 13}
DETERMINATION_RADII = {"d333": 8, "d244": 8, "d236": 13, "d444": 7, "f21_333": 5}
MACHINE_RADII = {"d333": 8, "d244": 10, "d236": 23, "d444": 7, "f21_333": 6}
# d444 needs radius 5: an octagonal link cell needs all 8 faces around its
# vertex inside the patch, and at radius 4 only 3 cells and 7 discs fit
PATCH_RADII = {"d333": 4, "d444": 5}
LEX_RADII = {"d333": 11, "d244": 8, "d236": 19, "d444": 10, "f21_333": 9}
LEX_CERTIFIED = {"d333": True, "d244": True, "d236": True, "d444": True, "f21_333": False}
# the minimized live states of the all-geodesics machine where every
# half-girth is at least 3: f21_333 has 79 signatures but 16 cone types
CONE_TYPES = {"d333": 16, "d444": 22, "f21_333": 16}


def _report(cid: str, ok: bool, detail: str = ""):
    print(f"ACCEPT {cid}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{cid}: {detail}"


@pytest.mark.parametrize("name", EUCLIDEAN_K2)
def test_criterion_1_oracle_equivalence(name):
    """Development ball equals the exact-isometry ball at radius 5."""
    dev = grow_to_radius(load_sample(name), 5)
    ball = isometry_ball(name, 5)
    result = compare_balls(dev, ball, 5)
    _report(
        f"C1 oracle-equivalence[{name}]", result.ok,
        f"{result.matched} elements matched" if result.ok else result.detail,
    )


def test_criterion_2_crossing_counts():
    """Geometric crossing counts equal ball distances on every pair within
    distance 4 of the radius-5 ball."""
    dev = grow_to_radius(load_sample("d333"), 5)
    report = catacomb_check(dev, 4)
    _report(
        "C2 crossings[d333]",
        report.ok,
        f"{report.pairs_checked} pairs, {len(report.inconclusive)} inconclusive",
    )


def test_criterion_3_gauss_bonnet(devs):
    """Exact rational identity on at least 100 fixtures."""
    checks = []
    for y in (triangle_fixture(Fraction(1, 3)), triangle_fixture(Fraction(0)),
              polygon_fixture(6, Fraction(2, 3))):
        checks.append(y.gauss_bonnet().ok)
    rng = random.Random(8881)
    for name in ("d333", "d444"):
        patch = build_patch(devs[name], PATCH_RADII[name])
        for disc in extract_disc_diagrams(patch, 20, seed=77, max_cells=6):
            checks.append(disc.gauss_bonnet().ok)
            for _ in range(2):
                checks.append(random_angles(disc, rng).gauss_bonnet().ok)
    _report(
        "C3 gauss-bonnet", len(checks) >= 100 and all(checks),
        f"{len(checks)} fixtures, exact equality",
    )


@pytest.mark.parametrize("name", ALL_SAMPLES)
def test_criterion_4_distance_locality(name):
    """Minimal faces pairwise adjacent and the distance decomposition exact
    at every interior vertex of the radius-5 ball."""
    dev = grow_to_radius(load_sample(name), 5)
    vertices = faces = 0
    for v in range(len(dev.vert_type)):
        at_v = dev.faces_at_vertex(v)
        if not dev.vertex_complete(v) or not all(dev.final[f] for f in at_v):
            continue
        dev.minimal_triangles(v)  # raises if not pairwise adjacent
        # raises at the first face where the identity fails
        assert sorted(dev.local_distances(v)) == at_v
        faces += len(at_v)
        vertices += 1
    _report(
        f"C4 locality[{name}]", vertices > 0,
        f"{vertices} vertices, {faces} vertex-face pairs",
    )


@pytest.mark.parametrize("name", ALL_SAMPLES)
def test_criterion_5_cone_type_finiteness(devs, name):
    """The all-geodesics machine is certified, and faces in one of its
    states admit the same geodesic extensions to depth 3; a face's state is
    the one its lex-first word leads to.

    With every half-girth at least 3 the certificate is closure: the machine
    built at MACHINE_RADII stops at refinement level 0, so it is a closed
    signature table, right at every length, and its minimized live states
    are the cone types.  At a half-girth of 2 equal signatures do not
    determine cone types (see
    test_cones.py::test_d236_depth_three_counterexample_is_genuine), so the
    signature count must be constant over three consecutive radii and the
    machine must have equal canonical forms at MACHINE_RADII and one radius
    above."""
    dev = devs[name]
    radius = DETERMINATION_RADII[name]
    machine = build_geodesic_automaton(dev, MACHINE_RADII[name])
    if min(dev.spec.half_girths) >= 3:
        level = machine.metadata["refinement_level"]
        cone_types = minimize(machine).n_live
        machine_ok = level == 0 and cone_types == CONE_TYPES[name]
        detail = f"refinement level {level}, {cone_types} cone types"
    else:
        counts = signature_counts(dev, TABLE_RADII[name])
        above = build_geodesic_automaton(dev, MACHINE_RADII[name] + 1)
        machine_ok = counts[-1] == counts[-2] == counts[-3] and (
            machine.canonical_form() == above.canonical_form()
        )
        detail = f"counts {counts[-3:]}, {machine.n_live} machine states"
    states = {}
    for f, word in lexfirst_words(dev, radius)[0].items():
        q = machine.start
        for s in word:
            q = machine.step(q, s)
        states[f] = q
    machine_ok = machine_ok and all(machine.is_accepting(q) for q in states.values())
    report = verify_cone_determination(dev, radius, depth=3, classes=states)
    detail += f", determination depth 3 over {report.classes_checked} classes"
    if not report.ok:
        detail += f", counterexample {report.counterexample}"
    _report(f"C5 cone-types[{name}]", machine_ok and report.ok, detail)


@pytest.mark.parametrize("name", ALL_SAMPLES)
def test_criterion_6_automaton_correctness(devs, name):
    dev = devs[name]
    radius = MACHINE_RADII[name]
    machine = build_geodesic_automaton(dev, radius)
    # exhaustive word check against the traced ball
    depth = min(radius, 8)
    geodesics = set()
    frontier = [((), 0)]
    for _ in range(depth):
        nxt = []
        for word, f in frontier:
            for s in range(dev.symbol_count):
                g = dev.neighbor(f, s)
                if g is not None and dev.final[g] and dev.dist[g] == dev.dist[f] + 1:
                    nxt.append((word + (s,), g))
        geodesics.update(w for w, _ in nxt)
        frontier = nxt
    exhaustive_ok = True
    if dev.symbol_count ** depth <= 300000:
        for length in range(depth + 1):
            for word in product(range(dev.symbol_count), repeat=length):
                expected = length == 0 or word in geodesics
                if machine.accepts(word) != expected:
                    exhaustive_ok = False
                    break
    lex_radius = LEX_RADII[name]
    lex = build_lexfirst_automaton(dev, lex_radius, certify=LEX_CERTIFIED[name])
    counts_ok = lex.growth_series(lex_radius) == dev.sphere_sizes[: lex_radius + 1]
    # per-element brute-force lex-least geodesics
    words, _ = lexfirst_words(dev, min(lex_radius, 8))
    best = {0: ()}
    frontier = [((), 0)]
    for _ in range(min(lex_radius, 8)):
        nxt = []
        for word, f in frontier:
            for s in range(dev.symbol_count):
                g = dev.neighbor(f, s)
                if g is not None and dev.final[g] and dev.dist[g] == dev.dist[f] + 1:
                    nxt.append((word + (s,), g))
        for word, f in nxt:
            if f not in best or word < best[f]:
                best[f] = word
        frontier = nxt
    brute_ok = all(words[f] == best[f] for f in best) and all(
        lex.accepts(word) for word in best.values()
    )
    ok = exhaustive_ok and counts_ok and brute_ok
    _report(
        f"C6 automata[{name}]", ok,
        f"geodesic machine {machine.n_live} states exhaustive to {depth}; "
        f"lex machine {lex.n_live} states, counts equal spheres to {lex_radius}",
    )


@pytest.mark.parametrize("name", ALL_SAMPLES)
def test_criterion_7_fellow_traveller(devs, name):
    dev = devs[name]
    report = fellow_traveller_check(dev, 6)
    detail = (
        f"delta {report.delta}, observed sync {report.observed_sync}, "
        f"async {report.observed_async}, {report.pairs_checked} pairs"
    )
    if name == "d333":
        # the bound itself, rederived by brute force over the 6-element link
        link = load_sample("d333").local_links()[0]
        ecc = 0
        dist = {0: 0}
        queue = [0]
        while queue:
            u = queue.pop(0)
            for v in link.neighbors[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    ecc = max(ecc, dist[v])
                    queue.append(v)
        assert ecc == 3 and report.delta == 3
    _report(f"C7 fellow-traveller[{name}]", report.ok, detail)


def test_criterion_8_determinism_and_stability():
    ok = True
    details = []
    for name, radius in (("d333", 4), ("f21_333", 2)):
        spec = load_sample(name)
        first = development_to_json(grow_to_radius(spec, radius))
        second = development_to_json(grow_to_radius(load_sample(name), radius))
        byte_equal = first == second
        small = grow_to_radius(load_sample(name), radius)
        big = grow_to_radius(load_sample(name), radius + 1)
        embeds = embeds_in(small, big)
        ok = ok and byte_equal and embeds
        details.append(f"{name}: rebuild {'=' if byte_equal else '!='}, embed {embeds}")
    _report("C8 determinism", ok, "; ".join(details))
