import pytest

from trifold.cones import (
    cone_membership,
    cone_signature,
    enumerate_cone_types,
    signature_counts,
    verify_cone_determination,
)
from trifold.development import InsufficientRadiusError, export_development, import_development
from trifold.grower import grow_to_radius
from trifold.oracle import isometry_ball
from trifold.samples import load_sample

# signature counts at stabilization, frozen after the first computation
FROZEN_COUNTS = {"d333": 16, "d244": 20, "d236": 24, "d444": 22, "f21_333": 79}
# cone-type counts: the live states of the minimized all-geodesics machine
CONE_TYPE_COUNTS = {"d333": 16, "d244": 24, "d236": 41, "d444": 22, "f21_333": 16}
TABLE_RADII = {"d333": 8, "d244": 8, "d236": 13, "d444": 7, "f21_333": 6}


@pytest.mark.parametrize("name", ["d333", "d444", "d244", "d236"])
def test_conetypes_suite_computes_each_signature_once(devs, monkeypatch, name):
    # the signature counts and the all-geodesics machine, whose states are
    # the classes whose determination is checked, read the same signatures.
    # They are kept on the ball, so the suite runs on a fresh copy of the
    # shared one, and a second run computes none.
    from trifold import cli, cones

    original = cones.cone_signature
    faces = []

    def counted(dev, f):
        faces.append(f)
        return original(dev, f)

    monkeypatch.setattr(cones, "cone_signature", counted)
    shared = devs[name]
    dev = import_development(export_development(shared), shared.spec)
    cli._suite_conetypes(dev, 3)
    cli._suite_conetypes(dev, 3)
    table_radius = dev.radius - (dev.margin - 1)
    assert sorted(faces) == list(dev.ball_faces(table_radius))


def test_base_signature_is_nonnegative(devs):
    for name in ("d333", "f21_333"):
        sig = cone_signature(devs[name], 0)
        assert all(entry[3] >= 0 for entry in sig)
        assert any(entry[3] == 0 for entry in sig)


def test_signature_relative_distances_bounded_by_link_diameter(devs):
    for name in ("d333", "d236", "f21_333"):
        dev = devs[name]
        bound = max(link.diameter for link in dev.spec.local_links())
        for f in dev.ball_faces()[:60]:
            if dev.is_interior(f):
                sig = cone_signature(dev, f)
                assert all(abs(entry[3]) <= bound for entry in sig)


def test_frontier_face_raises(dev333):
    frontier = max(range(dev333.face_count), key=lambda f: dev333.dist[f])
    with pytest.raises(InsufficientRadiusError):
        cone_signature(dev333, frontier)


def test_distance_one_faces_d333_have_distinct_signatures(dev333):
    """The three distance-1 faces are genuinely different cone types.

    The residual geodesic languages differ as labeled languages (only the
    face reached by letter a rejects another step of a), so any encoding
    merging them would break word-acceptor correctness.
    """
    faces = [f for f in dev333.ball_faces() if dev333.dist[f] == 1]
    sigs = {cone_signature(dev333, f) for f in faces}
    assert len(sigs) == 3
    # and the residuals really differ: stepping back is never geodesic,
    # every other letter is
    for f in faces:
        for s in range(dev333.symbol_count):
            g = dev333.neighbor(f, s)
            expected = g != 0
            assert (dev333.dist[g] == 2) == expected


@pytest.mark.parametrize("name", sorted(FROZEN_COUNTS))
def test_signature_count_stabilizes(devs, name):
    dev = devs[name]
    counts = signature_counts(dev, TABLE_RADII[name])
    assert counts[-1] == counts[-2] == counts[-3] == FROZEN_COUNTS[name]


@pytest.mark.parametrize("name", sorted(CONE_TYPE_COUNTS))
def test_cone_type_count_is_the_minimized_machine(devs, name):
    # what the conetypes suite writes to the manifest; f21_333's 79
    # signatures fall into 16 cone types, and at a half-girth of 2 the
    # signatures do not determine cone types, so there are more of these
    from trifold import cli

    verdict = cli._suite_conetypes(devs[name], 3)
    assert verdict.status == "pass"
    assert verdict.manifest["cone_type_count"] == CONE_TYPE_COUNTS[name]


def test_radius_zero_single_signature(dev333):
    assert signature_counts(dev333, 0) == [1]


def test_table_successor_rows_and_multiplicities(dev333):
    table = enumerate_cone_types(dev333, 6)
    assert table.coherent
    assert sum(e.multiplicity for e in table.entries.values()) == sum(
        dev333.sphere_sizes[:7]
    )
    for entry in table.entries.values():
        for inc, succ in zip(entry.increases, entry.successors):
            assert inc == (succ is not None)


def test_determination_passes_where_links_are_large(devs):
    for name, radius in (("d333", 8), ("d444", 7), ("f21_333", 5)):
        report = verify_cone_determination(devs[name], radius, depth=3)
        assert report.ok, (name, report.counterexample)
        assert report.classes_checked > 5


def test_determination_passes_d244_at_depth_three(devs):
    report = verify_cone_determination(devs["d244"], 8, depth=3)
    assert report.ok


def test_d244_link_data_misses_depth_four_divergence(devs):
    """Two faces with isomorphic decorated link unions whose residual
    languages split at depth 4; the determining power of the link data stops
    at half-girth 2."""
    report = verify_cone_determination(devs["d244"], 8, depth=4)
    assert not report.ok
    f1, f2, word = report.counterexample
    assert len(word) == 4
    assert cone_signature(devs["d244"], f1) == cone_signature(devs["d244"], f2)


def test_d236_depth_three_counterexample_is_genuine(devs):
    """For half-girths (2,3,6) the divergence already happens at depth 3,
    and the exact reflection group confirms it independently."""
    dev = devs["d236"]
    report = verify_cone_determination(dev, 13, depth=3)
    assert not report.ok
    f1, f2, word = report.counterexample
    assert cone_signature(dev, f1) == cone_signature(dev, f2)
    assert len(word) <= 3

    ball = isometry_ball("d236", 14)
    match = {0: 0}
    queue = [0]
    qi = 0
    while qi < len(queue):
        f = queue[qi]
        qi += 1
        if dev.dist[f] >= 10:
            continue
        for sym in range(3):
            fn, wn = dev.neighbor(f, sym), ball.neighbors[match[f]].get(sym)
            if fn is None or wn is None:
                continue
            if fn in match:
                assert match[fn] == wn
            else:
                match[fn] = wn
                queue.append(fn)

    verdicts = []
    for f in (f1, f2):
        w = match[f]
        cur = w
        for s in word:
            letter = s // (dev.k - 1)
            cur = ball.neighbors[cur][letter]
        verdicts.append(ball.dist[cur] == ball.dist[w] + len(word))
    assert verdicts[0] != verdicts[1]


def test_incoherence_appears_exactly_for_half_girth_two(devs):
    for name, radius in (("d333", 6), ("d444", 6), ("f21_333", 5)):
        assert enumerate_cone_types(devs[name], radius).coherent
    assert not enumerate_cone_types(devs["d244"], 5).incoherent == []
    assert not enumerate_cone_types(devs["d236"], 4).coherent


@pytest.mark.parametrize(
    "name, radius", [("d333", 8), ("d444", 7), ("f21_333", 6), ("d244", 10), ("d236", 23)]
)
def test_table_coherent_exactly_at_refinement_level_zero(devs, name, radius):
    # the conetypes suite reads "successor rows coherent" off the level
    from trifold.automata import _geodesic_machine_once

    level = _geodesic_machine_once(devs[name], radius).metadata["refinement_level"]
    assert enumerate_cone_types(devs[name], radius - 1).coherent == (level == 0)
    assert (level == 0) == (min(devs[name].spec.half_girths) >= 3)


def test_cone_membership(dev333):
    assert cone_membership(dev333, 5, [])
    f = dev333.neighbor(0, 0)
    up = next(
        s for s in range(dev333.symbol_count)
        if dev333.dist[dev333.neighbor(f, s)] == 2
    )
    assert cone_membership(dev333, f, [up])
    # stepping forward then straight back is never part of a shortest route
    down = next(
        s for s in range(dev333.symbol_count)
        if dev333.neighbor(dev333.neighbor(f, up), s) == f
    )
    assert not cone_membership(dev333, f, [up, down])


def test_signatures_deterministic_across_rebuilds():
    a = grow_to_radius(load_sample("d333"), 7)
    b = grow_to_radius(load_sample("d333"), 7)
    ta = enumerate_cone_types(a, 3)
    tb = enumerate_cone_types(b, 3)
    assert {sig: (e.increases, e.successors) for sig, e in ta.entries.items()} == {
        sig: (e.increases, e.successors) for sig, e in tb.entries.items()
    }
    assert [e.representative for e in ta.entries.values()] == [
        e.representative for e in tb.entries.values()
    ]
