import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from trifold.cli import main
from trifold.curvature import complex_to_document
from trifold.development import import_development
from trifold.groups import VERTEX_LETTERS
from trifold.grower import _Grower
from trifold.samples import load_sample, write_sample

from disc_paths import ladder_fixture


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    out = tmp_path_factory.mktemp("build") / "d333"
    assert main(["build", "d333", "--radius", "9", "--out", str(out)]) == 0
    return out


def test_check_euclidean_sample(capsys):
    assert main(["check", "d333"]) == 0
    assert "Euclidean, r=(3,3,3)" in capsys.readouterr().out


def test_check_hyperbolic_sample(capsys):
    assert main(["check", "d444"]) == 0
    assert "Hyperbolic" in capsys.readouterr().out


def test_check_failing_spec_exits_one(tmp_path, capsys):
    # half-girths (2,3,4) exceed the bound by 1/12
    from trifold.groups import TriangleGroupSpec
    from trifold.samples import dihedral, dihedral_reflections

    spec = TriangleGroupSpec(
        2,
        (dihedral(2), dihedral(3), dihedral(4)),
        tuple(dihedral_reflections(n) for n in (2, 3, 4)),
        name="d234",
    )
    path = tmp_path / "d234.json"
    path.write_text(json.dumps(spec.to_document()))
    assert main(["check", str(path)]) == 1
    assert "excess=1/12" in capsys.readouterr().out
    # the grower refuses to build it
    assert main(["build", str(path), "--radius", "2", "--out", str(tmp_path / "ball")]) == 1
    assert capsys.readouterr().err == "error: spec is not nonpositively curved: excess 1/12\n"
    assert not (tmp_path / "ball" / "development.json").exists()


def test_check_warns_of_a_nontrivial_generator_intersection(tmp_path, capsys):
    # Z/4 is generated by 1 and by 3 alike, so their cyclic subgroups meet
    # in the whole group at each vertex; the spec still passes
    from trifold.groups import FiniteGroup, TriangleGroupSpec

    z4 = FiniteGroup("Z4", [[(a + b) % 4 for b in range(4)] for a in range(4)])
    spec = TriangleGroupSpec(4, (z4,) * 3, ((1, 3),) * 3, name="z4_meet")
    path = tmp_path / "z4_meet.json"
    path.write_text(json.dumps(spec.to_document()))
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out == (
        "z4_meet: Hyperbolic, r=(inf,inf,inf)\n"
        "warning: nontrivial generator intersection in V1, V2, V3; untested territory\n"
    )


def test_check_malformed_file_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    doc = json.loads(json.dumps({"k": 2, "vertex_groups": [{"name": "x"}] * 3}))
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 2
    assert "missing field" in capsys.readouterr().err
    for fault, message in SPEC_FAULTS.items():
        doc = load_sample("d333").to_document()
        fault(doc)
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 2, fault.__name__
        err = capsys.readouterr().err
        assert "bad spec document" in err and message in err, fault.__name__


def test_missing_file_exits_two(capsys):
    assert main(["check", "no-such-file.json"]) == 2


def test_build_persists_and_reruns_identically(built, tmp_path):
    again = tmp_path / "again"
    assert main(["build", "d333", "--radius", "9", "--out", str(again)]) == 0
    for name in ("development.json", "spec.json", "manifest.json"):
        assert (built / name).read_bytes() == (again / name).read_bytes()
    manifest = json.loads((built / "manifest.json").read_text())
    assert manifest["sphere_sizes"] == [1, 3, 6, 9, 12, 15, 18, 21, 24, 27]
    assert manifest["verdict"] == "euclidean"
    assert manifest["delta"] == 3


def test_build_radius_zero(tmp_path, capsys):
    out = tmp_path / "r0"
    assert main(["build", "d333", "--radius", "0", "--out", str(out)]) == 0
    assert "sphere sizes [1]" in capsys.readouterr().out


def test_verify_all_suites(built, capsys):
    assert main(["verify", str(built), "--suite", "all"]) == 0
    out = capsys.readouterr().out
    for suite in ("cor1", "cor2", "enters", "conetypes", "catacomb", "fellow", "gaussbonnet"):
        assert f"{suite}: " in out
    manifest = json.loads((built / "manifest.json").read_text())
    assert manifest["verdicts"]["cor1"] == "pass"
    assert manifest["cone_type_count"] == 16
    assert manifest["stabilization_radius"] == 4


def test_verify_catacomb_at_radius_zero(tmp_path, capsys):
    # the default pair radius is one below the ball's, but never below 0
    out = tmp_path / "r0"
    assert main(["build", "d333", "--radius", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out), "--suite", "catacomb"]) == 0
    assert capsys.readouterr().out == "catacomb: pass (crossing counts equal ball distances on 0 pairs (radius 0))\n"


def test_verify_catacomb_names_the_radius_reached(tmp_path, capsys):
    # no pair of the d333 r2 ball's 10 trusted faces is more than 4 apart
    out = tmp_path / "r2"
    assert main(["build", "d333", "--radius", "2", "--out", str(out)]) == 0
    lines = {}
    for radius in (3, 4, 5, 9):
        capsys.readouterr()
        assert main(["verify", str(out), "--suite", "catacomb", "--radius", str(radius)]) == 0
        lines[radius] = capsys.readouterr().out
    passed = "catacomb: pass (crossing counts equal ball distances on "
    assert lines[3] == passed + "36 pairs (radius 3))\n"
    assert lines[4] == passed + "45 pairs (radius 4))\n"
    assert lines[5] == lines[9] == passed + "45 pairs (radius 4; no pair is farther apart))\n"


def test_verify_gated_catacomb(tmp_path, capsys):
    out = tmp_path / "d244"
    assert main(["build", "d244", "--radius", "4", "--out", str(out)]) == 0
    assert main(["verify", str(out), "--suite", "catacomb"]) == 0
    assert "gated, skipped" in capsys.readouterr().out


def test_verify_fault_injection_fails(built, tmp_path, capsys, monkeypatch):
    import shutil

    from trifold import cli

    broken = tmp_path / "broken"
    shutil.copytree(built, broken)
    load = cli._load_devdir

    def faulty(devdir):
        # the first face at distance 3 takes another element in the chart of
        # its V2 vertex, after the load, which derives the elements from the
        # face edges and slots: the cone signatures no longer determine the
        # successor rows
        dev = load(devdir)
        x = 3 * dev.dist.index(3) + 1
        dev.f_elem[x] = (dev.f_elem[x] + 1) % 6
        return dev

    monkeypatch.setattr(cli, "_load_devdir", faulty)
    assert main(["verify", str(broken), "--suite", "conetypes"]) == 1
    assert "successor rows INCOHERENT" in capsys.readouterr().out


def _crossings_off_by_one(monkeypatch):
    from trifold import oracle

    count = oracle.count_crossings
    monkeypatch.setattr(oracle, "count_crossings", lambda *args: count(*args) + 1)


def _no_face_within_reach(monkeypatch):
    from trifold import automata

    monkeypatch.setattr(automata, "_distance_within", lambda *args: None)


def _first_letter_to_dead(monkeypatch):
    """The all-geodesics machine sends its start state to the dead state on
    a1, the last letter of the lex-first word of face 1."""
    from trifold import automata

    build = automata.build_geodesic_automaton

    def broken(dev, radius):
        machine = build(dev, radius)
        machine.transitions[machine.start][0] = machine.dead
        return machine

    monkeypatch.setattr(automata, "build_geodesic_automaton", broken)


@pytest.mark.parametrize(
    "mutation, radius, suite, line",
    [
        # a cap of 3 at pair radius 2 also leaves the pairs at distance 2
        # inconclusive
        (_crossings_off_by_one, 3, ["catacomb", "--radius", "2", "--maxlen", "3"],
         "catacomb: fail (21 crossing mismatches, 36 inconclusive)"),
        (_no_face_within_reach, 3, ["fellow"],
         "fellow: fail (delta 3, observed sync 4, async 4, pairs 30, violations 36)"),
        (_first_letter_to_dead, 9, ["conetypes"],
         "conetypes: fail (signature counts [1, 4, 10, 13, 16, 16, 16]; the all-geodesics "
         "machine certified at table radius 6 rejects a lex-first word)"),
    ],
    ids=["catacomb", "fellow", "conetypes"],
)
def test_verify_mutation_prints_the_fail_line(tmp_path, capsys, monkeypatch, mutation, radius, suite, line):
    """A suite run on a mutated oracle, distance search or machine fails
    with the line naming what it found."""
    out = tmp_path / "ball"
    assert main(["build", "d333", "--radius", str(radius), "--out", str(out)]) == 0
    capsys.readouterr()
    mutation(monkeypatch)
    assert main(["verify", str(out), "--suite", *suite]) == 1
    assert capsys.readouterr().out == line + "\n"


@pytest.mark.parametrize(
    "face, dist, lines",
    [
        # face 4 moves from distance 2 to 4: C4 fails there, and C1 fails at
        # vertex 6, whose least faces are now 10 and 11 at distance 3
        (4, 4, [
            "cor1: fail (minimal faces 10 and 11 at vertex 6 are not adjacent)",
            "cor2: fail (distance decomposition fails at vertex 0, face 4)",
            "enters: fail (distance decomposition fails at vertex 0, face 4)",
        ]),
        # face 11 moves from distance 3 to 1, level with face 1 at vertex 3
        (11, 1, [
            "cor1: fail (minimal faces 1 and 11 at vertex 3 are not adjacent)",
            "cor2: fail (minimal faces 1 and 11 at vertex 3 are not adjacent)",
            "enters: fail (minimal faces 1 and 11 at vertex 3 are not adjacent)",
        ]),
    ],
)
def test_verify_locality_faults_name_vertex_and_face(built, tmp_path, capsys, monkeypatch,
                                                      face, dist, lines):
    """C1 and C4 failures, injected into `dist` after the load, which would
    reject them, are reported by cor1, cor2 and enters with the vertex and
    face at fault."""
    from trifold import cli

    broken = tmp_path / "broken"
    shutil.copytree(built, broken)
    load = cli._load_devdir

    def faulty(devdir):
        dev = load(devdir)
        dev.dist[face] = dist
        return dev

    monkeypatch.setattr(cli, "_load_devdir", faulty)
    for suite, line in zip(("cor1", "cor2", "enters"), lines):
        assert main(["verify", str(broken), "--suite", suite]) == 1
        assert capsys.readouterr().out == line + "\n"


def test_automaton_export_json_and_dot(built, tmp_path, capsys):
    target = tmp_path / "machine.json"
    assert main([
        "automaton", str(built), "--kind", "geodesic", "--radius", "6",
        "--out", str(target),
    ]) == 0
    doc = json.loads(target.read_text())
    assert doc["kind"] == "all-geodesics"
    assert doc["live_states"] == 16
    assert main([
        "automaton", str(built), "--kind", "geodesic", "--radius", "6",
        "--format", "dot",
    ]) == 0
    assert "digraph" in capsys.readouterr().out


def test_automaton_lexfirst_counts(tmp_path, capsys):
    out = tmp_path / "deep"
    assert main(["build", "d333", "--radius", "11", "--out", str(out)]) == 0
    assert main([
        "automaton", str(out), "--kind", "lexfirst", "--radius", "11",
    ]) == 0
    text = capsys.readouterr().out
    assert "accepted words per length: [1, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30]" in text


def test_automaton_unknown_kind_usage_error(built):
    with pytest.raises(SystemExit) as exc:
        main(["automaton", str(built), "--kind", "nonsense"])
    assert exc.value.code == 2


def test_automaton_geodesic_refuses_no_certify(built, capsys):
    assert main(["automaton", str(built), "--kind", "geodesic", "--no-certify"]) == 2
    captured = capsys.readouterr()
    assert "--no-certify" in captured.err and "lexfirst" in captured.err
    assert not captured.out


def test_oracle_compare_cli(capsys):
    assert main(["oracle", "compare", "--group", "d236", "--radius", "4"]) == 0
    assert capsys.readouterr().out == "d236 radius 4: isomorphic (25 elements matched)\n"


def test_oracle_has_no_catacomb_subcommand(capsys):
    # `verify --suite catacomb` runs the crossing oracle on any build
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "catacomb", "--group", "d333", "--radius", "2"])
    assert exc.value.code == 2
    assert "invalid choice: 'catacomb'" in capsys.readouterr().err


def test_curvature_audit_cli(tmp_path, capsys):
    diagram, _ = ladder_fixture(2)
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(complex_to_document(diagram.complex)))
    assert main(["curvature", "audit", str(path)]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "curvature" in out


def _triangle_document(path, value):
    """One triangle with corners pi/3 as a complex document, with the entry
    at path set to value."""
    doc = {
        "format": "trifold-angled-complex/1", "vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]],
        "faces": [{"vertices": [0, 1, 2], "edges": [0, 1, 2], "corners": [[1, 3], [1, 3], [1, 3]]}],
    }
    *keys, last = path
    target = doc
    for key in keys:
        target = target[key]
    target[last] = value
    return doc


# a float, a bool or a string where a complex document wants an integer
COMPLEX_INTEGER_FAULTS = [
    (("vertices",), 3.7),
    (("vertices",), "3"),
    (("edges",), [[0, 1], [1, 2], [2, 0], [1, 0.5]]),
    (("edges", 0, 1), True),
    (("faces", 0, "vertices", 1), 1.0),
    (("faces", 0, "edges", 0), False),
    (("faces", 0, "corners", 0, 0), True),
]


@pytest.mark.parametrize(
    "content",
    [
        json.dumps({"vertices": 3, "edges": [[0, 1]], "faces": []}),
        '{"format": "trifold-angled-complex/1", "vert',
        # a face naming an edge the complex does not have, past either end
        *(
            json.dumps({
                "format": "trifold-angled-complex/1", "vertices": 2, "edges": [[0, 1]],
                "faces": [{"vertices": [0, 1], "edges": [eid, 0], "corners": [[0, 1], [0, 1]]}],
            })
            for eid in (5, -1)
        ),
        # a float, a bool or a string where the document wants an integer
        *(json.dumps(_triangle_document(path, value)) for path, value in COMPLEX_INTEGER_FAULTS),
    ],
)
def test_curvature_audit_bad_document_exits_two(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    assert main(["curvature", "audit", str(path)]) == 2
    captured = capsys.readouterr()
    assert "bad complex document" in captured.err
    assert "Traceback" not in captured.err and not captured.out


def test_verify_truncated_manifest_exits_two_before_suites(built, tmp_path, capsys):
    import shutil

    broken = tmp_path / "broken"
    shutil.copytree(built, broken)
    (broken / "manifest.json").write_text('{"verdicts": ')
    assert main(["verify", str(broken), "--suite", "cor1"]) == 2
    captured = capsys.readouterr()
    assert "malformed build directory" in captured.err
    assert "cor1" not in captured.out
    assert (broken / "manifest.json").read_text() == '{"verdicts": '


def test_sample_listing_and_writing(tmp_path, capsys):
    assert main(["sample", "--list"]) == 0
    assert "f21_333" in capsys.readouterr().out
    target = tmp_path / "spec.json"
    assert main(["sample", "d244", "--out", str(target)]) == 0
    assert main(["check", str(target)]) == 0


@pytest.mark.parametrize(
    "radius, status, expected",
    [
        (30, 0, "conetypes: pass"),
        (19, 1, "does not certify at table radius 13"),
    ],
)
def test_verify_conetypes_half_girth_two(tmp_path, capsys, radius, status, expected):
    # at a half-girth of 2 cone types are the all-geodesics machine states;
    # a ball too small to certify that machine names the radius it tried
    out = tmp_path / "d236"
    assert main(["build", "d236", "--radius", str(radius), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out), "--suite", "conetypes"]) == status
    text = capsys.readouterr().out
    assert expected in text
    assert "(8, 51, (0, 2, 1))" not in text
    # the manifest records the certified machine's state count, not the
    # signature count (24), and nothing when the machine does not certify
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["cone_type_count"] == {30: 41, 19: None}[radius]
    # the signature counts settle at radius 10, but the machine first
    # certifies at 22, so no signature radius is recorded
    assert manifest["stabilization_radius"] is None


@pytest.mark.parametrize(
    "name, radius, status, expected, counts",
    [
        # the signature counts end 13, 16, 16, but the table closes
        ("d333", 8, 0, "determination depth 3: pass; successor rows coherent", (16, 4)),
        ("d333", 7, 1, "does not certify at table radius 4: ", (None, None)),
        ("d444", 9, 1, "does not certify at table radius 5: ", (None, None)),
    ],
)
def test_verify_conetypes_by_closure(tmp_path, capsys, name, radius, status, expected, counts):
    # at half-girths of 3 or more one closed all-geodesics machine certifies
    # the cone types; a machine that does not close names the face and symbol
    # whose child has no state
    out = tmp_path / name
    assert main(["build", name, "--radius", str(radius), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out), "--suite", "conetypes"]) == status
    text = capsys.readouterr().out
    assert text.startswith("conetypes: ") and "(signature counts [" in text
    assert expected in text
    if status:
        assert re.search(r"the child of face \d+ on [abc]\d has no state at radius \d", text)
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["cone_type_count"], manifest["stabilization_radius"]) == counts


@pytest.mark.parametrize(
    "name, radius", [("d333", 0), ("d333", 1), ("d333", 2), ("d444", 0), ("d244", 0), ("f21_333", 0)]
)
def test_verify_gaussbonnet_on_a_patch_without_cells(tmp_path, capsys, name, radius):
    # the patch of so small a ball has no cells to draw a disc from, so only
    # the three fixed fixtures are audited
    out = tmp_path / name
    assert main(["build", name, "--radius", str(radius), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out), "--suite", "all"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7
    assert lines[-1] == "gaussbonnet: fail (only 3 fixtures audited; need at least 100)"
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["verdicts"]) == sorted(
        ["cor1", "cor2", "enters", "conetypes", "catacomb", "fellow", "gaussbonnet"]
    )


def _ragged_row(doc):
    del doc["face_edges"][17]


def _slot_out_of_range(doc):
    doc["face_slots"][3 * 7] = doc["k"]


def _float_id(doc):
    doc["face_edges"][3 * 7] = 1.0


def _loaded(doc):
    """The ball doc holds, read from copies of its face columns."""
    copies = {name: list(doc[name]) for name in ("face_edges", "face_slots")}
    return import_development(dict(doc, **copies), load_sample(doc["name"]))


def _renumbered(doc, edges, slots):
    """Sets doc's face columns to `edges`, which may name edges by any
    hashable value, and `slots`, with the edges numbered by first appearance
    and each one's slots turned to put its first face in slot 0."""
    ids, turn = {}, []
    doc["face_edges"], doc["face_slots"] = [], []
    for e, j in zip(edges, slots):
        if e not in ids:
            ids[e] = len(turn)
            turn.append(j)
        doc["face_edges"].append(ids[e])
        doc["face_slots"].append((j - turn[ids[e]]) % doc["k"])


def _cut(doc, *entries):
    """Each face column entry in `entries` gets a new edge of its own."""
    edges = list(doc["face_edges"])
    for x in entries:
        edges[x] = ("cut", x)
    _renumbered(doc, edges, doc["face_slots"])


def _added_face(doc, e, j):
    """A face added at the end, in slot j of edge e, with two new edges."""
    letter = doc["face_edges"].index(e) % 3
    edges = doc["face_edges"] + [e if t == letter else ("new", t) for t in range(3)]
    _renumbered(doc, edges, doc["face_slots"] + [j if t == letter else 0 for t in range(3)])


def _moved(doc, f, letter, e, j):
    """Face f moves to slot j of edge e on its `letter` side, and the face
    that held that slot takes a new edge there."""
    edges, slots = list(doc["face_edges"]), list(doc["face_slots"])
    x = next(x for x in range(letter, len(edges), 3) if (edges[x], slots[x]) == (e, j))
    edges[x] = ("cut", x)
    edges[3 * f + letter], slots[3 * f + letter] = e, j
    _renumbered(doc, edges, slots)


def _past_extent(doc):
    """A face added in the empty slot of the last edge, whose one face lies
    at radius + margin - 2: the new face lies one farther."""
    _added_face(doc, max(doc["face_edges"]), 1)


def _last_layer_dropped(doc):
    """The faces at radius + margin - 2 are left out."""
    dist = _loaded(doc).dist
    n = 3 * dist.index(max(dist))
    doc["face_edges"], doc["face_slots"] = doc["face_edges"][:n], doc["face_slots"][:n]


def _second_base_face(doc):
    """Face 1 takes three new edges, so it meets no earlier face."""
    _cut(doc, 3, 4, 5)


def _last_face_detached(doc):
    n = len(doc["face_edges"])
    _cut(doc, n - 3, n - 2, n - 1)


def _faces_out_of_order(doc):
    """The last face at distance 1 trades places with the first at distance
    2, so a face at distance 1 follows one at distance 2."""
    dist = _loaded(doc).dist
    f, g = 3 * dist.index(2) - 3, 3 * dist.index(2)
    edges, slots = list(doc["face_edges"]), list(doc["face_slots"])
    for column in edges, slots:
        column[f:f + 3], column[g:g + 3] = column[g:g + 3], column[f:f + 3]
    _renumbered(doc, edges, slots)


def _first_faces_swapped(doc):
    """Faces 1 and 2 trade places.  Both are met from face 0 at distance 1,
    so distances still never decrease, but face 0 crosses to face 2 first."""
    edges, slots = list(doc["face_edges"]), list(doc["face_slots"])
    for column in edges, slots:
        column[3:6], column[6:9] = column[6:9], column[3:6]
    _renumbered(doc, edges, slots)


def _parent_edges_cut(doc):
    """The first face at distance 5 takes new edges in place of those it
    shares with faces at distance 4."""
    dev = _loaded(doc)
    f = dev.dist.index(5)
    _cut(doc, *(x for x in range(3 * f, 3 * f + 3) if dev.dist[dev.slots(dev.f_edge[x])[0]] == 4))


def _edges_traded(doc):
    """Faces 4 and 9 trade their b edges and slots."""
    for column in doc["face_edges"], doc["face_slots"]:
        column[3 * 4 + 1], column[3 * 9 + 1] = column[3 * 9 + 1], column[3 * 4 + 1]


def _element_disagrees(doc):
    """Face 17 moves to face 18's slot on edge 19: at its V1 corner both of
    its edges give the vertex it has, but other elements."""
    _moved(doc, 17, 0, 19, 1)


def _chart_repeats(doc):
    """Face 63 moves to face 72's slot on edge 107, and face 72 takes a new
    edge there, which puts it where face 63 was in the chart at its V2
    corner."""
    _moved(doc, 63, 0, 107, 1)


def _link_wraps(doc):
    """The last face at radius + margin - 3 that crosses to earlier faces on
    both of its edges at a corner takes a new edge for the first of them, so
    the link there is cut open, and a face added at the end continues the
    link past the cut: it takes the element of the face across the cut."""
    dev = _loaded(doc)
    x = max(
        3 * f + letter
        for f, d in enumerate(dev.dist) if d == dev.radius + dev.margin - 3
        for letter, other in VERTEX_LETTERS if dev.f_slot[3 * f + letter] and dev.f_slot[3 * f + other]
    )
    _cut(doc, x)
    _added_face(doc, doc["face_edges"][x], 1)


def _outer_face_dropped(doc):
    """The first face at radius + margin - 2 is left out, so the edge it
    shares with a face one nearer keeps an empty slot."""
    dist = _loaded(doc).dist
    x = 3 * dist.index(max(dist))
    edges, slots = doc["face_edges"], doc["face_slots"]
    _renumbered(doc, edges[:x] + edges[x + 3:], slots[:x] + slots[x + 3:])


def _negative_radius(doc):
    """The ball cut to its faces within distance 1, which is radius + margin
    - 2 for d333 at radius -1, under that radius."""
    n = 3 * len(_loaded(doc).ball_faces(1))
    doc["face_edges"], doc["face_slots"] = doc["face_edges"][:n], doc["face_slots"][:n]
    doc["radius"] = -1


def _radius_raised(doc):
    """The header claims radius 12 for faces grown to radius 9."""
    doc["radius"] = 12


def _radius_string(doc):
    doc["radius"] = str(doc["radius"])


def _radius_bool(doc):
    doc["radius"] = True


def _false_entry(name):
    """A fault that sets entry 0 of the column `name`, which holds 0, to the
    JSON boolean false, equal to 0 in Python."""
    def fault(doc):
        assert doc[name][0] == 0
        doc[name][0] = False
    fault.__name__ = f"_{name}_false"
    return fault


# development documents with a bool or a string where an integer belongs,
# and the error naming the field
NON_INTEGER_FAULTS = {
    _radius_string: "radius: '9' is not an integer",
    _radius_bool: "radius: True is not an integer",
    **{
        _false_entry(name): f"{name}: an entry is not an integer"
        for name in ("face_edges", "face_slots")
    },
}


def _later_appearance(column, t):
    """The first index of `column` past face 0 at letter t whose id
    appeared before."""
    return next(x for x in range(3 + t, len(column), 3) if column[x] in column[:x])


def _slot_claimed_twice(doc):
    """A face on an edge of face 0 takes face 0's slot there."""
    edges = doc["face_edges"]
    x = next(x for x in range(3, len(edges)) if edges[x] in edges[:3])
    doc["face_slots"][x] = doc["face_slots"][edges.index(edges[x])]


def _edge_under_two_letters(doc):
    """A face's b edge is replaced by face 0's a edge."""
    edges = doc["face_edges"]
    edges[_later_appearance(edges, 1)] = edges[0]


def _edges_renumbered(doc):
    """Edges 1 and 2 trade ids, so they are not numbered by first appearance."""
    swap = {1: 2, 2: 1}
    doc["face_edges"] = [swap.get(e, e) for e in doc["face_edges"]]


# development documents whose face edges and slots cannot be a ball, and the
# check of the derivation that refuses each: a face lies past the kept extent
# or short of it, a face has no earlier neighbour as far as the face before
# it, the two edges at a corner disagree, a chart repeats an element, the
# faces are out of breadth-first order, or an edge growth fills has a hole
DERIVATION_FAULTS = {
    _past_extent: "face_edges: a face lies past radius + margin - 2 = 11",
    _last_layer_dropped: "radius: the faces reach distance 10, short of radius + margin - 2 = 11",
    _second_base_face: "face_edges: face 1 has no earlier neighbour at distance 0 or more",
    _last_face_detached: "face_edges: face 198 has no earlier neighbour at distance 10 or more",
    _faces_out_of_order: "face_edges: face 4 has no earlier neighbour at distance 1 or more",
    _first_faces_swapped: "face_edges: face 2 is out of breadth-first order",
    _parent_edges_cut: "face_edges: face 31 has no earlier neighbour at distance 3 or more",
    _edges_traded: "face_edges: edges 9 and 13 of face 10 disagree on its V1 corner",
    _element_disagrees: "face_edges: edges 19 and 17 of face 17 disagree on its V1 corner",
    _chart_repeats: "face_edges: face 72 repeats an element of vertex 25's chart",
    _link_wraps: "face_edges: face 199 repeats an element of vertex 59's chart",
    _outer_face_dropped: "face_slots: slot 1 of edge 225 is empty, and its first face 136 lies "
                         "below radius + margin - 2 = 11",
}


def _header(field, value):
    """A fault that sets the header `field` to value, or deletes it for None."""
    def fault(doc):
        doc[field] = value
        if value is None:
            del doc[field]
    fault.__name__ = f"_{field}_{value}"
    return fault


# development documents whose header names another spec than spec.json,
# and the error naming the field
HEADER_FAULTS = {
    _header("k", 5): "k: 5 is not the spec's 2",
    _header("k", "2"): "k: '2' is not the spec's 2",
    _header("k", None): "k: None is not the spec's 2",
    _header("name", "f21_333"): "name: 'f21_333' is not the spec's 'd333'",
    _header("name", None): "name: None is not the spec's 'd333'",
}


def _k_not_integer(doc):
    doc["k"] = "x"


def _order_not_integer(doc):
    doc["vertex_groups"][0]["order"] = "x"


def _generator_not_integer(doc):
    doc["vertex_groups"][0]["generators"]["a"] = "x"


def _table_entry_not_integer(doc):
    doc["vertex_groups"][0]["mult"][1][2] = "x"


def _group_file_missing(doc):
    doc["vertex_groups"][0] = "no-such-group.json"


def _k_float(doc):
    doc["k"] = 2.5


def _k_digit_string(doc):
    doc["k"] = "2"


def _generator_float(doc):
    doc["vertex_groups"][0]["generators"]["a"] = 3.9


def _table_entry_bool(doc):
    doc["vertex_groups"][0]["mult"][0][1] = True


def _table_entry_float(doc):
    doc["vertex_groups"][0]["mult"][0][2] = 2.0


def _designated_not_object(doc):
    doc["designated"] = ["a", "b"]


def _generators_not_object(doc):
    doc["vertex_groups"][1]["generators"] = [3, 4]


# spec documents with a field of the wrong type, and the error naming it
SPEC_FAULTS = {
    _k_not_integer: "k must be an integer, got 'x'",
    _order_not_integer: "D3: order must be an integer, got 'x'",
    _generator_not_integer: "D3: generator 'a' must be an integer, got 'x'",
    _table_entry_not_integer: "D3: mult holds an entry that is not an integer",
    _k_float: "k must be an integer, got 2.5",
    _k_digit_string: "k must be an integer, got '2'",
    _generator_float: "D3: generator 'a' must be an integer, got 3.9",
    _table_entry_float: "D3: mult holds an entry that is not an integer",
    _group_file_missing: "V1: cannot read group file",
    _designated_not_object: "designated must be an object",
    _generators_not_object: "generators must be an object",
}


def _format_6(doc):
    """The same ball in format 6, which is no longer read: the face edges
    and slots as in format 7, but out to radius + delta, as growth to one
    radius more makes them.  Returns that ball, at doc's radius."""
    grower = _Grower(load_sample(doc["name"]))
    grower.grow(doc["radius"] + 1)
    dev = grower.finalize(doc["radius"])
    doc.update(format="trifold-development/6", face_edges=dev.f_edge, face_slots=dev.f_slot)
    return dev


def _format_5(doc):
    """The same ball in format 5, which is no longer read: besides the face
    edges and slots of format 6, it stored `margin`, `dist` and each face's
    corners and its elements there, which later formats derive."""
    dev = _format_6(doc)
    doc.update(
        format="trifold-development/5",
        margin=dev.margin,
        dist=dev.dist,
        face_vertices=dev.f_vert,
        face_elements=dev.f_elem,
    )
    return dev


def _format_4(doc):
    """The same ball in format 4, which is no longer read: besides the face
    columns of format 5 but for `face_elements`, it stored the edge and
    vertex columns, and each vertex's chart as pairs of a face and its
    element."""
    dev = _format_5(doc)
    charts, chart_offsets = [], [0]
    for v in range(len(dev.vert_type)):
        for pair in dev.vertex_chart(v).items():
            charts += pair
        chart_offsets.append(len(charts))
    del doc["face_elements"]
    doc.update(
        format="trifold-development/4",
        sphere_sizes=dev.sphere_sizes,
        edge_letters="".join("abc"[x] for x in dev.edge_letter),
        edge_slots=dev.edge_slots,
        edge_ends=dev.edge_ends,
        vertex_types=dev.vert_type,
        vertex_charts=charts,
        vertex_chart_offsets=chart_offsets,
        vertex_edges=dev.vert_edges,
        vertex_edge_offsets=dev.vert_edge_offsets,
    )


def _format_3(doc):
    """The flat columns of format 4, but labelled format 3, which is no
    longer read: it also held the faces at distance radius + margin."""
    _format_4(doc)
    doc["format"] = "trifold-development/3"


def _format_2(doc):
    """The same ball in the nested rows of format 2, which is no longer
    read: one row per face, edge and vertex."""
    _format_4(doc)
    for name, width in (("face_edges", 3), ("face_slots", 3), ("face_vertices", 3),
                        ("edge_slots", doc["k"]), ("edge_ends", 2)):
        column = doc[name]
        doc[name] = [column[i:i + width] for i in range(0, len(column), width)]
    for name in ("vertex_charts", "vertex_edges"):
        data, offsets = doc[name], doc.pop(f"{name[:-1]}_offsets")
        doc[name] = [data[i:j] for i, j in zip(offsets, offsets[1:])]
    doc["format"] = "trifold-development/2"


def _format_1(doc):
    """The same ball in the per-face, per-edge and per-vertex objects of
    format 1, which is no longer read."""
    _format_2(doc)
    k, slots = doc["k"], doc["edge_slots"]
    faces = []
    for d, edges, offsets in zip(doc.pop("dist"), doc["face_edges"], doc["face_slots"]):
        nbr = {}
        for letter, (e, j) in enumerate(zip(edges, offsets)):
            for power in range(1, k):
                if slots[e][(j + power) % k] != -1:
                    nbr[f"{'abc'[letter]}{power}"] = slots[e][(j + power) % k]
        faces.append({"d": d, "final": d <= doc["radius"], "nbr": nbr})
    doc["faces"] = faces
    doc["edges"] = [
        {"letter": letter, "slots": row, "ends": ends}
        for letter, row, ends in zip(
            doc.pop("edge_letters"), doc.pop("edge_slots"), doc.pop("edge_ends")
        )
    ]
    doc["vertices"] = [
        {"type": t + 1, "chart": {str(f): x for f, x in zip(c[::2], c[1::2])}, "edges": edges}
        for t, c, edges in zip(
            doc.pop("vertex_types"), doc.pop("vertex_charts"), doc.pop("vertex_edges")
        )
    ]
    doc["format"] = "trifold-development/1"


@pytest.mark.parametrize(
    "name, content",
    [
        ("development.json", '{"format": "trifold-development/1", "rad'),
        ("development.json", "[]"),
        ("development.json", "{}"),
        ("spec.json", '{"k": 2, "vertex_gr'),
        ("spec.json", "[]"),
        ("development.json", _ragged_row),
        ("development.json", _slot_out_of_range),
        ("development.json", _float_id),
        *(("development.json", fault) for fault in DERIVATION_FAULTS),
        ("development.json", _slot_claimed_twice),
        ("development.json", _edge_under_two_letters),
        ("development.json", _edges_renumbered),
        ("development.json", _radius_raised),
        ("development.json", _negative_radius),
        ("development.json", _format_1),
        ("development.json", _format_2),
        ("development.json", _format_3),
        ("development.json", _format_4),
        ("development.json", _format_5),
        ("development.json", _format_6),
        *(("spec.json", fault) for fault in SPEC_FAULTS),
        *(("development.json", fault) for fault in NON_INTEGER_FAULTS),
        *(("development.json", fault) for fault in HEADER_FAULTS),
        ("spec.json", _table_entry_bool),
    ],
)
def test_malformed_build_directory_exits_two(built, tmp_path, capsys, name, content):
    import shutil

    broken = tmp_path / "broken"
    shutil.copytree(built, broken)
    text = content
    if callable(content):
        doc = json.loads((built / name).read_text())
        content(doc)
        text = json.dumps(doc)
    (broken / name).write_text(text)
    assert main(["verify", str(broken), "--suite", "cor1"]) == 2
    err = capsys.readouterr().err
    assert "malformed build directory" in err
    # automaton loads the directory as verify does
    assert main(["automaton", str(broken), "--kind", "geodesic"]) == 2
    assert capsys.readouterr().err == err
    formats = (_format_1, _format_2, _format_3, _format_4, _format_5, _format_6)
    if content in formats:
        version = formats.index(content) + 1
        assert f"development format 'trifold-development/{version}'" in err
        assert "rebuild the ball" in err
    expected = {
        _slot_claimed_twice: "is claimed by faces 0 and",
        _edge_under_two_letters: "appears under two letters",
        _edges_renumbered: "face_edges: edge 2 is not numbered by first appearance",
        _radius_raised: "radius: the faces reach distance 11, short of radius + margin - 2 = 14",
        _negative_radius: "radius: -1 is negative",
        **DERIVATION_FAULTS,
        **SPEC_FAULTS,
        **NON_INTEGER_FAULTS,
        **HEADER_FAULTS,
    }
    if content in expected:
        assert expected[content] in err


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "d333", "--radius", "-1", "--out", "{tmp}/neg"],
        ["verify", "{built}", "--suite", "catacomb", "--radius", "-1"],
        ["verify", "{built}", "--suite", "catacomb", "--maxlen", "0"],
        ["verify", "{built}", "--suite", "conetypes", "--depth", "0"],
        ["oracle", "compare", "--group", "d333", "--radius", "-1"],
    ],
)
def test_invalid_numeric_arguments_exit_two(built, tmp_path, capsys, argv):
    argv = [a.format(tmp=tmp_path, built=built) for a in argv]
    assert main(argv) == 2
    assert "must be at least" in capsys.readouterr().err
    assert not (tmp_path / "neg").exists()


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["sample", "nonexist", "--out", "{tmp}/s.json"], "unknown sample 'nonexist'"),
        (["sample", "d333", "--out", "{tmp}/missing/s.json"], "cannot write"),
        (["build", "d333", "--radius", "1", "--out", "{tmp}/file/d333"], "cannot make build directory"),
    ],
    ids=["unknown_sample", "sample_into_missing_dir", "build_under_a_file"],
)
def test_unknown_sample_or_unwritable_out_exits_two(tmp_path, capsys, argv, expected):
    (tmp_path / "file").write_text("")
    assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    assert expected in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_verification_errors_share_one_base():
    # main and verify map a VerificationError to a failure (exit 1); each
    # error keeps the base its callers catch
    from trifold.automata import AutomatonError
    from trifold.development import DevelopmentError, InsufficientRadiusError, VerificationError
    from trifold.oracle import OracleError

    for error, base in (
        (DevelopmentError, RuntimeError),
        (InsufficientRadiusError, ValueError),
        (AutomatonError, ValueError),
        (OracleError, ValueError),
    ):
        assert issubclass(error, VerificationError) and issubclass(error, base)


@pytest.mark.parametrize(
    "argv, expected, named",
    [
        (["check", "{tmp}"], "Is a directory", None),
        (["check", "{tmp}/latin1.json"], "can't decode", "spec file {tmp}/latin1.json"),
        (["check", "{tmp}/spec.json"], "can't decode", "V1: cannot read group file {tmp}/v1.json"),
        (["build", "{tmp}/latin1.json", "--radius", "1", "--out", "{tmp}/out"], "can't decode",
         "spec file {tmp}/latin1.json"),
        (["curvature", "audit", "{tmp}/latin1.json"], "can't decode",
         "complex file {tmp}/latin1.json"),
        (["automaton", "{built}", "--kind", "geodesic", "--out", "{tmp}/missing/m.json"],
         "No such file or directory", None),
    ],
    ids=["check_directory", "check_spec_not_utf8", "check_group_file_not_utf8",
         "build_spec_not_utf8", "audit_not_utf8", "automaton_out_in_missing_dir"],
)
def test_unreadable_or_unwritable_file_exits_two(built, tmp_path, capsys, argv, expected, named):
    (tmp_path / "latin1.json").write_bytes(b"\xff\xfe{}")
    # spec.json names its V1 group file, v1.json, which is not UTF-8
    doc = load_sample("d333").to_document()
    doc["vertex_groups"][0] = "v1.json"
    (tmp_path / "spec.json").write_text(json.dumps(doc))
    (tmp_path / "v1.json").write_bytes(b'{"name": "D\xe9"}')
    assert main([a.format(tmp=tmp_path, built=built) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and expected in captured.err
    if named is not None:
        # a file that is not UTF-8 is named, and a bad group file is not
        # blamed on the spec that names it
        assert named.format(tmp=tmp_path) in captured.err
        assert "spec.json" not in captured.err
    assert not captured.out
    assert not (tmp_path / "out").exists() and not (tmp_path / "missing").exists()


@pytest.mark.parametrize(
    "command, name",
    [
        (["verify", "--suite", "cor1"], "spec.json"),
        (["verify", "--suite", "cor1"], "development.json"),
        (["verify", "--suite", "cor1"], "manifest.json"),
        (["automaton", "--kind", "geodesic"], "spec.json"),
        (["automaton", "--kind", "geodesic"], "development.json"),
    ],
    ids=["verify_spec", "verify_development", "verify_manifest", "automaton_spec",
         "automaton_development"],
)
def test_build_file_that_is_a_directory_exits_two(built, tmp_path, capsys, command, name):
    broken = tmp_path / "broken"
    shutil.copytree(built, broken)
    (broken / name).unlink()
    (broken / name).mkdir()
    assert main([command[0], str(broken), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Is a directory" in captured.err
    assert str(broken / name) in captured.err
    assert not captured.out


# sha256 of development.json (format 7), manifest.json and the lex-first
# machine's JSON, per sample: (ball radius, automaton flags, hashes).  The
# manifest and machine hashes equal those of the format-1 to format-6 code,
# the columns format 6 and later derive equal those format 5 stored, and
# format 7 keeps format 6's faces out to radius + delta - 1.
GOLDEN = {
    "d333": (11, [], (
        "4581798d9842d1e2d0324caf30dc7461c314b699b14db923c8611ec0a3a07817",
        "c8b4c256b0841175c6f5460beb396a415075cd69b7b43c311aa668db478e69bb",
        "3450465844302073b9631a8ba41162109a4b01d5f1fefa982edd2f2e7241dbdd",
    )),
    "d244": (8, [], (
        "db6a9ed8b8632b192c1db84a53a93e3db1e3e9ca3807dab52bff1f6375c8fc7e",
        "a6ec3d5897f7bb48a1526306fc3d0f56a7846aed18f2896acb586975b2b0e97c",
        "3ec8c41c897603bd662b279bda3f99021d9193871431c1ae72efe5ad6706a747",
    )),
    "d236": (5, [], (
        "8b2963657d48c9029279eb8819628c1e817572cf2b2e63d49ce512b4fe23ca61",
        "e1d08b9b32cd7c2211b80c3fa0fdd4ebbd37a582261824699db08f26be921052",
        "a3ac5c5804d538dd5a8c7fca9e173e8f972a1d1e0133416b792c9c948e52f27f",
    )),
    "d444": (6, ["--no-certify"], (
        "bf48f7ab9d0ba2cb403a2d902882048b2746c0622e7f03d5df5a4ca215aa009e",
        "3d1b84ebbaf74d1f91fe73ebaa7ceaaa3117e172f12f0156208f8c04b4cebcf3",
        "72a6e966fec3ab3bf42c1666e93601810b38103e44a2f82f426248ac2e87d2dc",
    )),
    "f21_333": (4, ["--no-certify"], (
        "f18560698911524a1ed8e9c0c170fac1993c8a98a9bcc652d4f44804005f27be",
        "8776300f9442cf23af7995c82d6998e068fdd95818ac8dd3d2d3ab2f58de645b",
        "23654c12316051cdc56571a967d815345c07179942fa37f49a46f15d441fcdab",
    )),
}
GOLDEN_GEODESIC_D333 = "0da7ab95885d4ee20c3c4215b3e18ce7569dfd3057cd4525e7c07d07fecbac89"


def test_format_6_ball_has_the_bytes_format_6_wrote():
    """`_format_6` writes the d333 radius-11 ball with the sha256 that the
    golden build had in format 6."""
    import hashlib

    doc = {"format": "trifold-development/7", "name": "d333", "k": 2, "radius": 11}
    _format_6(doc)
    data = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    digest = "18f07f34f17cf8819c68f3e8f6a7986538efcbedfdd696b09efcc478ff1394af"
    assert hashlib.sha256(data.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_build_bytes(tmp_path, name):
    import hashlib

    def sha(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    radius, flags, expected = GOLDEN[name]
    out = tmp_path / name
    assert main(["build", name, "--radius", str(radius), "--out", str(out)]) == 0
    machine = tmp_path / "lexfirst.json"
    assert main(["automaton", str(out), "--kind", "lexfirst", *flags, "--out", str(machine)]) == 0
    assert (sha(out / "development.json"), sha(out / "manifest.json"), sha(machine)) == expected
    if name == "d333":
        machine = tmp_path / "geodesic.json"
        assert main(["automaton", str(out), "--kind", "geodesic", "--out", str(machine)]) == 0
        assert sha(machine) == GOLDEN_GEODESIC_D333


# sha256 of what one `verify` call prints and of manifest.json after it, each
# call on a fresh copy of the built ball: (suite arguments, exit code, stdout
# hash, manifest hash) per call.  f21_333 at radius 4 runs its suites one by
# one.
GOLDEN_VERIFY = {
    ("d333", 11): [
        (["all", "--radius", "2"], 0,
         "2c5c5118a5a231230256812d518e9763a8ab720f8e162b5568c717b62dd4d26c",
         "c72d531a3b9d0c7176ca81ce15a47c829a132d524f8d5c418203a4c9fa452605"),
    ],
    ("d333", 3): [
        (["all"], 1,
         "e3579f8195287c805125e2685a0300672e147fdbac7a67997d5e6caeac8d5206",
         "ae4e8f5b5e28ca224483cdf4e03e3b976a83de022629e1bfded47eef2d80826d"),
    ],
    ("d444", 8): [
        (["all", "--radius", "1"], 1,
         "6a711b2c2167cce1cea6dfa4610f3f3de2b615e9e7f3d3d3d5e00dd647c04f0c",
         "5ed0280ef60affa18d9738b2d6ab8fe99288a303c4ad68086063c4002303625b"),
    ],
    ("d444", 9): [
        (["all", "--radius", "1"], 1,
         "eae41fa405b3868e7caf3876c9d583e699e8ecb4dd8bba8d7075dd9ca94194df",
         "976f6f1ca51290f4ea20431b10c11b4f31e1eeec36e22f8036e1d54d950e6fc0"),
    ],
    ("d244", 15): [
        (["all"], 1,
         "22a99c65bc76efb811f3c397190abcaa136594bad00d79edba8e6c000fdf08c2",
         "16c08c8da004b3f6366142a542d543c0398f5a365697be88c5f671774873a327"),
    ],
    ("d244", 6): [
        (["all"], 1,
         "aadec342fc115173cc1e29b1cea525b9cff800f8acb1d6604c50f7c7a5eab563",
         "7af65484a19c3d556e55dadd62a03903b1a8e19b4c04eac2f87207dfaa4ba358"),
    ],
    ("d236", 30): [
        (["all"], 1,
         "db568a924b1231fa481a83074a082e56bd8492775acb56f0818128962130a639",
         "9fe1a91e0671277eb6a5cf4eb2e8429e1baa56701fa599454670005e82e3cb8c"),
    ],
    ("d236", 8): [
        (["all"], 1,
         "165e4bb0e415dcbba019a6ebfabaca4ee5201902e563d5b1d79a97b9f81307db",
         "8f0397885420ebd6992725a60ed38f64a541a32eb6819bca0ab818972773f526"),
    ],
    ("f21_333", 4): [
        (["cor1"], 0,
         "d326455233d3c31a700e511e527b2b54898255582a4dc56febb99a62de98358f",
         "d00845ee729b6634b0ef5a0143d516e51916ecfb2f15428249e58c273e8f4a4a"),
        (["cor2"], 0,
         "4bae892e904a3c2f17b6220ae5be3c626d57cedc017a0e4ac4f64b30e9388039",
         "b4733ed7881cce63f071b71713c4f2450326014eed79de26dbd202ed99b0c44a"),
        (["enters"], 0,
         "56e183dd317ac8b01295ddc7fa54886f7bf0645d370b6699c497434189fe8a68",
         "f95c9d5f3c0e11a97bde53c84de22fcad12a73d8e04f98cd52ed3ac1369d0d31"),
        (["conetypes"], 0,
         "d1a0c6f15fdd0770b6dcd0a0bd728275d1936b0fb245fcf0feecefab4ff1a996",
         "5f60070a8a6b432c42e5f275b0c618c8fb12aec8092d319e781f7681f915c53c"),
        (["fellow"], 0,
         "eef41f647f8cde417ec19d18220370e4939fabde389307d3d3068a038a778a8d",
         "e94c031e1856c5829f8d70d5e80cdc365678f5e7d8b3481fd3a67ba5f1adcd2e"),
        (["gaussbonnet"], 0,
         "64a93a699e56812faf40078d1ed7d278588917a4f3ac00029d805772ac6bf9fd",
         "8b545a378bfc7afe78be060fc98e106c5772530503b1bbe76469847505b4f9ea"),
        (["catacomb", "--radius", "1"], 0,
         "1d12900b630bad090866b851289aeedfc6d54304f78bf7525a796398cef84efe",
         "df7c64e6eeee150bf5fb8d5904214ba76397f5f042943fa8cecd5d2b0f5a265a"),
    ],
}

# the shape of a verify line; perfbench/facts.py parses it
SUITE_LINE = re.compile(r"^(\w+): (pass|fail|skip) \((.*)\)$")


@pytest.mark.parametrize("name, radius", list(GOLDEN_VERIFY))
def test_golden_verify_lines_and_manifest(tmp_path, capsys, name, radius):
    import hashlib

    ball = tmp_path / "ball"
    assert main(["build", name, "--radius", str(radius), "--out", str(ball)]) == 0
    for suites, code, *expected in GOLDEN_VERIFY[name, radius]:
        run = tmp_path / "run"
        shutil.rmtree(run, ignore_errors=True)
        shutil.copytree(ball, run)
        capsys.readouterr()
        assert main(["verify", str(run), "--suite", *suites]) == code, suites
        out = capsys.readouterr().out
        assert all(SUITE_LINE.match(line) for line in out.splitlines()), out
        got = [
            hashlib.sha256(out.encode()).hexdigest(),
            hashlib.sha256((run / "manifest.json").read_bytes()).hexdigest(),
        ]
        assert got == expected, suites


# modules a call should compile only when it runs the command or suite
# that needs them
HEAVY_MODULES = {
    "trifold.grower", "trifold.cones", "trifold.automata", "trifold.curvature",
    "trifold.oracle", "trifold.rings",
}


def _modules_after(code: str) -> set[str]:
    """The modules loaded once `code` has run in a fresh interpreter."""
    import trifold

    src = str(Path(trifold.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    report = "import sys; print(*sorted(sys.modules))"
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"],
        env=env, capture_output=True, text=True, check=True,
    )
    return set(done.stdout.splitlines()[-1].split())


def test_cli_import_loads_no_grower_or_suite_module():
    loaded = _modules_after("import trifold.cli")
    assert "trifold.cli" in loaded
    assert not loaded & HEAVY_MODULES


def test_verify_does_not_load_the_grower(built, tmp_path):
    ball = tmp_path / "ball"
    shutil.copytree(built, ball)
    loaded = _modules_after(
        f"from trifold.cli import main\nassert main(['verify', {str(ball)!r}, '--suite', 'cor1']) == 0"
    )
    assert "trifold.development" in loaded
    assert "trifold.grower" not in loaded
    # spec_hash is only for build and automaton
    assert "hashlib" not in loaded


def test_conetypes_skip_loads_no_cone_module(tmp_path):
    # table radius 3 - delta 3 < 2: the suite prints skip before it needs cones
    ball = tmp_path / "ball"
    assert main(["build", "d333", "--radius", "3", "--out", str(ball)]) == 0
    loaded = _modules_after(
        f"from trifold.cli import main\nassert main(['verify', {str(ball)!r}, '--suite', 'conetypes']) == 0"
    )
    assert "trifold.cli" in loaded and "trifold.cones" not in loaded


def test_certifying_conetypes_loads_no_oracle_curvature_or_grower(tmp_path):
    ball = tmp_path / "ball"
    assert main(["build", "d333", "--radius", "8", "--out", str(ball)]) == 0
    loaded = _modules_after(
        f"from trifold.cli import main\nassert main(['verify', {str(ball)!r}, '--suite', 'conetypes']) == 0"
    )
    assert {"trifold.automata", "trifold.cones"} <= loaded
    assert not loaded & {"trifold.oracle", "trifold.curvature", "trifold.grower", "trifold.rings"}


def test_no_module_reads_the_environment():
    # every option of trifold is a command-line argument
    import ast

    import trifold

    package = Path(trifold.__file__).resolve().parent
    readers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                readers.append((path.name, node.lineno))
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                if any(alias.name in ("environ", "getenv") for alias in node.names):
                    readers.append((path.name, node.lineno))
    assert readers == []


def test_runtime_imports_only_stdlib():
    # pyproject.toml declares no dependencies: every import is of trifold
    # itself or of the standard library
    import ast

    import trifold

    package = Path(trifold.__file__).resolve().parent
    outside = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "trifold" and top not in sys.stdlib_module_names:
                    outside.append((path.name, node.lineno, name))
    assert outside == []
