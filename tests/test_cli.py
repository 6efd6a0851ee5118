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
    at radius + margin - 1: the new face lies one farther."""
    _added_face(doc, max(doc["face_edges"]), 1)


def _last_layer_dropped(doc):
    """The faces at radius + margin - 1 are left out."""
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
    """The last face at radius + margin - 2 that crosses to earlier faces on
    both of its edges at a corner takes a new edge for the first of them, so
    the link there is cut open, and a face added at the end continues the
    link past the cut: it takes the element of the face across the cut."""
    dev = _loaded(doc)
    x = max(
        3 * f + letter
        for f, d in enumerate(dev.dist) if d == dev.radius + dev.margin - 2
        for letter, other in VERTEX_LETTERS if dev.f_slot[3 * f + letter] and dev.f_slot[3 * f + other]
    )
    _cut(doc, x)
    _added_face(doc, doc["face_edges"][x], 1)


def _negative_radius(doc):
    """The ball cut to its faces within distance 2, which is radius + margin
    - 1 for d333 at radius -1, under that radius."""
    n = 3 * len(_loaded(doc).ball_faces(2))
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
# it, the two edges at a corner disagree, a chart repeats an element, or the
# faces are out of breadth-first order
DERIVATION_FAULTS = {
    _past_extent: "face_edges: a face lies past radius + margin - 1 = 12",
    _last_layer_dropped: "radius: the faces reach distance 11, short of radius + margin - 1 = 12",
    _second_base_face: "face_edges: face 1 has no earlier neighbour at distance 0 or more",
    _last_face_detached: "face_edges: face 234 has no earlier neighbour at distance 11 or more",
    _faces_out_of_order: "face_edges: face 4 has no earlier neighbour at distance 1 or more",
    _first_faces_swapped: "face_edges: face 2 is out of breadth-first order",
    _parent_edges_cut: "face_edges: face 31 has no earlier neighbour at distance 3 or more",
    _edges_traded: "face_edges: edges 9 and 13 of face 10 disagree on its V1 corner",
    _element_disagrees: "face_edges: edges 19 and 17 of face 17 disagree on its V1 corner",
    _chart_repeats: "face_edges: face 72 repeats an element of vertex 25's chart",
    _link_wraps: "face_edges: face 235 repeats an element of vertex 74's chart",
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


def _format_5(doc):
    """The same ball in format 5, which is no longer read: besides the face
    edges and slots, it stored `margin`, `dist` and each face's corners and
    its elements there, which format 6 derives."""
    dev = _loaded(doc)
    doc.update(
        format="trifold-development/5",
        margin=dev.margin,
        dist=dev.dist,
        face_vertices=dev.f_vert,
        face_elements=dev.f_elem,
    )


def _format_4(doc):
    """The same ball in format 4, which is no longer read: besides the face
    columns of format 5 but for `face_elements`, it stored the edge and
    vertex columns, and each vertex's chart as pairs of a face and its
    element."""
    dev = _loaded(doc)
    _format_5(doc)
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
        *(("spec.json", fault) for fault in SPEC_FAULTS),
        *(("development.json", fault) for fault in NON_INTEGER_FAULTS),
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
    formats = (_format_1, _format_2, _format_3, _format_4, _format_5)
    if content in formats:
        version = formats.index(content) + 1
        assert f"development format 'trifold-development/{version}'" in err
        assert "rebuild the ball" in err
    expected = {
        _slot_claimed_twice: "is claimed by faces 0 and",
        _edge_under_two_letters: "appears under two letters",
        _edges_renumbered: "face_edges: edge 2 is not numbered by first appearance",
        _radius_raised: "radius: the faces reach distance 12, short of radius + margin - 1 = 15",
        _negative_radius: "radius: -1 is negative",
        **DERIVATION_FAULTS,
        **SPEC_FAULTS,
        **NON_INTEGER_FAULTS,
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


# sha256 of development.json (format 6), manifest.json and the lex-first
# machine's JSON, per sample: (ball radius, automaton flags, hashes).  The
# manifest and machine hashes equal those of the format-1 to format-5 code,
# and the columns format 6 derives equal those format 5 stored.
GOLDEN = {
    "d333": (11, [], (
        "18f07f34f17cf8819c68f3e8f6a7986538efcbedfdd696b09efcc478ff1394af",
        "c8b4c256b0841175c6f5460beb396a415075cd69b7b43c311aa668db478e69bb",
        "3450465844302073b9631a8ba41162109a4b01d5f1fefa982edd2f2e7241dbdd",
    )),
    "d244": (8, [], (
        "807d0f4d6bb5b89f8176ae9c77df05d7bfaece2a20faf25451724aae82801801",
        "a6ec3d5897f7bb48a1526306fc3d0f56a7846aed18f2896acb586975b2b0e97c",
        "3ec8c41c897603bd662b279bda3f99021d9193871431c1ae72efe5ad6706a747",
    )),
    "d236": (5, [], (
        "d6679a5faf31eda01f459792016f48af27fa3b79dd08ed81c14abfa15e81bbb5",
        "e1d08b9b32cd7c2211b80c3fa0fdd4ebbd37a582261824699db08f26be921052",
        "a3ac5c5804d538dd5a8c7fca9e173e8f972a1d1e0133416b792c9c948e52f27f",
    )),
    "d444": (6, ["--no-certify"], (
        "79040852a9ea1df046f918ddd01bd98ded60192aea31ad688eab88f13b5ff094",
        "3d1b84ebbaf74d1f91fe73ebaa7ceaaa3117e172f12f0156208f8c04b4cebcf3",
        "72a6e966fec3ab3bf42c1666e93601810b38103e44a2f82f426248ac2e87d2dc",
    )),
    "f21_333": (4, ["--no-certify"], (
        "ed27ab3f0d9b97af4bfd8b146170894e68afc2afa643c58438fc65a563e25a23",
        "8776300f9442cf23af7995c82d6998e068fdd95818ac8dd3d2d3ab2f58de645b",
        "23654c12316051cdc56571a967d815345c07179942fa37f49a46f15d441fcdab",
    )),
}
GOLDEN_GEODESIC_D333 = "0da7ab95885d4ee20c3c4215b3e18ce7569dfd3057cd4525e7c07d07fecbac89"


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
         "07bf07762ad483ebd892e055d52f8da0356e9bcf59503c4e7428855fe14dca3a",
         "87c17eb196c0f36de80844463c93417716452b30249220998d85737dccb11759"),
    ],
    ("d444", 9): [
        (["all", "--radius", "1"], 1,
         "110a87894a2c21fa353838a75306658955a28b4912ff9eb88eecd870e32edda7",
         "cff71edaeff4a951428503eaab738cfca9b2d5202d964a6667d3ad626b19aefd"),
    ],
    ("d244", 15): [
        (["all"], 1,
         "22a99c65bc76efb811f3c397190abcaa136594bad00d79edba8e6c000fdf08c2",
         "16c08c8da004b3f6366142a542d543c0398f5a365697be88c5f671774873a327"),
    ],
    ("d244", 6): [
        (["all"], 1,
         "cbcbd3f6cf98379d449949065be7a1db8b6501a83e7762ff288887ad88c35b5d",
         "7af65484a19c3d556e55dadd62a03903b1a8e19b4c04eac2f87207dfaa4ba358"),
    ],
    ("d236", 30): [
        (["all"], 1,
         "db568a924b1231fa481a83074a082e56bd8492775acb56f0818128962130a639",
         "9fe1a91e0671277eb6a5cf4eb2e8429e1baa56701fa599454670005e82e3cb8c"),
    ],
    ("d236", 8): [
        (["all"], 1,
         "5e2002ca8357818a19909a952eb96496cebcb2c8140a2274af417f35d5f6f416",
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
