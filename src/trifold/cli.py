"""Command-line surface: spec checking, ball building with persistence,
automaton synthesis, verification suites, oracles, and curvature audits.

Exit codes: 0 pass, 1 mathematical verdict negative or verification failure,
2 usage or schema error, or a file that cannot be read or written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections import namedtuple

from . import __version__
from .groups import GroupError, TriangleGroupSpec, load_triangle_spec_file, npc_check
from .samples import REFLECTION_SAMPLES, SAMPLE_BUILDERS, load_sample, sample_names, write_sample
from .development import (
    Development,
    InsufficientRadiusError,
    VerificationError,
    development_to_json,
    import_development,
)

# grower, cones, automata, curvature and oracle are imported inside the
# commands and suites that use them, so a call pays only for the modules it
# runs


class UsageError(ValueError):
    pass


def _reject_non_integer(text: str):
    raise ValueError(f"{text} is not an integer")


def spec_hash(spec: TriangleGroupSpec) -> str:
    import hashlib  # only build and automaton hash a spec

    blob = json.dumps(spec.to_document(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _load_spec(path_or_name: str) -> TriangleGroupSpec:
    if path_or_name in SAMPLE_BUILDERS:
        return load_sample(path_or_name)
    if not os.path.exists(path_or_name):
        raise UsageError(f"no spec file {path_or_name!r} and no such sample")
    try:
        return load_triangle_spec_file(path_or_name)
    except (GroupError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise UsageError(f"bad spec document: {exc}") from exc


def _load_devdir(devdir: str) -> Development:
    try:
        spec = load_triangle_spec_file(os.path.join(devdir, "spec.json"))
        with open(os.path.join(devdir, "development.json")) as fh:
            doc = json.load(fh, parse_float=_reject_non_integer, parse_constant=_reject_non_integer)
        return import_development(doc, spec)
    except FileNotFoundError as exc:
        raise UsageError(f"not a build directory: {exc}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(
            f"malformed build directory {devdir}: {type(exc).__name__}: {exc}"
        ) from exc


def _write_text(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _write_manifest(outdir: str, manifest: dict) -> None:
    _write_text(os.path.join(outdir, "manifest.json"), json.dumps(manifest, sort_keys=True, indent=1) + "\n")


def _log_run(outdir: str, line: str) -> None:
    with open(os.path.join(outdir, "runs.log"), "a") as fh:
        fh.write(f"{time.strftime('%Y-%m-%dT%H:%M:%S')} {line}\n")


def cmd_check(args) -> int:
    spec = _load_spec(args.spec)
    verdict = npc_check(spec)
    print(f"{spec.name}: {verdict}")
    if spec.nontrivial_edge_intersections:
        groups = ", ".join(f"V{i+1}" for i in spec.nontrivial_edge_intersections)
        print(f"warning: nontrivial generator intersection in {groups}; untested territory")
    return 0 if verdict.nonpositively_curved else 1


def cmd_build(args) -> int:
    from .grower import _Grower

    spec = _load_spec(args.spec)
    outdir = args.out
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot make build directory {outdir}: {exc}") from exc
    grower = _Grower(spec)  # refuses a spec that is not nonpositively curved
    grower.grow(args.radius)
    dev, verdict = grower.finalize(args.radius), grower.verdict
    del grower  # the growth state is large
    _write_text(os.path.join(outdir, "spec.json"), json.dumps(spec.to_document(), sort_keys=True, indent=1) + "\n")
    _write_text(os.path.join(outdir, "development.json"), development_to_json(dev))
    manifest = {
        "format": "trifold-manifest/1",
        "tool_version": __version__,
        "spec_name": spec.name,
        "spec_hash": spec_hash(spec),
        "k": spec.k,
        "radius": dev.radius,
        "margin": dev.margin,
        "half_girths": [None if r is math.inf else int(r) for r in verdict.half_girths],
        "verdict": verdict.kind,
        "delta": spec.delta,
        "link_diameters": spec.link_diameters,
        "sphere_sizes": dev.sphere_sizes,
        "cone_type_count": None,
        "stabilization_radius": None,
        "verdicts": {},
    }
    _write_manifest(outdir, manifest)
    _log_run(outdir, f"build radius={args.radius}")
    print(f"built {spec.name} to radius {dev.radius}; sphere sizes {dev.sphere_sizes}")
    return 0


def cmd_automaton(args) -> int:
    from .automata import build_geodesic_automaton, build_lexfirst_automaton

    if args.kind == "geodesic" and args.no_certify:
        raise UsageError("--no-certify applies only to --kind lexfirst")
    dev = _load_devdir(args.devdir)
    if args.kind == "geodesic":
        radius = args.radius if args.radius is not None else dev.radius - dev.spec.delta
        machine = build_geodesic_automaton(dev, radius)
    else:
        radius = args.radius if args.radius is not None else dev.radius
        machine = build_lexfirst_automaton(dev, radius, certify=not args.no_certify)
    machine.metadata["spec_hash"] = spec_hash(dev.spec)
    text = machine.to_json() if args.format == "json" else machine.to_dot()
    if args.out:
        _write_text(args.out, text)
        print(f"wrote {args.kind} machine ({machine.n_live} live states) to {args.out}")
    else:
        sys.stdout.write(text)
    counts = machine.growth_series(min(radius, 10))
    print(f"accepted words per length: {counts}")
    return 0


class Verdict(namedtuple("Verdict", "status message manifest")):
    """What one verify suite found: a status of "pass", "fail" or "skip", the
    message printed after it, and the manifest.json fields the suite sets."""

    __slots__ = ()

    def __new__(cls, status: str, message: str, manifest: dict | None = None):
        return super().__new__(cls, status, message, {} if manifest is None else manifest)


def _suite_cor1(dev: Development) -> Verdict:
    vertices = dev.interior_vertices()
    for v in vertices:
        dev.minimal_triangles(v)
    return Verdict("pass", f"minimal faces pairwise adjacent at {len(vertices)} interior vertices")


def _suite_cor2(dev: Development) -> Verdict:
    checked = sum(len(dev.local_distances(v)) for v in dev.interior_vertices())
    return Verdict("pass", f"distance decomposition holds at {checked} vertex-face pairs")


def _suite_enters(dev: Development) -> Verdict:
    checked = bad = 0
    for v in dev.interior_vertices():
        link = dev.local_distances(v)
        for f, dv in link.items():
            if any(g not in link and dev.dist[g] == dev.dist[f] - 1 for g in dev.adjacent_faces(f)):
                checked += 1
                if dv > 1:
                    bad += 1
    if bad:
        return Verdict("fail", f"geodesics enter {bad} links too far from minimal faces")
    return Verdict("pass", f"every geodesic entry point within one step of minimal ({checked} checked)")


def _suite_conetypes(dev: Development, depth: int) -> Verdict:
    table_radius = dev.radius - dev.spec.delta
    if table_radius < 2:
        return Verdict("skip", "ball too small for cone tables")
    from .cones import enumerate_cone_types, signature_counts, verify_cone_determination

    counts = signature_counts(dev, table_radius)
    stable = counts[-1] == counts[-2] == counts[-3]
    det_radius = max(0, min(table_radius, dev.radius - depth))
    table = enumerate_cone_types(dev, table_radius - 1)
    manifest = {
        "cone_type_count": counts[-1],
        "stabilization_radius": counts.index(counts[-1]),
    }
    classes = None  # the signatures, at half-girths of 3 or more
    partition = ""
    if any(r == 2 for r in dev.spec.half_girths):
        # equal signatures do not determine cone types at a half-girth of 2;
        # the states of the all-geodesics machine do, once it is certified by
        # equal canonical forms at table_radius - 1 and table_radius; the
        # radius where the signature count settles says nothing about them
        from .automata import build_geodesic_automaton, lexfirst_words

        manifest["stabilization_radius"] = None
        try:
            machine = build_geodesic_automaton(dev, table_radius)
        except InsufficientRadiusError as exc:
            manifest["cone_type_count"] = None
            return Verdict("fail", (
                f"signature counts {counts}; a half-girth is 2, so cone types are "
                f"all-geodesics machine states, and the machine does not certify at "
                f"table radius {table_radius}: {exc}"
            ), manifest)
        manifest["cone_type_count"] = machine.n_live
        classes = {}
        for f, word in lexfirst_words(dev, det_radius)[0].items():
            q = machine.start
            for sym in word:
                q = machine.step(q, sym)
            classes[f] = q
        if not all(machine.is_accepting(q) for q in classes.values()):
            return Verdict("fail", (
                f"signature counts {counts}; the all-geodesics machine certified at "
                f"table radius {table_radius} rejects a lex-first word"
            ), manifest)
        partition = f" over {machine.n_live} machine states"
    report = verify_cone_determination(dev, det_radius, depth=depth, classes=classes)
    msg = (
        f"signature counts {counts}; "
        f"determination depth {depth}{partition}: "
        f"{'pass' if report.ok else f'fail {report.counterexample}'}; "
        f"successor rows {'coherent' if table.coherent else 'INCOHERENT (half-girth 2 territory)'}"
    )
    return Verdict("pass" if stable and report.ok else "fail", msg, manifest)


def _suite_catacomb(dev: Development, radius: int | None, maxlen: int | None) -> Verdict:
    if any(r == 2 for r in dev.spec.half_girths):
        return Verdict("skip", "gated, skipped: a half-girth equals 2, so the unit equilateral metric is not nonpositively curved")
    from .oracle import catacomb_check

    use_radius = radius if radius is not None else max(0, min(4, dev.radius - 1))
    report = catacomb_check(dev, use_radius, maxlen)
    if report.ok:
        reach = f"radius {use_radius}"
        if report.pairs_checked and report.farthest < use_radius:
            reach = f"radius {report.farthest}; no pair is farther apart"
        return Verdict("pass", f"crossing counts equal ball distances on {report.pairs_checked} pairs ({reach})")
    return Verdict("fail", f"{len(report.failures)} crossing mismatches, {len(report.inconclusive)} inconclusive")


def _suite_fellow(dev: Development) -> Verdict:
    from .automata import fellow_traveller_check

    report = fellow_traveller_check(dev, dev.radius - 1)
    msg = (
        f"delta {report.delta}, observed sync {report.observed_sync}, "
        f"async {report.observed_async}, pairs {report.pairs_checked}"
    )
    if report.ok:
        return Verdict("pass", msg)
    return Verdict("fail", msg + f", violations {len(report.violations)}")


def _suite_gaussbonnet(dev: Development) -> Verdict:
    import random

    from fractions import Fraction as F

    from .curvature import (
        build_patch,
        extract_disc_diagrams,
        polygon_fixture,
        random_angles,
        triangle_fixture,
    )

    checks = 0
    fixtures = [triangle_fixture(F(1, 3)), triangle_fixture(F(0)), polygon_fixture(6, F(2, 3))]
    for y in fixtures:
        if not y.gauss_bonnet().ok:
            return Verdict("fail", "trivial fixture failed")
        checks += 1
    patch_radius = min(dev.radius, 4)
    patch = build_patch(dev, patch_radius)
    if not all(c.size >= 6 for c, k in zip(patch.complex.cells, patch.cell_kinds) if k == "link") and not any(
        r == 2 for r in dev.spec.half_girths
    ):
        return Verdict("fail", "a link cell shorter than 6 appeared despite half-girths >= 3")
    discs = extract_disc_diagrams(patch, 30, seed=20259, max_cells=6)
    rng = random.Random(414243)
    for disc in discs:
        if not disc.gauss_bonnet().ok:
            return Verdict("fail", "disc subpatch failed the exact identity")
        checks += 1
        for _ in range(3):
            reshuffled = random_angles(disc, rng)
            if not reshuffled.gauss_bonnet().ok:
                return Verdict("fail", "random angle reassignment failed the exact identity")
            checks += 1
    if checks < 100:
        return Verdict("fail", f"only {checks} fixtures audited; need at least 100")
    return Verdict("pass", f"exact identity verified on {checks} fixtures")


# the verify suites in `--suite all` order, each called with (ball, arguments)
SUITES = {
    "cor1": lambda dev, args: _suite_cor1(dev),
    "cor2": lambda dev, args: _suite_cor2(dev),
    "enters": lambda dev, args: _suite_enters(dev),
    "conetypes": lambda dev, args: _suite_conetypes(dev, args.depth),
    "catacomb": lambda dev, args: _suite_catacomb(dev, args.radius, args.maxlen),
    "fellow": lambda dev, args: _suite_fellow(dev),
    "gaussbonnet": lambda dev, args: _suite_gaussbonnet(dev),
}


def _load_manifest(devdir: str) -> dict | None:
    """The build's manifest, or None when there is none."""
    path = os.path.join(devdir, "manifest.json")
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except ValueError as exc:
        raise UsageError(f"malformed build directory {devdir}: manifest.json: {exc}") from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("verdicts"), dict):
        raise UsageError(
            f"malformed build directory {devdir}: manifest.json has no verdicts table"
        )
    return manifest


def cmd_verify(args) -> int:
    dev = _load_devdir(args.devdir)
    # a malformed manifest is reported before any suite runs
    manifest = _load_manifest(args.devdir)
    wanted = list(SUITES) if args.suite == "all" else [args.suite]
    failed = False
    for name in wanted:
        try:
            verdict = SUITES[name](dev, args)
        except VerificationError as exc:
            verdict = Verdict("fail", str(exc))
        print(f"{name}: {verdict.status} ({verdict.message})")
        failed = failed or verdict.status == "fail"
        if manifest is not None:
            manifest["verdicts"][name] = verdict.status
            manifest.update(verdict.manifest)
    if manifest is not None:
        _write_manifest(args.devdir, manifest)
        _log_run(args.devdir, f"verify suites={','.join(wanted)}")
    return 1 if failed else 0


def cmd_oracle(args) -> int:
    from .grower import grow_to_radius
    from .oracle import compare_balls, isometry_ball

    dev = grow_to_radius(load_sample(args.group), args.radius)
    result = compare_balls(dev, isometry_ball(args.group, args.radius), args.radius)
    print(
        f"{args.group} radius {args.radius}: "
        f"{'isomorphic' if result.ok else 'DIVERGED: ' + result.detail} "
        f"({result.matched} elements matched)"
    )
    return 0 if result.ok else 1


def cmd_curvature(args) -> int:
    from .curvature import complex_from_document

    try:
        with open(args.file) as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read complex file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read complex file {args.file}: {exc}") from exc
    try:
        y = complex_from_document(json.loads(text))
    except (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError) as exc:
        # ComplexError and a broken file's JSONDecodeError are ValueErrors
        raise UsageError(f"bad complex document: {exc}") from exc
    print(f"vertices {y.n_vertices}, edges {len(y.edges)}, faces {len(y.cells)}")
    for v, curvature in enumerate(y.vertex_curvatures()):
        print(f"  vertex {v}: curvature {curvature}*pi")
    for c in range(len(y.cells)):
        print(f"  face {c} (size {y.cells[c].size}): curvature {y.face_curvature(c)}*pi")
    verdict = y.gauss_bonnet()
    print(verdict)
    return 0 if verdict.ok else 1


def cmd_sample(args) -> int:
    if args.list:
        for name in sample_names():
            print(name)
        return 0
    if not args.name or not args.out:
        raise UsageError("need a sample name and --out")
    if args.name not in SAMPLE_BUILDERS:
        raise UsageError(f"unknown sample {args.name!r}; available: {', '.join(sample_names())}")
    try:
        write_sample(args.name, args.out)
    except OSError as exc:
        raise UsageError(f"cannot write {args.out}: {exc}") from exc
    print(f"wrote {args.name} to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trifold",
        description=(
            "balls, cone types, geodesic automata and curvature audits for "
            "k-fold triangle groups"
        ),
    )
    parser.add_argument("--version", action="version", version=f"trifold {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="validate a spec and report its curvature class")
    p.add_argument("spec", help="spec file or shipped sample name")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("build", help="grow a ball and persist it with a manifest")
    p.add_argument("spec")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("automaton", help="synthesize and export a word acceptor")
    p.add_argument("devdir")
    p.add_argument("--kind", choices=("geodesic", "lexfirst"), required=True)
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--out", default=None)
    p.add_argument("--no-certify", action="store_true",
                   help="skip the consecutive-radius certificate (lexfirst only)")
    p.set_defaults(func=cmd_automaton)

    p = sub.add_parser("verify", help="run verification suites on a persisted ball")
    p.add_argument("devdir")
    p.add_argument("--suite", choices=[*SUITES, "all"], default="all")
    p.add_argument("--radius", type=int, default=None, help="pair radius for catacomb")
    p.add_argument("--maxlen", type=int, default=None)
    p.add_argument("--depth", type=int, default=3)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="independent exact-isometry checks")
    osub = p.add_subparsers(dest="oracle_cmd", required=True)
    pc = osub.add_parser("compare", help="development ball vs reflection-group ball")
    pc.add_argument("--group", choices=REFLECTION_SAMPLES, required=True)
    pc.add_argument("--radius", type=int, required=True)
    pc.set_defaults(func=cmd_oracle)

    p = sub.add_parser("curvature", help="curvature audits of angled complexes")
    csub = p.add_subparsers(dest="curv_cmd", required=True)
    pa = csub.add_parser("audit", help="print curvature tables and the exact identity")
    pa.add_argument("file")
    pa.set_defaults(func=cmd_curvature)

    p = sub.add_parser("sample", help="write a shipped sample spec to a file")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=cmd_sample)

    return parser


# smallest accepted value of each numeric option, whichever subcommand has it
_NUMERIC_FLOORS = {"radius": 0, "maxlen": 1, "depth": 1}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, floor in _NUMERIC_FLOORS.items():
            value = getattr(args, name, None)
            if value is not None and value < floor:
                raise UsageError(f"--{name} must be at least {floor}, got {value}")
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GroupError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, UnicodeError) as exc:
        # a file named on the command line, or in a build directory, that
        # cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
