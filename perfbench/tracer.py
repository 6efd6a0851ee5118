"""Run one trifold CLI call with timing wrappers around each layer's entry
points, and write the spans and counts it recorded as JSON.

    python3 tracer.py TRACE_OUT RUN_ID CLI_ARG...

The wrappers are installed from here, on the imported modules; the trifold
sources are not edited.  A span is (name, layer, start, end, parent index);
a span is recorded only for the outermost active call of each entry point,
and count-only entry points record no span, so their time is part of the
caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute path, metric name, layer, records a span)
ENTRY_POINTS = (
    ("groups", "load_triangle_spec_file", "groups.spec_load", "groups", True),
    ("groups", "npc_check", "groups.npc_check", "groups", True),
    ("groups", "TriangleGroupSpec.local_links", "groups.local_links", "groups", True),
    ("development", "_Grower.grow", "development.grow", "development", True),
    ("development", "_Grower.finalize", "development.finalize", "development", True),
    ("development", "development_to_json", "development.export", "development", True),
    ("cli", "_load_devdir", "development.import", "development", True),
    ("development", "Development.bfs_from", "development.bfs", "development", True),
    ("cones", "signature_counts", "cones.signature_counts", "cones", True),
    ("cones", "verify_cone_determination", "cones.determination", "cones", True),
    ("cones", "enumerate_cone_types", "cones.tables", "cones", True),
    ("cones", "cone_signature", "cones.signature", "cones", False),
    ("automata", "build_geodesic_automaton", "automata.geodesic", "automata", True),
    ("automata", "build_lexfirst_automaton", "automata.lexfirst", "automata", True),
    ("automata", "lexfirst_words", "automata.lexfirst_words", "automata", True),
    ("automata", "fellow_traveller_check", "automata.fellow", "automata", True),
    ("oracle", "catacomb_check", "oracle.catacomb", "oracle", True),
    ("oracle", "cat0_geodesic", "oracle.geodesic", "oracle", True),
    ("oracle", "funnel_path", "oracle.funnel", "oracle", False),
    ("rings", "RadicalSum.compare", "rings.compare", "rings", True),
    ("curvature", "build_patch", "curvature.patch", "curvature", True),
    ("curvature", "extract_disc_diagrams", "curvature.discs", "curvature", True),
    ("curvature", "AngledComplex.gauss_bonnet", "curvature.gauss_bonnet", "curvature", False),
)

# Entry points wrapped only where one module calls them: the bound in
# oracle.cat0_geodesic, not every use of the ring helper.
CALL_SITES = (
    ("oracle", "segment_point_sqdist", "rings.sqdist_bound", "rings"),
)


def _development_counters(dev) -> dict:
    return {
        "development.faces_built": dev.face_count,
        "development.faces_trusted": sum(dev.final),
        "development.vertices": len(dev.vert_type),
        "development.edges": len(dev.edge_letter),
    }


# Work counters read off an entry point's result.
RESULT_COUNTERS = {
    "development.finalize": _development_counters,
    "development.export": lambda text: {"development.json_bytes": len(text.encode())},
    "cones.determination": lambda report: {"cones.determination_words": report.words_checked},
    "automata.geodesic": lambda machine: {"automata.geodesic_states": machine.n_live},
    "automata.lexfirst": lambda machine: {"automata.lexfirst_states": machine.n_live},
    "automata.fellow": lambda report: {"automata.fellow_pairs": report.pairs_checked},
    "oracle.catacomb": lambda report: {
        "oracle.pairs": report.pairs_checked,
        "oracle.inconclusive": len(report.inconclusive),
    },
    "curvature.patch": lambda patch: {
        "curvature.patch_cells": len(patch.complex.cells),
        "curvature.patch_omitted": patch.omitted_cells,
    },
    "curvature.discs": lambda discs: {"curvature.discs": len(discs)},
}


class Trace:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._active: dict[str, int] = {}

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn, name: str, layer: str, span: bool):
        calls = name + "_calls"
        counters = RESULT_COUNTERS.get(name)

        if not span:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.count(calls)
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.count(calls)
            if self._active.get(name):
                return fn(*args, **kwargs)
            self._active[name] = 1
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, layer, time.perf_counter(), None, parent])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][3] = time.perf_counter()
                self._stack.pop()
                self._active[name] = 0
            if counters is not None:
                for key, value in counters(result).items():
                    self.count(key, value)
            return result

        return traced


def install(trace: Trace) -> None:
    modules = {
        name: importlib.import_module(f"trifold.{name}")
        for name in ("groups", "development", "cones", "automata", "oracle", "rings",
                     "curvature", "cli")
    }
    for module, path, name, layer, span in ENTRY_POINTS:
        owner = modules[module]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapped = trace.wrap(original, name, layer, span)
        setattr(owner, attr, wrapped)
        if outer:
            continue
        # functions imported by name into other modules are rebound there too
        for other in modules.values():
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapped)
    for module, attr, name, layer in CALL_SITES:
        owner = modules[module]
        setattr(owner, attr, trace.wrap(getattr(owner, attr), name, layer, True))


def main(argv: list[str]) -> int:
    out_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    trace = Trace()
    install(trace)
    from trifold import cli

    run = trace.wrap(cli.main, "cli.main", "cli", True)
    try:
        code = run(cli_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"run": run_id, "spans": trace.spans, "counts": trace.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
