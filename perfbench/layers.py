"""Per-layer metrics from the spans and counts that tracer.py writes.

One pipeline run is several CLI calls; their traces are summed.  A span's
self time is its duration minus the durations of its direct children, and a
layer's self time (`<layer>.s`) is the sum over its spans.
"""

from __future__ import annotations

LAYERS = ("cli", "groups", "development", "cones", "automata", "oracle", "rings", "curvature")

# per-layer metric name -> unit, better
PER_LAYER = {
    **{f"{layer}.s": ("s", "lower") for layer in LAYERS},
    "groups.npc_check_calls": ("count", "lower"),
    "groups.local_links_calls": ("count", "lower"),
    "development.grow_s": ("s", "lower"),
    "development.finalize_s": ("s", "lower"),
    "development.faces_built": ("count", "lower"),
    "development.faces_trusted": ("count", "higher"),
    "development.trusted_ratio": ("ratio", "higher"),
    "development.vertices": ("count", "lower"),
    "development.edges": ("count", "lower"),
    "development.export_s": ("s", "lower"),
    "development.json_bytes": ("bytes", "lower"),
    "development.import_s": ("s", "lower"),
    "development.import_calls": ("count", "lower"),
    "development.bfs_calls": ("count", "lower"),
    "development.bfs_s": ("s", "lower"),
    "cones.signatures": ("count", "lower"),
    "cones.determination_words": ("count", "lower"),
    "automata.geodesic_s": ("s", "lower"),
    "automata.geodesic_states": ("count", "lower"),
    "automata.lexfirst_s": ("s", "lower"),
    "automata.lexfirst_states": ("count", "lower"),
    "automata.lexfirst_words_calls": ("count", "lower"),
    "automata.fellow_s": ("s", "lower"),
    "automata.fellow_pairs": ("count", "lower"),
    "oracle.catacomb_s": ("s", "lower"),
    "oracle.pairs": ("count", "lower"),
    "oracle.s_per_pair": ("s", "lower"),
    "oracle.geodesic_calls": ("count", "lower"),
    "oracle.funnel_calls": ("count", "lower"),
    "oracle.inconclusive": ("count", "lower"),
    "rings.compare_calls": ("count", "lower"),
    "rings.sqdist_bound_calls": ("count", "lower"),
    "curvature.patch_s": ("s", "lower"),
    "curvature.patch_cells": ("count", "higher"),
    "curvature.patch_omitted": ("count", "lower"),
    "curvature.cells_kept_ratio": ("ratio", "higher"),
    "curvature.discs_s": ("s", "lower"),
    "curvature.discs": ("count", "higher"),
    "curvature.gauss_bonnet_checks": ("count", "higher"),
    "trace.overhead_s": ("s", "lower"),
}

# tracer names whose call counts are reported under another metric name
_RENAMED_COUNTS = {
    "cones.signature_calls": "cones.signatures",
    "curvature.gauss_bonnet_calls": "curvature.gauss_bonnet_checks",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def summarize(traces: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """Times and counts of one pipeline run from the traces of its calls."""
    times: dict[str, float] = {f"{layer}.s": 0.0 for layer in LAYERS}
    counts: dict[str, int] = {}
    for trace in traces:
        spans = trace["spans"]
        child_time = [0.0] * len(spans)
        for name, layer, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, layer, start, end, _), inner in zip(spans, child_time):
            times[f"{layer}.s"] += end - start - inner
            times[f"{name}_s"] = times.get(f"{name}_s", 0.0) + end - start
        for key, value in trace["counts"].items():
            key = _RENAMED_COUNTS.get(key, key)
            counts[key] = counts.get(key, 0) + value
    return times, counts


def derive(times: dict[str, float], counts: dict[str, float]) -> dict[str, float]:
    """The reported per-layer metrics, zero where a layer did no work."""
    values = {**times, **counts}
    values["development.trusted_ratio"] = _ratio(
        counts.get("development.faces_trusted", 0), counts.get("development.faces_built", 0)
    )
    values["oracle.s_per_pair"] = _ratio(
        times.get("oracle.catacomb_s", 0.0), counts.get("oracle.pairs", 0)
    )
    cells = counts.get("curvature.patch_cells", 0)
    values["curvature.cells_kept_ratio"] = _ratio(
        cells, cells + counts.get("curvature.patch_omitted", 0)
    )
    return {name: values.get(name, 0) for name in PER_LAYER}
