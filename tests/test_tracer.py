import json
import os
import subprocess
import sys
from pathlib import Path

from trifold.cli import _load_devdir

ROOT = Path(__file__).resolve().parents[1]


def _traced(tmp_path, run_id, *argv):
    """Run one CLI call under perfbench/tracer.py; its exit code must be 0.
    Returns the trace it wrote."""
    out = tmp_path / f"{run_id}.json"
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(out), run_id, *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(out.read_text())


def test_tracer_runs_build_and_verify(tmp_path):
    """The tracer wraps the names it reads off the trifold modules, the work
    counters it takes from finalize's ball match the ball built, and a build
    makes the local links once."""
    ball = tmp_path / "d333"
    build = _traced(tmp_path, "build", "build", "d333", "--radius", "2", "--out", str(ball))
    dev = _load_devdir(str(ball))
    counts = build["counts"]
    assert counts["groups.local_links_calls"] == 1
    assert counts["development.faces_built"] == dev.face_count
    assert counts["development.edges"] == len(dev.edge_letter)
    assert counts["development.vertices"] == len(dev.vert_type)
    verify = _traced(tmp_path, "verify", "verify", str(ball), "--suite", "cor1")
    assert verify["counts"]["development.import_calls"] == 1
    # the oracle names it wraps resolve, the catacomb entry point is hit, and
    # the gallery search's exact length comparisons go through RadicalSum
    catacomb = _traced(tmp_path, "catacomb", "verify", str(ball), "--suite", "catacomb", "--radius", "1")
    assert catacomb["counts"]["oracle.catacomb_calls"] == 1
    assert catacomb["counts"]["rings.compare_calls"] == 9
