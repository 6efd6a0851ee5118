"""Write a sample's spec with each vertex-group table relabeled by a seed.

    python3 spec.py SAMPLE SEED OUT_FILE

Each table gets a random permutation that fixes the identity
(`FiniteGroup.relabel`), and the designated generators are mapped to match.
Seed 0 writes the shipped tables.  This runs in its own process, so that the
benchmark process stays small: a child forked from it starts with its
resident pages, and Linux counts them in the child's peak RSS.
"""

import json
import random
import sys
from pathlib import Path

from trifold.groups import TriangleGroupSpec
from trifold.samples import load_sample


def write_spec(sample: str, seed: int, path: Path) -> None:
    spec = load_sample(sample)
    if seed:
        rng = random.Random(f"{sample}/{seed}")
        groups, designated = [], []
        for group, (x, y) in zip(spec.vertex_groups, spec.designated):
            perm = [0] + rng.sample(range(1, group.order), group.order - 1)
            groups.append(group.relabel(perm))
            designated.append((perm[x], perm[y]))
        spec = TriangleGroupSpec(spec.k, tuple(groups), tuple(designated), name=spec.name)
        spec.validate()
    path.write_text(json.dumps(spec.to_document(), indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_spec(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
