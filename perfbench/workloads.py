"""Workload definitions: which sample is built, to what radius, and which
CLI calls follow the build.

Every workload starts with `trifold build <spec> --radius R --out <ball>`.
Each later step is a CLI subcommand run on that ball; `automaton` steps
write their machine to a file so that standard output carries only the
summary lines the benchmark checks.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    sample: str
    radius: int
    steps: tuple[tuple[str, ...], ...]  # (subcommand, *arguments after the ball)
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "d333-certify",
            "d333",
            11,
            (
                ("automaton", "--kind", "geodesic"),
                ("automaton", "--kind", "lexfirst"),
                ("verify", "--suite", "all", "--radius", "2"),
            ),
            "tiny Euclidean ball where the Q(sqrt3) gallery search of catacomb takes most "
            "of the time and both automata certify",
        ),
        Workload(
            "f21-ball",
            "f21_333",
            4,
            (
                ("automaton", "--kind", "lexfirst", "--radius", "4", "--no-certify"),
                ("verify", "--suite", "cor1"),
                ("verify", "--suite", "cor2"),
                ("verify", "--suite", "enters"),
                ("verify", "--suite", "conetypes"),
                ("verify", "--suite", "fellow"),
                ("verify", "--suite", "gaussbonnet"),
            ),
            "3-fold ball: growth, finalize, JSON written once and read seven times, and "
            "the whole-ball patch scan; no catacomb",
        ),
        Workload(
            "d444-hyperbolic",
            "d444",
            8,
            (
                ("automaton", "--kind", "lexfirst", "--radius", "6", "--no-certify"),
                ("verify", "--suite", "all", "--radius", "1"),
            ),
            "hyperbolic ball that is mostly untrusted, so catacomb time goes to "
            "whole-ball BFS per source rather than to gallery arithmetic",
        ),
    )
}
