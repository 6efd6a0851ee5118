"""Mathematical facts read off the standard output of trifold CLI calls.

Facts are what must not change when the program gets faster: sphere sizes,
machine state counts and accepted-word series, catacomb pair counts and
result, fellow-traveller delta, sync and pairs, signature counts and
Gauss-Bonnet fixture counts.  Verdict words are read too, but are reported
rather than compared, except for catacomb whose result is a fact.
"""

from __future__ import annotations

import re

SUITE_LINE = re.compile(r"^(\w+): (\w+) \((.*)\)$", re.M)


def _ints(text: str) -> list[int]:
    return [int(x) for x in re.findall(r"-?\d+", text)]


def _search(pattern: str, text: str) -> re.Match:
    match = re.search(pattern, text)
    if match is None:
        raise ValueError(f"output lacks {pattern!r}")
    return match


def _suite_facts(suite: str, status: str, message: str) -> dict:
    if suite == "conetypes":
        if status == "skip":
            return {"signature_counts": None}
        return {"signature_counts": _ints(_search(r"signature counts \[([-\d, ]*)\]", message)[1])}
    if suite == "catacomb":
        if status == "skip":
            return {"result": "skip"}
        return {"pairs": int(_search(r"on (\d+) pairs", message)[1]), "result": status}
    if suite == "fellow":
        return {
            "delta": int(_search(r"delta (\d+)", message)[1]),
            "sync": int(_search(r"observed sync (\d+)", message)[1]),
            "pairs": int(_search(r"pairs (\d+)", message)[1]),
        }
    if suite == "gaussbonnet":
        return {"fixtures": int(_search(r"(\d+) fixtures", message)[1])}
    return {}


def parse(subcommand: str, stdout: str) -> tuple[dict, dict]:
    """Facts and verdict words of one call; ValueError when output is missing."""
    if subcommand == "build":
        sizes = _search(r"sphere sizes \[([\d, ]*)\]", stdout)[1]
        return {"sphere_sizes": _ints(sizes)}, {}
    if subcommand == "automaton":
        return {
            "live_states": int(_search(r"\((\d+) live states\)", stdout)[1]),
            "accepted": _ints(_search(r"accepted words per length: \[([\d, ]*)\]", stdout)[1]),
        }, {}
    facts, verdicts = {}, {}
    for suite, status, message in SUITE_LINE.findall(stdout):
        verdicts[suite] = status
        facts[suite] = _suite_facts(suite, status, message)
    if not facts:
        raise ValueError("verify printed no suite lines")
    return facts, verdicts
