"""Cone-type signatures from decorated directed links.

The signature of a face records every face around its three vertices, keyed
by the triple of chart values there (with each chart re-anchored so the face
itself maps to the identity, and absent incidences marked), together with
its distance offset.  Chart re-anchoring is an exact translation, so two
faces receive equal signatures exactly when their decorated directed link
unions are isomorphic as labeled graphs, identifications between the three
links included; no isomorphism search is ever needed.
"""

from __future__ import annotations

from collections import namedtuple

from .development import Development, InsufficientRadiusError

Signature = tuple[tuple[int, int, int, int], ...]

_ABSENT = -1


def cone_signature(dev: Development, f: int) -> Signature:
    if not dev.is_interior(f):
        raise InsufficientRadiusError(f"face {f} is not interior; grow further")
    base_d = dev.dist[f]
    keys: dict[int, list[int]] = {}
    for t in range(3):
        v = dev.f_vert[3 * f + t]
        group = dev.spec.vertex_groups[t]
        chart = dev.vertex_chart(v)
        shift = group.inv(chart[f])
        for g, val in chart.items():
            key = keys.get(g)
            if key is None:
                key = [_ABSENT, _ABSENT, _ABSENT, 0]
                keys[g] = key
            key[t] = group.mult[shift][val]
            key[3] = dev.dist[g] - base_d
    return tuple(sorted(tuple(key) for key in keys.values()))


def signature(dev: Development, f: int) -> Signature:
    """f's cone_signature, computed once per ball and kept on it."""
    sig = dev._signatures.get(f)
    if sig is None:
        sig = dev._signatures[f] = cone_signature(dev, f)
    return sig


class ConeTypeEntry:
    """A signature's first face, how many faces share the signature, and per
    symbol whether the step increases distance and the successor's
    signature (None where it does not)."""

    __slots__ = ("representative", "multiplicity", "increases", "successors")

    def __init__(
        self,
        representative: int,
        multiplicity: int,
        increases: tuple[bool, ...],
        successors: tuple[Signature | None, ...],
    ):
        self.representative = representative
        self.multiplicity = multiplicity
        self.increases = increases
        self.successors = successors


class ConeTypeTable(namedtuple("ConeTypeTable", "radius entries incoherent")):
    """entries maps each signature to its ConeTypeEntry.  incoherent lists
    (signature, representative, face) where a face's successor rows disagree
    with its signature's representative; it is empty whenever all
    half-girths are at least 3, where the directed-link data provably
    determines continuations.  The table at radius r - 1 is coherent exactly
    when the all-geodesics machine built at r stops at refinement level 0,
    which `automata.build_geodesic_automaton` requires at those half-girths;
    the machine's states are then the signatures, and its transitions the
    successor rows."""

    __slots__ = ()

    @property
    def count(self) -> int:
        return len(self.entries)

    @property
    def coherent(self) -> bool:
        return not self.incoherent


def enumerate_cone_types(dev: Development, radius: int) -> ConeTypeTable:
    """Table of signatures over all faces within the given distance.

    Needs every face within radius + 1 interior, so that every table face
    and every distance-increasing successor has a signature; that holds
    when radius + 1 + delta is at most the ball's radius.
    """
    entries: dict[Signature, ConeTypeEntry] = {}
    incoherent: list[tuple[Signature, int, int]] = []
    for f in dev.ball_faces(radius):
        sig = signature(dev, f)
        increases = []
        successors = []
        for s in range(dev.symbol_count):
            g = dev.neighbor(f, s)
            if g is None or not dev.final[g]:
                raise InsufficientRadiusError(
                    f"face {f} lacks a trusted neighbor on symbol {s}"
                )
            if dev.dist[g] == dev.dist[f] + 1:
                increases.append(True)
                successors.append(signature(dev, g))
            else:
                increases.append(False)
                successors.append(None)
        row = ConeTypeEntry(f, 1, tuple(increases), tuple(successors))
        known = entries.get(sig)
        if known is None:
            entries[sig] = row
        else:
            if known.increases != row.increases or known.successors != row.successors:
                incoherent.append((sig, known.representative, f))
            known.multiplicity += 1
    return ConeTypeTable(radius, entries, incoherent)


def signature_counts(dev: Development, radius: int) -> list[int]:
    """Distinct signature counts over balls of radius 0..radius.

    Cheaper than full tables: successor rows are not computed, so only the
    counted faces themselves need to be interior.
    """
    seen: set[Signature] = set()
    counts = []
    done = 0
    for r in range(radius + 1):
        ball = dev.ball_faces(r)
        seen.update(signature(dev, f) for f in ball[done:])
        counts.append(len(seen))
        done = len(ball)
    return counts


class DeterminationReport(namedtuple(
    "DeterminationReport", "ok depth classes_checked words_checked counterexample",
    defaults=(None,),
)):
    """counterexample, on failure, is (face, face, word): the word extends
    one face geodesically and not the other."""

    __slots__ = ()


def verify_cone_determination(
    dev: Development, radius: int, depth: int = 3, classes: dict | None = None
) -> DeterminationReport:
    """Equal signatures must admit exactly the same geodesic extensions.

    For every class of signature-equal faces and every word of bounded
    length, the word extends one face geodesically exactly when it extends
    them all; a mismatch is returned as a counterexample.  Passing classes,
    a map from every face within the radius to a sortable label, checks that
    partition instead of the signature one (for instance the states of an
    all-geodesics machine, which determine cone types at every half-girth).
    """
    groups: dict = {}
    for f in dev.ball_faces(radius):
        label = signature(dev, f) if classes is None else classes[f]
        groups.setdefault(label, []).append(f)
    words_checked = 0
    classes_checked = 0
    for label in sorted(groups):
        members = groups[label]
        if len(members) < 2:
            continue
        classes_checked += 1
        budget = min(depth, min(dev.radius - dev.dist[f] for f in members))
        # joint depth-first walk over the word tree; members either all stay
        # geodesic or all fail, otherwise the first split is a counterexample
        stack = [((), members)]
        while stack:
            word, positions = stack.pop()
            if len(word) >= budget:
                continue
            for s in range(dev.symbol_count):
                new_pos = []
                verdicts = []
                for p in positions:
                    q = dev.neighbor(p, s)
                    geodesic = (
                        q is not None and dev.final[q] and dev.dist[q] == dev.dist[p] + 1
                    )
                    new_pos.append(q if q is not None else p)
                    verdicts.append(geodesic)
                words_checked += 1
                if any(verdicts) and not all(verdicts):
                    return DeterminationReport(
                        False, depth, classes_checked, words_checked,
                        (members[verdicts.index(True)],
                         members[verdicts.index(False)],
                         word + (s,)),
                    )
                if all(verdicts):
                    stack.append((word + (s,), new_pos))
    return DeterminationReport(True, depth, classes_checked, words_checked)


def cone_membership(dev: Development, f: int, word: list[int]) -> bool:
    """Whether the word labels a shortest route from the base through f.

    True exactly when the endpoint distance splits as the distance of f plus
    the word length; that forces the word to trace a geodesic from f, and in
    particular backtracking steps always fail.
    """
    target = f
    for s in word:
        nxt = dev.neighbor(target, s)
        if nxt is None or not dev.final[nxt]:
            raise InsufficientRadiusError("word leaves the trusted ball")
        target = nxt
    return dev.dist[target] == dev.dist[f] + len(word)
