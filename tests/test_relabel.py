"""A relabelled spec describes the same group, so it must give the same facts.

Each vertex-group table is conjugated by a drawn permutation that fixes the
identity, and the designated generators are mapped to match, as the
benchmark's seeded specs are (perfbench/spec.py).  The ball is then the same
ball face for face: distances and the edge, slot and vertex columns are
equal, and the element column is the old one mapped through each type's
permutation.  Cone signatures, both machines and the catacomb oracle read no
element labels, so they give equal answers.
"""

import pytest
from hypothesis import given, settings, strategies as st

from trifold.automata import build_geodesic_automaton, build_lexfirst_automaton
from trifold.cones import signature_counts
from trifold.development import VerificationError
from trifold.groups import TriangleGroupSpec
from trifold.grower import grow_to_radius
from trifold.oracle import catacomb_check
from trifold.samples import load_sample

# ball radius and catacomb pair radius per sample; both machines certify on
# the d333 ball, and neither does on the other two, whose machines fail
# alike or, uncertified, build at some radii
BALLS = {"d333": (11, 2), "f21_333": (4, 1), "d444": (5, 2)}


def _machine(build, *args):
    """The machine's canonical form and "", or None and its error."""
    try:
        return build(*args).canonical_form(), ""
    except VerificationError as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _facts(dev, pair_radius):
    """What a ball's readers take from it, none of which names an element:
    signature counts, catacomb's pairs, verdict and reach, and both machines,
    certified and not, at every radius."""
    report = catacomb_check(dev, pair_radius)
    machines = {}
    for radius in range(2, dev.radius + 1):
        machines["geodesic", radius] = _machine(build_geodesic_automaton, dev, radius)
        machines["lexfirst", radius] = _machine(build_lexfirst_automaton, dev, radius)
        machines["lexfirst uncertified", radius] = _machine(build_lexfirst_automaton, dev, radius, False)
    return (
        signature_counts(dev, dev.radius - dev.spec.delta),
        (report.pairs_checked, report.ok, report.farthest),
        machines,
    )


@pytest.fixture(scope="module")
def shipped():
    """Per sample: the spec, the ball grown from it, and its facts."""
    out = {}
    for name, (radius, pair_radius) in BALLS.items():
        spec = load_sample(name)
        dev = grow_to_radius(spec, radius)
        out[name] = spec, dev, _facts(dev, pair_radius)
    return out


@pytest.mark.parametrize("name", list(BALLS))
@settings(max_examples=4)  # the first draw is the shipped tables
@given(data=st.data())
def test_relabelled_spec_gives_the_same_ball_and_facts(shipped, name, data):
    spec, dev, facts = shipped[name]
    built = {kind for (kind, _radius), (form, _error) in facts[2].items() if form is not None}
    assert built == ({"geodesic", "lexfirst", "lexfirst uncertified"} if name == "d333"
                     else {"lexfirst uncertified"})
    perms, groups, designated = [], [], []
    for group, (x, y) in zip(spec.vertex_groups, spec.designated):
        perm = [0] + data.draw(st.permutations(range(1, group.order)), label="perm")
        perms.append(perm)
        groups.append(group.relabel(perm))
        designated.append((perm[x], perm[y]))
    relabelled = TriangleGroupSpec(spec.k, tuple(groups), tuple(designated), name=spec.name)
    relabelled.validate()
    other = grow_to_radius(relabelled, dev.radius)
    assert other.dist == dev.dist
    assert other.f_edge == dev.f_edge
    assert other.f_slot == dev.f_slot
    assert other.f_vert == dev.f_vert
    assert other.f_elem == [perms[i % 3][g] for i, g in enumerate(dev.f_elem)]
    assert _facts(other, BALLS[name][1]) == facts
