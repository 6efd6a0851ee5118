"""The behaviours callers rely on in trifold's records: ordering, hashing and
parsing of generator symbols, the spec constructor the benchmark calls, the
curvature verdict's text, report truthiness and unshared defaults."""

import random

import pytest

from trifold.automata import FellowTravellerReport
from trifold.cli import Verdict
from trifold.development import GeneratorSymbol, symbols_for
from trifold.groups import GroupError, TriangleGroupSpec, npc_check
from trifold.oracle import CrossingReport
from trifold.samples import dihedral, dihedral_reflections, load_sample


def test_generator_symbols_sort_letter_first_hash_and_parse():
    symbols = symbols_for(3)
    shuffled = symbols[:]
    random.Random(7).shuffle(shuffled)
    assert sorted(shuffled) == symbols
    assert [s.name() for s in symbols] == ["a1", "a2", "b1", "b2", "c1", "c2"]
    assert GeneratorSymbol(0, 2) < GeneratorSymbol(1, 1) < GeneratorSymbol(1, 2)
    assert GeneratorSymbol(2, 1) == GeneratorSymbol(2, 1)
    assert hash(GeneratorSymbol(2, 1)) == hash(GeneratorSymbol(2, 1))
    assert len({GeneratorSymbol(0, 1), GeneratorSymbol(0, 1), GeneratorSymbol(0, 2)}) == 2
    assert GeneratorSymbol.parse("b2", 3) == GeneratorSymbol(1, 2)
    assert GeneratorSymbol.parse("c4", 5).name() == "c4"
    for bad in ("b3", "d1", "a", "a0", "ax"):
        with pytest.raises(ValueError):
            GeneratorSymbol.parse(bad, 3)


def test_spec_constructor_as_the_benchmark_calls_it():
    # perfbench/spec.py: relabeled tables, positional k, groups and
    # designated pairs, the name by keyword, then validate()
    spec = load_sample("f21_333")
    rng = random.Random("f21_333/3")
    groups, designated = [], []
    for group, (x, y) in zip(spec.vertex_groups, spec.designated):
        perm = [0] + rng.sample(range(1, group.order), group.order - 1)
        groups.append(group.relabel(perm))
        designated.append((perm[x], perm[y]))
    relabeled = TriangleGroupSpec(spec.k, tuple(groups), tuple(designated), name=spec.name)
    relabeled.validate()
    assert relabeled.name == "f21_333" and relabeled.k == 3
    assert relabeled.nontrivial_edge_intersections == []
    assert relabeled.delta == spec.delta
    assert str(npc_check(relabeled)) == str(npc_check(spec))
    with pytest.raises(GroupError, match="k must be at least 2"):
        TriangleGroupSpec(1, tuple(groups), tuple(designated)).validate()


def test_local_links_stays_a_class_attribute():
    assert callable(vars(TriangleGroupSpec)["local_links"])


def test_npc_verdict_text():
    assert str(npc_check(load_sample("d333"))) == "Euclidean, r=(3,3,3)"
    assert str(npc_check(load_sample("d444"))) == "Hyperbolic, r=(4,4,4)"
    orders = (2, 3, 4)
    bad = TriangleGroupSpec(
        2, tuple(dihedral(n) for n in orders), tuple(dihedral_reflections(n) for n in orders)
    )
    verdict = npc_check(bad)
    assert str(verdict) == "Fails(excess=1/12), r=(2,3,4)"
    assert not verdict.nonpositively_curved


def test_report_truthiness():
    clean = FellowTravellerReport(2, 2, 1, 10, 0, ((0,), "a1", 1), [])
    broken = clean._replace(violations=[(3, "b1", 2, None)])
    assert clean and clean.ok
    assert not broken and not broken.ok
    assert CrossingReport(True, 5, [], [], 2)
    assert not CrossingReport(False, 5, [(0, 4, 3, 2)], [], 2)


def test_verdicts_do_not_share_a_manifest():
    first, second = Verdict("pass", "one"), Verdict("pass", "two")
    first.manifest["cone_type_count"] = 3
    assert second.manifest == {}
    assert Verdict("fail", "three", {"x": 1}).manifest == {"x": 1}
