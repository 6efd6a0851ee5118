"""Shipped sample specs: the Euclidean reflection cases, one hyperbolic case,
and a 3-fold case with all half-girths equal to 3."""

from __future__ import annotations

import json
from pathlib import Path

from .groups import FiniteGroup, TriangleGroupSpec


def dihedral(n: int, name: str | None = None) -> FiniteGroup:
    """Dihedral group of order 2n: indices 0..n-1 rotations, n..2n-1 reflections."""
    order = 2 * n
    mult = [[0] * order for _ in range(order)]
    for i in range(n):
        for j in range(n):
            mult[i][j] = (i + j) % n
            mult[i][n + j] = n + (j - i) % n
            mult[n + i][j] = n + (i + j) % n
            mult[n + i][n + j] = (j - i) % n
    return FiniteGroup(name or f"D{n}", mult)


def dihedral_reflections(n: int) -> tuple[int, int]:
    """Two reflections whose product is the elementary rotation."""
    return (n, n + 1)


def frobenius21(name: str = "F21") -> FiniteGroup:
    """Order-21 Frobenius group Z/7 : Z/3, elements (i, j) encoded as 3*i + j."""
    mult = [[0] * 21 for _ in range(21)]
    pow2 = [1, 2, 4]  # 2^j mod 7
    for i1 in range(7):
        for j1 in range(3):
            for i2 in range(7):
                for j2 in range(3):
                    i = (i1 + pow2[j1] * i2) % 7
                    j = (j1 + j2) % 3
                    mult[3 * i1 + j1][3 * i2 + j2] = 3 * i + j
    return FiniteGroup(name, mult)


def frobenius21_generators() -> tuple[int, int]:
    """Two order-3 elements generating F21: (0,1) and (1,1)."""
    return (1, 4)


def _dihedral_spec(name: str, orders: tuple[int, int, int]) -> TriangleGroupSpec:
    groups = tuple(dihedral(n) for n in orders)
    designated = tuple(dihedral_reflections(n) for n in orders)
    spec = TriangleGroupSpec(2, groups, designated, name=name)
    spec.validate()
    return spec


def spec_d333() -> TriangleGroupSpec:
    return _dihedral_spec("d333", (3, 3, 3))


def spec_d244() -> TriangleGroupSpec:
    return _dihedral_spec("d244", (2, 4, 4))


def spec_d236() -> TriangleGroupSpec:
    return _dihedral_spec("d236", (2, 3, 6))


def spec_d444() -> TriangleGroupSpec:
    return _dihedral_spec("d444", (4, 4, 4))


def spec_f21_333() -> TriangleGroupSpec:
    group = frobenius21()
    gens = frobenius21_generators()
    spec = TriangleGroupSpec(3, (group, group, group), (gens, gens, gens), name="f21_333")
    spec.validate()
    return spec


# the Euclidean 2-fold samples, which oracle.py also models as exact
# reflection groups
REFLECTION_SAMPLES = ("d236", "d244", "d333")

SAMPLE_BUILDERS = {
    "d333": spec_d333,
    "d244": spec_d244,
    "d236": spec_d236,
    "d444": spec_d444,
    "f21_333": spec_f21_333,
}


def sample_names() -> list[str]:
    return sorted(SAMPLE_BUILDERS)


def load_sample(name: str) -> TriangleGroupSpec:
    try:
        builder = SAMPLE_BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown sample {name!r}; available: {', '.join(sample_names())}")
    return builder()


def write_sample(name: str, path: str | Path) -> Path:
    path = Path(path)
    doc = load_sample(name).to_document()
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path

