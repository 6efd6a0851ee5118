"""Shipped sample specs: the Euclidean reflection cases, one hyperbolic case,
and a 3-fold case with all half-girths equal to 3.  Each sample is one row
of `SAMPLE_BUILDERS` over the two group families."""

from __future__ import annotations

import json

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


def frobenius(p: int, m: int, r: int) -> FiniteGroup:
    """The Frobenius group Z/p : Z/m of the maps x -> i + r^j x of Z/p, for r
    of order m mod p, with x -> i + r^j x stored as m*i + j.  The pair
    (1, m + 1), x -> rx and x -> 1 + rx, is two order-m elements generating
    it."""
    powers = [pow(r, j, p) for j in range(m)]
    mult = [
        [m * ((i1 + powers[j1] * i2) % p) + (j1 + j2) % m for i2 in range(p) for j2 in range(m)]
        for i1 in range(p)
        for j1 in range(m)
    ]
    return FiniteGroup(f"F{p * m}", mult)


def _dihedral_spec(name: str, *orders: int) -> TriangleGroupSpec:
    groups = tuple(dihedral(n) for n in orders)
    designated = tuple(dihedral_reflections(n) for n in orders)
    return TriangleGroupSpec(2, groups, designated, name=name)


def _frobenius_spec(name: str, p: int, m: int, r: int) -> TriangleGroupSpec:
    """frobenius(p, m, r) at every vertex type, on its pair (1, m + 1)."""
    return TriangleGroupSpec(m, (frobenius(p, m, r),) * 3, ((1, m + 1),) * 3, name=name)


# the Euclidean 2-fold samples, which oracle.py also models as exact
# reflection groups
REFLECTION_SAMPLES = ("d236", "d244", "d333")

# per sample, its builder and the arguments after its name: the dihedral
# orders of the three vertex groups, or p, m and r of `frobenius`
SAMPLE_BUILDERS = {
    "d333": (_dihedral_spec, 3, 3, 3),
    "d244": (_dihedral_spec, 2, 4, 4),
    "d236": (_dihedral_spec, 2, 3, 6),
    "d444": (_dihedral_spec, 4, 4, 4),
    "f21_333": (_frobenius_spec, 7, 3, 2),
}


def sample_names() -> list[str]:
    return sorted(SAMPLE_BUILDERS)


def load_sample(name: str) -> TriangleGroupSpec:
    try:
        builder, *args = SAMPLE_BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown sample {name!r}; available: {', '.join(sample_names())}")
    return builder(name, *args)


def write_sample(name: str, path: str) -> None:
    doc = load_sample(name).to_document()
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")
