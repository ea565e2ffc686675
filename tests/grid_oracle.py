"""The brute-force rational grid that several test modules check exact
decisions against, and the vector sum and difference that their reference
computations read on Fraction tuples."""

from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence

from cornets.geometry import DimensionMismatch, vneg


def rational_grid(nvars: int, num_range: int, dens: Sequence[int]) -> Iterable[tuple]:
    """All points with numerators in [-num_range, num_range] and the given
    denominators; the brute-force oracle grid for small feasibility checks."""
    axis = sorted(
        {Fraction(n, d) for d in dens for n in range(-num_range, num_range + 1)}
    )
    return product(axis, repeat=nvars)


def vadd(u: tuple, v: tuple) -> tuple:
    """u + v; DimensionMismatch when the dimensions differ."""
    if len(u) != len(v):
        raise DimensionMismatch(f"dim {len(u)} vs {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: tuple, v: tuple) -> tuple:
    """u - v; vadd raises DimensionMismatch when the dimensions differ."""
    return vadd(u, vneg(v))
