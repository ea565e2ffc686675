"""Independent answer checks for the benchmark, written without the cornets
package so that a bug shared with the program cannot hide itself.

- Hunt: finite integer sets as bit masks (bit k set means k is a member),
  A + B = {a + b} and A <= B meaning A is a subset of B, exactly the order of
  the ``setZ`` cornet over the zero wedge.
- Cancellation: whether a generated triple must be answered
  ``HypothesisNotMet`` because the finite Archimedean family cannot certify
  that Y is closed.  Everything is exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

# --- Hunt ----------------------------------------------------------------------

Triple = tuple[int, int, int]


def mask_of(values: Iterable[int]) -> int:
    mask = 0
    for v in values:
        if v < 0:
            raise ValueError("the oracle handles nonnegative integers only")
        mask |= 1 << v
    return mask


def members(mask: int) -> list[int]:
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


def sumset(a: int, b: int) -> int:
    out = 0
    for k in members(a):
        out |= b << k
    return out


def is_interval(mask: int) -> bool:
    """No gaps between the least and the greatest member."""
    low = mask & -mask
    return mask != 0 and ((mask // low) & ((mask // low) + 1)) == 0


def universe(kind: str, lo: int, hi: int) -> list[int]:
    """The finite universes of ``cornets hunt``: every nonempty subset of
    {lo..hi} (``z1``) or every interval within it (``z1-intervals``)."""
    width = hi - lo + 1
    if kind == "z1":
        return [m << lo for m in range(1, 1 << width)]
    if kind == "z1-intervals":
        return [((1 << (b - a + 1)) - 1) << a for a in range(lo, hi + 1) for b in range(a, hi + 1)]
    raise ValueError(f"unknown universe {kind!r}")


def admits(y: int, ablate: str) -> bool:
    """Which y the hunt may use.  Every finite set is closed and bounded, so
    ablating closedness or boundedness leaves no candidate y."""
    if ablate == "convexity":
        return not is_interval(y)
    if ablate in ("closedness", "boundedness"):
        return False
    if ablate == "none":
        return is_interval(y)
    raise ValueError(f"unknown ablation {ablate!r}")


def breaks_cancellation(x: int, y: int, z: int) -> bool:
    """x + z <= y + z while x <= y fails."""
    return (x & ~y) != 0 and (sumset(x, z) & ~sumset(y, z)) == 0


def find_triple(kind: str, lo: int, hi: int, ablate: str) -> Optional[Triple]:
    """Some (x, y, z) of the universe with y admitted that breaks
    cancellation, or None when the universe holds none."""
    sets = universe(kind, lo, hi)
    for y in sets:
        if not admits(y, ablate):
            continue
        for x in sets:
            if x & ~y == 0:
                continue
            for z in sets:
                if breaks_cancellation(x, y, z):
                    return (x, y, z)
    return None


def valid_triple(kind: str, lo: int, hi: int, ablate: str, triple: Triple) -> bool:
    """A reported counterexample lies in the universe, uses an admitted y
    and really breaks cancellation."""
    x, y, z = triple
    space = set(universe(kind, lo, hi))
    return all(s in space for s in triple) and admits(y, ablate) and breaks_cancellation(x, y, z)


# --- Cancellation ------------------------------------------------------------------

Point = tuple[Fraction, Fraction]


def in_orthant_hull(p: Point, gens: Sequence[Point]) -> bool:
    """p lies in conv(gens) + R^2_{>=0}.

    That set is cut out by u . x >= min_g u . g over its facet normals u,
    which are nonnegative: the two axes and normals of lines through two
    generators.  Any other nonnegative u gives a valid inequality too, so
    testing every candidate decides membership exactly.
    """
    normals = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    for g, h in combinations(gens, 2):
        dx, dy = h[0] - g[0], h[1] - g[1]
        for u in ((dy, -dx), (-dy, dx)):
            if u[0] >= 0 and u[1] >= 0 and u != (0, 0):
                normals.append(u)
    return all(
        u[0] * p[0] + u[1] * p[1] >= min(u[0] * g[0] + u[1] * g[1] for g in gens)
        for u in normals
    )


def set_closure_refuted(y_gens: Sequence[Point], z_gens: Sequence[Point], eps_min: Fraction) -> bool:
    """For the setQ d=2 triples (Y polytopic, Z discrete, orthant wedge):
    Z lies below Y + a_eps for every family member, the smallest eps being
    binding, yet not below Y.  The closure check then rejects Y."""
    shift = (eps_min, eps_min)
    below_all = all(in_orthant_hull((g[0] + shift[0], g[1] + shift[1]), y_gens) for g in z_gens)
    below_y = all(in_orthant_hull(g, y_gens) for g in z_gens)
    return below_all and not below_y


Levels = Sequence[tuple[Fraction, Fraction]]  # (alpha, threshold), alpha descending


def fuzzy_leq(f: Levels, g: Levels) -> bool:
    """Pointwise order of step functions on Q whose cuts are the half-lines
    [threshold, oo): for each level of f, g must reach that level on f's cut."""
    for alpha, c in f:
        reach = [t for a, t in g if a >= alpha]
        if not reach or min(reach) > c:
            return False
    return True


def fuzzy_closure_refuted(y: Levels, z: Levels, eps_min: Fraction) -> bool:
    """For the fuzzyQ d=1 triples: Y + chi(a_eps) is Y moved left by eps, so
    the closure check rejects Y exactly when Z sits below Y moved by the
    smallest eps but not below Y itself."""
    moved = [(a, t - eps_min) for a, t in y]
    return fuzzy_leq(z, moved) and not fuzzy_leq(z, y)
