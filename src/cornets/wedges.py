"""Wedges over Q^d and the element cornet they induce.

A wedge is a pointed polyhedral cone W, held as the rows of its
H-representation, each a tuple of coprime ``int``s; ``Wedge`` is the
package's one cone type, and it asks ``geometry.lp_feasible`` for a line in
W to reject a cone that is not pointed.  ``orthant`` and ``zero`` are built
once per dimension.  It orders the ambient rational vector space by x <= y
iff y - x lies in W.  With star equal to iterated addition this gives the
simplest cornet, in which every element is n-convex.  ``threshold`` is the one closed form behind every exact
Archimedean and boundedness decision, for points, sets and fuzzy sets alike,
and ``arch_family`` the one builder of their Archimedean families, which
needs ``ones`` strictly interior to W.  ``Wedge.values`` is the one way a
point is read against the rows, for membership, the order and ``threshold``
alike; over the orthant these are the coordinates themselves.  ``sets``
holds its generators as values, which ``Wedge.coords`` maps back.
An element is a ``Point``, held in ``geometry``'s exact number format as
one row of ``int`` numerators over its denominator, with ``coords`` giving
the ``Fraction`` view; the order and ``threshold`` are read on two points
put over one denominator.
"""

from __future__ import annotations

import functools
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Any, Callable, Iterable, Optional, Sequence

from .core import ArchFamily, CornetInstance
from .geometry import (
    DimensionMismatch, Rows, Vec, _exact, lp_feasible, over_common, over_lcm, rat, reduced,
    star_scaled, vdot, vneg, vscale,
)

class NotPointedError(ValueError):
    """The cone contains a line, so it cannot order the space."""


def _unit_rows(dim: int) -> tuple[Vec, ...]:
    return tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))


def _zero_rows(dim: int) -> tuple[Vec, ...]:
    # {x : x = 0}, written as e_i . x >= 0 and -e_i . x >= 0.
    return tuple(r for e in _unit_rows(dim) for r in (e, vneg(e)))


def _canonical(rows: Sequence[Vec]) -> tuple[Vec, ...]:
    """The rows of the same cone in one spelling: each row scaled by a
    positive factor to coprime ints, zero rows (which constrain nothing) and
    duplicates dropped, sorted in decreasing order (so the orthant keeps the
    order e_1, ..., e_d)."""
    canon = set()
    for row in rows:
        _, (ints,) = over_lcm((row,))
        g = gcd(*ints)
        if g:
            canon.add(tuple(n // g for n in ints))
    return tuple(sorted(canon, reverse=True))


def _left_inverse(rows: Sequence[Vec], dim: int) -> Optional[tuple[int, Rows]]:
    """L with L . M = I for the row matrix M, as int numerators over one den:
    row i is a free y with M^T y = e_i, one LP per coordinate.  None when some
    e_i is not solvable, when the kernel of M, W ∩ (-W), is not 0."""
    cols = [tuple(r[j] for r in rows) for j in range(dim)]
    inverse = []
    for i in range(dim):
        # c . y == (1 if j == i else 0) for each column c of M, as two inequalities.
        eqs = [(c, -int(i == j)) for j, c in enumerate(cols)]
        inverse.append(lp_feasible(eqs + [(vneg(c), -b) for c, b in eqs], len(rows)))
    return None if None in inverse else over_lcm(inverse)


def _selection_inverse(rows: Sequence[Vec], dim: int) -> Optional[tuple[int, Rows]]:
    """L with L . M = I that picks the unit rows out of M, when every one of
    them is a row; no LP runs.  None when some unit row is missing."""
    where = {r: k for k, r in enumerate(rows)}
    picks = [where.get(e) for e in _unit_rows(dim)]
    if None in picks:
        return None
    return 1, tuple(tuple(int(k == p) for k in range(len(rows))) for p in picks)


def _line_witness(rows: Sequence[Vec], dim: int) -> Optional[Vec]:
    """A nonzero x with m . x == 0 for every row, or None when the cone is
    pointed.

    W ∩ (-W) is the kernel of the rows, a subspace, so it is nonzero iff for
    some coordinate i the system "m . x == 0 for every row, x_i >= 1" is
    feasible (a kernel vector with x_i != 0, rescaled)."""
    kernel = [ineq for m in rows for ineq in ((m, Fraction(0)), (vneg(m), Fraction(0)))]
    for e in _unit_rows(dim):
        x = lp_feasible([*kernel, (e, Fraction(-1))], dim)
        if x is not None:
            return x
    return None


@dataclass(frozen=True)
class Wedge:
    """A pointed rational polyhedral cone in H-representation.

    Each row m encodes the constraint m . x >= 0; membership is an exact
    decision.  The rows are stored in canonical form (coprime ``int`` rows,
    no zero rows, no duplicates, sorted), and equality and hashing rest on
    ``(dim, rows)``, so any reordering or positive rescaling of the rows, or
    an added zero row, gives the same wedge.
    The fast-path flags ``is_orthant`` / ``is_zero`` are read off the
    canonical rows, so the orthant or zero rows written out in full give the
    same wedge as ``orthant`` / ``zero``.
    """

    dim: int
    rows: tuple[Vec, ...]
    is_orthant: bool = field(init=False, compare=False)
    is_zero: bool = field(init=False, compare=False)
    _inverse: Optional[tuple[int, Rows]] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for m in self.rows:
            if len(m) != self.dim:
                raise DimensionMismatch(f"row of dim {len(m)} in cone of dim {self.dim}")
        object.__setattr__(self, "rows", _canonical(self.rows))
        # Rows that begin with the unit rows, as the orthant's and the zero
        # wedge's do, are pointed and need no inverse; rows that hold them
        # elsewhere have one that selects them.  Neither runs an LP.
        inverse = None
        if self.rows[: self.dim] != _unit_rows(self.dim):
            inverse = _selection_inverse(self.rows, self.dim) or _left_inverse(self.rows, self.dim)
            if inverse is None:
                # The LPs only tell that a line exists; name one.
                raise NotPointedError(f"cone contains the line through {_line_witness(self.rows, self.dim)}")
        object.__setattr__(self, "_inverse", inverse)
        # Condition (iii) of the wedge axioms, n^{-1}(W) subset of W, holds
        # automatically over Q: M(n x) >= 0 iff M x >= 0.
        object.__setattr__(self, "is_orthant", self.rows == _canonical(_unit_rows(self.dim)))
        object.__setattr__(self, "is_zero", self.rows == _canonical(_zero_rows(self.dim)))

    def values(self, x: Vec) -> Vec:
        """The row dot products m . x, in row order; over the orthant, ``x``
        itself.  They are linear in x, so x <= y iff every value of x is at
        most y's, and their sum is a height that strictly increases along the
        order (h <= g with h != g puts g - h in W, nonzero, and some row of a
        pointed W is positive there).  Int and Fraction points alike."""
        if len(x) != self.dim:
            raise DimensionMismatch(f"point of dim {len(x)} vs cone dim {self.dim}")
        if self.is_orthant:
            return x
        return tuple(vdot(m, x) for m in self.rows)

    def coords(self, den: int, values: Rows) -> tuple[int, Rows]:
        """The points whose values are the rows ``values`` / den (reduced and
        in order, as sets keep them), as reduced int numerators over one den,
        in point order.  Without an inverse they are the first dim values; the
        others are int combinations of them, so they keep the gcd and order."""
        if self._inverse is None:
            return den, tuple([v[: self.dim] for v in values])
        lden, inverse = self._inverse
        return reduced(den * lden, tuple(sorted(tuple([vdot(r, v) for r in inverse]) for v in values)))

    def contains(self, x: Vec) -> bool:
        return all(v >= 0 for v in self.values(x))

    def interior_contains(self, x: Vec) -> bool:
        """True iff x satisfies every row with strict inequality."""
        return all(v > 0 for v in self.values(x))

    def leq(self, x: Vec, y: Vec) -> bool:
        """x <= y iff y - x lies in W: every value of x is at most y's."""
        return all(map(operator.le, self.values(x), self.values(y)))

    @staticmethod
    @functools.cache
    def orthant(dim: int) -> "Wedge":
        return Wedge(dim, _unit_rows(dim))

    @staticmethod
    @functools.cache
    def zero(dim: int) -> "Wedge":
        return Wedge(dim, _zero_rows(dim))

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Wedge":
        rows = tuple(tuple(rat(c) for c in r) for r in rows)
        if not rows:
            raise ValueError("a wedge needs at least one row")
        return Wedge(len(rows[0]), rows)

    def ones(self) -> Vec:
        """The all-ones direction (strictly interior for the orthant)."""
        return (Fraction(1),) * self.dim


def threshold(w: Wedge, u: Vec, x: Vec) -> Optional[int]:
    """The least n0 >= 1 with u + n.x in W for every n >= n0, or None.

    Row by row, m.u + n (m.x) >= 0 holds for all large n iff m.x > 0, or
    m.x == 0 and m.u >= 0; a row with m.u < 0 < m.x first holds at
    n = ceil(-(m.u) / (m.x)).  Every quantifier "for all large n" over the
    wedge order reduces to this closed form, read from ``w.values``, or by
    ``sets`` from the values it stores (``value_threshold``).
    """
    return value_threshold(w.values(u), w.values(x))


def value_threshold(uv: Vec, xv: Vec) -> Optional[int]:
    """``threshold`` on the values of u and x."""
    n0 = 1
    for a, b in zip(uv, xv):
        if b < 0 or (b == 0 and a < 0):
            return None
        if a < 0:
            n0 = max(n0, -(a // b))  # ceil(-a / b), exact for ints and Fractions
    return n0


def arch_family(
    w: Wedge, epsilons: Sequence, member: Callable[[Vec], Any], point: Callable[[Any], Vec]
) -> ArchFamily:
    """The Archimedean family of every built-in cornet: ``member(eps * ones)``
    for each epsilon, largest first, with the witness that halves the point.

    ``point`` inverts ``member``.  The epsilons must be positive and ``ones``
    strictly interior to W; otherwise ValueError, since a member on the
    boundary of W need not be Archimedean.
    """
    eps = tuple(sorted((rat(e) for e in epsilons), reverse=True))
    if any(e <= 0 for e in eps):
        raise ValueError("epsilons must be positive")
    ones = w.ones()
    if not w.interior_contains(ones):
        raise ValueError("direction must be strictly interior to the wedge")
    return ArchFamily(
        elements=tuple(member(vscale(e, ones)) for e in eps),
        witness=lambda a: member(vscale(Fraction(1, 2), point(a))),
    )


@dataclass(frozen=True)
class Point:
    """A point of Q^d as the coordinates nums[i] / den, reduced (see
    ``geometry``); equality and hashing rest on (den, nums)."""

    den: int
    nums: tuple[int, ...]

    @staticmethod
    def make(coords: Iterable) -> "Point":
        # ints stay ints: they are their own numerators over 1.
        den, (nums,) = reduced(*over_lcm((tuple(map(_exact, coords)),)))
        return Point(den, nums)

    @functools.cached_property
    def coords(self) -> Vec:
        return tuple(Fraction(c, self.den) for c in self.nums)


def _common(x: Point, y: Point) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """The numerators of x and y over the lcm of their denominators."""
    if len(x.nums) != len(y.nums):
        raise DimensionMismatch(f"dim {len(x.nums)} vs {len(y.nums)}")
    den, (xn,), (yn,) = over_common(x.den, (x.nums,), y.den, (y.nums,))
    return den, xn, yn


def add_points(x: Point, y: Point) -> Point:
    den, xn, yn = _common(x, y)
    den, (nums,) = reduced(den, (tuple(map(operator.add, xn, yn)),))
    return Point(den, nums)


def star_point(n: int, x: Point) -> Point:
    """n . x, reduced as x is."""
    if n < 1:
        raise ValueError("n must be >= 1")
    den, (nums,) = star_scaled(n, x.den, (x.nums,))
    return Point(den, nums)


def elem_arch_family(w: Wedge, epsilons: Sequence) -> ArchFamily:
    """The points eps * ones, halved by the witness."""
    return arch_family(w, epsilons, Point.make, lambda a: a.coords)


def _elem_sampler(w: Wedge, rng: random.Random, lo: int = -8) -> Point:
    """Each coordinate draws a numerator in lo..8, then a denominator 1, 2
    or 4; the point is held over 4, then reduced."""
    draws = [(rng.randint(lo, 8), rng.choice((1, 2, 4))) for _ in range(w.dim)]
    den, (nums,) = reduced(4, (tuple(n * (4 // d) for n, d in draws),))
    return Point(den, nums)


def _elem_nonneg_sampler(w: Wedge, rng: random.Random) -> Point:
    zero = Point(1, (0,) * w.dim)
    if w.is_zero:
        return zero
    if w.is_orthant:
        return _elem_sampler(w, rng, 0)
    # A sampled point that lies in the cone, found by rejection.
    for _ in range(200):
        v = _elem_sampler(w, rng)
        if w.contains(v.nums):
            return v
    return zero


def make_elem_cornet(w: Wedge) -> CornetInstance:
    """The cornet (Q^d, +, ., <=_W); star is iterated addition, so every
    element is n-convex and the superadditivity law holds with equality."""

    def leq(x: Point, y: Point) -> bool:
        _, xn, yn = _common(x, y)
        return w.leq(xn, yn)

    # 0 <= u + n*x and x <= n*a are both "u' + n.x' in W", so the threshold
    # decides them exactly for every element, boundary points included.
    def arch_exact(x: Point, u: Point) -> tuple[bool, Optional[int]]:
        _, un, xn = _common(u, x)
        n0 = threshold(w, un, xn)
        return n0 is not None, n0

    def bounded_exact(x: Point, a: Point) -> tuple[bool, Optional[int]]:
        _, xn, an = _common(x, a)
        n0 = threshold(w, vneg(xn), an)
        return n0 is not None, n0

    return CornetInstance(
        name=f"elemQ(d={w.dim})",
        zero=Point(1, (0,) * w.dim),
        add=add_points,
        star=star_point,
        leq=leq,
        sampler=lambda rng: _elem_sampler(w, rng),
        nonneg_sampler=lambda rng: _elem_nonneg_sampler(w, rng),
        closure=lambda x: x,
        serialize=lambda x: [str(c) for c in x.coords],
        arch_exact=arch_exact,
        bounded_exact=bounded_exact,
    )
