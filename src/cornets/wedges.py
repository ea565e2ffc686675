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
needs ``ones`` strictly interior to W.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Any, Callable, Optional, Sequence

from .core import ArchFamily, CornetInstance
from .geometry import (
    DimensionMismatch,
    Vec,
    lp_feasible,
    rat,
    vadd,
    vdot,
    vneg,
    vscale,
    vsub,
    vzero,
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
        mult = lcm(*(c.denominator for c in row))
        ints = [c.numerator * (mult // c.denominator) for c in row]
        g = gcd(*ints)
        if g:
            canon.add(tuple(n // g for n in ints))
    return tuple(sorted(canon, reverse=True))


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

    def __post_init__(self):
        for m in self.rows:
            if len(m) != self.dim:
                raise DimensionMismatch(f"row of dim {len(m)} in cone of dim {self.dim}")
        object.__setattr__(self, "rows", _canonical(self.rows))
        witness = _line_witness(self.rows, self.dim)
        if witness is not None:
            raise NotPointedError(f"cone contains the line through {witness}")
        # Condition (iii) of the wedge axioms, n^{-1}(W) subset of W, holds
        # automatically over Q: M(n x) >= 0 iff M x >= 0.
        object.__setattr__(self, "is_orthant", self.rows == _canonical(_unit_rows(self.dim)))
        object.__setattr__(self, "is_zero", self.rows == _canonical(_zero_rows(self.dim)))

    def contains(self, x: Vec) -> bool:
        if len(x) != self.dim:
            raise DimensionMismatch(f"point of dim {len(x)} vs cone dim {self.dim}")
        return all(vdot(m, x) >= 0 for m in self.rows)

    def interior_contains(self, x: Vec) -> bool:
        """True iff x satisfies every row with strict inequality."""
        if len(x) != self.dim:
            raise DimensionMismatch(f"point of dim {len(x)} vs cone dim {self.dim}")
        return all(vdot(m, x) > 0 for m in self.rows)

    def leq(self, x: Vec, y: Vec) -> bool:
        """x <= y in the wedge order iff every row's dot product with y - x
        is nonnegative; over the orthant, coordinatewise.  Int and Fraction
        points alike."""
        if self.is_orthant and len(x) == len(y) == self.dim:
            return all(xc <= yc for xc, yc in zip(x, y))
        return self.contains(vsub(y, x))

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
    wedge order reduces to this closed form.
    """
    n0 = 1
    for m in w.rows:
        a, b = vdot(m, u), vdot(m, x)
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


def elem_arch_family(w: Wedge, epsilons: Sequence) -> ArchFamily:
    """The points eps * ones, halved by the witness."""
    return arch_family(w, epsilons, lambda p: p, lambda a: a)


def _elem_sampler(w: Wedge, rng: random.Random) -> Vec:
    return tuple(
        Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4))) for _ in range(w.dim)
    )


def _elem_nonneg_sampler(w: Wedge, rng: random.Random) -> Vec:
    if w.is_zero:
        return vzero(w.dim)
    if w.is_orthant:
        return tuple(
            Fraction(rng.randint(0, 8), rng.choice((1, 2, 4))) for _ in range(w.dim)
        )
    # Nonnegative combination of sampled cone members found by rejection.
    for _ in range(200):
        v = _elem_sampler(w, rng)
        if w.contains(v):
            return v
    return vzero(w.dim)


def make_elem_cornet(w: Wedge) -> CornetInstance:
    """The cornet (Q^d, +, ., <=_W); star is iterated addition, so every
    element is n-convex and the superadditivity law holds with equality."""

    def star(n: int, x: Vec) -> Vec:
        if n < 1:
            raise ValueError("n must be >= 1")
        return vscale(n, x)

    # 0 <= u + n*x and x <= n*a are both "u' + n.x' in W", so the threshold
    # decides them exactly for every element, boundary points included.
    def arch_exact(x: Vec, u: Vec) -> tuple[bool, Optional[int]]:
        n0 = threshold(w, u, x)
        return n0 is not None, n0

    def bounded_exact(x: Vec, a: Vec) -> tuple[bool, Optional[int]]:
        n0 = threshold(w, vneg(x), a)
        return n0 is not None, n0

    def finite_inf(xs: Sequence[Vec]) -> Vec:
        if not w.is_orthant:
            raise ValueError("finite infima only in orthant mode")
        return tuple(min(x[i] for x in xs) for i in range(w.dim))

    return CornetInstance(
        name=f"elemQ(d={w.dim})",
        zero=vzero(w.dim),
        add=vadd,
        star=star,
        leq=w.leq,
        sampler=lambda rng: _elem_sampler(w, rng),
        nonneg_sampler=lambda rng: _elem_nonneg_sampler(w, rng),
        finite_inf=finite_inf if w.is_orthant else None,
        closure=lambda x: x,
        serialize=lambda x: [str(c) for c in x],
        arch_exact=arch_exact,
        bounded_exact=bounded_exact,
    )
