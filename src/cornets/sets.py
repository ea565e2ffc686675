"""Finitely generated W-invariant upper sets and their cornet.

An UpperSet denotes either F + W (DISCRETE) or conv(F) + W (POLYTOPIC) for a
finite generator list F.  Generators are kept in canonical form, so that
syntactic equality of values is semantic equality of denotations: one
dominance step drops every g in h + W for another generator h, which leaves
the antichain of minimal generators, and polytopic sets then prune the
survivors to the vertices of conv(F) + W.  One canonical generator makes a
translated wedge, stored as DISCRETE; no other denotation has two forms, as
a discrete set of several generators is never convex.  So convexity, and with
it n-convexity for every n >= 2, is read off the form, not off n.A.
Inside, a set holds the values v = M.g of its generators g under the row
matrix M of W (``Wedge.values``), as int numerators ``nums`` over one ``den``
in ``geometry``'s exact number format.  M is injective on a pointed W; g <= h
iff M.g <= M.h entry by entry, p lies in conv(F) + W iff M.p lies in conv(M.F)
plus the orthant, and sums and stars commute with M.  So here every wedge is
the orthant of its values: a point is mapped in where it enters (``make``,
``member``, the z1 universes) and out, in point order, where it leaves
(``generators``, ``serialize_set``: ``Wedge.coords``).  Only the zero wedge,
whose order is equality, is handled apart (no dominance step, and discrete
membership is a lookup).  Over two rows (a 2-d wedge, or the zero wedge of Q)
dominance is a staircase sweep and polytopic sets are monotone chains;
elsewhere the exact simplex (``geometry.lp_feasible``) decides hull pruning
and polytopic membership only where vertex and generator certificates do not.
The thresholds are ``wedges.value_threshold`` on stored generators, and the
Archimedean family {-eps . ones} + W comes from ``wedges.arch_family``.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import add, ge, le
from typing import Iterable, Optional, Sequence

from .core import ArchFamily, CornetInstance, UnsupportedOperation
from .geometry import (
    Rows, Vec, _exact, join_orthant, lp_feasible, over_common, over_lcm, reduced, star_scaled,
    vneg, vzero,
)
from .wedges import Wedge, arch_family, value_threshold

_MAX_GENS = 5  # the most generators a sampled set has


class Repr(Enum):
    DISCRETE = "discrete"
    POLYTOPIC = "polytopic"


class WedgeMismatch(ValueError):
    pass


@dataclass(frozen=True)
class UpperSet:
    """The generators whose wedge values are nums[i] / den, in canonical
    form; equality and hashing rest on (wedge, repr, den, nums)."""

    wedge: Wedge
    repr: Repr
    den: int
    nums: Rows

    @staticmethod
    def make(wedge: Wedge, repr: Repr, generators: Iterable[Iterable]) -> "UpperSet":
        # ints stay ints: they are their own numerators over 1.
        gens = tuple(tuple(map(_exact, g)) for g in generators)
        if not gens:
            raise ValueError("generator list must be nonempty")
        den, nums = over_lcm(gens)
        return _build(wedge, repr, den, map(wedge.values, nums))

    @functools.cached_property
    def generators(self) -> tuple[Vec, ...]:
        den, nums = self.wedge.coords(self.den, self.nums)
        return tuple(tuple(Fraction(c, den) for c in g) for g in nums)

    @functools.cached_property
    def low(self) -> tuple[int, ...]:
        """The least stored value in each row m, over ``den``: the least m . p
        over the whole set (W and hulls add no lower value), so no stored
        form changes it.  It is additive under ``msum`` (a promoted hull
        keeps the sum's minima) and n-homogeneous under ``star_set``, and
        inclusion A in B implies low(A) >= low(B) row by row."""
        return tuple(map(min, zip(*self.nums)))

    def member(self, p: Vec) -> bool:
        """p in the set, asked of the numerators of p's values put over one
        denominator with the generators."""
        pden, (pn,) = over_lcm((tuple(map(_exact, p)),))
        _, nums, (q,) = over_common(self.den, self.nums, pden, (self.wedge.values(pn),))
        return _has(self.wedge, self.repr, nums, q)


def discrete(wedge: Wedge, generators: Iterable[Iterable]) -> UpperSet:
    return UpperSet.make(wedge, Repr.DISCRETE, generators)


def polytopic(wedge: Wedge, generators: Iterable[Iterable]) -> UpperSet:
    return UpperSet.make(wedge, Repr.POLYTOPIC, generators)


def _build(w: Wedge, rp: Repr, den: int, nums: Iterable[tuple[int, ...]]) -> UpperSet:
    """The trusted constructor: canonicalise the generator values nums / den, then
    divide den and the survivors by their gcd.  Pruning comes first, because
    a pruned generator may be the one that kept the gcd at 1.  One survivor
    makes a translated wedge, stored as DISCRETE."""
    den, nums = reduced(den, _canonicalize(w, rp, tuple(nums)))
    if len(nums) == 1:
        rp = Repr.DISCRETE
    return UpperSet(w, rp, den, nums)


def _common(A: UpperSet, B: UpperSet) -> tuple[int, Rows, Rows]:
    """The generator values of A and B as numerators over one denominator."""
    return over_common(A.den, A.nums, B.den, B.nums)


def _canonicalize(w: Wedge, rp: Repr, gens: tuple[Vec, ...]) -> tuple[Vec, ...]:
    """Dominance, then hull pruning, on generator values, which come out in
    order: a g in h + W (every value of h at most g's) is redundant, and the
    polytopic survivors then lose those inside the hull of the others.  Each
    step is invariant under a positive scaling, so ints and Fractions alike.

    Over the zero wedge every distinct generator is minimal, and over one
    row the least value is.  Two rows are swept as a staircase.  Over more,
    the generators are visited by increasing height, so every generator
    below g comes before it, and g is tested only against those kept so far:
    one dropped below g lies above a kept one.

    Hull pruning over two rows is a monotone chain (``_pareto_lower_hull``).
    Elsewhere the LP is asked only of survivors that no row certifies.  For
    a row m, the first survivor in the order (m's value, height, values) is
    a vertex of P = conv(F) + W: m is nonnegative on W, so its minimum over
    P exposes the face conv(F_m) + (W with m = 0), F_m the survivors where
    it is least; the height is positive on W minus 0, so its minimum there
    is the polytope conv(F_mh) of the least-height ones among them; and the
    lexicographic minimum of a polytope's injective image is a vertex.  A
    vertex of P lies in no conv(F minus g) + W, so the scan keeps what the
    LP would keep."""
    if w.is_zero:
        gens = tuple(sorted(set(gens)))
    elif len(w.rows) == 1:
        gens = (min(gens),)
    elif len(w.rows) == 2:
        # Visited by increasing values, g is minimal iff its second value is
        # below that of every generator kept so far, each with a first value
        # at most g's: the 2-d maxima algorithm of Kung, Luccio and Preparata
        # (J. ACM 22(4), 1975).
        kept, low = [], None
        for g in sorted(set(gens)):
            if low is None or g[1] < low:
                kept.append(g)
                low = g[1]
        gens = tuple(kept)
    else:
        kept: list[Vec] = []
        for g in sorted(set(gens), key=sum):
            if not any(all(map(le, h, g)) for h in kept):
                kept.append(g)
        gens = tuple(sorted(kept))
    # Hull pruning of the polytopic survivors; any two of them are vertices.
    if rp is Repr.DISCRETE or len(gens) < 3:
        return gens
    if len(w.rows) == 2:
        return _pareto_lower_hull(gens)
    # One pass suffices: dropping a redundant point leaves conv(F) + W as it
    # was, and a point irredundant against a set stays so against any subset.
    # Each row certifies its first survivor in (value, height, g) as a vertex.
    heights = [sum(g) for g in gens]
    vertices = {min(zip(col, heights, gens))[2] for col in zip(*gens)}
    kept = list(gens)
    for g in gens:
        if g not in vertices and _poly_member_lp([h for h in kept if h != g], g):
            kept.remove(g)
    return tuple(kept)


def _pareto_lower_hull(antichain: Sequence[Vec]) -> tuple[Vec, ...]:
    """Vertices of conv(antichain) + R^2_{>=0} for a sorted antichain (x
    ascending, so y strictly descending): the points strictly below every
    chord, by a monotone-chain lower hull; collinear points keep two ends."""
    hull: list[Vec] = []
    for p in antichain:
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            cross = (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0])
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return tuple(hull)


def _poly_member_lp(gens: Sequence[Vec], p: Vec) -> bool:
    """p in conv(gens) plus the orthant, on values, via exact feasibility in
    the convex multipliers, which the engine keeps nonnegative."""
    k = len(gens)
    ineqs = [((1,) * k, -1), ((-1,) * k, 1)]  # sum >= 1, sum <= 1
    for col, b in zip(zip(*gens), p):
        ineqs.append((tuple(-c for c in col), b))
    # nvars positionally: perfbench's tracer reads it as the second argument.
    return lp_feasible(ineqs, k, nonneg=True) is not None


def _has(w: Wedge, rp: Repr, nums: Rows, q) -> bool:
    """q in the set generated by nums, all values over one denominator."""
    if rp is Repr.DISCRETE and w.is_zero:
        # Over the zero wedge g <= q only for g == q, and a tuple lookup is
        # cheaper than the order test (the comparisons that dominate `hunt`).
        return q in nums
    if rp is Repr.POLYTOPIC and len(w.rows) == 2:
        return _member_chain(nums, q)
    # g + W lies in conv(nums) + W, so for a polytopic set too a generator
    # below q certifies it.
    if any(all(map(le, g, q)) for g in nums):
        return True
    return rp is Repr.POLYTOPIC and _poly_member_lp(nums, q)


def _member_chain(chain: Sequence[Vec], p: Vec) -> bool:
    """Membership in conv(chain) + R^2_{>=0} for a canonical 2-d chain."""
    x, y = p
    if x < chain[0][0]:
        return False
    if y < chain[-1][1]:
        return False
    if x >= chain[-1][0]:
        return True  # already checked y >= last vertex's y
    for (x1, y1), (x2, y2) in zip(chain, chain[1:]):
        if x1 <= x <= x2:
            # boundary height at x on the chord
            return (y - y1) * (x2 - x1) >= (y2 - y1) * (x - x1)
    return False


def msum(A: UpperSet, B: UpperSet) -> UpperSet:
    """Minkowski sum, exact except for a polytopic set of several vertices
    plus a discrete set of several generators: that sum is promoted to its
    convex hull, which can be larger."""
    if A.wedge != B.wedge:
        raise WedgeMismatch("operands live over different wedges")
    rp = Repr.POLYTOPIC if Repr.POLYTOPIC in (A.repr, B.repr) else Repr.DISCRETE
    den, an, bn = _common(A, B)
    return _build(A.wedge, rp, den, [tuple(map(add, a, b)) for a in an for b in bn])


def star_set(n: int, A: UpperSet) -> UpperSet:
    """n*A = {n.a + w}; over a divisible wedge this is n.F + W exactly.

    Scaling by n >= 1 keeps the canonical form (the sort order, dominance
    and the hull vertices all survive it), so the generators skip ``_build``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return UpperSet(A.wedge, A.repr, *star_scaled(n, A.den, A.nums))


def subset(A: UpperSet, B: UpperSet) -> bool:
    """Inclusion of denotations, decided by generator membership.

    Sound when A is a union of translated wedges (DISCRETE, which every
    one-generator set is) or when B is convex (``_convex``).  The one unsound
    combination, a polytopic A (several vertices) within a discrete set of
    several generators, is rejected.
    """
    if A.wedge != B.wedge:
        raise WedgeMismatch("operands live over different wedges")
    if A.repr is Repr.POLYTOPIC and not _convex(B):
        raise UnsupportedOperation("polytopic within discrete is undecided here")
    _, an, bn = _common(A, B)
    if B.repr is Repr.DISCRETE and B.wedge.is_zero:
        # Over the zero wedge each generator of A must be one of B's: one
        # containment pass over B's stored values, not a _has call apiece.
        return all(map(bn.__contains__, an))
    return all(_has(B.wedge, B.repr, bn, g) for g in an)


def _separates(A: UpperSet, B: UpperSet) -> bool:
    """Some row's least value on A is below B's, so no z gives A + z within
    B + z: ``low`` is additive and reverses inclusion, and cancels in Q.
    Rådström's embedding by support functions (Proc. AMS 3, 1952), read
    row by row on the stored values: directly over one denominator, as in
    the CLI's universes, else by int cross-multiplication."""
    if A.den == B.den:
        return not all(map(ge, A.low, B.low))
    return not all(a * B.den >= b * A.den for a, b in zip(A.low, B.low))


def intersect(A: UpperSet, B: UpperSet) -> UpperSet:
    """Finite intersections of DISCRETE sets via staircase joins of values.
    Over a simplicial wedge (as many rows as the dimension) M is onto, so
    the join of two values is the values of a point p: (f + W) ∩ (g + W) = p + W."""
    if A.wedge != B.wedge:
        raise WedgeMismatch("operands live over different wedges")
    if len(A.wedge.rows) != A.wedge.dim or A.repr is not Repr.DISCRETE or B.repr is not Repr.DISCRETE:
        raise UnsupportedOperation("intersections need DISCRETE operands over a simplicial wedge")
    den, an, bn = _common(A, B)
    return _build(A.wedge, Repr.DISCRETE, den, [join_orthant(f, g) for f in an for g in bn])


def _convex(A: UpperSet) -> bool:
    """POLYTOPIC, or one generator (a translated wedge): the convex forms."""
    return A.repr is Repr.POLYTOPIC or len(A.nums) == 1


def is_n_convex_set(A: UpperSet, n: int) -> bool:
    """A is n-convex (n*A == n.A, n.A = A + ... + A) iff n == 1 or A is convex.

    A convex set is n-convex.  A canonical DISCRETE set of two or more
    generators is an antichain, and n-convex for no n >= 2.  Over a pointed W
    the height l, the sum of ``W.values``, is strictly positive on W minus 0.
    Order the generators by l, ties broken lexicographically; let a, b be the
    first two.  Then s = (n-1)a + b is in n.A but in no n.h + W.  For h = a or
    b, s - n.h is b - a or (n-1)(a - b), which the antichain keeps out of W.
    Any other h has l(h) >= l(b) >= l(s) / n, so s - n.h in W needs s = n.h;
    then h = a + (b - a) / n has b's height and is lexicographically strictly
    between a and b, so b was not second.  Over the zero wedge, s - n.h in W
    means s = n.h outright.  Hence the canonical form (an antichain) and a
    pointed W (a height l) are both needed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n == 1 or _convex(A)


def convex_hull(A: UpperSet) -> UpperSet:
    """Smallest convex W-invariant superset: conv(F) + W on the same F."""
    return _build(A.wedge, Repr.POLYTOPIC, A.den, A.nums)


def phi_embed(w: Wedge, x: Vec) -> UpperSet:
    """x |-> x + W, the order-reversing embedding of the element cornet, on
    the coordinates of a point (``Point.coords``)."""
    return UpperSet.make(w, Repr.DISCRETE, [x])


def set_arch_family(w: Wedge, epsilons: Sequence) -> ArchFamily:
    """The sets {-eps * ones} + W, halved by the witness."""
    return arch_family(w, epsilons, lambda p: phi_embed(w, vneg(p)), _family_point)


def _family_point(a: UpperSet) -> Vec:
    """The point p of a family member {-p} + W."""
    (g,) = a.generators
    return vneg(g)


def set_closure(A: UpperSet) -> UpperSet:
    # Finitely generated denotations are closed in the rational model.
    return A


def _arch_exact_set(x: UpperSet, probe: UpperSet) -> Optional[tuple[bool, Optional[int]]]:
    """0 in U + n*x for all n >= threshold(W, -f, -g), for any probe
    generator f and generator g of x that have one: f + n.g <= 0 from there
    on.  The smallest such threshold is returned, read off the stored values.

    Without one, when both sets are DISCRETE, 0 in U + n*x needs some pair
    with f + n.g <= 0, and a pair without a threshold holds only on a
    bounded set of n (the n where it holds form an interval), so the
    property fails for all large n.  Otherwise the horizon search decides.
    The thresholds are taken on numerators over one denominator, which
    scales both points of every pair alike."""
    _, xn, pn = _common(x, probe)
    n0s = [value_threshold(vneg(f), vneg(g)) for g in xn for f in pn]
    n0s = [n0 for n0 in n0s if n0 is not None]
    if n0s:
        return True, min(n0s)
    if x.repr is Repr.DISCRETE and probe.repr is Repr.DISCRETE:
        return False, None
    return None


def _bounded_exact_set(x: UpperSet, a: UpperSet) -> Optional[tuple[bool, Optional[int]]]:
    """Against a = {g} + W, x <= n*a iff every generator f of x lies in
    n.g + W (a translated wedge is convex), so the largest threshold(W, f, -g)
    decides it, and a generator without one refutes it."""
    if len(a.nums) != 1:
        return None
    _, xn, (g,) = _common(x, a)
    n0s = [value_threshold(f, vneg(g)) for f in xn]
    if None in n0s:
        return False, None
    return True, max(n0s)


def _sample_gens(
    w: Wedge, rng: random.Random, max_gens: int, integer: bool
) -> list[Vec]:
    count = rng.randint(1, max_gens)
    dens = (1,) if integer else (1, 2, 4)
    return [
        tuple(Fraction(rng.randint(-8, 8), rng.choice(dens)) for _ in range(w.dim))
        for _ in range(count)
    ]


def serialize_set(A: UpperSet) -> dict:
    """JSON form of a set: its representation and generators as rational
    strings, in point order."""
    den, nums = A.wedge.coords(A.den, A.nums)
    if den == 1:
        generators = [[str(c) for c in g] for g in nums]
    else:
        generators = [[str(Fraction(c, den)) for c in g] for g in nums]
    return {"repr": A.repr.value, "generators": generators}


def make_set_cornet(w: Wedge, rp: Repr = Repr.DISCRETE, integer: bool = False) -> CornetInstance:
    """The cornet of finitely generated W-invariant sets ordered by
    inclusion, with seeded sampling of up to ``_MAX_GENS`` generators."""

    unit = UpperSet.make(w, rp, [(0,) * w.dim])

    def sampler(rng: random.Random) -> UpperSet:
        return UpperSet.make(w, rp, _sample_gens(w, rng, _MAX_GENS, integer))

    def nonneg_sampler(rng: random.Random) -> UpperSet:
        gens = _sample_gens(w, rng, _MAX_GENS - 1, integer) + [vzero(w.dim)]
        return UpperSet.make(w, rp, gens)

    return CornetInstance(
        name=f"set{'Z' if integer else 'Q'}(d={w.dim},{rp.value})",
        zero=unit,
        add=msum,
        star=star_set,
        leq=subset,
        sampler=sampler,
        nonneg_sampler=nonneg_sampler,
        hull=convex_hull,
        closure=set_closure,
        serialize=serialize_set,
        arch_exact=_arch_exact_set,
        bounded_exact=_bounded_exact_set,
        separates=_separates,
    )


def enumerate_z_subsets(bound: int, lo: int = 0) -> list[UpperSet]:
    """All nonempty subsets of {lo..bound} as upper sets over (Z, W={0});
    the finite universe used by the counterexample hunt, in mask order.

    Each set is built already canonical, without ``_build``: over the zero
    wedge no generator dominates another, the values (v, -v) taken by
    increasing v are in sorted order, a denominator of 1 is reduced, and a
    set of one generator is DISCRETE in any case.  The generators of a mask
    are its lowest bit's value followed by those of the mask without that
    bit, so each set costs one concatenation."""
    w = Wedge.zero(1)
    vals = [w.values((v,)) for v in range(lo, bound + 1)]
    prefix: list[Rows] = [()]
    out = []
    for mask in range(1, 1 << len(vals)):
        bit = mask & -mask
        gens = (vals[bit.bit_length() - 1],) + prefix[mask ^ bit]
        prefix.append(gens)
        out.append(UpperSet(w, Repr.DISCRETE, 1, gens))
    return out


def order_convex_z(A: UpperSet) -> bool:
    """Order-convexity of a finite integer set: no gaps between min and max.

    Over (Z, W={0}) the averaged-generator notion of convexity admits only
    singletons, so the counterexample hunt uses this lattice analogue when
    deciding which sets count as convex.

    The first value over the zero wedge of Q is the point itself, and the
    values are stored sorted and distinct.  Over den 1 the set has no gap
    iff its span is one less than its size.  Over a larger den that count is
    not enough: {0, 1/2, 2} (nums 0, 1, 4 over 2) spans (3 - 1) . 2 but has
    a gap, so each step is checked.
    """
    nums = A.nums
    if A.den == 1:
        return nums[-1][0] - nums[0][0] == len(nums) - 1
    return all(b[0] - a[0] == A.den for a, b in zip(nums, nums[1:]))


def interval_z_subsets(bound: int, lo: int = 0) -> list[UpperSet]:
    """The interval sets {a..b} within {lo..bound}: the convex subuniverse.
    Each is a slice of the sorted values over den 1, so it is built already
    canonical, as in ``enumerate_z_subsets``."""
    w = Wedge.zero(1)
    vals = tuple(w.values((v,)) for v in range(lo, bound + 1))
    spans = [(a, b) for a in range(len(vals)) for b in range(a, len(vals))]
    return [UpperSet(w, Repr.DISCRETE, 1, vals[a : b + 1]) for a, b in spans]
