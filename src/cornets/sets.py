"""Finitely generated W-invariant upper sets and their cornet.

An UpperSet denotes either F + W (DISCRETE) or conv(F) + W (POLYTOPIC) for a
finite generator list F.  Generators are kept in canonical form, so that
syntactic equality of values is semantic equality of denotations: one
dominance step drops every g in h + W for another generator h, which leaves
the antichain of minimal generators, and polytopic sets then prune the
survivors to the vertices of conv(F) + W.
Inside, a set holds its generators as ``int`` numerators ``nums`` over one
positive common denominator ``den``, reduced so that gcd(den, every
numerator) == 1; ``generators`` gives them back as Fractions at the API.
Operations on two sets rescale both to the lcm of their denominators and then
work on ints only; every decision here is invariant under that scaling.
Dominance and discrete membership ask ``Wedge.leq``, which takes the orthant
shortcut itself; only the zero wedge, whose order is equality, is handled
here (no dominance step, and membership is a lookup among the generators).
Archimedean and boundedness thresholds reduce to ``wedges.threshold`` on
pairs of generators, over every wedge; the Archimedean family {-eps . ones} + W
comes from ``wedges.arch_family``.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd, lcm
from operator import add
from typing import Iterable, Optional, Sequence

from .core import ArchFamily, CornetInstance
from .geometry import Vec, _exact, join_orthant, lp_feasible, vdot, vneg, vzero
from .wedges import Wedge, arch_family, threshold

_MAX_GENS = 5  # the most generators a sampled set has


class Repr(Enum):
    DISCRETE = "discrete"
    POLYTOPIC = "polytopic"


class WedgeMismatch(ValueError):
    pass


class UnsupportedOperation(ValueError):
    pass


class MultisetCapExceeded(ValueError):
    pass


Nums = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class UpperSet:
    """The generators nums[i] / den, in canonical form; equality and hashing
    rest on (wedge, repr, den, nums)."""

    wedge: Wedge
    repr: Repr
    den: int
    nums: Nums

    @staticmethod
    def make(wedge: Wedge, repr: Repr, generators: Iterable[Iterable]) -> "UpperSet":
        # ints stay ints: they are their own numerators over 1.
        gens = tuple(tuple(map(_exact, g)) for g in generators)
        if not gens:
            raise ValueError("generator list must be nonempty")
        for g in gens:
            if len(g) != wedge.dim:
                raise ValueError(f"generator dim {len(g)} vs wedge dim {wedge.dim}")
        den = lcm(*(c.denominator for g in gens for c in g))
        nums = [tuple(c.numerator * (den // c.denominator) for c in g) for g in gens]
        return _build(wedge, repr, den, nums)

    @functools.cached_property
    def generators(self) -> tuple[Vec, ...]:
        return tuple(tuple(Fraction(c, self.den) for c in g) for g in self.nums)

    def member(self, p: Vec) -> bool:
        return _member(self, p)


def discrete(wedge: Wedge, generators: Iterable[Iterable]) -> UpperSet:
    return UpperSet.make(wedge, Repr.DISCRETE, generators)


def polytopic(wedge: Wedge, generators: Iterable[Iterable]) -> UpperSet:
    return UpperSet.make(wedge, Repr.POLYTOPIC, generators)


def _build(w: Wedge, rp: Repr, den: int, nums: Iterable[tuple[int, ...]]) -> UpperSet:
    """The trusted constructor: canonicalise the generators nums / den, then
    divide den and the survivors by their gcd.  Pruning comes first, because
    a pruned generator may be the one that kept the gcd at 1."""
    nums = _canonicalize(w, rp, tuple(nums))
    g = gcd(den, *(c for v in nums for c in v))
    if g != 1:
        den //= g
        nums = tuple(tuple(c // g for c in v) for v in nums)
    return UpperSet(w, rp, den, nums)


def _scaled(nums: Nums, k: int) -> Nums:
    return tuple(tuple(k * c for c in v) for v in nums)


def _common(A: UpperSet, B: UpperSet) -> tuple[int, Nums, Nums]:
    """The generators of A and B as numerators over the lcm of their
    denominators; equal denominators rescale nothing."""
    if A.den == B.den:
        return A.den, A.nums, B.nums
    den = lcm(A.den, B.den)
    return den, _scaled(A.nums, den // A.den), _scaled(B.nums, den // B.den)


def _canonicalize(w: Wedge, rp: Repr, gens: tuple[Vec, ...]) -> tuple[Vec, ...]:
    """Dominance, then hull pruning.  A generator g in h + W for another
    generator h is redundant in either representation; over a pointed W the
    polytopic survivors then lose those inside the hull of the others, which
    leaves the vertices of conv(F) + W.  Every step is invariant under a
    positive scaling, so it works alike on ints and Fractions."""
    gens = tuple(sorted(set(gens)))
    # Over the zero wedge h <= g only for h == g, and set() has already
    # dropped duplicates, so the step would keep every generator.
    if not w.is_zero:
        gens = tuple(g for g in gens if not any(h != g and w.leq(h, g) for h in gens))
    # Hull pruning of the polytopic survivors; any two of them are vertices.
    if rp is Repr.DISCRETE or len(gens) < 3:
        return gens
    if w.is_orthant and w.dim == 2:
        return _pareto_lower_hull(gens)
    # One pass suffices: dropping a redundant point leaves conv(F) + W as it
    # was, and a point irredundant against a set stays so against any subset.
    kept = list(gens)
    for g in gens:
        if _poly_member_lp(w, [h for h in kept if h != g], g):
            kept.remove(g)
    return tuple(kept)


def _pareto_lower_hull(antichain: Sequence[Vec]) -> tuple[Vec, ...]:
    """Vertices of conv(antichain) + R^2_{>=0} for a sorted antichain (x
    ascending, so y strictly descending): the points strictly below every
    chord, by a monotone-chain lower hull."""
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


def _poly_member_lp(w: Wedge, gens: Sequence[Vec], p: Vec) -> bool:
    """p in conv(gens) + W via exact feasibility in the convex multipliers,
    which the engine keeps nonnegative itself."""
    k = len(gens)
    ineqs = [((1,) * k, -1), ((-1,) * k, 1)]  # sum >= 1, sum <= 1
    for m in w.rows:
        coeffs = tuple(-vdot(m, g) for g in gens)
        ineqs.append((coeffs, vdot(m, p)))
    # nvars positionally: perfbench's tracer reads it as the second argument.
    return lp_feasible(ineqs, k, nonneg=True) is not None


def _member(A: UpperSet, p: Vec) -> bool:
    """p in A, asked of A's numerators with p scaled once by A's denominator."""
    return _has(A.wedge, A.repr, A.nums, tuple(_times(c, A.den) for c in p))


def _times(c, den: int):
    """c * den for an int or a Fraction c, as an int when it is one."""
    n, r = divmod(c.numerator * den, c.denominator)
    return c * den if r else n


def _has(w: Wedge, rp: Repr, nums: Nums, q) -> bool:
    """q in the set generated by nums, q and nums over one denominator."""
    if rp is Repr.DISCRETE or len(nums) == 1:
        # Over the zero wedge g <= q only for g == q, and a tuple lookup is
        # cheaper than the wedge test (the comparisons that dominate `hunt`).
        if w.is_zero:
            return q in nums
        return any(w.leq(g, q) for g in nums)
    if w.is_orthant and w.dim == 2:
        return _member_chain(nums, q)
    return _poly_member_lp(w, nums, q)


def _member_chain(chain: Sequence[Vec], p: Vec) -> bool:
    """Membership in conv(chain) + orthant for a canonical 2-d chain."""
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
    """Minkowski sum; mixed representations promote to POLYTOPIC."""
    if A.wedge != B.wedge:
        raise WedgeMismatch("operands live over different wedges")
    rp = Repr.POLYTOPIC if Repr.POLYTOPIC in (A.repr, B.repr) else Repr.DISCRETE
    den, an, bn = _common(A, B)
    return _build(A.wedge, rp, den, [tuple(map(add, a, b)) for a in an for b in bn])


def star_set(n: int, A: UpperSet) -> UpperSet:
    """n*A = {n.a + w}; over a divisible wedge this is n.F + W exactly.

    Scaling by n >= 1 keeps the canonical form (the sort order, dominance
    and the hull vertices all survive it), so the generators skip ``_build``;
    dividing n and den by their gcd keeps the fraction n.nums / den reduced."""
    if n < 1:
        raise ValueError("n must be >= 1")
    g = gcd(n, A.den)
    return UpperSet(A.wedge, A.repr, A.den // g, _scaled(A.nums, n // g))


def subset(A: UpperSet, B: UpperSet) -> bool:
    """Inclusion of denotations, decided by generator membership.

    Sound when A is a union of translated wedges (DISCRETE, or POLYTOPIC
    with one generator) or when B is convex: POLYTOPIC, or DISCRETE with one
    generator (a translated wedge).  The one unsound combination, a
    polytopic A of several generators within a discrete set of several
    generators, is rejected.
    """
    if A.wedge != B.wedge:
        raise WedgeMismatch("operands live over different wedges")
    if (
        A.repr is Repr.POLYTOPIC
        and len(A.nums) > 1
        and B.repr is Repr.DISCRETE
        and len(B.nums) > 1
    ):
        raise UnsupportedOperation("polytopic within discrete is undecided here")
    _, an, bn = _common(A, B)
    return all(_has(B.wedge, B.repr, bn, g) for g in an)


def set_eq(A: UpperSet, B: UpperSet) -> bool:
    if A.repr == B.repr:
        return A == B
    return subset(A, B) and subset(B, A)


def intersect(A: UpperSet, B: UpperSet) -> UpperSet:
    """Finite intersections in orthant DISCRETE mode via staircase joins."""
    if A.wedge != B.wedge:
        raise WedgeMismatch("operands live over different wedges")
    if not A.wedge.is_orthant or A.repr is not Repr.DISCRETE or B.repr is not Repr.DISCRETE:
        raise UnsupportedOperation("intersections need orthant DISCRETE operands")
    den, an, bn = _common(A, B)
    return _build(A.wedge, Repr.DISCRETE, den, [join_orthant(f, g) for f in an for g in bn])


def is_n_convex_set(A: UpperSet, n: int, multiset_cap: int = 512) -> bool:
    """Decide n-convexity through the averaged-generator criterion.

    DISCRETE: (f_1 + ... + f_n)/n must land back in the set for every
    n-multiset of generators (exact by divisibility of the carrier), which
    is tested as f_1 + ... + f_n in n.F + W, on ints.
    POLYTOPIC sets are convex outright.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1 or A.repr is Repr.POLYTOPIC:
        return True
    k = len(A.nums)
    if comb(k + n - 1, n) > multiset_cap:
        raise MultisetCapExceeded(
            f"{comb(k + n - 1, n)} multisets exceed cap {multiset_cap}; lower n or generators"
        )
    n_nums = _scaled(A.nums, n)
    return all(
        _has(A.wedge, Repr.DISCRETE, n_nums, tuple(map(sum, zip(*combo))))
        for combo in combinations_with_replacement(A.nums, n)
    )


def convex_hull(A: UpperSet) -> UpperSet:
    """Smallest convex W-invariant superset: same generators, POLYTOPIC."""
    return _build(A.wedge, Repr.POLYTOPIC, A.den, A.nums)


def phi_embed(w: Wedge, x: Vec) -> UpperSet:
    """x |-> x + W, the order-reversing embedding of the element cornet."""
    return UpperSet.make(w, Repr.DISCRETE, [x])


def finite_intersection(sets: Sequence[UpperSet]) -> UpperSet:
    acc = sets[0]
    for s in sets[1:]:
        acc = intersect(acc, s)
    return acc


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
    on.  The smallest such threshold is returned.

    Without one, when both sets are DISCRETE, 0 in U + n*x needs some pair
    with f + n.g <= 0, and a pair without a threshold holds only on a
    bounded set of n (the n where it holds form an interval), so the
    property fails for all large n.  Otherwise the horizon search decides.
    The thresholds are taken on numerators over one denominator, which
    scales both points of every pair alike."""
    _, xn, pn = _common(x, probe)
    n0s = [threshold(x.wedge, vneg(f), vneg(g)) for g in xn for f in pn]
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
    n0s = [threshold(x.wedge, f, vneg(g)) for f in xn]
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
    """JSON form of a set: its representation and generators as rational strings."""
    den = A.den
    return {
        "repr": A.repr.value,
        "generators": [[str(c) if den == 1 else str(Fraction(c, den)) for c in g] for g in A.nums],
    }


def make_set_cornet(w: Wedge, rp: Repr = Repr.DISCRETE, integer: bool = False) -> CornetInstance:
    """The cornet of finitely generated W-invariant sets ordered by
    inclusion, with seeded sampling of up to ``_MAX_GENS`` generators."""

    unit = UpperSet.make(w, rp, [(0,) * w.dim])

    def sampler(rng: random.Random) -> UpperSet:
        return UpperSet.make(w, rp, _sample_gens(w, rng, _MAX_GENS, integer))

    def nonneg_sampler(rng: random.Random) -> UpperSet:
        gens = _sample_gens(w, rng, _MAX_GENS - 1, integer) + [vzero(w.dim)]
        return UpperSet.make(w, rp, gens)

    inst = CornetInstance(
        name=f"set{'Z' if integer else 'Q'}(d={w.dim},{rp.value})",
        zero=unit,
        add=msum,
        star=star_set,
        leq=subset,
        sampler=sampler,
        nonneg_sampler=nonneg_sampler,
        finite_inf=(
            finite_intersection
            if (w.is_orthant and rp is Repr.DISCRETE)
            else None
        ),
        hull=convex_hull,
        closure=set_closure,
        serialize=serialize_set,
        arch_exact=_arch_exact_set,
        bounded_exact=_bounded_exact_set,
    )
    return inst


def enumerate_z_subsets(bound: int, w: Optional[Wedge] = None, lo: int = 0) -> list[UpperSet]:
    """All nonempty subsets of {lo..bound} as upper sets over (Z, W={0});
    the finite universe used by the counterexample hunt."""
    w = w or Wedge.zero(1)
    vals = list(range(lo, bound + 1))
    out = []
    for mask in range(1, 1 << len(vals)):
        gens = [(v,) for i, v in enumerate(vals) if mask & (1 << i)]
        out.append(_build(w, Repr.DISCRETE, 1, gens))
    return out


def order_convex_z(A: UpperSet) -> bool:
    """Order-convexity of a finite integer set: no gaps between min and max.

    Over (Z, W={0}) the averaged-generator notion of convexity admits only
    singletons, so the counterexample hunt uses this lattice analogue when
    deciding which sets count as convex.
    """
    vals = sorted(g[0] for g in A.nums)
    return all(b - a == A.den for a, b in zip(vals, vals[1:]))


def interval_z_subsets(bound: int, w: Optional[Wedge] = None, lo: int = 0) -> list[UpperSet]:
    """The interval sets {a..b} within {lo..bound}: the convex subuniverse."""
    w = w or Wedge.zero(1)
    out = []
    for a in range(lo, bound + 1):
        for b in range(a, bound + 1):
            gens = [(i,) for i in range(a, b + 1)]
            out.append(_build(w, Repr.DISCRETE, 1, gens))
    return out
