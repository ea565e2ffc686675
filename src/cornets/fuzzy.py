"""Step membership functions under sup-min convolution.

A StepFuzzy value is a finite descending level decomposition: finitely many
level values with nested cuts, each cut a finitely generated W-invariant
upper set.  Because cuts are finitely generated, the supremum in the sup-min
convolution is attained and every operation here is exact and levelwise.
The Archimedean family, characteristic functions of the set family, exists
only at p = 1 and comes from ``wedges.arch_family``.
``StepFuzzy.make`` and ``level_cut`` validate what they are given, for
callers outside the package.  ``oplus`` and ``odot`` build levels that are
valid by construction (descending values, nested cuts, top at least p), so
they skip that validation: ``oplus`` only merges equal adjacent cuts, and
``odot``, whose scaling is injective, not even that.  The one exception is an
``oplus`` whose sum has a polytopic cut above a discrete one of several
generators: ``msum`` promotes the sum of a polytopic cut of several vertices
and a discrete cut of several generators to its hull, so those cuts need not
nest, and ``make`` checks them.  ``oplus`` and ``leq_fuzzy`` walk down both
descending level lists once, carrying each one's current cut, rather than
looking up a cut per level value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .core import ArchFamily, CornetInstance
from .geometry import Vec, rat, vneg, vzero
from .sets import (
    Repr,
    UpperSet,
    WedgeMismatch,
    _arch_exact_set,
    _bounded_exact_set,
    _family_point,
    _sample_gens,
    is_n_convex_set,
    msum,
    phi_embed,
    serialize_set,
    star_set,
    subset,
)
from .wedges import Wedge, arch_family


class NoArchimedeanElements(ValueError):
    """Raised when an Archimedean family is requested below the top level:
    cornets of membership functions with supremum bound p < 1 have none."""


@dataclass(frozen=True)
class StepFuzzy:
    wedge: Wedge
    p: Fraction
    levels: tuple[tuple[Fraction, UpperSet], ...]

    @staticmethod
    def make(wedge: Wedge, p, levels: Iterable[tuple]) -> "StepFuzzy":
        p = rat(p)
        if not (0 < p <= 1):
            raise ValueError("p must lie in (0, 1]")
        lv = [(rat(a), cut) for a, cut in levels]
        if not lv:
            raise ValueError("level list must be nonempty")
        for a, cut in lv:
            if not (0 < a <= 1):
                raise ValueError(f"level value {a} outside (0, 1]")
            if cut.wedge != wedge:
                raise WedgeMismatch("cut lives over a different wedge")
        for (a1, c1), (a2, c2) in zip(lv, lv[1:]):
            if not a1 > a2:
                raise ValueError("level values must be strictly decreasing")
            if not subset(c1, c2):
                raise ValueError("cuts must be nested increasing")
        if lv[0][0] < p:
            raise ValueError(f"sup {lv[0][0]} drops below p = {p}")
        return _trusted(wedge, p, lv)

    def value(self, x: Vec) -> Fraction:
        for a, cut in self.levels:
            if cut.member(x):
                return a  # levels descend, first hit is the max
        return Fraction(0)

    @property
    def top(self) -> Fraction:
        return self.levels[0][0]


def _trusted(wedge: Wedge, p: Fraction, levels: Sequence[tuple[Fraction, UpperSet]]) -> StepFuzzy:
    """The trusted constructor, for levels that are valid by construction
    (strictly decreasing values in (0, 1], nested cuts over ``wedge``, top at
    least p): it only brings them to canonical form, where of two equal
    adjacent cuts only the highest level matters."""
    canon = [levels[0]]
    for a, cut in levels[1:]:
        if cut != canon[-1][1]:
            canon.append((a, cut))
    return StepFuzzy(wedge, p, tuple(canon))


def chi(A: UpperSet, p=1) -> StepFuzzy:
    """The characteristic function of an upper set."""
    return StepFuzzy.make(A.wedge, p, [(Fraction(1), A)])


def chi_embed(A: UpperSet) -> StepFuzzy:
    """The cornet-preserving embedding of the set cornet at p = 1."""
    return chi(A, p=1)


def level_cut(f: StepFuzzy, alpha) -> Optional[UpperSet]:
    """The cut {f >= alpha}: the widest stored cut whose level reaches alpha."""
    alpha = rat(alpha)
    if not (0 < alpha <= 1):
        raise ValueError("alpha must lie in (0, 1]")
    return _cut(f, alpha)


def _cut(f: StepFuzzy, alpha: Fraction) -> Optional[UpperSet]:
    """``level_cut`` for an alpha already known to be a Fraction in (0, 1]."""
    hit = None
    for a, cut in f.levels:
        if a < alpha:
            break
        hit = cut
    return hit


def oplus(f: StepFuzzy, g: StepFuzzy) -> StepFuzzy:
    """Sup-min convolution, computed cut-by-cut as Minkowski sums at every
    level value of f or g up to the lower top, in one walk down both level
    lists that carries each one's cut at the current value."""
    if f.wedge != g.wedge:
        raise WedgeMismatch("operands live over different wedges")
    cap = min(f.top, g.top)
    fl, gl = f.levels, g.levels
    i = j = 0
    fcut = gcut = None
    levels = []
    while i < len(fl) or j < len(gl):
        # The next level value down is f's, g's or both's.
        if j == len(gl) or (i < len(fl) and fl[i][0] >= gl[j][0]):
            a, fcut = fl[i]
            i += 1
            if j < len(gl) and gl[j][0] == a:
                gcut = gl[j][1]
                j += 1
        else:
            a, gcut = gl[j]
            j += 1
        if a <= cap:
            levels.append((a, msum(fcut, gcut)))
    # A polytopic cut of several vertices plus a discrete cut of several
    # generators is promoted to its convex hull, which can exceed the sum,
    # so a hull cut above a discrete cut need not nest: make checks those.
    # A one-generator cut is an exact, convex sum and nests either way.
    hull = [cut.repr is Repr.POLYTOPIC for _, cut in levels if len(cut.nums) > 1]
    if hull != sorted(hull):
        return StepFuzzy.make(f.wedge, min(f.p, g.p), levels)
    return _trusted(f.wedge, min(f.p, g.p), levels)


def odot(n: int, f: StepFuzzy) -> StepFuzzy:
    """(n . f)(x) = f(x/n); levelwise this scales every cut by n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    # Scaling by n is injective, so adjacent cuts stay distinct: nothing to merge.
    return StepFuzzy(f.wedge, f.p, tuple((a, star_set(n, c)) for a, c in f.levels))


def leq_fuzzy(f: StepFuzzy, g: StepFuzzy) -> bool:
    """Pointwise order, decided levelwise on f's level values: f's cut at a
    within g's widest cut at a level >= a."""
    if f.wedge != g.wedge:
        raise WedgeMismatch("operands live over different wedges")
    # One walk down g's levels: gcut is g's widest cut at a level >= a.
    gl = g.levels
    j = 0
    gcut = None
    for a, cut in f.levels:
        while j < len(gl) and gl[j][0] >= a:
            gcut = gl[j][1]
            j += 1
        if gcut is None or not subset(cut, gcut):
            return False
    return True


def support(f: StepFuzzy) -> UpperSet:
    """The outermost cut; where the membership value is positive."""
    return f.levels[-1][1]


def is_n_quasiconcave(f: StepFuzzy, n: int) -> bool:
    """min(f(x_1),...,f(x_n)) <= f(mean) for all tuples; equivalently every
    cut is n-convex as an upper set."""
    return all(is_n_convex_set(cut, n) for _, cut in f.levels)


def fuzzy_arch_family(w: Wedge, epsilons: Sequence, p=1) -> ArchFamily:
    """Characteristic functions of {-eps * ones} + W; only the p = 1 cornet
    has Archimedean elements at all."""
    if rat(p) < 1:
        raise NoArchimedeanElements(
            "membership-function cornets with p < 1 have no Archimedean elements"
        )
    return arch_family(
        w, epsilons, lambda q: chi(phi_embed(w, vneg(q))), lambda f: _family_point(support(f))
    )


def fuzzy_closure(f: StepFuzzy) -> StepFuzzy:
    # Every representable element has closed cuts, hence is its own closure.
    return f


_LEVEL_POOL = (Fraction(1), Fraction(3, 4), Fraction(1, 2), Fraction(1, 4))
_MAX_LEVELS = 3  # levels per sampled step function


def _sample_fuzzy(
    w: Wedge, p: Fraction, rp: Repr, rng: random.Random, force_zero: bool
) -> StepFuzzy:
    tops = [a for a in _LEVEL_POOL if a >= p]
    # Nonnegative elements need value 1 at the origin, so force the top level.
    top = Fraction(1) if force_zero else rng.choice(tops)
    lower = [a for a in _LEVEL_POOL if a < top]
    count = rng.randint(0, min(_MAX_LEVELS - 1, len(lower)))
    alphas = [top] + sorted(rng.sample(lower, count), reverse=True)
    levels = []
    gens: list[Vec] = [vzero(w.dim)] if force_zero else []
    for a in alphas:
        gens = gens + _sample_gens(w, rng, 2, integer=False)
        levels.append((a, UpperSet.make(w, rp, gens)))
    return StepFuzzy.make(w, p, levels)


def serialize_fuzzy(f: StepFuzzy) -> dict:
    """JSON form of a step function: p and its (alpha, cut) levels, top level first."""
    return {
        "p": str(f.p),
        "levels": [{"alpha": str(a), "set": serialize_set(c)} for a, c in f.levels],
    }


def make_fuzzy_cornet(w: Wedge, p=1, cut_repr: Repr = Repr.DISCRETE) -> CornetInstance:
    """The cornet of step membership functions with supremum at least p,
    under sup-min convolution and pointwise order."""
    p = rat(p)
    unit = chi(UpperSet.make(w, cut_repr, [vzero(w.dim)]), p)

    def arch_exact(x: StepFuzzy, probe: StepFuzzy) -> Optional[tuple[bool, Optional[int]]]:
        if p < 1:
            # (f + n.g)(0) <= f(0) < 1 for the constant-p probe: nothing is
            # Archimedean below the top level.
            return False, None
        if x.top < 1 or probe.top < 1:
            return False, None
        return _arch_exact_set(x.levels[0][1], probe.levels[0][1])

    def bounded_exact(x: StepFuzzy, a: StepFuzzy) -> Optional[tuple[bool, Optional[int]]]:
        if len(a.levels) != 1 or a.top < 1:
            return None
        return _bounded_exact_set(support(x), a.levels[0][1])

    return CornetInstance(
        name=f"fuzzyQ(d={w.dim},p={p},{cut_repr.value})",
        zero=unit,
        add=oplus,
        star=odot,
        leq=leq_fuzzy,
        sampler=lambda rng: _sample_fuzzy(w, p, cut_repr, rng, False),
        nonneg_sampler=lambda rng: _sample_fuzzy(w, p, cut_repr, rng, True),
        closure=fuzzy_closure,
        serialize=serialize_fuzzy,
        arch_exact=arch_exact,
        bounded_exact=bounded_exact,
    )
