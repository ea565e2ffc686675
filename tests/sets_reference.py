"""Reference set paths in coordinates: canonical forms, membership and the
exact thresholds as ``cornets.sets`` computed them before it held generator
values, reading every point through ``Wedge.values`` and taking the 2-d
chain only over the orthant.  The tests compare the value-coordinate paths
with these."""

from operator import le
from typing import Iterable, Sequence

from cornets.geometry import lp_feasible, vneg
from cornets.sets import Repr
from cornets.wedges import threshold


def ref_canonicalize(w, rp, gens):
    """The canonical generators of gens, in point order."""
    if w.is_zero:
        gens = tuple(sorted(set(gens)))
    elif len(w.rows) <= 2:
        gens = ref_staircase(w, set(gens))
    else:
        kept = []
        for g, v in sorted(((g, w.values(g)) for g in set(gens)), key=lambda gv: sum(gv[1])):
            if not any(all(map(le, hv, v)) for _, hv in kept):
                kept.append((g, v))
        gens = tuple(sorted(g for g, _ in kept))
    if rp is Repr.DISCRETE or len(gens) < 3:
        return gens
    if w.is_orthant and w.dim == 2:
        return ref_pareto_lower_hull(gens)
    vals = [w.values(g) for g in gens]
    heights = [sum(v) for v in vals]
    vertices = {min(zip(col, heights, gens))[2] for col in zip(*vals)}
    kept = list(gens)
    for g in gens:
        if g not in vertices and ref_poly_member_lp(w, [h for h in kept if h != g], g):
            kept.remove(g)
    return tuple(kept)


def ref_staircase(w, gens: Iterable):
    if w.dim == 1:
        return (min(gens, key=w.values),)
    kept = []
    low = None
    for (_, y), g in sorted((w.values(g), g) for g in gens):
        if low is None or y < low:
            kept.append(g)
            low = y
    return tuple(kept) if w.is_orthant else tuple(sorted(kept))


def ref_pareto_lower_hull(antichain: Sequence):
    hull = []
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


def ref_poly_member_lp(w, gens: Sequence, p) -> bool:
    """p in conv(gens) + W, with nonnegative convex multipliers."""
    k = len(gens)
    ineqs = [((1,) * k, -1), ((-1,) * k, 1)]
    for col, b in zip(zip(*(w.values(g) for g in gens)), w.values(p)):
        ineqs.append((tuple(-c for c in col), b))
    return lp_feasible(ineqs, k, nonneg=True) is not None


def ref_has(w, rp, gens: Sequence, q) -> bool:
    """q in the set generated by gens (coordinates)."""
    if rp is Repr.DISCRETE and w.is_zero:
        return q in gens
    if rp is Repr.POLYTOPIC and w.is_orthant and w.dim == 2:
        return ref_member_chain(gens, q)
    qv = w.values(q)
    if any(all(map(le, w.values(g), qv)) for g in gens):
        return True
    return rp is Repr.POLYTOPIC and ref_poly_member_lp(w, gens, q)


def ref_member_chain(chain: Sequence, p) -> bool:
    x, y = p
    if x < chain[0][0]:
        return False
    if y < chain[-1][1]:
        return False
    if x >= chain[-1][0]:
        return True
    for (x1, y1), (x2, y2) in zip(chain, chain[1:]):
        if x1 <= x <= x2:
            return (y - y1) * (x2 - x1) >= (y2 - y1) * (x - x1)
    return False


def ref_arch_exact_set(x, probe):
    """The Archimedean decider, with ``wedges.threshold`` read on the
    generators' coordinates."""
    n0s = [threshold(x.wedge, vneg(f), vneg(g)) for g in x.generators for f in probe.generators]
    n0s = [n0 for n0 in n0s if n0 is not None]
    if n0s:
        return True, min(n0s)
    if x.repr is Repr.DISCRETE and probe.repr is Repr.DISCRETE:
        return False, None
    return None


def ref_bounded_exact_set(x, a):
    """The boundedness decider against a one-generator a, likewise."""
    if len(a.generators) != 1:
        return None
    (g,) = a.generators
    n0s = [threshold(x.wedge, f, vneg(g)) for f in x.generators]
    if None in n0s:
        return False, None
    return True, max(n0s)
