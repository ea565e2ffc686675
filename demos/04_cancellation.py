"""Order cancellation and what breaks without its hypotheses.

The headline statement: if x + z <= y + z, z is bounded against a family of
Archimedean elements, and y is closed under that family and m-convex for
some m >= 2, then x <= y already.  The first half of this script verifies
concrete instances with the hypotheses checked exactly; the second half
removes the convexity hypothesis and exhaustively hunts a finite integer
universe for a triple where cancellation genuinely fails.
"""

from fractions import Fraction as F

from cornets import (
    Horizon,
    Repr,
    Wedge,
    ablation_hunt,
    cancellation_check,
    discrete,
    enumerate_z_subsets,
    make_set_cornet,
    order_convex_z,
    set_arch_family,
)

w = Wedge.orthant(2)
inst = make_set_cornet(w, Repr.DISCRETE)
fam = set_arch_family(w, [F(1), F(1, 2), F(1, 4)])
h = Horizon(n_max=8)

print("== a verified cancellation instance over upper sets ==")
y = discrete(w, [(0, 0)])  # the wedge itself: closed and m-convex for all m
x = discrete(w, [(1, 0)])
z = discrete(w, [(0, 2), (2, 0)])
rec = cancellation_check(inst, x, y, z, m=2, fam=fam, h=h)
print("status:", rec.status)
print("premise x+z <= y+z:", rec.premise, "| conclusion x <= y:", rec.conclusion)
print("replayed proof chain:")
for step, ok in rec.chain:
    print(f"  {step}: {ok}")

print("\n== hypotheses are checked, not assumed ==")
bad_y = discrete(w, [(0, 1), (1, 0)])  # a staircase: not 2-convex
rec = cancellation_check(inst, x, bad_y, z, m=2, fam=fam, h=h)
print("status with non-convex y:", rec.status)
print("  y-m-convex:", rec.hypotheses["y-m-convex"])

print("\n== hunting a counterexample with convexity ablated ==")
wz = Wedge.zero(1)
instz = make_set_cornet(wz, Repr.DISCRETE, integer=True)
universe = enumerate_z_subsets(4)
hit = ablation_hunt(instz, universe, ablate="convexity", convexity_test=order_convex_z)
assert hit is not None
x, y, z = hit
print("found x =", sorted(g[0] for g in x.generators))
print("      y =", sorted(g[0] for g in y.generators), "(not order-convex)")
print("      z =", sorted(g[0] for g in z.generators))
print("x+z <= y+z holds yet x <= y fails:",
      instz.leq(instz.add(x, z), instz.add(y, z)) and not instz.leq(x, y))

print("\n== with all hypotheses in place the same hunt exhausts ==")
clean = ablation_hunt(instz, universe, ablate="none", convexity_test=order_convex_z)
print("counterexample found:", clean is not None)
