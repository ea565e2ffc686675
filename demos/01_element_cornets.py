"""Elements of Q^d ordered by a polyhedral wedge.

A wedge W is a pointed cone; it orders the space by x <= y iff y - x lies in
W.  With the star action equal to iterated addition this is the simplest
cornet.  One closed form, ``threshold``, decides every "for all large n"
question exactly: Archimedean elements and boundedness, on the boundary of
the wedge as well as inside it.
"""

from fractions import Fraction as F

from cornets import (
    Point,
    Wedge,
    check_cornet_laws,
    dot_mul,
    elem_arch_family,
    make_elem_cornet,
    threshold,
)

w = Wedge.orthant(2)
inst = make_elem_cornet(w)


def show(p: Point) -> str:
    """A point as its coordinates, such as (3/2, 2)."""
    return "(" + ", ".join(inst.serialize(p)) + ")"


print("== the coordinatewise order on Q^2 ==")
x, y = Point.make((1, 2)), Point.make((F(3, 2), 2))
print(f"{show(x)} <= {show(y)}:", inst.leq(x, y))
print(f"{show(y)} <= {show(x)}:", inst.leq(y, x))

print("\n== star equals iterated addition here ==")
print("3 * x  =", show(inst.star(3, x)))
print("3 . x  =", show(dot_mul(inst, 3, x)))

print("\n== exact Archimedean thresholds ==")
probe = Point.make((-5, -7))
for a in [Point.make((1, F(1, 2))), Point.make((1, 0))]:
    n0 = threshold(w, probe.coords, a.coords)  # least n0 with probe + n.a in W for n >= n0
    print(f"0 <= {show(probe)} + n*{show(a)} for all n >= n0:", n0 if n0 is not None else "never")

print("\n== boundedness against a family member ==")
x, a = Point.make((7, 3)), Point.make((1, 2))
_, n0 = inst.bounded_exact(x, a)  # x <= n.a for all n >= n0
print("x <= n*a from n0 =", n0)

print("\n== the cornet laws on 200 sampled cases ==")
reports = check_cornet_laws(inst, seed=0, cases=200)
print("all pass:", all(r.passed for r in reports))

print("\n== a family of shrinking interior elements ==")
fam = elem_arch_family(w, [F(1), F(1, 2), F(1, 4)])
for a in fam.elements:
    b = fam.witness(a)
    print(f"member {show(a)}, halving witness {show(b)} (b+b <= a: {inst.leq(inst.add(b, b), a)})")
