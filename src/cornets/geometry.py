"""Exact rational vectors, the package's one number format, and one exact
linear feasibility engine.

Vectors are plain tuples of exact rationals (hashable, sortable, immutable):
``fractions.Fraction`` at the package's API, ``int`` inside; the vector
helpers work on either.  Inside, rational vectors are held as rows of ``int``
numerators over one positive denominator, reduced so that gcd(den, every
numerator) == 1: ``sets.UpperSet``'s generators and ``wedges.Point``'s one
row.  ``over_lcm`` builds that form (the LP reads its system through it, not
reduced), ``reduced`` divides out the gcd, ``over_common`` puts two operands
over one denominator and ``star_scaled`` multiplies by n; every decision of
the package is invariant under such a positive scaling, so it compares ints.

``lp_feasible`` decides a system of affine inequalities with a phase-1
simplex that pivots on integers and returns an exact rational witness.  Its
variables are free, or all nonnegative with ``nonneg=True``, which gives each
one a single column and no sign row.  ``int`` input is read as it is, and
anything else through ``rat``.  It is the package's one exact linear solver:
polytopic membership and hull pruning ask it (for nonnegative convex
multipliers), and so does ``wedges.Wedge`` when it checks that a cone is
pointed (for a free kernel vector).
No floating point is used anywhere, so all comparisons and memberships are
exact decisions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

Vec = tuple[Fraction, ...]
Rows = tuple[tuple[int, ...], ...]


class DimensionMismatch(ValueError):
    """Raised when vectors of different dimensions are combined."""


def rat(value) -> Fraction:
    """Parse a rational from an int, a Fraction or a string like ``"3/4"``."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise ValueError(f"not a rational: {value!r}")


def _check_dims(u: Vec, v: Vec) -> None:
    if len(u) != len(v):
        raise DimensionMismatch(f"dim {len(u)} vs {len(v)}")


def vneg(u: Vec) -> Vec:
    return tuple(-a for a in u)


def vscale(c, u: Vec) -> Vec:
    c = rat(c)
    return tuple(c * a for a in u)


def vdot(u: Vec, v: Vec) -> Fraction:
    _check_dims(u, v)
    # v's coordinates on the left: a Fraction point times an int wedge row
    # then takes Fraction's own int fast path.
    return sum(map(mul, v, u))


def vzero(dim: int) -> Vec:
    return (Fraction(0),) * dim


def join_orthant(u: Vec, v: Vec) -> Vec:
    """Coordinatewise maximum (the staircase join used in orthant mode)."""
    _check_dims(u, v)
    return tuple(max(a, b) for a, b in zip(u, v))


# --- The exact number format ------------------------------------------------


def over_lcm(rows: Sequence[Sequence]) -> tuple[int, Rows]:
    """Exact rows (``int``s and ``Fraction``s) as ``int`` numerators over the
    lcm of all their denominators."""
    den = lcm(*(c.denominator for r in rows for c in r))
    return den, tuple([tuple([c.numerator * (den // c.denominator) for c in r]) for r in rows])


def reduced(den: int, rows: Rows) -> tuple[int, Rows]:
    """rows / den with den and every numerator divided by their gcd,
    returned unchanged once the running gcd reaches 1."""
    g = den
    for r in rows:
        g = gcd(g, *r)
        if g == 1:
            return den, rows
    return den // g, tuple([tuple([c // g for c in r]) for r in rows])


def _rescaled(rows: Rows, k: int) -> Rows:
    """rows times k; at k == 1 the rows themselves, not a copy."""
    if k == 1:
        return rows
    return tuple([tuple([k * c for c in r]) for r in rows])


def over_common(den_a: int, a: Rows, den_b: int, b: Rows) -> tuple[int, Rows, Rows]:
    """The numerators of a / den_a and b / den_b over the lcm of their
    denominators; equal denominators rescale nothing."""
    if den_a == den_b:
        return den_a, a, b
    den = lcm(den_a, den_b)
    return den, _rescaled(a, den // den_a), _rescaled(b, den // den_b)


def star_scaled(n: int, den: int, rows: Rows) -> tuple[int, Rows]:
    """n times rows / den; dividing n and den by their gcd keeps a reduced
    operand reduced."""
    g = gcd(n, den)
    return den // g, _rescaled(rows, n // g)


# --- Linear feasibility -----------------------------------------------------
#
# An affine inequality is a pair (coeffs, const) meaning coeffs . x + const >= 0.
# One engine decides every system: a phase-1 simplex with Bland's rule that
# pivots on Python ints (Edmonds' integer-preserving pivots), so no Fraction
# is built until the witness is read off the final tableau.

Ineq = tuple[Vec, Fraction]

# perfbench/tracer.py reads this name to split its lp.fm and lp.simplex
# counts; at 0 every call counts as simplex, the one engine there is.
FM_VAR_LIMIT = 0


def _simplex_feasible(ineqs: Sequence[Ineq], nvars: int, nonneg: bool) -> Optional[Vec]:
    """Phase-1 exact simplex for coeffs . x + const >= 0, x free or x >= 0.

    Free variables are split into positive and negative parts; nonnegative
    ones keep one column each.  Bland's rule guarantees termination.  The
    tableau holds ints: every entry is D times its rational value, where
    D > 0 is the last pivot (the determinant of the basis), so each pivot
    divides exactly by the previous D.
    """
    # A y <= b with y >= 0: coeffs . x + const >= 0 <=> -coeffs . x <= const.
    # A free x_j = v_j - u_j takes the columns (u_j, v_j); a nonnegative x_j
    # is its own column.
    nv = nvars if nonneg else 2 * nvars
    m = len(ineqs)
    total = nv + m  # structural + slack columns; the right-hand side is last
    table: list[list[int]] = []
    basis: list[int] = []
    n_art = 0
    # One positive factor for the whole system keeps the phase-1 objective
    # (the plain sum of the artificials) and hence every pivot the same as
    # on the rational system; a factor per row would weight the artificials
    # unequally.
    _, rows = over_lcm([(*coeffs, const) for coeffs, const in ineqs])
    for i, ints in enumerate(rows):
        if nonneg:
            row = [-c for c in ints[:-1]] + [0] * m + [ints[-1]]
        else:
            row = [a for c in ints[:-1] for a in (c, -c)] + [0] * m + [ints[-1]]
        row[nv + i] = 1
        if row[-1] < 0:
            # An artificial column total + k starts basic here.  Artificials
            # never re-enter the basis, so their columns are not stored.
            row = [-a for a in row]
            basis.append(total + n_art)
            n_art += 1
        else:
            basis.append(nv + i)
        table.append(row)
    # Objective: minimize the sum of artificials -> cost row = -sum(art rows).
    # Without artificials (every constant nonnegative) the row is zero, the
    # loop ends at once and the slack basis reads off y = 0.
    cost = [0] * (total + 1)
    for row, b in zip(table, basis):
        if b >= total:
            cost = [c - a for c, a in zip(cost, row)]
    d = 1
    while True:
        enter = next((j for j in range(total) if cost[j] < 0), None)
        if enter is None:
            break
        # Least ratio rhs / entry over positive entries, lowest basis on ties;
        # ratios are compared by cross-multiplying.
        leave = None
        for i, row in enumerate(table):
            a = row[enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                lhs, rhs = row[total] * table[leave][enter], table[leave][total] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            break  # unbounded phase-1 cannot happen; defensive
        prow = table[leave]
        p = prow[enter]
        for i, row in enumerate(table):
            if i != leave:
                f = row[enter]
                table[i] = [(a * p - f * b) // d for a, b in zip(row, prow)]
        f = cost[enter]
        cost = [(a * p - f * b) // d for a, b in zip(cost, prow)]
        basis[leave] = enter
        d = p
    if cost[total] != 0:
        return None
    vals = [Fraction(0)] * nv
    for row, b in zip(table, basis):
        if b < nv:
            vals[b] = Fraction(row[total], d)
    if nonneg:
        return tuple(vals)
    # y was the split (negative part, positive part) of each free variable.
    return tuple(vals[2 * j + 1] - vals[2 * j] for j in range(nvars))


def _exact(value):
    """An int as it is (it is its own numerator over 1), anything else
    through ``rat``, which rejects bools and floats."""
    return value if type(value) is int else rat(value)


def lp_feasible(ineqs: Sequence[Ineq], nvars: int, nonneg: bool = False) -> Optional[Vec]:
    """Exact feasibility of a system coeffs . x + const >= 0.

    The variables are free, or all nonnegative when ``nonneg`` is true.
    Returns a rational witness when feasible, None otherwise.  An empty
    system is feasible with the zero witness.
    """
    ineqs = [(tuple(map(_exact, c)), _exact(d)) for c, d in ineqs]
    for coeffs, _ in ineqs:
        if len(coeffs) != nvars:
            raise DimensionMismatch("inequality arity differs from variable count")
    return _simplex_feasible(ineqs, nvars, nonneg)
