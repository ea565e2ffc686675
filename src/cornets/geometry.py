"""Exact rational vectors and linear feasibility kernels.

Everything here is computed over ``fractions.Fraction``; no floating point
is used anywhere, so all comparisons and memberships are exact decisions.
Vectors are plain tuples of Fractions, which keeps them hashable, sortable
and trivially immutable.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterable, Optional, Sequence

Rat = Fraction
Vec = tuple[Fraction, ...]


class DimensionMismatch(ValueError):
    """Raised when vectors of different dimensions are combined."""


def rat(value) -> Fraction:
    """Parse a rational from an int, a Fraction or a string like ``"3/4"``."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise ValueError(f"not a rational: {value!r}")


def vec(coords: Iterable) -> Vec:
    return tuple(rat(c) for c in coords)


def _check_dims(u: Vec, v: Vec) -> None:
    if len(u) != len(v):
        raise DimensionMismatch(f"dim {len(u)} vs {len(v)}")


def vadd(u: Vec, v: Vec) -> Vec:
    _check_dims(u, v)
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    _check_dims(u, v)
    return tuple(a - b for a, b in zip(u, v))


def vneg(u: Vec) -> Vec:
    return tuple(-a for a in u)


def vscale(c, u: Vec) -> Vec:
    c = rat(c)
    return tuple(c * a for a in u)


def vdot(u: Vec, v: Vec) -> Fraction:
    _check_dims(u, v)
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def vzero(dim: int) -> Vec:
    return (Fraction(0),) * dim


def divide(x: Vec, n: int) -> Vec:
    """Coordinatewise exact division; the unique y with n*y == x over Q."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return tuple(a / n for a in x)


def join_orthant(u: Vec, v: Vec) -> Vec:
    """Coordinatewise maximum (the staircase join used in orthant mode)."""
    _check_dims(u, v)
    return tuple(max(a, b) for a, b in zip(u, v))


def _kernel_vector(rows: Sequence[Vec], dim: int) -> Optional[Vec]:
    """A nonzero vector x with m . x == 0 for all rows, or None."""
    # Gaussian elimination over Q; the kernel of the row matrix.
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for col in range(dim):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pv = mat[r][col]
        mat[r] = [a / pv for a in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(dim) if c not in pivots]
    if not free:
        return None
    # Basis vector for the first free column.
    fc = free[0]
    x = [Fraction(0)] * dim
    x[fc] = Fraction(1)
    for i, pc in enumerate(pivots):
        x[pc] = -mat[i][fc]
    return tuple(x)


# --- Linear feasibility -----------------------------------------------------
#
# An affine inequality is a pair (coeffs, const) meaning coeffs . x + const >= 0.
# Fourier-Motzkin is used for small variable counts (it also yields witnesses
# cheaply by back-substitution); a phase-1 exact simplex takes over when the
# Minkowski-sum plumbing produces many convex multipliers.

Ineq = tuple[Vec, Fraction]

FM_VAR_LIMIT = 4
_FM_CONSTRAINT_CAP = 20000


def _normalize(ineq: Ineq) -> Ineq:
    coeffs, const = ineq
    from math import gcd

    nums = [c.numerator for c in coeffs] + [const.numerator]
    dens = [c.denominator for c in coeffs] + [const.denominator]
    mult = 1
    for d in dens:
        mult = mult * d // gcd(mult, d)
    ints = [n * (mult // d) for n, d in zip(nums, dens)]
    g = 0
    for n in ints:
        g = gcd(g, abs(n))
    if g > 1:
        ints = [n // g for n in ints]
    return tuple(Fraction(n) for n in ints[:-1]), Fraction(ints[-1])


def _fm_feasible(ineqs: list[Ineq], nvars: int) -> Optional[Vec]:
    if nvars == 0:
        if all(const >= 0 for _, const in ineqs):
            return ()
        return None
    k = nvars - 1
    lower, upper, rest = [], [], []
    for coeffs, const in ineqs:
        a = coeffs[k]
        if a > 0:
            lower.append((coeffs, const))
        elif a < 0:
            upper.append((coeffs, const))
        else:
            rest.append((coeffs[:k], const))
    projected = set(_normalize(i) for i in rest)
    for lc, lconst in lower:
        for uc, uconst in upper:
            # Eliminate x_k between a lower and an upper constraint.
            a, b = lc[k], uc[k]
            coeffs = tuple(a * uc[j] - b * lc[j] for j in range(k))
            const = a * uconst - b * lconst
            projected.add(_normalize((coeffs, const)))
            if len(projected) > _FM_CONSTRAINT_CAP:
                raise RuntimeError("Fourier-Motzkin constraint blowup; use simplex")
    sub = _fm_feasible([(c, d) for c, d in projected], k)
    if sub is None:
        return None
    # Back-substitute a value for x_k.
    lows = [-(vdot(c[:k], sub) + d) / c[k] for c, d in lower]
    highs = [-(vdot(c[:k], sub) + d) / c[k] for c, d in upper]
    if lows:
        xk = max(lows)
    elif highs:
        xk = min(highs)
    else:
        xk = Fraction(0)
    return sub + (xk,)


def _simplex_feasible(ineqs: list[Ineq], nvars: int) -> Optional[Vec]:
    """Phase-1 exact simplex for coeffs . x + const >= 0 with free x.

    Free variables are split into positive and negative parts; Bland's rule
    guarantees termination.
    """
    # Convert to A y <= b with y >= 0 (y has 2*nvars entries).
    nv = 2 * nvars
    rows_a: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for coeffs, const in ineqs:
        # coeffs . x + const >= 0  <=>  -coeffs . x <= const, with
        # x_j = v_j - u_j and columns ordered (u_j, v_j).
        row = []
        for c in coeffs:
            row.append(c)
            row.append(-c)
        rows_a.append(row)
        rhs.append(const)
    m = len(rows_a)
    # Tableau with slacks and artificials where needed.
    total = nv + m  # structural + slack columns
    art_cols: list[int] = []
    table: list[list[Fraction]] = []
    basis: list[int] = []
    for i in range(m):
        row = rows_a[i][:] + [Fraction(0)] * m
        row[nv + i] = Fraction(1)
        b = rhs[i]
        if b < 0:
            row = [-a for a in row]
            b = -b
            art_cols.append(total + len(art_cols))
            basis.append(art_cols[-1])
        else:
            basis.append(nv + i)
        table.append(row + [b])
    n_art = len(art_cols)
    if n_art == 0:
        # All right-hand sides nonnegative: y = 0 is already feasible.
        return vzero(nvars)
    width = total + n_art
    # Insert artificial columns.
    full: list[list[Fraction]] = []
    for i in range(m):
        row = table[i][:-1] + [Fraction(0)] * n_art + [table[i][-1]]
        if basis[i] >= total:
            row[total + (basis[i] - total)] = Fraction(1)
        full.append(row)
    table = full
    # Objective: minimize sum of artificials -> cost row = -sum(art rows).
    cost = [Fraction(0)] * (width + 1)
    for i in range(m):
        if basis[i] >= total:
            for j in range(width + 1):
                cost[j] -= table[i][j]
    for j in art_cols:
        cost[j] = Fraction(0)  # basic artificials have zero reduced cost
    while True:
        # Artificial columns never re-enter the basis.
        enter = next((j for j in range(total) if cost[j] < 0), None)
        if enter is None:
            break
        ratios = [
            (table[i][width] / table[i][enter], i)
            for i in range(m)
            if table[i][enter] > 0
        ]
        if not ratios:
            break  # unbounded phase-1 cannot happen; defensive
        _, leave = min(ratios, key=lambda t: (t[0], basis[t[1]]))
        piv = table[leave][enter]
        table[leave] = [a / piv for a in table[leave]]
        for i in range(m):
            if i != leave and table[i][enter] != 0:
                f = table[i][enter]
                table[i] = [a - f * b for a, b in zip(table[i], table[leave])]
        f = cost[enter]
        cost = [a - f * b for a, b in zip(cost, table[leave])]
        basis[leave] = enter
    if -cost[width] != 0:
        return None
    return _extract(basis, table, nvars, nv)


def _extract(basis: list[int], table: list[list[Fraction]], nvars: int, nv: int) -> Vec:
    vals = [Fraction(0)] * nv
    width = len(table[0]) - 1
    for i, b in enumerate(basis):
        if b < nv:
            vals[b] = table[i][width]
    # y was the split (negative part, positive part) of each free variable.
    return tuple(vals[2 * j + 1] - vals[2 * j] for j in range(nvars))


def lp_feasible(ineqs: Sequence[Ineq], nvars: int) -> Optional[Vec]:
    """Exact feasibility of a system coeffs . x + const >= 0.

    Returns a rational witness when feasible, None otherwise.  An empty
    system is feasible with the zero witness.
    """
    ineqs = [(vec(c), rat(d)) for c, d in ineqs]
    for coeffs, _ in ineqs:
        if len(coeffs) != nvars:
            raise DimensionMismatch("inequality arity differs from variable count")
    if not ineqs:
        return vzero(nvars)
    if nvars <= FM_VAR_LIMIT:
        try:
            return _fm_feasible(ineqs, nvars)
        except RuntimeError:
            pass
    return _simplex_feasible(ineqs, nvars)


def rational_grid(nvars: int, num_range: int, dens: Sequence[int]) -> Iterable[Vec]:
    """All points with numerators in [-num_range, num_range] and the given
    denominators; the brute-force oracle grid for small feasibility checks."""
    axis = sorted(
        {Fraction(n, d) for d in dens for n in range(-num_range, num_range + 1)}
    )
    return product(axis, repeat=nvars)
