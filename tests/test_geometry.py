"""Exact geometry kernels: vectors, wedge cones, and the integer simplex
checked against a brute-force rational grid and against the engines it
replaced (Fourier-Motzkin elimination, a Fraction-tableau simplex, and the
Gaussian elimination that once decided pointedness), which are kept below as
reference implementations."""

import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornets.geometry import (
    DimensionMismatch,
    join_orthant,
    lp_feasible,
    rat,
    vdot,
    vzero,
)
from cornets.wedges import NotPointedError, Point, Wedge, _line_witness, add_points
from grid_oracle import rational_grid, vsub

rationals = st.fractions(
    min_value=-8, max_value=8, max_denominator=4
)


def _vec_strategy(dim):
    return st.tuples(*([rationals] * dim))


class TestRat:
    def test_parsing(self):
        assert rat("3/4") == F(3, 4)
        assert rat(-2) == F(-2)
        assert rat(F(1, 3)) == F(1, 3)

    @pytest.mark.parametrize("bad", [True, False, 1.5, None, [1]])
    def test_rejects_non_rationals(self, bad):
        with pytest.raises(ValueError):
            rat(bad)


class TestVectors:
    @given(_vec_strategy(3), _vec_strategy(3))
    def test_add_sub_roundtrip(self, u, v):
        assert vsub(add_points(Point.make(u), Point.make(v)).coords, v) == u

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            add_points(Point.make((F(1),)), Point.make((F(1), F(2))))

    @given(_vec_strategy(2), _vec_strategy(2))
    def test_join_dominates_both(self, u, v):
        j = join_orthant(u, v)
        assert all(a <= b for a, b in zip(u, j))
        assert all(a <= b for a, b in zip(v, j))
        # Least upper bound in the coordinatewise order.
        assert all(max(a, b) == c for a, b, c in zip(u, v, j))


class TestCones:
    def test_orthant_membership(self):
        c = Wedge.orthant(2)
        assert c.contains((F(1), F(0)))
        assert not c.contains((F(-1), F(2)))
        assert c.interior_contains((F(1), F(2)))
        assert not c.interior_contains((F(1), F(0)))

    def test_zero_cone_is_origin_only(self):
        c = Wedge.zero(2)
        assert c.contains((F(0), F(0)))
        assert not c.contains((F(0), F(1)))
        assert not c.contains((F(-1), F(0)))

    def test_half_plane_not_pointed(self):
        with pytest.raises(NotPointedError):
            Wedge(2, ((F(1), F(0)),))
        witness = _line_witness(((F(1), F(0)),), 2)
        # Witness lies in the cone together with its negation.
        assert vdot((F(1), F(0)), witness) == 0
        assert witness != vzero(2)

    def test_orthant_and_zero_pointed(self):
        assert _line_witness(Wedge.orthant(3).rows, 3) is None
        assert _line_witness(Wedge.zero(1).rows, 1) is None

    def test_skewed_pointed_cone(self):
        # x >= 0 and y - x >= 0: pointed (contains no line).
        c = Wedge(2, ((F(1), F(0)), (F(-1), F(1))))
        assert _line_witness(c.rows, 2) is None

    def test_row_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            Wedge(2, ((F(1), F(0)), (F(1),)))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_orthant_and_zero_built_once(self, dim):
        assert Wedge.orthant(dim) is Wedge.orthant(dim)
        assert Wedge.zero(dim) is Wedge.zero(dim)
        units = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
        assert Wedge.orthant(dim) == Wedge.from_rows(units)
        assert Wedge.from_rows(units).is_orthant
        negated = [[-c for c in row] for row in units]
        assert Wedge.zero(dim) == Wedge.from_rows(units + negated)


# --- Pointedness ------------------------------------------------------------
#
# The Gaussian elimination that decided pointedness before the simplex did,
# kept as a reference: the kernel of the rows, or None when it is {0}.


def _ref_kernel_vector(rows, dim):
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
    x = [F(0)] * dim
    x[fc] = F(1)
    for i, pc in enumerate(pivots):
        x[pc] = -mat[i][fc]
    return tuple(x)


def _check_line_witness(rows, dim):
    ref, got = _ref_kernel_vector(rows, dim), _line_witness(rows, dim)
    assert (got is None) == (ref is None)
    if got is not None:
        assert got != vzero(dim)
        assert all(vdot(m, got) == 0 for m in rows)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda d: st.lists(
            st.tuples(*[st.integers(min_value=-3, max_value=3).map(F)] * d),
            min_size=1,
            max_size=4,
        ).map(lambda rows: (d, rows))
    )
)
def test_line_witness_matches_elimination(case):
    dim, rows = case
    _check_line_witness(rows, dim)


# The cones the test suites and the benchmark build, and three that contain
# a line: {x + y = 0, z >= 0} and all of Q^3, and the half-plane x >= 0.
SUITE_ROWS = [
    *(Wedge.orthant(d).rows for d in (1, 2, 3)),
    *(Wedge.zero(d).rows for d in (1, 2, 3)),
    ((1, 0, 0), (0, 1, 0), (1, 1, 1)),
    ((1, 0), (1, 1)),
    ((1, 0), (-1, 1)),
    ((1, 1, 0), (-1, -1, 0), (0, 0, 1)),
    ((1, 0),),
    ((0, 0, 0),),
]


@pytest.mark.parametrize("rows", SUITE_ROWS)
def test_line_witness_on_suite_cones(rows):
    _check_line_witness([tuple(F(c) for c in r) for r in rows], len(rows[0]))


# --- Reference engines ------------------------------------------------------
#
# The two engines lp_feasible used before the integer simplex, with the same
# arithmetic, minus the constraint cap that sent Fourier-Motzkin blowups to
# the simplex.  _fraction_simplex pivots exactly as lp_feasible does, so its
# witnesses must be equal; _fm_feasible is an independent decision procedure.


def _fm_normalize(ineq):
    coeffs, const = ineq
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
    return tuple(F(n) for n in ints[:-1]), F(ints[-1])


def _fm_feasible(ineqs, nvars):
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
    projected = set(_fm_normalize(i) for i in rest)
    for lc, lconst in lower:
        for uc, uconst in upper:
            # Eliminate x_k between a lower and an upper constraint.
            a, b = lc[k], uc[k]
            coeffs = tuple(a * uc[j] - b * lc[j] for j in range(k))
            const = a * uconst - b * lconst
            projected.add(_fm_normalize((coeffs, const)))
    sub = _fm_feasible(list(projected), k)
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
        xk = F(0)
    return sub + (xk,)


def _fraction_simplex(ineqs, nvars):
    """Phase-1 simplex on a Fraction tableau, Bland's rule."""
    nv = 2 * nvars
    rows_a, rhs = [], []
    for coeffs, const in ineqs:
        row = []
        for c in coeffs:
            row.append(c)
            row.append(-c)
        rows_a.append(row)
        rhs.append(const)
    m = len(rows_a)
    total = nv + m
    art_cols, table, basis = [], [], []
    for i in range(m):
        row = rows_a[i][:] + [F(0)] * m
        row[nv + i] = F(1)
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
        return vzero(nvars)
    width = total + n_art
    full = []
    for i in range(m):
        row = table[i][:-1] + [F(0)] * n_art + [table[i][-1]]
        if basis[i] >= total:
            row[total + (basis[i] - total)] = F(1)
        full.append(row)
    table = full
    cost = [F(0)] * (width + 1)
    for i in range(m):
        if basis[i] >= total:
            for j in range(width + 1):
                cost[j] -= table[i][j]
    for j in art_cols:
        cost[j] = F(0)
    while True:
        enter = next((j for j in range(total) if cost[j] < 0), None)
        if enter is None:
            break
        ratios = [
            (table[i][width] / table[i][enter], i)
            for i in range(m)
            if table[i][enter] > 0
        ]
        if not ratios:
            break
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
    vals = [F(0)] * nv
    for i, b in enumerate(basis):
        if b < nv:
            vals[b] = table[i][width]
    return tuple(vals[2 * j + 1] - vals[2 * j] for j in range(nvars))


ENGINES = (lp_feasible, _fm_feasible, _fraction_simplex)


def _random_system(rng, nv, rows):
    return [
        (
            tuple(F(rng.randint(-3, 3)) for _ in range(nv)),
            F(rng.randint(-4, 4), rng.choice((1, 2))),
        )
        for _ in range(rows)
    ]


def _satisfies(ineqs, w):
    return all(vdot(c, w) + d >= 0 for c, d in ineqs)


class TestFeasibility:
    def test_engines_agree_randomized(self):
        rng = random.Random(20240817)
        for _ in range(400):
            nv = rng.randint(1, 4)
            ineqs = _random_system(rng, nv, rng.randint(1, 6))
            lp, fm, sx = (engine(ineqs, nv) for engine in ENGINES)
            assert (fm is None) == (sx is None) == (lp is None), ineqs
            assert lp == sx, ineqs
            for w in (lp, fm, sx):
                if w is not None:
                    assert _satisfies(ineqs, w)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_witness_matches_reference_engines(self, data):
        # Rational entries with mixed denominators: the integer engine scales
        # the system to ints, and that scaling must not change any pivot.
        nv = data.draw(st.integers(min_value=1, max_value=5))
        entries = st.fractions(min_value=-6, max_value=6, max_denominator=6)
        ineqs = data.draw(
            st.lists(
                st.tuples(st.tuples(*([entries] * nv)), entries), min_size=1, max_size=8
            )
        )
        lp = lp_feasible(ineqs, nv)
        assert repr(lp) == repr(_fraction_simplex(ineqs, nv))
        if lp is not None:
            assert _satisfies(ineqs, lp)
        if nv <= 4:
            assert (lp is None) == (_fm_feasible(ineqs, nv) is None)

    def test_against_grid_oracle(self):
        # On 2-variable systems with small coefficients, any feasible region
        # that meets the quarter-integer grid is found by every engine.
        rng = random.Random(7)
        grid = list(rational_grid(2, 8, (1, 2, 4)))
        for _ in range(120):
            ineqs = _random_system(rng, 2, rng.randint(1, 4))
            grid_hit = any(_satisfies(ineqs, g) for g in grid)
            for engine in ENGINES:
                w = engine(ineqs, 2)
                if grid_hit:
                    assert w is not None and _satisfies(ineqs, w)
            # lp feasible but grid empty can legitimately happen (region
            # avoids the grid); the reverse cannot.

    def test_infeasible_interval(self):
        # x >= 1 together with x <= -3.
        ineqs = [((F(3),), F(-3)), ((F(-1),), F(-3))]
        for engine in ENGINES:
            assert engine(ineqs, 1) is None

    def test_equality_via_two_inequalities(self):
        # x + y = 1, x >= 0, y >= 0.
        ineqs = [
            ((F(1), F(1)), F(-1)),
            ((F(-1), F(-1)), F(1)),
            ((F(1), F(0)), F(0)),
            ((F(0), F(1)), F(0)),
        ]
        for engine in ENGINES:
            w = engine(ineqs, 2)
            assert w is not None and _satisfies(ineqs, w)
            assert w[0] + w[1] == 1

    def test_empty_system(self):
        assert lp_feasible([], 3) == vzero(3)

    def test_wide_systems(self):
        # 10 variables: far past where elimination is practical.
        nv = 10
        ineqs = [
            (tuple(F(1 if j == i else 0) for j in range(nv)), F(-1)) for i in range(nv)
        ]
        w = lp_feasible(ineqs, nv)
        assert w is not None and all(c >= 1 for c in w)
        assert w == _fraction_simplex(ineqs, nv)
        ineqs.append((tuple(F(-1) for _ in range(nv)), F(5)))  # sum <= 5
        assert lp_feasible(ineqs, nv) is None
        assert _fraction_simplex(ineqs, nv) is None

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_simplex_witnesses_are_exact(self, data):
        nv = data.draw(st.integers(min_value=1, max_value=3))
        rows = data.draw(
            st.lists(
                st.tuples(st.tuples(*([st.integers(-3, 3)] * nv)), st.integers(-4, 4)),
                min_size=1,
                max_size=5,
            )
        )
        ineqs = [(tuple(F(c) for c in cs), F(d)) for cs, d in rows]
        w = lp_feasible(ineqs, nv)
        if w is not None:
            assert _satisfies(ineqs, w)


# --- Nonnegative variables --------------------------------------------------
#
# With nonneg=True every variable takes one column and no sign row; the
# answer must be that of the free system with the unit rows x_j >= 0 added.


def _unit_ineqs(nv):
    return [(tuple(F(int(i == j)) for j in range(nv)), F(0)) for i in range(nv)]


class TestNonnegative:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_free_system_with_sign_rows(self, data):
        nv = data.draw(st.integers(min_value=1, max_value=5))
        entries = st.fractions(min_value=-6, max_value=6, max_denominator=6)
        ineqs = data.draw(
            st.lists(
                st.tuples(st.tuples(*([entries] * nv)), entries), min_size=0, max_size=8
            )
        )
        got = lp_feasible(ineqs, nv, nonneg=True)
        signed = ineqs + _unit_ineqs(nv)
        assert (got is None) == (lp_feasible(signed, nv) is None)
        # The sign rows make elimination blow up: 4 variables and 8 rows
        # plus the 4 sign rows have taken 28 s, so it sees smaller systems.
        if nv <= 3 or len(ineqs) <= 5:
            assert (got is None) == (_fm_feasible(signed, nv) is None)
        if got is not None:
            assert len(got) == nv and all(c >= 0 for c in got)
            assert _satisfies(ineqs, got)

    def test_sign_alone_decides(self):
        # x <= -1 is feasible for a free x and not for a nonnegative one.
        ineqs = [((-1,), -1)]
        assert lp_feasible(ineqs, 1) == (F(-1),)
        assert lp_feasible(ineqs, 1, nonneg=True) is None

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_nonnegative_constants_give_zero_witness(self, data):
        # y = 0 is feasible from the start: no artificial column, no pivot.
        # Free and nonnegative variables alike; the sign rows keep every
        # constant nonnegative for the free reference engine.
        nv = data.draw(st.integers(min_value=1, max_value=5))
        coeffs = st.tuples(*([st.fractions(min_value=-6, max_value=6, max_denominator=6)] * nv))
        consts = st.fractions(min_value=0, max_value=6, max_denominator=6)
        ineqs = data.draw(st.lists(st.tuples(coeffs, consts), min_size=1, max_size=8))
        for nonneg in (False, True):
            w = lp_feasible(ineqs, nv, nonneg=nonneg)
            assert w == vzero(nv)
            ref = _fraction_simplex(ineqs + (_unit_ineqs(nv) if nonneg else []), nv)
            assert repr(w) == repr(ref)


class TestInput:
    @pytest.mark.parametrize("nonneg", [False, True])
    @pytest.mark.parametrize("bad", [True, 1.5])
    def test_rejects_non_rationals(self, nonneg, bad):
        with pytest.raises(ValueError):
            lp_feasible([((bad,), -1)], 1, nonneg=nonneg)
        with pytest.raises(ValueError):
            lp_feasible([((1,), bad)], 1, nonneg=nonneg)

    @pytest.mark.parametrize("nonneg", [False, True])
    def test_parses_rational_strings(self, nonneg):
        # x / 2 - 1 >= 0: the least x in the first basis is 2.
        assert lp_feasible([(("1/2",), "-1")], 1, nonneg=nonneg) == (F(2),)

    @pytest.mark.parametrize("nonneg", [False, True])
    def test_int_and_fraction_input_agree(self, nonneg):
        ints = [((1, -2), 3), ((-1, 1), -1)]
        fracs = [(tuple(F(c) for c in cs), F(d)) for cs, d in ints]
        assert repr(lp_feasible(ints, 2, nonneg=nonneg)) == repr(
            lp_feasible(fracs, 2, nonneg=nonneg)
        )

    @pytest.mark.parametrize("nonneg", [False, True])
    def test_arity_checked(self, nonneg):
        with pytest.raises(DimensionMismatch):
            lp_feasible([((1, 2), 0)], 1, nonneg=nonneg)
