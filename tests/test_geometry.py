"""Exact geometry kernels: vectors, wedge cones, and the two feasibility
engines cross-checked against each other and against a brute-force rational
grid."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornets.geometry import (
    DimensionMismatch,
    _fm_feasible,
    _kernel_vector,
    _simplex_feasible,
    divide,
    join_orthant,
    lp_feasible,
    rat,
    rational_grid,
    vadd,
    vdot,
    vscale,
    vsub,
    vzero,
)
from cornets.wedges import NotPointedError, Wedge

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
        assert vsub(vadd(u, v), v) == u

    @given(_vec_strategy(2), st.integers(min_value=1, max_value=9))
    def test_divide_inverts_scaling(self, u, n):
        assert vscale(n, divide(u, n)) == u

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            vadd((F(1),), (F(1), F(2)))

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
        witness = _kernel_vector(((F(1), F(0)),), 2)
        # Witness lies in the cone together with its negation.
        assert vdot((F(1), F(0)), witness) == 0
        assert witness != vzero(2)

    def test_orthant_and_zero_pointed(self):
        assert _kernel_vector(Wedge.orthant(3).rows, 3) is None
        assert _kernel_vector(Wedge.zero(1).rows, 1) is None

    def test_skewed_pointed_cone(self):
        # x >= 0 and y - x >= 0: pointed (contains no line).
        c = Wedge(2, ((F(1), F(0)), (F(-1), F(1))))
        assert _kernel_vector(c.rows, 2) is None

    def test_row_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            Wedge(2, ((F(1), F(0)), (F(1),)))


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
            fm = _fm_feasible(ineqs, nv)
            sx = _simplex_feasible(ineqs, nv)
            assert (fm is None) == (sx is None), ineqs
            for w in (fm, sx):
                if w is not None:
                    assert _satisfies(ineqs, w)

    def test_against_grid_oracle(self):
        # On 2-variable systems with small coefficients, any feasible region
        # that meets the quarter-integer grid is found by both engines.
        rng = random.Random(7)
        grid = list(rational_grid(2, 8, (1, 2, 4)))
        for _ in range(120):
            ineqs = _random_system(rng, 2, rng.randint(1, 4))
            grid_hit = any(_satisfies(ineqs, g) for g in grid)
            lp = lp_feasible(ineqs, 2)
            if grid_hit:
                assert lp is not None and _satisfies(ineqs, lp)
            # lp feasible but grid empty can legitimately happen (region
            # avoids the grid); the reverse cannot.

    def test_infeasible_interval(self):
        # x >= 1 together with x <= -3.
        ineqs = [((F(3),), F(-3)), ((F(-1),), F(-3))]
        assert _fm_feasible(ineqs, 1) is None
        assert _simplex_feasible(ineqs, 1) is None

    def test_equality_via_two_inequalities(self):
        # x + y = 1, x >= 0, y >= 0.
        ineqs = [
            ((F(1), F(1)), F(-1)),
            ((F(-1), F(-1)), F(1)),
            ((F(1), F(0)), F(0)),
            ((F(0), F(1)), F(0)),
        ]
        for engine in (_fm_feasible, _simplex_feasible):
            w = engine(ineqs, 2)
            assert w is not None and _satisfies(ineqs, w)
            assert w[0] + w[1] == 1

    def test_empty_system(self):
        assert lp_feasible([], 3) == vzero(3)

    def test_wide_systems_use_simplex(self):
        # 10 variables exceeds the elimination limit; simplex must cope.
        nv = 10
        ineqs = [
            (tuple(F(1 if j == i else 0) for j in range(nv)), F(-1)) for i in range(nv)
        ]
        w = lp_feasible(ineqs, nv)
        assert w is not None and all(c >= 1 for c in w)
        ineqs.append((tuple(F(-1) for _ in range(nv)), F(5)))  # sum <= 5
        assert lp_feasible(ineqs, nv) is None

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
        w = _simplex_feasible(ineqs, nv)
        if w is not None:
            assert _satisfies(ineqs, w)
