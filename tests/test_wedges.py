"""Wedges over Q^d and the element cornet: order structure, pointedness
enforcement, the closed-form threshold behind every exact Archimedean and
boundedness decision, checked against brute force and against the
interior-only deciders it replaced, and the integer points against the
Fraction-tuple element cornet they replaced."""

import random
import copy
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornets.core import (
    CornetInstance,
    Horizon,
    Verdict,
    VerdictRecord,
    case_rng,
    check_cornet_laws,
    check_lemma_identities,
    is_archimedean,
)
from cornets.geometry import DimensionMismatch, reduced, vdot, vneg, vscale, vzero
from cornets.sets import discrete, msum
from cornets import wedges as wedges_module
from cornets.wedges import (
    NotPointedError,
    Point,
    Wedge,
    _canonical,
    _left_inverse,
    _line_witness,
    _selection_inverse,
    elem_arch_family,
    make_elem_cornet,
    threshold,
)
from grid_oracle import vadd, vsub

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)
vec2 = st.tuples(rationals, rationals)

# Wedges the threshold is checked on: the orthant, the zero wedge and two
# custom cones.
THRESHOLD_WEDGES = [
    Wedge.orthant(2),
    Wedge.zero(2),
    Wedge.from_rows([[1, 0], [-1, 1]]),
    Wedge.from_rows([[1, 0], [1, 1]]),
]


def _ref_row_threshold(w, u, x):
    """Reference: threshold read row by row through dot products, which the
    orthant now skips by reading the coordinates."""
    n0 = 1
    for m in w.rows:
        a, b = vdot(m, u), vdot(m, x)
        if b < 0 or (b == 0 and a < 0):
            return None
        if a < 0:
            n0 = max(n0, -(a // b))
    return n0


# Int, Fraction and mixed coordinates, as sets and points pass them.
mixed = st.one_of(st.integers(min_value=-6, max_value=6), rationals)


def _ref_interior_archimedean(w, x, probes, n_max=12):
    """Reference: the element Archimedean test that threshold replaced, exact
    for strictly interior x and a horizon search otherwise."""
    details: dict = {"n0": {}}
    if w.interior_contains(x) and w.rows:
        for idx, u in enumerate(probes):
            n0 = 1
            for m in w.rows:
                mu, mx = vdot(m, u), vdot(m, x)
                if mu < 0:
                    need = -mu / mx
                    n0 = max(n0, need.__ceil__())
            details["n0"][idx] = n0
        return VerdictRecord(Verdict.ANALYTICALLY_VERIFIED, details)
    for idx, u in enumerate(probes):
        found = None
        for n0 in range(1, n_max + 1):
            if all(w.contains(vadd(u, vscale(n, x))) for n in range(n0, n_max + 1)):
                found = n0
                break
        if found is None:
            details["refuting_probe"] = u
            return VerdictRecord(Verdict.REFUTED_AT_HORIZON, details)
        details["n0"][idx] = found
    return VerdictRecord(Verdict.VERIFIED_AT_HORIZON, details)


def _ref_wbounded_check(w, x, a):
    """Reference: the boundedness threshold that threshold replaced, for
    strictly interior a only."""
    if not w.interior_contains(a) or not w.rows:
        raise ValueError("reference element must be strictly interior")
    n0 = 1
    for m in w.rows:
        mx, ma = vdot(m, x), vdot(m, a)
        if mx > 0:
            n0 = max(n0, (mx / ma).__ceil__())
    return VerdictRecord(Verdict.ANALYTICALLY_VERIFIED, {"n0": n0})


class TestWedgeConstruction:
    def test_half_plane_rejected(self):
        with pytest.raises(NotPointedError):
            Wedge.from_rows([[1, 0]])

    def test_custom_pointed_wedge(self):
        w = Wedge.from_rows([[1, 0], [-1, 1]])  # x >= 0, y >= x
        assert w.contains((F(1), F(2)))
        assert not w.contains((F(2), F(1)))

    def test_orthant_and_zero_flags(self):
        assert Wedge.orthant(3).is_orthant
        assert Wedge.zero(2).is_zero

    def test_flags_read_off_the_rows(self):
        orthant_spellings = [
            [[1, 0], [0, 1]],
            [[0, 1], [1, 0]],  # reordered
            [["2", "0"], ["0", "1"]],  # scaled
            [["0", "1/3"], ["5/2", "0"], [1, 0]],  # reordered, scaled, repeated
        ]
        for rows in orthant_spellings:
            w = Wedge.from_rows(rows)
            assert w == Wedge.orthant(2) and hash(w) == hash(Wedge.orthant(2)), rows
            assert w.rows == Wedge.orthant(2).rows
            assert w.is_orthant and not w.is_zero
        zero_spellings = [
            [[1, 0], [-1, 0], [0, 1], [0, -1]],
            [[0, -1], [1, 0], [0, 1], [-1, 0]],  # reordered
            [["3", "0"], ["-1/2", "0"], ["0", "7"], ["0", "-2"]],  # scaled
        ]
        for rows in zero_spellings:
            z = Wedge.from_rows(rows)
            assert z == Wedge.zero(2) and hash(z) == hash(Wedge.zero(2)), rows
            assert z.is_zero and not z.is_orthant
        assert not Wedge.from_rows([[1, 0], [-1, 1]]).is_orthant

    def test_zero_rows_dropped(self):
        # A zero row constrains nothing: with one, the orthant is still the
        # orthant (and sets over the two spellings add), and alone it is
        # still no pointed cone.
        w = Wedge.from_rows([[1, 0], [0, 1], [0, 0]])
        assert w == Wedge.orthant(2) and w.is_orthant
        assert msum(discrete(Wedge.orthant(2), [(0, 1)]), discrete(w, [(1, 0)])) == discrete(
            w, [(1, 1)]
        )
        with pytest.raises(NotPointedError):
            Wedge.from_rows([[0, 0]])

    def test_no_rows_rejected(self):
        # An empty row list has no dimension to read off.
        with pytest.raises(ValueError, match="at least one row"):
            Wedge.from_rows([])

    def test_rows_are_coprime_ints(self):
        w = Wedge.from_rows([["1/2", "3/4"], ["0", "2"]])
        assert w.rows == ((2, 3), (0, 1))
        assert all(type(c) is int for row in w.rows for c in row)

    def test_rational_string_rows(self):
        w = Wedge.from_rows([["1/2", "0"], ["0", "2"]])
        assert w.contains((F(1), F(0)))

    def test_not_pointed_message_names_the_line(self):
        # The inverse LPs find that a line exists; the message names the
        # kernel vector that _line_witness gives.
        for rows in ([[1, 0]], [[1, 1, 0], [0, 1, 1]], [[1, -1], [-1, 1]]):
            with pytest.raises(NotPointedError) as err:
                Wedge.from_rows(rows)
            w_rows = _canonical([tuple(F(c) for c in r) for r in rows])
            assert str(err.value) == f"cone contains the line through {_line_witness(w_rows, len(rows[0]))}"

    def test_orthant_builds_without_an_lp(self, monkeypatch):
        calls = []
        monkeypatch.setattr(wedges_module, "lp_feasible", lambda *args: calls.append(args))
        assert Wedge.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 3]]).is_orthant
        assert calls == []


# Wedges with a left inverse to check: square, with redundant rows, and the
# zero wedge, whose values repeat each coordinate negated.
INVERSE_WEDGES = THRESHOLD_WEDGES + [
    Wedge.from_rows([[2, 1], [-1, 2]]),
    Wedge.from_rows([[1, 0, 0], [0, 1, 0], [1, 1, 1]]),
    Wedge.from_rows([[1, 0], [0, 1], [1, 1]]),
    Wedge.zero(1),
    Wedge.zero(3),
]


class TestLeftInverse:
    @pytest.mark.parametrize("w", INVERSE_WEDGES)
    def test_inverse_times_rows_is_identity(self, w):
        units = tuple(sorted(tuple(int(i == j) for j in range(w.dim)) for i in range(w.dim)))
        assert w.coords(1, tuple(sorted(w.values(e) for e in units))) == (1, units)
        if w._inverse is not None:
            den, inverse = w._inverse
            identity = tuple(tuple(den * int(i == j) for j in range(w.dim)) for i in range(w.dim))
            assert tuple(tuple(vdot(r, col) for col in zip(*w.rows)) for r in inverse) == identity

    @given(st.data())
    def test_coords_map_values_back(self, data):
        w = data.draw(st.sampled_from(INVERSE_WEDGES))
        points = data.draw(st.lists(st.tuples(*[st.integers(-9, 9)] * w.dim), min_size=1, max_size=4))
        den = data.draw(st.integers(1, 12))
        # Sets hand their values over reduced and in order.
        vden, values = reduced(den, tuple(sorted({w.values(p) for p in points})))
        cden, coords = w.coords(vden, values)
        assert [tuple(F(c, cden) for c in p) for p in coords] == sorted({tuple(F(c, den) for c in p) for p in points})
        assert gcd(cden, *(c for p in coords for c in p)) == 1


    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_selection_matches_lp_inverse(self, data):
        # Every unit row among others: the selection is a left inverse, and
        # coords through it give the bytes that the LP's inverse gives.
        dim = data.draw(st.integers(1, 4))
        extra = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim), min_size=1, max_size=3))
        units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
        w = Wedge(dim, tuple(data.draw(st.permutations(units + extra))))
        selection = _selection_inverse(w.rows, dim)
        lp = _left_inverse(w.rows, dim)
        identity = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
        for den, inverse in (selection, lp):
            assert tuple(tuple(F(vdot(r, col), den) for col in zip(*w.rows)) for r in inverse) == identity
        assert w._inverse == (None if w.rows[:dim] == tuple(units) else selection)
        by_lp = copy.copy(w)
        object.__setattr__(by_lp, "_inverse", lp)
        points = data.draw(st.lists(st.tuples(*[st.integers(-9, 9)] * dim), min_size=1, max_size=4))
        vden, values = reduced(data.draw(st.integers(1, 12)), tuple(sorted({w.values(p) for p in points})))
        assert w.coords(vden, values) == by_lp.coords(vden, values)

    def test_unit_rows_elsewhere_build_without_an_lp(self, monkeypatch):
        calls = []
        monkeypatch.setattr(wedges_module, "lp_feasible", lambda *args: calls.append(args))
        dim = 32
        rows = [[int(i == j) for j in range(dim)] for i in range(dim)] + [[1] * dim]
        w = Wedge.from_rows(rows)
        assert w.rows[0] == (1,) * dim and w._inverse is not None
        assert calls == []
        assert w.coords(1, (w.values(tuple(range(dim))),)) == (1, (tuple(range(dim)),))
        assert _selection_inverse(((1, 1), (0, 1)), 2) is None


class TestWedgeOrder:
    @given(st.data())
    def test_order_iff_difference_in_wedge(self, data):
        # Read row by row, not through Wedge.values, which leq itself uses.
        w = data.draw(
            st.sampled_from(THRESHOLD_WEDGES + [Wedge.orthant(1), Wedge.orthant(3)])
        )
        point = st.tuples(*[rationals] * w.dim)
        x = data.draw(point)
        y = data.draw(st.one_of(st.just(x), point))
        assert w.leq(x, y) == all(vdot(m, vsub(y, x)) >= 0 for m in w.rows)

    @given(st.data())
    def test_orthant_order_on_int_and_fraction_points(self, data):
        w = Wedge.orthant(data.draw(st.integers(min_value=1, max_value=3)))
        point = st.tuples(*[mixed] * w.dim)
        x = data.draw(point)
        y = data.draw(st.one_of(st.just(x), point, point.map(lambda d: vadd(x, d))))
        assert w.leq(x, y) == all(a <= b for a, b in zip(x, y))

    @given(st.data())
    def test_height_increases_along_the_order(self, data):
        # The sum of the values is the height that orders the dominance pass
        # in sets.
        w = data.draw(st.sampled_from(THRESHOLD_WEDGES))
        point = st.tuples(*[mixed] * w.dim)
        h = data.draw(point)
        g = data.draw(st.one_of(point, point.map(lambda d: vadd(h, d))))
        if h != g and w.leq(h, g):
            assert sum(w.values(h)) < sum(w.values(g))

    def test_values_are_the_row_dot_products(self):
        w = Wedge.from_rows([[1, 0], [-1, 1]])
        x = (F(1, 2), 3)
        assert w.values(x) == (F(1, 2), F(5, 2))
        assert w == Wedge.from_rows([[-1, 1], [2, 0]])
        assert Wedge.orthant(2).values(x) is x
        for v in (w, Wedge.orthant(2)):
            with pytest.raises(DimensionMismatch):
                v.values((1, 2, 3))

    def test_orthant_order_rejects_other_dimensions(self):
        w = Wedge.orthant(2)
        with pytest.raises(DimensionMismatch):
            w.leq((F(0), F(0), F(0)), (F(1), F(1), F(1)))
        with pytest.raises(DimensionMismatch):
            w.leq((F(0), F(0)), (F(1), F(1), F(1)))

    @given(vec2)
    def test_zero_wedge_order_is_equality(self, x):
        wz = Wedge.zero(2)
        assert wz.leq(x, x)
        assert not wz.leq(x, (x[0] + 1, x[1]))


class TestInteriorThresholds:
    W = Wedge.orthant(2)

    def test_interior_archimedean_exact(self):
        x = (F(1), F(1, 2))
        assert threshold(self.W, (F(-5), F(-7)), x) == 14
        assert threshold(self.W, (F(3), F(-1)), x) == 2

    def test_boundary_threshold_is_exact(self):
        x = (F(1), F(0))
        assert threshold(self.W, (F(-1), F(-1)), x) is None
        inst = make_elem_cornet(self.W)
        rec = is_archimedean(inst, Point.make(x), Horizon(10, (Point.make((-1, -1)),)))
        assert rec.verdict is Verdict.ANALYTICALLY_REFUTED
        assert rec.details["refuting_probe"] == ["-1", "-1"]

    def test_wbounded_threshold_exact(self):
        a = (F(1), F(2))
        x = (F(7), F(3))
        n0 = threshold(self.W, vneg(x), a)
        assert n0 == 7
        assert self.W.leq(x, (n0 * a[0], n0 * a[1]))
        assert not self.W.leq(x, ((n0 - 1) * a[0], (n0 - 1) * a[1]))

    def test_boundary_reference_is_exact(self):
        # x <= n.(1, 0) never holds for x = (1, 1), and holds from n = 1 on
        # for x = (1, -1); the interior-only decider refused both.
        a = (F(1), F(0))
        assert threshold(self.W, (F(-1), F(-1)), a) is None
        assert threshold(self.W, (F(-1), F(1)), a) == 1
        inst = make_elem_cornet(self.W)
        assert inst.bounded_exact(Point.make((1, 1)), Point.make(a)) == (False, None)
        assert inst.bounded_exact(Point.make((1, -1)), Point.make(a)) == (True, 1)


class TestThresholdDifferential:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(THRESHOLD_WEDGES), vec2, vec2)
    def test_against_brute_force(self, w, u, x):
        n0 = threshold(w, u, x)
        member = lambda n: w.contains(vadd(u, vscale(n, x)))
        if n0 is None:
            assert not member(10**6)
        else:
            assert all(member(n) for n in range(n0, n0 + 21))
            assert n0 == 1 or not member(n0 - 1)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_orthant_matches_row_reference(self, data):
        w = Wedge.orthant(data.draw(st.integers(min_value=1, max_value=3)))
        vec = st.tuples(*[mixed] * w.dim)
        u, x = data.draw(vec), data.draw(vec)
        assert threshold(w, u, x) == _ref_row_threshold(w, u, x)

    def test_orthant_threshold_rejects_other_dimensions(self):
        with pytest.raises(DimensionMismatch):
            threshold(Wedge.orthant(2), (F(0), F(0), F(0)), (F(1), F(1), F(1)))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_interior_references(self, data):
        w = data.draw(st.sampled_from([Wedge.orthant(2), Wedge.orthant(3)] + THRESHOLD_WEDGES[2:]))
        vec = st.tuples(*[rationals] * w.dim)
        x, u, a = data.draw(vec), data.draw(vec), data.draw(vec)
        inst = make_elem_cornet(w)
        ref = _ref_interior_archimedean(w, x, [u])
        px, pu, pa = Point.make(x), Point.make(u), Point.make(a)
        if ref.verdict.exact:
            assert inst.arch_exact(px, pu) == (True, ref.details["n0"][0])
        if w.interior_contains(a):
            ref = _ref_wbounded_check(w, x, a)
            assert inst.bounded_exact(px, pa) == (True, ref.details["n0"])


class TestElemCornet:
    def test_laws_and_lemmas_d3(self):
        inst = make_elem_cornet(Wedge.orthant(3))
        assert all(r.passed for r in check_cornet_laws(inst, seed=2, cases=40))
        assert all(r.passed for r in check_lemma_identities(inst, seed=2, cases=20))

    def test_laws_custom_wedge(self):
        inst = make_elem_cornet(Wedge.from_rows([[1, 0], [-1, 1]]))
        assert all(r.passed for r in check_cornet_laws(inst, seed=5, cases=40))

    def test_superadditivity_is_equality(self):
        # In the element cornet star is the dot action, so law (iii) holds
        # with equality.
        inst = make_elem_cornet(Wedge.orthant(2))
        x = Point.make((F(3, 4), F(-2)))
        for n in range(1, 5):
            for m in range(1, 5):
                assert inst.star(n + m, x) == inst.add(inst.star(n, x), inst.star(m, x))

    def test_family_witnesses_halve(self):
        fam = elem_arch_family(Wedge.orthant(2), [F(1)])
        (a,) = fam.elements
        b = fam.witness(a).coords
        assert (b[0] + b[0], b[1] + b[1]) == a.coords

    def test_nonneg_sampler_lands_in_wedge(self):
        from cornets.core import case_rng

        for w in (Wedge.orthant(2), Wedge.zero(2), Wedge.from_rows([[1, 0], [-1, 1]])):
            inst = make_elem_cornet(w)
            for i in range(20):
                assert w.contains(inst.nonneg_sampler(case_rng(9, i)).coords)


def _ref_elem_cornet(w: Wedge) -> CornetInstance:
    """Reference: the element cornet on Fraction tuples, before points held
    int numerators over one denominator."""

    def sampler(rng: random.Random):
        return tuple(F(rng.randint(-8, 8), rng.choice((1, 2, 4))) for _ in range(w.dim))

    def nonneg_sampler(rng: random.Random):
        if w.is_zero:
            return vzero(w.dim)
        if w.is_orthant:
            return tuple(F(rng.randint(0, 8), rng.choice((1, 2, 4))) for _ in range(w.dim))
        for _ in range(200):
            v = sampler(rng)
            if w.contains(v):
                return v
        return vzero(w.dim)

    def star(n: int, x):
        if n < 1:
            raise ValueError("n must be >= 1")
        return vscale(n, x)

    def arch_exact(x, u):
        n0 = threshold(w, u, x)
        return n0 is not None, n0

    def bounded_exact(x, a):
        n0 = threshold(w, vneg(x), a)
        return n0 is not None, n0

    return CornetInstance(
        name=f"elemQ(d={w.dim})",
        zero=vzero(w.dim),
        add=vadd,
        star=star,
        leq=w.leq,
        sampler=sampler,
        nonneg_sampler=nonneg_sampler,
        closure=lambda x: x,
        serialize=lambda x: [str(c) for c in x],
        arch_exact=arch_exact,
        bounded_exact=bounded_exact,
    )


# The orthant of Q^3 and the two skew wedges of THRESHOLD_WEDGES.
ELEM_WEDGES = [Wedge.orthant(3)] + THRESHOLD_WEDGES[2:]


class TestPointsAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_operations_match(self, data):
        w = data.draw(st.sampled_from(ELEM_WEDGES))
        new, ref = make_elem_cornet(w), _ref_elem_cornet(w)
        point = st.tuples(*[rationals] * w.dim)
        x, u = data.draw(point), data.draw(point)
        # y is x itself, x moved by some d, or any point, so that both
        # answers of the order show up.
        y = data.draw(st.one_of(st.just(x), point.map(lambda d: vadd(x, d)), point))
        n = data.draw(st.integers(min_value=1, max_value=6))
        px, py, pu = Point.make(x), Point.make(y), Point.make(u)
        assert px.coords == x and new.serialize(px) == ref.serialize(x)
        assert (px == py) == (x == y)
        assert new.add(px, py).coords == ref.add(x, y)
        assert new.star(n, px).coords == ref.star(n, x)
        assert new.leq(px, py) == ref.leq(x, y)
        assert new.leq(py, px) == ref.leq(y, x)
        assert new.arch_exact(px, pu) == ref.arch_exact(x, u)
        assert new.bounded_exact(px, py) == ref.bounded_exact(x, y)
        assert new.zero.coords == ref.zero

    @pytest.mark.parametrize("w", ELEM_WEDGES, ids=str)
    def test_samplers_draw_the_same_points(self, w):
        new, ref = make_elem_cornet(w), _ref_elem_cornet(w)
        for i in range(50):
            assert new.sampler(case_rng(8, i)).coords == ref.sampler(case_rng(8, i))
            assert new.nonneg_sampler(case_rng(8, i)).coords == ref.nonneg_sampler(case_rng(8, i))

    def test_points_are_reduced(self):
        half = Point.make((F(1, 2), F(-3, 2)))
        assert (half.den, half.nums) == (2, (1, -3))
        assert Point.make((F(2, 4), F(-6, 4))) == half
        inst = make_elem_cornet(Wedge.orthant(2))
        # 1/2 + 1/2 = 1: the sum is brought back over denominator 1, and so
        # is a star whose n cancels the denominator.
        assert inst.add(half, half) == Point(1, (1, -3)) == inst.star(2, half)
        assert inst.star(3, half) == Point(2, (3, -9))
