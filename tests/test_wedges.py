"""Wedges over Q^d and the element cornet: order structure, pointedness
enforcement, and the closed-form threshold behind every exact Archimedean
and boundedness decision, checked against brute force and against the
interior-only deciders it replaced."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornets.core import (
    Horizon,
    Verdict,
    VerdictRecord,
    check_cornet_laws,
    check_lemma_identities,
    is_archimedean,
)
from cornets.geometry import DimensionMismatch, vadd, vdot, vneg, vscale, vsub
from cornets.sets import discrete, msum
from cornets.wedges import (
    NotPointedError,
    Wedge,
    elem_arch_family,
    make_elem_cornet,
    threshold,
)

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


class TestWedgeOrder:
    @given(st.data())
    def test_order_iff_difference_in_wedge(self, data):
        # The orthant wedges take the coordinatewise shortcut in leq.
        w = data.draw(
            st.sampled_from(THRESHOLD_WEDGES + [Wedge.orthant(1), Wedge.orthant(3)])
        )
        point = st.tuples(*[rationals] * w.dim)
        x = data.draw(point)
        y = data.draw(st.one_of(st.just(x), point))
        assert w.leq(x, y) == w.contains(vsub(y, x))

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
        rec = is_archimedean(inst, x, Horizon(10, ((F(-1), F(-1)),)))
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
        assert inst.bounded_exact((F(1), F(1)), a) == (False, None)
        assert inst.bounded_exact((F(1), F(-1)), a) == (True, 1)


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
    def test_matches_interior_references(self, data):
        w = data.draw(st.sampled_from([Wedge.orthant(2), Wedge.orthant(3)] + THRESHOLD_WEDGES[2:]))
        vec = st.tuples(*[rationals] * w.dim)
        x, u, a = data.draw(vec), data.draw(vec), data.draw(vec)
        inst = make_elem_cornet(w)
        ref = _ref_interior_archimedean(w, x, [u])
        if ref.verdict.exact:
            assert inst.arch_exact(x, u) == (True, ref.details["n0"][0])
        if w.interior_contains(a):
            ref = _ref_wbounded_check(w, x, a)
            assert inst.bounded_exact(x, a) == (True, ref.details["n0"])


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
        x = (F(3, 4), F(-2))
        for n in range(1, 5):
            for m in range(1, 5):
                assert inst.star(n + m, x) == inst.add(inst.star(n, x), inst.star(m, x))

    def test_family_witnesses_halve(self):
        fam = elem_arch_family(Wedge.orthant(2), [F(1)])
        (a,) = fam.elements
        b = fam.witness(a)
        assert (b[0] + b[0], b[1] + b[1]) == a

    def test_nonneg_sampler_lands_in_wedge(self):
        from cornets.core import case_rng

        for w in (Wedge.orthant(2), Wedge.zero(2), Wedge.from_rows([[1, 0], [-1, 1]])):
            inst = make_elem_cornet(w)
            for i in range(20):
                assert w.contains(inst.nonneg_sampler(case_rng(9, i)))
