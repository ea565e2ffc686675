"""Wedges over Q^d and the element cornet: order structure, pointedness
enforcement, and the closed-form Archimedean/boundedness thresholds."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cornets.core import Verdict, check_cornet_laws, check_lemma_identities
from cornets.wedges import (
    NotPointedError,
    Wedge,
    elem_arch_family,
    interior_archimedean,
    make_elem_cornet,
    wbounded_check,
)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)
vec2 = st.tuples(rationals, rationals)


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

    def test_rational_string_rows(self):
        w = Wedge.from_rows([["1/2", "0"], ["0", "2"]])
        assert w.contains((F(1), F(0)))


class TestWedgeOrder:
    W = Wedge.orthant(2)

    @given(vec2, vec2)
    def test_order_iff_difference_in_wedge(self, x, y):
        assert self.W.leq(x, y) == self.W.contains(
            (y[0] - x[0], y[1] - x[1])
        )

    @given(vec2)
    def test_zero_wedge_order_is_equality(self, x):
        wz = Wedge.zero(2)
        assert wz.leq(x, x)
        assert not wz.leq(x, (x[0] + 1, x[1]))


class TestInteriorThresholds:
    W = Wedge.orthant(2)

    def test_interior_archimedean_exact(self):
        x = (F(1), F(1, 2))
        probes = [(F(-5), F(-7)), (F(3), F(-1))]
        rec = interior_archimedean(self.W, x, probes)
        assert rec.verdict is Verdict.ANALYTICALLY_VERIFIED
        assert rec.details["n0"][0] == 14
        assert rec.details["n0"][1] == 2

    def test_boundary_falls_back_to_horizon(self):
        x = (F(1), F(0))
        rec = interior_archimedean(self.W, x, [(F(-1), F(-1))], n_max=10)
        assert rec.verdict is Verdict.REFUTED_AT_HORIZON

    def test_wbounded_threshold_exact(self):
        a = (F(1), F(2))
        x = (F(7), F(3))
        rec = wbounded_check(self.W, x, a)
        n0 = rec.details["n0"]
        assert n0 == 7
        assert self.W.leq(x, (n0 * a[0], n0 * a[1]))
        assert not self.W.leq(x, ((n0 - 1) * a[0], (n0 - 1) * a[1]))

    def test_wbounded_requires_interior_reference(self):
        with pytest.raises(ValueError):
            wbounded_check(self.W, (F(1), F(1)), (F(1), F(0)))


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
