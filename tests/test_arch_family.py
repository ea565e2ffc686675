"""The one Archimedean family builder, ``wedges.arch_family``, behind the
element, set and fuzzy families: checked against the three builders it
replaced, and for its refusal on wedges where ``ones`` is not interior."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornets.core import ArchFamily
from cornets.fuzzy import NoArchimedeanElements, chi, fuzzy_arch_family
from cornets.geometry import rat, vscale
from cornets.sets import Repr, UpperSet, set_arch_family
from cornets.wedges import Point, Wedge, elem_arch_family

# ``ones`` is strictly interior to each of these.
INTERIOR_WEDGES = [
    Wedge.orthant(1),
    Wedge.orthant(2),
    Wedge.orthant(3),
    Wedge.from_rows([[1, 0], [0, 1], [1, 1]]),
]
# ``ones`` lies on the boundary of the first and outside the second.
NON_INTERIOR_WEDGES = [Wedge.from_rows([[1, 0], [-1, 1]]), Wedge.zero(2)]


def _ref_elem_arch_family(w, epsilons):
    """Reference: the element builder before the shared one, without the
    interior check, on Fraction coordinates wrapped as points."""
    eps = tuple(sorted((rat(e) for e in epsilons), reverse=True))
    if any(e <= 0 for e in eps):
        raise ValueError("epsilons must be positive")
    ones = w.ones()
    return ArchFamily(
        elements=tuple(Point.make(vscale(e, ones)) for e in eps),
        witness=lambda a: Point.make(vscale(F(1, 2), a.coords)),
    )


def _ref_set_arch_family(w, epsilons, direction=None):
    """Reference: the set builder before the shared one."""
    eps = tuple(sorted((rat(e) for e in epsilons), reverse=True))
    if any(e <= 0 for e in eps):
        raise ValueError("epsilons must be positive")
    direction = direction if direction is not None else w.ones()
    if not w.interior_contains(direction):
        raise ValueError("direction must be strictly interior to the wedge")

    def witness(a):
        (g,) = a.generators
        return UpperSet.make(w, Repr.DISCRETE, [vscale(F(1, 2), g)])

    return ArchFamily(
        elements=tuple(UpperSet.make(w, Repr.DISCRETE, [vscale(-e, direction)]) for e in eps),
        witness=witness,
    )


def _ref_fuzzy_arch_family(w, epsilons, p=1):
    """Reference: the fuzzy builder before the shared one, without the
    interior check."""
    if rat(p) < 1:
        raise NoArchimedeanElements("p < 1")
    eps = tuple(sorted((rat(e) for e in epsilons), reverse=True))
    if any(e <= 0 for e in eps):
        raise ValueError("epsilons must be positive")
    ones = w.ones()

    def witness(a):
        (g,) = a.levels[0][1].generators
        return chi(UpperSet.make(w, Repr.DISCRETE, [vscale(F(1, 2), g)]))

    return ArchFamily(
        elements=tuple(chi(UpperSet.make(w, Repr.DISCRETE, [vscale(-e, ones)])) for e in eps),
        witness=witness,
    )


BUILDERS = [
    (elem_arch_family, _ref_elem_arch_family),
    (set_arch_family, _ref_set_arch_family),
    (fuzzy_arch_family, _ref_fuzzy_arch_family),
]
epsilon_lists = st.lists(
    st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8), min_size=1, max_size=4
)


class TestAgainstReferences:
    @settings(max_examples=60, deadline=None)
    @given(w=st.sampled_from(INTERIOR_WEDGES), epsilons=epsilon_lists)
    def test_same_elements_and_witness_chains(self, w, epsilons):
        for build, ref in BUILDERS:
            fam, old = build(w, epsilons), ref(w, epsilons)
            assert fam.elements == old.elements
            for a in fam.elements:
                b = c = a
                for _ in range(4):
                    b, c = fam.witness(b), old.witness(c)
                    assert b == c

    def test_members_largest_first(self):
        fam = elem_arch_family(Wedge.orthant(2), [F(1, 4), 1, F(1, 2)])
        assert [a.coords for a in fam.elements] == [(1, 1), (F(1, 2), F(1, 2)), (F(1, 4), F(1, 4))]


class TestRefusals:
    @pytest.mark.parametrize("w", NON_INTERIOR_WEDGES, ids=["boundary", "zero"])
    @pytest.mark.parametrize("build", [b for b, _ in BUILDERS], ids=["elem", "set", "fuzzy"])
    def test_non_interior_ones_refused(self, w, build):
        with pytest.raises(ValueError, match="direction must be strictly interior"):
            build(w, [F(1)])

    @pytest.mark.parametrize("build", [b for b, _ in BUILDERS], ids=["elem", "set", "fuzzy"])
    @pytest.mark.parametrize("epsilons", [[F(1), F(0)], [F(-1, 2)]])
    def test_non_positive_epsilons_refused(self, build, epsilons):
        with pytest.raises(ValueError, match="epsilons must be positive"):
            build(Wedge.orthant(2), epsilons)

    def test_fuzzy_p_below_one_refused_first(self):
        # Below the top level there are no Archimedean elements on any wedge.
        for w in NON_INTERIOR_WEDGES:
            with pytest.raises(NoArchimedeanElements):
                fuzzy_arch_family(w, [F(1)], p=F(1, 2))
