"""Step membership functions: construction invariants, the sup-min
convolution against a brute-force grid oracle, the characteristic-function
embedding, quasiconcavity, and the no-Archimedean-elements result below the
top level."""

import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornets.core import (
    Horizon,
    Verdict,
    case_rng,
    check_A_continuity,
    check_cornet_laws,
    is_A_bounded,
    is_archimedean,
    is_n_convex,
)
from cornets.sets import (
    Repr,
    UnsupportedOperation,
    UpperSet,
    discrete,
    msum,
    polytopic,
    star_set,
    subset,
)
from cornets.fuzzy import (
    NoArchimedeanElements,
    StepFuzzy,
    chi,
    chi_embed,
    fuzzy_arch_family,
    is_n_quasiconcave,
    leq_fuzzy,
    level_cut,
    make_fuzzy_cornet,
    odot,
    oplus,
    support,
)
from cornets.wedges import Wedge

W1 = Wedge.orthant(1)
W2 = Wedge.orthant(2)


def ray(a):
    return discrete(W1, [(F(a),)])


class TestConstruction:
    def test_levels_must_decrease(self):
        with pytest.raises(ValueError):
            StepFuzzy.make(W1, 1, [(F(1, 2), ray(0)), (F(1), ray(1))])

    def test_cuts_must_nest(self):
        with pytest.raises(ValueError):
            StepFuzzy.make(W1, 1, [(F(1), ray(0)), (F(1, 2), ray(1))])

    def test_sup_must_reach_p(self):
        with pytest.raises(ValueError):
            StepFuzzy.make(W1, 1, [(F(1, 2), ray(0))])

    def test_equal_adjacent_cuts_merge(self):
        f = StepFuzzy.make(W1, 1, [(F(1), ray(2)), (F(1, 2), ray(2)), (F(1, 4), ray(0))])
        assert [a for a, _ in f.levels] == [F(1), F(1, 4)]

    def test_value_and_level_cut(self):
        f = StepFuzzy.make(W1, 1, [(F(1), ray(3)), (F(1, 2), ray(1))])
        assert f.value((F(4),)) == 1
        assert f.value((F(2),)) == F(1, 2)
        assert f.value((F(0),)) == 0
        assert level_cut(f, F(3, 4)) == ray(3)
        assert level_cut(f, F(1, 2)) == ray(1)
        assert level_cut(chi(ray(0)), F(1, 2)) == ray(0)


class TestOplus:
    def test_worked_example(self):
        f = chi(ray(2))
        g = StepFuzzy.make(W1, 1, [(F(1), ray(1)), (F(1, 2), ray(0))])
        h = oplus(f, g)
        assert h.levels == ((F(1), ray(3)), (F(1, 2), ray(2)))

    def test_chi_homomorphism(self):
        rng = random.Random(9)
        for _ in range(30):
            A = discrete(W2, [
                tuple(F(rng.randint(-5, 5)) for _ in range(2))
                for _ in range(rng.randint(1, 3))
            ])
            B = discrete(W2, [
                tuple(F(rng.randint(-5, 5)) for _ in range(2))
                for _ in range(rng.randint(1, 3))
            ])
            assert oplus(chi(A), chi(B)) == chi(msum(A, B))

    def test_unit_neutral(self):
        unit = chi(ray(0))
        f = StepFuzzy.make(W1, 1, [(F(1), ray(2)), (F(1, 4), ray(-1))])
        assert oplus(f, unit) == f

    def test_brute_force_sup_min_on_grid(self):
        # For integer generators and an integer argument the sup-min is
        # attained at an integer decomposition, so a finite integer search
        # is an exact oracle.
        rng = random.Random(17)
        for _ in range(10):
            def sample():
                levels, gens = [], []
                alphas = sorted(rng.sample([F(1), F(3, 4), F(1, 2), F(1, 4)],
                                           rng.randint(1, 3)), reverse=True)
                alphas[0] = F(1)
                for a in alphas:
                    gens = gens + [(F(rng.randint(-3, 3)),)]
                    levels.append((a, discrete(W1, gens)))
                return StepFuzzy.make(W1, 1, levels)

            f, g = sample(), sample()
            h = oplus(f, g)
            for xv in range(-8, 9):
                x = (F(xv),)
                brute = max(
                    (min(f.value((F(u),)), g.value((F(xv - u),)))
                     for u in range(-12, 13)),
                    default=F(0),
                )
                assert h.value(x) == brute, (xv, f.levels, g.levels)


class TestOdot:
    def test_examples(self):
        assert odot(2, chi(ray(1))) == chi(ray(2))
        assert odot(5, chi(ray(0))) == chi(ray(0))  # the unit is fixed
        f = StepFuzzy.make(W1, 1, [(F(1), ray(2)), (F(1, 2), ray(-1))])
        assert odot(1, f) == f

    def test_is_levelwise_cut_scaling(self):
        f = StepFuzzy.make(W1, 1, [(F(1), ray(2)), (F(1, 2), ray(-1))])
        g = odot(3, f)
        assert [c for _, c in g.levels] == [star_set(3, c) for _, c in f.levels]

    def test_superadditivity_on_samples(self):
        inst = make_fuzzy_cornet(W1, 1)
        for i in range(15):
            f = inst.sampler(case_rng(2, i))
            for n, m in ((1, 2), (2, 3), (3, 3)):
                assert leq_fuzzy(odot(n + m, f), oplus(odot(n, f), odot(m, f)))


class TestOrder:
    def test_examples(self):
        assert leq_fuzzy(chi(ray(1)), chi(ray(0)))
        f = StepFuzzy.make(W1, 1, [(F(1), ray(3)), (F(1, 2), ray(2))])
        g = StepFuzzy.make(W1, 1, [(F(1), ray(1)), (F(1, 2), ray(0))])
        assert leq_fuzzy(f, g)
        assert not leq_fuzzy(g, f)
        assert leq_fuzzy(f, f)

    def test_matches_pointwise_on_grid(self):
        inst = make_fuzzy_cornet(W1, 1)
        grid = [(F(v, 2),) for v in range(-24, 25)]
        for i in range(25):
            f, g = inst.sampler(case_rng(4, i)), inst.sampler(case_rng(5, i))
            pointwise = all(f.value(x) <= g.value(x) for x in grid)
            claim = leq_fuzzy(f, g)
            if claim:
                assert pointwise
            else:
                # Refutations must be witnessed by some rational point; the
                # half-integer grid covers all sampled generators.
                assert not pointwise


class TestQuasiconcavity:
    def test_examples(self):
        assert is_n_quasiconcave(chi(ray(0)), 4)
        wz = Wedge.zero(1)
        f = chi(discrete(wz, [(0,), (2,)]))
        assert not is_n_quasiconcave(f, 2)  # min(f(0),f(2)) = 1 > f(1) = 0
        g = StepFuzzy.make(
            W2, 1, [(F(1), polytopic(W2, [(0, 1), (1, 0)]))]
        )
        assert is_n_quasiconcave(g, 3)

    def test_matches_tuple_sampling(self):
        inst = make_fuzzy_cornet(W1, 1)
        rng = random.Random(6)
        grid = [(F(v),) for v in range(-8, 9)]
        for i in range(20):
            f = inst.sampler(case_rng(7, i))
            n = rng.randint(2, 3)
            if is_n_quasiconcave(f, n):
                for _ in range(40):
                    tup = [rng.choice(grid) for _ in range(n)]
                    mean = (sum(t[0] for t in tup) / n,)
                    assert min(f.value(t) for t in tup) <= f.value(mean)


    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_closed_form_matches_definition(self, data):
        # Every cut's closed-form convexity against n*f == n.f, with n.f by
        # binary-doubling dot_mul.
        w = data.draw(st.sampled_from(QC_WEDGES))
        rp = data.draw(st.sampled_from(list(Repr)))
        inst = make_fuzzy_cornet(w, data.draw(st.sampled_from([F(1), F(1, 2)])), rp)
        f = inst.sampler(case_rng(data.draw(st.integers(0, 10**6)), 0))
        n = data.draw(st.integers(min_value=2, max_value=4))
        assert is_n_quasiconcave(f, n) == is_n_convex(inst, f, n)


# The orthants of Q and Q^2, the zero wedge of Q and a skew wedge of Q^2.
QC_WEDGES = [W1, W2, Wedge.zero(1), Wedge.from_rows([[1, 0], [-1, 1]])]


class TestChiEmbedding:
    def test_laws_randomized(self):
        rng = random.Random(23)
        for _ in range(40):
            gens = lambda: [
                tuple(F(rng.randint(-5, 5), rng.choice((1, 2))) for _ in range(2))
                for _ in range(rng.randint(1, 3))
            ]
            A, B = discrete(W2, gens()), discrete(W2, gens())
            n = rng.randint(1, 5)
            assert chi_embed(msum(A, B)) == oplus(chi_embed(A), chi_embed(B))
            assert chi_embed(star_set(n, A)) == odot(n, chi_embed(A))
            from cornets.sets import subset

            assert subset(A, B) == leq_fuzzy(chi_embed(A), chi_embed(B))
            if A != B:
                assert chi_embed(A) != chi_embed(B)


def _ref_oplus(f, g):
    """Reference: oplus with its levels validated by StepFuzzy.make."""
    cap = min(f.top, g.top)
    alphas = sorted({a for a, _ in f.levels + g.levels if a <= cap}, reverse=True)
    levels = [(a, msum(level_cut(f, a), level_cut(g, a))) for a in alphas]
    return StepFuzzy.make(f.wedge, min(f.p, g.p), levels)


def _ref_leq_fuzzy(f, g):
    """Reference: leq_fuzzy asking level_cut once per level of f."""
    for a, cut in f.levels:
        gcut = level_cut(g, a)
        if gcut is None or not subset(cut, gcut):
            return False
    return True


# Level values that f and g share in part; tops below 1 need p < 1.
LEVEL_POOL = (F(1), F(3, 4), F(2, 3), F(1, 2), F(1, 3), F(1, 4))


@st.composite
def step_pairs(draw):
    """Two step functions over one wedge, p and cut representation, with
    tops and lower levels drawn from LEVEL_POOL and nested cuts."""
    w = draw(st.sampled_from([W1, W2]))
    p = draw(st.sampled_from([F(1), F(1, 2)]))
    rp = draw(st.sampled_from(list(Repr)))
    point = st.tuples(*[st.integers(min_value=-3, max_value=3)] * w.dim)

    def step():
        top = draw(st.sampled_from([a for a in LEVEL_POOL if a >= p]))
        lower = draw(st.lists(st.sampled_from([a for a in LEVEL_POOL if a < top]), unique=True, max_size=3))
        gens, levels = [], []
        for a in [top] + sorted(lower, reverse=True):
            gens = gens + draw(st.lists(point, min_size=1, max_size=2))
            levels.append((a, UpperSet.make(w, rp, gens)))
        return StepFuzzy.make(w, p, levels)

    return step(), step()


class TestLevelWalk:
    """oplus and leq_fuzzy walk both level lists once; the references look
    each cut up with level_cut."""

    @settings(max_examples=200, deadline=None)
    @given(step_pairs())
    def test_oplus_matches_reference(self, fg):
        f, g = fg
        for x, y in ((f, g), (g, f), (f, f)):
            assert oplus(x, y) == _ref_oplus(x, y)

    @settings(max_examples=200, deadline=None)
    @given(step_pairs())
    def test_leq_matches_reference(self, fg):
        f, g = fg
        h = oplus(f, g)
        for x, y in ((f, g), (g, f), (f, f), (f, h), (h, f), (g, h), (h, g)):
            assert leq_fuzzy(x, y) == _ref_leq_fuzzy(x, y)

    def test_unequal_tops_and_shared_levels(self):
        # p = 1/2; f tops out at 3/4, and 1/2 is a level of both.  The sum
        # stops at the lower top: g's cut at 3/4 is its top cut, and f's cut
        # at 1/4 is its lowest.
        half = F(1, 2)
        f = StepFuzzy.make(W1, half, [(F(3, 4), ray(2)), (half, ray(0))])
        g = StepFuzzy.make(W1, half, [(F(1), ray(1)), (half, ray(-1)), (F(1, 4), ray(-2))])
        h = oplus(f, g)
        assert h.levels == ((F(3, 4), ray(3)), (half, ray(-1)), (F(1, 4), ray(-2)))
        assert h == _ref_oplus(f, g) == oplus(g, f)
        # g reaches 1, where f has no cut, so g <= f fails; each cut of f lies
        # within g's widest cut at its level, so f <= g.
        assert not leq_fuzzy(g, f) and not _ref_leq_fuzzy(g, f)
        assert leq_fuzzy(f, g) and _ref_leq_fuzzy(f, g)


def _ref_odot(n, f):
    """Reference: odot with its levels validated by StepFuzzy.make."""
    return StepFuzzy.make(f.wedge, f.p, [(a, star_set(n, c)) for a, c in f.levels])


class TestTrustedConstructor:
    """oplus and odot build their results without StepFuzzy.make;
    on the same levels, make must give the same values."""

    @pytest.mark.parametrize("rp", [Repr.DISCRETE, Repr.POLYTOPIC])
    @pytest.mark.parametrize("p", [F(1), F(1, 2)])
    def test_results_match_make(self, p, rp):
        inst = make_fuzzy_cornet(W2, p, rp)
        for i in range(12):
            rng = case_rng(31, i)
            f, g = inst.sampler(rng), inst.nonneg_sampler(rng)
            for x, y in ((f, g), (g, f), (f, f)):
                assert oplus(x, y) == _ref_oplus(x, y)
            for n in (1, 2, 3):
                assert odot(n, f) == _ref_odot(n, f)

    def test_equal_adjacent_sums_merge(self):
        # Over (Z, W = {0}), {0, 2} + {0, 1} = {0, 1, 2} + {0, 1}: the two
        # levels of the sum share one cut, and only the top one is kept.
        wz = Wedge.zero(1)
        f = StepFuzzy.make(
            wz, 1, [(F(1), discrete(wz, [(0,), (2,)])), (F(1, 2), discrete(wz, [(0,), (1,), (2,)]))]
        )
        g = chi(discrete(wz, [(0,), (1,)]))
        h = oplus(f, g)
        assert h == _ref_oplus(f, g)
        assert h.levels == ((F(1), discrete(wz, [(0,), (1,), (2,), (3,)])),)

    def test_one_generator_sum_is_exact(self):
        # The one-generator top cut is discrete, so its sum with a discrete
        # cut is the sum itself, without (1/2, 1/2), and the levels nest.
        f = StepFuzzy.make(
            W2, 1, [(F(1), polytopic(W2, [(0, 0)])), (F(1, 2), discrete(W2, [(0, 0), (-1, 5)]))]
        )
        g = chi(discrete(W2, [(0, 1), (1, 0)]))
        top = msum(level_cut(f, F(1)), level_cut(g, F(1)))
        assert top.repr is Repr.DISCRETE and not top.member((F(1, 2), F(1, 2)))
        assert oplus(f, g) == _ref_oplus(f, g)

    def test_hull_above_translated_wedge_is_trusted(self, monkeypatch):
        # A polytopic cut above a one-generator cut nests, so oplus keeps
        # the trusted constructor.
        f = StepFuzzy.make(
            W2, 1, [(F(1), polytopic(W2, [(0, 1), (1, 0)])), (F(1, 2), discrete(W2, [(0, 0)]))]
        )
        g = chi(discrete(W2, [(1, 1)]))
        expected = _ref_oplus(f, g)
        assert [cut.repr for _, cut in expected.levels] == [Repr.POLYTOPIC, Repr.DISCRETE]

        def refuse(*args):
            raise AssertionError("oplus validated levels that nest by construction")

        monkeypatch.setattr(StepFuzzy, "make", staticmethod(refuse))
        assert oplus(f, g) == expected

    def test_mixed_representation_sum_is_checked(self):
        # A polytopic cut of two vertices plus a discrete cut of two
        # generators is promoted to the hull of the sum, which holds
        # (3/5, 3/5); the discrete cut below it does not, so the levels of
        # the sum do not nest.  oplus leaves such levels to make, which
        # cannot decide them.
        f = StepFuzzy.make(
            W2,
            1,
            [(F(1), polytopic(W2, [(0, F(1, 5)), (F(1, 5), 0)])), (F(1, 2), discrete(W2, [(0, 0)]))],
        )
        g = chi(discrete(W2, [(0, 1), (1, 0)]))
        top, low = (msum(level_cut(f, a), level_cut(g, a)) for a in (F(1), F(1, 2)))
        assert top.member((F(3, 5), F(3, 5))) and not low.member((F(3, 5), F(3, 5)))
        with pytest.raises(UnsupportedOperation):
            oplus(f, g)


class TestArchimedean:
    def test_family_requires_top_level(self):
        with pytest.raises(NoArchimedeanElements):
            fuzzy_arch_family(W1, [F(1)], p=F(1, 2))

    def test_family_structure(self):
        fam = fuzzy_arch_family(W1, [F(1), F(1, 2)])
        inst = make_fuzzy_cornet(W1, 1)
        assert check_A_continuity(inst, fam).passed
        half = fam.witness(fam.elements[0])
        assert leq_fuzzy(oplus(half, half), fam.elements[0])

    def test_probe_threshold(self):
        fam = fuzzy_arch_family(W1, [F(1)])
        inst = make_fuzzy_cornet(W1, 1)
        probe = chi(ray(5))
        rec = is_archimedean(inst, fam.elements[0], Horizon(12, (probe,)))
        assert rec.holds and rec.details["n0"][0] == 5

    def test_p_below_one_refutes_everything(self):
        inst = make_fuzzy_cornet(W1, F(1, 2))
        probe = inst.sampler(case_rng(0, 0))
        h = Horizon(12, (probe,))
        for i in range(20):
            f = inst.sampler(case_rng(1, i))
            rec = is_archimedean(inst, f, h)
            assert rec.verdict is Verdict.ANALYTICALLY_REFUTED

    def test_bounded_via_support(self):
        fam = fuzzy_arch_family(W1, [F(1), F(1, 2)])
        inst = make_fuzzy_cornet(W1, 1)
        f = StepFuzzy.make(W1, 1, [(F(1), ray(2)), (F(1, 2), ray(-3))])
        rec = is_A_bounded(inst, f, fam, Horizon(12))
        assert rec.verdict is Verdict.ANALYTICALLY_VERIFIED


class TestRoundTripAndSupport:
    def test_support_examples(self):
        A = ray(4)
        assert support(chi(A)) == A
        f = StepFuzzy.make(W1, 1, [(F(1), ray(3)), (F(1, 2), ray(1))])
        assert support(f) == ray(1)

    def test_cut_roundtrip_on_grid(self):
        # Each stored cut must equal {x : value(x) >= alpha} on the grid.
        inst = make_fuzzy_cornet(W2, 1)
        grid = list(product([F(v) for v in range(-6, 7)], repeat=2))
        for i in range(10):
            f = inst.sampler(case_rng(3, i))
            for a, cut in f.levels:
                for x in grid[::3]:
                    assert cut.member(x) == (f.value(x) >= a)


class TestLaws:
    @pytest.mark.parametrize("p", [F(1), F(1, 2)])
    def test_law_suite_small(self, p):
        inst = make_fuzzy_cornet(W1, p)
        reports = check_cornet_laws(inst, seed=1, cases=20)
        assert all(r.passed for r in reports), [r.law for r in reports if not r.passed]
