"""Generic cornet machinery: the dot action, law suites, Archimedean
analysis, cancellation and the ablation hunt, exercised over the concrete
universes (small cases; the acceptance module runs the full volumes)."""

import dataclasses
import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornets.core import (
    CornetInstance,
    Horizon,
    UnsupportedOperation,
    Verdict,
    ablation_hunt,
    cancellation_check,
    case_rng,
    check_A_continuity,
    check_cornet_laws,
    check_lemma_identities,
    closure_props_suite,
    convexity_semigroup_check,
    dot_mul,
    hull_props_check,
    is_A_bounded,
    is_archimedean,
    is_n_convex,
    subcornet_closure_suite,
    verify_closure,
)
from cornets.fuzzy import fuzzy_arch_family, make_fuzzy_cornet
from cornets.sets import (
    Repr,
    UpperSet,
    convex_hull,
    discrete,
    polytopic,
    enumerate_z_subsets,
    interval_z_subsets,
    make_set_cornet,
    order_convex_z,
    set_arch_family,
)
from cornets.wedges import Point, Wedge, elem_arch_family, make_elem_cornet

ELEM = make_elem_cornet(Wedge.orthant(2))
SETQ = make_set_cornet(Wedge.orthant(2), Repr.DISCRETE)


def pt(*coords):
    return Point.make(coords)


def dot_mul_naive(inst, n: int, x):
    """The textbook recursion; oracle for :func:`dot_mul`."""
    if n == 0:
        return inst.zero
    acc = x
    for _ in range(n - 1):
        acc = inst.add(acc, x)
    return acc


class TestCornetInstance:
    @pytest.mark.parametrize(
        "name", ["sampler", "nonneg_sampler", "closure", "serialize", "arch_exact", "bounded_exact"]
    )
    def test_hooks_are_required(self, name):
        fields = {f.name: getattr(ELEM, f.name) for f in dataclasses.fields(ELEM)}
        del fields[name]
        with pytest.raises(TypeError, match=name):
            CornetInstance(**fields)


class TestDotMul:
    @pytest.mark.parametrize("n", list(range(0, 65, 7)) + [1, 2, 3])
    def test_doubling_matches_naive(self, n):
        x = discrete(Wedge.orthant(2), [(0, 1), (2, -1)])
        assert dot_mul(SETQ, n, x) == dot_mul_naive(SETQ, n, x)

    def test_zero_gives_unit(self):
        assert dot_mul(ELEM, 0, pt(3, 4)) == ELEM.zero

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            dot_mul(ELEM, -1, ELEM.zero)


class TestCaseRng:
    def test_per_case_streams_are_stable(self):
        a = case_rng(5, 17).random()
        b = case_rng(5, 17).random()
        assert a == b
        assert case_rng(5, 17).random() != case_rng(5, 18).random()


class TestLawSuites:
    @pytest.mark.parametrize("inst", [ELEM, SETQ], ids=lambda i: i.name)
    def test_laws_pass_on_real_instances(self, inst):
        reports = check_cornet_laws(inst, seed=1, cases=40)
        assert all(r.passed for r in reports), [r.law for r in reports if not r.passed]

    def test_lemma_identities_pass(self):
        reports = check_lemma_identities(ELEM, seed=1, cases=20)
        assert all(r.passed for r in reports)

    def test_mutated_star_fails_reverse_compatibility(self):
        # Replacing * with the iterated-addition action breaks only the
        # reverse direction of order compatibility: doubling can merge
        # incomparable integer sets.
        base = make_set_cornet(Wedge.zero(1), Repr.DISCRETE, integer=True)
        mutated = dataclasses.replace(
            base, name="mutated", star=lambda n, x: dot_mul(base, n, x)
        )
        reports = check_cornet_laws(mutated, seed=0, cases=25, n_max=4)
        failing = {r.law for r in reports if not r.passed}
        assert failing == {"star-iv-reverse"}

    def test_mutation_witness_is_genuine(self):
        # A = {0,2}, B = {0,1,3}: A+A subset of B+B but A not subset of B.
        w = Wedge.zero(1)
        A = discrete(w, [(0,), (2,)])
        B = discrete(w, [(0,), (1,), (3,)])
        base = make_set_cornet(w, Repr.DISCRETE, integer=True)
        assert base.leq(dot_mul(base, 2, A), dot_mul(base, 2, B))
        assert not base.leq(A, B)


class TestConvexity:
    def test_elem_always_convex(self):
        for n in range(1, 7):
            assert is_n_convex(ELEM, pt(1, F(-3, 2)), n)

    def test_set_convexity_detects_gaps(self):
        A = discrete(Wedge.orthant(2), [(0, 1), (1, 0)])
        assert not is_n_convex(SETQ, A, 2)
        assert is_n_convex(SETQ, SETQ.hull(A), 2)

    def test_semigroup_structure(self):
        A = discrete(Wedge.orthant(2), [(0, 2), (1, 1), (2, 0)])
        report = convexity_semigroup_check(SETQ, A, n_max=6, cases=10)
        assert report.passed, report.violations


class TestArchimedean:
    def test_interior_element_verified_analytically(self):
        u = pt(-5, -7)
        h = Horizon(12, (u,))
        rec = is_archimedean(ELEM, pt(1, F(1, 2)), h)
        assert rec.verdict is Verdict.ANALYTICALLY_VERIFIED
        n0 = rec.details["n0"][0]
        assert n0 == 14  # max(ceil(5/1), ceil(7/(1/2)))
        # Exactness: holds at n0, fails just below it.
        assert ELEM.leq(ELEM.zero, ELEM.add(u, ELEM.star(n0, pt(1, F(1, 2)))))
        if n0 > 1:
            assert not ELEM.leq(
                ELEM.zero, ELEM.add(u, ELEM.star(n0 - 1, pt(1, F(1, 2))))
            )

    def test_boundary_element_refuted(self):
        # x on the boundary cannot absorb a probe that is negative in the
        # flat coordinate.
        h = Horizon(12, (pt(-1, -1),))
        rec = is_archimedean(ELEM, pt(1, 0), h)
        assert not rec.holds

    def test_bounded_against_family(self):
        fam = elem_arch_family(Wedge.orthant(2), [F(1), F(1, 2)])
        h = Horizon(12)
        rec = is_A_bounded(ELEM, pt(3, 5), fam, h)
        assert rec.verdict is Verdict.ANALYTICALLY_VERIFIED

    def test_continuity_and_halving_chains(self):
        fam = elem_arch_family(Wedge.orthant(2), [F(1), F(1, 2), F(1, 4)])
        report = check_A_continuity(ELEM, fam, n_max=6)
        assert report.passed, report.violations


class TestClosure:
    def test_closure_props_elem(self):
        fam = elem_arch_family(Wedge.orthant(2), [F(1), F(1, 2)])
        h = Horizon(12)
        reports = closure_props_suite(ELEM, fam, seed=2, cases=25, h=h)
        assert all(r.passed for r in reports), [r.law for r in reports if not r.passed]

    def test_verify_closure_accepts_and_rejects(self):
        fam = set_arch_family(Wedge.orthant(2), [F(1), F(1, 2)])
        A = discrete(Wedge.orthant(2), [(0, 0)])
        assert verify_closure(SETQ, A, A, fam).holds
        bigger = discrete(Wedge.orthant(2), [(-5, -5)])
        assert not verify_closure(SETQ, A, bigger, fam).holds
        # Maximality failure against a challenge that also sits below x+a.
        assert not verify_closure(SETQ, bigger, A, fam, challenge_set=[bigger]).holds

    def test_verify_closure_skips_undecidable_challenge(self):
        # A polytopic challenge of two vertices against a discrete y of two
        # generators: the comparison is undecided, so it is skipped.
        w = Wedge.orthant(2)
        fam = set_arch_family(w, [F(1), F(1, 2)])
        y = discrete(w, [(0, 1), (1, 0)])
        P = polytopic(w, [(0, 0), (2, -1)])
        with pytest.raises(UnsupportedOperation):
            SETQ.leq(P, y)
        rec = verify_closure(SETQ, y, y, fam, challenge_set=[P])
        assert rec.verdict is Verdict.VERIFIED_AT_HORIZON
        assert rec.details["challenges"] == 1

    def test_subcornet_suite(self):
        fam = set_arch_family(Wedge.orthant(2), [F(1), F(1, 2)])
        h = Horizon(12, (SETQ.sampler(case_rng(0, 999)),))
        reports = subcornet_closure_suite(SETQ, fam, seed=0, cases=15, h=h)
        assert all(r.passed for r in reports), [r.law for r in reports if not r.passed]


class TestCancellation:
    FAM = set_arch_family(Wedge.orthant(2), [F(1), F(1, 2)])

    def test_verified_instance(self):
        w = Wedge.orthant(2)
        x = discrete(w, [(1, 1)])
        y = SETQ.hull(discrete(w, [(0, 0), (2, 1)]))
        z = discrete(w, [(0, 1)])
        rec = cancellation_check(SETQ, x, y, z, 2, self.FAM, Horizon(12))
        assert rec.status == "Verified"
        assert all(ok for _, ok in rec.chain)

    @pytest.mark.parametrize("m, n_max", [(2, 12), (3, 8), (2, 1)])
    def test_verified_instance_builds_full_chain(self, m, n_max):
        # Once hypotheses and premise hold, the chain is always built: one
        # link per n up to the horizon, then one per power m^k <= n_max.
        w = Wedge.orthant(2)
        x = discrete(w, [(1, 1)])
        y = SETQ.hull(discrete(w, [(0, 0), (2, 1)]))
        z = discrete(w, [(0, 1)])
        rec = cancellation_check(SETQ, x, y, z, m, self.FAM, Horizon(n_max))
        powers = [m**k for k in range(1, n_max) if m**k <= n_max]
        assert rec.status == "Verified"
        assert len(rec.chain) == n_max + len(powers)
        assert [label for label, _ in rec.chain[n_max:]] == [
            f"m^k*x+z <= m^k*y+z @ {mk}" for mk in powers
        ]
        assert all(ok for _, ok in rec.chain)

    def test_premise_not_met(self):
        w = Wedge.orthant(2)
        x = discrete(w, [(-9, -9)])
        y = SETQ.hull(discrete(w, [(0, 0)]))
        z = discrete(w, [(0, 0)])
        rec = cancellation_check(SETQ, x, y, z, 2, self.FAM, Horizon(12))
        assert rec.status == "PremiseNotMet"

    def test_hypothesis_not_met(self):
        w = Wedge.orthant(2)
        y = discrete(w, [(0, 1), (1, 0)])  # not 2-convex
        rec = cancellation_check(SETQ, y, y, y, 2, self.FAM, Horizon(12))
        assert rec.status == "HypothesisNotMet"
        assert rec.hypotheses["y-m-convex"] is False

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            cancellation_check(SETQ, SETQ.zero, SETQ.zero, SETQ.zero, 1, self.FAM, Horizon(12))

    @pytest.mark.parametrize(
        "inst, fam",
        [
            (make_set_cornet(Wedge.orthant(2), Repr.POLYTOPIC), FAM),
            (
                make_fuzzy_cornet(Wedge.orthant(1), 1, Repr.POLYTOPIC),
                fuzzy_arch_family(Wedge.orthant(1), [F(1), F(1, 2)]),
            ),
        ],
        ids=["setQ", "fuzzyQ"],
    )
    def test_replay_chain_matches_rebuilt_chain(self, inst, fam):
        # Premise-true triples: with convex cuts and N nonnegative, x lies
        # below y = x + N, so every hypothesis holds and the chain is replayed.
        h = Horizon(8)
        for i in range(12):
            rng = case_rng(7, i)
            x, z = inst.sampler(rng), inst.sampler(rng)
            y = inst.add(x, inst.nonneg_sampler(rng))
            rec = cancellation_check(inst, x, y, z, 2, fam, h)
            assert rec.status == "Verified"
            assert rec.chain == _ref_chain(inst, x, y, z, 2, h)


def _ref_decidable_challenges(inst, elements, y):
    """Reference: the challenges the CLI kept before verify_closure skipped
    undecidable ones itself, those whose comparison with y is decided."""
    kept = []
    for e in elements:
        try:
            inst.leq(e, y)
        except UnsupportedOperation:
            continue
        kept.append(e)
    return kept


def _without_challenge_count(rec):
    """The record with the y-closed challenge count removed, which counts
    every challenge passed in."""
    rec.hypotheses["y-closed"].details.pop("challenges")
    return rec


class TestUndecidableChallenges:
    FAM = set_arch_family(Wedge.orthant(2), [F(1), F(1, 2)])
    W = Wedge.orthant(2)

    def _both(self, x, y, z, challenges):
        """cancellation_check on every challenge and on the decidable ones;
        a raise on one side must be a raise on the other."""
        h = Horizon(8)
        ref = _ref_decidable_challenges(SETQ, challenges, y)
        try:
            expected = cancellation_check(SETQ, x, y, z, 2, self.FAM, h, ref)
        except UnsupportedOperation:
            with pytest.raises(UnsupportedOperation):
                cancellation_check(SETQ, x, y, z, 2, self.FAM, h, challenges)
            return None
        got = cancellation_check(SETQ, x, y, z, 2, self.FAM, h, challenges)
        assert got.hypotheses["y-closed"].details["challenges"] == len(challenges)
        assert _without_challenge_count(got) == _without_challenge_count(expected)
        return got

    def test_polytopic_challenge_against_discrete_y(self):
        x = discrete(self.W, [(1, 1)])
        y = discrete(self.W, [(0, 1), (1, 0)])
        z = discrete(self.W, [(1, 1)])
        P = polytopic(self.W, [(0, 0), (2, -1)])
        rec = self._both(x, y, z, [x, y, z, P])
        assert rec.status == "HypothesisNotMet"
        assert rec.hypotheses["y-closed"].verdict is Verdict.VERIFIED_AT_HORIZON

    def test_sampled_mixed_representations(self):
        poly = make_set_cornet(self.W, Repr.POLYTOPIC)
        for i in range(30):
            rng = case_rng(11, i)
            x, y, z, c = (
                (SETQ if rng.random() < 0.5 else poly).sampler(rng) for _ in range(4)
            )
            self._both(x, y, z, [x, y, z, c])


def _ref_chain(inst, x, y, z, m, h):
    """Reference: the replayed proof chain with n.x and n.y rebuilt by the
    dot action for every n, which the running sums in cancellation_check
    replaced."""
    chain = []
    for n in range(1, h.n_max + 1):
        ok = inst.leq(inst.add(dot_mul(inst, n, x), z), inst.add(dot_mul(inst, n, y), z))
        chain.append((f"n.x+z <= n.y+z @ n={n}", ok))
    mk = m
    while mk <= h.n_max:
        ok = inst.leq(inst.add(inst.star(mk, x), z), inst.add(inst.star(mk, y), z))
        chain.append((f"m^k*x+z <= m^k*y+z @ {mk}", ok))
        mk *= m
    return chain


def _ref_hunt(inst, universe, ablate="none", m_cap=4, convexity_test=None):
    """Reference: the unmemoised scan that ablation_hunt replaced, with the y
    filter inside the loop and every sum recomputed."""
    elements = sorted(universe, key=lambda e: str(inst.serialize(e)))
    if convexity_test is None:
        convexity_test = lambda e: any(is_n_convex(inst, e, n) for n in range(2, m_cap + 1))
    convexish = {id(e): convexity_test(e) for e in elements}
    closed = {id(e): inst.closure is None or inst.closure(e) == e for e in elements}

    def y_admits(y):
        if ablate == "convexity":
            return not convexish[id(y)]
        if ablate == "closedness":
            return not closed[id(y)]
        if ablate == "boundedness":
            return False
        return convexish[id(y)] and closed[id(y)]

    for x in elements:
        for y in elements:
            if not y_admits(y) or inst.leq(x, y):
                continue
            for z in elements:
                if inst.leq(inst.add(x, z), inst.add(y, z)):
                    return (x, y, z)
    return None


# Sets of at most 2 generators from {-1, 0, 1} x {-2, ..., 2} over the
# orthant of Q^2, in each representation (45 each).
_GRID = [(a, b) for a in (-1, 0, 1) for b in (-2, -1, 0, 1, 2)]
ORTHANT_SETS = {
    rp: sorted({UpperSet.make(Wedge.orthant(2), rp, g) for k in (1, 2) for g in combinations(_GRID, k)},
               key=lambda A: A.nums)
    for rp in Repr
}


class TestAblationHunt:
    INST = make_set_cornet(Wedge.zero(1), Repr.DISCRETE, integer=True)

    @staticmethod
    def _interval_hull(A):
        vals = [g[0] for g in A.generators]
        return discrete(Wedge.zero(1), [(v,) for v in range(int(min(vals)), int(max(vals)) + 1)])

    # Few draws have a triple at all, so many examples are needed to see a
    # wrong scan order or filter; one costs about 10 ms.
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([enumerate_z_subsets, interval_z_subsets]),
        st.integers(-1, 1),
        st.integers(-1, 3),
        st.sampled_from(["none", "convexity", "closedness", "boundedness"]),
        st.sampled_from(["identity", "interval-hull"]),
        st.sampled_from([order_convex_z, None]),
        st.data(),
    )
    def test_matches_unmemoised_scan(self, make_universe, lo, hi, ablate, closure, convex, data):
        hi = max(lo, hi)
        # The built-in closure is the identity, under which closedness admits
        # no y; an interval-hull closure makes that ablation scan too.
        inst = dataclasses.replace(
            self.INST,
            closure={"identity": self.INST.closure, "interval-hull": self._interval_hull}[closure],
        )
        # Sub-universes move the first hit off the first few z; the scan sorts
        # its universe, so the order it is given in is free.
        full = make_universe(hi, lo=lo)
        universe = data.draw(st.lists(st.sampled_from(full), min_size=1, unique_by=id) | st.permutations(full))
        # Value-equal copies, built apart from the originals, check that the
        # scan numbers its sums by value and not by object or position.
        copies = data.draw(st.lists(st.sampled_from(universe), max_size=3))
        universe = universe + [discrete(Wedge.zero(1), e.generators) for e in copies]
        got = ablation_hunt(inst, universe, ablate, convexity_test=convex)
        ref = _ref_hunt(inst, universe, ablate, convexity_test=convex)
        ser = lambda t: None if t is None else [inst.serialize(e) for e in t]
        assert ser(got) == ser(ref)

    def test_each_sum_is_computed_once(self):
        calls = []

        def add(a, b):
            calls.append(1)
            return self.INST.add(a, b)

        counted = dataclasses.replace(self.INST, add=add)
        universe = enumerate_z_subsets(4)
        # Without the refutation the memo alone bounds the sums.
        unpruned = dataclasses.replace(counted, separates=None)
        assert ablation_hunt(unpruned, universe, "none", convexity_test=order_convex_z) is None
        assert len(calls) <= len(universe) ** 2 == 961
        # With it every pair that fails x <= y is refuted before any sum: x
        # reaches below y's least member or above its greatest.
        calls.clear()
        assert ablation_hunt(counted, universe, "none", convexity_test=order_convex_z) is None
        assert calls == []

    def test_each_order_question_is_asked_once(self):
        calls = {"add": 0, "leq": 0}

        def add(a, b):
            calls["add"] += 1
            return self.INST.add(a, b)

        def leq(a, b):
            calls["leq"] += 1
            return self.INST.leq(a, b)

        counted = dataclasses.replace(self.INST, add=add, leq=leq)
        universe = interval_z_subsets(6)
        assert ablation_hunt(counted, universe, "none", convexity_test=order_convex_z) is None
        # Of the 28 x 28 pairs, the 574 where x is not within y are refuted
        # by their least and greatest members; the pretest x <= y holds on
        # the other 210, so no sum is made and no sums are compared.
        assert calls == {"add": 0, "leq": 210}

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["discrete", "polytopic", "mixed"]),
        st.sampled_from(["none", "convexity", "closedness"]),
        st.data(),
    )
    def test_refutation_keeps_the_orthant_scan(self, kind, ablate, data):
        """The scan with and without ``separates`` over the orthant of Q^2.
        The hull closure makes closedness admit the discrete sets of several
        generators.  A mixed universe has polytopic sums within discrete
        ones, which the full scan may be unable to order."""
        full = ORTHANT_SETS[Repr.DISCRETE] + ORTHANT_SETS[Repr.POLYTOPIC]
        if kind != "mixed":
            full = ORTHANT_SETS[Repr(kind)]
        universe = data.draw(st.lists(st.sampled_from(full), min_size=1, max_size=30, unique=True))
        inst = dataclasses.replace(make_set_cornet(Wedge.orthant(2), integer=True), closure=convex_hull)
        try:
            ref = ablation_hunt(dataclasses.replace(inst, separates=None), universe, ablate)
        except UnsupportedOperation:
            assert kind == "mixed"
            return
        got = ablation_hunt(inst, universe, ablate)
        ser = lambda t: None if t is None else [inst.serialize(e) for e in t]
        assert ser(got) == ser(ref)

    def test_convexity_ablation_finds_triple(self):
        universe = enumerate_z_subsets(3)
        hit = ablation_hunt(
            self.INST, universe, "convexity", convexity_test=order_convex_z
        )
        assert hit is not None
        x, y, z = hit
        assert not order_convex_z(y)
        assert self.INST.leq(self.INST.add(x, z), self.INST.add(y, z))
        assert not self.INST.leq(x, y)

    def test_interval_universe_exhausts_clean(self):
        universe = interval_z_subsets(3)
        assert (
            ablation_hunt(self.INST, universe, "none", convexity_test=order_convex_z)
            is None
        )

    def test_singletons_cancel(self):
        universe = enumerate_z_subsets(0)
        assert ablation_hunt(self.INST, universe, "none", convexity_test=order_convex_z) is None

    def test_rejects_unknown_ablation(self):
        with pytest.raises(ValueError):
            ablation_hunt(self.INST, [], "wedgehood")


class TestHullAndContinuity:
    def test_hull_props(self):
        reports = hull_props_check(SETQ, seed=4, cases=20)
        assert all(r.passed for r in reports), [r.law for r in reports if not r.passed]
