"""Finitely generated upper sets: canonical forms, denotational soundness
against grid oracles, the inclusion order, convexity decisions and the
order-reversing singleton embedding."""

import random
import time
from fractions import Fraction as F
from itertools import combinations_with_replacement
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornets.core import (
    Horizon,
    Verdict,
    case_rng,
    check_A_continuity,
    is_A_bounded,
    is_archimedean,
)
from cornets.geometry import divide, join_orthant, lp_feasible, vadd, vdot, vscale, vsub
from cornets.sets import (
    MultisetCapExceeded,
    Repr,
    UnsupportedOperation,
    UpperSet,
    WedgeMismatch,
    _arch_exact_set,
    _bounded_exact_set,
    _canonicalize,
    _member,
    _member_chain,
    _poly_member_lp,
    convex_hull,
    discrete,
    enumerate_z_subsets,
    intersect,
    interval_z_subsets,
    is_n_convex_set,
    make_set_cornet,
    msum,
    order_convex_z,
    phi_embed,
    polytopic,
    serialize_set,
    set_arch_family,
    set_eq,
    star_set,
    subset,
)
from cornets.wedges import Wedge, make_elem_cornet
from grid_oracle import rational_grid

W2 = Wedge.orthant(2)
WZ = Wedge.zero(1)


def _rand_gens(rng, dim, count, lo=-6, hi=6, dens=(1, 2)):
    return [
        tuple(F(rng.randint(lo, hi), rng.choice(dens)) for _ in range(dim))
        for _ in range(rng.randint(1, count))
    ]


def _restart_scan(w, gens):
    """Reference polytopic redundancy scan: restart from the first generator
    after every removal (what the one-pass scan in _canonicalize replaced)."""
    kept = sorted(set(gens))
    changed = True
    while changed and len(kept) > 1:
        changed = False
        for i, g in enumerate(kept):
            if _poly_member_lp(w, kept[:i] + kept[i + 1 :], g):
                kept.pop(i)
                changed = True
                break
    return tuple(kept)


def _ref_poly_member_lp(w, gens, p):
    """Reference polytopic membership: the convex multipliers as free
    variables with explicit rows lambda_i >= 0 (what the sign-constrained
    LP in _poly_member_lp replaced)."""
    k = len(gens)
    ineqs = [(tuple(int(j == i) for j in range(k)), 0) for i in range(k)]
    ineqs.append(((1,) * k, -1))
    ineqs.append(((-1,) * k, 1))
    for m in w.rows:
        ineqs.append((tuple(-vdot(m, g) for g in gens), vdot(m, p)))
    return lp_feasible(ineqs, k) is not None


def _ref_arch_exact_set(x, probe):
    """Reference: the orthant-only Archimedean threshold that the threshold
    pairs in _arch_exact_set replaced."""
    w = x.wedge
    if not w.is_orthant:
        return None
    best = None
    for g in x.generators:
        if not all(gi <= 0 for gi in g):
            continue
        for f in probe.generators:
            n0 = 1
            ok = True
            for fi, gi in zip(f, g):
                if gi < 0:
                    n0 = max(n0, (fi / -gi).__ceil__())
                elif fi > 0:
                    ok = False
                    break
            if ok:
                best = n0 if best is None else min(best, n0)
    if best is not None:
        return True, best
    return None


def _ref_bounded_exact_set(x, a):
    """Reference: the orthant-only boundedness threshold against a single
    strictly negative generator, which _bounded_exact_set replaced."""
    w = x.wedge
    if not w.is_orthant or len(a.generators) != 1:
        return None
    (g,) = a.generators
    if not all(gi < 0 for gi in g):
        return None
    n0 = 1
    for f in x.generators:
        for fi, gi in zip(f, g):
            n0 = max(n0, (fi / gi).__ceil__())
    return n0


def _ref_dominance(w, gens):
    """Reference: the orthant and general dominance branches that
    _canonicalize had before it asked Wedge.leq."""
    gens = tuple(sorted(set(gens)))
    if w.is_orthant:
        return tuple(
            g
            for g in gens
            if not any(h != g and all(hc <= gc for hc, gc in zip(h, g)) for h in gens)
        )
    if w.is_zero:
        return gens
    return tuple(
        g for g in gens if not any(h != g and w.contains(vsub(g, h)) for h in gens)
    )


def _ref_member(w, gens, p):
    """Reference: the orthant and general discrete membership branches that
    _member had before it asked Wedge.leq."""
    if w.is_zero:
        return p in gens
    if w.is_orthant:
        return any(all(pc >= gc for pc, gc in zip(p, g)) for g in gens)
    return any(w.contains(vsub(p, g)) for g in gens)


def _ref_two_ends(gens):
    """Reference: the pruning _canonicalize had for 1-d polytopic sets over
    the zero wedge, which kept the two ends of three or more generators."""
    gens = tuple(sorted(set(gens)))
    return gens if len(gens) < 3 else (gens[0], gens[-1])


def _ref_interval_member(gens, p):
    """Reference: the interval test _member had for those sets."""
    return gens[0][0] <= p[0] <= gens[-1][0]


# One wedge for each branch of polytopic canonicalisation, checked against
# the LP scan: the orthant, zero and general dominance steps, followed by the
# 2-d orthant chain or the one-pass LP scan.
SCAN_WEDGES = [
    Wedge.orthant(3),
    Wedge.zero(2),
    Wedge.zero(3),
    Wedge.from_rows([[1, 0], [-1, 1]]),
    Wedge.from_rows([[1, 0, 0], [-1, 1, 0], [0, 0, 1], [1, 1, -1]]),
    Wedge.orthant(1),
    Wedge.from_rows([[-1]]),
    Wedge.zero(1),
    Wedge.orthant(2),
]


class TestCanonicalization:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_one_pass_scan_matches_restart_scan(self, data):
        w = data.draw(st.sampled_from(SCAN_WEDGES))
        coord = st.fractions(min_value=-4, max_value=4, max_denominator=2)
        gens = data.draw(
            st.lists(st.tuples(*[coord] * w.dim), min_size=1, max_size=6)
        )
        assert _canonicalize(w, Repr.POLYTOPIC, tuple(gens)) == _restart_scan(w, gens)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_dominance_matches_reference(self, data):
        # Discrete canonicalisation is the dominance step alone, and polytopic
        # canonicalisation the LP scan of what the dominance step leaves.
        w = data.draw(st.sampled_from(SCAN_WEDGES))
        coord = st.fractions(min_value=-4, max_value=4, max_denominator=2)
        gens = data.draw(
            st.lists(st.tuples(*[coord] * w.dim), min_size=1, max_size=6)
        )
        ref = _ref_dominance(w, gens)
        assert _canonicalize(w, Repr.DISCRETE, tuple(gens)) == ref
        assert _canonicalize(w, Repr.POLYTOPIC, tuple(gens)) == _restart_scan(w, ref)

    def test_discrete_antichain(self):
        A = discrete(W2, [(0, 0), (1, 1), (0, 3)])
        assert A.generators == ((F(0), F(0)),)

    def test_canonicalization_idempotent_randomized(self):
        rng = random.Random(11)
        for _ in range(100):
            rp = rng.choice([Repr.DISCRETE, Repr.POLYTOPIC])
            A = UpperSet.make(W2, rp, _rand_gens(rng, 2, 5))
            again = UpperSet.make(W2, rp, A.generators)
            assert again == A

    def test_equal_denotations_equal_values(self):
        A = discrete(W2, [(1, 2), (2, 1)])
        B = discrete(W2, [(2, 1), (1, 2), (3, 3)])
        assert A == B

    def test_polytopic_chain_is_lower_hull(self):
        A = polytopic(W2, [(0, 4), (1, 1), (4, 0), (2, 2)])
        assert A.generators == ((F(0), F(4)), (F(1), F(1)), (F(4), F(0)))

    def test_1d_ray_and_interval(self):
        up = polytopic(Wedge.orthant(1), [(3,), (5,)])
        assert up.generators == ((F(3),),)
        iv = polytopic(WZ, [(1,), (4,), (2,)])
        assert iv.generators == ((F(1),), (F(4),))

    def test_empty_generators_rejected(self):
        with pytest.raises(ValueError):
            discrete(W2, [])


class TestMembership:
    def test_discrete_membership_oracle(self):
        rng = random.Random(3)
        grid = list(rational_grid(2, 4, (1, 2)))
        for _ in range(40):
            raw = _rand_gens(rng, 2, 4, lo=-4, hi=4)
            A = discrete(W2, raw)
            for p in rng.sample(grid, 30):
                brute = any(
                    all(pc >= gc for pc, gc in zip(p, g)) for g in raw
                )
                assert A.member(p) == brute

    def test_polytopic_chain_vs_lp_route(self):
        # The fast 2-d chain membership must agree with the generic LP
        # membership on the same generators.
        from cornets.sets import _poly_member_lp

        rng = random.Random(5)
        grid = list(rational_grid(2, 4, (1, 2)))
        for _ in range(25):
            A = polytopic(W2, _rand_gens(rng, 2, 4, lo=-4, hi=4))
            for p in rng.sample(grid, 15):
                assert A.member(p) == _poly_member_lp(W2, A.generators, p)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_membership_fast_paths_match_lp(self, data):
        # A one-generator polytopic set takes the discrete branches, which
        # must agree with the LP on the same generator.
        w = data.draw(st.sampled_from(SCAN_WEDGES))
        coord = st.fractions(min_value=-4, max_value=4, max_denominator=2)
        point = st.tuples(*[coord] * w.dim)
        g = data.draw(point)
        p = data.draw(st.one_of(st.just(g), point))
        single = polytopic(w, [g])
        assert single.member(p) == discrete(w, [g]).member(p) == _poly_member_lp(w, [g], p)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_zero_wedge_intervals_match_reference(self, data):
        # 1-d polytopic sets over the zero wedge are intervals; the LP scan
        # keeps their two ends and the LP decides membership in them.
        coord = st.fractions(min_value=-4, max_value=4, max_denominator=2)
        gens = data.draw(st.lists(st.tuples(coord), min_size=1, max_size=6))
        ends = _canonicalize(WZ, Repr.POLYTOPIC, tuple(gens))
        assert ends == _ref_two_ends(gens)
        q = data.draw(st.one_of(st.sampled_from(gens), st.tuples(coord)))
        assert polytopic(WZ, gens).member(q) == _ref_interval_member(ends, q)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_discrete_membership_matches_reference(self, data):
        w = data.draw(st.sampled_from(SCAN_WEDGES))
        coord = st.fractions(min_value=-4, max_value=4, max_denominator=2)
        point = st.tuples(*[coord] * w.dim)
        A = discrete(w, data.draw(st.lists(point, min_size=1, max_size=5)))
        p = data.draw(st.one_of(st.sampled_from(A.generators), point))
        assert _member(A, p) == _ref_member(w, A.generators, p)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_poly_member_lp_matches_reference(self, data):
        # Int numerators (what sets pass) and Fractions (what the restart
        # scan passes) alike, and on the generators themselves.
        w = data.draw(st.sampled_from(SCAN_WEDGES))
        coord = data.draw(
            st.sampled_from(
                [
                    st.integers(min_value=-6, max_value=6),
                    st.fractions(min_value=-4, max_value=4, max_denominator=3),
                ]
            )
        )
        point = st.tuples(*[coord] * w.dim)
        gens = data.draw(st.lists(point, min_size=1, max_size=6))
        p = data.draw(st.one_of(st.sampled_from(gens), point))
        assert _poly_member_lp(w, gens, p) == _ref_poly_member_lp(w, gens, p)

    def test_zero_wedge_membership_is_exact_hit(self):
        A = discrete(WZ, [(0,), (2,)])
        assert A.member((F(2),))
        assert not A.member((F(1),))


class TestMinkowski:
    def test_worked_examples(self):
        A = discrete(W2, [(0, 1), (1, 0)])
        assert msum(A, A).generators == (
            (F(0), F(2)),
            (F(1), F(1)),
            (F(2), F(0)),
        )
        z1 = discrete(WZ, [(0,), (1,)])
        z2 = discrete(WZ, [(0,), (2,)])
        assert msum(z1, z2).generators == ((F(0),), (F(1),), (F(2),), (F(3),))

    def test_unit_is_neutral(self):
        rng = random.Random(8)
        unit = discrete(W2, [(0, 0)])
        for _ in range(30):
            A = discrete(W2, _rand_gens(rng, 2, 5))
            assert msum(A, unit) == A

    def test_wedge_spelling_does_not_matter(self):
        A = discrete(W2, [(0, 1), (1, 0)])
        # As written by Wedge.orthant, reordered, and scaled.
        for spelling in ([[1, 0], [0, 1]], [[0, 1], [1, 0]], [["2", "0"], ["0", "1"]]):
            rows = Wedge.from_rows(spelling)
            B = discrete(rows, [(1, 1), (2, -1)])
            assert msum(A, B) == msum(B, A) == msum(A, discrete(W2, B.generators))
            P = polytopic(rows, [(0, 3), (1, 1), (3, 0)])
            assert msum(P, A) == msum(polytopic(W2, P.generators), A)

    def test_three_by_three_polytopic_sum_is_fast(self):
        # Both operands keep 3 generators, so hull pruning of the 9 candidate
        # sums asks the integer simplex up to 9 membership LPs with up to 8
        # nonnegative multipliers and 3 wedge rows each.  Together they take
        # a few milliseconds; the 5 s budget only catches an engine whose
        # cost grows exponentially in the multipliers, as Fourier-Motzkin
        # elimination did (minutes on this sum).
        W3 = Wedge.orthant(3)
        h = F(1, 2)
        a = polytopic(W3, [(-3, h, 5), (F(-7, 4), -h, 0), (-h, 6, -h)])
        b = polytopic(W3, [(h, -2, F(-3, 2)), (F(-7, 4), h, F(-3, 2)), (4, 2, -7)])
        assert len(a.generators) == len(b.generators) == 3
        start = time.perf_counter()
        ab = msum(a, b)
        assert time.perf_counter() - start < 5
        assert ab == msum(b, a)

    def test_mixed_repr_promotes(self):
        A = discrete(W2, [(0, 1)])
        B = polytopic(W2, [(0, 0), (2, -1)])
        assert msum(A, B).repr is Repr.POLYTOPIC

    def test_wedge_mismatch(self):
        # Structurally equal wedges are the same wedge; different cones clash.
        assert Wedge.orthant(2) == W2
        with pytest.raises(WedgeMismatch):
            msum(discrete(W2, [(0, 0)]), discrete(Wedge.zero(2), [(0, 0)]))

    def test_denotational_soundness_on_grid(self):
        # p in A+B iff p = a + b with a, b in the denotations; for DISCRETE
        # orthant sets this is p >= f + g for some generator pair.
        rng = random.Random(13)
        grid = list(rational_grid(2, 4, (1,)))
        for _ in range(20):
            ga, gb = _rand_gens(rng, 2, 3, -3, 3), _rand_gens(rng, 2, 3, -3, 3)
            A, B, S = discrete(W2, ga), discrete(W2, gb), msum(discrete(W2, ga), discrete(W2, gb))
            for p in rng.sample(grid, 20):
                brute = any(
                    all(pc >= ac + bc for pc, ac, bc in zip(p, a, b))
                    for a in ga
                    for b in gb
                )
                assert S.member(p) == brute


class TestStarAndConvexity:
    def test_star_worked_examples(self):
        assert star_set(2, discrete(WZ, [(0,), (1,)])).generators == ((F(0),), (F(2),))
        A = discrete(W2, [(0, 1), (1, 0)])
        assert star_set(2, A).generators == ((F(0), F(2)), (F(2), F(0)))
        assert star_set(1, A) == A

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_star_keeps_canonical_form(self, data):
        # star_set skips canonicalisation; the scaled generators must be
        # what UpperSet.make would have made of them.
        w = data.draw(st.sampled_from(SCAN_WEDGES))
        rp = data.draw(st.sampled_from(list(Repr)))
        coord = st.fractions(min_value=-4, max_value=4, max_denominator=2)
        gens = data.draw(st.lists(st.tuples(*[coord] * w.dim), min_size=1, max_size=6))
        A = UpperSet.make(w, rp, gens)
        n = data.draw(st.integers(min_value=1, max_value=6))
        assert star_set(n, A) == UpperSet.make(w, rp, [vscale(n, g) for g in A.generators])

    def test_star_definition_on_samples(self):
        # n*A contains exactly the points n.a + w for a in A, w in W.
        rng = random.Random(21)
        for _ in range(25):
            gens = _rand_gens(rng, 2, 4)
            A = discrete(W2, gens)
            n = rng.randint(1, 5)
            S = star_set(n, A)
            a = vadd(rng.choice(gens), (F(rng.randint(0, 3)), F(rng.randint(0, 3))))
            w = (F(rng.randint(0, 3)), F(rng.randint(0, 3)))
            assert S.member(vadd(vscale(n, a), w))

    def test_convexity_examples(self):
        assert not is_n_convex_set(discrete(W2, [(0, 1), (1, 0)]), 2)
        assert is_n_convex_set(discrete(W2, [(0, 0)]), 4)
        assert not is_n_convex_set(discrete(WZ, [(0,), (1,), (2,)]), 2)
        assert is_n_convex_set(polytopic(W2, [(0, 1), (1, 0)]), 3)

    def test_multiset_decision_vs_tuple_brute_force(self):
        # Sample n-tuples from the denotation restricted to a grid and check
        # the averaged point directly; must agree with the generator-multiset
        # reduction.
        rng = random.Random(34)
        box = [
            (F(a), F(b)) for a in range(-3, 4) for b in range(-3, 4)
        ]
        for _ in range(40):
            A = discrete(W2, _rand_gens(rng, 2, 3, -2, 2, dens=(1,)))
            n = rng.randint(2, 3)
            decision = is_n_convex_set(A, n)
            pts = [p for p in box if A.member(p)]
            brute = True
            for _ in range(60):
                tup = [rng.choice(pts) for _ in range(n)]
                total = tup[0]
                for t in tup[1:]:
                    total = vadd(total, t)
                if not A.member(tuple(c / n for c in total)):
                    brute = False
                    break
            if decision:
                assert brute  # convex sets never fail on sampled tuples
            # A non-convex decision need not be witnessed by the small sample.

    def test_multiset_cap(self):
        A = discrete(W2, [(i, -i) for i in range(12)])
        with pytest.raises(MultisetCapExceeded):
            is_n_convex_set(A, 6, multiset_cap=50)


class TestSubsetAndIntersect:
    def test_subset_examples(self):
        assert subset(discrete(WZ, [(0,), (2,)]), discrete(WZ, [(0,), (1,), (2,)]))
        A = discrete(W2, [(1, 1)])
        B = discrete(W2, [(0, 1), (1, 0)])
        assert subset(A, B)
        assert not subset(B, A)

    def test_subset_vs_grid_oracle(self):
        rng = random.Random(44)
        grid = list(rational_grid(2, 4, (1, 2)))
        for _ in range(25):
            A = discrete(W2, _rand_gens(rng, 2, 3, -4, 4))
            B = discrete(W2, _rand_gens(rng, 2, 3, -4, 4))
            claim = subset(A, B)
            brute = all(B.member(p) for p in grid if A.member(p))
            assert claim == brute

    def test_polytopic_in_discrete_rejected(self):
        A = polytopic(W2, [(0, 1), (1, 0)])
        B = discrete(W2, [(0, 1), (1, 0)])
        with pytest.raises(UnsupportedOperation):
            subset(A, B)

    def test_polytopic_in_one_generator_discrete(self):
        # {g} + W is convex, so A's generators decide the inclusion.
        w = Wedge.from_rows([[1, 0], [1, 1]])
        assert subset(polytopic(w, [(0, 0), (2, 1)]), discrete(w, [(-1, -1)]))
        assert not subset(polytopic(w, [(0, 0), (2, 1)]), discrete(w, [(1, -1)]))
        rng = random.Random(77)
        for w in (W2, Wedge.zero(2), w, Wedge.from_rows([[1, 0], [-1, 1]])):
            for _ in range(10):
                A = polytopic(w, _rand_gens(rng, 2, 3, -4, 4))
                (g,) = _rand_gens(rng, 2, 1, -4, 4)
                assert subset(A, discrete(w, [g])) == subset(A, polytopic(w, [g]))

    def test_one_generator_polytopic_in_discrete(self):
        # {g} + W is a translated wedge, so B.member(g) decides the inclusion.
        B = discrete(W2, [(0, 1), (1, 0)])
        assert not subset(polytopic(W2, [(0, 0)]), B)
        assert subset(polytopic(W2, [(1, 1)]), B)
        rng = random.Random(78)
        for w in (W2, Wedge.zero(2), Wedge.from_rows([[1, 0], [-1, 1]])):
            for _ in range(10):
                (g,) = _rand_gens(rng, 2, 1, -4, 4)
                B = discrete(w, _rand_gens(rng, 2, 3, -4, 4))
                assert subset(polytopic(w, [g]), B) == subset(discrete(w, [g]), B)

    def test_1d_ray_crosses_reprs(self):
        w1 = Wedge.orthant(1)
        assert set_eq(polytopic(w1, [(2,)]), discrete(w1, [(2,)]))

    def test_intersect_examples(self):
        assert intersect(discrete(W2, [(0, 2)]), discrete(W2, [(1, 0)])).generators == (
            (F(1), F(2)),
        )
        A = discrete(W2, [(0, 1), (1, 0)])
        assert intersect(A, A) == A
        assert intersect(A, discrete(W2, [(2, 0)])).generators == ((F(2), F(0)),)

    def test_intersect_is_denotational_intersection(self):
        rng = random.Random(55)
        grid = list(rational_grid(2, 4, (1, 2)))
        for _ in range(20):
            A = discrete(W2, _rand_gens(rng, 2, 3, -4, 4))
            B = discrete(W2, _rand_gens(rng, 2, 3, -4, 4))
            I = intersect(A, B)
            for p in rng.sample(grid, 25):
                assert I.member(p) == (A.member(p) and B.member(p))

    def test_intersect_rejects_unsupported(self):
        with pytest.raises(UnsupportedOperation):
            intersect(polytopic(W2, [(0, 0)]), polytopic(W2, [(0, 0)]))


class TestHull:
    def test_hull_examples(self):
        A = discrete(Wedge.zero(1), [(0,), (2,)])
        H = convex_hull(A)
        assert H.repr is Repr.POLYTOPIC and H.generators == ((F(0),), (F(2),))
        assert H.member((F(1),))
        P = polytopic(W2, [(0, 1), (1, 0)])
        assert convex_hull(P) == P

    def test_hull_monotone_on_samples(self):
        rng = random.Random(66)
        for _ in range(20):
            ga = _rand_gens(rng, 2, 3)
            gb = ga + _rand_gens(rng, 2, 2)
            A, B = discrete(W2, ga), discrete(W2, gb)
            if subset(A, B):
                assert subset(convex_hull(A), convex_hull(B))


class TestPhiEmbedding:
    ELEM = make_elem_cornet(W2)

    def test_worked_examples(self):
        w1 = Wedge.orthant(1)
        assert phi_embed(w1, (F(0),)).generators == ((F(0),),)
        assert subset(phi_embed(w1, (F(1),)), phi_embed(w1, (F(0),)))
        lhs = phi_embed(W2, (F(4), F(6)))
        rhs = msum(phi_embed(W2, (F(1), F(2))), phi_embed(W2, (F(3), F(4))))
        assert lhs == rhs

    def test_homomorphism_and_order_reversal_randomized(self):
        rng = random.Random(77)
        for _ in range(60):
            x = tuple(F(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(2))
            y = tuple(F(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(2))
            n = rng.randint(1, 5)
            assert phi_embed(W2, vadd(x, y)) == msum(phi_embed(W2, x), phi_embed(W2, y))
            assert phi_embed(W2, vscale(n, x)) == star_set(n, phi_embed(W2, x))
            assert self.ELEM.leq(x, y) == subset(phi_embed(W2, y), phi_embed(W2, x))
            # Injectivity on distinct points.
            if x != y:
                assert phi_embed(W2, x) != phi_embed(W2, y)


class TestArchFamily:
    def test_member_thresholds(self):
        fam = set_arch_family(W2, [F(1), F(1, 2)])
        inst = make_set_cornet(W2, Repr.DISCRETE)
        probe = discrete(W2, [(3, 5)])
        rec = is_archimedean(inst, fam.elements[0], Horizon(12, (probe,)))
        assert rec.verdict.exact and rec.holds
        assert rec.details["n0"][0] == 5
        rec = is_archimedean(inst, fam.elements[0], Horizon(12, (inst.zero,)))
        assert rec.details["n0"][0] == 1

    def test_halving_arithmetic(self):
        fam = set_arch_family(W2, [F(1)])
        (a1,) = fam.elements
        half = fam.witness(a1)
        assert msum(half, half) == a1

    def test_continuity_suite(self):
        fam = set_arch_family(W2, [F(1), F(1, 2), F(1, 4)])
        inst = make_set_cornet(W2, Repr.DISCRETE)
        assert check_A_continuity(inst, fam).passed

    def test_zero_wedge_has_no_interior_direction(self):
        with pytest.raises(ValueError):
            set_arch_family(WZ, [F(1)])


class TestExactThresholds:
    small = st.fractions(min_value=-6, max_value=3, max_denominator=4)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_deciders_match_orthant_references(self, data):
        w = Wedge.orthant(data.draw(st.sampled_from([2, 3])))
        rp = data.draw(st.sampled_from(list(Repr)))
        vecs = st.lists(st.tuples(*[self.small] * w.dim), min_size=1, max_size=3)
        x = UpperSet.make(w, rp, data.draw(vecs))
        probe = UpperSet.make(w, rp, data.draw(vecs))
        a = UpperSet.make(w, rp, data.draw(vecs.map(lambda gs: gs[:1])))
        ref = _ref_arch_exact_set(x, probe)
        if ref is not None:
            assert _arch_exact_set(x, probe) == ref
        ref = _ref_bounded_exact_set(x, a)
        if ref is not None:
            assert _bounded_exact_set(x, a) == (True, ref)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_bounded_threshold_is_least(self, data):
        # Checked on inclusion itself, over wedges the references never saw.
        w = data.draw(st.sampled_from([W2, Wedge.zero(2)] + SCAN_WEDGES[3:4]))
        rp = data.draw(st.sampled_from(list(Repr)))
        vecs = st.lists(st.tuples(*[self.small] * w.dim), min_size=1, max_size=3)
        x = UpperSet.make(w, rp, data.draw(vecs))
        a = UpperSet.make(w, Repr.DISCRETE, data.draw(vecs.map(lambda gs: gs[:1])))
        holds, n0 = _bounded_exact_set(x, a)
        if holds:
            assert all(subset(x, star_set(n, a)) for n in range(n0, n0 + 6))
            assert n0 == 1 or not subset(x, star_set(n0 - 1, a))
        else:
            assert not subset(x, star_set(10**4, a))

    # Probe coordinates are integers in -3..3 and every positive m.g is at
    # least 1/4 on these wedges (rows +-e_i), so a pair without a threshold
    # holds at no n above 12: a refutation must fail at every n in 13..40.
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([W2, Wedge.orthant(3), Wedge.zero(2)]),
        st.data(),
    )
    def test_discrete_refutation_against_brute_force(self, w, data):
        coords = st.fractions(min_value=-3, max_value=3, max_denominator=4)
        x = discrete(w, data.draw(st.lists(st.tuples(*[coords] * w.dim), min_size=1, max_size=3)))
        probe = discrete(w, data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * w.dim), min_size=1, max_size=3)))
        inst = make_set_cornet(w)
        holds_at = lambda n: subset(inst.zero, msum(probe, star_set(n, x)))
        holds, n0 = _arch_exact_set(x, probe)
        if holds:
            assert all(holds_at(n) for n in range(n0, n0 + 21))
        else:
            assert n0 is None
            assert not any(holds_at(n) for n in range(13, 41))

    def test_discrete_refutation_beyond_horizon(self):
        # 0 in U + n*x holds for n <= 12 only, so the horizon search said yes.
        inst = make_set_cornet(W2)
        x = discrete(W2, [(-1, F(1, 12))])
        probe = discrete(W2, [(0, -1)])
        assert subset(inst.zero, msum(probe, star_set(12, x)))
        rec = is_archimedean(inst, x, Horizon(12, (probe,)))
        assert rec.verdict is Verdict.ANALYTICALLY_REFUTED

    def test_custom_wedge_answers_exactly(self):
        # Off the orthant, with n0 = 40 beyond a horizon of 24.
        w = Wedge.from_rows([[1, 0], [1, 1]])
        inst = make_set_cornet(w, Repr.DISCRETE)
        fam = set_arch_family(w, [F(1), F(1, 2)])
        x = discrete(w, [(-5, -4)])
        rec = is_A_bounded(inst, star_set(4, x), fam, Horizon(24))
        assert rec.verdict is Verdict.ANALYTICALLY_VERIFIED
        assert rec.details["n0"] == {0: 20, 1: 40}
        rec = is_archimedean(inst, fam.elements[0], Horizon(12, (discrete(w, [(3, 5)]),)))
        assert rec.verdict is Verdict.ANALYTICALLY_VERIFIED and rec.details["n0"][0] == 4


class TestZUniverse:
    def test_enumerations(self):
        assert len(enumerate_z_subsets(3)) == 15
        assert len(enumerate_z_subsets(0)) == 1

    def test_order_convexity(self):
        assert order_convex_z(discrete(WZ, [(0,), (1,), (2,)]))
        assert not order_convex_z(discrete(WZ, [(0,), (2,)]))
        assert order_convex_z(discrete(WZ, [(5,)]))

    def test_integer_sampler_stays_integral(self):
        inst = make_set_cornet(WZ, Repr.DISCRETE, integer=True)
        for i in range(20):
            A = inst.sampler(case_rng(1, i))
            assert all(g[0].denominator == 1 for g in A.generators)


# --- Int numerators over one denominator, against the Fraction code ----------
#
# The set operations as they were when UpperSet held Fraction generators.
# Each returns the generator tuple (or the decision) that code computed, so
# the new integer paths are compared with it value for value.


def _ref_set_member(A, p):
    w, gens = A.wedge, A.generators
    if A.repr is Repr.DISCRETE or len(gens) == 1:
        if w.is_zero:
            return p in gens
        return any(w.leq(g, p) for g in gens)
    if w.is_orthant and w.dim == 2:
        return _member_chain(gens, p)
    return _poly_member_lp(w, gens, p)


def _ref_msum(A, B):
    rp = Repr.POLYTOPIC if Repr.POLYTOPIC in (A.repr, B.repr) else Repr.DISCRETE
    return _canonicalize(A.wedge, rp, tuple(vadd(a, b) for a in A.generators for b in B.generators))


def _ref_star_set(n, A):
    return tuple(vscale(n, g) for g in A.generators)


def _ref_subset(A, B):
    if (
        A.repr is Repr.POLYTOPIC
        and len(A.generators) > 1
        and B.repr is Repr.DISCRETE
        and len(B.generators) > 1
    ):
        raise UnsupportedOperation("polytopic within discrete is undecided here")
    return all(_ref_set_member(B, g) for g in A.generators)


def _ref_intersect(A, B):
    gens = tuple(join_orthant(f, g) for f in A.generators for g in B.generators)
    return _canonicalize(A.wedge, Repr.DISCRETE, gens)


def _ref_is_n_convex_set(A, n):
    if n == 1 or A.repr is Repr.POLYTOPIC:
        return True
    for combo in combinations_with_replacement(A.generators, n):
        total = combo[0]
        for g in combo[1:]:
            total = vadd(total, g)
        if not _ref_set_member(A, divide(total, n)):
            return False
    return True


# (wedge, denominators): the orthant in d = 2 and 3, the zero wedge in d = 1
# with integer and rational generators, a skew 2-d wedge and poly3's wedge.
INT_UNIVERSES = [
    (Wedge.orthant(2), (1, 2, 3, 4)),
    (Wedge.orthant(3), (1, 2, 3, 4)),
    (Wedge.zero(1), (1,)),
    (Wedge.zero(1), (1, 2, 3, 4)),
    (Wedge.from_rows([[1, 0], [-1, 1]]), (1, 2, 3, 4)),
    (Wedge.from_rows([[1, 0, 0], [0, 1, 0], [1, 1, 1]]), (1, 2, 3, 4)),
]


def _draw_set(data, w, dens, rp, max_size=3):
    coord = st.builds(F, st.integers(-4, 4), st.sampled_from(dens))
    gens = data.draw(st.lists(st.tuples(*[coord] * w.dim), min_size=1, max_size=max_size))
    return UpperSet.make(w, rp, gens)


def _assert_reduced(A):
    assert A.den >= 1 and gcd(A.den, *(c for g in A.nums for c in g)) == 1
    assert all(type(c) is int for g in A.nums for c in g)
    assert A.generators == tuple(tuple(F(c, A.den) for c in g) for g in A.nums)


class TestIntegerGenerators:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_operations_match_fraction_code(self, data):
        w, dens = data.draw(st.sampled_from(INT_UNIVERSES))
        A = _draw_set(data, w, dens, data.draw(st.sampled_from(list(Repr))))
        B = _draw_set(data, w, dens, data.draw(st.sampled_from(list(Repr))))
        n = data.draw(st.integers(min_value=1, max_value=6))
        S = msum(A, B)
        assert S.generators == _ref_msum(A, B)
        assert star_set(n, A).generators == _ref_star_set(n, A)
        for X in (A, B, S, star_set(n, A)):
            _assert_reduced(X)
        for X, Y in ((A, B), (B, A), (A, S), (S, A)):
            try:
                expected = _ref_subset(X, Y)
            except UnsupportedOperation:
                with pytest.raises(UnsupportedOperation):
                    subset(X, Y)
            else:
                assert subset(X, Y) == expected
        coord = st.builds(F, st.integers(-6, 6), st.sampled_from(dens))
        p = data.draw(st.one_of(st.sampled_from(S.generators), st.tuples(*[coord] * w.dim)))
        assert _member(A, p) == _ref_set_member(A, p)
        assert _member(S, p) == _ref_set_member(S, p)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_discrete_decisions_match_fraction_code(self, data):
        # Intersections (orthant only) and n-convexity, on discrete sets.
        w, dens = data.draw(st.sampled_from(INT_UNIVERSES))
        A = _draw_set(data, w, dens, Repr.DISCRETE, max_size=4)
        B = _draw_set(data, w, dens, Repr.DISCRETE, max_size=4)
        for n in (2, 3):
            assert is_n_convex_set(A, n) == _ref_is_n_convex_set(A, n)
        if w.is_orthant:
            C = intersect(A, B)
            assert C.generators == _ref_intersect(A, B)
            _assert_reduced(C)

    def test_reduction_follows_pruning(self):
        # (1/4, 1) lies in (0, 0) + W and is pruned, so nothing is left
        # over 4; reducing before pruning would keep den 4 and break x + 0.
        x = discrete(W2, [(0, 0), (F(1, 4), 1)])
        assert x.den == 1 and x.nums == ((0, 0),)
        zero = discrete(W2, [(0, 0)])
        assert msum(x, zero) == x
        y = discrete(W2, [(F(1, 2), F(3, 2)), (F(5, 4), 0)])
        assert y.den == 4 and msum(y, zero) == y and msum(zero, y) == y
        assert star_set(2, y).den == 2 and star_set(4, y).den == 1

    def test_hunt_universes_are_integer(self):
        for A in enumerate_z_subsets(3, lo=-2) + interval_z_subsets(3, lo=-2):
            assert A.den == 1
            _assert_reduced(A)

    def test_serialize_matches_fraction_strings(self):
        y = polytopic(W2, [(F(-3, 6), 2), (0, F(1, 3)), (F(7, 4), F(-8, 4))])
        assert serialize_set(y)["generators"] == [
            [str(c) for c in g] for g in y.generators
        ]
        assert serialize_set(discrete(WZ, [(-3,), (0,)]))["generators"] == [["-3"], ["0"]]
