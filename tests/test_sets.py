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
    is_n_convex,
)
from cornets import sets as sets_module
from cornets import wedges as wedges_module
from cornets.geometry import join_orthant, lp_feasible, vdot, vscale, vzero
from cornets.sets import (
    Repr,
    UnsupportedOperation,
    UpperSet,
    WedgeMismatch,
    _arch_exact_set,
    _bounded_exact_set,
    _canonicalize,
    _has,
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
    star_set,
    subset,
)
from cornets.wedges import Point, Wedge, make_elem_cornet
from grid_oracle import rational_grid, vadd, vsub

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
    """Reference: the all-pairs dominance filter, k^2 order tests in the
    orthant and general branches _canonicalize had before the one pass in
    height order replaced it, read row by row, not through Wedge.values."""
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
        g
        for g in gens
        if not any(h != g and all(vdot(m, vsub(g, h)) >= 0 for m in w.rows) for h in gens)
    )


def _ref_member(w, gens, p):
    """Reference: the orthant and general discrete membership branches that
    UpperSet.member had before it asked Wedge.leq."""
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
    """Reference: the interval test UpperSet.member had for those sets."""
    return gens[0][0] <= p[0] <= gens[-1][0]


# One wedge for each branch of polytopic canonicalisation, checked against
# the LP scan: the zero, staircase (at most two rows) and height-ordered
# dominance steps, followed by the 2-d orthant chain or the one-pass scan,
# whose vertex certificates read one value per row; so after the orthant of
# Q^2 come poly3's wedge, a 4-d wedge and a 3-d wedge with a redundant row,
# then a second skew 2-d wedge for the staircase and a 2-d wedge whose
# redundant third row keeps it on the height-ordered pass.
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
    Wedge.from_rows([[1, 0, 0], [0, 1, 0], [1, 1, 1]]),
    Wedge.from_rows([[1, 0, 0, 0], [-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1]]),
    Wedge.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]]),
    Wedge.from_rows([[1, 0], [1, 1]]),
    Wedge.from_rows([[1, 0], [0, 1], [1, 1]]),
]
# The wedges that _canonicalize sweeps as a staircase.
STAIRCASE_WEDGES = [w for w in SCAN_WEDGES if not w.is_zero and len(w.rows) <= 2]


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

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_dominance_matches_reference(self, data):
        # Discrete canonicalisation is the dominance step alone, and polytopic
        # canonicalisation the LP scan of what the dominance step leaves.
        # Sets pass int numerators; Fraction and repeated generators too.
        w = data.draw(st.sampled_from(SCAN_WEDGES))
        coord = st.one_of(
            st.integers(min_value=-4, max_value=4),
            st.fractions(min_value=-4, max_value=4, max_denominator=2),
        )
        gens = data.draw(
            st.lists(st.tuples(*[coord] * w.dim), min_size=1, max_size=6)
        )
        gens += data.draw(st.lists(st.sampled_from(gens), max_size=3))
        ref = _ref_dominance(w, gens)
        assert _canonicalize(w, Repr.DISCRETE, tuple(gens)) == ref
        assert _canonicalize(w, Repr.POLYTOPIC, tuple(gens)) == _restart_scan(w, ref)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_staircase_matches_reference(self, data):
        # Up to 40 generators on a small grid, so that many share their first
        # value (and their second), with repeats; both representations.
        w = data.draw(st.sampled_from(STAIRCASE_WEDGES))
        coord = st.one_of(
            st.integers(min_value=-3, max_value=3),
            st.fractions(min_value=-3, max_value=3, max_denominator=2),
        )
        gens = data.draw(st.lists(st.tuples(*[coord] * w.dim), min_size=1, max_size=40))
        ref = _ref_dominance(w, gens)
        assert _canonicalize(w, Repr.DISCRETE, tuple(gens)) == ref
        assert _canonicalize(w, Repr.POLYTOPIC, tuple(gens)) == _restart_scan(w, ref)

    def test_staircase_ties_in_first_value(self):
        # The canonical rows are (1, 1) then (1, 0), so (x, y) has the values
        # (x + y, x).  (3, -2), at first value 1, comes first and stays.
        # (0, 2), (1, 1) and (4, -2) tie at first value 2: (0, 2) has the
        # least second value and stays, and the other two lie above it, as
        # does (0, 5).
        w = Wedge.from_rows([[1, 0], [1, 1]])
        gens = [(0, 5), (0, 2), (3, -2), (4, -2), (1, 1)]
        assert _canonicalize(w, Repr.DISCRETE, tuple(gens)) == _ref_dominance(w, gens)
        assert _canonicalize(w, Repr.DISCRETE, tuple(gens)) == ((0, 2), (3, -2))

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
        assert A.member(p) == _ref_member(w, A.generators, p)

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

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_polytopic_membership_matches_reference(self, data):
        # The polytopic branch, certificate and LP together, against the LP
        # alone; points of g + W and of the chord midpoints plus W reach the
        # certificate and the LP's "member" answers.
        w = data.draw(st.sampled_from(SCAN_WEDGES))
        coord = st.fractions(min_value=-4, max_value=4, max_denominator=2)
        point = st.tuples(*[coord] * w.dim)
        A = polytopic(w, data.draw(st.lists(point, min_size=1, max_size=6)))
        g, h = data.draw(st.sampled_from(A.generators)), data.draw(st.sampled_from(A.generators))
        t = data.draw(point)
        t = t if w.contains(t) else vzero(w.dim)
        base = data.draw(st.sampled_from([g, vscale(F(1, 2), vadd(g, h)), vzero(w.dim)]))
        p = data.draw(st.one_of(st.just(vadd(base, t)), point))
        q = tuple(c * A.den for c in p)
        assert _has(w, Repr.POLYTOPIC, A.nums, q) == _ref_poly_member_lp(w, A.generators, p)

    def test_certificates_spare_the_lp(self, monkeypatch):
        # Each generator has the least value on one row, so it is a certified
        # vertex, and every generator of A certifies itself in subset(A, A).
        # A point above no generator still asks the LP, once.
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return lp_feasible(*args, **kwargs)

        monkeypatch.setattr(sets_module, "lp_feasible", counting)
        A = polytopic(Wedge.orthant(3), [(0, 5, 5), (5, 0, 5), (5, 5, 0)])
        assert len(A.nums) == 3 and A.repr is Repr.POLYTOPIC
        assert subset(A, A)
        assert calls == []
        assert polytopic(Wedge.orthant(3), [*A.generators, (4, 4, 4)]) == A
        assert A.member((4, 4, 4)) and not A.member((3, 3, 3))
        assert len(calls) == 3

    @pytest.mark.parametrize("rp", list(Repr))
    def test_point_values_read_once(self, monkeypatch, rp):
        # A k-generator membership over a custom wedge reads each generator's
        # values once and q's once, not once per generator; q lies above
        # none of the generators, so the scan visits them all.
        w = Wedge.from_rows([[1, 0, 0], [0, 1, 0], [1, 1, 1]])
        gens = [(0, 5, 5), (5, 0, 5), (6, 6, -10)]
        q = (4, 4, -5)
        seen = []
        values = Wedge.values

        def counting(self, x):
            seen.append(x)
            return values(self, x)

        nums = UpperSet.make(w, rp, gens).nums
        assert len(nums) == 3
        monkeypatch.setattr(Wedge, "values", counting)
        monkeypatch.setattr(sets_module, "_poly_member_lp", lambda *args: False)
        assert not _has(w, rp, nums, q)
        assert seen.count(q) == 1 and len(seen) == len(nums) + 1

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
        assert polytopic(w1, [(2,)]) == discrete(w1, [(2,)])

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
        A = polytopic(W2, [(0, 1), (1, 0)])
        with pytest.raises(UnsupportedOperation):
            intersect(A, A)
        # A one-generator set is discrete, whatever form it was given in.
        assert intersect(polytopic(W2, [(0, 0)]), polytopic(W2, [(0, 0)])) == discrete(W2, [(0, 0)])


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
            px, py = Point.make(x), Point.make(y)
            assert phi_embed(W2, self.ELEM.add(px, py).coords) == msum(phi_embed(W2, x), phi_embed(W2, y))
            assert phi_embed(W2, self.ELEM.star(n, px).coords) == star_set(n, phi_embed(W2, x))
            assert self.ELEM.leq(px, py) == subset(phi_embed(W2, y), phi_embed(W2, x))
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

    def test_one_generator_polytopic_refuted_exactly(self):
        # x = (1, 0) + W is stored as discrete, and no pair of generators
        # reaches the origin, so two discrete sets: refuted exactly, not at
        # the horizon.
        inst = make_set_cornet(W2, Repr.POLYTOPIC)
        x = polytopic(W2, [(1, 0)])
        rec = is_archimedean(inst, x, Horizon(12, (discrete(W2, [(0, 0)]),)))
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
        if not _ref_set_member(A, tuple(c / n for c in total)):
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
        assert A.member(p) == _ref_set_member(A, p)
        assert S.member(p) == _ref_set_member(S, p)

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

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_convexity_closed_form_matches_definition(self, data):
        # The closed form (n == 1, POLYTOPIC, or one generator) against the
        # definition n*A == n.A, with n.A by binary-doubling dot_mul.
        w, dens = data.draw(st.sampled_from(INT_UNIVERSES))
        rp = data.draw(st.sampled_from(list(Repr)))
        A = _draw_set(data, w, dens, rp, max_size=4)
        n = data.draw(st.integers(min_value=2, max_value=4))
        assert is_n_convex_set(A, n) == is_n_convex(make_set_cornet(w, rp), A, n)

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

    def test_common_keeps_an_operand_over_the_lcm(self):
        # Only the operand whose denominator is below the lcm is rescaled;
        # the other's generators are handed on as they are.
        A = discrete(W2, [(F(1, 4), 0), (0, 1)])
        B = discrete(W2, [(F(1, 2), 1)])
        den, an, bn = sets_module._common(A, B)
        assert (A.den, B.den, den) == (4, 2, 4)
        assert an is A.nums and bn == ((2, 4),)
        x, y = Point.make((F(1, 4), 0)), Point.make((F(1, 2), 1))
        assert wedges_module._common(x, y)[1] is x.nums

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


# --- One form per denotation -------------------------------------------------


class TestOneFormPerSet:
    """A one-generator set is stored as DISCRETE, so ``==`` is equality of
    denotations across both forms."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_translated_wedge_has_one_form(self, data):
        w, dens = data.draw(st.sampled_from(INT_UNIVERSES))
        coord = st.builds(F, st.integers(-4, 4), st.sampled_from(dens))
        g = data.draw(st.tuples(*[coord] * w.dim))
        assert polytopic(w, [g]) == discrete(w, [g])
        assert polytopic(w, [g]).repr is Repr.DISCRETE

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_equality_is_mutual_inclusion(self, data):
        w, dens = data.draw(st.sampled_from(INT_UNIVERSES))
        A = _draw_set(data, w, dens, data.draw(st.sampled_from(list(Repr))))
        B = _draw_set(data, w, dens, data.draw(st.sampled_from(list(Repr))))
        # C denotes A: A's generators plus points of A that are redundant,
        # in A's form (or either form, when A is a translated wedge).
        coord = st.builds(F, st.integers(0, 3), st.sampled_from(dens))
        steps = data.draw(st.lists(st.tuples(*[coord] * w.dim), max_size=3))
        extra = [vadd(g, d) for g in A.generators for d in steps if w.contains(d)]
        if A.repr is Repr.POLYTOPIC:
            extra += [tuple(c / 2 for c in vadd(f, g)) for f in A.generators for g in A.generators]
        forms = list(Repr) if len(A.nums) == 1 else [A.repr]
        C = UpperSet.make(w, data.draw(st.sampled_from(forms)), list(A.generators) + extra)
        assert C == A
        for X, Y in ((A, B), (A, C), (B, C)):
            try:
                both = subset(X, Y) and subset(Y, X)
            except UnsupportedOperation:
                continue
            assert (X == Y) == both

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_sum_with_translated_wedge_on_grid(self, data):
        # p in A + B iff p = a + b for a in A, b in B; with A = g + W the
        # witness b = p - g lies on the grid for every p = g + q.
        w, dens = data.draw(st.sampled_from(INT_UNIVERSES))
        coord = st.builds(F, st.integers(-2, 2), st.sampled_from(dens))
        g = data.draw(st.tuples(*[coord] * w.dim))
        A = UpperSet.make(w, data.draw(st.sampled_from(list(Repr))), [g])
        B = _draw_set(data, w, dens, data.draw(st.sampled_from(list(Repr))))
        S = msum(A, B) if data.draw(st.booleans()) else msum(B, A)
        assert S.repr is (B.repr if len(B.nums) > 1 else Repr.DISCRETE)
        grid = list(rational_grid(w.dim, 3 if w.dim < 3 else 2, (1, 2)))
        in_b = [b for b in grid if B.member(b)]
        for q in data.draw(st.lists(st.sampled_from(grid), min_size=1, max_size=8)):
            p = vadd(g, q)
            assert S.member(p) == any(A.member(vsub(p, b)) for b in in_b)
