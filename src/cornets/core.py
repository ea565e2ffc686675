"""The abstract cornet signature and the law-checking machinery.

A cornet is an ordered commutative unital semigroup (X, +, 0, <=) carrying a
second multiplication * by positive integers, with the compatibility laws
checked by :func:`check_cornet_laws`.  The iterated-addition action n.x is
derived here once (:func:`dot_mul`) and shared by every instance.

Everything in this module is generic over a :class:`CornetInstance`; the
concrete element/set/fuzzy universes plug in their operations, samplers,
closure map and exact deciders for the semi-decidable predicates
(Archimedean-ness, boundedness).
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterable, Optional, Sequence


class Verdict(Enum):
    VERIFIED_AT_HORIZON = "verified-at-horizon"
    REFUTED_AT_HORIZON = "refuted-at-horizon"
    ANALYTICALLY_VERIFIED = "analytically-verified"
    ANALYTICALLY_REFUTED = "analytically-refuted"

    @property
    def holds(self) -> bool:
        return self in (Verdict.VERIFIED_AT_HORIZON, Verdict.ANALYTICALLY_VERIFIED)

    @property
    def exact(self) -> bool:
        return self in (Verdict.ANALYTICALLY_VERIFIED, Verdict.ANALYTICALLY_REFUTED)


@dataclass
class VerdictRecord:
    verdict: Verdict
    details: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.verdict.holds


@dataclass
class LawReport:
    """Outcome of one universally quantified law over sampled cases."""

    law: str
    cases: int
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def record(self, item) -> None:
        if len(self.violations) < 10:  # keep reports readable
            self.violations.append(item)


@dataclass(frozen=True)
class Horizon:
    """Finite stand-in for 'there exists n0' quantifiers: search n up to n_max."""

    n_max: int = 12
    probes: tuple = ()

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")


@dataclass
class ArchFamily:
    """A finite indexed family of (purportedly) Archimedean elements together
    with a continuity witness map a -> b satisfying b + b <= a."""

    elements: tuple
    witness: Callable[[Any], Any]


class UnsupportedOperation(ValueError):
    """An operation undecided for the representations of its operands."""


@dataclass
class CornetInstance:
    """A concrete cornet: carrier operations, samplers and deciders.

    ``add``/``star``/``leq``/``zero`` are the signature.  The generic layer
    relies on this contract: ``==`` is equality of elements (canonical
    representations), consistent with hashing (:func:`ablation_hunt` numbers
    its sums in a dict); n.x is :func:`dot_mul`; and a comparison undecided
    for the representations of its operands raises
    :class:`UnsupportedOperation`.  ``leq`` both ways is used as a
    cross-check in the test-suite, not here.  The samplers (``nonneg_sampler``
    draws elements >= 0), ``closure``, ``serialize`` and the exact deciders
    are required, since every model supplies them; an exact decider returns
    (holds, threshold n0), or None to leave "for all large n" to the horizon
    search.  ``hull`` exists only for sets, so it may be None; so may
    ``separates``, a cancellation-free refutation for :func:`ablation_hunt`:
    it may return True for (x, y) only when x + z <= y + z fails for every z.
    """

    name: str
    zero: Any
    add: Callable[[Any, Any], Any]
    star: Callable[[int, Any], Any]
    leq: Callable[[Any, Any], bool]
    sampler: Callable[[random.Random], Any]
    nonneg_sampler: Callable[[random.Random], Any]
    closure: Callable[[Any], Any]
    serialize: Callable[[Any], Any]
    arch_exact: Callable[[Any, Any], Optional[tuple[bool, Optional[int]]]]
    bounded_exact: Callable[[Any, Any], Optional[tuple[bool, Optional[int]]]]
    hull: Optional[Callable[[Any], Any]] = None
    separates: Optional[Callable[[Any, Any], bool]] = None


def dot_mul(inst: CornetInstance, n: int, x):
    """n-fold iterated addition, computed by binary doubling."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return inst.zero
    result = None
    base = x
    while n:
        if n & 1:
            result = base if result is None else inst.add(result, base)
        n >>= 1
        if n:
            base = inst.add(base, base)
    return result


def case_rng(seed: int, index: int) -> random.Random:
    """Deterministic per-case RNG: case i draws the same elements in every run."""
    return random.Random(f"{seed}:{index}")


def check_cornet_laws(
    inst: CornetInstance, seed: int = 0, cases: int = 100, n_max: int = 6
) -> list[LawReport]:
    """Check Def-1 (ordered semigroup) and all six cornet star laws.

    Both directions of the order-compatibility law (iv) are exercised; the
    forward direction on constructed comparable pairs, the reverse on every
    sampled pair where the scaled comparison happens to hold.
    """
    names = [
        "add-associativity",
        "add-commutativity",
        "add-unit",
        "order-reflexivity",
        "order-antisymmetry",
        "order-transitivity",
        "translation-monotonicity",
        "star-i-action",
        "star-ii-distributivity",
        "star-iii-superadditivity",
        "star-iv-forward",
        "star-iv-reverse",
        "star-v-unit",
        "star-vi-zero",
    ]
    reports = {n: LawReport(n, cases) for n in names}
    add, star, leq = inst.add, inst.star, inst.leq
    for i in range(cases):
        rng = case_rng(seed, i)
        x, y, z = inst.sampler(rng), inst.sampler(rng), inst.sampler(rng)
        p, q = inst.nonneg_sampler(rng), inst.nonneg_sampler(rng)
        ser = lambda *els: tuple(inst.serialize(e) for e in els)

        xy = add(x, y)
        if add(xy, z) != add(x, add(y, z)):
            reports["add-associativity"].record(ser(x, y, z))
        if xy != add(y, x):
            reports["add-commutativity"].record(ser(x, y))
        if add(x, inst.zero) != x:
            reports["add-unit"].record(ser(x))
        if not leq(x, x):
            reports["order-reflexivity"].record(ser(x))
        if leq(x, y) and leq(y, x) and x != y:
            reports["order-antisymmetry"].record(ser(x, y))

        # Comparable chain x <= b <= c built from nonnegative perturbations.
        b = add(x, p)
        cc = add(b, q)
        if not (leq(x, b) and leq(b, cc)):
            reports["translation-monotonicity"].record(ser(x, p, q))
        elif not leq(x, cc):
            reports["order-transitivity"].record(ser(x, b, cc))
        if not leq(add(x, z), add(b, z)):
            reports["translation-monotonicity"].record(ser(x, b, z))
        if leq(x, y) and leq(y, z) and not leq(x, z):
            reports["order-transitivity"].record(ser(x, y, z))

        sx = [None] + [star(n, x) for n in range(1, n_max + 1)]
        sy = [None] + [star(n, y) for n in range(1, n_max + 1)]
        sxy = [None] + [star(n, xy) for n in range(1, n_max + 1)]
        for n in range(1, n_max + 1):
            for m in range(1, n_max + 1):
                if n * m <= n_max:
                    if sx[n * m] != star(n, sx[m]):
                        reports["star-i-action"].record((n, m) + ser(x))
                if n + m <= n_max:
                    if not leq(sx[n + m], add(sx[n], sx[m])):
                        reports["star-iii-superadditivity"].record((n, m) + ser(x))
            if sxy[n] != add(sx[n], sy[n]):
                reports["star-ii-distributivity"].record((n,) + ser(x, y))
            if not leq(sx[n], star(n, b)):
                reports["star-iv-forward"].record((n,) + ser(x, b))
            if leq(sx[n], sy[n]) and not leq(x, y):
                reports["star-iv-reverse"].record((n,) + ser(x, y))
        if sx[1] != x:
            reports["star-v-unit"].record(ser(x))
    for n in range(1, n_max + 1):
        if inst.star(n, inst.zero) != inst.zero:
            reports["star-vi-zero"].record((n,))
    return [reports[n] for n in names]


def check_lemma_identities(
    inst: CornetInstance, seed: int = 0, cases: int = 100, n_max: int = 6
) -> list[LawReport]:
    """The two derived identities relating * and iterated addition:
    n*(m.x) == m.(n*x), and (mn)*x <= n.(m*x)."""
    eq_report = LawReport("lemma-star-dot-commute", cases)
    ineq_report = LawReport("lemma-star-dot-bound", cases)
    for i in range(cases):
        rng = case_rng(seed, i)
        x = inst.sampler(rng)
        sx = [None] + [inst.star(n, x) for n in range(1, n_max + 1)]
        # Incremental iterated sums: dx[m] = m.x, and per-n running m.(n*x).
        dmx = x
        dots_of_sx = list(sx)  # slot n holds the running k.(n*x)
        for m in range(1, n_max + 1):
            if m > 1:
                dmx = inst.add(dmx, x)
            for n in range(1, n_max + 1):
                if m > 1:
                    dots_of_sx[n] = inst.add(dots_of_sx[n], sx[n])
                if inst.star(n, dmx) != dots_of_sx[n]:
                    eq_report.record((n, m, inst.serialize(x)))
                # Here dots_of_sx[n] = m.(n*x); the bound reads (nm)*x <= m.(n*x).
                if n * m <= n_max and not inst.leq(sx[n * m], dots_of_sx[n]):
                    ineq_report.record((n, m, inst.serialize(x)))
    return [eq_report, ineq_report]


def is_n_convex(inst: CornetInstance, x, n: int) -> bool:
    """x is n-convex iff the two multiplications agree on it: n*x == n.x."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return True
    return inst.star(n, x) == dot_mul(inst, n, x)


def convexity_semigroup_check(
    inst: CornetInstance, x, n_max: int = 6, seed: int = 0, cases: int = 25
) -> LawReport:
    """C_x is a unital multiplicative subsemigroup of N, and each C^n is
    closed under + and m* (checked on samples)."""
    report = LawReport("convexity-semigroup", cases)
    cx = {n for n in range(1, n_max + 1) if is_n_convex(inst, x, n)}
    if 1 not in cx:
        report.record(("1 not in C_x", inst.serialize(x)))
    for n in cx:
        for m in cx:
            if n * m <= n_max and n * m not in cx:
                report.record(("product escapes C_x", n, m, inst.serialize(x)))
    for i in range(cases):
        rng = case_rng(seed, i)
        a, b = inst.sampler(rng), inst.sampler(rng)
        for n in range(2, n_max + 1):
            if is_n_convex(inst, a, n) and is_n_convex(inst, b, n):
                if not is_n_convex(inst, inst.add(a, b), n):
                    report.record(("sum escapes C^n", n, inst.serialize(a), inst.serialize(b)))
            if is_n_convex(inst, a, n):
                m = 2 + (i % max(1, n_max - 1))
                if not is_n_convex(inst, inst.star(m, a), n):
                    report.record(("star escapes C^n", n, m, inst.serialize(a)))
    return report


def _eventually(
    inst: CornetInstance,
    x,
    items: Sequence[Any],
    exact: Callable[[Any, Any], Optional[tuple[bool, Optional[int]]]],
    holds_at: Callable[[Any, int], bool],
    n_max: int,
    refuting_key: str,
) -> VerdictRecord:
    """Decide "holds_at(item, n) for all large n" for every item: by the exact
    hook exact(x, item) where it answers, else by a search up to n_max for
    the smallest n0 with holds_at(item, n) at every n0 <= n <= n_max."""
    details: dict = {"n0": {}}
    all_exact = True
    for idx, item in enumerate(items):
        res = exact(x, item)
        refuted = Verdict.ANALYTICALLY_REFUTED
        if res is None:
            all_exact = False
            refuted = Verdict.REFUTED_AT_HORIZON
            n0 = None
            for n in range(n_max, 0, -1):
                if not holds_at(item, n):
                    break
                n0 = n
            res = n0 is not None, n0
        holds, n0 = res
        if not holds:
            details[refuting_key] = inst.serialize(item)
            return VerdictRecord(refuted, details)
        details["n0"][idx] = n0
    verdict = Verdict.ANALYTICALLY_VERIFIED if all_exact else Verdict.VERIFIED_AT_HORIZON
    return VerdictRecord(verdict, details)


def is_archimedean(inst: CornetInstance, x, h: Horizon) -> VerdictRecord:
    """Semi-decide 'for all u there is n0 with 0 <= u + n*x for n >= n0'.

    The universal quantifier over u is finitized by the horizon's probe
    list; instances with an exact decider short-circuit per probe.
    """
    if not h.probes:
        raise ValueError("horizon probe list is empty")
    return _eventually(
        inst, x, h.probes, inst.arch_exact,
        lambda u, n: inst.leq(inst.zero, inst.add(u, inst.star(n, x))),
        h.n_max, "refuting_probe",
    )


def is_A_bounded(inst: CornetInstance, x, fam: ArchFamily, h: Horizon) -> VerdictRecord:
    """Semi-decide 'for all a in the family, x <= n*a for all large n'."""
    return _eventually(
        inst, x, fam.elements, inst.bounded_exact,
        lambda a, n: inst.leq(x, inst.star(n, a)),
        h.n_max, "refuting_member",
    )


def check_A_continuity(inst: CornetInstance, fam: ArchFamily, n_max: int = 6) -> LawReport:
    """Each family member a admits a witness b with b+b <= a, and the derived
    halving chain yields n.b_k <= a and n*b_k <= a for all n <= n_max."""
    report = LawReport("family-continuity", len(fam.elements))
    for a in fam.elements:
        b = fam.witness(a)
        if b is None:
            report.record(("missing witness", inst.serialize(a)))
            continue
        if not inst.leq(inst.add(b, b), a):
            report.record(("witness fails b+b <= a", inst.serialize(a), inst.serialize(b)))
            continue
        # Chain a_k with 2^k . a_k <= a; pick k so that n_max <= 2^k.
        k, pow2 = 0, 1
        ak = a
        while pow2 < n_max:
            ak = fam.witness(ak)
            if ak is None:
                report.record(("halving chain breaks", inst.serialize(a)))
                break
            k += 1
            pow2 *= 2
        else:
            if not inst.leq(dot_mul(inst, pow2, ak), a):
                report.record(("2^k . a_k <= a fails", k, inst.serialize(a)))
            n_ak = inst.zero  # n . a_k, one addition per n
            for n in range(1, n_max + 1):
                n_ak = inst.add(n_ak, ak)
                if not inst.leq(n_ak, a):
                    report.record(("n . a_k <= a fails", n, inst.serialize(a)))
                if not inst.leq(inst.star(n, ak), a):
                    report.record(("n * a_k <= a fails", n, inst.serialize(a)))
    return report


def verify_closure(
    inst: CornetInstance,
    x,
    y_candidate,
    fam: ArchFamily,
    challenge_set: Sequence[Any] = (),
) -> VerdictRecord:
    """Check y <= x+a for every family member, and maximality of y against a
    finite challenge set.  Maximality beyond the challenges is not claimed.
    A challenge whose comparison with y raises :class:`UnsupportedOperation`
    is skipped: in the built-in instances x+a has the representations of x,
    which :func:`cancellation_check` passes as y, so the sums would raise."""
    details = {"maximality": "finite-challenge-set", "challenges": len(challenge_set)}
    sums = []
    for a in fam.elements:
        sums.append(inst.add(x, a))
        if not inst.leq(y_candidate, sums[-1]):
            details["failing_member"] = inst.serialize(a)
            return VerdictRecord(Verdict.REFUTED_AT_HORIZON, details)
    for z in challenge_set:
        try:
            if inst.leq(z, y_candidate):
                continue
        except UnsupportedOperation:
            continue
        if all(inst.leq(z, s) for s in sums):
            details["failing_challenge"] = inst.serialize(z)
            return VerdictRecord(Verdict.REFUTED_AT_HORIZON, details)
    return VerdictRecord(Verdict.VERIFIED_AT_HORIZON, details)


def closure_props_suite(
    inst: CornetInstance,
    fam: ArchFamily,
    h: Horizon,
    seed: int = 0,
    cases: int = 50,
    n_max: int = 6,
) -> list[LawReport]:
    """The closure-operator property suite (extensivity through convexity
    preservation) on sampled elements.  Boundedness (closure-viii) is probed
    at horizon ``h``."""
    cl = inst.closure
    names = [
        "closure-i-extensive",
        "closure-ii-monotone",
        "closure-iii-idempotent",
        "closure-iv-sandwich",
        "closure-v-additive",
        "closure-vi-dot",
        "closure-vii-star",
        "closure-viii-bounded",
        "closure-ix-convex",
    ]
    reports = {n: LawReport(n, cases) for n in names}
    for i in range(cases):
        rng = case_rng(seed, i)
        x, y = inst.sampler(rng), inst.sampler(rng)
        n = 2 + (i % (n_max - 1)) if n_max > 1 else 1
        cx, cy = cl(x), cl(y)
        if not inst.leq(x, cx):
            reports["closure-i-extensive"].record(inst.serialize(x))
        big = inst.add(x, inst.nonneg_sampler(rng))
        if inst.leq(x, big) and not inst.leq(cx, cl(big)):
            reports["closure-ii-monotone"].record((inst.serialize(x), inst.serialize(big)))
        if cl(cx) != cx:
            reports["closure-iii-idempotent"].record(inst.serialize(x))
        # Sandwich: x <= w <= cl(x) forces cl(w) = cl(x); w = x always works.
        if cl(x) != cx:
            reports["closure-iv-sandwich"].record(inst.serialize(x))
        if cl(inst.add(cx, cy)) != cl(inst.add(x, y)):
            reports["closure-v-additive"].record((inst.serialize(x), inst.serialize(y)))
        if cl(dot_mul(inst, n, cx)) != cl(dot_mul(inst, n, x)):
            reports["closure-vi-dot"].record((n, inst.serialize(x)))
        if cl(inst.star(n, cx)) != cl(inst.star(n, x)):
            reports["closure-vii-star"].record((n, inst.serialize(x)))
        if is_A_bounded(inst, x, fam, h).holds and not is_A_bounded(inst, cx, fam, h).holds:
            reports["closure-viii-bounded"].record(inst.serialize(x))
        if is_n_convex(inst, x, n) and not is_n_convex(inst, cx, n):
            reports["closure-ix-convex"].record((n, inst.serialize(x)))
    return [reports[n] for n in names]


def subcornet_closure_suite(
    inst: CornetInstance,
    fam: ArchFamily,
    h: Horizon,
    seed: int = 0,
    cases: int = 50,
) -> list[LawReport]:
    """Archimedean + nonnegative stays Archimedean; bounded elements are
    closed under + and m* (at ``h``, and their sums and stars at twice its
    n_max, matching the max(k0, m0) argument).  The probes of ``h`` must be
    nonempty."""
    arch_report = LawReport("archimedean-absorbs-nonnegative", cases)
    bound_report = LawReport("bounded-subcornet", cases)
    big_h = Horizon(2 * h.n_max, h.probes)
    for i in range(cases):
        rng = case_rng(seed, i)
        a = fam.elements[i % len(fam.elements)]
        y = inst.nonneg_sampler(rng)
        if is_archimedean(inst, a, h).holds:
            if not is_archimedean(inst, inst.add(a, y), big_h).holds:
                arch_report.record((inst.serialize(a), inst.serialize(y)))
        x, y = inst.sampler(rng), inst.sampler(rng)
        m = 2 + (i % 4)
        if is_A_bounded(inst, x, fam, h).holds and is_A_bounded(inst, y, fam, h).holds:
            if not is_A_bounded(inst, inst.add(x, y), fam, big_h).holds:
                bound_report.record(("sum unbounded", inst.serialize(x), inst.serialize(y)))
            if not is_A_bounded(inst, inst.star(m, x), fam, big_h).holds:
                bound_report.record(("star unbounded", m, inst.serialize(x)))
    return [arch_report, bound_report]


@dataclass
class CancellationRecord:
    status: str  # "Verified" | "HypothesisNotMet" | "PremiseNotMet" | "ConclusionFailed"
    hypotheses: dict
    premise: Optional[bool] = None
    conclusion: Optional[bool] = None
    chain: list = field(default_factory=list)


def cancellation_check(
    inst: CornetInstance,
    x,
    y,
    z,
    m: int,
    fam: ArchFamily,
    h: Horizon,
    challenge_set: Sequence[Any] = (),
) -> CancellationRecord:
    """Verify an instance of the generalized cancellation statement:
    with z family-bounded and y family-closed and m-convex (m >= 2),
    x + z <= y + z forces x <= y.

    Once the hypotheses and the premise hold, the proof chain is replayed:
    n.x+z <= n.y+z for n up to the horizon, then m^k*x+z <= m^k*y+z.  A
    conclusion failure with hypotheses verified would indicate an
    implementation bug, and the chain localizes its first broken link.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    hyp = {
        "z-bounded": is_A_bounded(inst, z, fam, h),
        "y-closed": verify_closure(inst, y, y, fam, challenge_set),
        "y-m-convex": is_n_convex(inst, y, m),
    }
    hyp_ok = hyp["z-bounded"].holds and hyp["y-closed"].holds and hyp["y-m-convex"]
    nxz, nyz = inst.add(x, z), inst.add(y, z)  # running sums n.x + z and n.y + z
    premise = inst.leq(nxz, nyz)
    if not hyp_ok:
        return CancellationRecord("HypothesisNotMet", hyp, premise)
    if not premise:
        return CancellationRecord("PremiseNotMet", hyp, premise)
    conclusion = inst.leq(x, y)
    chain = [("n.x+z <= n.y+z @ n=1", premise)]  # the link at n = 1 is the premise
    for n in range(2, h.n_max + 1):
        nxz, nyz = inst.add(nxz, x), inst.add(nyz, y)
        chain.append((f"n.x+z <= n.y+z @ n={n}", inst.leq(nxz, nyz)))
    mk = m
    while mk <= h.n_max:
        ok = inst.leq(inst.add(inst.star(mk, x), z), inst.add(inst.star(mk, y), z))
        chain.append((f"m^k*x+z <= m^k*y+z @ {mk}", ok))
        mk *= m
    status = "Verified" if conclusion else "ConclusionFailed"
    return CancellationRecord(status, hyp, premise, conclusion, chain)


def ablation_hunt(
    inst: CornetInstance,
    universe: Iterable[Any],
    ablate: str = "none",
    convexity_test: Optional[Callable[[Any], bool]] = None,
) -> Optional[tuple]:
    """Exhaustively search for triples breaking cancellation when one
    hypothesis on y is removed.

    ``ablate`` is one of convexity / closedness / boundedness / none.  The
    scan order is lexicographic on serialized elements, so the first hit is
    reproducible.  ``convexity_test`` overrides the default, m-convex for
    some m in 2..4 (finite integer universes use order-convexity instead,
    where the default admits only singletons).  Returns (x, y, z) or None.

    The admitted y are filtered once, before the universe is sorted, and a
    universe that admits none is exhausted unsorted.  A pair (x, y) that
    ``inst.separates`` refutes is skipped before the z loop: by its contract
    no z gives x + z <= y + z, so the first hit, and the result, are those of
    the full scan.  (Sets refute by the least value in each row, which is
    additive and reverses inclusion, so it cancels where the order may not.)
    The one difference: a skipped pair whose order test would raise
    :class:`UnsupportedOperation`, a polytopic sum within a discrete sum of
    several generators, no longer raises; the CLI's discrete universes have
    none.  Each sum ``elements[i] + elements[k]`` is computed on first use
    and numbered by value (``==`` is equality of denotations, so equal sums
    share a number), and each order test between two sums is kept by its
    pair of numbers.  So the O(U^3) scan makes at most U^2 additions and one
    order test per distinct pair of sums; nothing is kept across calls.
    """
    if convexity_test is None:
        convexity_test = lambda e: any(is_n_convex(inst, e, n) for n in range(2, 5))

    def closed(e) -> bool:
        return inst.closure(e) == e

    admits = {
        "convexity": lambda y: not convexity_test(y),
        "closedness": lambda y: not closed(y),
        "boundedness": lambda y: False,  # every element of a finite universe is bounded
        "none": lambda y: convexity_test(y) and closed(y),
    }.get(ablate)
    if admits is None:
        raise ValueError(f"unknown ablation {ablate!r}")
    elements = list(universe)
    flags = list(map(admits, elements))
    if not any(flags):
        return None
    ranked = sorted(zip(elements, flags), key=lambda p: str(inst.serialize(p[0])))
    elements = [e for e, _ in ranked]
    admitted = [(j, y) for j, (y, ok) in enumerate(ranked) if ok]
    separates = inst.separates or (lambda x, y: False)
    sums: list = []  # number -> sum
    number: dict[Any, int] = {}  # sum -> number

    @functools.cache
    def plus(i: int, k: int) -> int:
        s = inst.add(elements[i], elements[k])
        a = number.setdefault(s, len(sums))
        if a == len(sums):
            sums.append(s)
        return a

    @functools.cache
    def leq(a: int, b: int) -> bool:
        return inst.leq(sums[a], sums[b])

    for i, x in enumerate(elements):
        for j, y in admitted:
            if separates(x, y) or inst.leq(x, y):
                continue
            for k in range(len(elements)):
                if leq(plus(i, k), plus(j, k)):
                    return (x, y, elements[k])
    return None


def hull_props_check(
    inst: CornetInstance, seed: int = 0, cases: int = 50, n_max: int = 6
) -> list[LawReport]:
    """Property suite for the all-n convex hull map exposed by an instance."""
    if inst.hull is None:
        raise ValueError(f"instance {inst.name} exposes no hull map")
    hull = inst.hull
    names = [
        "hull-extensive",
        "hull-idempotent",
        "hull-monotone",
        "hull-convex",
        "hull-subadditive",
        "hull-star-compatible",
        "hull-minimal",
    ]
    reports = {n: LawReport(n, cases) for n in names}
    for i in range(cases):
        rng = case_rng(seed, i)
        x, y = inst.sampler(rng), inst.sampler(rng)
        hx, hy = hull(x), hull(y)
        if not inst.leq(x, hx):
            reports["hull-extensive"].record(inst.serialize(x))
        if hull(hx) != hx:
            reports["hull-idempotent"].record(inst.serialize(x))
        big = inst.add(x, y)
        if inst.leq(x, big) and not inst.leq(hx, hull(big)):
            reports["hull-monotone"].record((inst.serialize(x), inst.serialize(big)))
        for n in range(2, n_max + 1):
            if not is_n_convex(inst, hx, n):
                reports["hull-convex"].record((n, inst.serialize(x)))
        if not inst.leq(hull(inst.add(x, y)), inst.add(hx, hy)):
            reports["hull-subadditive"].record((inst.serialize(x), inst.serialize(y)))
        m = 2 + (i % 3)
        if not inst.leq(hull(inst.star(m, x)), inst.star(m, hx)):
            reports["hull-star-compatible"].record((m, inst.serialize(x)))
        # Minimality against constructed convex majorants of x.
        z = hull(inst.add(x, inst.nonneg_sampler(rng)))
        if inst.leq(x, z) and not inst.leq(hx, z):
            reports["hull-minimal"].record((inst.serialize(x), inst.serialize(z)))
    return [reports[n] for n in names]
