"""Acceptance gate: one test per criterion, each printing a single
pass/fail line.  All comparisons are exact rational arithmetic with zero
tolerance; the stated runtime budgets are asserted where given."""

import io
import json
import time
from contextlib import redirect_stdout
from fractions import Fraction as F
from itertools import combinations_with_replacement

from cornets.cli import main as cli_main
from cornets.core import (
    Horizon,
    Verdict,
    cancellation_check,
    case_rng,
    check_A_continuity,
    check_cornet_laws,
    check_lemma_identities,
    closure_props_suite,
    is_archimedean,
    is_n_convex,
    subcornet_closure_suite,
)
from cornets.fuzzy import (
    StepFuzzy,
    chi,
    chi_embed,
    fuzzy_arch_family,
    leq_fuzzy,
    make_fuzzy_cornet,
    odot,
    oplus,
)
from cornets.geometry import vscale
from cornets.sets import (
    Repr,
    UpperSet,
    discrete,
    is_n_convex_set,
    make_set_cornet,
    msum,
    phi_embed,
    polytopic,
    set_arch_family,
    star_set,
    subset,
)
from cornets.wedges import Wedge, make_elem_cornet
from grid_oracle import vadd

W1 = Wedge.orthant(1)
W2 = Wedge.orthant(2)
WZ = Wedge.zero(1)

FAMILIES = [
    make_elem_cornet(Wedge.orthant(3)),
    make_set_cornet(Wedge.orthant(3), Repr.DISCRETE),
    make_set_cornet(W2, Repr.POLYTOPIC),
    make_set_cornet(WZ, Repr.DISCRETE, integer=True),
    make_fuzzy_cornet(W2, 1),
]


def _line(num, ok, desc):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{status}] {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_law_suite():
    t0 = time.perf_counter()
    failures = []
    for inst in FAMILIES:
        reports = check_cornet_laws(inst, seed=101, cases=1000, n_max=6)
        failures += [(inst.name, r.law, r.violations[:1]) for r in reports if not r.passed]
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120
    _line(1, ok, f"cornet law suite, 1000 cases x {len(FAMILIES)} families, {elapsed:.1f}s (< 120s): {failures or 'no violations'}")


def test_criterion_02_lemma_identities():
    failures = []
    for inst in FAMILIES:
        reports = check_lemma_identities(inst, seed=202, cases=500, n_max=6)
        failures += [(inst.name, r.law) for r in reports if not r.passed]
    _line(2, not failures, f"lemma identities, 500 cases x {len(FAMILIES)} families: {failures or 'no violations'}")


def test_criterion_03_embeddings():
    elem = make_elem_cornet(W2)
    bad = 0
    for i in range(500):
        rng = case_rng(303, i)
        x, y = elem.sampler(rng), elem.sampler(rng)
        n = rng.randint(1, 6)
        phi_x, phi_y = phi_embed(W2, x.coords), phi_embed(W2, y.coords)
        ok = (
            phi_embed(W2, elem.add(x, y).coords) == msum(phi_x, phi_y)
            and phi_embed(W2, elem.star(n, x).coords) == star_set(n, phi_x)
            and elem.leq(x, y) == subset(phi_y, phi_x)
            and (x == y or phi_x != phi_y)
        )
        bad += not ok
    sets = make_set_cornet(W2, Repr.DISCRETE)
    for i in range(500):
        rng = case_rng(304, i)
        A, B = sets.sampler(rng), sets.sampler(rng)
        n = rng.randint(1, 6)
        ok = (
            oplus(chi_embed(A), chi_embed(B)) == chi_embed(msum(A, B))
            and odot(n, chi_embed(A)) == chi_embed(star_set(n, A))
            and subset(A, B) == leq_fuzzy(chi_embed(A), chi_embed(B))
            and (A == B or chi_embed(A) != chi_embed(B))
        )
        bad += not ok
    _line(3, bad == 0, f"phi/Phi embedding laws, 500 cases each: {bad} violations")


def _sample_int_fuzzy(w, rng):
    alphas = sorted(
        rng.sample([F(1), F(3, 4), F(1, 2), F(1, 4)], rng.randint(1, 3)), reverse=True
    )
    alphas[0] = F(1)
    gens, levels = [], []
    for a in alphas:
        gens = gens + [
            tuple(F(rng.randint(-3, 3)) for _ in range(w.dim))
            for _ in range(rng.randint(1, 2))
        ]
        levels.append((a, UpperSet.make(w, Repr.DISCRETE, gens)))
    return StepFuzzy.make(w, 1, levels)


def test_criterion_04_sup_min_oracle():
    # With integer generators, optimal decompositions of integer points are
    # integer, so a finite integer search is an exact sup-min oracle.
    bad = 0
    for i in range(140):  # d = 1
        rng = case_rng(404, i)
        f, g = _sample_int_fuzzy(W1, rng), _sample_int_fuzzy(W1, rng)
        h = oplus(f, g)
        for xv in range(-8, 9):
            brute = max(
                (min(f.value((F(u),)), g.value((F(xv - u),))) for u in range(-3, 12)),
                default=F(0),
            )
            if h.value((F(xv),)) != brute:
                bad += 1
    for i in range(60):  # d = 2, with memoized value tables
        rng = case_rng(405, i)
        f, g = _sample_int_fuzzy(W2, rng), _sample_int_fuzzy(W2, rng)
        h = oplus(f, g)
        fv = {
            (a, b): f.value((F(a), F(b)))
            for a in range(-3, 12)
            for b in range(-3, 12)
        }
        gv = {
            (a, b): g.value((F(a), F(b)))
            for a in range(-19, 12)
            for b in range(-19, 12)
        }
        for xa in range(-8, 9):
            for xb in range(-8, 9):
                brute = F(0)
                for (ua, ub), val in fv.items():
                    if val > brute:
                        m = min(val, gv[(xa - ua, xb - ub)])
                        if m > brute:
                            brute = m
                if h.value((F(xa), F(xb))) != brute:
                    bad += 1
    _line(4, bad == 0, f"levelwise sup-min vs grid brute force, 200 pairs: {bad} mismatches")


def test_criterion_05_convexity_decision():
    bad = 0
    for i in range(120):  # finite integer sets over (Z, W={0})
        rng = case_rng(505, i)
        pts = sorted(rng.sample(range(0, 6), rng.randint(1, 4)))
        A = discrete(WZ, [(F(v),) for v in pts])
        n = rng.randint(2, 3)
        decision = is_n_convex_set(A, n)
        brute = all(
            A.member((sum(t, F(0)) / n,))
            for t in combinations_with_replacement([F(v) for v in pts], n)
        )
        bad += decision != brute
    for i in range(80):  # orthant d=2, denotation truncated to a box
        rng = case_rng(506, i)
        gens = [
            (F(rng.randint(-2, 2)), F(rng.randint(-2, 2)))
            for _ in range(rng.randint(1, 3))
        ]
        A = discrete(W2, gens)
        n = rng.randint(2, 3)
        decision = is_n_convex_set(A, n)
        box = [
            (F(a), F(b))
            for a in range(-2, 3)
            for b in range(-2, 3)
            if A.member((F(a), F(b)))
        ]
        brute = all(
            A.member(tuple(sum(c) / n for c in zip(*t)))
            for t in combinations_with_replacement(box, n)
        )
        # Any violating generator multiset lies inside the box, so the two
        # decisions must agree exactly.
        bad += decision != brute
    _line(5, bad == 0, f"generator-multiset convexity vs tuple brute force, 200 sets: {bad} mismatches")


def test_criterion_06_cancellation():
    sets = make_set_cornet(W2, Repr.DISCRETE)
    fam = set_arch_family(W2, [F(1), F(1, 2)])
    h = Horizon(12)
    t0 = time.perf_counter()
    bad = premise_failures = 0
    for i in range(1000):
        rng = case_rng(606, i)
        ygens = [
            (F(rng.randint(-6, 6), rng.choice((1, 2))), F(rng.randint(-6, 6), rng.choice((1, 2))))
            for _ in range(rng.randint(2, 4))
        ]
        y = polytopic(W2, ygens)
        z = discrete(W2, [
            (F(rng.randint(-6, 6)), F(rng.randint(-6, 6))) for _ in range(rng.randint(1, 3))
        ])
        xgens = []
        for _ in range(rng.randint(1, 2)):
            weights = [F(rng.randint(0, 4)) for _ in ygens]
            if not any(weights):
                weights[0] = F(1)
            total = sum(weights)
            pt = (F(0), F(0))
            for wgt, g in zip(weights, ygens):
                pt = vadd(pt, vscale(wgt / total, g))
            shift = (F(rng.randint(0, 3), 2), F(rng.randint(0, 3), 2))
            xgens.append(vadd(pt, shift))
        x = discrete(W2, xgens)
        rec = cancellation_check(sets, x, y, z, 2, fam, h)
        if rec.status != "Verified":
            if rec.status == "PremiseNotMet":
                premise_failures += 1
            else:
                bad += 1
    set_elapsed = time.perf_counter() - t0

    fuzzy = make_fuzzy_cornet(W1, 1, Repr.POLYTOPIC)
    ffam = fuzzy_arch_family(W1, [F(1), F(1, 2)])
    t0 = time.perf_counter()
    for i in range(1000):
        rng = case_rng(607, i)
        y = fuzzy.sampler(rng)
        z = fuzzy.sampler(rng)
        shift = chi(polytopic(W1, [(F(rng.randint(0, 6), 2),)]))
        x = oplus(y, shift)
        rec = cancellation_check(fuzzy, x, y, z, 2, ffam, h)
        if rec.status != "Verified":
            if rec.status == "PremiseNotMet":
                premise_failures += 1
            else:
                bad += 1
    fuzzy_elapsed = time.perf_counter() - t0
    ok = bad == 0 and premise_failures == 0 and set_elapsed < 60 and fuzzy_elapsed < 60
    _line(
        6,
        ok,
        "cancellation on 1000 premise-true triples per instantiation "
        f"(sets {set_elapsed:.1f}s, fuzzy {fuzzy_elapsed:.1f}s, < 60s each): "
        f"{bad} conclusion failures, {premise_failures} construction misses",
    )


def test_criterion_07_ablation_hunt():
    t0 = time.perf_counter()
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(["hunt", "--range", "0..3", "--ablate", "convexity", "--format", "json"])
    elapsed = time.perf_counter() - t0
    found = json.loads(buf.getvalue())["found"]
    buf2 = io.StringIO()
    with redirect_stdout(buf2):
        clean = cli_main(["hunt", "--range", "0..3", "--universe", "z1-intervals", "--format", "json"])
    exhausted = json.loads(buf2.getvalue())["status"] == "exhausted"
    ok = code == 1 and found is not None and elapsed < 5 and clean == 0 and exhausted
    _line(7, ok, f"convexity-ablated hunt finds a triple in {elapsed:.2f}s (< 5s); interval subuniverse exhausts clean")


def test_criterion_08_no_archimedean_below_top():
    inst = make_fuzzy_cornet(W1, F(1, 2))
    probes = tuple(inst.sampler(case_rng(808, 10_000 + k)) for k in range(3))
    h = Horizon(12, probes)
    false_positives = 0
    for i in range(200):
        f = inst.sampler(case_rng(808, i))
        rec = is_archimedean(inst, f, h)
        if rec.verdict is not Verdict.ANALYTICALLY_REFUTED:
            false_positives += 1
    _line(8, false_positives == 0, f"p=1/2: every sampled element analytically refuted, 200 samples: {false_positives} false positives")


def test_criterion_09_structure_suites():
    sets = make_set_cornet(W2, Repr.DISCRETE)
    fam = set_arch_family(W2, [F(1), F(1, 2)])
    probes = (sets.sampler(case_rng(909, 10_000)),)
    h = Horizon(12, probes)
    failures = []

    sub = subcornet_closure_suite(sets, fam, seed=909, cases=500, h=h)
    failures += [r.law for r in sub if not r.passed]

    big_fam = set_arch_family(
        W2, [F(num, den) for den in (1, 2, 3, 4, 5) for num in range(1, 101)]
    )
    cont = check_A_continuity(sets, big_fam, n_max=6)
    ok_count = cont.cases >= 500
    failures += [v for v in cont.violations]

    cl = closure_props_suite(sets, fam, seed=910, cases=500, n_max=6, h=h)
    failures += [r.law for r in cl if not r.passed]

    _line(9, not failures and ok_count, f"structure suites (subcornet, {cont.cases} halving chains, closure i-ix), 500 cases each: {failures or 'no violations'}")


def test_criterion_10_determinism(tmp_path):
    inst = {
        "universe": {"kind": "setQ", "dim": 2, "wedge": "orthant", "repr": "discrete"},
        "elements": {},
        "family": {"epsilons": ["1", "1/2"]},
        "options": {"seed": 7},
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    outputs = []
    for jobs in ("1", "4"):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(["laws", str(path), "--cases", "60", "--jobs", jobs, "--format", "json"])
        assert code == 0
        outputs.append(buf.getvalue())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    _line(10, ok, "machine reports byte-identical across --jobs 1 and --jobs 4")
