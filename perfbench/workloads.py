"""The benchmark's workloads: input generation, requests and answer checks.

Every workload is a single closed-loop client with one request outstanding.
Inputs depend only on the workload seed; the program sees nothing but the
instance files and argv written here (``poly3`` calls the ``sets`` API
directly with the generated operands).

A run is a sequence of rounds.  ``laws``, ``hunt`` and ``poly3`` replay a
fixed corpus once per round, in an order drawn from the seed.  Their
per-request cost is heavy-tailed (one ``setQ`` d=3 law case costs 5 ms to
1.8 s, one ``poly3`` request 2 ms to 8 s), so drawing fresh inputs per run
would make a run's throughput depend on which inputs it drew more than on
the program.  ``cancel`` draws a fresh triple from the seed for every
request, ``CANCEL_ROUND`` of them per round: its cost is light-tailed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import signal
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional

import oracle
from cornets import cli, sets, wedges

F = Fraction


def run_cli(argv: list[str]) -> tuple[int, str]:
    # cli.main and the sets functions below are looked up on the module at
    # call time, so a tracer's rebinding takes effect.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def _seeded_order(items: list, seed: int, name: str, round_index: int) -> list:
    order = list(items)
    random.Random(f"{name}:{seed}:{round_index}").shuffle(order)
    return order


class Workload:
    """What the workloads share: ``prepare`` builds the inputs (timed as
    set-up), ``expect`` computes expected answers (untimed), ``round`` lists
    a round's requests, ``execute`` serves one and ``check`` returns None or
    what was wrong.  By default a round replays ``corpus`` in seeded order
    through the CLI."""

    name = ""

    def __init__(self, seed: int, out_dir: Path):
        self.seed, self.out_dir = seed, out_dir
        self.corpus: list[dict] = []

    def expect(self) -> None:
        pass

    def round(self, r: int) -> list[dict]:
        return _seeded_order(self.corpus, self.seed, self.name, r)

    def execute(self, req: dict) -> Any:
        return run_cli(req["argv"])


# --- laws --------------------------------------------------------------------------

ORTHANT2_FAMILY = {"epsilons": ["1", "1/2"]}

# (label, universe, --cases).  The first five are the acceptance-gate
# families; --cases is set so that each family's request costs roughly the
# same on the parent commit.
LAWS_FAMILIES = (
    ("elemQ-d3", {"kind": "elemQ", "dim": 3, "wedge": "orthant"}, 24),
    ("setQ-d3-discrete", {"kind": "setQ", "dim": 3, "wedge": "orthant", "repr": "discrete"}, 3),
    ("setQ-d2-polytopic", {"kind": "setQ", "dim": 2, "wedge": "orthant", "repr": "polytopic"}, 10),
    ("setZ", {"kind": "setZ", "dim": 1, "wedge": "zero"}, 6),
    ("fuzzyQ-d2-p1", {"kind": "fuzzyQ", "dim": 2, "wedge": "orthant", "p": "1"}, 4),
    ("fuzzyQ-d2-p1/2", {"kind": "fuzzyQ", "dim": 2, "wedge": "orthant", "p": "1/2"}, 6),
)
LAWS_SEEDS_PER_FAMILY = 5
CORNET_LAWS = 14
LEMMA_LAWS = 2
SUBCORNET_LAWS = 2


class Laws(Workload):
    """``cornets laws FILE --cases C --seed S --jobs 2 --format json``."""

    name = "laws"

    def prepare(self) -> None:
        corpus = []
        for index, (label, universe, cases) in enumerate(LAWS_FAMILIES):
            path = self.out_dir / f"laws-{index}.json"
            _write_json(path, {"universe": universe, "family": ORTHANT2_FAMILY})
            for j in range(LAWS_SEEDS_PER_FAMILY):
                argv = [
                    "laws", str(path), "--cases", str(cases), "--seed", str(100 * index + j),
                    "--jobs", "2", "--format", "json",
                ]
                corpus.append({"family": label, "argv": argv, "has_family": universe["kind"] != "setZ"
                               and universe.get("p", "1") == "1"})
        self.corpus = corpus

    def check(self, req: dict, out: Any) -> Optional[str]:
        code, text = out
        if code != 0:
            return f"exit code {code}"
        report = json.loads(text)
        laws = report["laws"]
        expected = CORNET_LAWS + LEMMA_LAWS + (SUBCORNET_LAWS if req["has_family"] else 0)
        if len(laws) != expected:
            return f"{len(laws)} laws reported, expected {expected}"
        failed = [r["law"] for r in laws if not r["passed"]]
        if failed or report["status"] != "pass":
            return f"laws failed: {failed}"
        return None


# --- cancel ------------------------------------------------------------------------

CANCEL_EPSILONS = (F(1), F(1, 2))
FUZZY_LEVELS = (F(1), F(3, 4), F(1, 2), F(1, 4))


def _setq_triple(rng: random.Random) -> tuple[dict, bool]:
    """A premise-true setQ d=2 triple as in acceptance criterion 06: Y
    polytopic, X inside conv(Y) moved up, Z discrete."""
    ygens = [
        (F(rng.randint(-6, 6), rng.choice((1, 2))), F(rng.randint(-6, 6), rng.choice((1, 2))))
        for _ in range(rng.randint(2, 4))
    ]
    zgens = [(F(rng.randint(-6, 6)), F(rng.randint(-6, 6))) for _ in range(rng.randint(1, 3))]
    xgens = []
    for _ in range(rng.randint(1, 2)):
        weights = [F(rng.randint(0, 4)) for _ in ygens]
        if not any(weights):
            weights[0] = F(1)
        total = sum(weights)
        px = sum(w * g[0] for w, g in zip(weights, ygens)) / total
        py = sum(w * g[1] for w, g in zip(weights, ygens)) / total
        xgens.append((px + F(rng.randint(0, 3), 2), py + F(rng.randint(0, 3), 2)))

    def el(rp, gens):
        return {"repr": rp, "generators": [[str(c) for c in g] for g in gens]}

    instance = {
        "universe": {"kind": "setQ", "dim": 2, "wedge": "orthant", "repr": "discrete"},
        "elements": {"X": el("discrete", xgens), "Y": el("polytopic", ygens), "Z": el("discrete", zgens)},
        "family": {"epsilons": [str(e) for e in CANCEL_EPSILONS]},
    }
    return instance, oracle.set_closure_refuted(ygens, zgens, min(CANCEL_EPSILONS))


def _fuzzy_levels(rng: random.Random) -> list[tuple[Fraction, list[Fraction]]]:
    """A step function on Q with top level 1 and nested half-line cuts: the
    generators accumulate as the level drops, as in the library's sampler."""
    lower = list(FUZZY_LEVELS[1:])
    alphas = [F(1)] + sorted(rng.sample(lower, rng.randint(0, 2)), reverse=True)
    gens: list[Fraction] = []
    levels = []
    for a in alphas:
        gens = gens + [F(rng.randint(-8, 8), rng.choice((1, 2, 4))) for _ in range(rng.randint(1, 2))]
        levels.append((a, list(gens)))
    return levels


def _fuzzy_triple(rng: random.Random) -> tuple[dict, bool]:
    """A premise-true fuzzyQ d=1 triple: X = Y (+) chi([t, oo)) with t >= 0,
    which moves every cut of Y right by t."""
    y = _fuzzy_levels(rng)
    z = _fuzzy_levels(rng)
    t = F(rng.randint(0, 6), 2)
    x = [(a, [g + t for g in gens]) for a, gens in y]

    def el(levels):
        return {
            "levels": [
                {"alpha": str(a), "set": {"repr": "polytopic", "generators": [[str(g)] for g in gens]}}
                for a, gens in levels
            ]
        }

    def thresholds(levels):
        return [(a, min(gens)) for a, gens in levels]

    instance = {
        "universe": {"kind": "fuzzyQ", "dim": 1, "wedge": "orthant", "repr": "polytopic", "p": "1"},
        "elements": {"X": el(x), "Y": el(y), "Z": el(z)},
        "family": {"epsilons": [str(e) for e in CANCEL_EPSILONS]},
    }
    refuted = oracle.fuzzy_closure_refuted(thresholds(y), thresholds(z), min(CANCEL_EPSILONS))
    return instance, refuted


CANCEL_ARGV = ["--x", "X", "--y", "Y", "--z", "Z", "--m", "2", "--format", "json"]
CANCEL_ROUND = 100


def cancel_request(seed: int, index: int, out_dir: Path) -> dict:
    """Request ``index`` of the cancel stream: three in five are setQ
    triples, so the median latency falls inside one class."""
    rng = random.Random(f"cancel:{seed}:{index}")
    kind = "setQ" if index % 5 < 3 else "fuzzyQ"
    instance, refuted = (_setq_triple if kind == "setQ" else _fuzzy_triple)(rng)
    path = out_dir / f"cancel-{index % CANCEL_ROUND}.json"
    _write_json(path, instance)
    return {
        "kind": kind,
        "argv": ["cancel", str(path), *CANCEL_ARGV],
        "expected": "HypothesisNotMet" if refuted else "Verified",
    }


class Cancel(Workload):
    """``cornets cancel FILE --x X --y Y --z Z --m 2`` on a fresh triple."""

    name = "cancel"

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        self.expected_counts = {"Verified": 0, "HypothesisNotMet": 0}

    def prepare(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def round(self, r: int) -> list[dict]:
        reqs = [cancel_request(self.seed, i, self.out_dir) for i in range(r * CANCEL_ROUND, (r + 1) * CANCEL_ROUND)]
        for req in reqs:
            self.expected_counts[req["expected"]] += 1
        return reqs

    def check(self, req: dict, out: Any) -> Optional[str]:
        code, text = out
        if code != 0:
            return f"exit code {code}"
        report = json.loads(text)
        status = report["status"]
        if status != req["expected"]:
            return f"status {status}, expected {req['expected']}"
        if status == "Verified":
            if not (report["premise"] and report["conclusion"] and all(ok for _, ok in report["chain"])):
                return "Verified without a true premise, conclusion and proof chain"
        elif report["hypotheses"]["y-closed"] != "refuted-at-horizon":
            return "HypothesisNotMet for another hypothesis than closedness"
        return None


# --- hunt --------------------------------------------------------------------------

# (universe, lo, hi, ablation): two heavy exhaustive scans and three fast
# ablated ones.
HUNT_CORPUS = (
    ("z1", 0, 4, "none"),
    ("z1-intervals", 0, 6, "none"),
    ("z1", 0, 6, "convexity"),
    ("z1", 0, 6, "closedness"),
    ("z1", 0, 6, "boundedness"),
)


def hunt_argv(universe: str, lo: int, hi: int, ablate: str) -> list[str]:
    return ["hunt", "--universe", universe, "--range", f"{lo}..{hi}", "--ablate", ablate, "--format", "json"]


def _found_masks(found: dict) -> tuple[int, int, int]:
    def mask(el):
        values = [Fraction(g[0]) for g in el["generators"]]
        if any(v.denominator != 1 for v in values):
            raise ValueError("non-integer generator")
        return oracle.mask_of(int(v) for v in values)

    return tuple(mask(found[k]) for k in "xyz")


class Hunt(Workload):
    """``cornets hunt --universe U --range LO..HI --ablate A``."""

    name = "hunt"

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        self.exists: dict[tuple, bool] = {}

    def prepare(self) -> None:
        self.corpus = [{"spec": spec, "argv": hunt_argv(*spec)} for spec in HUNT_CORPUS]

    def expect(self) -> None:
        self.exists = {spec: oracle.find_triple(*spec) is not None for spec in HUNT_CORPUS}

    def check(self, req: dict, out: Any) -> Optional[str]:
        code, text = out
        spec = req["spec"]
        report = json.loads(text)
        size = len(oracle.universe(*spec[:3]))
        if report["searched"] != size:
            return f"searched {report['searched']} of {size} sets"
        if self.exists[spec]:
            if code != 1 or report["status"] != "counterexample":
                return f"missed a counterexample (exit {code}, {report['status']})"
            if not oracle.valid_triple(*spec, _found_masks(report["found"])):
                return f"invalid counterexample {report['found']}"
        elif code != 0 or report["status"] != "exhausted":
            return f"reported {report['status']} (exit {code}) on a universe without counterexamples"
        return None


# --- poly3 -------------------------------------------------------------------------

POLY3_CORPUS_SEED = "corpus0"
POLY3_REQUESTS = 60
# A guard against a runaway request, well above the slowest corpus request
# on the parent commit (8 s); a request past it counts as failed.
POLY3_DEADLINE_S = 30.0
CUSTOM_WEDGE_ROWS = ((1, 0, 0), (0, 1, 0), (1, 1, 1))


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def poly3_corpus() -> list[dict]:
    """Operand pairs with 1-3 generators each, alternating between the
    orthant of Q^3 and the custom pointed wedge."""
    rng = random.Random(POLY3_CORPUS_SEED)

    def gens(k):
        return [tuple(F(rng.randint(-8, 8), rng.choice((1, 2, 4))) for _ in range(3)) for _ in range(k)]

    corpus = []
    for i in range(POLY3_REQUESTS):
        a = gens(rng.randint(1, 3))
        b = gens(rng.randint(1, 3))
        corpus.append({"wedge": "orthant" if i % 2 == 0 else "custom", "a": a, "b": b})
    return corpus


class Poly3(Workload):
    """Direct calls into ``cornets.sets``: msum both ways, star_set against
    A + A, convex_hull and is_n_convex_set, on polytopic operands."""

    name = "poly3"

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        self.wedges: dict[str, Any] = {}

    def prepare(self) -> None:
        self.wedges = {
            "orthant": wedges.Wedge.orthant(3),
            "custom": wedges.Wedge.from_rows(CUSTOM_WEDGE_ROWS),
        }
        self.corpus = poly3_corpus()

    def execute(self, req: dict) -> Any:
        poly = sets.Repr.POLYTOPIC
        w = self.wedges[req["wedge"]]
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, POLY3_DEADLINE_S)
        try:
            a = sets.UpperSet.make(w, poly, req["a"])
            b = sets.UpperSet.make(w, poly, req["b"])
            ab = sets.msum(a, b)
            return {
                "commutative": ab == sets.msum(b, a),
                "star_below_sum": sets.subset(sets.star_set(2, a), sets.msum(a, a)),
                "inside_hull": sets.subset(a, sets.convex_hull(a)),
                "sum_convex": sets.is_n_convex_set(ab, 2),
            }
        except DeadlineExceeded:
            return None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def check(self, req: dict, out: Any) -> Optional[str]:
        if out is None:
            return f"missed the {POLY3_DEADLINE_S:g} s deadline"
        broken = [k for k, ok in out.items() if not ok]
        return f"identities failed: {broken}" if broken else None


WORKLOADS = {w.name: w for w in (Laws, Cancel, Hunt, Poly3)}
