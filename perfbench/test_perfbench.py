"""Tests of the benchmark itself: deterministic inputs, the independent
answer oracles, the tracer and the metric list.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import random
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction as F
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from cornets import sets as S  # noqa: E402
import cornets.cli as cli  # noqa: E402
from cornets.fuzzy import StepFuzzy, leq_fuzzy  # noqa: E402
from cornets.wedges import Wedge  # noqa: E402


def _inputs(name: str, seed: int, out_dir: Path, rounds: int = 2) -> list[tuple]:
    """Every request of the first rounds as (argv, file bytes), with the
    run directory taken out of the paths."""
    out_dir.mkdir()
    wl = workloads.WORKLOADS[name](seed, out_dir)
    wl.prepare()
    seen = []
    for r in range(rounds):
        for req in wl.round(r):
            argv = [a.replace(str(out_dir), "<dir>") for a in req.get("argv", [])]
            files = [Path(a).read_bytes() for a in req.get("argv", []) if a.startswith(str(out_dir))]
            extra = json.dumps({k: v for k, v in req.items() if k != "argv"}, default=str, sort_keys=True)
            seen.append((argv, files, extra))
    return seen


def test_same_seed_same_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        first = _inputs(name, 7, tmp_path / f"{name}-a")
        again = _inputs(name, 7, tmp_path / f"{name}-b")
        assert first == again, name
        other = _inputs(name, 8, tmp_path / f"{name}-c")
        assert first != other, f"{name}: the seed does not change the inputs"


def test_hunt_oracle_basics():
    assert oracle.sumset(oracle.mask_of([0, 2]), oracle.mask_of([1])) == oracle.mask_of([1, 3])
    assert oracle.is_interval(oracle.mask_of([2, 3, 4]))
    assert not oracle.is_interval(oracle.mask_of([1, 3]))
    assert len(oracle.universe("z1", 0, 3)) == 15
    assert len(oracle.universe("z1-intervals", 0, 3)) == 10
    # {1} + {0,1} = {1,2} lies inside {0,2} + {0,1} = {0,1,2,3}, but {1} is not inside {0,2}.
    x, y, z = oracle.mask_of([1]), oracle.mask_of([0, 2]), oracle.mask_of([0, 1])
    assert oracle.breaks_cancellation(x, y, z)
    assert not oracle.breaks_cancellation(y, y, z)


def _cli_json(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv + ["--format", "json"])
    return code, json.loads(buf.getvalue())


def test_hunt_oracle_agrees_with_the_cli():
    for universe in ("z1", "z1-intervals"):
        for ablate in ("convexity", "closedness", "boundedness", "none"):
            spec = (universe, 0, 3, ablate)
            code, report = _cli_json(workloads.hunt_argv(*spec)[:-2])
            expected = oracle.find_triple(*spec)
            assert (report["found"] is not None) == (expected is not None), spec
            assert code == (1 if expected else 0)
            if expected:
                assert oracle.valid_triple(*spec, expected)
                assert oracle.valid_triple(*spec, workloads._found_masks(report["found"]))


def test_hunt_oracle_rejects_a_wrong_triple():
    spec = ("z1", 0, 3, "convexity")
    x, y, z = oracle.find_triple(*spec)
    assert not oracle.valid_triple(*spec, (y, y, z))  # x <= y holds
    assert not oracle.valid_triple(*spec, (x, oracle.mask_of([0, 1]), z))  # y is convex


def test_hunt_check_flags_a_wrong_verdict(tmp_path):
    wl = workloads.Hunt(0, tmp_path)
    wl.prepare()
    wl.expect()
    req = next(r for r in wl.corpus if r["spec"][3] == "convexity")
    report = {"found": None, "searched": len(oracle.universe(*req["spec"][:3])), "status": "exhausted"}
    assert wl.check(req, (0, json.dumps(report))) is not None


def test_orthant_hull_membership_matches_the_library():
    w = Wedge.orthant(2)
    rng = random.Random(3)
    for _ in range(300):
        gens = [(F(rng.randint(-4, 4), rng.choice((1, 2))), F(rng.randint(-4, 4), rng.choice((1, 2))))
                for _ in range(rng.randint(1, 4))]
        p = (F(rng.randint(-8, 8), 2), F(rng.randint(-8, 8), 2))
        assert oracle.in_orthant_hull(p, gens) == S.polytopic(w, gens).member(p), (gens, p)


def test_fuzzy_order_matches_the_library():
    w = Wedge.orthant(1)
    rng = random.Random(4)

    def sample():
        levels = workloads._fuzzy_levels(rng)
        thresholds = [(a, min(g)) for a, g in levels]
        value = StepFuzzy.make(w, 1, [(a, S.polytopic(w, [(g,) for g in gens])) for a, gens in levels])
        return thresholds, value

    for _ in range(300):
        (ft, f), (gt, g) = sample(), sample()
        assert oracle.fuzzy_leq(ft, gt) == leq_fuzzy(f, g)


def test_cancel_expected_answers_hold(tmp_path):
    counts = {}
    for i in range(60):
        req = workloads.cancel_request(5, i, tmp_path)
        code, report = _cli_json(req["argv"][:-2])
        assert code == 0
        assert report["status"] == req["expected"], (i, req["kind"])
        counts[req["expected"]] = counts.get(req["expected"], 0) + 1
    assert counts["Verified"] > 0


def test_tracer_wraps_and_restores():
    before = (S.msum, S.UpperSet.__dict__["make"], Wedge.__dict__["leq"])
    tracer = Tracer()
    tracer.install()
    try:
        assert S.msum is not before[0]
        tracer.begin_request(1)
        code, _ = _cli_json(["hunt", "--range", "0..2", "--ablate", "none"])
        assert code == 0
    finally:
        tracer.uninstall()
    assert (S.msum, S.UpperSet.__dict__["make"], Wedge.__dict__["leq"]) == before
    summary = tracer.summary()
    assert summary["cli.main"]["calls"] == 1
    assert summary["core.ablation_hunt"]["calls"] == 1
    msum = summary["sets.msum"]
    assert msum["calls"] == tracer.counts["msum.calls"] > 0
    assert 0 < tracer.counts["msum.repeats"] < msum["calls"]
    assert all(0 <= s["self_s"] <= s["total_s"] + 1e-9 for s in summary.values())
    assert {span[5] for span in tracer.spans} == {1}


def test_hook_time_is_charged_to_no_span():
    tracer = Tracer()
    inner = tracer._wrap("inner", lambda: None, lambda args, result: time.sleep(0.05))
    outer = tracer._wrap("outer", lambda: inner(), None)
    outer()
    summary = tracer.summary()
    assert summary["outer"]["total_s"] >= 0.05
    assert summary["outer"]["self_s"] < 0.01
    assert summary["inner"]["self_s"] < 0.01


def test_speedometer_helper_samples_and_stops():
    meter = run.Speedometer()
    try:
        assert meter.sample(force=True) > 0
        assert meter.sample() == 0.0  # not due yet
        assert len(meter.times) == 1 and meter.factor() > 0
    finally:
        meter.close()
    assert meter.proc.returncode == 0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "laws", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
