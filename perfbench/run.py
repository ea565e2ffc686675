"""Benchmark for the cornets package.

Run one workload (the form every measured run takes):

    python3 perfbench/run.py --workload laws --seed 1 --seconds 20 --trace 0

or every workload, untraced and traced, each in its own process:

    python3 perfbench/run.py --all --seed 1 --seconds 20

A run imports the package from ``src/`` of the checkout that holds this
directory, builds its inputs from the seed under ``.perfbench_out/``, drives
the workload as one closed-loop client, checks every answer, and prints one
line per metric (value, unit, sample count) and, last, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run measures half
its time untraced and half traced and reports the per-layer metrics.  The
exit code is 0 when every answer was right, 1 when one was wrong and 2 when
the package cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPS = 11
# Times are reported at the speed of a machine that runs calibration_kernel
# (calibrate.py) in CAL_REF_S; a helper process times the kernel between
# requests, at most every CAL_EVERY_S.  On a shared host the same
# pure-Python work drifts by a third over minutes, in CPU time as much as in
# wall time; scaling by the kernel's median time over the run takes most of
# that drift out of run-to-run comparisons.
CAL_REF_S = 0.0025
CAL_EVERY_S = 0.1
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import cornets, cornets.cli; print(time.perf_counter() - t)"
)

END_TO_END = {
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpu_per_wall": "ratio",
}

# Per-layer metrics from the traced run.  Counts and self times are per
# completed request; span names are ``<module>.<function>``.
SPAN_METRICS = (
    ("sets.UpperSet.make", ("calls", "self_s")),
    ("sets.msum", ("calls", "self_s")),
    ("sets.star_set", ("self_s",)),
    ("sets.subset", ("calls", "self_s")),
    ("fuzzy.leq_fuzzy", ("self_s",)),
    ("fuzzy.oplus", ("calls", "self_s")),
    ("fuzzy.odot", ("self_s",)),
    ("fuzzy.StepFuzzy.make", ("self_s",)),
    ("core.cancellation_check", ("calls", "self_s")),
    ("core.ablation_hunt", ("self_s",)),
    ("core.check_cornet_laws", ("self_s",)),
    ("core.check_lemma_identities", ("self_s",)),
    ("core.subcornet_closure_suite", ("self_s",)),
    ("wedges.Wedge.leq", ("calls", "self_s")),
    ("geometry.lp_feasible", ("calls", "self_s")),
    ("cli.load_instance", ("calls", "self_s")),
    ("cli.emit", ("self_s",)),
)
FIELD_UNITS = {"calls": "calls/req", "self_s": "s/req"}
EXTRA_LAYER = {
    "sets.msum.repeat_frac": "ratio",
    "sets.msum.kept_frac": "ratio",
    "geometry.lp_feasible.max_ms": "ms",
    "geometry.lp_feasible.feasible_frac": "ratio",
    "geometry.lp_feasible.fm_calls": "calls/req",
    "geometry.lp_feasible.simplex_calls": "calls/req",
    "trace.overhead_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{span}.{field}": FIELD_UNITS[field] for span, fields in SPAN_METRICS for field in fields}
    units.update(EXTRA_LAYER)
    return units


class ProgramMissing(Exception):
    pass


def import_program() -> None:
    """Import cornets from this checkout's src/, never from elsewhere."""
    if not (SRC / "cornets" / "__init__.py").is_file():
        raise ProgramMissing(f"no cornets package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cornets
    import cornets.cli  # noqa: F401

    if Path(cornets.__file__).resolve().parent != (SRC / "cornets").resolve():
        raise ProgramMissing(f"cornets was imported from {cornets.__file__}, not {SRC}")


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
    )
    return float(done.stdout.strip())


class Speedometer:
    """Gauges the machine's speed between requests.

    A helper process (``calibrate.py``), started once per run, times the
    calibration kernel when asked, at most every CAL_EVERY_S, while this
    process waits.  One factor, from the median of every sample of the run,
    scales all of the run's times: the drift it takes out is slow next to
    a run, and the median of many samples is steadier than that of the few
    a round or a set-up gets.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "calibrate.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        self.times: list[float] = []
        self.last = float("-inf")

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def sample(self, force: bool = False) -> float:
        """Take a sample when due; returns the seconds spent waiting."""
        start = time.perf_counter()
        if not force and start - self.last < CAL_EVERY_S:
            return 0.0
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        self.times.append(float(self.proc.stdout.readline()))
        self.last = time.perf_counter()
        return self.last - start

    def factor(self) -> float:
        """Maps this run's times to the reference speed."""
        return CAL_REF_S / statistics.median(self.times)


def measure_setup(workload, meter: Speedometer) -> list[float]:
    """Import, wedge construction and input generation, SETUP_REPS times,
    unscaled; a kernel sample is taken before and after each."""
    samples = []
    meter.sample(force=True)
    for _ in range(SETUP_REPS):
        imported = import_seconds()
        t0 = time.perf_counter()
        workload.prepare()
        samples.append(imported + time.perf_counter() - t0)
        meter.sample(force=True)
    return samples


def measure(workload, seconds: float, meter: Speedometer, tracer=None) -> dict:
    """Closed loop: the next request is sent when the previous one is done.

    The loop runs whole rounds until ``seconds`` have passed.  A round's
    throughput is its completed requests over the time spent in them and in
    their checks; generating the round's inputs and waiting for kernel
    samples are client time and left out.  Times are unscaled (see
    ``Speedometer``).  The first round is also reported on its own: on the
    workloads that replay a corpus, it is the only round a cache that
    outlives a request cannot have seen before.
    """
    latencies, failures, rates = [], [], []
    attempted, r, waited = 0, 0, 0.0
    cpu0, t_start = os.times(), time.perf_counter()
    while time.perf_counter() - t_start < seconds:
        requests = workload.round(r)
        t_round, client, round_failures = time.perf_counter(), 0.0, len(failures)
        for req in requests:
            client += meter.sample()
            attempted += 1
            if tracer is not None:
                tracer.begin_request(attempted)
            t0 = time.perf_counter()
            out = workload.execute(req)
            latencies.append(time.perf_counter() - t0)
            problem = workload.check(req, out)
            if problem is not None:
                failures.append((req.get("argv") or req.get("wedge"), problem))
        busy = time.perf_counter() - t_round - client
        waited += client
        completed = len(requests) - (len(failures) - round_failures)
        rates.append(completed / busy)
        if r == 0:
            round1 = len(latencies)
        r += 1
    wall = time.perf_counter() - t_start - waited
    cpu = sum(os.times()[:4]) - sum(cpu0[:4])
    return {
        "attempted": attempted,
        "failures": failures,
        "round1_requests": round1,
        "latencies": latencies,
        "round_rates": rates,
        "cpu_per_wall": cpu / wall,
    }


def requests_per_s(m: dict) -> float:
    """Median over the run's rounds, so that a burst of load from outside
    the benchmark that slows one round does not move the figure."""
    return statistics.median(m["round_rates"])


def end_to_end(m: dict, setup: list[float], meter: Speedometer) -> dict[str, tuple[float, int]]:
    """Metric name -> (value, sample count), times scaled to the reference
    speed by the run's factor."""
    factor = meter.factor()
    lat = m["latencies"]
    n = len(lat)
    p50 = statistics.median(lat)
    p90 = statistics.quantiles(lat, n=10)[-1] if n >= 2 else lat[0]
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    print(
        f"unscaled: requests_per_s {requests_per_s(m):.6g} 1/s, latency_p50_ms {p50 * 1000:.6g} ms; "
        f"speed factor {factor:.4g} from {len(meter.times)} kernel samples"
    )
    print(
        f"round1: requests_per_s {m['round_rates'][0] / factor:.6g} 1/s, "
        f"latency_p50_ms {statistics.median(lat[:m['round1_requests']]) * factor * 1000:.6g} ms"
    )
    return {
        "requests_per_s": (requests_per_s(m) / factor, len(m["round_rates"])),
        "latency_p50_ms": (p50 * factor * 1000, n),
        "latency_p90_ms": (p90 * factor * 1000, n),
        "setup_s": (statistics.median(setup) * factor, len(setup)),
        "peak_rss_mb": (rss_kb / 1024, 1),
        "cpu_per_wall": (m["cpu_per_wall"], 1),
    }


def per_layer(tracer, traced: dict, untraced: dict) -> dict[str, tuple[float, int]]:
    done = max(1, traced["attempted"] - len(traced["failures"]))
    spans = tracer.summary()
    c = tracer.counts
    out = {}
    for span, fields in SPAN_METRICS:
        agg = spans.get(span, {"calls": 0, "self_s": 0.0})
        for field in fields:
            out[f"{span}.{field}"] = (agg[field] / done, agg["calls"])

    def frac(num, den):
        return (c[num] / c[den] if c[den] else 0.0, c[den])

    out["sets.msum.repeat_frac"] = frac("msum.repeats", "msum.calls")
    out["sets.msum.kept_frac"] = frac("msum.kept", "msum.candidates")
    lp = spans.get("geometry.lp_feasible", {"max_s": 0.0})
    out["geometry.lp_feasible.max_ms"] = (lp["max_s"] * 1000, c["lp.calls"])
    out["geometry.lp_feasible.feasible_frac"] = frac("lp.feasible", "lp.calls")
    out["geometry.lp_feasible.fm_calls"] = (c["lp.fm"] / done, c["lp.fm"])
    out["geometry.lp_feasible.simplex_calls"] = (c["lp.simplex"] / done, c["lp.simplex"])
    out["trace.overhead_frac"] = (1 - requests_per_s(traced) / requests_per_s(untraced), traced["attempted"])
    return out


def report(metrics: dict[str, tuple[float, int]], units: dict[str, str], m: dict) -> dict:
    for name, (value, n) in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]} (n={n})")
    for argv, problem in m["failures"][:10]:
        print(f"FAILED {problem}: {argv}")
    return {name: {"value": value, "unit": units[name]} for name, (value, _) in metrics.items()}


def run_workload(args) -> int:
    import workloads
    from tracer import Tracer

    run_dir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    meter = Speedometer()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, run_dir)
        setup = measure_setup(wl, meter)
        wl.expect()
        if not args.trace:
            m = measure(wl, args.seconds, meter)
            metrics = report(end_to_end(m, setup, meter), END_TO_END, m)
        else:
            untraced = measure(wl, args.seconds / 2, meter)
            tracer = Tracer()
            tracer.install()
            try:
                m = measure(wl, args.seconds / 2, meter, tracer)
            finally:
                tracer.uninstall()
            summary = tracer.write(OUT / "traces", f"{args.workload}-seed{args.seed}")
            print(f"trace summary: {summary.relative_to(ROOT)}")
            layers = per_layer(tracer, m, untraced)
            m["failures"] += untraced["failures"]
            m["attempted"] += untraced["attempted"]
            metrics = report(layers, per_layer_units(), m)
        if isinstance(wl, workloads.Cancel):
            print(f"expected answers: {wl.expected_counts}")
    finally:
        meter.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    failed = len(m["failures"])
    print(f"failed_frac = {failed / m['attempted']:.6g} ({failed} of {m['attempted']} requests)")
    print(json.dumps({"correct": failed == 0, "attempted": m["attempted"], "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [
                sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=600, cwd=ROOT)
            lines = done.stdout.strip().splitlines()
            for line in lines[:-1]:
                print(f"{name:6s} {line}")
            try:
                result = json.loads(lines[-1]) if lines else None
            except json.JSONDecodeError:
                result = None
            if done.returncode != 0 or not result or not result["correct"]:
                status = 1
                print(f"{name:6s} run failed (exit {done.returncode}): {done.stderr.strip()[-2000:]}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("laws", "cancel", "hunt", "poly3"))
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    try:
        import_program()
    except ProgramMissing as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
