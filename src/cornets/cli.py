"""Command-line harness: load instance files, run law suites, verify
cancellation, hunt counterexamples, emit reports.

Instance files are UTF-8 JSON describing one universe, its named elements and
an optional Archimedean family; unknown fields are rejected with a location
diagnostic.  Machine reports contain no timings, so identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from fractions import Fraction
from typing import Any, Optional

from .core import (
    ArchFamily,
    CornetInstance,
    Horizon,
    LawReport,
    UnsupportedOperation,
    ablation_hunt,
    cancellation_check,
    case_rng,
    check_cornet_laws,
    check_lemma_identities,
    dot_mul,
    is_n_convex,
    subcornet_closure_suite,
)
from .fuzzy import (
    NoArchimedeanElements,
    StepFuzzy,
    chi_embed,
    fuzzy_arch_family,
    make_fuzzy_cornet,
    serialize_fuzzy,
    support,
)
from .geometry import rat
from .sets import (
    Repr,
    UpperSet,
    enumerate_z_subsets,
    interval_z_subsets,
    make_set_cornet,
    order_convex_z,
    phi_embed,
    serialize_set,
    set_arch_family,
)
from .wedges import NotPointedError, Point, Wedge, elem_arch_family, make_elem_cornet

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
# The law suites compute about n_max**2 stars per case; one setQ d=3 case
# takes 2.8 s at n_max 12 and 11.7 s at 16.  Deciding n-convexity of a
# three-generator setQ d=2 set takes 0.03 s at n = 12 and 1.9 s at 64.  So
# every n the CLI takes (--max-n, n_max, --m, --op convex:<n>) is refused
# above 12.
N_MAX_LIMIT = 12
# Horizon searches and `cancel`'s chain, one link per n, cost more than
# linearly in the horizon.  Through `cancellation_check` on a 2-vCPU Xeon,
# benchmark `cancel` request 7 of seed 1 takes 0.12 s at 200, 0.51 s at 400
# and 2.0 s at 1,000, and the slowest of requests 0-99 of seeds 1 and 2
# takes 0.22 s at 200.  The limit stays at 200 until the other horizon
# searches are measured past it.
HORIZON_LIMIT = 200
# Building a wedge finds the left inverse of its rows with dim LPs, which also
# check pointedness, before any case runs; rows that hold every unit row need
# none (the orthant, the zero wedge, the unit rows with the all-ones row).  A
# custom wedge without e_1 (rows e_1 + e_2, e_2, ..., e_d and all-ones) takes
# 0.03 s at dim 16, 0.38 s at 32 and 2.0 s at 48 (2-vCPU Xeon).  So dim is at
# most 32.  `laws` costs linearly in its cases: a discrete setQ file over that
# dim-32 wedge takes 0.5 s at --cases 1 and 5.6 s at 200, the default and the
# bound.
_LIMITS = {"n_max": N_MAX_LIMIT, "horizon": HORIZON_LIMIT, "dim": 32, "cases": 200}
# The hunt's scan is cubic in the universe, but a pair (x, y) whose least
# and greatest members already rule out x + z within y + z costs no sum: on a
# 2-vCPU Xeon the unablated scans of z1 over 0..6 (127 sets) and 0..7 (255),
# universe built, take 0.0028 and 0.0065 s of CPU, and z1-intervals over
# 0..14 (120 sets) 0.011 s (0.45, 2.4 and 0.91 s without that refutation).
# The limit stays until the hunt has a work budget that bounds any universe.
# So a larger universe is refused before it is built.
HUNT_SETS_LIMIT = 127
# Reports print every rational in full, and Python refuses to print an int of
# more than 4,300 digits, a length that sums over a few denominators reach
# from far shorter input.  So a numerator or denominator read from input has
# at most 1,000 digits.
RAT_DIGITS_LIMIT = 1000
_RAT_BOUND = 10**RAT_DIGITS_LIMIT


class CliError(Exception):
    """Input problem; rendered with its location and mapped to exit code 2."""

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


def _require_keys(obj: dict, allowed: set, required: set, location: str) -> None:
    if not isinstance(obj, dict):
        raise CliError(f"expected an object, got {type(obj).__name__}", location)
    unknown = set(obj) - allowed
    if unknown:
        raise CliError(f"unknown field(s) {sorted(unknown)}", location)
    missing = required - set(obj)
    if missing:
        raise CliError(f"missing required field(s) {sorted(missing)}", location)


def _parse_rat(value, location: str) -> Fraction:
    # Fraction("1e1000000") alone takes a third of a second, growing about
    # 55 times per decade of the exponent, and "1e5000" parses to an int too
    # long to print; so only integers, p/q and decimals are read.
    if isinstance(value, str) and "e" in value.lower():
        raise CliError(f"bad rational {value!r} (exponent notation is not accepted)", location)
    try:
        q = rat(value)
    except (ValueError, ZeroDivisionError) as e:
        raise CliError(f"bad rational {value!r} ({e})", location)
    if max(abs(q.numerator), q.denominator) >= _RAT_BOUND:
        too_long = f"more than {RAT_DIGITS_LIMIT} digits in its numerator or denominator"
        raise CliError(f"bad rational ({too_long})", location)
    return q


def _parse_wedge(spec, dim: int, location: str) -> Wedge:
    try:
        if spec == "orthant":
            return Wedge.orthant(dim)
        if spec == "zero":
            return Wedge.zero(dim)
        if isinstance(spec, dict):
            _require_keys(spec, {"rows"}, {"rows"}, location)
            rows = spec["rows"]
            if not isinstance(rows, list) or not rows:
                raise CliError("rows must be a nonempty list", location)
            parsed = []
            for i, row in enumerate(rows):
                loc = f"{location}.rows[{i}]"
                if not isinstance(row, list) or len(row) != dim:
                    raise CliError(f"row must be a list of {dim} rationals", loc)
                parsed.append([_parse_rat(c, loc) for c in row])
            return Wedge.from_rows(parsed)
    except NotPointedError as e:
        raise CliError(str(e), location)
    raise CliError(f"wedge must be \"orthant\", \"zero\" or {{\"rows\": ...}}, got {spec!r}", location)


def _parse_repr(value, location: str) -> Repr:
    try:
        return Repr(value)
    except ValueError:
        raise CliError(f"repr must be \"discrete\" or \"polytopic\", got {value!r}", location)


def _parse_set(obj, w: Wedge, location: str, integer: bool = False) -> UpperSet:
    _require_keys(obj, {"repr", "generators"}, {"repr", "generators"}, location)
    rp = _parse_repr(obj["repr"], location)
    gens = obj["generators"]
    if not isinstance(gens, list) or not gens:
        raise CliError("generators must be a nonempty list", location)
    parsed = []
    for i, g in enumerate(gens):
        if not isinstance(g, list) or len(g) != w.dim:
            raise CliError(f"generator must be a list of {w.dim} rationals", f"{location}.generators[{i}]")
        row = [_parse_rat(c, f"{location}.generators[{i}]") for c in g]
        if integer and any(c.denominator != 1 for c in row):
            raise CliError("integer universe requires integer generators", f"{location}.generators[{i}]")
        parsed.append(row)
    try:
        return UpperSet.make(w, rp, parsed)
    except ValueError as e:
        raise CliError(str(e), location)


def _parse_fuzzy(obj, w: Wedge, p: Fraction, location: str) -> StepFuzzy:
    _require_keys(obj, {"p", "levels"}, {"levels"}, location)
    if "p" in obj and _parse_rat(obj["p"], f"{location}.p") != p:
        raise CliError(f"p must equal the universe's p = {p}, got {obj['p']!r}", f"{location}.p")
    levels = obj["levels"]
    if not isinstance(levels, list) or not levels:
        raise CliError("levels must be a nonempty list", location)
    parsed = []
    for i, lv in enumerate(levels):
        loc = f"{location}.levels[{i}]"
        _require_keys(lv, {"alpha", "set"}, {"alpha", "set"}, loc)
        parsed.append((_parse_rat(lv["alpha"], loc), _parse_set(lv["set"], w, f"{loc}.set")))
    try:
        return StepFuzzy.make(w, p, parsed)
    except ValueError as e:
        raise CliError(str(e), location)


_KINDS = ("elemQ", "setQ", "setZ", "fuzzyQ")


@dataclasses.dataclass
class Loaded:
    kind: str
    wedge: Wedge
    inst: CornetInstance
    elements: dict[str, Any]
    family: Optional[ArchFamily]
    family_note: Optional[str]
    options: dict


def _parse_element(kind: str, raw, w: Wedge, p: Fraction, location: str):
    if kind == "elemQ":
        if not isinstance(raw, list) or len(raw) != w.dim:
            raise CliError(f"element must be a list of {w.dim} rationals", location)
        return Point.make(_parse_rat(c, location) for c in raw)
    if kind in ("setQ", "setZ"):
        return _parse_set(raw, w, location, integer=(kind == "setZ"))
    return _parse_fuzzy(raw, w, p, location)


def load_instance(path: str) -> Loaded:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise CliError(f"cannot read instance file ({e})", path)
    except json.JSONDecodeError as e:
        raise CliError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}", path)
    except ValueError as e:  # an integer literal past int's digit limit, or bytes not UTF-8
        raise CliError(f"invalid JSON ({e})", path)
    _require_keys(data, {"universe", "elements", "family", "options"}, {"universe"}, "$")

    uni = data["universe"]
    _require_keys(uni, {"kind", "dim", "wedge", "repr", "p"}, {"kind", "dim", "wedge"}, "$.universe")
    kind = uni["kind"]
    if kind not in _KINDS:
        raise CliError(f"kind must be one of {list(_KINDS)}, got {kind!r}", "$.universe.kind")
    dim = uni["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise CliError(f"dim must be a positive integer, got {dim!r}", "$.universe.dim")
    _in_range(dim, "$.universe.dim", 1, _LIMITS["dim"], "dim ")
    w = _parse_wedge(uni["wedge"], dim, "$.universe.wedge")

    rp = Repr.DISCRETE
    if "repr" in uni:
        if kind == "elemQ":
            raise CliError("repr does not apply to elemQ", "$.universe.repr")
        rp = _parse_repr(uni["repr"], "$.universe.repr")
    p = Fraction(1)
    if "p" in uni:
        if kind != "fuzzyQ":
            raise CliError("p applies only to fuzzyQ", "$.universe.p")
        p = _parse_rat(uni["p"], "$.universe.p")
        if not (0 < p <= 1):
            raise CliError(f"p must lie in (0, 1], got {p}", "$.universe.p")
    if kind == "setZ":
        if dim != 1 or not w.is_zero:
            raise CliError("setZ requires dim 1 and the zero wedge", "$.universe")
        if rp is not Repr.DISCRETE:
            raise CliError("setZ supports only discrete sets", "$.universe.repr")

    options = data.get("options", {})
    _require_keys(options, {"n_max", "horizon", "seed", "cases", "mutate"}, set(), "$.options")
    for key in ("n_max", "horizon", "seed", "cases"):
        if key not in options:
            continue
        value = options[key]
        if not (isinstance(value, int) and not isinstance(value, bool)):
            raise CliError(f"{key} must be an integer", f"$.options.{key}")
        if key != "seed":
            _in_range(value, f"$.options.{key}", 1, _LIMITS.get(key), f"{key} ")

    if kind == "elemQ":
        inst = make_elem_cornet(w)
    elif kind == "setQ":
        inst = make_set_cornet(w, rp)
    elif kind == "setZ":
        inst = make_set_cornet(w, Repr.DISCRETE, integer=True)
    else:
        inst = make_fuzzy_cornet(w, p, rp)

    mutate = options.get("mutate")
    if mutate is not None:
        if mutate != "star-dot":
            raise CliError(f"unknown mutation {mutate!r}", "$.options.mutate")
        base = inst
        inst = dataclasses.replace(
            inst,
            name=f"{inst.name}[star-dot]",
            star=lambda n, x: dot_mul(base, n, x),
        )

    elements = {}
    raw_elements = data.get("elements", {})
    if not isinstance(raw_elements, dict):
        raise CliError("elements must be an object", "$.elements")
    for name, raw in raw_elements.items():
        elements[name] = _parse_element(kind, raw, w, p, f"$.elements.{name}")

    fam_spec = data.get("family", {"epsilons": ["1", "1/2"]})
    _require_keys(fam_spec, {"epsilons"}, {"epsilons"}, "$.family")
    if not isinstance(fam_spec["epsilons"], list) or not fam_spec["epsilons"]:
        raise CliError("epsilons must be a nonempty list", "$.family.epsilons")
    epsilons = [_parse_rat(e, "$.family.epsilons") for e in fam_spec["epsilons"]]
    if any(e <= 0 for e in epsilons):
        raise CliError("epsilons must be positive", "$.family.epsilons")
    family, family_note = None, None
    try:
        if kind == "elemQ":
            family = elem_arch_family(w, epsilons)
        elif kind in ("setQ", "setZ"):
            family = set_arch_family(w, epsilons)
        else:
            family = fuzzy_arch_family(w, epsilons, p)
    except NoArchimedeanElements:
        family_note = "no Archimedean elements below the top membership level; family skipped"
    except ValueError as e:
        family_note = f"no Archimedean family over this wedge ({e}); family skipped"

    return Loaded(kind, w, inst, elements, family, family_note, options)


# --- Reports -----------------------------------------------------------------


def _law_json(r: LawReport) -> dict:
    return {
        "law": r.law,
        "cases": r.cases,
        "passed": r.passed,
        "violations": r.violations,
        "notes": [],  # no suite writes notes; the key keeps the report's bytes
    }


def emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2, default=str))
        return
    print(f"== {report['command']} :: {report.get('instance', '-')} ==")
    for r in report.get("laws", ()):
        mark = "PASS" if r["passed"] else "FAIL"
        line = f"  [{mark}] {r['law']} ({r['cases']} cases)"
        print(line)
        for v in r["violations"]:
            print(f"         counterexample: {v}")
    for key in ("hypotheses", "premise", "conclusion", "chain", "result", "found", "notes"):
        if key in report and report[key] not in (None, [], {}):
            print(f"  {key}: {report[key]}")
    print(f"  status: {report['status']}")


def _in_range(value: int, location: str, least: int, most: Optional[int], name: str = "") -> int:
    """value, or an input error at ``location`` if not in least..most (None: no bound)."""
    if value < least:
        raise CliError(f"{name}must be >= {least}, got {value}", location)
    if most is not None and value > most:
        raise CliError(f"{name}must be <= {most}, got {value}", location)
    return value


def _count(args_value, flag: str, options: dict, key: str, default: int) -> int:
    """A count in 1.._LIMITS[key]: the flag, else ``$.options``, else the default."""
    if args_value is None:
        return options.get(key, default)
    return _in_range(args_value, flag, 1, _LIMITS.get(key))


# --- Commands ----------------------------------------------------------------


def cmd_laws(args) -> int:
    loaded = load_instance(args.file)
    inst = loaded.inst
    cases = _count(args.cases, "--cases", loaded.options, "cases", 200)
    seed = loaded.options.get("seed", 0) if args.seed is None else args.seed
    n_max = _count(args.max_n, "--max-n", loaded.options, "n_max", 6)
    horizon = _count(args.horizon, "--horizon", loaded.options, "horizon", 12)

    laws = check_cornet_laws(inst, seed, cases, n_max)
    laws += check_lemma_identities(inst, seed, max(1, cases // 2), n_max)
    notes = []
    if loaded.family is not None:
        probes = tuple(inst.sampler(case_rng(seed, 2**30 + k)) for k in range(2))
        h = Horizon(horizon, probes)
        laws += subcornet_closure_suite(inst, loaded.family, h, seed, min(cases, 50))
    else:
        notes.append(loaded.family_note)

    status = "pass" if all(r.passed for r in laws) else "fail"
    report = {
        "command": "laws",
        "instance": inst.name,
        "params": {"cases": cases, "seed": seed, "n_max": n_max, "horizon": horizon},
        "laws": [_law_json(r) for r in laws],
        "notes": notes,
        "status": status,
    }
    emit(report, args.format)
    return EXIT_PASS if status == "pass" else EXIT_VIOLATION


def cmd_cancel(args) -> int:
    loaded = load_instance(args.file)
    inst = loaded.inst
    for name in (args.x, args.y, args.z):
        if name not in loaded.elements:
            raise CliError(f"element {name!r} not defined in the instance file", "$.elements")
    _in_range(args.m, "--m", 2, N_MAX_LIMIT)
    if loaded.family is None:
        raise CliError(loaded.family_note or "no Archimedean family available")
    x, y, z = loaded.elements[args.x], loaded.elements[args.y], loaded.elements[args.z]
    horizon = _count(args.horizon, "--horizon", loaded.options, "horizon", 12)
    # Every element challenges y's closedness; verify_closure skips undecidable ones.
    try:
        record = cancellation_check(
            inst, x, y, z, args.m, loaded.family, Horizon(horizon),
            list(loaded.elements.values()),
        )
    except UnsupportedOperation as e:
        raise CliError(f"order comparison undecidable for these representations ({e})")
    report = {
        "command": "cancel",
        "instance": inst.name,
        "params": {"x": args.x, "y": args.y, "z": args.z, "m": args.m, "horizon": horizon},
        "hypotheses": {
            "z-bounded": record.hypotheses["z-bounded"].verdict.value,
            "y-closed": record.hypotheses["y-closed"].verdict.value,
            "y-m-convex": record.hypotheses["y-m-convex"],
        },
        "premise": record.premise,
        "conclusion": record.conclusion,
        "chain": [list(link) for link in record.chain],
        "status": record.status,
    }
    emit(report, args.format)
    # Hypothesis or premise failures are informational; only a conclusion
    # failure (which would falsify the theorem) is a violation.
    return EXIT_VIOLATION if record.status == "ConclusionFailed" else EXIT_PASS


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo_s, hi_s = text.split("..")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise CliError(f"range must look like \"0..3\", got {text!r}", "--range")
    if hi < lo:
        raise CliError(f"empty range {text!r}", "--range")
    return lo, hi


def cmd_hunt(args) -> int:
    lo, hi = _parse_range(args.range)
    width = hi - lo + 1
    # All 2^width - 1 nonempty subsets, or the width(width+1)/2 intervals;
    # the power is capped so that a huge range costs no huge integer.
    if args.universe == "z1":
        size, build = 2 ** min(width, 64) - 1, enumerate_z_subsets
    elif args.universe == "z1-intervals":
        size, build = width * (width + 1) // 2, interval_z_subsets
    else:
        raise CliError(f"unknown universe {args.universe!r}")
    if size > HUNT_SETS_LIMIT:
        raise CliError(
            f"the {args.universe} universe over {lo}..{hi} has more than "
            f"{HUNT_SETS_LIMIT} sets; narrow the range",
            "--range",
        )
    universe = build(hi, lo=lo)
    inst = make_set_cornet(Wedge.zero(1), Repr.DISCRETE, integer=True)
    found = ablation_hunt(inst, universe, args.ablate, convexity_test=order_convex_z)
    report = {
        "command": "hunt",
        "instance": inst.name,
        "params": {"universe": args.universe, "range": f"{lo}..{hi}", "ablate": args.ablate},
        "found": (
            {k: inst.serialize(e) for k, e in zip("xyz", found)} if found else None
        ),
        "searched": len(universe),
        "status": "counterexample" if found else "exhausted",
    }
    emit(report, args.format)
    return EXIT_VIOLATION if found else EXIT_PASS


def cmd_inspect(args) -> int:
    loaded = load_instance(args.file)
    inst = loaded.inst
    if args.element not in loaded.elements:
        raise CliError(f"element {args.element!r} not defined in the instance file", "$.elements")
    el = loaded.elements[args.element]
    op = args.op
    target = loaded.kind

    if op.startswith("convex:"):
        try:
            n = int(op.split(":", 1)[1])
        except ValueError:
            raise CliError(f"bad op {op!r}; expected convex:<n>", "--op")
        result = is_n_convex(inst, el, _in_range(n, "--op", 1, N_MAX_LIMIT))
    elif op == "hull":
        if inst.hull is None:
            raise CliError(f"hull is not applicable to {loaded.kind}", "--op")
        result = inst.serialize(inst.hull(el))
    elif op == "closure":
        result = inst.serialize(inst.closure(el))
    elif op == "support":
        if loaded.kind != "fuzzyQ":
            raise CliError("support applies only to fuzzyQ", "--op")
        result = serialize_set(support(el))
    elif op == "embed":
        if loaded.kind == "elemQ":
            target = "setQ"
            result = serialize_set(phi_embed(loaded.wedge, el.coords))
        elif loaded.kind in ("setQ", "setZ"):
            target = "fuzzyQ"
            result = serialize_fuzzy(chi_embed(el))
        else:
            raise CliError("embed applies to elemQ and setQ/setZ only", "--op")
    else:
        raise CliError(f"unknown op {op!r}", "--op")

    report = {
        "command": "inspect",
        "instance": inst.name,
        "params": {"element": args.element, "op": op},
        "target": target,
        "result": result,
        "status": "pass",
    }
    emit(report, args.format)
    return EXIT_PASS


# --- Entry point -------------------------------------------------------------


@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cornets",
        description="Law checking, cancellation and counterexample hunting for exact rational cornets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("laws", help="run the cornet law and lemma suites on an instance file")
    p.add_argument("file")
    p.add_argument("--cases", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-n", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument(
        "--jobs", type=int, default=1,
        help="accepted for compatibility; has no effect (cases run in one process)",
    )
    common(p)

    p = sub.add_parser("cancel", help="verify a cancellation-theorem instance")
    p.add_argument("file")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--horizon", type=int)
    common(p)

    p = sub.add_parser("hunt", help="search a finite integer universe for cancellation failures")
    p.add_argument("--universe", choices=("z1", "z1-intervals"), default="z1")
    p.add_argument("--range", default="0..3")
    p.add_argument(
        "--ablate",
        choices=("convexity", "closedness", "boundedness", "none"),
        default="none",
    )
    common(p)

    p = sub.add_parser("inspect", help="apply a structural operation to a named element")
    p.add_argument("file")
    p.add_argument("--element", required=True)
    p.add_argument("--op", required=True)
    common(p)

    return parser


def _glue_negative_ranges(argv: list[str]) -> list[str]:
    """``--range -3..2`` as ``--range=-3..2``: argparse takes a separate value
    that starts with a minus sign and a digit for an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--range" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"--range={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Optional[list[str]] = None) -> int:
    argv = _glue_negative_ranges(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    # The handler is looked up at call time, not stored in the cached parser,
    # so a rebinding of cmd_<command> (such as a tracer's) takes effect.
    fn = globals()[f"cmd_{args.command}"]
    try:
        return fn(args)
    except CliError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
