"""Command-line harness: instance-file validation, exit-code contract, and
byte-determinism of machine reports (including across ``--jobs`` values)."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from cornets.cli import (
    EXIT_INPUT,
    EXIT_PASS,
    EXIT_VIOLATION,
    HORIZON_LIMIT,
    RAT_DIGITS_LIMIT,
    _LIMITS,
    CliError,
    build_parser,
    load_instance,
    main,
)
from cornets.fuzzy import serialize_fuzzy

SRC = Path(__file__).resolve().parents[1] / "src"

LONG_DECIMAL = "1" * 4000 + "." + "1" * 4000

MUTATED_SETZ_FILE = {
    "universe": {"kind": "setZ", "dim": 1, "wedge": "zero"},
    "options": {"mutate": "star-dot"},
}

SETQ_FILE = {
    "universe": {"kind": "setQ", "dim": 2, "wedge": "orthant", "repr": "discrete"},
    "elements": {
        "A": {"repr": "discrete", "generators": [["0", "1"], ["1", "0"]]},
        "Y": {"repr": "polytopic", "generators": [["0", "0"], ["2", "-1"]]},
        "Z": {"repr": "discrete", "generators": [["1", "1"]]},
    },
    "family": {"epsilons": ["1", "1/2"]},
    "options": {"seed": 0},
}

# A custom pointed wedge, x >= 0 and x + y >= 0, that is not the orthant.
SKEW_ROWS = [["1", "0"], ["1", "1"]]

# Wedges where ones() is not strictly interior: on the boundary of the first
# (x >= 0, y >= x), outside the second.
NON_INTERIOR_WEDGES = [{"rows": [["1", "0"], ["-1", "1"]]}, "zero"]
FAMILY_NOTE = (
    "no Archimedean family over this wedge "
    "(direction must be strictly interior to the wedge); family skipped"
)


def _kind_file(kind: str, wedge) -> dict:
    """A d=2 instance of ``kind`` with X = (1, 2), Y = (0, 1), Z = (3, 0), as
    points, as the sets {p} + W, or as their characteristic functions."""
    points = {"X": ["1", "2"], "Y": ["0", "1"], "Z": ["3", "0"]}
    if kind == "elemQ":
        elements = points
    else:
        sets = {k: {"repr": "discrete", "generators": [p]} for k, p in points.items()}
        elements = sets if kind == "setQ" else {
            k: {"levels": [{"alpha": "1", "set": s}]} for k, s in sets.items()
        }
    return {
        "universe": {"kind": kind, "dim": 2, "wedge": wedge},
        "elements": elements,
        "family": {"epsilons": ["1", "1/2"]},
    }


@pytest.fixture
def setq_path(tmp_path):
    path = tmp_path / "setq.json"
    path.write_text(json.dumps(SETQ_FILE))
    return str(path)


def _write(tmp_path, obj, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj) if not isinstance(obj, str) else obj)
    return str(path)


class TestLoading:
    def test_valid_file(self, setq_path):
        loaded = load_instance(setq_path)
        assert loaded.kind == "setQ"
        assert set(loaded.elements) == {"A", "Y", "Z"}
        assert loaded.family is not None

    def test_missing_wedge(self, tmp_path):
        path = _write(tmp_path, {"universe": {"kind": "setQ", "dim": 2}})
        with pytest.raises(CliError, match="wedge"):
            load_instance(path)

    def test_unknown_field_rejected(self, tmp_path):
        bad = json.loads(json.dumps(SETQ_FILE))
        bad["universe"]["extra"] = 1
        path = _write(tmp_path, bad)
        with pytest.raises(CliError, match="extra"):
            load_instance(path)

    def test_malformed_json(self, tmp_path):
        path = _write(tmp_path, "{broken")
        with pytest.raises(CliError, match="line 1"):
            load_instance(path)

    def test_non_pointed_wedge_rejected(self, tmp_path):
        path = _write(
            tmp_path,
            {"universe": {"kind": "elemQ", "dim": 2, "wedge": {"rows": [[1, 0]]}}},
        )
        with pytest.raises(CliError, match="line"):
            load_instance(path)

    def test_boolean_dim_rejected(self, tmp_path, capsys):
        # true is an int to Python; as a dimension it must not read as 1.
        path = _write(tmp_path, {"universe": {"kind": "elemQ", "dim": True, "wedge": "orthant"}})
        assert main(["laws", path]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "input error: $.universe.dim: dim must be a positive integer, got True" in err

    def test_dim_above_limit_rejected(self, tmp_path, capsys):
        # The wedge's pointedness check, up to dim LPs, runs before any case.
        over = _LIMITS["dim"] + 1
        path = _write(tmp_path, {"universe": {"kind": "elemQ", "dim": over, "wedge": "orthant"}})
        assert main(["laws", path, "--cases", "1"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == f"input error: $.universe.dim: dim must be <= {_LIMITS['dim']}, got {over}\n"

    def test_dim_at_limit_accepted(self, tmp_path, capsys):
        dim = _LIMITS["dim"]
        path = _write(tmp_path, {"universe": {"kind": "elemQ", "dim": dim, "wedge": "orthant"}})
        assert main(["laws", path, "--cases", "1", "--format", "json"]) == EXIT_PASS
        assert json.loads(capsys.readouterr().out)["instance"] == f"elemQ(d={dim})"

    def test_cases_above_limit_rejected(self, tmp_path, capsys):
        over = _LIMITS["cases"] + 1
        inst = {"universe": {"kind": "elemQ", "dim": 1, "wedge": "orthant"}, "options": {}}
        path = _write(tmp_path, inst)
        assert main(["laws", path, "--cases", str(over)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"input error: --cases: must be <= {_LIMITS['cases']}, got {over}\n"
        inst["options"]["cases"] = over
        path = _write(tmp_path, inst)
        assert main(["laws", path]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == f"input error: $.options.cases: cases must be <= {_LIMITS['cases']}, got {over}\n"

    def test_cases_at_limit_accepted(self, tmp_path, capsys):
        path = _write(tmp_path, {"universe": {"kind": "elemQ", "dim": 1, "wedge": "orthant"}})
        assert main(["laws", path, "--cases", str(_LIMITS["cases"]), "--format", "json"]) == EXIT_PASS
        assert json.loads(capsys.readouterr().out)["params"]["cases"] == _LIMITS["cases"]

    def test_setz_constraints(self, tmp_path):
        path = _write(
            tmp_path,
            {"universe": {"kind": "setZ", "dim": 1, "wedge": "orthant"}},
        )
        with pytest.raises(CliError, match="zero wedge"):
            load_instance(path)

    def test_setz_integer_generators(self, tmp_path):
        path = _write(
            tmp_path,
            {
                "universe": {"kind": "setZ", "dim": 1, "wedge": "zero"},
                "elements": {"A": {"repr": "discrete", "generators": [["1/2"]]}},
            },
        )
        with pytest.raises(CliError, match="integer"):
            load_instance(path)

    def test_fuzzy_element_parsing(self, tmp_path):
        path = _write(
            tmp_path,
            {
                "universe": {"kind": "fuzzyQ", "dim": 1, "wedge": "orthant", "p": "1/2"},
                "elements": {
                    "f": {
                        "levels": [
                            {"alpha": 1, "set": {"repr": "discrete", "generators": [["2"]]}},
                            {"alpha": "1/2", "set": {"repr": "discrete", "generators": [["0"]]}},
                        ]
                    }
                },
            },
        )
        loaded = load_instance(path)
        assert loaded.elements["f"].top == 1
        # p < 1: no Archimedean family, with the reason recorded.
        assert loaded.family is None and "Archimedean" in loaded.family_note

    def test_fuzzy_element_p_must_match_universe(self, tmp_path, capsys):
        # A top level of 1/2 puts E outside the universe's F^1; its own p of
        # 1/4 must not let it in.
        cut = {"repr": "discrete", "generators": [["0"]]}
        universe = {"kind": "fuzzyQ", "dim": 1, "wedge": "orthant", "p": "1"}
        E = {"p": "1/4", "levels": [{"alpha": "1/2", "set": cut}]}
        path = _write(tmp_path, {"universe": universe, "elements": {"E": E, "Y": E}})
        assert main(["inspect", path, "--element", "E", "--op", "support"]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("input error: $.elements.E.p: ")
        assert main(["cancel", path, "--x", "E", "--y", "Y", "--z", "E"]) == EXIT_INPUT
        # An equal p, as serialize_fuzzy writes it, still loads.
        E = {"levels": [{"alpha": "1", "set": cut}]}
        path = _write(tmp_path, {"universe": universe, "elements": {"E": E}})
        f = load_instance(path).elements["E"]
        assert serialize_fuzzy(f)["p"] == "1"
        path = _write(tmp_path, {"universe": universe, "elements": {"E": serialize_fuzzy(f)}})
        assert load_instance(path).elements["E"] == f

    @pytest.mark.parametrize(
        "rows, bad",
        [([5, 6], 0), (["12", "21"], 0), ([["1", "0"], ["1"]], 1)],
        ids=["numbers", "strings", "short"],
    )
    def test_wedge_rows_must_be_lists(self, tmp_path, capsys, rows, bad):
        # A number row must not crash, nor a string row be read digit by digit.
        path = _write(tmp_path, {"universe": {"kind": "elemQ", "dim": 2, "wedge": {"rows": rows}}})
        assert main(["laws", path, "--cases", "1"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == f"input error: $.universe.wedge.rows[{bad}]: row must be a list of 2 rationals\n"

    @pytest.mark.parametrize("value", ["1e5000", "1E3", "2.5e-1"])
    def test_exponent_notation_rejected(self, tmp_path, capsys, value):
        # "1e5000" parses to an int too long to print, and larger exponents
        # take minutes to parse, so no exponent is read at all.
        inst = {
            "universe": {"kind": "setQ", "dim": 1, "wedge": "orthant"},
            "elements": {"A": {"repr": "discrete", "generators": [[value]]}},
        }
        path = _write(tmp_path, inst)
        assert main(["inspect", path, "--element", "A", "--op", "closure"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == (
            f"input error: $.elements.A.generators[0]: bad rational {value!r} "
            "(exponent notation is not accepted)\n"
        )

    @pytest.mark.parametrize(
        "kind, element, where",
        [
            ("elemQ", [LONG_DECIMAL], "$.elements.A"),
            ("elemQ", ["1/" + "3" * 1001], "$.elements.A"),
            ("setQ", {"repr": "discrete", "generators": [[LONG_DECIMAL]]}, "$.elements.A.generators[0]"),
        ],
        ids=["long-decimal", "long-denominator", "long-set-generator"],
    )
    def test_overlong_rational_rejected(self, tmp_path, capsys, kind, element, where):
        # Each part of the decimal is under Python's 4,300-digit limit on
        # printing an int, but its numerator is not; the report would die
        # printing it.
        universe = {"kind": kind, "dim": 1, "wedge": "orthant"}
        path = _write(tmp_path, {"universe": universe, "elements": {"A": element}})
        assert main(["inspect", path, "--element", "A", "--op", "closure"]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"input error: {where}: bad rational "
            f"(more than {RAT_DIGITS_LIMIT} digits in its numerator or denominator)\n"
        )

    def test_rational_at_digit_limit_accepted(self, tmp_path, capsys):
        # 1,000-digit numerator and denominator: read, and printed in full.
        value = "-" + "9" * RAT_DIGITS_LIMIT + "/1" + "0" * (RAT_DIGITS_LIMIT - 1)
        universe = {"kind": "elemQ", "dim": 1, "wedge": "orthant"}
        path = _write(tmp_path, {"universe": universe, "elements": {"A": [value]}})
        assert main(["inspect", path, "--element", "A", "--op", "closure", "--format", "json"]) == EXIT_PASS
        assert value in capsys.readouterr().out

    def test_integers_fractions_and_decimals_accepted(self, tmp_path):
        universe = {"kind": "elemQ", "dim": 2, "wedge": "orthant"}
        path = _write(tmp_path, {"universe": universe, "elements": {"A": ["3", "-1/2"], "B": ["0.25", 7]}})
        elements = load_instance(path).elements
        coords = {name: x.coords for name, x in elements.items()}
        assert coords == {"A": (F(3), F(-1, 2)), "B": (F(1, 4), F(7))}

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="no limit on int string conversion",
    )
    def test_oversized_json_integer_rejected(self, tmp_path, capsys):
        # json.load refuses an integer literal longer than the int string
        # conversion limit with a plain ValueError, not a JSONDecodeError.
        digits = sys.get_int_max_str_digits() + 1
        text = json.dumps({"universe": {"kind": "elemQ", "dim": 1, "wedge": "orthant"}})
        path = _write(tmp_path, text[:-1] + ', "elements": {"A": [' + "1" * digits + "]}}")
        assert main(["inspect", path, "--element", "A", "--op", "closure"]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"input error: {path}: invalid JSON (")

    def test_non_utf8_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"universe": {"kind": "elemQ", "dim": 1, "wedge": "orthant\xff"}}')
        assert main(["laws", str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"input error: {path}: invalid JSON ('utf-8' codec")


class TestExitCodes:
    def test_laws_pass(self, setq_path, capsys):
        assert main(["laws", setq_path, "--cases", "25"]) == EXIT_PASS
        assert "status: pass" in capsys.readouterr().out

    def test_every_law_carries_empty_notes(self, setq_path, capsys):
        # No suite writes notes; the key stays, so reports keep their bytes.
        assert main(["laws", setq_path, "--cases", "5", "--format", "json"]) == EXIT_PASS
        laws = json.loads(capsys.readouterr().out)["laws"]
        assert len(laws) == 18 and all(law["notes"] == [] for law in laws)

    @pytest.mark.parametrize(
        "universe, cases",
        [
            ({"kind": "setQ", "dim": 2, "wedge": {"rows": SKEW_ROWS}, "repr": "discrete"}, 6),
            ({"kind": "setQ", "dim": 2, "wedge": {"rows": SKEW_ROWS}, "repr": "polytopic"}, 6),
            ({"kind": "elemQ", "dim": 2, "wedge": {"rows": [["1", "0"], ["-1", "1"]]}}, 10),
        ],
    )
    def test_laws_pass_on_custom_wedges(self, tmp_path, capsys, universe, cases):
        # A horizon search for boundedness reports spurious `star unbounded`
        # violations on these wedges, and the polytopic universe compares
        # polytopic sets with one-generator discrete family members.
        path = _write(tmp_path, {"universe": universe, "family": {"epsilons": ["1", "1/2"]}})
        assert main(["laws", path, "--cases", str(cases), "--format", "json"]) == EXIT_PASS
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "pass"
        assert all(law["passed"] for law in report["laws"])

    def test_laws_input_error(self, tmp_path, capsys):
        path = _write(tmp_path, {"universe": {"kind": "setQ", "dim": 2}})
        assert main(["laws", path]) == EXIT_INPUT
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, options, location",
        [
            (["laws", "--cases", "-3"], {}, "--cases"),
            (["laws", "--cases", "0"], {}, "--cases"),
            (["laws", "--max-n", "0"], {}, "--max-n"),
            (["laws", "--horizon", "0"], {}, "--horizon"),
            (["cancel", "--x", "A", "--y", "Y", "--z", "Z", "--horizon", "0"], {}, "--horizon"),
            (["laws"], {"cases": 0}, "$.options.cases"),
            (["laws"], {"n_max": 0}, "$.options.n_max"),
            (["cancel", "--x", "A", "--y", "Y", "--z", "Z"], {"horizon": -1}, "$.options.horizon"),
        ],
    )
    def test_counts_below_one_rejected(self, tmp_path, capsys, argv, options, location):
        inst = json.loads(json.dumps(SETQ_FILE))
        inst["options"].update(options)
        path = _write(tmp_path, inst)
        assert main([argv[0], path, *argv[1:]]) == EXIT_INPUT
        assert f"input error: {location}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["laws", "--cases", "2"], ["cancel", "--x", "A", "--y", "Y", "--z", "Z"]],
        ids=["laws", "cancel"],
    )
    @pytest.mark.parametrize("epsilons", [[], 1, "12", None], ids=["empty", "number", "string", "null"])
    def test_epsilons_must_be_nonempty_list(self, tmp_path, capsys, argv, epsilons):
        inst = json.loads(json.dumps(SETQ_FILE))
        inst["family"] = {"epsilons": epsilons}
        path = _write(tmp_path, inst)
        assert main([argv[0], path, *argv[1:]]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "input error: $.family.epsilons: epsilons must be a nonempty list" in err

    @pytest.mark.parametrize(
        "argv, options, message",
        [
            (["--max-n", "13"], {}, "--max-n: must be <= 12, got 13"),
            (["--max-n", "400"], {}, "--max-n: must be <= 12, got 400"),
            ([], {"n_max": 13}, "$.options.n_max: n_max must be <= 12, got 13"),
        ],
    )
    def test_max_n_above_twelve_rejected(self, tmp_path, capsys, argv, options, message):
        inst = json.loads(json.dumps(SETQ_FILE))
        inst["options"].update(options)
        path = _write(tmp_path, inst)
        assert main(["laws", path, "--cases", "1", *argv]) == EXIT_INPUT
        assert f"input error: {message}" in capsys.readouterr().err

    def test_max_n_twelve_accepted(self, tmp_path):
        inst = json.loads(json.dumps(SETQ_FILE))
        inst["options"]["n_max"] = 12
        path = _write(tmp_path, inst)
        assert main(["laws", path, "--cases", "1"]) == EXIT_PASS
        assert main(["laws", path, "--cases", "1", "--max-n", "12"]) == EXIT_PASS

    @pytest.mark.parametrize(
        "argv",
        [["laws", "--cases", "1"], ["cancel", "--x", "A", "--y", "Y", "--z", "Z"]],
        ids=["laws", "cancel"],
    )
    def test_horizon_above_limit_rejected(self, tmp_path, capsys, argv):
        over = HORIZON_LIMIT + 1
        inst = json.loads(json.dumps(SETQ_FILE))
        path = _write(tmp_path, inst)
        assert main([argv[0], path, *argv[1:], "--horizon", str(over)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == f"input error: --horizon: must be <= {HORIZON_LIMIT}, got {over}\n"
        inst["options"]["horizon"] = over
        path = _write(tmp_path, inst)
        assert main([argv[0], path, *argv[1:]]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == f"input error: $.options.horizon: horizon must be <= {HORIZON_LIMIT}, got {over}\n"

    @pytest.mark.parametrize(
        "argv",
        [["laws", "--cases", "1"], ["cancel", "--x", "A", "--y", "Y", "--z", "Z"]],
        ids=["laws", "cancel"],
    )
    def test_horizon_at_limit_accepted(self, tmp_path, capsys, argv):
        inst = json.loads(json.dumps(SETQ_FILE))
        path = _write(tmp_path, inst)
        assert main([argv[0], path, *argv[1:], "--horizon", str(HORIZON_LIMIT)]) == EXIT_PASS
        capsys.readouterr()
        inst["options"]["horizon"] = HORIZON_LIMIT
        path = _write(tmp_path, inst)
        assert main([argv[0], path, *argv[1:], "--format", "json"]) == EXIT_PASS
        assert json.loads(capsys.readouterr().out)["params"]["horizon"] == HORIZON_LIMIT

    def test_cancel_m_below_two_rejected(self, setq_path, capsys):
        argv = ["cancel", setq_path, "--x", "A", "--y", "Y", "--z", "Z", "--m", "1"]
        assert main(argv) == EXIT_INPUT
        assert "input error: --m: must be >= 2, got 1" in capsys.readouterr().err

    def test_cancel_m_above_twelve_rejected(self, setq_path, capsys):
        argv = ["cancel", setq_path, "--x", "A", "--y", "Y", "--z", "Z", "--m"]
        assert main([*argv, "13"]) == EXIT_INPUT
        assert "input error: --m: must be <= 12, got 13" in capsys.readouterr().err
        assert main([*argv, "12"]) == EXIT_PASS

    @pytest.mark.parametrize("wedge", NON_INTERIOR_WEDGES, ids=["boundary", "zero"])
    @pytest.mark.parametrize("kind", ["elemQ", "setQ", "fuzzyQ"])
    def test_non_interior_wedge_skips_family_for_every_kind(self, tmp_path, capsys, kind, wedge):
        path = _write(tmp_path, _kind_file(kind, wedge))
        main(["laws", path, "--cases", "2", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert report["notes"] == [FAMILY_NOTE]
        assert len(report["laws"]) == 16
        assert main(["cancel", path, "--x", "X", "--y", "Y", "--z", "Z"]) == EXIT_INPUT
        assert f"input error: {FAMILY_NOTE}" in capsys.readouterr().err

    def test_mutated_universe_fails(self, tmp_path, capsys):
        path = _write(tmp_path, MUTATED_SETZ_FILE)
        assert main(["laws", path, "--cases", "25", "--max-n", "4"]) == EXIT_VIOLATION
        out = capsys.readouterr().out
        assert "star-iv-reverse" in out and "counterexample" in out

    def test_cancel_informational(self, setq_path, capsys):
        code = main(["cancel", setq_path, "--x", "A", "--y", "Y", "--z", "Z"])
        assert code == EXIT_PASS
        assert "Verified" in capsys.readouterr().out

    def test_cancel_hypothesis_not_met(self, setq_path, capsys):
        # A is DISCRETE and not 2-convex; informational exit 0.
        code = main(["cancel", setq_path, "--x", "A", "--y", "A", "--z", "Z"])
        assert code == EXIT_PASS
        assert "HypothesisNotMet" in capsys.readouterr().out

    def test_cancel_undecidable_representation(self, setq_path, capsys):
        # Polytopic-within-discrete inclusion is not decided; input error.
        code = main(["cancel", setq_path, "--x", "Y", "--y", "A", "--z", "Z"])
        assert code == EXIT_INPUT
        assert "undecidable" in capsys.readouterr().err

    def test_cancel_unknown_element(self, setq_path):
        assert main(["cancel", setq_path, "--x", "A", "--y", "Y", "--z", "nope"]) == EXIT_INPUT

    def test_hunt_finds_and_exhausts(self, capsys):
        assert main(["hunt", "--range", "0..3", "--ablate", "convexity"]) == EXIT_VIOLATION
        assert "counterexample" in capsys.readouterr().out
        assert main(["hunt", "--range", "0..3", "--universe", "z1-intervals"]) == EXIT_PASS
        assert "exhausted" in capsys.readouterr().out
        assert main(["hunt", "--range", "0..0"]) == EXIT_PASS

    def test_hunt_bad_range(self, capsys):
        assert main(["hunt", "--range", "3..1"]) == EXIT_INPUT
        assert capsys.readouterr().err == "input error: --range: empty range '3..1'\n"
        assert main(["hunt", "--range", "0-3"]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("input error: --range: range must look like")

    def test_hunt_negative_range(self, capsys):
        # A separate value with a leading minus sign parses as the
        # --range=-3..2 spelling does.
        argv = ["hunt", "--universe", "z1-intervals", "--format", "json"]
        assert main([*argv, "--range=-3..2"]) == EXIT_PASS
        glued = capsys.readouterr().out
        assert main([*argv, "--range", "-3..2"]) == EXIT_PASS
        assert capsys.readouterr().out == glued
        assert json.loads(glued)["params"]["range"] == "-3..2"
        assert main([*argv, "--range", "-2..-5"]) == EXIT_INPUT
        assert capsys.readouterr().err == "input error: --range: empty range '-2..-5'\n"

    @pytest.mark.parametrize(
        "lo, hi, x, y",
        [
            (-3, 3, [-1, 0, 1, 2, 3], [-1, 0, 1, 3]),
            (0, 6, [0, 1, 2, 3, 4, 5, 6], [0, 1, 2, 3, 4, 6]),
        ],
    )
    def test_hunt_pins_the_scan_order(self, capsys, lo, hi, x, y):
        # The scan visits the universe sorted by the text of each set's JSON
        # form, so "-1" comes before "-2"; the first triple found, and so the
        # output, depends on that order and not only on the sets.
        argv = ["hunt", "--universe", "z1", f"--range={lo}..{hi}", "--ablate", "convexity", "--format", "json"]
        assert main(argv) == EXIT_VIOLATION
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "counterexample"

        def as_set(values):
            return {"repr": "discrete", "generators": [[str(v)] for v in values]}

        assert report["found"] == {"x": as_set(x), "y": as_set(y), "z": as_set(x)}

    @pytest.mark.parametrize(
        "universe, largest",
        [("z1", 6), ("z1-intervals", 14)],
    )
    def test_hunt_universe_bounded(self, capsys, universe, largest):
        # 2^7 - 1 = 127 subsets of 0..6 and 15 * 16 / 2 = 120 intervals of
        # 0..14 are the largest universes taken; boundedness ablated, the
        # scan ends at once.
        argv = ["hunt", "--universe", universe, "--ablate", "boundedness", "--format", "json"]
        assert main([*argv, "--range", f"0..{largest}"]) == EXIT_PASS
        assert json.loads(capsys.readouterr().out)["searched"] <= 127
        assert main([*argv, "--range", f"0..{largest + 1}"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"input error: --range: the {universe} universe over 0..{largest + 1} has more than 127 sets" in err
        # A huge range is refused as fast, without a huge power.
        assert main([*argv, "--range", "0..1000000000"]) == EXIT_INPUT


class TestInspect:
    def test_hull(self, setq_path, capsys):
        assert main(["inspect", setq_path, "--element", "A", "--op", "hull", "--format", "json"]) == EXIT_PASS
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["repr"] == "polytopic"

    def test_hull_of_one_generator_is_discrete(self, tmp_path, capsys):
        # (1, 1) lies in (0, 0) + W, so T is the translated wedge (0, 0) + W.
        inst = {
            "universe": {"kind": "setQ", "dim": 2, "wedge": "orthant", "repr": "polytopic"},
            "elements": {"T": {"repr": "polytopic", "generators": [["0", "0"], ["1", "1"]]}},
        }
        path = _write(tmp_path, inst)
        assert main(["inspect", path, "--element", "T", "--op", "hull", "--format", "json"]) == EXIT_PASS
        assert json.loads(capsys.readouterr().out)["result"] == {"repr": "discrete", "generators": [["0", "0"]]}

    @pytest.mark.parametrize("kind", ["elemQ", "setQ", "setZ", "fuzzyQ"])
    def test_closure_leaves_element_unchanged(self, tmp_path, capsys, kind):
        # Every built-in closure is the identity on the elements a file can name.
        if kind == "setZ":
            inst = {
                "universe": {"kind": "setZ", "dim": 1, "wedge": "zero"},
                "elements": {"X": {"repr": "discrete", "generators": [["0"], ["2"]]}},
            }
        else:
            inst = _kind_file(kind, "orthant")
        path = _write(tmp_path, inst)
        loaded = load_instance(path)
        assert main(["inspect", path, "--element", "X", "--op", "closure", "--format", "json"]) == EXIT_PASS
        assert json.loads(capsys.readouterr().out)["result"] == loaded.inst.serialize(loaded.elements["X"])

    @pytest.mark.parametrize("kind", ["elemQ", "fuzzyQ"])
    def test_hull_not_applicable(self, tmp_path, capsys, kind):
        path = _write(tmp_path, _kind_file(kind, "orthant"))
        assert main(["inspect", path, "--element", "X", "--op", "hull"]) == EXIT_INPUT
        assert f"input error: --op: hull is not applicable to {kind}" in capsys.readouterr().err

    def test_convex(self, setq_path, capsys):
        main(["inspect", setq_path, "--element", "A", "--op", "convex:2", "--format", "json"])
        assert json.loads(capsys.readouterr().out)["result"] is False

    def test_embed_set_to_fuzzy(self, setq_path, capsys):
        main(["inspect", setq_path, "--element", "A", "--op", "embed", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert report["target"] == "fuzzyQ"
        assert report["result"]["levels"][0]["alpha"] == "1"

    def test_embed_elem_to_set(self, tmp_path, capsys):
        path = _write(
            tmp_path,
            {
                "universe": {"kind": "elemQ", "dim": 2, "wedge": "orthant"},
                "elements": {"x": ["1", "1/2"]},
            },
        )
        main(["inspect", path, "--element", "x", "--op", "embed", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert report["target"] == "setQ"
        assert report["result"]["generators"] == [["1", "1/2"]]

    def test_convex_above_twelve_rejected(self, setq_path, capsys):
        argv = ["inspect", setq_path, "--element", "A", "--op"]
        assert main([*argv, "convex:13"]) == EXIT_INPUT
        assert "input error: --op: must be <= 12, got 13" in capsys.readouterr().err
        assert main([*argv, "convex:12"]) == EXIT_PASS

    def test_inapplicable_op(self, setq_path, capsys):
        assert main(["inspect", setq_path, "--element", "A", "--op", "support"]) == EXIT_INPUT
        assert "input error: --op: support applies only to fuzzyQ" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "op, message",
        [
            ("convex:0", "must be >= 1, got 0"),
            ("convex:x", "bad op 'convex:x'; expected convex:<n>"),
            ("bogus", "unknown op 'bogus'"),
        ],
    )
    def test_op_errors_name_the_flag(self, setq_path, capsys, op, message):
        assert main(["inspect", setq_path, "--element", "A", "--op", op]) == EXIT_INPUT
        assert f"input error: --op: {message}" in capsys.readouterr().err


class TestDeterminism:
    def test_jobs_do_not_change_bytes(self, setq_path, tmp_path, capsys):
        # A passing report, and a failing one that carries counterexamples.
        mutated_path = _write(tmp_path, MUTATED_SETZ_FILE, "mutated.json")
        runs = (
            (setq_path, ["--cases", "30"], "pass"),
            (mutated_path, ["--cases", "25", "--max-n", "4"], "fail"),
        )
        for path, extra, status in runs:
            outputs = []
            for jobs in ("1", "3"):
                main(["laws", path, *extra, "--jobs", jobs, "--format", "json"])
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1]
            assert json.loads(outputs[0])["status"] == status

    def test_repeat_runs_identical(self, setq_path, capsys):
        main(["laws", setq_path, "--cases", "20", "--format", "json"])
        a = capsys.readouterr().out
        main(["laws", setq_path, "--cases", "20", "--format", "json"])
        assert a == capsys.readouterr().out

    def test_wedge_rows_and_name_give_same_bytes(self, setq_path, tmp_path, capsys):
        # The orthant written out as rows, in any order or scale, is the same
        # wedge, with the same exact fast paths, as the orthant written by name.
        paths = [setq_path]
        spellings = ([["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]], [["2", "0"], ["0", "1/3"]])
        for k, rows in enumerate(spellings):
            inst = json.loads(json.dumps(SETQ_FILE))
            inst["universe"]["wedge"] = {"rows": rows}
            paths.append(_write(tmp_path, inst, f"rows{k}.json"))
        outputs = []
        for path in paths:
            main(["cancel", path, "--x", "A", "--y", "Y", "--z", "Z", "--format", "json"])
            outputs.append(capsys.readouterr().out)
        assert all(out == outputs[0] for out in outputs)
        assert json.loads(outputs[0])["hypotheses"]["z-bounded"] == "analytically-verified"

    def test_one_parser_serves_every_command(self, setq_path, capsys):
        # main reuses one parser per process; two commands in a row must
        # print what each prints in a process of its own.
        argvs = (
            ["cancel", setq_path, "--x", "A", "--y", "Y", "--z", "Z", "--format", "json"],
            ["hunt", "--range", "0..2", "--format", "json"],
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        for argv in argvs:
            code = main(argv)
            proc = subprocess.run(
                [sys.executable, "-m", "cornets.cli", *argv],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert (code, capsys.readouterr().out) == (proc.returncode, proc.stdout)
        assert build_parser() is build_parser()
