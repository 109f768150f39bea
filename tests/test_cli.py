import contextlib
import csv
import io
import json
import os
import re
import sys
import tracemalloc

import numpy as np
import pytest

from honeyflow import cli, simulator
from honeyflow.cli import run
from honeyflow.experiments import MAX_TRIALS
from honeyflow.game import MAX_TYPES, load_spec

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
HELP_DIR = os.path.join(DATA_DIR, "cli_help")
COMMANDS = ("solve", "evaluate", "sweep", "matchup", "ratio", "bench", "simulate", "heuristic")


# A valid heuristic input; argparse keeps the last of a repeated option.
_HEURISTIC = ("--real-values", "10", "--fake-values", "1", "--real-flows", "10")
# A simulate command line, to be given a file option.
_SIMULATE = ("simulate", "--topology", "t.json", "--real", "5", "--honey", "1")

# Bad command lines and a phrase of the one-line error each must print.
# Paths are relative and no file is read, so the bytes repeat anywhere.
BAD_ARGUMENTS = {
    "sweep-zero-trials": (["sweep", "--trials", "0"], "trials"),
    "sweep-negative-trials": (["sweep", "--trials", "-1"], "trials"),
    "sweep-has-no-cost": (["sweep", "--cost", "0.5"], "unrecognized arguments: --cost"),
    "matchup-negative-cost": (["matchup", "--cost", "-1"], "cost must be nonnegative"),
    "matchup-nan-cost": (
        ["matchup", "--cost", "nan"], "cost must be nonnegative and finite, got nan"
    ),
    "sweep-nan-cost": (
        ["sweep", "--costs", "1e-3,nan"], "cost must be nonnegative and finite, got nan"
    ),
    "sweep-infinite-cost": (
        ["sweep", "--costs", "1e-3,inf"], "cost must be nonnegative and finite, got inf"
    ),
    "sweep-negative-cost": (
        ["sweep", "--costs", "1e-3,-1"], "cost must be nonnegative and finite, got -1.0"
    ),
    "matchup-zero-trials": (["matchup", "--trials", "0"], "trials"),
    "bench-zero-trials": (["bench", "--trials", "0"], "trials"),
    "sweep-too-many-trials": (
        ["sweep", "--trials", str(MAX_TRIALS + 1)], f"at most {MAX_TRIALS}, got"
    ),
    "matchup-too-many-trials": (
        ["matchup", "--trials", str(MAX_TRIALS + 1)], f"at most {MAX_TRIALS}, got"
    ),
    "bench-too-many-trials": (
        ["bench", "--trials", str(MAX_TRIALS + 1)], f"at most {MAX_TRIALS}, got"
    ),
    "bench-with-timing": (
        ["bench", "--sizes", "1", "--trials", "1", "--with-timing"], "--with-timing"
    ),
    "matchup-with-timing": (["matchup", "--trials", "1", "--with-timing"], "--with-timing"),
    "ratio-with-timing": (["ratio", "--real-flows", "10", "--with-timing"], "--with-timing"),
    "bench-no-sizes": (["bench", "--sizes", ""], "bench needs at least one size"),
    "sweep-too-many-types": (
        ["sweep", "--types", str(MAX_TYPES + 1)], f"at most {MAX_TYPES}, got"
    ),
    "matchup-too-many-types": (["matchup", "--types", "8000"], f"at most {MAX_TYPES}, got 8000"),
    "sweep-negative-real-flows": (
        ["sweep", "--trials", "1", "--real-flows", "-5"], "real flows must be nonnegative"
    ),
    "ratio-vector-lengths": (
        ["ratio", "--real-values", "1,2,3", "--fake-values", "0.5"], "fake values"
    ),
    "ratio-oversize-bound": (
        ["ratio", "--ratios", "1e10", "--real-flows", "10"], "honey_flow_bound"
    ),
    "ratio-no-real-flows": (["ratio", "--real-flows", ","], "real-flow counts"),
    "ratio-zero-real-flows": (["ratio", "--real-flows", "0"], "real-flow counts"),
    "ratio-infinite": (["ratio", "--ratios", "inf"], "ratio grid must be nonempty, finite"),
    "ratio-beyond-float": (["ratio", "--ratios", "1e400"], "ratio grid must be nonempty, finite"),
    "ratio-nan": (["ratio", "--ratios", "0,nan"], "ratio grid must be nonempty, finite"),
    "ratio-bound-overflows": (["ratio", "--ratios", "1e308", "--real-flows", "10"], "overflows"),
    "heuristic-nan-real-value": (["heuristic", *_HEURISTIC, "--real-values", "nan"], "finite"),
    "heuristic-infinite-real-value": (
        ["heuristic", *_HEURISTIC, "--real-values", "inf"], "finite"
    ),
    "heuristic-nan-fake-value": (["heuristic", *_HEURISTIC, "--fake-values", "nan"], "finite"),
    "heuristic-oversize-count": (
        ["heuristic", *_HEURISTIC, "--real-flows", "500001"], "[0, 500000], got 500001"
    ),
    "heuristic-count-overflowing-when-doubled": (
        ["heuristic", *_HEURISTIC, "--real-flows", str(5 * 10**18)], f"got {5 * 10**18}"
    ),
    "heuristic-count-wrapping-negative": (
        ["heuristic", *_HEURISTIC, "--real-flows", str(2**63)], f"got {2**63}"
    ),
    "solve-output-over-game": (
        ["solve", "--game", "g.json", "--output", "g.json"],
        "--game and --output name the same file g.json",
    ),
    "solve-dump-spec-over-output": (
        ["solve", "--game", "g.json", "--output", "r.json", "--dump-spec", "./r.json"],
        "--output and --dump-spec name the same file ./r.json",
    ),
    "evaluate-dump-spec-over-game": (
        ["evaluate", "--game", "g.json", "--dump-spec", "g.json"],
        "--game and --dump-spec name the same file",
    ),
    "evaluate-dump-spec-over-output": (
        ["evaluate", "--game", "g.json", "--output", "r.json", "--dump-spec", "r.json"],
        "--output and --dump-spec name the same file",
    ),
    "simulate-rates-over-topology": (
        [*_SIMULATE, "--switch-rates", "t.json"],
        "--topology and --switch-rates name the same file",
    ),
    "simulate-rates-over-output": (
        [*_SIMULATE, "--output", "o.csv", "--switch-rates", "o.csv"],
        "--output and --switch-rates name the same file",
    ),
}


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_worked_example_end_to_end(self, capsys, worked_example_path):
        code, out, err = _run(capsys, "solve", "--game", worked_example_path)
        assert code == 0
        payload = json.loads(out)
        # Frozen from the exhaustive fixed-action oracle: the optimum mixes
        # zero/one honey flow on the first type and maxes the second,
        # leaving both attacks tied at 8.75 and the defender at -10.75.
        assert payload["defender_value"] == pytest.approx(-10.75, abs=1e-3)
        assert payload["attacker_value"] == pytest.approx(8.75, abs=1e-3)
        assert payload["verified"] is True
        assert payload["attacker_action"] == "attack(0)"
        assert "solve_time" not in payload

    def test_output_file_and_timing_flag(self, capsys, worked_example_path, tmp_path):
        """--output takes the result off stdout. Neither solve nor sweep
        has a timing flag: only bench results hold wall-clock time."""
        out_path = tmp_path / "eq.json"
        code, out, _ = _run(
            capsys, "solve", "--game", worked_example_path, "--output", str(out_path)
        )
        assert (code, out) == (0, "")
        assert "solve_time" not in json.loads(out_path.read_text())
        for argv in (("solve", "--game", worked_example_path), ("sweep", "--trials", "1")):
            assert _run(capsys, *argv, "--with-timing") == (
                1, "", "error: unrecognized arguments: --with-timing\n"
            )

    def test_verbose_writes_each_action_then_the_time_to_stderr(
        self, capsys, worked_example_path
    ):
        plain = _run(capsys, "solve", "--game", worked_example_path)
        code, out, err = _run(capsys, "--verbose", "solve", "--game", worked_example_path)
        assert (code, out, plain[2]) == (0, plain[1], "")
        per_action = json.loads(out)["per_action"]
        *action_lines, timing = err.split("\n")[:-1]
        assert action_lines == [
            f"{a}: {per_action[str(a)]['status']} {per_action[str(a)]['value']}"
            for a in load_spec(worked_example_path).actions
        ]
        assert re.fullmatch(r"solved in \d+\.\d{6}s", timing)

    def test_byte_identical_output_files(self, capsys, worked_example_path, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        _run(capsys, "solve", "--game", worked_example_path, "--output", str(a))
        _run(capsys, "solve", "--game", worked_example_path, "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_dump_spec_round_trips(self, capsys, worked_example_path, tmp_path):
        dumped = tmp_path / "spec.json"
        code, _, _ = _run(
            capsys,
            "solve",
            "--game",
            worked_example_path,
            "--dump-spec",
            str(dumped),
        )
        assert code == 0
        assert load_spec(str(dumped)) == load_spec(worked_example_path)


    def test_large_values_verify(self, capsys, tmp_path):
        """Values near 1e12 round by more than an absolute 1e-6, so the
        checks that compare two values scale their slack to the values."""
        game = tmp_path / "large.json"
        game.write_text(json.dumps({"types": [
            {"attacker_real_value": 1e12, "attacker_honey_value": -3e11, "real_flows": 7,
             "honey_flow_bound": 13, "cost_per_flow": 1e9},
            {"attacker_real_value": 7e11, "attacker_honey_value": -1e11, "real_flows": 3,
             "honey_flow_bound": 11, "cost_per_flow": 3e9},
        ]}))
        code, out, _ = _run(capsys, "solve", "--game", str(game))
        assert code == 0
        assert json.loads(out)["verified"] is True

    def test_subnormal_curve_step_prints_no_warning(self, capsys, tmp_path):
        """Type 1's curve [5e-324, 0] holds tau* = -1e-9 with weight
        1e-9 / 5e-324, which overflows to inf and is capped at 1."""
        game = tmp_path / "subnormal.json"
        game.write_text(json.dumps({"types": [
            {"attacker_real_value": -1e-9, "attacker_honey_value": -2e-9, "real_flows": 1,
             "honey_flow_bound": 1, "cost_per_flow": 1.0},
            {"attacker_real_value": 5e-324, "attacker_honey_value": 0.0, "real_flows": 1,
             "honey_flow_bound": 1, "cost_per_flow": 1.0},
        ]}))
        code, out, err = _run(capsys, "solve", "--game", str(game))
        assert (code, err) == (0, "")
        assert out == json.dumps({
            "attacker_action": "attack(1)",
            "attacker_value": 5e-324,
            "defender_value": -5e-324,
            "per_action": {
                "attack(0)": {"status": "optimal", "value": -0.999999999},
                "attack(1)": {"status": "optimal", "value": -0.0},
                "no-attack": {"status": "optimal", "value": -0.0},
            },
            "strategy": [[1.0, 0.0], [1.0, 0.0]],
            "verified": True,
        }, indent=2, sort_keys=True) + "\n"


class TestEvaluate:
    def test_uniform_vs_greedy_row(self, capsys, worked_example_path):
        code, out, _ = _run(
            capsys,
            "evaluate",
            "--game",
            worked_example_path,
            "--defender",
            "uniform",
            "--attacker",
            "greedy",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["attacker_behavior"] == "attack(1)"
        assert payload["defender_value"] == pytest.approx(-15.544642857142858)

    def test_csv_format(self, capsys, worked_example_path):
        code, out, _ = _run(
            capsys,
            "evaluate",
            "--game",
            worked_example_path,
            "--defender",
            "none",
            "--attacker",
            "rational",
            "--format",
            "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "defender,attacker,defender_value,attacker_value"
        assert lines[1].startswith("none,rational,")


class TestExitCodes:
    def test_missing_game_file(self, capsys):
        code, out, err = _run(capsys, "solve", "--game", "/nonexistent.json")
        assert code == 1
        assert out == ""
        assert err

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = _run(capsys, "solve", "--game", str(bad))
        assert code == 1
        assert err

    def test_unknown_spec_field(self, capsys, tmp_path, worked_example_path):
        payload = json.loads(open(worked_example_path).read())
        payload["types"][0]["oops"] = 1
        bad = tmp_path / "extra.json"
        bad.write_text(json.dumps(payload))
        code, _, err = _run(capsys, "solve", "--game", str(bad))
        assert code == 1
        assert "unknown" in err

    def test_usage_error_is_config_error(self, capsys):
        code, _, err = _run(capsys, "solve")  # missing --game
        assert code == 1
        assert err

    @pytest.mark.parametrize(
        "command, edit",
        [
            ("solve", lambda g: g["types"][0].update(attacker_real_value=None)),
            ("solve", lambda g: g["types"][0].update(attacker_real_value=True)),
            ("solve", lambda g: g["types"][0].update(attacker_honey_value=float("nan"))),
            ("evaluate", lambda g: g["types"][0].update(attacker_honey_value=float("nan"))),
            ("evaluate", lambda g: g["types"][0].update(cost_per_flow=float("inf"))),
            ("simulate", lambda t: t["endpoints"][0].pop("id")),
            ("simulate", lambda t: t["links"].append(["s1"])),
            ("simulate", lambda t: t["endpoints"][2].update(attacker_value=float("nan"))),
            ("simulate", lambda t: t["endpoints"][0].update(weaknesses=[None])),
            ("simulate", lambda t: t.update(endpoints=5)),
            ("simulate", lambda t: t.update(links=7)),
            ("simulate", lambda t: t.update(switches="s1")),
            ("simulate", lambda t: t.update(compromised="s2")),
            ("simulate", lambda t: t["endpoints"][4].update(fake="no")),
            ("simulate", lambda t: t["endpoints"][0].update(id=1.5)),
            ("simulate", lambda t: t["switches"].append(None)),
            ("simulate", lambda t: t["links"].append([True, "s1"])),
            ("solve", lambda g: g["types"][0].update(honey_flow_bound=10**11)),
            ("evaluate", lambda g: g["types"][0].update(honey_flow_bound=10**6 + 1)),
            ("solve", lambda g: g["types"][0].update(real_flows=10**400)),
            ("evaluate", lambda g: g["types"][0].update(real_flows=10**400)),
        ],
        ids=[
            "null-value",
            "bool-value",
            "nan-solve",
            "nan-evaluate-uniform",
            "infinite-cost",
            "endpoint-without-id",
            "one-element-link",
            "nan-endpoint-value",
            "null-weakness",
            "endpoints-not-a-list",
            "links-not-a-list",
            "switches-a-string",
            "compromised-a-string",
            "fake-not-a-boolean",
            "float-endpoint-id",
            "null-switch-id",
            "boolean-link-node",
            "oversize-honey-bound",
            "oversize-honey-bound-evaluate",
            "real-flows-beyond-float",
            "real-flows-beyond-float-evaluate",
        ],
    )
    def test_bad_input_is_config_error(
        self, capsys, tmp_path, worked_example_path, chain_topology_path, command, edit
    ):
        source = chain_topology_path if command == "simulate" else worked_example_path
        payload = json.loads(open(source).read())
        edit(payload)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))  # NaN / Infinity as JSON literals
        argv = {
            "solve": ["solve", "--game", str(bad)],
            "evaluate": ["evaluate", "--game", str(bad), "--defender", "uniform"],
            "simulate": ["simulate", "--topology", str(bad), "--real", "5,5", "--honey", "1,1"],
        }[command]
        code, out, err = _run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        if command != "simulate":  # named as bad input, not a solver fault
            assert err.startswith("error: type 0: ")


    @pytest.mark.parametrize(
        "argv, named", list(BAD_ARGUMENTS.values()), ids=list(BAD_ARGUMENTS)
    )
    def test_bad_arguments_are_config_errors(self, capsys, argv, named):
        code, out, err = _run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert named in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--game", "{input}"],
            ["evaluate", "--game", "{input}"],
            ["simulate", "--topology", "{input}", "--real", "5,5", "--honey", "1,1"],
        ],
        ids=["solve", "evaluate", "simulate"],
    )
    def test_deeply_nested_json_is_config_error(self, capsys, tmp_path, argv):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = _run(capsys, *(a.replace("{input}", str(deep)) for a in argv))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "recursion" in err

    @pytest.mark.parametrize(
        "counts, named",
        [
            (["--real", "5,5", "--honey=-1,1"], "honey flow count for type 0"),
            (["--real=-5,5", "--honey", "1,1"], "real flow count for type 0"),
            (["--real", "5,1000001", "--honey", "1,1"], "real flow count for type 1"),
            (["--real", "5,5", "--honey", "0:1000001:1000001"], "honey flow count"),
            (["--real", "", "--honey", "0:10:5"], "--real needs at least one"),
            (["--real", ",", "--honey", "0:10:5"], "--real needs at least one"),
        ],
        ids=[
            "negative-honey",
            "negative-real",
            "oversize-real",
            "oversize-honey-sweep",
            "no-real-types",
            "comma-only-real",
        ],
    )
    def test_bad_flow_counts_are_config_errors(
        self, capsys, chain_topology_path, counts, named
    ):
        code, out, err = _run(
            capsys, "simulate", "--topology", chain_topology_path, *counts, "--episodes", "10"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert named in err

    def test_empty_real_rejected_before_the_topology_is_read(self, capsys):
        argv = ("simulate", "--topology", "missing.json", "--real", "", "--honey", "1")
        assert _run(capsys, *argv) == (
            1, "", "error: --real needs at least one real flow count\n"
        )

    @pytest.mark.parametrize(
        "honey, named",
        [
            ("1:2", "bad honey sweep '1:2': expected lo:hi:step"),
            ("1:2:x", "bad honey sweep '1:2:x': expected lo:hi:step"),
            ("0:1000001:1000001", "honey flow count for type 0"),
            ("-1:5:1", "honey flow count for type 0"),
            ("5,1000001", "honey flow count for type 1"),
            ("0:100000:1", "has 100001 points of 10 episodes, more than the cap of 1000000"),
        ],
        ids=[
            "two-part-sweep",
            "non-integer-step",
            "oversize-last-point",
            "negative-first-point",
            "oversize-fixed",
            "sweep-over-episode-cap",
        ],
    )
    def test_simulate_input_checked_before_any_run(
        self, capsys, monkeypatch, chain_topology_path, honey, named
    ):
        """Every sweep point and count is checked before the first run."""
        runs = []
        monkeypatch.setattr(simulator, "run_trials", lambda *a: runs.append(a))
        code, out, err = _run(
            capsys, "simulate", "--topology", chain_topology_path, "--real", "5,5",
            f"--honey={honey}", "--episodes", "10",
        )
        assert (code, out, runs) == (1, "", [])
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err


    @pytest.mark.parametrize("episodes", ["0", "1000001", "99999999999999999999"])
    def test_bad_episode_counts_are_config_errors(
        self, capsys, monkeypatch, chain_topology_path, episodes
    ):
        """The episode count is checked before any flow is drawn."""
        drawn = []
        monkeypatch.setattr(simulator, "generate_flows", lambda *a: drawn.append(a))
        code, out, err = _run(
            capsys, "simulate", "--topology", chain_topology_path, "--real", "5,5",
            "--honey", "1,1", "--episodes", episodes,
        )
        assert (code, out, drawn) == (1, "", [])
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"at most {simulator.MAX_EPISODES}, got {episodes}" in err

    @pytest.mark.parametrize("command", ["solve", "evaluate"])
    def test_type_count_cap(self, capsys, tmp_path, worked_example_path, command):
        payload = json.loads(open(worked_example_path).read())
        payload["types"] = [payload["types"][0]] * (MAX_TYPES + 1)
        big = tmp_path / "big.json"
        big.write_text(json.dumps(payload))
        code, out, err = _run(capsys, command, "--game", str(big))
        assert (code, out) == (1, "")
        assert err == (
            f"error: game has {MAX_TYPES + 1} types, more than the cap of {MAX_TYPES}\n"
        )

    @pytest.mark.parametrize("policy", ["x", "1.0", "", "2", "9", "-1"])
    def test_bad_policy_is_config_error(self, capsys, monkeypatch, chain_topology_path, policy):
        """--policy is checked before any flow is drawn."""
        drawn = []
        monkeypatch.setattr(simulator, "generate_flows", lambda *a: drawn.append(a))
        code, out, err = _run(
            capsys, "simulate", "--topology", chain_topology_path, "--real", "5,5",
            "--honey", "1,1", "--episodes", "10", f"--policy={policy}",
        )
        assert (code, out, drawn) == (1, "", [])
        assert err == (
            f'error: --policy takes "uniform" or a type id in [0, 2), got {policy!r}\n'
        )

    def test_non_finite_result_is_config_error(self, capsys, tmp_path, worked_example_path):
        """A value that overflows to infinity is not printed as JSON's -Infinity."""
        payload = json.loads(open(worked_example_path).read())
        for t in payload["types"]:
            t["cost_per_flow"] = 1e308  # the uniform defender's expected cost overflows
        game = tmp_path / "costly.json"
        game.write_text(json.dumps(payload))
        code, out, err = _run(capsys, "evaluate", "--game", str(game), "--defender", "uniform")
        assert (code, out) == (1, "")
        assert err.startswith("error: Out of range float values") and err.count("\n") == 1

    def test_overflowing_value_below_the_water_level_is_one_error_line(self, capsys, tmp_path):
        """A dear type sets tau* = 10 above the cheap type's u(0) = 1, so the
        cheap type is valued at its own level, where holding the dear type
        costs more than the float maximum: V is -inf, with no numpy warning."""
        dear = {"attacker_real_value": 10.0, "attacker_honey_value": -10.0,
                "real_flows": 5, "honey_flow_bound": 5, "cost_per_flow": 1e308}
        cheap = {"attacker_real_value": 1.0, "attacker_honey_value": 0.0,
                 "real_flows": 1, "honey_flow_bound": 1, "cost_per_flow": 0.1}
        game = tmp_path / "dear.json"
        game.write_text(json.dumps({"types": [dear, cheap]}))
        code, out, err = _run(capsys, "solve", "--game", str(game))
        assert (code, out) == (1, "")
        assert err == "error: Out of range float values are not JSON compliant\n"

    @pytest.mark.parametrize("command", ["sweep", "matchup"])
    def test_strategy_size_cap(self, capsys, command):
        code, out, err = _run(capsys, command, "--honey-bounds", "1000000", "1000000")
        assert (code, out) == (1, "")
        assert err == (
            "error: 5 types with honey bounds up to 1000000 can hold 5000005 strategy "
            "entries, more than the cap of 4194304\n"
        )

    MATCHUP_OVERFLOW = ("matchup", "--trials", "2", "--cost", "1e308", "--types", "2",
                        "--honey-bounds", "5", "5", "--real-flows", "5")

    def test_non_finite_csv_cell_is_config_error(self, capsys, tmp_path):
        """The uniform defender's cost overflows to -inf; no CSV line is
        printed or written."""
        code, out, err = _run(capsys, *self.MATCHUP_OVERFLOW)
        assert (code, out) == (1, "")
        assert err == "error: mean_def is -inf; CSV output takes finite values only\n"
        target = tmp_path / "grid.csv"
        code, _, _ = _run(capsys, *self.MATCHUP_OVERFLOW, "--output", str(target))
        assert code == 1
        assert not target.exists()

    def test_non_finite_evaluate_csv_is_config_error(self, capsys, tmp_path, worked_example_path):
        payload = json.loads(open(worked_example_path).read())
        for t in payload["types"]:
            t["cost_per_flow"] = 1e308
        game = tmp_path / "costly.json"
        game.write_text(json.dumps(payload))
        code, out, err = _run(
            capsys, "evaluate", "--game", str(game), "--defender", "uniform", "--format", "csv"
        )
        assert (code, out) == (1, "")
        assert err == "error: defender_value is -inf; CSV output takes finite values only\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--topology", "missing.json", "--real", "5", "--honey", "1"),
            ("sweep", "--trials", "1"),
            ("matchup", "--trials", "1"),
            ("bench", "--sizes", "1"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_seed_names_the_option(self, capsys, argv):
        code, out, err = _run(capsys, *argv, "--seed", "-1")
        assert (code, out) == (1, "")
        assert err == "error: argument --seed: must be a nonnegative integer, got -1\n"

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["sweep", "--costs", "abc"], "argument --costs: invalid float value: 'abc'"),
            (["bench", "--sizes", "1,a"], "argument --sizes: invalid int value: 'a'"),
            (
                ["simulate", "--topology", os.path.join(DATA_DIR, "chain_topology.json"),
                 "--real", "5,5", "--honey", "1,x"],
                "argument --honey: invalid int value: 'x'",
            ),
        ],
        ids=["sweep-costs", "bench-sizes", "simulate-honey"],
    )
    def test_bad_list_entry_names_the_entry_and_the_option(self, capsys, argv, err):
        assert _run(capsys, *argv) == (1, "", f"error: {err}\n")

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (["ratio", "--fake-values", "-1,-2,-3,-4"], 0, ""),
            (
                ["simulate", "--topology", os.path.join(DATA_DIR, "chain_topology.json"),
                 "--real", "5,5", "--honey", "-1,1", "--episodes", "10"],
                1,
                "error: honey flow count for type 0 must be in [0, 1000000], got -1\n",
            ),
            (
                ["simulate", "--topology", os.path.join(DATA_DIR, "chain_topology.json"),
                 "--real", "5,5", "--honey", "-1:5:1", "--episodes", "10"],
                1,
                "error: honey flow count for type 0 must be in [0, 1000000], got -1\n",
            ),
        ],
        ids=["ratio-fake-values", "simulate-honey", "simulate-honey-sweep"],
    )
    def test_a_list_may_start_with_a_minus_sign(self, capsys, argv, code, err):
        """A list or sweep word that starts with "-" is its option's value,
        spelled after a space or after "=" alike."""
        k = next(k for k, word in enumerate(argv) if word[0] == "-" and word[1].isdigit())
        joined = [*argv[: k - 1], f"{argv[k - 1]}={argv[k]}", *argv[k + 1 :]]
        spaced = _run(capsys, *argv)
        assert spaced == _run(capsys, *joined)
        assert (spaced[0], spaced[2]) == (code, err)
        assert (spaced[1] != "") == (code == 0)


    @pytest.mark.parametrize(
        "argv, err",
        [
            (
                ["matchup", "--trials", "1", "--cost", "-1e-5"],
                "cost must be nonnegative and finite, got -1e-05",
            ),
            (
                ["ratio", "--fake-values", "1", "--real-values", "-inf"],
                "type 0: attacker_real_value must be finite, got -inf",
            ),
            (
                ["ratio", "--fake-values", "1", "--real-values", "-nan"],
                "type 0: attacker_real_value must be finite, got nan",
            ),
        ],
        ids=["matchup-exponent-cost", "ratio-minus-inf", "ratio-minus-nan"],
    )
    def test_a_number_argparse_reads_as_an_option_is_a_value(self, capsys, argv, err):
        """argparse reads -1e-5, -inf and -nan as options; after a space
        they are the option's value, as after "="."""
        joined = [*argv[:-2], f"{argv[-2]}={argv[-1]}"]
        assert _run(capsys, *argv) == _run(capsys, *joined) == (1, "", f"error: {err}\n")

    @pytest.mark.parametrize(
        "argv, err",
        [
            (
                ["matchup", "--trials", "1", "--real-flows", "-5", "9"],
                "empty real flow range [-5, 9]",
            ),
            (
                ["sweep", "--trials", "1", "--honey-bounds", "-5", "9"],
                "empty honey bound range [-5, 9]",
            ),
        ],
        ids=["matchup-real-flows", "sweep-honey-bounds"],
    )
    def test_a_plain_negative_stays_one_of_several_words(self, capsys, argv, err):
        assert _run(capsys, *argv) == (1, "", f"error: {err}\n")


def _golden(name: str) -> str:
    with open(os.path.join(HELP_DIR, name + ".txt"), encoding="utf-8") as fh:
        return fh.read()


# Each help golden's name and command line: help on stdout, usage errors on stderr.
HELP_GOLDENS = [("help_top", ["--help"]), ("help_h_solve", ["-h", "solve"])] + [
    (f"help_{c}", [c, "--help"]) for c in COMMANDS
]
USAGE_ERROR_GOLDENS = [("missing_command", []), ("invalid_choice", ["bogus"])]


class TestHelpText:
    """Help and usage errors match text recorded when the parser built every
    subcommand's arguments up front (at an 80-column terminal)."""

    @pytest.mark.parametrize("name, argv", HELP_GOLDENS)
    def test_help(self, capsys, monkeypatch, name, argv):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0
        assert capsys.readouterr() == (_golden(name), "")

    @pytest.mark.parametrize("name, argv", USAGE_ERROR_GOLDENS)
    def test_usage_errors(self, capsys, monkeypatch, name, argv):
        monkeypatch.setenv("COLUMNS", "80")
        assert _run(capsys, *argv) == (1, "", _golden(name))


# One valid command line per subcommand, each setting some non-default option.
_VALID = {
    "solve": ("--game", "g.json", "--output", "o.json", "--dump-spec", "d.json"),
    "evaluate": ("--game", "g.json", "--defender", "uniform", "--format", "csv"),
    "sweep": ("--types", "3", "--costs", "0.1,0.2", "--honey-bounds", "5", "10", "--seed", "5"),
    "matchup": ("--cost", "0.5", "--trials", "2", "--real-flows", "5", "9"),
    "ratio": ("--ratios", "0.5,1", "--real-flows", "10"),
    "bench": ("--dimension", "honey_bounds", "--sizes", "1,2"),
    "simulate": ("--topology", "t.json", "--real", "5,5", "--honey", "0:10:5", "--policy", "1"),
    "heuristic": _HEURISTIC + ("--format", "csv"),
}


def _full_tree(argv):
    return cli.build_parser().parse_args(argv)


class TestOneParser:
    """A command line that names a subcommand is parsed by that subcommand's
    parser alone, with the same result, output and exit code as the full
    parser tree."""

    def test_valid_commands_cover_every_subcommand(self):
        assert set(_VALID) == set(COMMANDS) == set(cli._SUBCOMMANDS)

    @pytest.mark.parametrize("verbose", [0, 1, 2])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_namespace_matches_the_full_tree(self, command, verbose):
        argv = ["--verbose"] * verbose + [command, *_VALID[command]]
        args = vars(cli._parse_args(argv))
        assert args == vars(_full_tree(argv))
        assert (args["command"], args["verbose"]) == (command, verbose > 0)

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "--game", "x", "--bogus"),
            ("solve",),
            ("sweep", "--cost", "0.5"),
            ("solve", "--verbose"),
            ("sweep", "--seed", "-1"),
            ("--bogus", "solve", "--game", "x"),
            ("--verbose=1", "solve"),
            ("--", "solve"),
            ("--verbose", "simulate", "--topology", "t.json", "--real", "5"),
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_errors_match_the_full_tree(self, capsys, monkeypatch, argv):
        got = _run(capsys, *argv)
        monkeypatch.setattr(cli, "_parse_args", _full_tree)
        assert got == _run(capsys, *argv)
        assert got[:2] == (1, "")

    def test_help_after_verbose_matches_the_golden(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            run(["--verbose", "solve", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr() == (_golden("help_solve"), "")

    def test_a_solve_builds_one_parser(self, capsys, monkeypatch, worked_example_path):
        built = []
        init = cli._CliParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._CliParser, "__init__", counted)
        code, out, _ = _run(capsys, "--verbose", "solve", "--game", worked_example_path)
        assert code == 0 and json.loads(out)["verified"] is True
        assert built == ["honeyflow solve"]


class TestHeuristicCommand:
    def test_branch_values(self, capsys):
        code, out, _ = _run(
            capsys,
            "heuristic",
            "--real-values",
            "10,10",
            "--fake-values",
            "9,3",
            "--real-flows",
            "10,10",
        )
        assert code == 0
        assert json.loads(out)["honey_flows"] == [13, 20]

    def test_csv_format(self, capsys):
        code, out, _ = _run(
            capsys,
            "heuristic",
            "--real-values",
            "10",
            "--fake-values",
            "9",
            "--real-flows",
            "10",
            "--format",
            "csv",
        )
        assert code == 0
        assert out.splitlines() == ["type,honey_flows", "0,13"]

    def test_invalid_input_exit_code(self, capsys):
        code, _, err = _run(
            capsys,
            "heuristic",
            "--real-values",
            "0",
            "--fake-values",
            "1",
            "--real-flows",
            "1",
        )
        assert code == 1
        assert err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_empty_type_list_is_one_error_line(self, capsys, fmt):
        """No type is no game: like ratio, simulate, bench and sweep,
        heuristic rejects an empty list rather than print an empty answer."""
        empty = ("--real-values", "", "--fake-values", "", "--real-flows", "")
        code, out, err = _run(capsys, "heuristic", *empty, "--format", fmt)
        assert (code, out) == (1, "")
        assert err == "error: the rule needs at least one vulnerability type\n"


class TestSimulate:
    def test_fixed_honey_counts(self, capsys, chain_topology_path):
        code, out, _ = _run(
            capsys,
            "simulate",
            "--topology",
            chain_topology_path,
            "--real",
            "30,30",
            "--honey",
            "10,10",
            "--episodes",
            "200",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "honey_count,type,mean_def,mean_att,stderr_def,stderr_att,detect_rate"
        assert len(lines) >= 2

    def test_payoffs_near_the_float_maximum_have_a_finite_mean(self, capsys, tmp_path):
        """Every payoff is -1e308, so their sum overflows but their mean does
        not: the mean is -1e308 and the standard error 0, with no numpy
        overflow warning."""
        endpoints = [
            {"id": "c1", "defender_value": 1e308, "attacker_value": 1.0, "weaknesses": [0],
             "fake": False},
            {"id": "c2", "defender_value": 2.0, "attacker_value": 2.0, "weaknesses": [1],
             "fake": False},
            {"id": "f1", "defender_value": 0.0, "attacker_value": -1.0, "weaknesses": [0, 1],
             "fake": True},
        ]
        topology = tmp_path / "topology.json"
        topology.write_text(json.dumps({
            "endpoints": endpoints,
            "switches": ["s1", "s2"],
            "links": [["c1", "s1"], ["f1", "s1"], ["s1", "s2"], ["c2", "s2"]],
            "compromised": ["s1"],
        }))
        code, out, err = _run(
            capsys, "simulate", "--topology", str(topology), "--real", "1,0",
            "--honey", "0,0", "--episodes", "20",
        )
        assert (code, err) == (0, "")
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 1
        assert (rows[0]["mean_def"], rows[0]["stderr_def"]) == ("-1e+308", "0.0")
        assert (rows[0]["mean_att"], rows[0]["stderr_att"]) == ("1.0", "0.0")

    def test_sweep_and_byte_identity(self, capsys, chain_topology_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = _run(
                capsys,
                "simulate",
                "--topology",
                chain_topology_path,
                "--real",
                "20,20",
                "--honey",
                "0:20:10",
                "--episodes",
                "100",
                "--policy",
                "0",
                "--output",
                str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_topology(self, capsys):
        code, _, err = _run(
            capsys, "simulate", "--topology", "/none.json", "--real", "5", "--honey", "5"
        )
        assert code == 1

    @pytest.mark.parametrize(
        "endpoints, switches, message",
        [
            (simulator.MAX_ENDPOINTS + 1, 1,
             f"at most {simulator.MAX_ENDPOINTS} endpoints, got {simulator.MAX_ENDPOINTS + 1}"),
            (2, simulator.MAX_NODES - 1,
             f"at most {simulator.MAX_NODES} nodes (endpoints and switches), "
             f"got {simulator.MAX_NODES + 1}"),
        ],
        ids=["endpoints", "nodes"],
    )
    def test_topology_over_the_cap_exits_1_before_routing(
        self, capsys, monkeypatch, tmp_path, endpoints, switches, message
    ):
        ids = [f"e{k}" for k in range(endpoints)]
        switch_ids = [f"s{k}" for k in range(switches)]
        topology = {
            "endpoints": [{"id": e, "weaknesses": [0]} for e in ids],
            "switches": switch_ids,
            "links": [[e, "s0"] for e in ids] + [["s0", s] for s in switch_ids[1:]],
            "compromised": ["s0"],
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(topology))
        routed = []
        monkeypatch.setattr(simulator, "_route", lambda *a: routed.append(a))
        code, out, err = _run(
            capsys, "simulate", "--topology", str(path), "--real", "5", "--honey", "0"
        )
        assert (code, out, routed) == (1, "", [])
        assert err == f"error: a network may have {message}\n"

    @pytest.mark.parametrize(
        "golden, argv",
        [
            (
                "simulate_chain_sweep.csv",
                ["--real", "30,30", "--honey", "0:20:10", "--episodes", "200", "--seed", "7"],
            ),
            (
                "simulate_chain_fixed.csv",
                ["--real", "40,25", "--honey", "5,15", "--episodes", "300", "--policy", "1"],
            ),
        ],
    )
    def test_csv_bytes_match_the_recorded_streams(
        self, capsys, chain_topology_path, golden, argv
    ):
        """The golden files were written by the record-per-flow simulator;
        the columnar one must reproduce its flows and episodes exactly."""
        code, out, _ = _run(capsys, "simulate", "--topology", chain_topology_path, *argv)
        assert code == 0
        path = os.path.join(os.path.dirname(chain_topology_path), golden)
        with open(path, "rb") as fh:
            assert out.encode("utf-8") == fh.read()

    def test_switch_rates_file(self, capsys, chain_topology_path, tmp_path):
        argv = ["simulate", "--topology", chain_topology_path, "--real", "30,20",
                "--honey", "0:20:10", "--episodes", "50", "--seed", "11"]
        rates = tmp_path / "rates.csv"
        code, plain, _ = _run(capsys, *argv)
        assert code == 0
        code, out, _ = _run(capsys, *argv, "--switch-rates", str(rates))
        assert code == 0
        assert out == plain  # the flag only adds the file
        with open(rates, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["honey_count", "switch", "honey_rate"]

        with open(chain_topology_path, encoding="utf-8") as fh:
            net = simulator.network_from_dict(json.load(fh))
        expected = [rows[0]]
        for k, point in enumerate((0, 10, 20)):
            # run_trials seeds the flows with the first child of seed + k
            child = np.random.SeedSequence(11 + k).spawn(1)[0]
            flows = simulator.generate_flows(net, {0: 30, 1: 20}, {0: point, 1: point}, child)
            for switch, rate in simulator.honey_traffic_rate(flows).items():
                expected.append([str(2 * point), switch, repr(rate)])
        assert rows == expected
        assert any(float(r[2]) > 0 for r in rows[1:])

    @pytest.mark.parametrize(
        "honey, points", [("5,15", 1), ("0:20:10", 3)], ids=["fixed", "sweep"]
    )
    def test_rates_are_computed_only_under_the_option(
        self, capsys, monkeypatch, chain_topology_path, tmp_path, honey, points
    ):
        """Each population is rated once with --switch-rates and never
        without it, and the option leaves stdout as it is."""
        calls = []
        rate = simulator.honey_traffic_rate

        def counted(flows):
            calls.append(len(flows))
            return rate(flows)

        monkeypatch.setattr(simulator, "honey_traffic_rate", counted)
        argv = ["simulate", "--topology", chain_topology_path, "--real", "30,20",
                "--honey", honey, "--episodes", "50"]
        plain = _run(capsys, *argv)
        assert (plain[0], calls) == (0, [])
        assert _run(capsys, *argv, "--switch-rates", str(tmp_path / "rates.csv")) == plain
        assert len(calls) == points

    def test_a_sweep_holds_one_population_at_a_time(self, chain_topology_path, tmp_path):
        """A sweep of 6 points at 20,000 real flows per type peaks within
        10 % of one point: each point's flows are freed before the next
        point draws its own."""
        out = str(tmp_path / "out.csv")

        def peak(honey):
            argv = ["simulate", "--topology", chain_topology_path, "--real", "20000,20000",
                    "--honey", honey, "--episodes", "10", "--output", out]
            tracemalloc.start()
            try:
                assert run(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak("0:0:1")  # first-call allocations are not the sweep's
        one, six = peak("0:0:1"), peak("0:50:10")
        assert six <= 1.1 * one, (one, six)


class TestReportCommands:
    def test_ratio_quick(self, capsys):
        code, out, _ = _run(
            capsys,
            "ratio",
            "--real-values",
            "10,20",
            "--fake-values",
            "9,18",
            "--ratios",
            "0,0.5,1",
            "--real-flows",
            "5",
            "--cost",
            "0.1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "real_flows,ratio,defender_value,attacker_value"
        assert len(lines) == 4

    def test_ratio_repeated_real_flow_count_is_one_error_line(self, capsys, tmp_path):
        """A repeated count would write its CSV block twice for one
        ``optimal_ratios`` entry; it exits 1 and writes nothing."""
        path = tmp_path / "ratio.csv"
        code, out, err = _run(capsys, "ratio", "--real-flows", "10,10", "--output", str(path))
        assert (code, out) == (1, "")
        assert err == "error: real-flow count 10 is given more than once\n"
        assert list(tmp_path.iterdir()) == []

    def test_sweep_csv_output(self, capsys, tmp_path):
        argv = [
            "sweep",
            "--types",
            "2",
            "--real-flows",
            "5",
            "--honey-bounds",
            "2",
            "4",
            "--costs",
            "0.01,0.1",
            "--trials",
            "2",
        ]
        first = tmp_path / "sweep.csv"
        second = tmp_path / "again.csv"
        for out_path in (first, second):
            code, _, _ = _run(capsys, *argv, "--output", str(out_path))
            assert code == 0
        lines = first.read_text().strip().splitlines()
        assert lines[0].startswith("cost,")
        assert "solve_time" not in lines[0]
        assert len(lines) == 3
        assert (tmp_path / "sweep.csv.meta.json").exists()
        # default outputs carry no wall-clock columns, so reruns match
        assert first.read_bytes() == second.read_bytes()
        assert (tmp_path / "sweep.csv.meta.json").read_bytes() == (
            tmp_path / "again.csv.meta.json"
        ).read_bytes()

    @pytest.mark.parametrize(
        "counts, drawn, recorded", [(["500"], 500, 500), (["5", "9"], (5, 9), [5, 9])]
    )
    def test_real_flows_takes_one_count_or_a_range(
        self, capsys, tmp_path, counts, drawn, recorded
    ):
        """One count stays the int N, so no type's count is drawn; two are
        the range from which each type's count is drawn."""
        out = tmp_path / "m.csv"
        argv = ["matchup", "--trials", "1", "--real-flows", *counts, "--output", str(out)]
        assert cli._params_from_args(cli._parse_args(argv)).real_flows == drawn
        assert _run(capsys, *argv) == (0, "", "")
        meta = json.loads((tmp_path / "m.csv.meta.json").read_text())
        assert meta["params"]["real_flows"] == recorded

    @pytest.mark.parametrize(
        "option, err",
        [
            (["--real-flows", "1", "2", "3"], "--real-flows takes N or LO HI, got 3 counts"),
            (["--real-flow-range", "5", "9"], "unrecognized arguments: --real-flow-range 5 9"),
        ],
        ids=["three-counts", "range-option"],
    )
    @pytest.mark.parametrize("command", ["sweep", "matchup"])
    def test_real_flows_spelled_otherwise_is_one_error_line(self, capsys, command, option, err):
        assert _run(capsys, command, "--trials", "1", *option) == (1, "", f"error: {err}\n")

    def test_matchup_stdout(self, capsys):
        code, out, _ = _run(
            capsys,
            "matchup",
            "--types",
            "2",
            "--real-flows",
            "5",
            "--honey-bounds",
            "2",
            "4",
            "--trials",
            "1",
        )
        assert code == 0
        assert out.splitlines()[0] == "defender,attacker,mean_def,mean_att"
        assert len(out.strip().splitlines()) == 10

    @pytest.mark.parametrize(
        "golden, argv",
        [
            ("matchup_trials3_seed1.csv", ["matchup", "--trials", "3", "--seed", "1"]),
            (
                "evaluate_uniform_uniform.json",
                ["evaluate", "--game", os.path.join(DATA_DIR, "worked_example.json"),
                 "--defender", "uniform", "--attacker", "uniform"],
            ),
        ],
    )
    def test_stdout_bytes_match_the_recorded_output(self, capsys, golden, argv):
        """The golden files were written when the uniform attacker was scored
        through a validated attacker distribution; the share-weighted sum over
        one summary must keep every bit of its mean values."""
        code, out, _ = _run(capsys, *argv)
        assert code == 0
        with open(os.path.join(DATA_DIR, golden), "rb") as fh:
            assert out.encode("utf-8") == fh.read()


class TestCsvDialect:
    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--types", "2", "--real-flows", "5", "--honey-bounds", "2", "4",
             "--costs", "0.01,0.1", "--trials", "1"),
            ("matchup", "--types", "2", "--real-flows", "5", "--honey-bounds", "2", "4",
             "--trials", "1"),
            ("ratio", "--real-values", "10", "--fake-values", "9", "--ratios", "0,1",
             "--real-flows", "5"),
            ("bench", "--sizes", "1,2", "--trials", "1"),
            ("simulate", "--topology", os.path.join(DATA_DIR, "chain_topology.json"),
             "--real", "20,20", "--honey", "0:10:10", "--episodes", "20"),
            ("evaluate", "--game", os.path.join(DATA_DIR, "worked_example.json"),
             "--format", "csv"),
            ("heuristic", *_HEURISTIC, "--format", "csv"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_every_csv_line_ends_in_crlf(self, capsys, tmp_path, argv):
        """On stdout, in the --output file and in simulate's --switch-rates file."""
        code, out, _ = _run(capsys, *argv)
        assert code == 0
        files = [tmp_path / "result.csv"]
        options = ["--output", str(files[0])]
        if argv[0] == "simulate":
            files.append(tmp_path / "rates.csv")
            options += ["--switch-rates", str(files[1])]
        code, _, _ = _run(capsys, *argv, *options)
        assert code == 0
        for text in [out] + [f.read_bytes().decode("utf-8") for f in files]:
            assert text.endswith("\r\n")
            assert text.count("\n") == text.count("\r\n") >= 2


if __name__ == "__main__":
    # Rewrite the named help goldens, or all of them, from this build's output.
    if sys.argv[1:2] != ["--write"]:
        sys.exit("usage: python tests/test_cli.py --write [NAME ...]")
    goldens = dict(HELP_GOLDENS + USAGE_ERROR_GOLDENS)
    names = sys.argv[2:] or list(goldens)
    unknown = sorted(set(names) - goldens.keys())
    if unknown:
        sys.exit(f"unknown goldens: {unknown}")
    os.environ["COLUMNS"] = "80"
    for name in names:
        # each golden is one stream; the tests check that the other is empty
        text = io.StringIO()
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
            with contextlib.suppress(SystemExit):
                run(goldens[name])
        with open(os.path.join(HELP_DIR, name + ".txt"), "w", encoding="utf-8") as fh:
            fh.write(text.getvalue())
