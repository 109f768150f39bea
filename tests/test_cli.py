import json

import pytest

from honeyflow.cli import run
from honeyflow.game import load_spec


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
        out_path = tmp_path / "eq.json"
        code, out, _ = _run(
            capsys,
            "solve",
            "--game",
            worked_example_path,
            "--output",
            str(out_path),
            "--with-timing",
        )
        assert code == 0
        assert out == ""
        payload = json.loads(out_path.read_text())
        assert payload["solve_time"] > 0

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
            ("solve", lambda g: g["types"][0].update(honey_flow_bound=10**11)),
            ("evaluate", lambda g: g["types"][0].update(honey_flow_bound=10**6 + 1)),
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
            "oversize-honey-bound",
            "oversize-honey-bound-evaluate",
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
        "argv, named",
        [
            (["sweep", "--trials", "0"], "trials"),
            (["sweep", "--trials", "-1"], "trials"),
            (["matchup", "--trials", "0"], "trials"),
            (["bench", "--trials", "0"], "trials"),
            (["bench", "--sizes", "1", "--trials", "1", "--with-timing"], "--with-timing"),
            (["ratio", "--real-values", "1,2,3", "--fake-values", "0.5"], "fake values"),
            (["ratio", "--ratios", "1e10", "--real-flows", "10"], "honey_flow_bound"),
            (["ratio", "--real-flows", ","], "real-flow counts"),
            (["ratio", "--real-flows", "0"], "real-flow counts"),
        ],
        ids=[
            "sweep-zero-trials",
            "sweep-negative-trials",
            "matchup-zero-trials",
            "bench-zero-trials",
            "bench-with-timing",
            "ratio-vector-lengths",
            "ratio-oversize-bound",
            "ratio-no-real-flows",
            "ratio-zero-real-flows",
        ],
    )
    def test_bad_arguments_are_config_errors(self, capsys, argv, named):
        code, out, err = _run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert named in err

    @pytest.mark.parametrize(
        "counts, named",
        [
            (["--real", "5,5", "--honey=-1,1"], "honey flow count for type 0"),
            (["--real=-5,5", "--honey", "1,1"], "real flow count for type 0"),
            (["--real", "5,1000001", "--honey", "1,1"], "real flow count for type 1"),
            (["--real", "5,5", "--honey", "0:1000001:1000001"], "honey flow count"),
        ],
        ids=["negative-honey", "negative-real", "oversize-real", "oversize-honey-sweep"],
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
