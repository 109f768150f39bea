import csv
import dataclasses
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from honeyflow import cli, experiments
from honeyflow.equilibrium import solve_stackelberg
from honeyflow.errors import ConfigError
from honeyflow.experiments import (
    DEFAULT_COST_SWEEP,
    MAX_TRIALS,
    MODE_FAKE_EQUALS_REAL,
    MODE_FAKE_ZERO,
    GeneratorParams,
    _game_seeds,
    cost_sweep,
    matchup_grid,
    random_game,
    ratio_analysis,
    scalability_bench,
)
from honeyflow.game import (
    MAX_HONEY_FLOW_BOUND,
    MAX_STRATEGY_SIZE,
    MAX_TYPES,
    DefenderStrategy,
    GameSpec,
    VulnerabilityType,
    summarize,
    to_json,
)
from honeyflow.strategies import (
    AttackerModel,
    evaluate_matchup,
    no_deception_strategy,
    uniform_random_strategy,
)
from test_byte_identity import SWEEP_COSTS

SMALL = GeneratorParams(
    type_count=3, real_flows=5, honey_bound_range=(3, 6), cost=0.01
)


class TestRandomGame:
    def test_mode_a_values(self):
        params = GeneratorParams(type_count=5, real_flows=500, honey_bound_range=(500, 1000))
        spec = random_game(params, seed=1)
        assert len(spec.types) == 5
        for t in spec.types:
            assert t.attacker_real_value == 1.0
            assert t.attacker_honey_value == 0.0
            assert t.real_flow_count == 500
            assert 500 <= t.honey_flow_bound <= 1000

    def test_mode_b_values(self):
        params = GeneratorParams(
            type_count=4,
            real_flows=10,
            honey_bound_range=(5, 9),
            value_mode=MODE_FAKE_EQUALS_REAL,
        )
        spec = random_game(params, seed=2)
        for t in spec.types:
            assert 0.5 <= t.attacker_real_value <= 1.0
            assert t.attacker_honey_value == t.attacker_real_value

    def test_same_seed_identical(self):
        params = GeneratorParams(
            type_count=3,
            real_flows=(5, 20),
            honey_bound_range=(2, 9),
            value_mode=MODE_FAKE_EQUALS_REAL,
        )
        assert random_game(params, seed=9) == random_game(params, seed=9)

    def test_bad_params_rejected(self):
        with pytest.raises(ConfigError):
            GeneratorParams(type_count=0, real_flows=5, honey_bound_range=(1, 2))
        with pytest.raises(ConfigError):
            GeneratorParams(type_count=1, real_flows=5, honey_bound_range=(3, 2))
        with pytest.raises(ConfigError):
            GeneratorParams(type_count=1, real_flows=5, honey_bound_range=(1, 2), value_mode="?")
        with pytest.raises(ConfigError, match=f"at most {MAX_TYPES}, got {MAX_TYPES + 1}"):
            GeneratorParams(type_count=MAX_TYPES + 1, real_flows=5, honey_bound_range=(1, 2))
        with pytest.raises(ConfigError, match="unknown value mode 'explicit'"):
            GeneratorParams(
                type_count=2, real_flows=5, honey_bound_range=(1, 2), value_mode="explicit"
            )
        with pytest.raises(ConfigError, match="real flows must be nonnegative, got -5"):
            GeneratorParams(type_count=1, real_flows=-5, honey_bound_range=(1, 2))

    def test_strategy_size_capped(self):
        """The largest game the params can draw is checked against the caps
        before any game is drawn."""
        GeneratorParams(type_count=1, honey_bound_range=(MAX_HONEY_FLOW_BOUND,) * 2)
        top = MAX_HONEY_FLOW_BOUND + 1
        with pytest.raises(ConfigError, match=f"at most {MAX_HONEY_FLOW_BOUND}, got {top}"):
            GeneratorParams(type_count=1, honey_bound_range=(0, top))
        hi = MAX_STRATEGY_SIZE // MAX_TYPES - 1
        GeneratorParams(type_count=MAX_TYPES, honey_bound_range=(0, hi))
        with pytest.raises(ConfigError, match=f"more than the cap of {MAX_STRATEGY_SIZE}"):
            GeneratorParams(type_count=MAX_TYPES, honey_bound_range=(0, hi + 1))


class TestCostSweep:
    def test_high_cost_collapses_to_no_deception(self):
        report = cost_sweep(SMALL, costs=[10.0], trials=4, seed=5)
        row = dict(zip(report.columns, report.rows[0]))
        assert abs(row["stackelberg_def"] - row["no_deception_def"]) <= 1e-6

    def test_free_flows_order_the_strategies(self):
        report = cost_sweep(SMALL, costs=[0.0], trials=6, seed=5)
        row = dict(zip(report.columns, report.rows[0]))
        assert row["stackelberg_def"] >= row["uniform_def"] - 1e-9
        assert row["uniform_def"] >= row["no_deception_def"] - 1e-9

    def test_stackelberg_dominates_at_every_cost(self):
        report = cost_sweep(SMALL, costs=list(DEFAULT_COST_SWEEP), trials=3, seed=8)
        for raw in report.rows:
            row = dict(zip(report.columns, raw))
            assert row["stackelberg_def"] >= row["uniform_def"] - 1e-6
            assert row["stackelberg_def"] >= row["no_deception_def"] - 1e-6

    def test_rows_reproducible(self):
        a = cost_sweep(SMALL, costs=[0.01], trials=3, seed=4)
        b = cost_sweep(SMALL, costs=[0.01], trials=3, seed=4)
        assert a.rows == b.rows

    def test_empty_cost_list_rejected(self):
        with pytest.raises(ConfigError):
            cost_sweep(SMALL, costs=[], trials=1, seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_bad_cost_rejected_before_any_game_is_drawn(self, monkeypatch, bad):
        drawn = []
        monkeypatch.setattr(experiments, "random_game", lambda *a: drawn.append(a))
        with pytest.raises(ConfigError, match=f"nonnegative and finite, got {bad}"):
            cost_sweep(SMALL, costs=[1e-3, bad], trials=2, seed=0)
        assert drawn == []

    def test_each_game_is_drawn_once(self, monkeypatch):
        """Five costs over three games draw three games, not fifteen."""
        drawn = []

        def counted(*args):
            drawn.append(args)
            return random_game(*args)

        monkeypatch.setattr(experiments, "random_game", counted)
        cost_sweep(SMALL, costs=DEFAULT_COST_SWEEP, trials=3)
        assert len(drawn) == 3

    @pytest.mark.parametrize("value_mode", [MODE_FAKE_ZERO, MODE_FAKE_EQUALS_REAL])
    def test_a_curve_shared_across_costs_matches_one_cost_sweeps(self, value_mode):
        """Each row of a many-cost sweep, whose solves share each game's
        cost curve and its width memo, is the row of a one-cost sweep, whose
        curves serve one cost each, float for float."""
        params = dataclasses.replace(SMALL, value_mode=value_mode)
        costs = [0.0, *DEFAULT_COST_SWEEP, 0.5]
        sweep = cost_sweep(params, costs=costs, trials=3, seed=11)
        for cost, row in zip(costs, sweep.rows):
            alone = cost_sweep(params, costs=[cost], trials=3, seed=11)
            assert repr(row[:7]) == repr(alone.rows[0][:7])

    @pytest.mark.parametrize(
        "cost, trials, seed", [(0.01, 3, 4), (1e-5, 2, 9), (0.5, 4, 20200207)]
    )
    def test_row_is_the_rational_column_of_the_matchup_grid(self, cost, trials, seed):
        """At one cost the sweep scores the grid's games against its rational
        attacker, so each mean is the same float."""
        sweep = cost_sweep(SMALL, costs=[cost], trials=trials, seed=seed)
        grid = matchup_grid(dataclasses.replace(SMALL, cost=cost), trials, seed)
        rational = [r[2:] for r in grid.rows if r[1] == AttackerModel.RATIONAL.value]
        assert list(sweep.rows[0][1:7]) == [v for means in rational for v in means]


class TestMatchupGrid:
    def test_stackelberg_rational_cell_matches_solver(self):
        report = matchup_grid(SMALL, trials=1, seed=12)
        spec = random_game(SMALL, np.random.SeedSequence(12).spawn(1)[0])
        eq = solve_stackelberg(spec)
        cell = next(
            dict(zip(report.columns, r))
            for r in report.rows
            if r[0] == "stackelberg" and r[1] == "rational"
        )
        assert cell["mean_def"] == pytest.approx(eq.defender_value, abs=1e-9)
        assert cell["mean_att"] == pytest.approx(eq.attacker_value, abs=1e-9)

    def test_grid_covers_all_nine_cells(self):
        report = matchup_grid(SMALL, trials=1, seed=1)
        assert len(report.rows) == 9

    def test_symmetric_spec_symmetric_uniform_attacker(self):
        """On a symmetric game the uniform attacker cannot distinguish the
        types, so swapping the defender's per-type marginals changes
        nothing."""
        t0 = VulnerabilityType(0, 1.0, -1.0, 5, 3, 0.01)
        t1 = VulnerabilityType(1, 1.0, -1.0, 5, 3, 0.01)
        spec = GameSpec((t0, t1))
        m_a = np.array([0.2, 0.3, 0.5, 0.0])
        m_b = np.array([1.0, 0.0, 0.0, 0.0])
        uniform = AttackerModel.UNIFORM_RANDOM
        forward = evaluate_matchup(spec, summarize(spec, DefenderStrategy((m_a, m_b))), uniform)
        swapped = evaluate_matchup(spec, summarize(spec, DefenderStrategy((m_b, m_a))), uniform)
        assert (forward.defender_value, forward.attacker_value) == pytest.approx(
            (swapped.defender_value, swapped.attacker_value), abs=1e-12
        )

    def test_each_defender_is_summarized_once(self, monkeypatch):
        """Every attacker model scores a defender from one summary per game
        and cost. The solve summarizes the Stackelberg strategy and the
        no-deception baseline is a point mass, so only the uniform baseline
        goes through ``summarize``, once per game whatever the number of
        costs: 2 summaries for 2 games, for 18 matchups in the grid and
        30 in a 5-cost sweep."""
        def counted(log, fn):
            def wrapper(*args):
                log.append(1)
                return fn(*args)
            return wrapper

        for study, counts in (
            (lambda: matchup_grid(SMALL, trials=2), (2, 18)),
            (lambda: cost_sweep(SMALL, costs=DEFAULT_COST_SWEEP, trials=2), (2, 30)),
        ):
            summaries, matchups = [], []
            monkeypatch.setattr(experiments, "summarize", counted(summaries, summarize))
            monkeypatch.setattr(
                experiments, "evaluate_matchup", counted(matchups, evaluate_matchup)
            )
            study()
            assert (len(summaries), len(matchups)) == counts

    @pytest.mark.parametrize("mode", [MODE_FAKE_ZERO, MODE_FAKE_EQUALS_REAL])
    def test_uniform_baseline_is_priced_bit_for_bit_at_every_cost(self, mode):
        """The uniform baseline, summarized once and priced per cost, is
        ``summarize`` of the game at that cost, to the bit, at every cost
        of the byte-identity sweep and at the smallest and a huge cost."""
        costs = (*SWEEP_COSTS, 5e-324, 1e300)
        for seed in range(8):
            spec = random_game(GeneratorParams(type_count=5, value_mode=mode), seed)
            priced = experiments._uniform_summaries(spec, costs)
            for cost, (hit, total) in zip(costs, priced):
                want_hit, want_total = summarize(
                    spec.with_cost(cost), uniform_random_strategy(spec)
                )
                assert [h.hex() for h in hit] == [h.hex() for h in want_hit]
                assert total.hex() == want_total.hex(), (seed, cost)


class TestRatioAnalysis:
    def test_zero_ratio_equals_no_deception(self):
        report = ratio_analysis(
            real_values=[10.0, 20.0],
            fake_values=[9.0, 18.0],
            ratios=[0.0, 0.5, 1.0],
            real_flow_counts=[5],
            cost=0.1,
        )
        first = dict(zip(report.columns, report.rows[0]))
        assert first["ratio"] == 0.0
        types = tuple(
            VulnerabilityType(i, rv, -fv, 5, 5, 0.1)
            for i, (rv, fv) in enumerate([(10.0, 9.0), (20.0, 18.0)])
        )
        spec = GameSpec(types)
        base = evaluate_matchup(
            spec, summarize(spec, no_deception_strategy(spec)), AttackerModel.RATIONAL
        )
        assert first["defender_value"] == pytest.approx(base.defender_value, abs=1e-9)

    def test_optimal_ratios_recorded(self):
        report = ratio_analysis(
            real_values=[10.0, 20.0, 30.0, 40.0],
            fake_values=[9.0, 18.0, 27.0, 32.0],
            ratios=[round(0.2 * k, 2) for k in range(11)],
            real_flow_counts=[10, 15],
            cost=0.1,
        )
        assert set(report.metadata["optimal_ratios"]) == {"10", "15"}
        assert len(report.rows) == 22

    def test_value_rises_to_a_knee_then_falls(self):
        report = ratio_analysis(
            real_values=[10.0, 20.0, 30.0, 40.0],
            fake_values=[9.0, 18.0, 27.0, 32.0],
            ratios=[round(0.1 * k, 2) for k in range(31)],
            real_flow_counts=[10],
            cost=0.1,
        )
        values = [r[2] for r in report.rows]
        knee = values.index(max(values))
        assert 0 < knee < len(values) - 1  # interior optimum
        assert max(values) > values[0]  # honey flows helped
        assert values[-1] < max(values)  # then pure cost drags it back down

    def test_negative_ratio_rejected(self):
        with pytest.raises(ConfigError):
            ratio_analysis([1.0], [0.5], [-0.1, 0.5], [5], 0.1)

    def test_repeated_real_flow_count_rejected_before_any_game(self, monkeypatch):
        """Each real-flow count has one ``optimal_ratios`` entry, so a count
        given twice would write two identical blocks for one entry."""
        built = []
        monkeypatch.setattr(experiments, "ratio_game", lambda *a: built.append(a))
        with pytest.raises(ConfigError, match="real-flow count 10 is given more than once"):
            ratio_analysis([1.0], [0.5], [0.5, 1.0], [15, 10, 20, 10], 0.1)
        assert built == []


class TestScalabilityBench:
    def test_small_bench_runs_and_orders(self):
        report = scalability_bench("types", sizes=[1, 2], trials=2, seed=3)
        assert len(report.rows) == 2
        assert report.rows[0][1] == 1
        assert report.metadata["machine"]["python"]
        assert all(r[2] > 0 for r in report.rows)

    def test_smallest_game_is_near_instant(self):
        import time

        spec = GameSpec((VulnerabilityType(0, 1.0, 0.0, 1, 1, 0.01),))
        solve_stackelberg(spec)  # warm-up: first-call overheads
        start = time.perf_counter()
        solve_stackelberg(spec)
        assert time.perf_counter() - start < 0.01

    def test_descending_sizes_rejected(self):
        with pytest.raises(ConfigError):
            scalability_bench("types", sizes=[4, 2], trials=1, seed=0)

    def test_unknown_dimension_rejected(self):
        with pytest.raises(ConfigError):
            scalability_bench("widths", sizes=[1], trials=1, seed=0)

    def test_empty_sizes_rejected(self):
        with pytest.raises(ConfigError, match="at least one size"):
            scalability_bench("types", sizes=[], trials=1, seed=0)

    def test_memory_does_not_grow_with_trials(self):
        """Each game is drawn just before its solve, so a run holds no more
        games at 8 trials than at 2. One game here (5 types, honey bound
        200,000) holds 16 MB of tables."""

        def peak(trials: int) -> int:
            tracemalloc.start()
            try:
                scalability_bench("honey_bounds", [200_000], trials=trials)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8) - peak(2) < 16 * 10**6


class TestGameSeeds:
    @pytest.mark.parametrize("trials", [0, MAX_TRIALS + 1])
    def test_trials_outside_the_range_rejected(self, trials):
        with pytest.raises(ConfigError, match=f"at most {MAX_TRIALS}, got {trials}"):
            _game_seeds(0, trials)


class TestReportFiles:
    def test_csv_writes_every_column(self):
        report = cost_sweep(SMALL, costs=[0.01], trials=2, seed=4)
        header = next(csv.reader(io.StringIO(report.csv(), newline="")))
        assert tuple(header) == report.columns
        assert "solve_time" not in header

    def test_metadata_sidecar(self):
        report = cost_sweep(SMALL, costs=[0.01], trials=2, seed=4)
        meta = json.loads(to_json(report.metadata))
        assert meta["seed"] == 4
        assert meta["params"]["type_count"] == 3
        assert "build" in meta

    def test_sweep_sidecar_records_no_cost(self, tmp_path):
        """A sweep's rows each have their own cost, listed under "costs";
        matchup's one --cost stays in its parameters."""
        sweep, matchup = tmp_path / "sweep.csv", tmp_path / "matchup.csv"
        args = ("--trials", "1", "--types", "2", "--real-flows", "5", "--honey-bounds", "3", "6")
        assert cli.run(["sweep", *args, "--output", str(sweep)]) == 0
        assert cli.run(["matchup", *args, "--cost", "0.25", "--output", str(matchup)]) == 0
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        assert "cost" not in meta["params"]
        assert meta["costs"] == list(DEFAULT_COST_SWEEP)
        meta = json.loads((tmp_path / "matchup.csv.meta.json").read_text())
        assert meta["params"]["cost"] == 0.25

    def test_ratio_sidecar_records_no_seed(self, tmp_path):
        """ratio draws nothing, so its sidecar holds no seed; the studies
        that draw games keep theirs."""
        out = tmp_path / "ratio.csv"
        assert cli.run(["ratio", "--real-flows", "10", "--output", str(out)]) == 0
        meta = json.loads((tmp_path / "ratio.csv.meta.json").read_text())
        assert "seed" not in meta
        assert meta["optimal_ratios"].keys() == {"10"}
        for argv in (["sweep", "--costs", "0.1"], ["matchup"], ["bench", "--sizes", "1"]):
            out = tmp_path / f"{argv[0]}.csv"
            assert cli.run([*argv, "--trials", "1", "--seed", "3", "--output", str(out)]) == 0
            assert json.loads((tmp_path / f"{argv[0]}.csv.meta.json").read_text())["seed"] == 3

    def test_csv_floats_round_trip(self):
        report = cost_sweep(SMALL, costs=[0.01], trials=2, seed=4)
        reader = csv.reader(io.StringIO(report.csv(), newline=""))
        header = next(reader)
        row = next(reader)
        idx = header.index("stackelberg_def")
        original = report.rows[0][report.columns.index("stackelberg_def")]
        assert float(row[idx]) == original

