"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria, tolerances, and runtime budgets are pinned here and nowhere
else; the brute-force reference values come from tests/oracles.py, which
shares no code with the solver under test.
"""

import time

import numpy as np

from honeyflow.equilibrium import solve_stackelberg
from honeyflow.experiments import (
    DEFAULT_COST_SWEEP,
    MODE_FAKE_EQUALS_REAL,
    MODE_FAKE_ZERO,
    GeneratorParams,
    random_game,
    ratio_analysis,
    scalability_bench,
)
from honeyflow.game import (
    AttackerAction,
    DefenderStrategy,
    GameSpec,
    VulnerabilityType,
    summarize,
    utilities,
)
from honeyflow.heuristics import HeuristicInput, exactness_gap, recommend_honey_flows
from honeyflow.simulator import Endpoint, build_network, run_trials
from honeyflow.strategies import (
    AttackerModel,
    evaluate_matchup,
    no_deception_strategy,
    rational_attacker,
    uniform_random_strategy,
)
from oracles import exact_stackelberg_value


def _report(num: int, description: str, ok: bool) -> bool:
    print(f"[acceptance] criterion {num} ({description}): {'PASS' if ok else 'FAIL'}")
    return ok


def _small_random_spec(rng: np.random.Generator) -> GameSpec:
    n = int(rng.integers(1, 4))
    types = []
    for i in range(n):
        real_v = float(rng.uniform(0.1, 1.5))
        honey_v = float(rng.uniform(-1.5, real_v))
        types.append(
            VulnerabilityType(
                id=i,
                attacker_real_value=real_v,
                attacker_honey_value=honey_v,
                real_flow_count=int(rng.integers(1, 11)),
                honey_flow_bound=int(rng.integers(0, 6)),
                honey_flow_cost=float(rng.uniform(0.001, 0.1)),
            )
        )
    return GameSpec(tuple(types))


def test_criterion_1_worked_example_regression(worked_example, worked_example_strategy):
    attack_second = AttackerAction.attack(1)
    att = utilities(
        worked_example, summarize(worked_example, worked_example_strategy), attack_second
    )[1]
    dfd = utilities(
        worked_example, summarize(worked_example, worked_example_strategy), attack_second
    )[0]
    response = rational_attacker(worked_example, worked_example_strategy)

    reps = 200
    start = time.perf_counter()
    for _ in range(reps):
        utilities(
            worked_example, summarize(worked_example, worked_example_strategy), attack_second
        )[1]
        utilities(
            worked_example, summarize(worked_example, worked_example_strategy), attack_second
        )[0]
    per_call = (time.perf_counter() - start) / (2 * reps)

    ok = (
        abs(att - 8.75) <= 1e-9
        and abs(dfd - (-11.75)) <= 1e-9
        and response == attack_second
        and per_call < 1e-3
    )
    assert _report(1, "worked-example values, best response, <1ms", ok)


def test_criterion_2_solver_matches_bruteforce_oracle():
    start = time.perf_counter()
    worst = 0.0
    for game_index in range(50):
        rng = np.random.default_rng(1_000 + game_index)
        spec = _small_random_spec(rng)
        lp_value = solve_stackelberg(spec).defender_value
        oracle_value = exact_stackelberg_value(spec)
        worst = max(worst, abs(lp_value - oracle_value))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3 and elapsed < 120.0
    print(f"    worst |solver - oracle| = {worst:.3e} over 50 games, {elapsed:.1f}s")
    assert _report(2, "solver vs brute-force oracle within 1e-3", ok)


def test_criterion_3_dominance_over_baselines():
    start = time.perf_counter()
    violations = 0
    for mode in (MODE_FAKE_ZERO, MODE_FAKE_EQUALS_REAL):
        for game_index in range(100):
            params = GeneratorParams(
                type_count=5,
                real_flows=500,
                honey_bound_range=(500, 1000),
                value_mode=mode,
                cost=DEFAULT_COST_SWEEP[game_index % len(DEFAULT_COST_SWEEP)],
            )
            spec = random_game(params, seed=7_000 + game_index)
            stackelberg_value = solve_stackelberg(spec).defender_value
            for baseline in (
                uniform_random_strategy(spec),
                no_deception_strategy(spec),
            ):
                result = evaluate_matchup(spec, summarize(spec, baseline), AttackerModel.RATIONAL)
                if stackelberg_value < result.defender_value - 1e-6:
                    violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 300.0
    print(f"    0 expected violations, saw {violations}; {elapsed:.1f}s for 200 games")
    assert _report(3, "optimal value dominates both baselines on every game", ok)


def test_criterion_4_cost_regimes():
    high_ok = True
    for mode in (MODE_FAKE_ZERO, MODE_FAKE_EQUALS_REAL):
        for game_index in range(10):
            # max attacker real value is 1.0 in both modes; cost 1.0 per
            # flow makes every honey flow a guaranteed loss
            params = GeneratorParams(
                type_count=5,
                real_flows=500,
                honey_bound_range=(500, 1000),
                value_mode=mode,
                cost=1.0,
            )
            spec = random_game(params, seed=3_000 + game_index)
            stackelberg_value = solve_stackelberg(spec).defender_value
            none_value = evaluate_matchup(
                spec, summarize(spec, no_deception_strategy(spec)), AttackerModel.RATIONAL
            ).defender_value
            if abs(stackelberg_value - none_value) > 1e-6:
                high_ok = False

    free_ok = True
    for mode in (MODE_FAKE_ZERO, MODE_FAKE_EQUALS_REAL):
        for game_index in range(10):
            params = GeneratorParams(
                type_count=5,
                real_flows=500,
                honey_bound_range=(500, 1000),
                value_mode=mode,
                cost=0.0,
            )
            spec = random_game(params, seed=4_000 + game_index)
            stackelberg_value = solve_stackelberg(spec).defender_value
            uniform_value = evaluate_matchup(
                spec, summarize(spec, uniform_random_strategy(spec)), AttackerModel.RATIONAL
            ).defender_value
            none_value = evaluate_matchup(
                spec, summarize(spec, no_deception_strategy(spec)), AttackerModel.RATIONAL
            ).defender_value
            if not (
                stackelberg_value >= uniform_value - 1e-9
                and uniform_value >= none_value - 1e-9
            ):
                free_ok = False

    ok = high_ok and free_ok
    assert _report(4, "high cost collapses to no-deception; free flows order strategies", ok)


def test_criterion_5_ratio_knee_insensitivity():
    start = time.perf_counter()
    report = ratio_analysis(
        real_values=[10.0, 20.0, 30.0, 40.0],
        fake_values=[9.0, 18.0, 27.0, 32.0],
        ratios=[round(0.1 * k, 2) for k in range(31)],
        real_flow_counts=[10, 15, 30],
        cost=0.1,
    )
    elapsed = time.perf_counter() - start
    knees = list(report.metadata["optimal_ratios"].values())
    spread = max(knees) - min(knees)
    print(f"    knees {report.metadata['optimal_ratios']}, spread {spread:.2f}, {elapsed:.1f}s")
    ok = spread <= 0.5 and elapsed < 60.0
    assert _report(5, "optimal honey/real ratio varies <= 0.5 across real-flow counts", ok)


def test_criterion_6_scalability():
    start = time.perf_counter()
    by_types = scalability_bench("types", sizes=[2, 4, 8, 16], trials=7, seed=1)
    by_bounds = scalability_bench("honey_bounds", sizes=[50, 200, 1000], trials=7, seed=1)
    elapsed = time.perf_counter() - start

    big = next(r for r in by_bounds.rows if r[1] == 1000)
    median_big = big[2]

    def monotone(rows):
        medians = [r[2] for r in rows]
        return all(b >= 0.8 * a for a, b in zip(medians, medians[1:]))

    ok = (
        median_big <= 10.0
        and monotone(by_types.rows)
        and monotone(by_bounds.rows)
        and elapsed < 600.0
    )
    print(
        f"    5 types H=1000 median {median_big*1e3:.1f} ms; "
        f"type-dim medians {[f'{r[2]*1e3:.1f}ms' for r in by_types.rows]}; "
        f"bound-dim medians {[f'{r[2]*1e3:.1f}ms' for r in by_bounds.rows]}"
    )
    assert _report(6, "solve <= 10s at 5 types x 1000 bound, time monotone", ok)


def _analytic_fixture_net():
    endpoints = {
        "r1": Endpoint("r1", 2.0, 2.0, frozenset({0}), False),
        "r2": Endpoint("r2", 2.0, 2.0, frozenset({0}), False),
        "f1": Endpoint("f1", 0.0, -1.0, frozenset({0}), True),
        "f2": Endpoint("f2", 0.0, -1.0, frozenset({0}), True),
    }
    links = [("r1", "s1"), ("r2", "s1"), ("f1", "s1"), ("f2", "s1")]
    return build_network(endpoints, ["s1"], links, compromised=["s1"])


def test_criterion_7_simulator_matches_analytic_utilities():
    start = time.perf_counter()
    net = _analytic_fixture_net()
    real_flows, honey_flows = 6, 4
    report = run_trials(
        net, {0: real_flows}, {0: honey_flows}, policy=0, episodes=10_000, seed=99
    )
    row = report.rows[0]

    # Analytic twin of the fixture: one type worth 2 real / -1 honey with
    # the same flow mix, played as a fixed count.
    spec = GameSpec((VulnerabilityType(0, 2.0, -1.0, real_flows, honey_flows, 0.0),))
    strategy = DefenderStrategy.from_counts(spec, [honey_flows])
    analytic = utilities(spec, summarize(spec, strategy), AttackerAction.attack(0))[1]

    expected_defeat = honey_flows / (honey_flows + real_flows)
    sigma = (expected_defeat * (1 - expected_defeat) / 10_000) ** 0.5
    elapsed = time.perf_counter() - start

    mean_ok = abs(row.mean_attacker - analytic) <= 3 * row.stderr_attacker
    defeat_ok = abs(row.defeat_rate - expected_defeat) <= 3 * sigma
    ok = mean_ok and defeat_ok and elapsed < 30.0
    print(
        f"    mean {row.mean_attacker:.4f} vs analytic {analytic:.4f} "
        f"(3se={3*row.stderr_attacker:.4f}); defeat {row.defeat_rate:.4f} vs "
        f"{expected_defeat:.4f} (3sigma={3*sigma:.4f}); {elapsed:.1f}s"
    )
    assert _report(7, "episode means match analytic values within 3 sigma", ok)


def test_criterion_8_honey_sweep_reduces_attacker_payoff():
    endpoints = {
        "client1": Endpoint("client1", 1.0, 1.0, frozenset({0}), False),
        "client2": Endpoint("client2", 1.0, 1.0, frozenset({0}), False),
        "server1": Endpoint("server1", 1.0, 1.0, frozenset({0}), False),
        "server2": Endpoint("server2", 1.0, 1.0, frozenset({0}), False),
        "fake1": Endpoint("fake1", 0.0, 0.0, frozenset({0}), True),
        "fake2": Endpoint("fake2", 0.0, 0.0, frozenset({0}), True),
    }
    links = [
        ("client1", "s1"),
        ("client2", "s1"),
        ("fake1", "s1"),
        ("s1", "s2"),
        ("s2", "s3"),
        ("server1", "s3"),
        ("server2", "s3"),
        ("fake2", "s3"),
    ]
    net = build_network(endpoints, ["s1", "s2", "s3"], links, compromised=["s1", "s2", "s3"])

    start = time.perf_counter()
    means = []
    for k, honey in enumerate(range(0, 501, 100)):
        report = run_trials(
            net, {0: 500}, {0: honey}, policy=0, episodes=2_000, seed=500 + k
        )
        means.append(report.rows[0].mean_attacker)
    elapsed = time.perf_counter() - start

    strictly_decreasing = all(b < a for a, b in zip(means, means[1:]))
    ok = strictly_decreasing and elapsed < 60.0
    print(f"    attacker means along sweep: {[f'{m:.3f}' for m in means]}; {elapsed:.1f}s")
    assert _report(8, "attacker payoff strictly falls as honey flows rise", ok)


def test_criterion_9_heuristic_branches_and_gap_report():
    rows_ok = (
        recommend_honey_flows(
            HeuristicInput(np.array([10.0]), np.array([9.0]), np.array([10]))
        ).tolist()
        == [13]
        and recommend_honey_flows(
            HeuristicInput(np.array([10.0]), np.array([3.0]), np.array([10]))
        ).tolist()
        == [20]
        and recommend_honey_flows(
            HeuristicInput(np.array([10.0]), np.array([10.0]), np.array([0]))
        ).tolist()
        == [0]
    )

    # 20 games inside the rule's stated envelope: per-flow cost in
    # [0.001, 0.1] and value ratios grouped so honey/real ratios match
    # across types.
    bands = [(0.86, 0.99), (0.55, 0.84), (0.31, 0.49), (0.05, 0.29)]
    gaps = []
    for game_index in range(20):
        rng = np.random.default_rng(9_000 + game_index)
        band = bands[game_index % len(bands)]
        n = 3
        rv = rng.uniform(5.0, 40.0, size=n)
        fv = rv * rng.uniform(band[0], band[1], size=n)
        nr = rng.integers(5, 15, size=n)
        cost = float(10 ** rng.uniform(-3, -1))
        result = exactness_gap(
            HeuristicInput(rv, fv, nr.astype(int)), cost
        )
        gaps.append(result.gap)
    gaps = np.array(gaps)
    gap_ok = bool(np.all(gaps >= -1e-9) and np.all(np.isfinite(gaps)))
    print(
        f"    heuristic-vs-exact gap over 20 games: mean {gaps.mean():.4f}, "
        f"max {gaps.max():.4f} (logged, not bounded)"
    )
    assert _report(9, "branch table exact; value gap computed and reported", rows_ok and gap_ok)
