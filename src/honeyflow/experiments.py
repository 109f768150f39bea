"""Random game generation and the four study harnesses.

Harnesses: a honey-flow cost sweep, a defender-vs-attacker matchup grid,
a honey/real ratio analysis, and a solver scalability benchmark. Every
harness is reproducible from (params, seed); wall-clock columns are the
only exception and are marked so writers can drop them.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import platform
import statistics
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import __version__
from .equilibrium import solve_stackelberg
from .errors import ConfigError
from .game import (
    MAX_HONEY_FLOW_BOUND,
    MAX_STRATEGY_SIZE,
    MAX_TYPES,
    DefenderStrategy,
    GameSpec,
    VulnerabilityType,
    to_json,
)
from .heuristics import round_half_up
from .strategies import (
    AttackerModel,
    evaluate_matchup,
    no_deception_strategy,
    uniform_random_strategy,
)

MODE_FAKE_ZERO = "fake-zero-real-one"
MODE_FAKE_EQUALS_REAL = "fake-equals-real-random"

DEFAULT_COST_SWEEP = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1)

# Column names carrying wall-clock measurements; CSV writers drop them
# unless asked, so default outputs stay byte-identical across runs.
TIMING_COLUMNS = frozenset({"solve_time", "median_time", "min_time", "max_time"})


@dataclass(frozen=True)
class GeneratorParams:
    """Knobs for drawing one random game."""

    type_count: int
    real_flows: int | tuple[int, int] = 500
    honey_bound_range: tuple[int, int] = (500, 1000)
    value_mode: str = MODE_FAKE_ZERO
    cost: float = 1e-4

    def __post_init__(self) -> None:
        if not 1 <= self.type_count <= MAX_TYPES:
            raise ConfigError(
                f"type_count must be at least 1 and at most {MAX_TYPES}, got {self.type_count}"
            )
        lo, hi = self.honey_bound_range
        if lo > hi or lo < 0:
            raise ConfigError(f"empty honey bound range [{lo}, {hi}]")
        if hi > MAX_HONEY_FLOW_BOUND:
            raise ConfigError(
                f"honey bounds must be at most {MAX_HONEY_FLOW_BOUND}, got {hi}"
            )
        if self.type_count * (hi + 1) > MAX_STRATEGY_SIZE:
            raise ConfigError(
                f"{self.type_count} types with honey bounds up to {hi} can hold "
                f"{self.type_count * (hi + 1)} strategy entries, more than the cap of "
                f"{MAX_STRATEGY_SIZE}"
            )
        if isinstance(self.real_flows, tuple):
            lo, hi = self.real_flows
            if lo > hi or lo < 0:
                raise ConfigError(f"empty real flow range [{lo}, {hi}]")
        if self.value_mode not in (MODE_FAKE_ZERO, MODE_FAKE_EQUALS_REAL):
            raise ConfigError(f"unknown value mode {self.value_mode!r}")
        if self.cost < 0:
            raise ConfigError("cost must be nonnegative")


def random_game(params: GeneratorParams, seed) -> GameSpec:
    """Deterministic random game; identical (params, seed) give identical specs."""
    rng = np.random.default_rng(seed)
    types = []
    for i in range(params.type_count):
        if isinstance(params.real_flows, tuple):
            lo, hi = params.real_flows
            r = int(rng.integers(lo, hi + 1))
        else:
            r = int(params.real_flows)
        lo, hi = params.honey_bound_range
        h = int(rng.integers(lo, hi + 1))
        if params.value_mode == MODE_FAKE_ZERO:
            real_v, honey_v = 1.0, 0.0
        else:
            real_v = honey_v = float(rng.uniform(0.5, 1.0))
        types.append(
            VulnerabilityType(
                id=i,
                attacker_real_value=real_v,
                attacker_honey_value=honey_v,
                real_flow_count=r,
                honey_flow_bound=h,
                honey_flow_cost=params.cost,
            )
        )
    return GameSpec(tuple(types))


def check_finite(column: str, value) -> None:
    """Raise ConfigError if ``value`` is a NaN or infinite float: a CSV
    cell must hold a number that reads back."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{column} is {value!r}; CSV output takes finite values only")


@dataclass(frozen=True)
class ExperimentReport:
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    metadata: dict

    def _cells(self, with_timing: bool = False) -> list[list]:
        """The header and rows as CSV cells; floats print as repr and
        timing columns are dropped unless ``with_timing``. Raises
        ConfigError on a non-finite float, so no partial CSV is written."""
        keep = [
            i
            for i, c in enumerate(self.columns)
            if with_timing or c not in TIMING_COLUMNS
        ]
        lines = [[self.columns[i] for i in keep]]
        for row in self.rows:
            for i in keep:
                check_finite(self.columns[i], row[i])
            lines.append([repr(row[i]) if isinstance(row[i], float) else row[i] for i in keep])
        return lines

    def write_rows(self, fh, with_timing: bool = False) -> None:
        """Write the CSV to an open text handle."""
        csv.writer(fh).writerows(self._cells(with_timing))

    def write_csv(self, path, with_timing: bool = False) -> None:
        lines = self._cells(with_timing)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(lines)

    def write_metadata(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(to_json(self.metadata))


def _game_seeds(seed: int, trials: int) -> list[np.random.SeedSequence]:
    if trials < 1:
        raise ConfigError(f"trials must be at least 1, got {trials}")
    return np.random.SeedSequence(seed).spawn(trials)


def _metadata(seed: int, params: GeneratorParams | None, **extra) -> dict:
    meta = {"seed": seed, "build": __version__, **extra}
    if params is not None:
        meta["params"] = dataclasses.asdict(params)
    return meta


def _three_defenders(spec: GameSpec):
    eq = solve_stackelberg(spec)
    return (
        ("stackelberg", eq.strategy, eq.solve_time),
        ("uniform", uniform_random_strategy(spec), 0.0),
        ("no-deception", no_deception_strategy(spec), 0.0),
    )


def cost_sweep(
    params: GeneratorParams,
    costs: Sequence[float] = DEFAULT_COST_SWEEP,
    trials: int = 100,
    seed: int = 0,
) -> ExperimentReport:
    """Mean defender/attacker values per cost for the three defenders,
    each facing a rational attacker. The same seeded games recur across
    costs so rows differ only in the cost."""
    if not costs:
        raise ConfigError("cost sweep needs at least one cost")
    game_seeds = _game_seeds(seed, trials)
    rows = []
    for cost in costs:
        sums = {name: [0.0, 0.0] for name in ("stackelberg", "uniform", "no-deception")}
        total_time = 0.0
        swept = dataclasses.replace(params, cost=float(cost))
        for t in range(trials):
            spec = random_game(swept, game_seeds[t])
            for name, strategy, solve_time in _three_defenders(spec):
                result = evaluate_matchup(spec, strategy, AttackerModel.RATIONAL)
                sums[name][0] += result.defender_value
                sums[name][1] += result.attacker_value
                total_time += solve_time
        row = [float(cost)]
        for name in ("stackelberg", "uniform", "no-deception"):
            row.extend([sums[name][0] / trials, sums[name][1] / trials])
        row.append(total_time / trials)
        rows.append(tuple(row))
    columns = (
        "cost",
        "stackelberg_def",
        "stackelberg_att",
        "uniform_def",
        "uniform_att",
        "no_deception_def",
        "no_deception_att",
        "solve_time",
    )
    return ExperimentReport(
        columns, tuple(rows), _metadata(seed, params, trials=trials, costs=list(map(float, costs)))
    )


def matchup_grid(
    params: GeneratorParams, trials: int = 100, seed: int = 0
) -> ExperimentReport:
    """Mean values for every defender x attacker-model pairing."""
    game_seeds = _game_seeds(seed, trials)
    attackers = (AttackerModel.RATIONAL, AttackerModel.UNIFORM_RANDOM, AttackerModel.GREEDY)
    defenders = ("stackelberg", "uniform", "no-deception")
    sums = {(d, a): [0.0, 0.0] for d in defenders for a in attackers}
    for t in range(trials):
        spec = random_game(params, game_seeds[t])
        for name, strategy, _solve_time in _three_defenders(spec):
            for attacker in attackers:
                result = evaluate_matchup(spec, strategy, attacker)
                sums[(name, attacker)][0] += result.defender_value
                sums[(name, attacker)][1] += result.attacker_value
    rows = tuple(
        (d, a.value, sums[(d, a)][0] / trials, sums[(d, a)][1] / trials)
        for d in defenders
        for a in attackers
    )
    columns = ("defender", "attacker", "mean_def", "mean_att")
    return ExperimentReport(columns, rows, _metadata(seed, params, trials=trials))


def ratio_analysis(
    real_values: Sequence[float],
    fake_values: Sequence[float],
    ratios: Sequence[float],
    real_flow_counts: Sequence[int],
    cost: float,
) -> ExperimentReport:
    """Defender value of fixed honey/real ratios across real-flow counts.

    ``fake_values`` are fake-host magnitudes: hitting one costs the
    attacker that much (the honey payoff is their negation). For each
    real-flow count the argmax ratio over the grid (the knee) lands in the
    metadata under ``optimal_ratios``.
    """
    if not ratios or not all(0 <= r < math.inf for r in ratios):  # NaN fails too
        raise ConfigError("ratio grid must be nonempty, finite and nonnegative")
    if len(real_values) != len(fake_values):
        raise ConfigError(
            f"{len(real_values)} real values but {len(fake_values)} fake values"
        )
    if not real_flow_counts or min(real_flow_counts) < 1:
        raise ConfigError("real-flow counts must be nonempty and at least 1")
    max_ratio = max(ratios)
    rows = []
    optimal: dict[str, float] = {}
    for rf in real_flow_counts:
        try:
            bound = max(round_half_up(max_ratio * rf), 0)
        except OverflowError:  # ratio x count is beyond the floats
            raise ConfigError(
                f"honey_flow_bound overflows: ratio {max_ratio} times {rf} real flows"
            ) from None
        types = tuple(
            VulnerabilityType(
                id=i,
                attacker_real_value=float(rv),
                attacker_honey_value=float(-fv),
                real_flow_count=int(rf),
                honey_flow_bound=bound,
                honey_flow_cost=float(cost),
            )
            for i, (rv, fv) in enumerate(zip(real_values, fake_values))
        )
        spec = GameSpec(types)
        best: tuple[float, float] | None = None
        for ratio in ratios:
            j = min(round_half_up(ratio * rf), bound)
            strategy = DefenderStrategy.from_counts(spec, [j] * len(types))
            result = evaluate_matchup(spec, strategy, AttackerModel.RATIONAL)
            rows.append((int(rf), float(ratio), result.defender_value, result.attacker_value))
            if best is None or result.defender_value > best[1]:
                best = (float(ratio), result.defender_value)
        optimal[str(int(rf))] = best[0]
    columns = ("real_flows", "ratio", "defender_value", "attacker_value")
    meta = _metadata(
        0,
        None,
        real_values=list(map(float, real_values)),
        fake_values=list(map(float, fake_values)),
        cost=float(cost),
        ratios=list(map(float, ratios)),
        optimal_ratios=optimal,
    )
    return ExperimentReport(columns, tuple(rows), meta)


def scalability_bench(
    dimension: str,
    sizes: Sequence[int],
    trials: int = 5,
    seed: int = 0,
) -> ExperimentReport:
    """Median wall-clock solve time per problem size.

    ``dimension`` is "types" (vary the number of vulnerability types,
    honey bounds fixed at 100) or "honey_bounds" (5 types, vary the
    bound). A small warm-up solve runs first so first-call overheads are
    not billed to the first size.
    """
    if dimension not in ("types", "honey_bounds"):
        raise ConfigError(f"unknown bench dimension {dimension!r}")
    if not sizes:
        raise ConfigError("bench needs at least one size")
    if list(sizes) != sorted(sizes):
        raise ConfigError("sizes must be ascending")
    game_seeds = _game_seeds(seed, trials)
    solve_stackelberg(
        random_game(GeneratorParams(type_count=2, real_flows=5, honey_bound_range=(3, 3)), 0)
    )  # warm-up: first-call overheads
    rows = []
    for size in sizes:
        if dimension == "types":
            params = GeneratorParams(
                type_count=int(size), real_flows=500, honey_bound_range=(100, 100)
            )
        else:
            params = GeneratorParams(
                type_count=5, real_flows=500, honey_bound_range=(int(size), int(size))
            )
        times = []
        for t in range(trials):
            spec = random_game(params, game_seeds[t])
            start = time.perf_counter()
            solve_stackelberg(spec)
            times.append(time.perf_counter() - start)
        rows.append(
            (
                dimension,
                int(size),
                statistics.median(times),
                min(times),
                max(times),
                trials,
            )
        )
    columns = ("dimension", "size", "median_time", "min_time", "max_time", "trials")
    meta = _metadata(
        seed,
        None,
        dimension=dimension,
        sizes=[int(s) for s in sizes],
        trials=trials,
        machine={"platform": platform.platform(), "python": platform.python_version()},
    )
    return ExperimentReport(columns, tuple(rows), meta)
