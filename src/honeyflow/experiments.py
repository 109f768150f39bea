"""Random game generation and the four study harnesses.

Harnesses: a honey-flow cost sweep, a defender-vs-attacker matchup grid,
a honey/real ratio analysis, and a solver scalability benchmark. Every
harness but the benchmark, whose results are wall-clock times, is
reproducible from (params, seed).
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
import platform
import statistics
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import __version__
from .equilibrium import cost_curve, solve_stackelberg
from .errors import ConfigError
from .game import (
    MAX_HONEY_FLOW_BOUND,
    MAX_STRATEGY_SIZE,
    MAX_TYPES,
    GameSpec,
    Summary,
    VulnerabilityType,
    summarize,
    summarize_counts,
)
from .heuristics import ratio_game, round_half_up
from .strategies import AttackerModel, evaluate_matchup, uniform_random_strategy

MODE_FAKE_ZERO = "fake-zero-real-one"
MODE_FAKE_EQUALS_REAL = "fake-equals-real-random"

DEFAULT_COST_SWEEP = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1)


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
        elif self.real_flows < 0:
            raise ConfigError(f"real flows must be nonnegative, got {self.real_flows}")
        if self.value_mode not in (MODE_FAKE_ZERO, MODE_FAKE_EQUALS_REAL):
            raise ConfigError(f"unknown value mode {self.value_mode!r}")
        if not 0 <= self.cost < math.inf:  # NaN fails too
            raise ConfigError(f"cost must be nonnegative and finite, got {self.cost}")


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


def _check_finite(column: str, value) -> None:
    """Raise ConfigError if ``value`` is a NaN or infinite float: a CSV
    cell must hold a number that reads back."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{column} is {value!r}; CSV output takes finite values only")


@dataclass(frozen=True)
class ExperimentReport:
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    metadata: dict

    def csv(self) -> str:
        """The header and rows as CSV text with ``\\r\\n`` line endings;
        floats print as repr. Raises ConfigError on a non-finite float
        before any text is returned, so no partial CSV is written."""
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(self.columns)
        for row in self.rows:
            for column, value in zip(self.columns, row):
                _check_finite(column, value)
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
        return out.getvalue()


# Largest trial count a study accepts. Every game's seed is spawned before
# any game runs; on a 2-vCPU x86-64 host one child seed costs about 370
# bytes and 11 us, so at this cap the seeds take about 37 MB and 1.1 s.
# Larger counts are rejected before any seed is spawned.
MAX_TRIALS = 10**5


def _game_seeds(seed: int, trials: int) -> list[np.random.SeedSequence]:
    if not 1 <= trials <= MAX_TRIALS:
        raise ConfigError(f"trials must be at least 1 and at most {MAX_TRIALS}, got {trials}")
    return np.random.SeedSequence(seed).spawn(trials)


def _metadata(params: GeneratorParams | None, **extra) -> dict:
    meta = {"build": __version__, **extra}
    if params is not None:
        meta["params"] = dataclasses.asdict(params)
    return meta


_DEFENDERS = ("stackelberg", "uniform", "no-deception")


def _uniform_summaries(base: GameSpec, costs: Sequence[float]) -> list[Summary]:
    """``summarize(base.with_cost(c), uniform_random_strategy(base))`` for
    each c in ``costs``, bit for bit. The uniform marginals are dotted with
    the hit and count tables once, as ``summarize`` dots them; each cost
    then adds up the per-type expected counts times the cost, in type
    order, as ``summarize`` adds them."""
    uniform = uniform_random_strategy(base)
    hit, _ = summarize(base, uniform)
    honey = [float(m @ base.honey_counts[: m.size]) for m in uniform.marginals]
    summaries = []
    for c in costs:
        cost = 0.0
        for n in honey:
            cost += n * c
        summaries.append((hit, cost))
    return summaries


def _mean_values(swept: Sequence[GeneratorParams], game_seeds, attackers) -> list[dict]:
    """For each of ``swept``, which differ only in their cost: the mean
    (defender value, attacker value) of each defender in ``_DEFENDERS``
    against each attacker model, keyed (defender, model), over one game
    drawn per seed.

    Each game is drawn, and its ``cost_curve`` built, once, at the first
    cost; ``GameSpec.with_cost`` gives it each other cost, and
    ``solve_stackelberg`` solves it there on that one curve, so the tau*
    searches at all costs share the curve's width memo. Each defender has
    one summary per game and cost: the Stackelberg one from its solve, the
    uniform baseline's from ``_uniform_summaries`` (its dense marginals are
    summarized once per game and priced at each cost), and the
    no-deception baseline's from ``summarize_counts`` at counts 0. Every
    attacker model is scored from that one summary. Sums run in seed order
    at each cost.
    """
    sums = [{(d, a): [0.0, 0.0] for d in _DEFENDERS for a in attackers} for _ in swept]
    for game_seed in game_seeds:
        base = random_game(swept[0], game_seed)
        uniform = _uniform_summaries(base, [params.cost for params in swept])
        no_honey = [0] * len(base.types)
        curve = cost_curve(base)
        for k, params in enumerate(swept):
            spec = base.with_cost(params.cost) if k else base
            eq = solve_stackelberg(spec, curve)
            summaries = (eq.summary, uniform[k], summarize_counts(spec, no_honey))
            for name, summary in zip(_DEFENDERS, summaries):
                for attacker in attackers:
                    result = evaluate_matchup(spec, summary, attacker)
                    sums[k][(name, attacker)][0] += result.defender_value
                    sums[k][(name, attacker)][1] += result.attacker_value
    trials = len(game_seeds)
    return [
        {key: (d / trials, a / trials) for key, (d, a) in cost_sums.items()}
        for cost_sums in sums
    ]


def cost_sweep(
    params: GeneratorParams,
    costs: Sequence[float] = DEFAULT_COST_SWEEP,
    trials: int = 100,
    seed: int = 0,
) -> ExperimentReport:
    """Mean defender/attacker values per cost for the three defenders,
    each facing a rational attacker. Each seeded game is drawn and
    tabulated once and scored at every cost, so rows differ only in the
    cost; tau* at each cost is searched on the game's one cost curve,
    whose width memo the costs share. Every cost is checked before any
    game is drawn."""
    if not costs:
        raise ConfigError("cost sweep needs at least one cost")
    swept = [dataclasses.replace(params, cost=float(cost)) for cost in costs]
    game_seeds = _game_seeds(seed, trials)
    rational = AttackerModel.RATIONAL
    rows = [
        (cost_params.cost, *(v for d in _DEFENDERS for v in means[(d, rational)]))
        for cost_params, means in zip(swept, _mean_values(swept, game_seeds, (rational,)))
    ]
    columns = (
        "cost",
        "stackelberg_def",
        "stackelberg_att",
        "uniform_def",
        "uniform_att",
        "no_deception_def",
        "no_deception_att",
    )
    meta = _metadata(params, seed=seed, trials=trials, costs=list(map(float, costs)))
    del meta["params"]["cost"]  # each row's cost is in "costs"
    return ExperimentReport(columns, tuple(rows), meta)


def matchup_grid(
    params: GeneratorParams, trials: int = 100, seed: int = 0
) -> ExperimentReport:
    """Mean values for every defender x attacker-model pairing."""
    attackers = tuple(AttackerModel)
    [means] = _mean_values([params], _game_seeds(seed, trials), attackers)
    rows = tuple((d, a.value, *means[(d, a)]) for d in _DEFENDERS for a in attackers)
    columns = ("defender", "attacker", "mean_def", "mean_att")
    return ExperimentReport(columns, rows, _metadata(params, seed=seed, trials=trials))


def ratio_analysis(
    real_values: Sequence[float],
    fake_values: Sequence[float],
    ratios: Sequence[float],
    real_flow_counts: Sequence[int],
    cost: float,
) -> ExperimentReport:
    """Defender value of fixed honey/real ratios across real-flow counts.

    ``fake_values`` are fake-host magnitudes: hitting one costs the
    attacker that much (the honey payoff is their negation). Each cell
    plays the ratio's rounded honey count on every type, capped at the
    count of the largest ratio, and is scored from ``summarize_counts``
    against a rational attacker. For each real-flow count the argmax ratio
    over the grid (the knee) lands in the metadata under
    ``optimal_ratios``; a count given twice is rejected, since both would
    share that one entry.
    """
    if not ratios or not all(0 <= r < math.inf for r in ratios):  # NaN fails too
        raise ConfigError("ratio grid must be nonempty, finite and nonnegative")
    if len(real_values) != len(fake_values):
        raise ConfigError(
            f"{len(real_values)} real values but {len(fake_values)} fake values"
        )
    if not real_flow_counts or min(real_flow_counts) < 1:
        raise ConfigError("real-flow counts must be nonempty and at least 1")
    seen = set()
    for rf in real_flow_counts:
        if rf in seen:
            raise ConfigError(f"real-flow count {rf} is given more than once")
        seen.add(rf)
    max_ratio = max(ratios)
    n = len(real_values)
    rows = []
    optimal: dict[str, float] = {}
    for rf in real_flow_counts:
        try:
            bound = max(round_half_up(max_ratio * rf), 0)
        except OverflowError:  # ratio x count is beyond the floats
            raise ConfigError(
                f"honey_flow_bound overflows: ratio {max_ratio} times {rf} real flows"
            ) from None
        spec = ratio_game(real_values, fake_values, [rf] * n, [bound] * n, cost)
        best: tuple[float, float] | None = None
        for ratio in ratios:
            j = min(round_half_up(ratio * rf), bound)
            result = evaluate_matchup(
                spec, summarize_counts(spec, [j] * n), AttackerModel.RATIONAL
            )
            rows.append((int(rf), float(ratio), result.defender_value, result.attacker_value))
            if best is None or result.defender_value > best[1]:
                best = (float(ratio), result.defender_value)
        optimal[str(int(rf))] = best[0]
    columns = ("real_flows", "ratio", "defender_value", "attacker_value")
    meta = _metadata(
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
    not billed to the first size. Trial t of every size is timed, in size
    order, before trial t + 1 of any size, so a slow spell of the host
    spreads over the sizes instead of landing on one. Each game is drawn
    from its seed just before its timed solve, outside the timer, so the
    memory held does not grow with ``trials``.
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
    shapes = [(int(size), 100) if dimension == "types" else (5, int(size)) for size in sizes]
    params = [
        GeneratorParams(type_count=n, real_flows=500, honey_bound_range=(h, h)) for n, h in shapes
    ]
    times: list[list[float]] = [[] for _ in sizes]
    for game_seed in game_seeds:
        for k, size_params in enumerate(params):
            spec = random_game(size_params, game_seed)
            start = time.perf_counter()
            solve_stackelberg(spec)
            times[k].append(time.perf_counter() - start)
    rows = [
        (dimension, int(size), statistics.median(ts), min(ts), max(ts), trials)
        for size, ts in zip(sizes, times)
    ]
    columns = ("dimension", "size", "median_time", "min_time", "max_time", "trials")
    meta = _metadata(
        None,
        seed=seed,
        dimension=dimension,
        sizes=[int(s) for s in sizes],
        trials=trials,
        machine={"platform": platform.platform(), "python": platform.python_version()},
    )
    return ExperimentReport(columns, tuple(rows), meta)
