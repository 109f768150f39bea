"""Fast ratio-rule honey-flow allocator and its gap-vs-exact harness.

The rule sizes each type's honey-flow count as a multiple of its real-flow
count, with the multiplier stepping up as the fake-host value falls
relative to the real one: 1.30x when the fake is nearly as valuable
(>= 85% of real), 1.50x on [50%, 85%), 1.65x on (30%, 50%), and 2x
otherwise. It is an approximation tuned for per-flow costs around
0.001..0.1 and similar honey/real ratios across types; its quality is
measured against the exact solver, never assumed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .equilibrium import solve_stackelberg
from .errors import ValidationError
from .game import MAX_HONEY_FLOW_BOUND, GameSpec, VulnerabilityType, summarize_counts
from .strategies import AttackerModel, evaluate_matchup


@dataclass(frozen=True)
class HeuristicInput:
    """Per-type real values, fake-host values, and real-flow counts.

    There is at least one type. Values must be finite. Each count must
    be an integer in [0, MAX_HONEY_FLOW_BOUND // 2], because the rule
    recommends up to twice the count and ``exactness_gap`` plays twice the
    count as a honey bound. Counts are checked as given, before numpy
    converts them.
    """

    real_values: np.ndarray
    fake_values: np.ndarray
    real_flow_counts: np.ndarray

    def __post_init__(self) -> None:
        rv = np.asarray(self.real_values, dtype=float)
        fv = np.asarray(self.fake_values, dtype=float)
        if rv.ndim != 1 or rv.shape != fv.shape or np.shape(self.real_flow_counts) != rv.shape:
            raise ValidationError("real/fake values and flow counts must be "
                                  "1-d vectors of equal length")
        if not rv.size:
            raise ValidationError("the rule needs at least one vulnerability type")
        if not (np.isfinite(rv).all() and np.isfinite(fv).all()):
            raise ValidationError("real and fake values must be finite")
        if np.any(rv <= 0):
            raise ValidationError("real values must be positive")
        if np.any(fv < 0):
            raise ValidationError("fake values must be nonnegative")
        try:
            counts = [operator.index(n) for n in self.real_flow_counts]
        except TypeError:
            raise ValidationError("real-flow counts must be integers") from None
        limit = MAX_HONEY_FLOW_BOUND // 2
        for n in counts:
            if not 0 <= n <= limit:
                raise ValidationError(f"real-flow counts must be in [0, {limit}], got {n}")
        nr = np.array(counts, dtype=int)
        object.__setattr__(self, "real_values", rv)
        object.__setattr__(self, "fake_values", fv)
        object.__setattr__(self, "real_flow_counts", nr)


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def recommend_honey_flows(inp: HeuristicInput) -> np.ndarray:
    """Honey-flow count per type from the value-ratio rule.

    Branch boundaries are inclusive exactly as stated above: a fake value
    at 85% of real takes the 1.30 branch, at 50% the 1.50 branch, and at
    exactly 30% the bottom (2x) branch.
    """
    rv, fv = inp.real_values, inp.fake_values
    bands = [
        (0.85 * rv <= fv) & (fv <= rv),
        (0.5 * rv <= fv) & (fv < 0.85 * rv),
        (0.3 * rv < fv) & (fv < 0.5 * rv),
    ]
    mult = np.select(bands, [1.30, 1.50, 1.65], default=2.0)
    return np.floor(mult * inp.real_flow_counts + 0.5).astype(int)


@dataclass(frozen=True)
class HeuristicGap:
    heuristic_counts: np.ndarray
    heuristic_value: float
    exact_value: float

    @property
    def gap(self) -> float:
        return self.exact_value - self.heuristic_value


def ratio_game(real_values, fake_values, real_flow_counts, honey_flow_bounds, cost) -> GameSpec:
    """Game of one type per entry of the four sequences, each at ``cost``
    per honey flow. Fake-host values enter the attacker's payoff as losses:
    hitting a fake asset costs the attacker what the asset pretends to be
    worth."""
    types = tuple(
        VulnerabilityType(
            id=i,
            attacker_real_value=float(rv),
            attacker_honey_value=float(-fv),
            real_flow_count=int(nr),
            honey_flow_bound=int(h),
            honey_flow_cost=float(cost),
        )
        for i, (rv, fv, nr, h) in enumerate(
            zip(real_values, fake_values, real_flow_counts, honey_flow_bounds)
        )
    )
    return GameSpec(types)


def game_from_heuristic_input(inp: HeuristicInput, cost: float) -> GameSpec:
    """Game whose optimum the ratio rule approximates: the honey bound is
    twice the real-flow count, so every branch's output is playable."""
    counts = inp.real_flow_counts
    return ratio_game(inp.real_values, inp.fake_values, counts, 2 * counts, cost)


def exactness_gap(inp: HeuristicInput, cost: float) -> HeuristicGap:
    """Defender value of the ratio rule vs the exact optimum on one game.

    The rule's counts are played as a deterministic strategy against a
    rational attacker; the exact value comes from ``solve_stackelberg``,
    the water-level solver. The gap is reported, not bounded: it is a
    logged regression metric.
    """
    spec = game_from_heuristic_input(inp, cost)
    counts = recommend_honey_flows(inp)
    played = evaluate_matchup(
        spec, summarize_counts(spec, counts.tolist()), AttackerModel.RATIONAL
    )
    exact = solve_stackelberg(spec)
    return HeuristicGap(
        heuristic_counts=counts,
        heuristic_value=played.defender_value,
        exact_value=exact.defender_value,
    )
