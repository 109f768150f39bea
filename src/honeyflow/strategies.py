"""Baseline defender strategies, attacker models, and matchup evaluation.

The two defender baselines (no honey flows at all; uniformly random honey
counts) and the two naive attackers (uniform over types; greedy under the
pessimistic assumption that every honey bound is fully used) are the
comparison points for the optimized strategy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import EmptyActionSet
from .game import (
    NO_ATTACK,
    AttackerAction,
    DefenderStrategy,
    GameSpec,
    Summary,
    first_best,
    summarize,
    utilities,
)


class AttackerModel(enum.Enum):
    RATIONAL = "rational"
    UNIFORM_RANDOM = "uniform"
    GREEDY = "greedy"


@dataclass(frozen=True)
class MatchupResult:
    defender_value: float
    attacker_value: float
    attacker_behavior: AttackerAction | dict[AttackerAction, float]


def no_deception_strategy(spec: GameSpec) -> DefenderStrategy:
    """Zero honey flows for every type, with certainty."""
    return DefenderStrategy.from_counts(spec, [0] * len(spec.types))


def uniform_random_strategy(spec: GameSpec) -> DefenderStrategy:
    """Each type's honey count drawn uniformly from 0..H_i."""
    return DefenderStrategy(
        tuple(
            np.full(t.honey_flow_bound + 1, 1.0 / (t.honey_flow_bound + 1))
            for t in spec.types
        )
    )


def greedy_attacker(spec: GameSpec) -> AttackerAction:
    """Naive attacker assuming every honey bound is fully deployed.

    Scores each attackable type by its expected value when j = H_i honey
    flows are up and attacks the best one (lowest id on ties). Declines to
    attack when every pessimistic estimate is negative.
    """
    best: tuple[float, int] | None = None
    for i in spec.attackable_ids:
        u = float(spec.attack_values[i][-1])
        if best is None or u > best[0]:
            best = (u, i)
    if best is None or best[0] < 0.0:
        return NO_ATTACK
    return AttackerAction.attack(best[1])


def uniform_attacker(spec: GameSpec) -> dict[AttackerAction, float]:
    """Uniform distribution over the attackable types (never declines)."""
    attacks = [a for a in spec.actions if a.is_attack]
    if not attacks:
        raise EmptyActionSet("no attackable vulnerability types")
    share = 1.0 / len(attacks)
    return {a: share for a in attacks}


def rational_attacker(spec: GameSpec, strategy: DefenderStrategy) -> AttackerAction:
    """Best response to a known defender strategy.

    Maximizes the attacker's expected utility; ``first_best`` breaks ties.
    This is also the strong (defender-favoring) tie-break: the defender's
    utility is the negated attacker utility minus the honey cost, which is
    sunk before the attacker moves, so every tied action leaves the
    defender within ``TIE_TOL`` of its best.
    """
    return _best_response(spec, summarize(spec, strategy))


def _best_response(spec: GameSpec, summary: Summary) -> AttackerAction:
    """``rational_attacker``'s choice, from the strategy's summary."""
    actions = spec.actions
    return first_best(actions, [utilities(spec, summary, a)[1] for a in actions])


def evaluate_matchup(
    spec: GameSpec,
    summary: Summary,
    attacker: AttackerModel,
) -> MatchupResult:
    """Resolve an attacker model against a defender strategy's ``summary``
    (from ``summarize``) and score it. The uniform attacker's values are the
    share-weighted mean of its attacks' pure values, summed in
    ``GameSpec.actions`` order."""
    if attacker is AttackerModel.UNIFORM_RANDOM:
        behavior = uniform_attacker(spec)
        d_val = a_val = 0.0
        for action, share in behavior.items():
            d, a = utilities(spec, summary, action)
            d_val += share * d
            a_val += share * a
    else:
        if attacker is AttackerModel.RATIONAL:
            behavior = _best_response(spec, summary)
        else:
            behavior = greedy_attacker(spec)
        d_val, a_val = utilities(spec, summary, behavior)
    return MatchupResult(
        defender_value=d_val,
        attacker_value=a_val,
        attacker_behavior=behavior,
    )
