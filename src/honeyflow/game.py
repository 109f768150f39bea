"""Game data model and closed-form utility computations.

A game instance is a list of vulnerability types. The defender randomizes,
per type, over how many honey flows to create (a marginal distribution over
counts 0..H_i); the attacker targets one type or declines to attack. Attacks
draw a random flow of the chosen type, so the probability of hitting a real
flow when j honey flows are up is R_i / (j + R_i). A ``GameSpec`` checks
its types when it is built, so every function here can take it as valid.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Collection, Mapping, Sequence

import numpy as np

from .errors import DistributionError, ShapeError, ValidationError

# The package's tolerances (the test oracles keep their own, on purpose).
# An attacker distribution's probabilities may stray PROB_TOL below 0, and
# its sum PROB_TOL from 1, before it is rejected.
PROB_TOL = 1e-9

# Utilities within TIE_TOL of the best count as tied. Solvers and attacker
# models then break the tie by label: lowest type id first, no-attack last.
TIE_TOL = 1e-9

# Slack of every check in equilibrium.verify_equilibrium: marginal sums and
# bounds, the attacker's best-response gap and both value re-computations.
BEST_RESPONSE_TOL = 1e-6

# Largest honey-flow bound a type may have. A strategy holds H + 1
# probabilities per type, so larger bounds are rejected as bad input before
# anything allocates them.
MAX_HONEY_FLOW_BOUND = 10**6

# Largest number of vulnerability types a game may have. The solve
# evaluates V once at the water level tau* and once more for each type
# whose no-honey value u_k(0) lies below tau*, and each evaluation visits
# every type, so the solve is quadratic in the number of those types. On a
# 2-vCPU x86-64 host at this cap, a fake-zero game (5 real flows, honey
# bound 5, cost 0.1; every type at tau*) solves in 0.05 s, and a game with
# 576 types below tau* in 1.8 s. Larger games are rejected as bad input
# before any type is built.
MAX_TYPES = 1024

# Largest total of honey_flow_bound + 1 over a game's types, the number of
# probabilities a strategy holds. The two caps above bound one type and
# the type count, but together they allow 10^9 entries; this bounds them
# together (2^22 float64 entries are 32 MiB) and still admits a single
# type at MAX_HONEY_FLOW_BOUND.
MAX_STRATEGY_SIZE = 2**22


@dataclass(frozen=True)
class VulnerabilityType:
    """One vulnerability type with its flow counts, values, and flow cost.

    The attacker gains ``attacker_real_value`` for hitting a real flow of
    this type and ``attacker_honey_value`` (possibly negative) for hitting a
    honey flow. The defender's values are the negations; only the honey-flow
    creation cost breaks the zero-sum structure.
    """

    id: int
    attacker_real_value: float
    attacker_honey_value: float
    real_flow_count: int
    honey_flow_bound: int
    honey_flow_cost: float

    @property
    def defender_real_value(self) -> float:
        return -self.attacker_real_value

    @property
    def defender_honey_value(self) -> float:
        return -self.attacker_honey_value


@dataclass(frozen=True)
class GameSpec:
    """An ordered collection of vulnerability types.

    Building one checks every type and spec invariant and raises
    ValidationError naming the first violated invariant and the offending
    type id, so a GameSpec that exists is valid.
    """

    types: tuple[VulnerabilityType, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "types", tuple(self.types))
        if not self.types:
            raise ValidationError("game must have at least one vulnerability type")
        for pos, t in enumerate(self.types):
            if t.id != pos:
                raise ValidationError(
                    f"type ids must be consecutive from 0; position {pos} has id {t.id}"
                )
            for name in ("attacker_real_value", "attacker_honey_value", "honey_flow_cost"):
                if not math.isfinite(getattr(t, name)):
                    raise ValidationError(
                        f"type {t.id}: {name} must be finite, got {getattr(t, name)}"
                    )
            if t.attacker_honey_value > t.attacker_real_value:
                raise ValidationError(
                    f"type {t.id}: honey value {t.attacker_honey_value} exceeds "
                    f"real value {t.attacker_real_value}"
                )
            if t.honey_flow_cost < 0:
                raise ValidationError(
                    f"type {t.id}: honey_flow_cost must be nonnegative, "
                    f"got {t.honey_flow_cost}"
                )
            if t.real_flow_count < 0:
                raise ValidationError(
                    f"type {t.id}: real_flow_count must be nonnegative, "
                    f"got {t.real_flow_count}"
                )
            if t.real_flow_count > sys.float_info.max:  # exact int/float comparison
                raise ValidationError(
                    f"type {t.id}: real_flow_count is too large to convert to a float"
                )
            if not 0 <= t.honey_flow_bound <= MAX_HONEY_FLOW_BOUND:
                raise ValidationError(
                    f"type {t.id}: honey_flow_bound must be in [0, {MAX_HONEY_FLOW_BOUND}], "
                    f"got {t.honey_flow_bound}"
                )
        size = sum(t.honey_flow_bound + 1 for t in self.types)
        if size > MAX_STRATEGY_SIZE:
            raise ValidationError(
                f"the types' honey_flow_bound + 1 add up to {size}, "
                f"more than the cap of {MAX_STRATEGY_SIZE}"
            )

    @property
    def attackable_ids(self) -> tuple[int, ...]:
        """Types that can carry at least one flow, real or honey."""
        return tuple(
            t.id for t in self.types if t.real_flow_count + t.honey_flow_bound > 0
        )


@dataclass(frozen=True)
class DefenderStrategy:
    """Per-type marginal distributions over honey-flow counts.

    ``marginals[i][j]`` is the probability of creating exactly j honey flows
    of type i; each vector has length ``honey_flow_bound + 1``.
    """

    marginals: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        frozen = tuple(np.array(m, dtype=float) for m in self.marginals)
        for m in frozen:
            m.setflags(write=False)
        object.__setattr__(self, "marginals", frozen)

    @staticmethod
    def from_counts(spec: GameSpec, counts: Sequence[int]) -> "DefenderStrategy":
        """Point-mass strategy playing a fixed honey-flow count per type."""
        if len(counts) != len(spec.types):
            raise ShapeError(
                f"expected {len(spec.types)} counts, got {len(counts)}"
            )
        marginals = []
        for t, j in zip(spec.types, counts):
            if not 0 <= j <= t.honey_flow_bound:
                raise ShapeError(
                    f"count {j} outside [0, {t.honey_flow_bound}] for type {t.id}"
                )
            m = np.zeros(t.honey_flow_bound + 1)
            m[j] = 1.0
            marginals.append(m)
        return DefenderStrategy(tuple(marginals))


@dataclass(frozen=True, order=True)
class AttackerAction:
    """A pure attacker choice: attack one type, or do not attack.

    ``target`` is the type id, or None for the no-attack action (which
    always yields the attacker exactly 0).
    """

    target: int | None = None

    @staticmethod
    def attack(type_id: int) -> "AttackerAction":
        return AttackerAction(target=type_id)

    @staticmethod
    def no_attack() -> "AttackerAction":
        return AttackerAction(target=None)

    @property
    def is_attack(self) -> bool:
        return self.target is not None

    def __str__(self) -> str:
        return "no-attack" if self.target is None else f"attack({self.target})"


NO_ATTACK = AttackerAction.no_attack()


def _check_strategy_shape(spec: GameSpec, strategy: DefenderStrategy) -> None:
    if len(strategy.marginals) != len(spec.types):
        raise ShapeError(
            f"strategy has {len(strategy.marginals)} marginals for "
            f"{len(spec.types)} types"
        )
    for t, m in zip(spec.types, strategy.marginals):
        if m.shape != (t.honey_flow_bound + 1,):
            raise ShapeError(
                f"type {t.id}: marginal length {m.shape[0]} != "
                f"{t.honey_flow_bound + 1}"
            )


def real_hit_probabilities(vt: VulnerabilityType) -> np.ndarray:
    """P(hit a real flow | j honey flows) for j = 0..H, i.e. R/(j+R).

    A type with no real flows has probability 0 for every j (all its flows
    are fake), which is the natural limit of R/(j+R).
    """
    j = np.arange(vt.honey_flow_bound + 1, dtype=float)
    if vt.real_flow_count == 0:
        return np.zeros(vt.honey_flow_bound + 1)
    return vt.real_flow_count / (j + vt.real_flow_count)


def attack_values(vt: VulnerabilityType) -> np.ndarray:
    """Attacker's expected value u(j) = p_j*v_real + (1-p_j)*v_honey of
    attacking ``vt`` when j = 0..H honey flows are up."""
    p = real_hit_probabilities(vt)
    return p * vt.attacker_real_value + (1.0 - p) * vt.attacker_honey_value


# (hit, cost): per-type real-hit probabilities and the expected honey cost.
Summary = tuple[tuple[float, ...], float]


def summarize(spec: GameSpec, strategy: DefenderStrategy) -> Summary:
    """The per-type summary through which ``strategy`` reaches both players.

    Returns ``(hit, cost)``: ``hit[m]`` is the probability P_m that an attack
    on type m hits a real flow, and ``cost`` is the expected total cost of
    the honey flows created, summed in type order.
    """
    _check_strategy_shape(spec, strategy)
    hit = []
    cost = 0.0
    for t, m in zip(spec.types, strategy.marginals):
        hit.append(float(m @ real_hit_probabilities(t)))
        counts = np.arange(t.honey_flow_bound + 1, dtype=float)
        cost += float(m @ counts) * t.honey_flow_cost
    return tuple(hit), cost


def utilities(
    spec: GameSpec, summary: Summary, action: AttackerAction
) -> tuple[float, float]:
    """(defender, attacker) utilities of a pure action against a summary.

    The honey cost is sunk before the attacker moves, so no-attack still
    costs the defender the full expected honey cost."""
    hit, cost = summary
    if not action.is_attack:
        return -cost, 0.0
    vt = spec.types[action.target]
    p = hit[action.target]
    # Not -attacker - cost: that can flip the sign of a zero defender value.
    return (
        p * vt.defender_real_value + (1.0 - p) * vt.defender_honey_value - cost,
        p * vt.attacker_real_value + (1.0 - p) * vt.attacker_honey_value,
    )


def attacker_utility(
    spec: GameSpec, strategy: DefenderStrategy, action: AttackerAction
) -> float:
    """Attacker's expected utility for a pure action against ``strategy``."""
    return utilities(spec, summarize(spec, strategy), action)[1]


def defender_utility(
    spec: GameSpec, strategy: DefenderStrategy, action: AttackerAction
) -> float:
    """Defender's expected utility: negated attack value minus honey cost."""
    return utilities(spec, summarize(spec, strategy), action)[0]


def validate_attacker_dist(
    spec: GameSpec, attacker_dist: Mapping[AttackerAction, float]
) -> None:
    """Check that ``attacker_dist`` is a probability distribution over
    no-attack and attackable types."""
    attackable = set(spec.attackable_ids)
    total = 0.0
    for action, prob in attacker_dist.items():
        if prob < -PROB_TOL:
            raise DistributionError(f"negative probability {prob} for {action}")
        if action.is_attack and action.target not in attackable:
            raise DistributionError(f"{action} targets an unattackable type")
        total += prob
    if abs(total - 1.0) > PROB_TOL:
        raise DistributionError(f"attacker distribution sums to {total}, not 1")


def utility_vs_mixed_attacker(
    spec: GameSpec,
    strategy: DefenderStrategy,
    attacker_dist: Mapping[AttackerAction, float],
) -> tuple[float, float]:
    """Expected (defender, attacker) utilities against a mixed attacker.

    ``attacker_dist`` maps actions (no-attack and/or attackable types) to
    probabilities summing to 1. The honey-cost term is counted exactly once
    because each pure defender utility carries it and the weights sum to 1.
    """
    validate_attacker_dist(spec, attacker_dist)
    summary = summarize(spec, strategy)
    d_total = 0.0
    a_total = 0.0
    for action, prob in attacker_dist.items():
        if prob == 0.0:
            continue
        d_val, a_val = utilities(spec, summary, action)
        d_total += prob * d_val
        a_total += prob * a_val
    return d_total, a_total


# --- JSON wire format -------------------------------------------------------

_TYPE_FIELDS = {
    "attacker_real_value",
    "attacker_honey_value",
    "real_flows",
    "honey_flow_bound",
    "cost_per_flow",
}


def _number(raw: Mapping, field: str, idx: int) -> float:
    """A JSON number as float; null, bools, strings and overflow are rejected
    (finiteness is checked when the GameSpec is built)."""
    value = raw[field]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValidationError(
        f"type {idx}: {field} must be a finite number, got {value!r}"
    )


def spec_from_dict(payload: Mapping) -> GameSpec:
    """Build and validate a GameSpec from the JSON wire representation.

    Expected shape: ``{"types": [{"attacker_real_value": ..,
    "attacker_honey_value": .., "real_flows": .., "honey_flow_bound": ..,
    "cost_per_flow": ..}, ...]}``. Unknown fields are rejected.
    """
    if not isinstance(payload, Mapping):
        raise ValidationError("game spec must be a JSON object")
    unknown = set(payload) - {"types"}
    if unknown:
        raise ValidationError(f"unknown top-level fields: {sorted(unknown)}")
    raw_types = payload.get("types")
    if not isinstance(raw_types, Collection) or isinstance(raw_types, (str, bytes)):
        raise ValidationError('"types" must be a list of type objects')
    if len(raw_types) > MAX_TYPES:
        raise ValidationError(
            f"game has {len(raw_types)} types, more than the cap of {MAX_TYPES}"
        )
    types = []
    for idx, raw in enumerate(raw_types):
        if not isinstance(raw, Mapping):
            raise ValidationError(f"type {idx} must be a JSON object")
        unknown = set(raw) - _TYPE_FIELDS
        if unknown:
            raise ValidationError(f"type {idx}: unknown fields {sorted(unknown)}")
        missing = _TYPE_FIELDS - set(raw)
        if missing:
            raise ValidationError(f"type {idx}: missing fields {sorted(missing)}")
        for int_field in ("real_flows", "honey_flow_bound"):
            if not isinstance(raw[int_field], int) or isinstance(raw[int_field], bool):
                raise ValidationError(f"type {idx}: {int_field} must be an integer")
        types.append(
            VulnerabilityType(
                id=idx,
                attacker_real_value=_number(raw, "attacker_real_value", idx),
                attacker_honey_value=_number(raw, "attacker_honey_value", idx),
                real_flow_count=raw["real_flows"],
                honey_flow_bound=raw["honey_flow_bound"],
                honey_flow_cost=_number(raw, "cost_per_flow", idx),
            )
        )
    return GameSpec(tuple(types))


def spec_to_dict(spec: GameSpec) -> dict:
    """Inverse of spec_from_dict."""
    return {
        "types": [
            {
                "attacker_real_value": t.attacker_real_value,
                "attacker_honey_value": t.attacker_honey_value,
                "real_flows": t.real_flow_count,
                "honey_flow_bound": t.honey_flow_bound,
                "cost_per_flow": t.honey_flow_cost,
            }
            for t in spec.types
        ]
    }


def load_spec(path: str) -> GameSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_dict(json.load(fh))


def dump_spec(spec: GameSpec, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(spec_to_dict(spec)))


_ENCODE = json.JSONEncoder(allow_nan=False).encode


def to_json(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``, byte for
    byte, but mostly through the C encoder (``json.dumps`` falls back to
    pure Python whenever ``indent`` is set). Dict keys must be str. NaN
    and infinities raise ValueError instead of printing as ``NaN``."""
    return _indented(payload, "\n") + "\n"


def _indented(value, newline: str) -> str:
    """``value`` as indented JSON; ``newline`` is a line break followed by
    the indent of the line that ``value`` starts on."""
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        if not all(isinstance(key, str) for key in value):
            raise TypeError("JSON object keys must be str")
        items = (_ENCODE(k) + ": " + _indented(v, inner) for k, v in sorted(value.items()))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if not isinstance(value[0], (str, dict, list, tuple)):
            # Numbers, bools and nulls encode without a quote, bracket or
            # ", ", so one flat C encode splits cleanly into the items.
            flat = _ENCODE(value)[1:-1]
            if not any(c in flat for c in '"[{'):
                return "[" + inner + flat.replace(", ", "," + inner) + newline + "]"
        items = (_indented(v, inner) for v in value)
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return _ENCODE(value)
