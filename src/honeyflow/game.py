"""Game data model and closed-form utility computations.

A game instance is a list of vulnerability types. The defender randomizes,
per type, over how many honey flows to create (a marginal distribution over
counts 0..H_i); the attacker targets one type or declines to attack. Attacks
draw a random flow of the chosen type, so the probability of hitting a real
flow when j honey flows are up is R_i / (j + R_i). A ``GameSpec`` checks
its types when it is built, so every function here can take it as valid,
and then tabulates each type's real-hit probabilities and attack values.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Collection, Mapping, Sequence

import numpy as np

from .errors import ShapeError, ValidationError

# The package's tolerances (the test oracles keep their own, on purpose).
# Utilities within TIE_TOL of the best count as tied. first_best breaks the
# tie by GameSpec.actions order: lowest type id first, no-attack last.
TIE_TOL = 1e-9

# Slack of the checks in equilibrium.verify_equilibrium. The marginal sums
# and bounds may miss by BEST_RESPONSE_TOL. The attacker's best-response gap
# and both value re-computations compare two values a and b, and may miss by
# BEST_RESPONSE_TOL * max(1, |a|, |b|): relative for large values, whose
# rounding alone can exceed any absolute slack, and absolute below 1.
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
# bound 5, cost 0.1; every type at tau*) solves in 0.05 s. The slowest
# game known fills the strategy-size cap too: 5 real flows and honey
# bound 4,095 on every type, one type (values 10 / -10, cost 10^6) that sets
# tau* = 10, and 1,023 types (real values in (1, 9), honey value 0, cost
# 0.1) whose u_k(0) all lie below tau*. It solves in 1.5 to 2.3 s. Larger
# games are rejected as bad input before any type is built.
MAX_TYPES = 1024

# Largest total of honey_flow_bound + 1 over a game's types, the number of
# probabilities a strategy holds, and of the floats in each of a spec's two
# per-type tables (hit probabilities and attack values). The two caps above
# bound one type and the type count, but together they allow 10^9 entries;
# this bounds them together (2^22 float64 entries are 32 MiB, so a spec at
# the cap holds 64 MiB of per-type tables, plus at most 8 MB of shared
# counts 0..max H) and still admits a single type at MAX_HONEY_FLOW_BOUND.
MAX_STRATEGY_SIZE = 2**22


@dataclass(frozen=True)
class VulnerabilityType:
    """One vulnerability type with its flow counts, values, and flow cost.

    The attacker gains ``attacker_real_value`` for hitting a real flow of
    this type and ``attacker_honey_value`` (possibly negative) for hitting a
    honey flow. The defender's values are the negated attacker values, which
    ``utilities`` negates where it needs them; the type has no defender
    fields. Only the honey-flow creation cost breaks the zero-sum structure.
    """

    id: int
    attacker_real_value: float
    attacker_honey_value: float
    real_flow_count: int
    honey_flow_bound: int
    honey_flow_cost: float


@dataclass(frozen=True)
class GameSpec:
    """An ordered collection of vulnerability types.

    Building one checks every type and spec invariant and raises
    ValidationError naming the first violated invariant and the offending
    type id, so a GameSpec that exists is valid. Then it tabulates, per
    type and for j = 0..H, ``hit_probabilities`` P(hit a real flow | j
    honey flows up) = R/(j+R), all zeros for a type with no real flows
    (the limit of R/(j+R)), and ``attack_values`` u(j) = p_j*v_real +
    (1-p_j)*v_honey. ``honey_counts`` holds the counts 0..max H as floats;
    a type's counts are its first H + 1. ``attackable_ids`` are the types
    that can carry at least one flow, real or honey, and ``actions`` the
    attacker's choices: the attackable types by id, then no-attack. All
    five are read-only and take no part in equality, hashing or repr.
    """

    types: tuple[VulnerabilityType, ...]
    hit_probabilities: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    attack_values: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    honey_counts: np.ndarray = field(init=False, repr=False, compare=False)
    attackable_ids: tuple[int, ...] = field(init=False, repr=False, compare=False)
    actions: tuple[AttackerAction, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "types", tuple(self.types))
        if not self.types:
            raise ValidationError("game must have at least one vulnerability type")
        for pos, t in enumerate(self.types):
            if t.id != pos:
                raise ValidationError(
                    f"type ids must be consecutive from 0; position {pos} has id {t.id}"
                )
            _check_type(t)
        size = sum(t.honey_flow_bound + 1 for t in self.types)
        if size > MAX_STRATEGY_SIZE:
            raise ValidationError(
                f"the types' honey_flow_bound + 1 add up to {size}, "
                f"more than the cap of {MAX_STRATEGY_SIZE}"
            )
        counts = np.arange(max(t.honey_flow_bound for t in self.types) + 1, dtype=float)
        hit, value = [], []
        for t in self.types:
            j, r = counts[: t.honey_flow_bound + 1], t.real_flow_count
            p = r / (j + r) if r else np.zeros(j.size)
            hit.append(p)
            value.append(p * t.attacker_real_value + (1.0 - p) * t.attacker_honey_value)
        for table in (counts, *hit, *value):
            table.setflags(write=False)
        object.__setattr__(self, "hit_probabilities", tuple(hit))
        object.__setattr__(self, "attack_values", tuple(value))
        object.__setattr__(self, "honey_counts", counts)
        ids = tuple(t.id for t in self.types if t.real_flow_count + t.honey_flow_bound > 0)
        object.__setattr__(self, "attackable_ids", ids)
        actions = tuple(AttackerAction.attack(i) for i in ids) + (NO_ATTACK,)
        object.__setattr__(self, "actions", actions)

    def with_cost(self, cost: float) -> "GameSpec":
        """The same types with every ``honey_flow_cost`` set to ``cost``.

        No table depends on a cost, so the result shares this spec's five
        read-only fields instead of building them again. A NaN, negative
        or infinite ``cost`` raises the ValidationError that building the
        spec would raise.
        """
        types = tuple(dataclasses.replace(t, honey_flow_cost=cost) for t in self.types)
        _check_type(types[0])  # only the cost can fail: the rest was checked
        spec = copy.copy(self)
        object.__setattr__(spec, "types", types)
        return spec


def _check_type(t: VulnerabilityType) -> None:
    """Raise ValidationError naming the first invariant ``t`` violates
    (all but its id's position, which the spec checks)."""
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

    @property
    def is_attack(self) -> bool:
        return self.target is not None

    def __str__(self) -> str:
        return "no-attack" if self.target is None else f"attack({self.target})"


NO_ATTACK = AttackerAction()


def first_best(actions: Sequence[AttackerAction], values: Sequence[float]) -> AttackerAction:
    """The first of ``actions`` whose value is within TIE_TOL of the best;
    ``actions`` come in ``GameSpec.actions`` order."""
    best = max(values)
    return next(a for a, v in zip(actions, values) if v >= best - TIE_TOL)


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
    for t, m, p in zip(spec.types, strategy.marginals, spec.hit_probabilities):
        hit.append(float(m @ p))
        cost += float(m @ spec.honey_counts[: m.size]) * t.honey_flow_cost
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
        p * -vt.attacker_real_value + (1.0 - p) * -vt.attacker_honey_value - cost,
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
    if not isinstance(raw_types, Collection) or isinstance(raw_types, (str, bytes, Mapping)):
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


_ENCODE = json.JSONEncoder(allow_nan=False).encode


def to_json(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``, byte for
    byte, but mostly through the C encoder (``json.dumps`` falls back to
    pure Python whenever ``indent`` is set). Dict keys must be str. NaN
    and infinities raise ValueError instead of printing as ``NaN``.

    A 1-D float64 array is written byte for byte as its ``tolist()``, in
    time that grows with its nonzero entries; any other array raises
    TypeError, as ``json.dumps`` does for every array."""
    return _indented(payload, "\n") + "\n"


def _indented(value, newline: str) -> str:
    """``value`` as indented JSON; ``newline`` is a line break followed by
    the indent of the line that ``value`` starts on."""
    inner = newline + "  "
    if isinstance(value, np.ndarray):
        return _indented_array(value, newline)
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
        items = (_indented(v, inner) for v in value)
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return _ENCODE(value)


def _indented_array(row: np.ndarray, newline: str) -> str:
    """``_indented(row.tolist(), newline)`` for a 1-D float64 ``row``.
    Only the entries other than +0.0 go through the encoder, in one call;
    the +0.0 runs between them print as repeated ``"0.0"`` items."""
    if row.ndim != 1 or row.dtype != np.float64:
        raise TypeError(f"only 1-D float64 arrays are JSON serializable, got "
                        f"{row.ndim}-D {row.dtype}")
    if not row.size:
        return "[]"
    inner = newline + "  "
    sep = "," + inner
    zero = "0.0" + sep
    # -0.0 prints as "-0.0", and NaN and infinities must reach the encoder
    # to raise, so the encoder gets every entry whose bits are not +0.0's.
    at = np.flatnonzero((row != 0.0) | np.signbit(row))
    texts = _ENCODE(row[at].tolist())[1:-1].split(", ")
    parts = []
    start = 0
    for i, text in zip(at.tolist(), texts):
        parts += (zero * (i - start), text, sep)
        start = i + 1
    parts.append(zero * (row.size - start))
    return "[" + inner + "".join(parts)[: -len(sep)] + newline + "]"
