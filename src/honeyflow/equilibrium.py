"""Strong leader-follower equilibrium by an exact water-level search.

A type reaches both players only through its real-hit probability and its
expected honey count. Let u_m(j) be the attacker's value of attacking type
m with j honey flows up (nonincreasing in j), and C_m(tau) the cheapest
expected honey cost that holds u_m at or below tau: it mixes the two
adjacent counts around tau. Holding the attacker at level tau is then
worth V(tau) = -tau - sum_m C_m(tau) to the defender, whichever type is
attacked. V is concave and piecewise linear with kinks at the u_m(j), so
its maximizer tau* over [L, inf), L = max(0, max_m u_m(H_m)), is the
smallest kink (or L) at which V's right slope is <= 0. Attacking k can be
held at any level in [L, u_k(0)] and is worth V(min(tau*, u_k(0)));
declining is worth V(0) when L = 0. This is ORIGAMI-style water filling
(Kiekintveld et al., AAMAS 2009) in place of one LP per attacker action
(Conitzer and Sandholm, EC 2006).

The solver's steps are ``cost_curve``, ``CostCurve.water_level``,
``_value`` and ``strategy_at``, called through the module. ``cost_curve``
builds the game's curves and all the tau* search needs but the costs;
only tau* depends on the costs, through V's right slope. ``water_level``
is a binary search over the candidate levels whose probes memoize each
curve's segment width, so a game solved at many costs looks each level up
once. ``_hold`` alone finds the segment that holds a curve at a level.
``build_best_response_lp`` and the simplex behind ``solve_lp`` are no
longer on the solve path; the tests keep them as a reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .game import (
    BEST_RESPONSE_TOL,
    NO_ATTACK,
    TIE_TOL,
    AttackerAction,
    DefenderStrategy,
    GameSpec,
    Summary,
    first_best,
    summarize,
    utilities,
)
from .lp import LinearProgram, solve_lp  # noqa: F401  (perfbench wraps equilibrium.solve_lp)


@dataclass(frozen=True)
class Equilibrium:
    strategy: DefenderStrategy
    summary: Summary  # summarize(spec, strategy), which scored the values
    attacker_action: AttackerAction
    defender_value: float
    attacker_value: float
    per_action_values: dict[AttackerAction, tuple[str, float | None]]


@dataclass(frozen=True)
class CostCurve:
    """A game's attacker-value curves, and what the tau* search needs of
    them but the costs.

    ``curves`` are the attackable types' (type id, u(0..H)) pairs by id,
    and ``levels`` are L and the distinct kinks above it, ascending, so
    ``levels[0]`` is L. ``widths[k]`` holds ``_hold``'s width of each
    curve at ``levels[k]``. It is filled the first time a search probes
    level k, and every cost searched on this curve shares it.
    """

    curves: tuple[tuple[int, np.ndarray], ...]
    levels: np.ndarray
    widths: dict[int, list[float]]

    def water_level(self, costs: Sequence[float]) -> float:
        """tau* at one cost per curve: the smallest level at which V's
        right slope, -1 + sum_m c_m / (u_m(j-1) - u_m(j)) over the segments
        holding it, is <= 0.

        V is concave, so the slope falls as tau rises; a binary search
        probes the levels. The slope is summed in curve order in Python
        floats, which give inf on overflow, not a warning. Its sign
        decides, never a tolerance on V. At the top level no type needs
        honey, so the slope there is -1.
        """
        lo, hi = 0, self.levels.size - 1
        while lo < hi:
            mid = (lo + hi) // 2
            widths = self.widths.get(mid)
            if widths is None:
                tau = float(self.levels[mid])
                widths = self.widths[mid] = [_hold(u, tau)[2] for _, u in self.curves]
            slope = -1.0
            for cost, width in zip(costs, widths):
                slope += cost / width
            if slope <= 0.0:
                hi = mid
            else:
                lo = mid + 1
        return float(self.levels[lo])


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


def _layout(spec: GameSpec) -> tuple[np.ndarray, int]:
    """Column offsets of each type's probability block, and the width."""
    sizes = [t.honey_flow_bound + 1 for t in spec.types]
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(int)
    return offsets, int(sum(sizes))


def build_best_response_lp(spec: GameSpec, fixed: AttackerAction) -> LinearProgram:
    """LP over all marginal probabilities with ``fixed`` forced optimal.

    Variables are the per-type honey-count probabilities. The objective is
    the defender's expected utility against ``fixed`` (attack term plus the
    expected-cost term, both linear). One equality row per type normalizes
    its marginal; one inequality row per rival action keeps the attacker's
    utility for ``fixed`` at least as large. Variables live in [0, 1].
    The solver does not use it: it is the reference the tests check
    ``solve_stackelberg``'s per-action statuses and values against.
    """
    if fixed.is_attack and fixed.target not in spec.attackable_ids:
        raise ValidationError(f"{fixed} targets an unattackable type")

    offsets, width = _layout(spec)
    c = np.zeros(width)
    for t in spec.types:
        js = np.arange(t.honey_flow_bound + 1, dtype=float)
        c[offsets[t.id] : offsets[t.id] + js.size] = -js * t.honey_flow_cost
    if fixed.is_attack:
        k = fixed.target
        sl = slice(offsets[k], offsets[k] + spec.types[k].honey_flow_bound + 1)
        c[sl] += -spec.attack_values[k]

    eq_rows = np.zeros((len(spec.types), width))
    for t in spec.types:
        eq_rows[t.id, offsets[t.id] : offsets[t.id] + t.honey_flow_bound + 1] = 1.0
    eq_rhs = np.ones(len(spec.types))

    rivals = [a for a in spec.actions if a != fixed]
    ineq_rows = np.zeros((len(rivals), width))
    for row, rival in enumerate(rivals):
        if rival.is_attack:
            m = rival.target
            sl = slice(offsets[m], offsets[m] + spec.types[m].honey_flow_bound + 1)
            ineq_rows[row, sl] += spec.attack_values[m]
        if fixed.is_attack:
            k = fixed.target
            sl = slice(offsets[k], offsets[k] + spec.types[k].honey_flow_bound + 1)
            ineq_rows[row, sl] -= spec.attack_values[k]
    ineq_rhs = np.zeros(len(rivals))

    return LinearProgram(
        objective=c,
        eq_rows=eq_rows,
        eq_rhs=eq_rhs,
        ineq_rows=ineq_rows,
        ineq_rhs=ineq_rhs,
        upper=np.ones(width),
    )


def _hold(u: np.ndarray, tau: float) -> tuple[int, float, float]:
    """The cheapest way to hold u at or below ``tau``: counts j-1 and j
    with weight w on j, and the segment's width u(j-1) - u(j); or
    (0, 1.0, inf) when no honey is needed.

    j is the first count with u(j) <= tau + TIE_TOL, which lets a curve
    that is constant up to rounding count as held at its own value. Callers
    keep tau >= u(H) - TIE_TOL, so j exists, and the width is > 0 if j > 0.
    j counts the u(j) above tau + TIE_TOL, found in the reversed view, so
    no copy of u is made.
    """
    j = u.size - int(u[::-1].searchsorted(tau + TIE_TOL, side="right"))
    if j == 0:
        return 0, 1.0, math.inf
    # Python floats: an overflowing weight gives inf (capped at 1), not a warning.
    above, below = u[j - 1 : j + 1].tolist()
    width = above - below
    return j, min((above - tau) / width, 1.0), width


def _value(curve: CostCurve, costs: Sequence[float], tau: float) -> float:
    """V(tau): the defender's value of holding the attacker at ``tau``."""
    total = -tau
    for (_, u), cost in zip(curve.curves, costs):
        j, w, _ = _hold(u, tau)
        if j > 0:
            total -= cost * (j - 1 + w)
    return total


def cost_curve(spec: GameSpec) -> CostCurve:
    """The curves of ``spec`` and the cost-free part of the tau* search,
    with an empty width memo. Rounding can leave a curve that is constant
    in exact arithmetic a few ulps out of order; the running minimum keeps
    every curve nonincreasing, as ``_hold`` needs. L is never below 0."""
    curves = tuple(
        (i, np.minimum.accumulate(spec.attack_values[i])) for i in spec.attackable_ids
    )
    low = max([0.0] + [float(u[-1]) for _, u in curves])
    levels = np.unique(np.concatenate([[low]] + [u for _, u in curves]))
    return CostCurve(curves=curves, levels=levels[levels >= low], widths={})


def strategy_at(spec: GameSpec, curve: CostCurve, tau: float) -> DefenderStrategy:
    """The cheapest strategy holding every type at or below ``tau``: each
    type mixes the two adjacent counts around it."""
    marginals = [np.zeros(t.honey_flow_bound + 1) for t in spec.types]
    for m in marginals:
        m[0] = 1.0  # unattackable types, and those held without honey
    for type_id, u in curve.curves:
        j, w, _ = _hold(u, tau)
        if j > 0:
            m = marginals[type_id]
            m[0] = 0.0
            m[j - 1] = 1.0 - w
            m[j] = w
    return DefenderStrategy(tuple(marginals))


def solve_stackelberg(spec: GameSpec, curve: CostCurve | None = None) -> Equilibrium:
    """Strong Stackelberg equilibrium of the honey-flow game.

    Finds tau* with ``curve.water_level``, then values every attacker
    action: attacking k is infeasible when u_k(0) < L (no strategy makes
    it a best response), and declining is infeasible when L > 0, both up
    to ``TIE_TOL``. ``first_best`` picks the action. The strategy is taken
    at the chosen action's own level, and the reported values are scored
    from it.

    ``curve`` is ``cost_curve`` of ``spec``, or of a game that differs
    from it at most in its costs; one is built when it is None. A curve
    shared across a game's costs shares its width memo.
    """
    if curve is None:
        curve = cost_curve(spec)
    costs = [spec.types[type_id].honey_flow_cost for type_id, _ in curve.curves]
    low = float(curve.levels[0])
    top = curve.water_level(costs)
    levels = {
        AttackerAction.attack(type_id): min(top, float(u[0]))
        for type_id, u in curve.curves
        if u[0] >= low - TIE_TOL
    }
    if low <= TIE_TOL:
        levels[NO_ATTACK] = 0.0
    # Attacks held at tau* share V(tau*). No-attack (level 0.0) keeps its own
    # call, since a tau* of -0.0 would give V the other sign of zero.
    at_top = _value(curve, costs, top)
    values = {
        a: at_top if a.is_attack and tau == top else _value(curve, costs, tau)
        for a, tau in levels.items()
    }
    per_action = {
        a: ("optimal", values[a]) if a in values else ("infeasible", None)
        for a in spec.actions
    }
    # values is in action order: attacks by type id, then no-attack.
    action = first_best(list(values), list(values.values()))
    strategy = strategy_at(spec, curve, levels[action])
    summary = summarize(spec, strategy)
    defender_value, attacker_value = utilities(spec, summary, action)
    return Equilibrium(
        strategy=strategy,
        summary=summary,
        attacker_action=action,
        defender_value=defender_value,
        attacker_value=attacker_value,
        per_action_values=per_action,
    )


def verify_equilibrium(spec: GameSpec, eq: Equilibrium) -> VerificationReport:
    """Recompute everything the equilibrium claims and report residuals."""
    checks: list[CheckResult] = []

    residuals = [abs(float(m.sum()) - 1.0) for m in eq.strategy.marginals]
    # max() keeps a NaN only when it comes first; the sum keeps any NaN.
    norm_residual = math.nan if math.isnan(sum(residuals)) else max(residuals)
    checks.append(
        CheckResult("strategy-normalization", norm_residual <= BEST_RESPONSE_TOL, norm_residual)
    )

    # One pass over every row. Negation and "- 1.0" are exact, so this is
    # the largest per-row residual. np.min carries a NaN entry through, and
    # a NaN anywhere makes the residual NaN, which fails the check.
    flat = np.concatenate(eq.strategy.marginals)
    lowest = float(np.min(flat, initial=np.inf))
    highest = float(np.max(flat, initial=-np.inf))
    bound_residual = math.nan if math.isnan(lowest) else max(0.0, -lowest, highest - 1.0)
    checks.append(
        CheckResult("strategy-bounds", bound_residual <= BEST_RESPONSE_TOL, bound_residual)
    )

    def compare(name: str, residual: float, a: float, b: float) -> None:
        """A check of values a and b, with slack scaled to their size."""
        passed = residual <= BEST_RESPONSE_TOL * max(1.0, abs(a), abs(b))
        checks.append(CheckResult(name, passed, residual))

    summary = summarize(spec, eq.strategy)
    chosen_def, chosen_value = utilities(spec, summary, eq.attacker_action)
    best_value = max(utilities(spec, summary, a)[1] for a in spec.actions)
    compare("attacker-best-response", best_value - chosen_value, best_value, chosen_value)
    compare("defender-value-consistency", abs(chosen_def - eq.defender_value), chosen_def,
            eq.defender_value)
    compare("attacker-value-consistency", abs(chosen_value - eq.attacker_value), chosen_value,
            eq.attacker_value)
    return VerificationReport(tuple(checks))
