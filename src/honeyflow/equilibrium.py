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

The solver's steps are module functions, called through the module:
``type_curves``, ``water_level`` and ``strategy_at``.
``build_best_response_lp`` and the simplex behind ``solve_lp`` are no
longer on the solve path; the tests keep them as a reference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .game import (
    BEST_RESPONSE_TOL,
    NO_ATTACK,
    TIE_TOL,
    AttackerAction,
    DefenderStrategy,
    GameSpec,
    attack_values,
    summarize,
    utilities,
)
from .lp import LinearProgram, solve_lp  # noqa: F401  (perfbench wraps equilibrium.solve_lp)

# (type id, u(0..H), cost per honey flow) of one attackable type.
Curve = tuple[int, np.ndarray, float]


@dataclass(frozen=True)
class Equilibrium:
    strategy: DefenderStrategy
    attacker_action: AttackerAction
    defender_value: float
    attacker_value: float
    per_action_values: dict[AttackerAction, tuple[str, float | None]]
    solve_time: float


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
    attackable = spec.attackable_ids
    if fixed.is_attack and fixed.target not in attackable:
        raise ValidationError(f"{fixed} targets an unattackable type")

    offsets, width = _layout(spec)
    c = np.zeros(width)
    for t in spec.types:
        js = np.arange(t.honey_flow_bound + 1, dtype=float)
        c[offsets[t.id] : offsets[t.id] + js.size] = -js * t.honey_flow_cost
    if fixed.is_attack:
        k = fixed.target
        sl = slice(offsets[k], offsets[k] + spec.types[k].honey_flow_bound + 1)
        c[sl] += -attack_values(spec.types[k])

    eq_rows = np.zeros((len(spec.types), width))
    for t in spec.types:
        eq_rows[t.id, offsets[t.id] : offsets[t.id] + t.honey_flow_bound + 1] = 1.0
    eq_rhs = np.ones(len(spec.types))

    rivals = [AttackerAction.attack(i) for i in attackable if AttackerAction.attack(i) != fixed]
    if fixed != NO_ATTACK:
        rivals.append(NO_ATTACK)
    ineq_rows = np.zeros((len(rivals), width))
    for row, rival in enumerate(rivals):
        if rival.is_attack:
            m = rival.target
            sl = slice(offsets[m], offsets[m] + spec.types[m].honey_flow_bound + 1)
            ineq_rows[row, sl] += attack_values(spec.types[m])
        if fixed.is_attack:
            k = fixed.target
            sl = slice(offsets[k], offsets[k] + spec.types[k].honey_flow_bound + 1)
            ineq_rows[row, sl] -= attack_values(spec.types[k])
    ineq_rhs = np.zeros(len(rivals))

    return LinearProgram(
        objective=c,
        eq_rows=eq_rows,
        eq_rhs=eq_rhs,
        ineq_rows=ineq_rows,
        ineq_rhs=ineq_rhs,
        upper=np.ones(width),
    )


def type_curves(spec: GameSpec) -> list[Curve]:
    """The attacker-value curve u(0..H) and cost of every attackable type.

    Rounding can leave a curve that is constant in exact arithmetic (equal
    real and honey values) a few ulps out of order; the running minimum
    keeps every curve nonincreasing, which the lookups below rely on.
    """
    return [
        (t.id, np.minimum.accumulate(attack_values(t)), t.honey_flow_cost)
        for t in spec.types
        if t.real_flow_count + t.honey_flow_bound > 0
    ]


def _hold(u: np.ndarray, tau: float) -> tuple[int, float]:
    """The cheapest way to hold u at or below ``tau``: counts j-1 and j
    with weight w on j, or (0, 1.0) when no honey is needed.

    j is the first count with u(j) <= tau + TIE_TOL, which lets a curve
    that is constant up to rounding count as held at its own value. Callers
    keep tau >= u(H) - TIE_TOL, so j exists, and u(j-1) - u(j) > 0 if j > 0.
    """
    j = int(np.searchsorted(-u, -(tau + TIE_TOL)))
    if j == 0:
        return 0, 1.0
    return j, min(float((u[j - 1] - tau) / (u[j - 1] - u[j])), 1.0)


def _value(curves: list[Curve], tau: float) -> float:
    """V(tau): the defender's value of holding the attacker at ``tau``."""
    total = -tau
    for _, u, cost in curves:
        j, w = _hold(u, tau)
        if j > 0:
            total -= cost * (j - 1 + w)
    return total


def water_level(curves: list[Curve], low: float) -> float:
    """tau*: the smallest level >= ``low`` at which V's right slope,
    -1 + sum_m c_m / (u_m(j-1) - u_m(j)) over the segments holding tau, is
    <= 0.

    V is concave, so the slope falls as tau rises; a binary search over
    ``low`` and the kinks above it looks each type up once per probe. The
    slope's sign decides, never a tolerance on V.
    """

    def right_slope(tau: float) -> float:
        slope = -1.0
        for _, u, cost in curves:
            j, _ = _hold(u, tau)
            if j > 0:
                # A Python float divide: it gives inf on overflow, not a warning.
                slope += cost / float(u[j - 1] - u[j])
        return slope

    candidates = np.unique(np.concatenate([[low]] + [u for _, u, _ in curves]))
    candidates = candidates[candidates >= low]
    # At the top kink no type needs honey, so the slope there is -1.
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if right_slope(float(candidates[mid])) <= 0.0:
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[lo])


def strategy_at(spec: GameSpec, curves: list[Curve], tau: float) -> DefenderStrategy:
    """The cheapest strategy holding every type at or below ``tau``: each
    type mixes the two adjacent counts around it."""
    marginals = [np.zeros(t.honey_flow_bound + 1) for t in spec.types]
    for m in marginals:
        m[0] = 1.0  # unattackable types, and those held without honey
    for type_id, u, _ in curves:
        j, w = _hold(u, tau)
        if j > 0:
            m = marginals[type_id]
            m[0] = 0.0
            m[j - 1] = 1.0 - w
            m[j] = w
    return DefenderStrategy(tuple(marginals))


def solve_stackelberg(spec: GameSpec) -> Equilibrium:
    """Strong Stackelberg equilibrium of the honey-flow game.

    Finds tau* with ``water_level``, then values every attacker action:
    attacking k is infeasible when u_k(0) < L (no strategy makes it a best
    response), and declining is infeasible when L > 0, both up to
    ``TIE_TOL``. Values within ``TIE_TOL`` of the best tie; ties go to the
    lowest type id, with no-attack considered last. The strategy is taken
    at the chosen action's own level, and the reported values are scored
    from it.
    """
    start = time.perf_counter()
    curves = type_curves(spec)
    low = max([0.0] + [float(u[-1]) for _, u, _ in curves])
    top = water_level(curves, low)
    levels = {
        AttackerAction.attack(type_id): min(top, float(u[0]))
        for type_id, u, _ in curves
        if u[0] >= low - TIE_TOL
    }
    if low <= TIE_TOL:
        levels[NO_ATTACK] = 0.0
    # Attacks held at tau* share V(tau*). No-attack (level 0.0) keeps its own
    # call, since a tau* of -0.0 would give V the other sign of zero.
    at_top = _value(curves, top)
    values = {
        a: at_top if a.is_attack and tau == top else _value(curves, tau)
        for a, tau in levels.items()
    }
    actions = [AttackerAction.attack(type_id) for type_id, _, _ in curves] + [NO_ATTACK]
    per_action = {
        a: ("optimal", values[a]) if a in values else ("infeasible", None)
        for a in actions
    }
    best = max(values.values())
    action = next(a for a in actions if a in values and values[a] >= best - TIE_TOL)
    strategy = strategy_at(spec, curves, levels[action])
    elapsed = time.perf_counter() - start
    defender_value, attacker_value = utilities(spec, summarize(spec, strategy), action)
    return Equilibrium(
        strategy=strategy,
        attacker_action=action,
        defender_value=defender_value,
        attacker_value=attacker_value,
        per_action_values=per_action,
        solve_time=elapsed,
    )


def verify_equilibrium(spec: GameSpec, eq: Equilibrium) -> VerificationReport:
    """Recompute everything the equilibrium claims and report residuals."""
    checks: list[CheckResult] = []

    norm_residual = max(
        abs(float(m.sum()) - 1.0) for m in eq.strategy.marginals
    )
    checks.append(
        CheckResult("strategy-normalization", norm_residual <= BEST_RESPONSE_TOL, norm_residual)
    )

    bound_residual = 0.0
    for m in eq.strategy.marginals:
        bound_residual = max(
            bound_residual, float(np.max(-m, initial=0.0)), float(np.max(m - 1.0, initial=0.0))
        )
    checks.append(
        CheckResult("strategy-bounds", bound_residual <= BEST_RESPONSE_TOL, bound_residual)
    )

    summary = summarize(spec, eq.strategy)
    chosen_def, chosen_value = utilities(spec, summary, eq.attacker_action)
    rivals = [AttackerAction.attack(i) for i in spec.attackable_ids] + [NO_ATTACK]
    br_residual = max(utilities(spec, summary, a)[1] - chosen_value for a in rivals)
    checks.append(
        CheckResult("attacker-best-response", br_residual <= BEST_RESPONSE_TOL, br_residual)
    )

    def_residual = abs(chosen_def - eq.defender_value)
    checks.append(
        CheckResult("defender-value-consistency", def_residual <= BEST_RESPONSE_TOL, def_residual)
    )

    att_residual = abs(chosen_value - eq.attacker_value)
    checks.append(
        CheckResult("attacker-value-consistency", att_residual <= BEST_RESPONSE_TOL, att_residual)
    )
    return VerificationReport(tuple(checks))
