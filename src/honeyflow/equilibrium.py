"""Leader-follower equilibrium via one LP per attacker pure action.

For each candidate attacker action (every attackable type, plus no-attack)
we solve the LP that maximizes the defender's utility subject to that
action being an attacker best response; the equilibrium is the feasible
action with the best defender value. Enumerating actions this way replaces
the single mixed-integer formulation exactly and realizes the strong
(defender-favoring) tie-break automatically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import SolverError, ValidationError
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
    validate_game,
)
from .lp import OPTIMAL, LinearProgram, LpSolution, solve_lp


@dataclass(frozen=True)
class Equilibrium:
    strategy: DefenderStrategy
    attacker_action: AttackerAction
    defender_value: float
    attacker_value: float
    per_action_lp_values: dict[AttackerAction, tuple[str, float | None]]
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
    """
    validate_game(spec)
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
        c[sl] += -attack_values(spec.type_by_id(k))

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
            ineq_rows[row, sl] += attack_values(spec.type_by_id(m))
        if fixed.is_attack:
            k = fixed.target
            sl = slice(offsets[k], offsets[k] + spec.types[k].honey_flow_bound + 1)
            ineq_rows[row, sl] -= attack_values(spec.type_by_id(k))
    ineq_rhs = np.zeros(len(rivals))

    return LinearProgram(
        objective=c,
        eq_rows=eq_rows,
        eq_rhs=eq_rhs,
        ineq_rows=ineq_rows,
        ineq_rhs=ineq_rhs,
        upper=np.ones(width),
    )


def _strategy_from_x(spec: GameSpec, x: np.ndarray) -> DefenderStrategy:
    offsets, _ = _layout(spec)
    marginals = []
    for t in spec.types:
        m = np.clip(x[offsets[t.id] : offsets[t.id] + t.honey_flow_bound + 1], 0.0, 1.0)
        total = m.sum()
        if total <= 0.0:
            raise SolverError(f"type {t.id}: LP returned a zero marginal")
        marginals.append(m / total)
    return DefenderStrategy(tuple(marginals))


def solve_stackelberg(spec: GameSpec) -> Equilibrium:
    """Strong Stackelberg equilibrium of the honey-flow game.

    Solves one LP per candidate attacker action, skips infeasible ones
    (actions no defender strategy makes a best response), and keeps the
    action with the best defender objective. Objectives within ``TIE_TOL``
    of the best tie; ties go to the lowest type id, with no-attack
    considered last.
    """
    validate_game(spec)
    start = time.perf_counter()
    actions = [AttackerAction.attack(i) for i in spec.attackable_ids]
    actions.append(NO_ATTACK)

    solutions: list[LpSolution] = []
    for action in actions:
        try:
            solutions.append(solve_lp(build_best_response_lp(spec, action)))
        except SolverError:
            raise
        except Exception as exc:  # malformed-input bugs surface as SolverError
            raise SolverError(f"LP for {action} failed: {exc}") from exc

    per_action = {
        a: (sol.status, sol.objective_value) for a, sol in zip(actions, solutions)
    }
    feasible = [(a, sol) for a, sol in zip(actions, solutions) if sol.status == OPTIMAL]
    if not feasible:
        raise SolverError("no attacker action admits a feasible best-response LP")
    top = max(sol.objective_value for _, sol in feasible)
    action, sol = next(
        (a, sol) for a, sol in feasible if sol.objective_value >= top - TIE_TOL
    )
    strategy = _strategy_from_x(spec, sol.x)
    elapsed = time.perf_counter() - start
    defender_value, attacker_value = utilities(spec, summarize(spec, strategy), action)
    return Equilibrium(
        strategy=strategy,
        attacker_action=action,
        defender_value=defender_value,
        attacker_value=attacker_value,
        per_action_lp_values=per_action,
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
