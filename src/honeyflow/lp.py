"""Dense two-phase simplex solver for small, wide linear programs.

Maximizes c.x subject to equality rows, <= rows, and per-variable bounds
[0, u] (u optional). Upper bounds are handled natively by the bounded-
variable pivot rules rather than extra rows, so an LP with thousands of
box-bounded columns and a handful of rows stays a handful of rows. The
pivot loop lives in ``_kernels``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import AT_LOWER, AT_UPPER, BASIC
from .errors import SolverError, ValidationError

FEASIBILITY_TOL = 1e-8
OPTIMALITY_TOL = 1e-9

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """max objective.x subject to eq/ineq rows and 0 <= x <= upper."""

    objective: np.ndarray
    eq_rows: np.ndarray | None = None
    eq_rhs: np.ndarray | None = None
    ineq_rows: np.ndarray | None = None
    ineq_rhs: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self) -> None:
        c = np.asarray(self.objective, dtype=float)
        n = c.shape[0]

        def rows(a, b, label):
            a = (
                np.zeros((0, n))
                if a is None
                else np.asarray(a, dtype=float).reshape(-1, n)
            )
            b = np.zeros(0) if b is None else np.atleast_1d(np.asarray(b, float))
            if a.shape[0] != b.shape[0]:
                raise ValidationError(
                    f"{label}: {a.shape[0]} rows but {b.shape[0]} right-hand sides"
                )
            if not np.all(np.isfinite(a)) or not np.all(np.isfinite(b)):
                raise ValidationError(f"{label}: coefficients must be finite")
            return a, b

        aeq, beq = rows(self.eq_rows, self.eq_rhs, "eq constraints")
        aub, bub = rows(self.ineq_rows, self.ineq_rhs, "ineq constraints")
        if not np.all(np.isfinite(c)):
            raise ValidationError("objective coefficients must be finite")
        u = (
            np.full(n, np.inf)
            if self.upper is None
            else np.asarray(self.upper, dtype=float)
        )
        if u.shape != (n,):
            raise ValidationError(f"upper bounds: expected length {n}, got {u.shape}")
        if np.any(np.isnan(u)):
            raise ValidationError("upper bounds must not be NaN")
        for name, val in (
            ("objective", c),
            ("eq_rows", aeq),
            ("eq_rhs", beq),
            ("ineq_rows", aub),
            ("ineq_rhs", bub),
            ("upper", u),
        ):
            object.__setattr__(self, name, val)

    @property
    def num_vars(self) -> int:
        return self.objective.shape[0]


@dataclass(frozen=True)
class LpSolution:
    status: str
    x: np.ndarray | None
    objective_value: float | None
    iterations: int


def _price_out(c_full: np.ndarray, T: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Reduced costs of ``c_full`` given the current basis."""
    d = c_full.copy()
    cb = c_full[basis]
    if np.any(cb != 0.0):
        d -= cb @ T
    return d


def _pivot(T, xb, basis, status, r: int, col: int) -> None:
    """Zero-step pivot used when expelling a basic artificial.

    Callers zero xb[r] first, so the entering variable (nonbasic at lower
    bound 0) comes in at value 0 and no other basic value moves; only the
    tableau transforms.
    """
    pivot_row = T[r] / T[r, col]
    factors = T[:, col].copy()
    for i in range(T.shape[0]):
        if i != r and factors[i] != 0.0:
            T[i] -= factors[i] * pivot_row
    T[r] = pivot_row
    status[basis[r]] = AT_LOWER
    status[col] = BASIC
    basis[r] = col


def solve_lp(lp: LinearProgram, max_iter: int | None = None) -> LpSolution:
    """Solve the LP, returning status, primal point, and objective value.

    Deterministic: identical inputs take identical pivot sequences and
    return bit-identical solutions. Infeasibility and unboundedness come
    back as statuses; only malformed input or an internal failure raises.
    """
    n = lp.num_vars
    if np.any(lp.upper < 0.0):
        return LpSolution(INFEASIBLE, None, None, 0)

    aeq, beq = lp.eq_rows, lp.eq_rhs
    aub, bub = lp.ineq_rows, lp.ineq_rhs
    m_eq, m_ub = aeq.shape[0], aub.shape[0]
    m = m_eq + m_ub
    n_slack = m_ub

    # Rows are normalized to nonnegative right-hand sides; a <= row whose
    # slack cannot start basic (negated rhs) gets an artificial like the
    # equality rows do.
    art_cols: list[int] = []
    rows = np.zeros((m, n + n_slack))
    rhs = np.zeros(m)
    basis = np.zeros(m, dtype=np.int64)
    needs_art = np.zeros(m, dtype=bool)
    for i in range(m_eq):
        sign = 1.0 if beq[i] >= 0 else -1.0
        rows[i, :n] = sign * aeq[i]
        rhs[i] = sign * beq[i]
        needs_art[i] = True
    for k in range(m_ub):
        i = m_eq + k
        sign = 1.0 if bub[k] >= 0 else -1.0
        rows[i, :n] = sign * aub[k]
        rows[i, n + k] = sign
        rhs[i] = sign * bub[k]
        if sign > 0:
            basis[i] = n + k
        else:
            needs_art[i] = True

    n_art = int(needs_art.sum())
    n_total = n + n_slack + n_art
    T = np.zeros((m, n_total))
    T[:, : n + n_slack] = rows
    next_art = n + n_slack
    for i in range(m):
        if needs_art[i]:
            T[i, next_art] = 1.0
            basis[i] = next_art
            art_cols.append(next_art)
            next_art += 1

    upper = np.concatenate([lp.upper, np.full(n_slack + n_art, np.inf)])
    status = np.full(n_total, AT_LOWER, dtype=np.int8)
    status[basis] = BASIC
    xb = rhs.copy()
    if max_iter is None:
        max_iter = 10_000 + 50 * (m + n_total)

    iterations = 0
    if n_art:
        c1 = np.zeros(n_total)
        c1[art_cols] = -1.0
        d1 = _price_out(c1, T, basis)
        code, it1 = _kernels.simplex_iterate(
            T, xb, d1, basis, status, upper, OPTIMALITY_TOL, max_iter
        )
        iterations += int(it1)
        if code == _kernels.ITERATION_LIMIT:
            raise SolverError("phase-1 pivot limit exceeded")
        if code == _kernels.UNBOUNDED:
            # phase-1 objective is bounded above by zero; reaching here
            # means the pivot state is corrupt
            raise SolverError("phase-1 reported unbounded")
        art_mask = np.zeros(n_total, dtype=bool)
        art_mask[art_cols] = True
        residual = float(xb[art_mask[basis]].sum())
        if residual > FEASIBILITY_TOL:
            return LpSolution(INFEASIBLE, None, None, iterations)
        # Expel any artificial still basic at zero; a row with no real
        # column to pivot on is redundant and keeps its artificial pinned.
        for r in np.nonzero(art_mask[basis])[0]:
            candidates = np.nonzero(
                (np.abs(T[r, : n + n_slack]) > 1e-9)
                & (status[: n + n_slack] == AT_LOWER)
            )[0]
            if candidates.size:
                best = candidates[int(np.argmax(np.abs(T[r, candidates])))]
                xb[r] = 0.0
                _pivot(T, xb, basis, status, int(r), int(best))
                iterations += 1
        upper[art_cols] = 0.0

    c_full = np.zeros(n_total)
    c_full[:n] = lp.objective
    d2 = _price_out(c_full, T, basis)
    code, it2 = _kernels.simplex_iterate(
        T, xb, d2, basis, status, upper, OPTIMALITY_TOL, max_iter
    )
    iterations += int(it2)
    if code == _kernels.ITERATION_LIMIT:
        raise SolverError("phase-2 pivot limit exceeded")
    if code == _kernels.UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None, iterations)

    x_full = np.where(status == AT_UPPER, upper, 0.0)
    x_full[basis] = xb
    x = x_full[:n].copy()

    worst = _max_violation(lp, x)
    if worst > FEASIBILITY_TOL:
        raise SolverError(f"solution violates constraints by {worst:.3e}")
    return LpSolution(OPTIMAL, x, float(lp.objective @ x), iterations)


def _max_violation(lp: LinearProgram, x: np.ndarray) -> float:
    """Largest absolute constraint/bound violation of a candidate point."""
    worst = 0.0
    if lp.eq_rows.shape[0]:
        worst = max(worst, float(np.max(np.abs(lp.eq_rows @ x - lp.eq_rhs))))
    if lp.ineq_rows.shape[0]:
        worst = max(worst, float(np.max(lp.ineq_rows @ x - lp.ineq_rhs)))
    worst = max(worst, float(np.max(-x, initial=0.0)))
    finite = np.isfinite(lp.upper)
    if np.any(finite):
        worst = max(worst, float(np.max(x[finite] - lp.upper[finite], initial=0.0)))
    return worst
