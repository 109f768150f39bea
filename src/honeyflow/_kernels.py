"""Hot numeric kernel for the simplex solver.

The pivot loop below is the package's dominant cost on large games (LPs
with a handful of rows and thousands of columns, re-solved many times).
It is plain NumPy: vectorized over the columns, one Python-level step per
pivot.
"""

from __future__ import annotations

import numpy as np

# Kernel exit codes.
OPTIMAL = 0
UNBOUNDED = 1
ITERATION_LIMIT = 2

# Variable status codes.
AT_LOWER = 0
AT_UPPER = 1
BASIC = 2

# Consecutive degenerate pivots tolerated before switching to Bland's rule.
_DEGEN_SWITCH = 40

# Pivot-eligibility and ratio-test tolerances (optimality tolerance is the
# caller's; feasibility drift stays orders of magnitude below the solver's
# 1e-8 contract).
_PIVOT_TOL = 1e-11
_TIE_TOL = 1e-11


def simplex_iterate(T, xb, d, basis, status, upper, opt_tol, max_iter):
    """Run bounded-variable simplex pivots in place until optimality.

    Maximizes the priced-out objective whose reduced costs are ``d``.
    Lower bounds are fixed at 0; nonbasic variables rest at a bound.

    T      : (m, n) tableau, basis-inverse times all constraint columns.
    xb     : (m,) current values of the basic variables.
    d      : (n,) reduced costs.
    basis  : (m,) variable index occupying each row.
    status : (n,) AT_LOWER / AT_UPPER / BASIC per variable.
    upper  : (n,) upper bounds (np.inf where unbounded).

    Entering rule: largest eligible reduced-cost magnitude, switching to
    Bland's smallest-index rule after a run of degenerate pivots
    (anti-cycling). Leaving rule: minimum ratio, ties broken by largest
    pivot magnitude (smallest basis index under Bland). Every tie resolves
    by lowest index, so a given input always pivots identically.

    Returns (exit_code, iterations).
    """
    m, n = T.shape
    bland = False
    degenerate_run = 0

    for it in range(max_iter):
        # Entering variable: from the lower bound a positive reduced cost
        # improves the objective, from the upper bound a negative one does.
        can_rise = (status == AT_LOWER) & (upper > 0.0) & (d > opt_tol)
        can_fall = (status == AT_UPPER) & (d < -opt_tol)
        gain = np.where(can_rise, d, 0.0) + np.where(can_fall, -d, 0.0)
        if bland:
            eligible = np.nonzero(gain > 0.0)[0]
            if eligible.size == 0:
                return OPTIMAL, it
            q = eligible[0]
        else:
            q = int(np.argmax(gain))
            if gain[q] <= 0.0:
                return OPTIMAL, it

        direction = 1.0 if status[q] == AT_LOWER else -1.0
        col = direction * T[:, q]

        # Ratio test: a unit step of the entering variable moves each basic
        # value by -col. Falling basics stop at 0, rising ones at their
        # upper bound; the entering variable's own span caps the step too
        # (a bound flip, handled without a pivot).
        ub_basic = upper[basis]
        falling = col > _PIVOT_TOL
        rising = (col < -_PIVOT_TOL) & (ub_basic != np.inf)
        ratios = np.full(m, np.inf)
        ratios = np.where(falling, xb / np.where(falling, col, 1.0), ratios)
        ratios = np.where(
            rising, (ub_basic - xb) / np.where(rising, -col, 1.0), ratios
        )
        ratios = np.maximum(ratios, 0.0)

        t_row = np.min(ratios) if m > 0 else np.inf
        if t_row == np.inf and upper[q] == np.inf:
            return UNBOUNDED, it

        if upper[q] <= t_row + _TIE_TOL:
            # Bound flip: the entering variable crosses to its other bound.
            step = upper[q]
            xb -= step * col
            status[q] = AT_UPPER if status[q] == AT_LOWER else AT_LOWER
            if step > _PIVOT_TOL:
                degenerate_run = 0
                bland = False
            else:
                degenerate_run += 1
                if degenerate_run > _DEGEN_SWITCH:
                    bland = True
            continue

        candidates = ratios <= t_row + _TIE_TOL
        if bland:
            key = np.where(candidates, basis.astype(np.float64), np.inf)
            r = int(np.argmin(key))
        else:
            score = np.where(candidates, np.abs(col), -1.0)
            r = int(np.argmax(score))

        if t_row <= _PIVOT_TOL:
            degenerate_run += 1
            if degenerate_run > _DEGEN_SWITCH:
                bland = True
        else:
            degenerate_run = 0
            bland = False

        # Pivot on (r, q): update basic values, normalize the pivot row,
        # eliminate the entering column elsewhere, update reduced costs.
        xb -= t_row * col
        enter_value = t_row if direction > 0.0 else upper[q] - t_row
        leaving = basis[r]
        leave_to_upper = col[r] < 0.0
        pivot_row = T[r] / T[r, q]
        factors = np.copy(T[:, q])
        for i in range(m):
            if i != r:
                f = factors[i]
                if f != 0.0:
                    T[i] -= f * pivot_row
        T[r] = pivot_row
        fd = d[q]
        if fd != 0.0:
            d -= fd * pivot_row
        status[leaving] = AT_UPPER if leave_to_upper else AT_LOWER
        status[q] = BASIC
        basis[r] = q
        xb[r] = enter_value

    return ITERATION_LIMIT, max_iter

