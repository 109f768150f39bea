"""Independent brute-force oracles for the equilibrium solver.

Nothing here touches the LP machinery: values come from direct enumeration
over defender strategies plus an exhaustive attacker best response with the
defender-favoring tie-break.

Two reductions make exhaustive search exact and fast:

1. Cost-envelope lemma. Every utility except the cost depends on a type's
   marginal only through its real-hit probability P = E[R/(J+R)], and for a
   fixed P the cheapest marginal mixes two *adjacent* counts (j maps to
   p_j = R/(j+R) along a convex curve, so the lower hull of {(p_j, j)} is
   the chain of adjacent segments). Searching mixtures of adjacent pairs
   therefore loses nothing. `full_grid_stackelberg_value` double-checks the
   lemma on tiny games by enumerating entire probability simplexes.

2. Piecewise linearity. With the attacked type's pair fixed, the defender
   objective is piecewise linear in the mixing weight: rival types react to
   the attacker-utility level tau through piecewise-linear minimum-cost
   curves whose kinks sit where tau crosses one of their per-count attacker
   values. The maximum over the weight is then attained at an endpoint or
   a kink, so enumerating those finitely many candidates is exact.

`exact_equilibrium` judges the attacker side as well, with no tolerance at
all: it redoes the whole equilibrium in `fractions.Fraction` on the float
inputs, using the water-level form of the same lemma (see its docstring).

`scalar_flows` is the simulator's reference: the flow population drawn one
flow at a time with two scalar `Generator.integers` calls, over paths it
routes itself from the topology JSON, plus the observation counts and
per-switch honey rates read off those flows. `scalar_episodes` is the
episode loop's: each episode's attacked type and flow row from its own
`SeedSequence` child and `Generator`.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from fractions import Fraction

import numpy as np

from honeyflow.game import GameSpec

TIE_EPS = 1e-9


def _hit_probs(spec: GameSpec, i: int) -> np.ndarray:
    t = spec.types[i]
    j = np.arange(t.honey_flow_bound + 1, dtype=float)
    if t.real_flow_count == 0:
        return np.zeros(t.honey_flow_bound + 1)
    return t.real_flow_count / (j + t.real_flow_count)


def _attack_values(spec: GameSpec, i: int) -> np.ndarray:
    """u_i(j): attacker value for attacking type i with j honey flows up."""
    t = spec.types[i]
    p = _hit_probs(spec, i)
    return p * t.attacker_real_value + (1.0 - p) * t.attacker_honey_value


def _min_cost_at_level(spec: GameSpec, i: int, tau: float) -> float | None:
    """Cheapest expected honey cost for type i keeping u_i(phi) <= tau.

    None when even the full honey bound leaves the type too tempting.
    u_i is nonincreasing in the count, so scan up for the first count at or
    below tau and bind the constraint by mixing with its predecessor.
    """
    u = _attack_values(spec, i)
    cost = spec.types[i].honey_flow_cost
    if u[0] <= tau + TIE_EPS:
        return 0.0
    if u[-1] > tau + TIE_EPS:
        return None
    jstar = int(np.argmax(u <= tau + TIE_EPS))
    # Bind the constraint by mixing jstar-1 and jstar; u[jstar-1] > tau
    # >= u[jstar] - eps keeps the denominator positive.
    alpha = (u[jstar - 1] - tau) / (u[jstar - 1] - u[jstar])
    alpha = min(max(alpha, 0.0), 1.0)
    return cost * ((jstar - 1) + alpha)


def _attackable(spec: GameSpec) -> list[int]:
    return [t.id for t in spec.types if t.real_flow_count + t.honey_flow_bound > 0]


def _pair_candidates(spec: GameSpec, k: int) -> list[tuple[float, float]]:
    """(tau, own expected count) candidates for the attacked type k.

    Enumerates every adjacent count pair with mixing weights at endpoints
    and at every kink of the rivals' min-cost curves (tau crossing a rival
    per-count attacker value, or crossing zero for the no-attack rival).
    Only attackable rivals constrain the attacker.
    """
    u_k = _attack_values(spec, k)
    levels = sorted(
        {0.0}
        | {
            float(v)
            for m in _attackable(spec)
            if m != k
            for v in _attack_values(spec, m)
        }
    )
    out: list[tuple[float, float]] = []
    H = spec.types[k].honey_flow_bound
    for j in range(H + 1):
        out.append((float(u_k[j]), float(j)))
    for j in range(H):
        lo, hi = u_k[j + 1], u_k[j]
        if hi == lo:
            continue
        for level in levels:
            if min(lo, hi) < level < max(lo, hi):
                alpha = (u_k[j] - level) / (u_k[j] - u_k[j + 1])
                out.append((float(level), j + float(alpha)))
    return out


def exact_fixed_action_value(spec: GameSpec, k: int | None) -> float | None:
    """Best defender value with the attacker pinned to one action.

    ``k`` is a type id, or None for no-attack. Returns None when no
    defender strategy makes that action a best response. The attack
    component is zero-sum, so for an attack on k the objective is
    -tau - cost_k - sum of rival min-costs at level tau.
    """
    rivals = _attackable(spec)
    if k is None:
        total = 0.0
        for m in rivals:
            c = _min_cost_at_level(spec, m, 0.0)
            if c is None:
                return None
            total += c
        return -total

    cost_k = spec.types[k].honey_flow_cost
    best: float | None = None
    for tau, own_count in _pair_candidates(spec, k):
        if tau < -TIE_EPS:  # no-attack rival would win
            continue
        value = -tau - cost_k * own_count
        feasible = True
        for m in rivals:
            if m == k:
                continue
            c = _min_cost_at_level(spec, m, tau)
            if c is None:
                feasible = False
                break
            value -= c
        if feasible and (best is None or value > best):
            best = value
    return best


def exact_stackelberg_value(spec: GameSpec) -> float:
    """Defender's optimal commitment value by exhaustive action enumeration."""
    attackable = [
        t.id for t in spec.types if t.real_flow_count + t.honey_flow_bound > 0
    ]
    candidates = [exact_fixed_action_value(spec, k) for k in attackable]
    candidates.append(exact_fixed_action_value(spec, None))
    feasible = [v for v in candidates if v is not None]
    assert feasible, "no action can be made a best response"
    return max(feasible)


def _simplex_grid(length: int, steps: int):
    """All probability vectors of a given length on a 1/steps grid."""
    for cuts in itertools.combinations(range(steps + length - 1), length - 1):
        parts = []
        prev = -1
        for c in (*cuts, steps + length - 1):
            parts.append(c - prev - 1)
            prev = c
        yield np.array(parts, dtype=float) / steps


def full_grid_stackelberg_value(spec: GameSpec, steps: int) -> float:
    """Literal grid search over the joint strategy space of a tiny game.

    Enumerates the full Cartesian product of per-type simplex grids with
    an exhaustive strong-tie-break attacker response. Exponential; only
    for validating the structured oracle on very small instances.
    """
    n = len(spec.types)
    per_type_probs = [_hit_probs(spec, i) for i in range(n)]
    per_type_u = [_attack_values(spec, i) for i in range(n)]
    counts = [np.arange(t.honey_flow_bound + 1, dtype=float) for t in spec.types]
    costs = [t.honey_flow_cost for t in spec.types]
    attackable = [
        t.id for t in spec.types if t.real_flow_count + t.honey_flow_bound > 0
    ]

    best = -math.inf
    grids = [list(_simplex_grid(t.honey_flow_bound + 1, steps)) for t in spec.types]
    for marginals in itertools.product(*grids):
        total_cost = sum(float(m @ c) * ci for m, c, ci in zip(marginals, counts, costs))
        att_values = [float(marginals[i] @ per_type_u[i]) for i in range(n)]
        best_att = max([0.0] + [att_values[i] for i in attackable])
        # Strong tie-break: among best responses, the defender-kindest.
        defender_options = []
        if best_att <= TIE_EPS:
            defender_options.append(-total_cost)
        for i in attackable:
            if att_values[i] >= best_att - TIE_EPS:
                defender_options.append(-att_values[i] - total_cost)
        value = max(defender_options)
        if value > best:
            best = value
    return best


def pair_grid_fixed_action_value(
    spec: GameSpec, k: int, resolution: float = 0.01
) -> float | None:
    """Grid variant of the fixed-action oracle (mixing weights on a grid).

    Same adjacent-pair family as the exact oracle but with the attacked
    type's mixing weight limited to multiples of ``resolution``; rivals
    still bind exactly. Underestimates the optimum by at most the grid
    gap.
    """
    u_k = _attack_values(spec, k)
    cost_k = spec.types[k].honey_flow_cost
    H = spec.types[k].honey_flow_bound
    rivals = [m for m in _attackable(spec) if m != k]
    candidates: list[tuple[float, float]] = [
        (float(u_k[j]), float(j)) for j in range(H + 1)
    ]
    weights = np.arange(0.0, 1.0 + resolution / 2, resolution)
    for j in range(H):
        for alpha in weights:
            candidates.append(
                (
                    float((1 - alpha) * u_k[j] + alpha * u_k[j + 1]),
                    j + float(alpha),
                )
            )
    best: float | None = None
    for tau, own_count in candidates:
        if tau < -TIE_EPS:
            continue
        value = -tau - cost_k * own_count
        feasible = True
        for m in rivals:
            c = _min_cost_at_level(spec, m, tau)
            if c is None:
                feasible = False
                break
            value -= c
        if feasible and (best is None or value > best):
            best = value
    return best


def exact_equilibrium(spec: GameSpec) -> tuple[int | None, Fraction, Fraction]:
    """Strong equilibrium as (attacked type or None, attacker value,
    defender value), in exact rational arithmetic.

    With u_m(j) = (R v_real + j v_honey) / (R + j), let C_m(tau) be the
    cheapest expected honey cost that keeps type m's attack value at or
    below tau (mixing the two adjacent counts around tau), and
    L = max(0, max_m u_m(H_m)) the lowest level every type can be pushed
    to. Holding the attacker at level tau is worth
    V(tau) = -tau - sum_m C_m(tau) to the defender, whichever type is
    attacked, and attacking k can be held at tau exactly when
    L <= tau <= u_k(0). V is concave and piecewise linear with kinks at the
    u_m(j), so its maximizer over [L, inf) is the smallest of L and the
    kinks above L at which the right slope, -1 + sum_m c_m / (u_m(j-1) -
    u_m(j)) over the segments holding tau, is <= 0; a binary search per
    type finds it. Ties go to the lowest type id, no-attack last: the
    attacked type is the lowest k with u_k(0) >= tau*, else none.
    """
    curves = []  # (type id, u_m(0..H), cost per flow) for attackable types
    for t in spec.types:
        if t.real_flow_count + t.honey_flow_bound == 0:
            continue
        real = Fraction(t.attacker_real_value)
        honey = Fraction(t.attacker_honey_value)
        r = t.real_flow_count
        if r == 0:  # every flow is fake, whatever the count
            u = [honey] * (t.honey_flow_bound + 1)
        else:
            u = [(r * real + j * honey) / (r + j) for j in range(t.honey_flow_bound + 1)]
        curves.append((t.id, u, Fraction(t.honey_flow_cost)))

    def first_at_or_below(u: list[Fraction], tau: Fraction) -> int:
        lo, hi = 0, len(u)  # u is nonincreasing
        while lo < hi:
            mid = (lo + hi) // 2
            if u[mid] <= tau:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def right_slope(tau: Fraction) -> Fraction:
        slope = Fraction(-1)
        for _, u, cost in curves:
            j = first_at_or_below(u, tau)
            if j > 0:
                slope += cost / (u[j - 1] - u[j])
        return slope

    def value(tau: Fraction) -> Fraction:
        total = -tau
        for _, u, cost in curves:
            j = first_at_or_below(u, tau)
            if j > 0:
                total -= cost * (j - 1 + (u[j - 1] - tau) / (u[j - 1] - u[j]))
        return total

    low = max([Fraction(0)] + [u[-1] for _, u, _ in curves])
    candidates = [low] if right_slope(low) <= 0 else []
    for _, u, _ in curves:
        # u[0..hi-1] are this type's kinks above L, descending; the slope
        # is nonincreasing in tau, so it is <= 0 on a prefix of them.
        lo, hi = 0, first_at_or_below(u, low)
        if hi == 0 or right_slope(u[0]) > 0:
            continue
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if right_slope(u[mid]) <= 0:
                lo = mid
            else:
                hi = mid
        candidates.append(u[lo])
    tau = min(candidates)
    target = next((k for k, u, _ in curves if u[0] >= tau), None)
    return target, tau, value(tau)


def _scalar_paths(topology: dict) -> dict[tuple[str, str], tuple[str, ...]]:
    """Hop-shortest switch paths between endpoint pairs. At every hop back
    from the destination take the smallest-id neighbour one hop closer to
    the origin; never pass through another endpoint."""
    endpoints = {str(e["id"]) for e in topology["endpoints"]}
    adj: dict[str, set[str]] = {}
    for a, b in topology["links"]:
        adj.setdefault(str(a), set()).add(str(b))
        adj.setdefault(str(b), set()).add(str(a))
    paths = {}
    for origin in sorted(endpoints):
        dist = {origin: 0}
        queue = deque([origin])
        while queue:
            node = queue.popleft()
            if node != origin and node in endpoints:
                continue
            for nxt in sorted(adj.get(node, ())):
                if nxt not in dist:
                    dist[nxt] = dist[node] + 1
                    queue.append(nxt)
        for dest in sorted(endpoints):
            if dest == origin or dest not in dist:
                continue
            node, hops = dest, []
            while True:
                node = min(
                    n
                    for n in adj[node]
                    if dist.get(n) == dist[node] - 1 and (n == origin or n not in endpoints)
                )
                if node == origin:
                    break
                hops.append(node)
            paths[(origin, dest)] = tuple(reversed(hops))
    return paths


def scalar_flows(topology: dict, real_counts: dict, honey_counts: dict, seed) -> list[tuple]:
    """(origin, destination, type, path, is_honey) per flow, in draw order.

    Types go in sorted order, real before honey. Each flow draws its
    destination among the endpoints advertising the type, then its origin
    among the pool without the destination: real endpoints for real flows;
    fake endpoints for honey flows, or the real ones when there is a single
    fake. Raises ValueError with the simulator's message on the first flow
    that cannot be drawn or routed.
    """
    rng = np.random.default_rng(seed)
    paths = _scalar_paths(topology)
    weak = {str(e["id"]): set(e.get("weaknesses", [])) for e in topology["endpoints"]}
    fakes = sorted(str(e["id"]) for e in topology["endpoints"] if e.get("fake", False))
    reals = sorted(str(e["id"]) for e in topology["endpoints"] if not e.get("fake", False))
    flows = []
    for is_honey, counts in ((False, real_counts), (True, honey_counts)):
        for vuln in sorted(counts):
            if counts[vuln] <= 0:
                continue
            if is_honey and not fakes:
                raise ValueError("honey flows requested but the network has no fake endpoints")
            pool = fakes if is_honey else reals
            dests = [e for e in pool if vuln in weak[e]]
            if not dests:
                side = "fake" if is_honey else "real"
                raise ValueError(f"no {side} endpoint advertises vulnerability {vuln}")
            for _ in range(counts[vuln]):
                dest = dests[rng.integers(len(dests))]
                if is_honey:
                    origins = [e for e in fakes if e != dest] or [e for e in reals if e != dest]
                else:
                    origins = [e for e in reals if e != dest]
                    if not origins:
                        raise ValueError("real flows need at least two real endpoints")
                origin = origins[rng.integers(len(origins))]
                if (origin, dest) not in paths:
                    raise ValueError(f"no path between {origin} and {dest}")
                flows.append((origin, dest, vuln, paths[(origin, dest)], is_honey))
    return flows


def scalar_observation(flows: list[tuple], compromised) -> dict[int, tuple[int, int]]:
    """(real, honey) counts per type among flows crossing a compromised switch."""
    split: dict[int, list[int]] = {}
    for _, _, vuln, path, is_honey in flows:
        if set(path) & set(compromised):
            split.setdefault(vuln, [0, 0])[is_honey] += 1
    return {t: tuple(c) for t, c in sorted(split.items())}


def scalar_switch_rate(flows: list[tuple], switch: str) -> float:
    """Share of honey flows among the flows through one switch (0 if none)."""
    through = [is_honey for _, _, _, path, is_honey in flows if switch in path]
    return sum(through) / len(through) if through else 0.0


def scalar_episodes(totals: dict, policy, episodes: int, seed) -> tuple[list[int], list[int]]:
    """(attacked types, observed-flow rows) of ``episodes`` episodes, one at
    a time: spawn the next child of ``SeedSequence(seed)`` (the first one
    seeds the flows), build its generator, draw the type uniformly among
    the sorted observed types unless ``policy`` fixes it, then the row
    among that type's observed flows."""
    ss = np.random.SeedSequence(seed)
    ss.spawn(1)
    types = sorted(t for t, n in totals.items() if n > 0)
    chosen, rows = [], []
    for _ in range(episodes):
        rng = np.random.default_rng(ss.spawn(1)[0])
        vuln = types[rng.integers(len(types))] if policy == "uniform" else policy
        chosen.append(int(vuln))
        rows.append(int(rng.integers(totals[vuln])))
    return chosen, rows
