"""Independent references for the benchmark's correctness gate.

The reference computations import nothing from honeyflow. Solves use
``scipy.optimize.linprog`` on the benchmark's own best-response LP
formulation (Conitzer & Sandholm's multiple-LPs method); the study
harnesses and the simulator are re-implemented from their documented
behaviour, so each reference shares no code with the path it checks.

References for the default seed are stored in ``data/``; regenerate them
with ``python3 perfbench/reference.py`` after checking that the
computation below still agrees with the program.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import sys

import numpy as np

TIE_TOL = 1e-9  # value tolerance of the gate, and of the attackers' tie-breaks
DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


# --- game model ------------------------------------------------------------


def _hit_probs(t: dict) -> np.ndarray:
    j = np.arange(t["honey_flow_bound"] + 1, dtype=float)
    if t["real_flows"] == 0:
        return np.zeros(j.size)
    return t["real_flows"] / (j + t["real_flows"])


def _attackable(types: list[dict]) -> list[int]:
    return [i for i, t in enumerate(types) if t["real_flows"] + t["honey_flow_bound"] > 0]


def _action_name(target: int | None) -> str:
    return "no-attack" if target is None else f"attack({target})"


class _Scorer:
    """Utilities of both players for pure actions against marginals."""

    def __init__(self, types: list[dict], marginals: list[np.ndarray]):
        self.types = types
        self.marginals = marginals
        self.cost = sum(
            float(m @ np.arange(m.size, dtype=float)) * t["cost_per_flow"]
            for t, m in zip(types, marginals)
        )

    def _p(self, k: int) -> float:
        return float(self.marginals[k] @ _hit_probs(self.types[k]))

    def attacker(self, k: int | None) -> float:
        if k is None:
            return 0.0
        t, p = self.types[k], self._p(k)
        return p * t["attacker_real_value"] + (1.0 - p) * t["attacker_honey_value"]

    def defender(self, k: int | None) -> float:
        if k is None:
            return -self.cost
        t, p = self.types[k], self._p(k)
        return p * -t["attacker_real_value"] + (1.0 - p) * -t["attacker_honey_value"] - self.cost


# --- leader-follower equilibrium via scipy ---------------------------------


def stackelberg(spec: dict) -> dict:
    """The optimal defender value, the actions whose best-response LP
    reaches it within ``TIE_TOL`` (lowest id first, no-attack last), and
    the strategy of the first."""
    from scipy.optimize import linprog

    types = spec["types"]
    sizes = [t["honey_flow_bound"] + 1 for t in types]
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(int)
    width = int(sum(sizes))
    blocks = [slice(o, o + s) for o, s in zip(offsets, sizes)]
    values = [
        _hit_probs(t) * t["attacker_real_value"]
        + (1.0 - _hit_probs(t)) * t["attacker_honey_value"]
        for t in types
    ]
    attackable = _attackable(types)
    flow_cost = np.concatenate(
        [np.arange(s, dtype=float) * t["cost_per_flow"] for s, t in zip(sizes, types)]
    )
    a_eq = np.zeros((len(types), width))
    for i, b in enumerate(blocks):
        a_eq[i, b] = 1.0

    lp_values: dict[str, float | None] = {}
    solutions: dict[str, np.ndarray] = {}
    for k in [*attackable, None]:
        # minimize expected honey cost plus the attacker's value for k,
        # subject to every rival action being worth no more than k
        c = flow_cost.copy()
        rows = []
        if k is not None:
            c[blocks[k]] += values[k]
        for m in [*attackable, None]:
            if m == k:
                continue
            row = np.zeros(width)
            if m is not None:
                row[blocks[m]] += values[m]
            if k is not None:
                row[blocks[k]] -= values[k]
            rows.append(row)
        res = linprog(
            c,
            A_ub=np.array(rows) if rows else None,
            b_ub=np.zeros(len(rows)) if rows else None,
            A_eq=a_eq,
            b_eq=np.ones(len(types)),
            bounds=(0.0, 1.0),
            method="highs",
            options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
        )
        name = _action_name(k)
        if res.status == 2:
            lp_values[name] = None
            continue
        if res.status != 0:
            raise RuntimeError(f"reference LP for {name}: {res.message}")
        lp_values[name] = -float(res.fun)
        solutions[name] = np.clip(res.x, 0.0, 1.0)

    best = max(v for v in lp_values.values() if v is not None)
    tied = [a for a, v in lp_values.items() if v is not None and v >= best - TIE_TOL]
    first = solutions[tied[0]]
    strategy = [first[b] / first[b].sum() for b in blocks]
    return {
        "defender_value": best,
        "tied_actions": tied,
        "strategy": strategy,
    }


def solve_reference(spec: dict) -> dict:
    ref = stackelberg(spec)
    return {k: ref[k] for k in ("defender_value", "tied_actions")}


def check_solve(output: str, ref: dict, types: list[dict]) -> str | None:
    """None when a ``solve`` output agrees with the reference, else why not.

    The defender value and the set of optimal actions are unique; the
    attacker value is not, since a tied game can have several optimal
    strategies that split the defender's loss differently between the
    attacker's gain and the honey cost. So the output's own strategy is
    scored: it must be a distribution per type, make the reported action
    a best response, and give the reported values of both players."""
    out = json.loads(output)
    if out.get("verified") is not True:
        return "solution not verified"
    action = out["attacker_action"]
    if action not in ref["tied_actions"]:
        return f"attacker action {action} not among optimal {ref['tied_actions']}"
    if abs(out["defender_value"] - ref["defender_value"]) > TIE_TOL:
        return f"defender value {out['defender_value']!r} != {ref['defender_value']!r}"
    marginals = [np.asarray(m, dtype=float) for m in out["strategy"]]
    if len(marginals) != len(types):
        return f"strategy has {len(marginals)} types, the game {len(types)}"
    for t, m in zip(types, marginals):
        if m.size != t["honey_flow_bound"] + 1 or m.min() < -TIE_TOL or abs(m.sum() - 1.0) > TIE_TOL:
            return "strategy is not a distribution over each type's honey counts"
    scorer = _Scorer(types, marginals)
    target = None if action == "no-attack" else int(action[len("attack(") : -1])
    attacker = scorer.attacker(target)
    if abs(out["attacker_value"] - attacker) > TIE_TOL:
        return f"attacker value {out['attacker_value']!r} != {attacker!r} under the output strategy"
    if abs(out["defender_value"] - scorer.defender(target)) > TIE_TOL:
        return f"defender value {out['defender_value']!r} != {scorer.defender(target)!r} under the output strategy"
    best = max(scorer.attacker(k) for k in [*_attackable(types), None])
    if best > attacker + TIE_TOL:
        return f"{action} is not a best response: another action is worth {best!r}"
    return None


# --- study harnesses -------------------------------------------------------

_GRID_DEFAULTS = {"--types": 5, "--real-flows": 500, "--honey-bounds": (500, 1000),
                  "--trials": 100, "--seed": 20200207, "--cost": 1e-4}
_COSTS = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1)
_RATIO = {"real_values": (10.0, 20.0, 30.0, 40.0), "fake_values": (9.0, 18.0, 27.0, 32.0),
          "real_flows": (10, 15, 30), "cost": 0.1, "ratios": [round(0.1 * k, 2) for k in range(31)]}


def _grid_args(argv: list[str]) -> dict:
    args = dict(_GRID_DEFAULTS)
    i = 1
    while i < len(argv):
        flag = argv[i]
        if flag == "--honey-bounds":
            args[flag] = (int(argv[i + 1]), int(argv[i + 2]))
            i += 3
            continue
        if flag not in args:
            raise ValueError(f"reference does not model {flag}")
        args[flag] = type(args[flag])(argv[i + 1])
        i += 2
    return args


def _random_game(args: dict, cost: float, seed_seq) -> list[dict]:
    """The harness's fake-zero-real-one game: real value 1, honey value 0,
    a fixed real-flow count, and a uniform honey bound per type."""
    rng = np.random.default_rng(seed_seq)
    lo, hi = args["--honey-bounds"]
    return [
        {"attacker_real_value": 1.0, "attacker_honey_value": 0.0,
         "real_flows": args["--real-flows"], "honey_flow_bound": int(rng.integers(lo, hi + 1)),
         "cost_per_flow": cost}
        for _ in range(args["--types"])
    ]


def _three_defenders(types: list[dict]):
    eq = stackelberg({"types": types})["strategy"]
    uniform = [np.full(t["honey_flow_bound"] + 1, 1.0 / (t["honey_flow_bound"] + 1)) for t in types]
    none = [np.eye(1, t["honey_flow_bound"] + 1)[0] for t in types]
    return (("stackelberg", eq), ("uniform", uniform), ("no-deception", none))


def _rational(types, scorer: _Scorer) -> tuple[float, float]:
    actions = [*_attackable(types), None]
    att = [scorer.attacker(a) for a in actions]
    tied = [a for a, v in zip(actions, att) if v >= max(att) - TIE_TOL]
    if len(tied) > 1:
        dv = [scorer.defender(a) for a in tied]
        tied = [a for a, v in zip(tied, dv) if v >= max(dv) - TIE_TOL]
    return scorer.defender(tied[0]), scorer.attacker(tied[0])


def _greedy(types, scorer: _Scorer) -> tuple[float, float]:
    best = None
    for i in _attackable(types):
        t = types[i]
        p = t["real_flows"] / (t["honey_flow_bound"] + t["real_flows"])
        u = p * t["attacker_real_value"] + (1.0 - p) * t["attacker_honey_value"]
        if best is None or u > best[0]:
            best = (u, i)
    k = None if best is None or best[0] < 0.0 else best[1]
    return scorer.defender(k), scorer.attacker(k)


def _uniform(types, scorer: _Scorer) -> tuple[float, float]:
    targets = _attackable(types)
    share = 1.0 / len(targets)
    d = a = 0.0
    for k in targets:
        d += share * scorer.defender(k)
        a += share * scorer.attacker(k)
    return d, a


def grid_reference(argv: list[str]) -> list[list]:
    """Expected CSV table (header first) of a sweep, matchup or ratio op."""
    command = argv[0]
    if command == "ratio":
        return _ratio_table()
    args = _grid_args(argv)
    trials = args["--trials"]
    seeds = np.random.SeedSequence(args["--seed"]).spawn(trials)
    names = ("stackelberg", "uniform", "no-deception")
    if command == "sweep":
        table = [["cost", "stackelberg_def", "stackelberg_att", "uniform_def",
                  "uniform_att", "no_deception_def", "no_deception_att"]]
        for cost in _COSTS:
            sums = {n: [0.0, 0.0] for n in names}
            for t in range(trials):
                types = _random_game(args, cost, seeds[t])
                for name, marginals in _three_defenders(types):
                    d, a = _rational(types, _Scorer(types, marginals))
                    sums[name][0] += d
                    sums[name][1] += a
            table.append([cost] + [s / trials for n in names for s in sums[n]])
        return table
    if command == "matchup":
        models = (("rational", _rational), ("uniform", _uniform), ("greedy", _greedy))
        sums = {(n, m): [0.0, 0.0] for n in names for m, _ in models}
        for t in range(trials):
            types = _random_game(args, args["--cost"], seeds[t])
            for name, marginals in _three_defenders(types):
                scorer = _Scorer(types, marginals)
                for model, play in models:
                    d, a = play(types, scorer)
                    sums[(name, model)][0] += d
                    sums[(name, model)][1] += a
        return [["defender", "attacker", "mean_def", "mean_att"]] + [
            [n, m, sums[(n, m)][0] / trials, sums[(n, m)][1] / trials]
            for n in names for m, _ in models
        ]
    raise ValueError(f"reference does not model {command!r}")


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _ratio_table() -> list[list]:
    """Fixed honey/real ratios on every type; a fake host costs the
    attacker its fake value."""
    r = _RATIO
    table = [["real_flows", "ratio", "defender_value", "attacker_value"]]
    for rf in r["real_flows"]:
        bound = max(_round_half_up(max(r["ratios"]) * rf), 0)
        types = [
            {"attacker_real_value": rv, "attacker_honey_value": -fv, "real_flows": rf,
             "honey_flow_bound": bound, "cost_per_flow": r["cost"]}
            for rv, fv in zip(r["real_values"], r["fake_values"])
        ]
        for ratio in r["ratios"]:
            j = min(_round_half_up(ratio * rf), bound)
            marginals = [np.eye(1, bound + 1, j)[0] for _ in types]
            d, a = _rational(types, _Scorer(types, marginals))
            table.append([rf, ratio, d, a])
    return table


def check_grid(output: str, table: list[list]) -> str | None:
    rows = list(csv.reader(io.StringIO(output)))
    if len(rows) != len(table) or any(len(r) != len(t) for r, t in zip(rows, table)):
        return f"CSV shape {[len(r) for r in rows]} != {[len(t) for t in table]}"
    for i, (row, expected) in enumerate(zip(rows, table)):
        for cell, ref in zip(row, expected):
            if isinstance(ref, float):
                if not abs(float(cell) - ref) <= TIE_TOL:
                    return f"row {i}: {cell} != {ref!r}"
            elif cell != str(ref):
                return f"row {i}: {cell!r} != {ref!r}"
    return None


# --- simulator -------------------------------------------------------------


def _simulate_args(argv: list[str]) -> dict:
    args = {"--episodes": "2000", "--policy": "uniform"}
    for flag, value in zip(argv[1::2], argv[2::2]):
        args[flag] = value
    if args["--policy"] != "uniform":
        raise ValueError("reference models the uniform policy only")
    return args


def _visible_pairs(topology: dict) -> dict[tuple[str, str], bool]:
    """Whether the path between two endpoints crosses a compromised
    switch. The benchmark's topologies are trees, so that path is the
    unique one a breadth-first search finds."""
    adjacency: dict[str, list[str]] = {}
    for a, b in topology["links"]:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    compromised = set(topology["compromised"])
    ids = [e["id"] for e in topology["endpoints"]]
    visible = {}
    for origin in ids:
        prev = {origin: origin}
        queue = [origin]
        for node in queue:
            for nxt in adjacency[node]:
                if nxt not in prev:
                    prev[nxt] = node
                    queue.append(nxt)
        for dest in ids:
            node, seen = prev[dest], False
            while node != origin:
                seen = seen or node in compromised
                node = prev[node]
            visible[(origin, dest)] = seen
    return visible


def simulate_reference(topology: dict, argv: list[str]) -> str:
    """Exact CSV text of a ``simulate`` op on a two-level tree topology,
    replaying the simulator's documented seeding: one seed sequence per
    honey config split into a flow-population stream and one stream per
    episode; real flows first, types in ascending order, each flow
    drawing its destination and then its origin. A real flow always ends
    at an endpoint with the weakness it advertises, so every draw of a
    real flow is a success and every draw of a honey flow a defeat."""
    args = _simulate_args(argv)
    reals = [int(x) for x in args["--real"].split(",")]
    if ":" in args["--honey"]:
        lo, hi, step = (int(x) for x in args["--honey"].split(":"))
        configs = [[point] * len(reals) for point in range(lo, hi + 1, step)]
    else:
        configs = [[int(x) for x in args["--honey"].split(",")]]
    episodes, seed = int(args["--episodes"]), int(args["--seed"])

    eps = {e["id"]: e for e in topology["endpoints"]}
    visible = _visible_pairs(topology)
    real_ids = sorted(e for e, ep in eps.items() if not ep["fake"])
    fake_ids = sorted(e for e, ep in eps.items() if ep["fake"])
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(("honey_count", "type", "mean_def", "mean_att", "stderr_def",
                     "stderr_att", "detect_rate"))
    for k, honey in enumerate(configs):
        children = np.random.SeedSequence(seed + k).spawn(episodes + 1)
        rng = np.random.default_rng(children[0])
        observed: dict[int, list[tuple[str, bool]]] = {}
        for is_honey, counts, pool in ((False, reals, real_ids), (True, honey, fake_ids)):
            for vuln, count in enumerate(counts):
                dests = [e for e in pool if vuln in eps[e]["weaknesses"]]
                origins = {d: [e for e in pool if e != d] for d in dests}
                for _ in range(count):
                    dest = dests[rng.integers(len(dests))]
                    origin = origins[dest][rng.integers(len(origins[dest]))]
                    if visible[(origin, dest)]:
                        observed.setdefault(vuln, []).append((dest, is_honey))
        types = sorted(observed)
        payoffs: dict[int, list[tuple[float, float, bool]]] = {}
        for e in range(episodes):
            rng = np.random.default_rng(children[e + 1])
            chosen = types[rng.integers(len(types))]
            flows = observed[chosen]
            dest, is_honey = flows[rng.integers(len(flows))]
            target = eps[dest]
            if is_honey:
                outcome = (target["attacker_value"], -target["attacker_value"], True)
            else:
                outcome = (target["attacker_value"], -target["defender_value"], False)
            payoffs.setdefault(chosen, []).append(outcome)
        for vuln in sorted(payoffs):
            outs = payoffs[vuln]
            apay = np.array([o[0] for o in outs])
            dpay = np.array([o[1] for o in outs])
            n = len(outs)
            writer.writerow([
                honey[vuln],
                vuln,
                repr(float(dpay.mean())),
                repr(float(apay.mean())),
                repr(float(dpay.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0),
                repr(float(apay.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0),
                repr(float(sum(o[2] for o in outs) / n)),
            ])
    return out.getvalue()


def check_simulate(output: str, expected: str) -> str | None:
    if output == expected:
        return None
    return f"CSV differs from the reference: {output[:120]!r} vs {expected[:120]!r}"


# --- references per workload, stored or computed ---------------------------


def _portable_argv(argv, workdir: str) -> list[str]:
    return [a.replace(workdir, "<work>") for a in argv]


def fingerprint(workload: str, plan, workdir: str) -> str:
    payload = {
        "workload": workload,
        "inputs": plan.inputs,
        "ops": [_portable_argv(op.argv, workdir) for op in plan.all_ops],
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def compute(workload: str, plan, workdir: str) -> list:
    """One reference per op of the plan, timed and untimed."""
    if workload == "solve-ladder":
        return [solve_reference(spec) for spec in plan.inputs["specs"]]
    if workload == "study-grid":
        return [grid_reference(list(op.argv)) for op in plan.all_ops]
    return [simulate_reference(plan.inputs["topology"], list(op.argv)) for op in plan.all_ops]


def check(workload: str, plan, i: int, output: str, ref) -> str | None:
    """None when op ``i`` of the plan gave the right output, else why not."""
    if workload == "solve-ladder":
        return check_solve(output, ref, plan.inputs["specs"][i]["types"])
    if workload == "study-grid":
        return check_grid(output, ref)
    return check_simulate(output, ref)


def _stored_path(seed: int) -> str:
    return os.path.join(DATA_DIR, f"reference-seed{seed}.json")


def load_or_compute(workload: str, plan, workdir: str, seed: int) -> tuple[list, str]:
    """References for every op, and where they came from."""
    key = fingerprint(workload, plan, workdir)
    path = _stored_path(seed)
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh).get(workload)
        if stored and stored["fingerprint"] == key:
            return stored["references"], "stored"
    return compute(workload, plan, workdir), "computed"


def main() -> int:
    """Write the stored references of the default seed at full size."""
    import shutil
    import tempfile

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    import workloads

    seed = workloads.DEFAULT_SEED
    result = {}
    workdir = tempfile.mkdtemp(dir=here, prefix=".refgen-")
    try:
        for name, make_plan in workloads.WORKLOADS.items():
            plan = make_plan(workdir, seed, "full")
            result[name] = {
                "fingerprint": fingerprint(name, plan, workdir),
                "references": compute(name, plan, workdir),
            }
    finally:
        shutil.rmtree(workdir)
    os.makedirs(DATA_DIR, exist_ok=True)
    with open(_stored_path(seed), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
