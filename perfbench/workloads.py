"""Workload definitions: seeded inputs and the fixed op mix of each workload.

Every op is one argument list for ``honeyflow.cli.run``. The benchmark
derives all inputs from the workload seed; the program only sees the
generated files and arguments. ``kind`` names what an op does (solves,
matchups, flows or episodes) and ``work`` how many of them, computed from
the op's arguments so untraced runs need no instrumentation to report it.

Timed ops are short (well under a second), because the benchmark
rescales each call by a calibration kernel timed just before and after it,
and the kernel tracks the host's swings in speed only over a short call.
An op too long for that runs once per run, untimed: its output is checked
and its memory shows in ``peak_rss_mb``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 20200207  # the CLI's default seed
VULN_TYPES = 4
SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    kind: str  # solves, matchups, flows or episodes
    work: int


@dataclass(frozen=True)
class Plan:
    """The generated inputs of one workload run."""

    ops: tuple[Op, ...]  # the timed mix, repeated pass after pass
    warmup: Op
    inputs: dict  # what the reference needs: the spec dicts or the topology
    size_info: dict
    counts: dict  # per-layer count -> its value in one traced pass
    once: tuple[Op, ...] = ()  # untimed, run once after the timed passes

    @property
    def all_ops(self) -> tuple[Op, ...]:
        return self.ops + self.once


def _op_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


# --- solve-ladder ----------------------------------------------------------

# (types, honey bound) per game. 32- and 64-type games take seconds each
# on the pure-NumPy path and would swamp the mix; widen it once solves are
# fast.
LADDER_SHAPES = {
    "full": [(n, 100) for n in (2, 3, 4, 6, 8, 12, 16)]
    + [(5, h) for h in (50, 100, 200, 500, 1000)],
    "tiny": [(2, 10), (3, 10), (3, 20)],
}
LADDER_REAL_FLOWS = {"full": (50, 500), "tiny": (5, 20)}
# Games per (shape, value mode). Solve cost varies from game to game, and
# several games per shape keep a pass's cost nearly the same across seeds;
# 120 games per pass leave ten ops beyond the p90 latency.
LADDER_GAMES_PER_SHAPE = {"full": 5, "tiny": 1}


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def plan_solve_ladder(workdir: str, seed: int, size: str) -> Plan:
    from honeyflow import experiments
    from honeyflow.game import spec_to_dict

    modes = (experiments.MODE_FAKE_ZERO, experiments.MODE_FAKE_EQUALS_REAL)
    ops, specs, index = [], [], 0
    shapes = [s for s in LADDER_SHAPES[size] for _ in range(LADDER_GAMES_PER_SHAPE[size])]
    for mode in modes:
        for types, bound in shapes:
            params = experiments.GeneratorParams(
                type_count=types,
                real_flows=LADDER_REAL_FLOWS[size],
                honey_bound_range=(bound, bound),
                value_mode=mode,
            )
            spec = spec_to_dict(experiments.random_game(params, [seed, index]))
            path = os.path.join(workdir, f"game-{index:02d}.json")
            _write_json(path, spec)
            ops.append(Op(("solve", "--game", path), "solves", 1))
            specs.append(spec)
            index += 1
    warm = experiments.GeneratorParams(
        type_count=2, real_flows=5, honey_bound_range=(3, 3)
    )
    warm_path = os.path.join(workdir, "warmup.json")
    _write_json(warm_path, spec_to_dict(experiments.random_game(warm, [seed, index])))
    return Plan(
        ops=tuple(ops),
        warmup=Op(("solve", "--game", warm_path), "solves", 1),
        inputs={"specs": specs},
        size_info={"games": len(ops), "shapes": LADDER_SHAPES[size],
                   "games_per_shape": LADDER_GAMES_PER_SHAPE[size], "modes": list(modes)},
        counts={"equilibrium.solves": len(ops)},
    )


# --- study-grid ------------------------------------------------------------

# Trial counts are small so that a run holds over a hundred ops; the
# generator parameters are the CLI defaults (5 types, 500 real flows, honey
# bounds 500..1000) except at the tiny size.
GRID_TRIALS = {"full": {"sweep": 1, "matchup": 2}, "tiny": {"sweep": 1, "matchup": 1}}
GRID_REPEATS = {"full": 6, "tiny": 1}
GRID_TINY_ARGS = ("--types", "2", "--real-flows", "20", "--honey-bounds", "20", "40")
COST_SWEEP = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1)  # the CLI's default --costs
RATIO_REAL_FLOWS = (10, 15, 30)  # the CLI's default ratio grid: 3 x 31 cells
RATIO_POINTS = 31


def plan_study_grid(workdir: str, seed: int, size: str) -> Plan:
    trials = GRID_TRIALS[size]
    extra = GRID_TINY_ARGS if size == "tiny" else ()
    repeats = GRID_REPEATS[size]
    seeds = _op_seeds(seed, 2 * repeats)
    ops = []
    for k in range(repeats):
        ops.append(
            Op(
                ("sweep", "--trials", str(trials["sweep"]), "--seed", str(seeds[k]), *extra),
                "matchups",
                len(COST_SWEEP) * trials["sweep"] * 3,
            )
        )
        ops.append(
            Op(
                ("matchup", "--trials", str(trials["matchup"]), "--seed", str(seeds[repeats + k]), *extra),
                "matchups",
                trials["matchup"] * 9,
            )
        )
    ops.append(Op(("ratio",), "matchups", len(RATIO_REAL_FLOWS) * RATIO_POINTS))
    return Plan(
        ops=tuple(ops),
        warmup=Op(("matchup", "--trials", "1", "--seed", str(seed), *GRID_TINY_ARGS), "matchups", 9),
        inputs={},
        size_info={"ops_per_pass": len(ops), "trials": trials, "generator_args": list(extra)},
        counts={"strategies.matchups": sum(op.work for op in ops)},
    )


# --- simulate-sweep ----------------------------------------------------------

TOPOLOGY = {"full": {"racks": 12, "hosts": 3}, "tiny": {"racks": 4, "hosts": 2}}
# Flow-heavy ops: real and as many honey flows per type, few episodes.
# The 50k size takes seconds, so it runs once per run, untimed.
FLOW_SIZES = {"full": (500, 500, 500, 500, 5_000, 5_000), "tiny": (20, 50)}
FLOW_ONCE_SIZES = {"full": (50_000,), "tiny": (100,)}
FLOW_OP_EPISODES = {"full": 100, "tiny": 20}
# Episode-heavy ops: (real flows per type, honey sweep lo:hi:step,
# episodes per sweep point, ops per pass)
EPISODE_OPS = {"full": (500, (0, 500, 250), 1_000, 3), "tiny": (20, (0, 20, 10), 50, 1)}
def make_topology(seed: int, racks: int, hosts: int) -> dict:
    """Two linked core switches, each with half the racks. Every rack
    holds ``hosts`` real endpoints and one fake endpoint; three seeded
    switches are compromised. The graph is a tree, so every path is the
    unique one, which keeps the reference's path logic trivial."""
    rng = np.random.default_rng([seed, 7])
    endpoints, links = [], [["c0", "c1"]]
    switches = ["c0", "c1"] + [f"r{i:02d}" for i in range(racks)]
    for i in range(racks):
        rack = f"r{i:02d}"
        links.append([f"c{2 * i // racks}", rack])
        for h in range(hosts):
            primary = (i * hosts + h) % VULN_TYPES
            extra = {int(v) for v in np.nonzero(rng.random(VULN_TYPES) < 0.25)[0]}
            value = round(float(rng.uniform(1.0, 5.0)), 3)
            endpoints.append(
                {
                    "id": f"h{i:02d}{chr(97 + h)}",
                    "defender_value": value,
                    "attacker_value": value,
                    "weaknesses": sorted({primary} | extra),
                    "fake": False,
                }
            )
            links.append([rack, f"h{i:02d}{chr(97 + h)}"])
        endpoints.append(
            {
                "id": f"f{i:02d}",
                "defender_value": 0.0,
                "attacker_value": -round(float(rng.uniform(0.5, 2.0)), 3),
                "weaknesses": [i % VULN_TYPES],
                "fake": True,
            }
        )
        links.append([rack, f"f{i:02d}"])
    compromised = sorted(str(s) for s in rng.choice(switches, size=3, replace=False))
    return {"endpoints": endpoints, "switches": switches, "links": links, "compromised": compromised}


def _simulate_op(topo_path: str, real: int, honey: str, episodes: int, seed: int) -> tuple[str, ...]:
    reals = ",".join([str(real)] * VULN_TYPES)
    return (
        "simulate", "--topology", topo_path, "--real", reals, "--honey", honey,
        "--episodes", str(episodes), "--seed", str(seed),
    )


def plan_simulate_sweep(workdir: str, seed: int, size: str) -> Plan:
    shape = TOPOLOGY[size]
    topology = make_topology(seed, shape["racks"], shape["hosts"])
    topo_path = os.path.join(workdir, "topology.json")
    _write_json(topo_path, topology)
    real, (lo, hi, step), sweep_episodes, sweep_ops = EPISODE_OPS[size]
    flow_episodes = FLOW_OP_EPISODES[size]
    sizes = FLOW_SIZES[size] + FLOW_ONCE_SIZES[size]
    seeds = _op_seeds(seed, len(sizes) + sweep_ops)
    flow_ops = []
    for n, op_seed in zip(sizes, seeds):
        honey = ",".join([str(n)] * VULN_TYPES)
        flow_ops.append(Op(_simulate_op(topo_path, n, honey, flow_episodes, op_seed),
                           "flows", 2 * n * VULN_TYPES))
    points = len(range(lo, hi + 1, step))
    sweep = f"{lo}:{hi}:{step}"
    episode_ops = [
        Op(_simulate_op(topo_path, real, sweep, sweep_episodes, op_seed), "episodes",
           sweep_episodes * points)
        for op_seed in seeds[len(sizes):]
    ]
    ops = tuple(flow_ops[: len(FLOW_SIZES[size])] + episode_ops)
    warm = _simulate_op(topo_path, 10, ",".join(["10"] * VULN_TYPES), 10, seed)
    return Plan(
        ops=ops,
        warmup=Op(warm, "episodes", 10),
        inputs={"topology": topology},
        size_info={
            "flows_per_type": list(FLOW_SIZES[size]), "untimed_flows_per_type": list(FLOW_ONCE_SIZES[size]),
            "episodes_per_flow_op": flow_episodes, "sweep_real_per_type": real,
            "honey_sweep": sweep, "episodes_per_sweep_point": sweep_episodes,
            "sweep_ops": sweep_ops, "racks": shape["racks"], "hosts_per_rack": shape["hosts"],
            "compromised": topology["compromised"],
        },
        counts={"simulator.episodes": len(FLOW_SIZES[size]) * flow_episodes
                + sum(op.work for op in episode_ops)},
        once=tuple(flow_ops[len(FLOW_SIZES[size]):]),
    )


WORKLOADS = {
    "solve-ladder": plan_solve_ladder,
    "study-grid": plan_study_grid,
    "simulate-sweep": plan_simulate_sweep,
}
