"""Byte identity of the solver and the default studies.

Each group of fixed work below is hashed with sha256 and compared with
``tests/data/byte_digests.json``; a group that differs is named. Solver
groups hash, for every solve, the attacker's action, both values, every
action's value (by repr) and the strategy's bytes. Command groups hash the
exit code, stdout and stderr of each of their in-process ``honeyflow``
runs. Output groups hash the same of one run with ``--output``, then the
contents of the file it writes and of its ``.meta.json`` sidecar. Simulate
groups hash the same of each ``simulate`` run with ``--switch-rates``, then
the contents of the rates file (simulate writes no sidecar). Written files
go to a scratch directory, whose path is not hashed.

A change that alters bytes on purpose rewrites the file with

    PYTHONPATH=src python tests/test_byte_identity.py --write [NAME ...]

which rewrites only the named groups, or every group when none is named,
and says which groups changed and why. The digests depend on numpy and on
the host's BLAS (``summarize`` takes dot products), as the golden CSVs do,
so the file records the numpy version and platform it was written with.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile

import numpy as np

from honeyflow import cli
from honeyflow.equilibrium import solve_stackelberg
from honeyflow.experiments import (
    DEFAULT_COST_SWEEP,
    MODE_FAKE_EQUALS_REAL,
    MODE_FAKE_ZERO,
    GeneratorParams,
    random_game,
)
from honeyflow.game import GameSpec, VulnerabilityType
from test_cli import BAD_ARGUMENTS

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
DIGESTS_PATH = os.path.join(DATA_DIR, "byte_digests.json")
WORKED_EXAMPLE = os.path.join(DATA_DIR, "worked_example.json")
CHAIN_TOPOLOGY = os.path.join(DATA_DIR, "chain_topology.json")

LADDER_SHAPES = ((2, 100), (4, 100), (8, 100), (16, 100), (5, 50), (5, 500))
LADDER_SEEDS = (20200207, 5, 99)
SWEEP_COSTS = (0.0, *DEFAULT_COST_SWEEP, 0.5, 3.0)
MIXED_SPECS = 600
SIMULATE_REAL = (500, 5_000)
SIMULATE_SWEEP = "0:500:250"

# Each group's runs, hashed in order.
COMMANDS = {
    "cli-sweep": [["sweep"]],
    "cli-matchup": [["matchup"]],
    "cli-ratio": [["ratio"]],
    "cli-sweep-fake-equals-real": [["sweep", "--value-mode", MODE_FAKE_EQUALS_REAL]],
    "cli-sweep-large-bounds": [
        ["sweep", "--trials", "2", "--types", "5", "--honey-bounds", "100000", "100000"]
    ],
    "cli-sweep-16-types": [
        ["sweep", "--trials", "3", "--types", "16", "--honey-bounds", "100", "100"]
    ],
    "cli-solve-worked-example": [["solve", "--game", WORKED_EXAMPLE]],
    "cli-evaluate-worked-example": [
        ["evaluate", "--game", WORKED_EXAMPLE, "--defender", defender,
         "--attacker", attacker, "--format", fmt]
        for defender in ("stackelberg", "uniform", "none")
        for attacker in ("rational", "uniform", "greedy")
        for fmt in ("json", "csv")
    ],
    "cli-heuristic": [
        ["heuristic", "--real-values", "10,10", "--fake-values", "9,3",
         "--real-flows", "10,10", "--format", fmt]
        for fmt in ("json", "csv")
    ],
    "cli-input-errors": [argv for argv, _ in BAD_ARGUMENTS.values()],
}

# Run with --output; the written file and its sidecar are hashed too.
OUTPUT_COMMANDS = {
    "cli-sweep-output": ["sweep"],
    "cli-matchup-output": ["matchup"],
    "cli-ratio-output": ["ratio"],
}


def _solve_record(spec: GameSpec) -> bytes:
    eq = solve_stackelberg(spec)
    head = repr((eq.attacker_action, eq.defender_value, eq.attacker_value))
    head += repr(eq.per_action_values)
    return head.encode() + b"".join(m.tobytes() for m in eq.strategy.marginals)


def _ladder_games():
    for mode in (MODE_FAKE_ZERO, MODE_FAKE_EQUALS_REAL):
        for seed in LADDER_SEEDS:
            for index, (types, bound) in enumerate(LADDER_SHAPES):
                params = GeneratorParams(
                    type_count=types,
                    real_flows=(50, 500),
                    honey_bound_range=(bound, bound),
                    value_mode=mode,
                )
                yield random_game(params, [seed, index])


def _sweep_games():
    """Default-shaped 5-type games, each at every cost of ``SWEEP_COSTS``."""
    for mode in (MODE_FAKE_ZERO, MODE_FAKE_EQUALS_REAL):
        for seed in range(8):
            spec = random_game(GeneratorParams(type_count=5, value_mode=mode), seed)
            for cost in SWEEP_COSTS:
                yield spec.with_cost(cost)


def _mixed_spec(rng: np.random.Generator) -> GameSpec:
    """1 to 4 types with values of either sign up to 1e300 (equal real and
    honey values too), zero real flows or honey bounds, and costs from 0 to
    1e300."""
    types = []
    for i in range(int(rng.integers(1, 5))):
        scale = float(rng.choice([1.0, 1e6, 1e300]))
        real = float(rng.uniform(-scale, scale))
        honey = real if rng.random() < 0.2 else float(rng.uniform(-scale, real))
        kind = int(rng.integers(4))
        if kind == 0:
            cost = 0.0
        elif kind == 1:
            cost = 1e300
        elif kind == 2:
            cost = float(rng.uniform(0.0, 10.0))
        else:
            cost = float(10.0 ** rng.uniform(-300, 300))
        types.append(
            VulnerabilityType(
                id=i,
                attacker_real_value=real,
                attacker_honey_value=honey,
                real_flow_count=int(rng.integers(0, 41)),
                honey_flow_bound=int(rng.integers(0, 31)),
                honey_flow_cost=cost,
            )
        )
    return GameSpec(tuple(types))


def _mixed_games():
    for index in range(MIXED_SPECS):
        yield _mixed_spec(np.random.default_rng([20200207, index]))


def _rounding_games():
    """A nearly flat curve whose right slope rounding makes rise again
    after its first level <= 0."""
    yield GameSpec(
        (VulnerabilityType(0, 1000000.0000000048, 1e6, 26, 19, 2.1031720729211948e-10),)
    )


def _cap_games():
    """Four types at honey bound 999,999: 4,000,000 strategy entries, near
    the MAX_STRATEGY_SIZE cap, in both value modes."""
    for mode in (MODE_FAKE_ZERO, MODE_FAKE_EQUALS_REAL):
        params = GeneratorParams(
            type_count=4, real_flows=500, honey_bound_range=(999_999, 999_999), value_mode=mode
        )
        yield random_game(params, 1)


SOLVER_GROUPS = {
    "solve-ladder": _ladder_games,
    "solve-default-sweep-costs": _sweep_games,
    "solve-mixed-sign": _mixed_games,
    "solve-rounding-game": _rounding_games,
    "solve-cap-size": _cap_games,
}


def _command_record(argv: list[str]) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return repr((code, out.getvalue(), err.getvalue())).encode()


def _written_record(argv: list[str], *files: str) -> bytes:
    """One run's record, then the contents of each file it wrote."""
    record = _command_record(argv)
    for written in files:
        with open(written, "rb") as f:
            record += f.read()
    return record


def _tree_topology(racks: int = 12, hosts: int = 3, types: int = 3) -> dict:
    """Two linked core switches, c0 and c1, each with half the racks. Each
    rack holds ``hosts`` real endpoints and one fake endpoint; one core
    and two racks are compromised."""
    endpoints, links = [], [["c0", "c1"]]
    for i in range(racks):
        rack = f"r{i:02d}"
        links.append([f"c{2 * i // racks}", rack])
        for h in range(hosts):
            k = i * hosts + h
            value = 1.0 + k % 5 * 0.5
            endpoints.append(
                {"id": f"h{k:02d}", "defender_value": value, "attacker_value": value,
                 "weaknesses": sorted({k % types, k // 2 % types}), "fake": False}
            )
            links.append([rack, f"h{k:02d}"])
        endpoints.append(
            {"id": f"f{i:02d}", "defender_value": 0.0, "attacker_value": -0.5 - i % 4 * 0.25,
             "weaknesses": [i % types], "fake": True}
        )
        links.append([rack, f"f{i:02d}"])
    switches = ["c0", "c1", *(f"r{i:02d}" for i in range(racks))]
    return {"endpoints": endpoints, "switches": switches, "links": links,
            "compromised": ["c1", "r02", "r07"]}


def _simulate_groups(out_dir: str) -> dict[str, list[list[str]]]:
    """Each simulate group's runs: on the chain and on a 12-rack tree
    (written to ``out_dir``), at SIMULATE_REAL real flows per type, fixed
    honey counts and the honey sweep, each against a uniform and a
    fixed-type attacker."""
    tree = os.path.join(out_dir, "tree_topology.json")
    with open(tree, "w", encoding="utf-8") as f:
        json.dump(_tree_topology(), f)
    groups = {}
    for label, path, types in (("chain", CHAIN_TOPOLOGY, 2), ("tree", tree, 3)):
        fixed = ",".join(str(100 * (k + 1)) for k in range(types))
        for real in SIMULATE_REAL:
            reals = ",".join([str(real)] * types)
            groups[f"simulate-{label}-{real}"] = [
                ["simulate", "--topology", path, "--real", reals, "--honey", honey,
                 "--policy", policy, "--episodes", "500", "--seed", "7"]
                for honey in (fixed, SIMULATE_SWEEP)
                for policy in ("uniform", "1")
            ]
    return groups


def group_digests(out_dir: str) -> dict[str, str]:
    """Every group's digest; groups that write files write them in ``out_dir``."""
    digests = {}
    for name, games in SOLVER_GROUPS.items():
        h = hashlib.sha256()
        for spec in games():
            h.update(_solve_record(spec))
        digests[name] = h.hexdigest()
    for name, runs in COMMANDS.items():
        h = hashlib.sha256()
        for argv in runs:
            h.update(_command_record(argv))
        digests[name] = h.hexdigest()
    for name, argv in OUTPUT_COMMANDS.items():
        path = os.path.join(out_dir, name + ".csv")
        record = _written_record([*argv, "--output", path], path, path + ".meta.json")
        digests[name] = hashlib.sha256(record).hexdigest()
    rates = os.path.join(out_dir, "rates.csv")
    for name, runs in _simulate_groups(out_dir).items():
        h = hashlib.sha256()
        for argv in runs:
            h.update(_written_record([*argv, "--switch-rates", rates], rates))
        digests[name] = h.hexdigest()
    return digests


def _environment() -> dict[str, str]:
    return {"numpy": np.__version__, "platform": platform.platform()}


def test_every_group_keeps_its_bytes(tmp_path):
    with open(DIGESTS_PATH) as f:
        recorded = json.load(f)
    got = group_digests(str(tmp_path))
    changed = sorted(
        name for name in recorded["groups"].keys() | got.keys()
        if recorded["groups"].get(name) != got.get(name)
    )
    assert not changed, (
        f"groups whose bytes changed: {changed} "
        f"(recorded with {recorded['environment']}, running with {_environment()})"
    )


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write"]:
        sys.exit("usage: python tests/test_byte_identity.py --write [NAME ...]")
    with tempfile.TemporaryDirectory() as out_dir:
        digests = group_digests(out_dir)
    names = sys.argv[2:]
    unknown = sorted(set(names) - digests.keys())
    if unknown:
        sys.exit(f"unknown groups: {unknown}")
    if names:
        with open(DIGESTS_PATH) as f:
            recorded = json.load(f)["groups"]
        digests = {**recorded, **{name: digests[name] for name in names}}
    with open(DIGESTS_PATH, "w") as f:
        json.dump({"environment": _environment(), "groups": digests}, f, indent=2)
        f.write("\n")
