"""Command-line front end.

Subcommands: solve, evaluate, sweep, matchup, ratio, bench, simulate,
heuristic. Results go to stdout or --output; diagnostics go to stderr.
Exit codes: 0 success, 1 validation/config problems, 2 solver failures.
Randomized subcommands default to a fixed seed, so default runs (and
their output files) are reproducible byte for byte; wall-clock columns
are withheld unless --with-timing is passed.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

import numpy as np

from . import experiments, simulator
from .equilibrium import solve_stackelberg, verify_equilibrium
from .errors import HoneyflowError, SolverError
from .game import DefenderStrategy, dump_spec, load_spec
from .heuristics import HeuristicInput, recommend_honey_flows
from .strategies import (
    AttackerModel,
    evaluate_matchup,
    no_deception_strategy,
    uniform_random_strategy,
)

DEFAULT_SEED = 20200207

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2


class _CliParser(argparse.ArgumentParser):
    """argparse that reports usage problems via exit code 1."""

    def error(self, message):
        raise HoneyflowError(message)


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _to_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _strategy_payload(strategy: DefenderStrategy) -> list[list[float]]:
    return [[float(p) for p in m] for m in strategy.marginals]


def _params_from_args(args) -> experiments.GeneratorParams:
    real_flows = (
        tuple(args.real_flow_range) if args.real_flow_range else args.real_flows
    )
    return experiments.GeneratorParams(
        type_count=args.types,
        real_flows=real_flows,
        honey_bound_range=tuple(args.honey_bounds),
        value_mode=args.value_mode,
        cost=args.cost,
    )


def _add_generator_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--types", type=int, default=5, help="number of vulnerability types")
    sub.add_argument("--real-flows", type=int, default=500)
    sub.add_argument(
        "--real-flow-range", type=int, nargs=2, metavar=("LO", "HI"), default=None
    )
    sub.add_argument(
        "--honey-bounds", type=int, nargs=2, metavar=("LO", "HI"), default=(500, 1000)
    )
    sub.add_argument(
        "--value-mode",
        choices=[experiments.MODE_FAKE_ZERO, experiments.MODE_FAKE_EQUALS_REAL],
        default=experiments.MODE_FAKE_ZERO,
    )
    sub.add_argument("--cost", type=float, default=1e-4)
    sub.add_argument("--trials", type=int, default=100)


def _report_out(report: experiments.ExperimentReport, args) -> None:
    if args.output:
        report.write_csv(args.output, with_timing=args.with_timing)
        report.write_metadata(args.output + ".meta.json")
    else:
        report.write_rows(sys.stdout, with_timing=args.with_timing)


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(prog="honeyflow", description=__doc__)
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute the optimal honey-flow strategy")
    p.add_argument("--game", required=True, help="game spec JSON path")
    p.add_argument("--output", default=None)
    p.add_argument("--with-timing", action="store_true")
    p.add_argument("--dump-spec", default=None, help="re-emit the parsed spec as JSON")

    p = sub.add_parser("evaluate", help="score one defender against one attacker model")
    p.add_argument("--game", required=True)
    p.add_argument(
        "--defender", choices=["stackelberg", "uniform", "none"], default="stackelberg"
    )
    p.add_argument(
        "--attacker", choices=["rational", "uniform", "greedy"], default="rational"
    )
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--output", default=None)
    p.add_argument("--dump-spec", default=None)

    p = sub.add_parser("sweep", help="honey-flow cost sweep over random games")
    _add_generator_args(p)
    p.add_argument("--costs", type=_floats, default=list(experiments.DEFAULT_COST_SWEEP))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--output", default=None)
    p.add_argument("--with-timing", action="store_true")

    p = sub.add_parser("matchup", help="defender x attacker-model grid over random games")
    _add_generator_args(p)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--output", default=None)
    p.add_argument("--with-timing", action="store_true")

    p = sub.add_parser("ratio", help="defender value vs honey/real flow ratio")
    p.add_argument("--real-values", type=_floats, default=[10.0, 20.0, 30.0, 40.0])
    p.add_argument("--fake-values", type=_floats, default=[9.0, 18.0, 27.0, 32.0])
    p.add_argument(
        "--ratios",
        type=_floats,
        default=[round(0.1 * k, 2) for k in range(0, 31)],
    )
    p.add_argument("--real-flows", type=_ints, default=[10, 15, 30])
    p.add_argument("--cost", type=float, default=0.1)
    p.add_argument("--output", default=None)
    p.add_argument("--with-timing", action="store_true")

    p = sub.add_parser("bench", help="solver scalability benchmark")
    p.add_argument("--dimension", choices=["types", "honey_bounds"], default="types")
    p.add_argument("--sizes", type=_ints, default=[1, 2, 4, 8, 16])
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--output", default=None)
    p.set_defaults(with_timing=True)  # timing is what bench reports

    p = sub.add_parser("simulate", help="flow-level reconnaissance simulation")
    p.add_argument("--topology", required=True, help="topology JSON path")
    p.add_argument("--real", type=_ints, required=True, help="real flows per type, e.g. 500,500")
    p.add_argument(
        "--honey",
        required=True,
        help="honey flows per type, e.g. 100,100 or a sweep lo:hi:step applied to every type",
    )
    p.add_argument("--episodes", type=int, default=2000)
    p.add_argument("--policy", default="uniform", help='"uniform" or a fixed type id')
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--output", default=None)

    p = sub.add_parser("heuristic", help="ratio-rule honey-flow recommendation")
    p.add_argument("--real-values", type=_floats, required=True)
    p.add_argument("--fake-values", type=_floats, required=True)
    p.add_argument("--real-flows", type=_ints, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--output", default=None)
    return parser


def _cmd_solve(args) -> int:
    spec = load_spec(args.game)
    if args.dump_spec:
        dump_spec(spec, args.dump_spec)
    eq = solve_stackelberg(spec)
    report = verify_equilibrium(spec, eq)
    if args.verbose:
        for action, (status, value) in eq.per_action_values.items():
            print(f"{action}: {status} {value}", file=sys.stderr)
        print(f"solved in {eq.solve_time:.6f}s", file=sys.stderr)
    payload = {
        "attacker_action": str(eq.attacker_action),
        "defender_value": eq.defender_value,
        "attacker_value": eq.attacker_value,
        "strategy": _strategy_payload(eq.strategy),
        "per_action": {
            str(a): {"status": s, "value": v}
            for a, (s, v) in sorted(
                eq.per_action_values.items(),
                key=lambda kv: (kv[0].target is None, kv[0].target),
            )
        },
        "verified": report.all_passed,
    }
    if args.with_timing:
        payload["solve_time"] = eq.solve_time
    _emit(_to_json(payload), args.output)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    spec = load_spec(args.game)
    if args.dump_spec:
        dump_spec(spec, args.dump_spec)
    if args.defender == "stackelberg":
        strategy = solve_stackelberg(spec).strategy
    elif args.defender == "uniform":
        strategy = uniform_random_strategy(spec)
    else:
        strategy = no_deception_strategy(spec)
    model = {
        "rational": AttackerModel.RATIONAL,
        "uniform": AttackerModel.UNIFORM_RANDOM,
        "greedy": AttackerModel.GREEDY,
    }[args.attacker]
    result = evaluate_matchup(spec, strategy, args.defender, model)
    behavior = (
        str(result.attacker_behavior)
        if not isinstance(result.attacker_behavior, dict)
        else {str(a): p for a, p in result.attacker_behavior.items()}
    )
    if args.format == "json":
        _emit(
            _to_json(
                {
                    "defender": args.defender,
                    "attacker": args.attacker,
                    "defender_value": result.defender_value,
                    "attacker_value": result.attacker_value,
                    "attacker_behavior": behavior,
                }
            ),
            args.output,
        )
    else:
        lines = [
            "defender,attacker,defender_value,attacker_value",
            f"{args.defender},{args.attacker},{result.defender_value!r},{result.attacker_value!r}",
        ]
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _parse_honey_arg(text: str, n_types: int) -> list[dict[int, int]]:
    """Either fixed per-type counts ("100,50") or a sweep "lo:hi:step"
    applied to every type, yielding one config per sweep point."""
    if ":" in text:
        lo, hi, step = (int(x) for x in text.split(":"))
        if step <= 0 or hi < lo:
            raise HoneyflowError(f"bad honey sweep {text!r}")
        points = list(range(lo, hi + 1, step))
        return [{t: point for t in range(n_types)} for point in points]
    counts = _ints(text)
    if len(counts) != n_types:
        raise HoneyflowError(
            f"expected {n_types} honey counts to match --real, got {len(counts)}"
        )
    return [dict(enumerate(counts))]


def _cmd_simulate(args) -> int:
    with open(args.topology, "r", encoding="utf-8") as fh:
        net = simulator.network_from_dict(json.load(fh))
    real = dict(enumerate(args.real))
    honey_configs = _parse_honey_arg(args.honey, len(args.real))
    policy = (
        simulator.uniform_type_policy if args.policy == "uniform" else int(args.policy)
    )
    reports = []
    for k, honey in enumerate(honey_configs):
        reports.append(
            simulator.run_trials(
                net, real, honey, policy, args.episodes, args.seed + k
            )
        )
    buf = io.StringIO()
    simulator.write_report_csv(reports, buf)
    _emit(buf.getvalue(), args.output)
    return EXIT_OK


def _cmd_heuristic(args) -> int:
    inp = HeuristicInput(
        real_values=np.asarray(args.real_values),
        fake_values=np.asarray(args.fake_values),
        real_flow_counts=np.asarray(args.real_flows),
    )
    counts = recommend_honey_flows(inp)
    if args.format == "json":
        _emit(_to_json({"honey_flows": [int(c) for c in counts]}), args.output)
    else:
        lines = ["type,honey_flows"] + [f"{i},{int(c)}" for i, c in enumerate(counts)]
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "evaluate":
            return _cmd_evaluate(args)
        if args.command == "sweep":
            report = experiments.cost_sweep(
                _params_from_args(args), args.costs, args.trials, args.seed
            )
            _report_out(report, args)
            return EXIT_OK
        if args.command == "matchup":
            report = experiments.matchup_grid(
                _params_from_args(args), args.trials, args.seed
            )
            _report_out(report, args)
            return EXIT_OK
        if args.command == "ratio":
            report = experiments.ratio_analysis(
                args.real_values, args.fake_values, args.ratios, args.real_flows, args.cost
            )
            _report_out(report, args)
            return EXIT_OK
        if args.command == "bench":
            report = experiments.scalability_bench(
                args.dimension, args.sizes, args.trials, args.seed
            )
            _report_out(report, args)
            return EXIT_OK
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "heuristic":
            return _cmd_heuristic(args)
        raise HoneyflowError(f"unknown command {args.command!r}")
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except HoneyflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
