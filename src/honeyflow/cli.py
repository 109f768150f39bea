"""Command-line front end.

Subcommands: solve, evaluate, sweep, matchup, ratio, bench, simulate,
heuristic. Results go to stdout or --output; diagnostics go to stderr.
Exit codes: 0 success, 1 bad input or configuration.
Randomized subcommands default to a fixed seed, so default runs (and
their output files) are reproducible byte for byte; only bench results
hold wall-clock time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Iterable, Sequence

from . import experiments, simulator
from .equilibrium import solve_stackelberg, verify_equilibrium
from .errors import HoneyflowError
from .game import load_spec, spec_to_dict, summarize, to_json
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


class _CliParser(argparse.ArgumentParser):
    """argparse that reports usage problems via exit code 1 and takes
    options only by their full names (so ``sweep --cost`` is not ``--costs``)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise HoneyflowError(message)


def _emit(text: str, output: str | None) -> None:
    """The one writer of results: ``text`` to stdout, or to the file
    ``output`` with its line endings kept as they are."""
    if output:
        with open(output, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _seed(text: str) -> int:
    """A ``--seed`` value: SeedSequence takes only nonnegative integers."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {seed}")
    return seed


def _params_from_args(args, **extra) -> experiments.GeneratorParams:
    real_flows = (
        tuple(args.real_flow_range) if args.real_flow_range else args.real_flows
    )
    return experiments.GeneratorParams(
        type_count=args.types,
        real_flows=real_flows,
        honey_bound_range=tuple(args.honey_bounds),
        value_mode=args.value_mode,
        **extra,
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
    sub.add_argument("--trials", type=int, default=100)


def _report_out(report: experiments.ExperimentReport, args) -> int:
    _emit(report.csv(), args.output)
    if args.output:
        _emit(to_json(report.metadata), args.output + ".meta.json")
    return EXIT_OK


def _solve_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--game", required=True, help="game spec JSON path")
    p.add_argument("--output", default=None)
    p.add_argument("--dump-spec", default=None, help="re-emit the parsed spec as JSON")


def _evaluate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--game", required=True)
    p.add_argument(
        "--defender", choices=["stackelberg", "uniform", "none"], default="stackelberg"
    )
    p.add_argument(
        "--attacker", choices=[m.value for m in AttackerModel], default="rational"
    )
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--output", default=None)
    p.add_argument("--dump-spec", default=None)


def _sweep_args(p: argparse.ArgumentParser) -> None:
    _add_generator_args(p)
    p.add_argument("--costs", type=_floats, default=list(experiments.DEFAULT_COST_SWEEP))
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--output", default=None)


def _matchup_args(p: argparse.ArgumentParser) -> None:
    _add_generator_args(p)
    p.add_argument("--cost", type=float, default=1e-4)
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--output", default=None)


def _ratio_args(p: argparse.ArgumentParser) -> None:
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


def _bench_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dimension", choices=["types", "honey_bounds"], default="types")
    p.add_argument("--sizes", type=_ints, default=[1, 2, 4, 8, 16])
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--output", default=None)


def _simulate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--topology", required=True, help="topology JSON path")
    p.add_argument("--real", type=_ints, required=True, help="real flows per type, e.g. 500,500")
    p.add_argument(
        "--honey",
        required=True,
        help="honey flows per type, e.g. 100,100 or a sweep lo:hi:step applied to every type",
    )
    p.add_argument("--episodes", type=int, default=2000)
    p.add_argument("--policy", default="uniform", help='"uniform" or a fixed type id')
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--output", default=None)
    p.add_argument(
        "--switch-rates",
        default=None,
        metavar="FILE",
        help="also write per-switch honey-traffic rates as CSV (honey_count,switch,honey_rate)",
    )


def _heuristic_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--real-values", type=_floats, required=True)
    p.add_argument("--fake-values", type=_floats, required=True)
    p.add_argument("--real-flows", type=_ints, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--output", default=None)


def _cmd_solve(args) -> int:
    spec = load_spec(args.game)
    if args.dump_spec:
        _emit(to_json(spec_to_dict(spec)), args.dump_spec)
    start = time.perf_counter()
    eq = solve_stackelberg(spec)
    elapsed = time.perf_counter() - start
    report = verify_equilibrium(spec, eq)
    if args.verbose:
        for action, (status, value) in eq.per_action_values.items():
            print(f"{action}: {status} {value}", file=sys.stderr)
        print(f"solved in {elapsed:.6f}s", file=sys.stderr)
    payload = {
        "attacker_action": str(eq.attacker_action),
        "defender_value": eq.defender_value,
        "attacker_value": eq.attacker_value,
        "strategy": eq.strategy.marginals,
        "per_action": {
            str(a): {"status": s, "value": v}
            for a, (s, v) in eq.per_action_values.items()
        },
        "verified": report.all_passed,
    }
    _emit(to_json(payload), args.output)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    spec = load_spec(args.game)
    if args.dump_spec:
        _emit(to_json(spec_to_dict(spec)), args.dump_spec)
    if args.defender == "stackelberg":
        strategy = solve_stackelberg(spec).strategy
    elif args.defender == "uniform":
        strategy = uniform_random_strategy(spec)
    else:
        strategy = no_deception_strategy(spec)
    result = evaluate_matchup(spec, summarize(spec, strategy), AttackerModel(args.attacker))
    behavior = (
        str(result.attacker_behavior)
        if not isinstance(result.attacker_behavior, dict)
        else {str(a): p for a, p in result.attacker_behavior.items()}
    )
    if args.format == "json":
        _emit(
            to_json(
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
        _emit(
            experiments.ExperimentReport(
                ("defender", "attacker", "defender_value", "attacker_value"),
                ((args.defender, args.attacker, result.defender_value, result.attacker_value),),
                {},
            ).csv(),
            args.output,
        )
    return EXIT_OK


def _honey_configs(text: str, n_types: int, episodes: int) -> Iterable[dict[int, int]]:
    """Either fixed per-type counts ("100,50") or a sweep "lo:hi:step"
    applied to every type, yielding one config per sweep point. Every
    count, and a sweep's points times ``episodes`` (at most
    MAX_EPISODES in all), is checked here, before any simulation runs."""
    if ":" in text:
        try:
            lo, hi, step = (int(x) for x in text.split(":"))
        except ValueError:
            raise HoneyflowError(
                f"bad honey sweep {text!r}: expected lo:hi:step"
            ) from None
        if step <= 0 or hi < lo:
            raise HoneyflowError(f"bad honey sweep {text!r}")
        points = range(lo, hi + 1, step)
        if len(points) * episodes > simulator.MAX_EPISODES:
            raise HoneyflowError(
                f"honey sweep {text!r} has {len(points)} points of {episodes} episodes, "
                f"more than the cap of {simulator.MAX_EPISODES} episodes in all"
            )
        for point in (points[0], points[-1]):
            simulator.check_flow_counts("honey", dict.fromkeys(range(n_types), point))
        return (dict.fromkeys(range(n_types), point) for point in points)
    counts = _ints(text)
    if len(counts) != n_types:
        raise HoneyflowError(
            f"expected {n_types} honey counts to match --real, got {len(counts)}"
        )
    simulator.check_flow_counts("honey", dict(enumerate(counts)))
    return [dict(enumerate(counts))]


def _policy(text: str, n_types: int) -> str | int:
    """The attacker policy that ``--policy`` names: "uniform" or a type id."""
    if text == "uniform":
        return text
    try:
        chosen = int(text)
    except ValueError:
        chosen = -1
    if not 0 <= chosen < n_types:
        raise HoneyflowError(
            f'--policy takes "uniform" or a type id in [0, {n_types}), got {text!r}'
        )
    return chosen


def _cmd_simulate(args) -> int:
    if not args.real:
        raise HoneyflowError("--real needs at least one real flow count")
    with open(args.topology, "r", encoding="utf-8") as fh:
        net = simulator.network_from_dict(json.load(fh))
    real = dict(enumerate(args.real))
    simulator.check_flow_counts("real", real)
    honey_configs = _honey_configs(args.honey, len(args.real), args.episodes)
    policy = _policy(args.policy, len(args.real))
    runs = [
        (honey, simulator.run_trials(net, real, honey, policy, args.episodes, args.seed + k))
        for k, honey in enumerate(honey_configs)
    ]
    stats = experiments.ExperimentReport(
        ("honey_count", "type", "mean_def", "mean_att", "stderr_def", "stderr_att",
         "detect_rate"),
        tuple(
            (r.honey_count, r.vuln_type, r.mean_defender, r.mean_attacker,
             r.stderr_defender, r.stderr_attacker, r.defeat_rate)
            for _, report in runs
            for r in report.rows
        ),
        {},
    )
    _emit(stats.csv(), args.output)  # no .meta.json: the CSV is the whole record
    if args.switch_rates:
        # one row per (population, switch): its total honey flows, the
        # switch and the switch's honey-traffic rate
        rates = experiments.ExperimentReport(
            ("honey_count", "switch", "honey_rate"),
            tuple(
                (sum(honey.values()), switch, rate)
                for honey, report in runs
                for switch, rate in report.switch_rates.items()
            ),
            {},
        )
        _emit(rates.csv(), args.switch_rates)
    return EXIT_OK


def _cmd_heuristic(args) -> int:
    inp = HeuristicInput(
        real_values=args.real_values,
        fake_values=args.fake_values,
        real_flow_counts=args.real_flows,
    )
    counts = recommend_honey_flows(inp)
    if args.format == "json":
        _emit(to_json({"honey_flows": [int(c) for c in counts]}), args.output)
    else:
        report = experiments.ExperimentReport(
            ("type", "honey_flows"), tuple((i, int(c)) for i, c in enumerate(counts)), {}
        )
        _emit(report.csv(), args.output)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    report = experiments.cost_sweep(_params_from_args(args), args.costs, args.trials, args.seed)
    return _report_out(report, args)


def _cmd_matchup(args) -> int:
    report = experiments.matchup_grid(
        _params_from_args(args, cost=args.cost), args.trials, args.seed
    )
    return _report_out(report, args)


def _cmd_ratio(args) -> int:
    report = experiments.ratio_analysis(
        args.real_values, args.fake_values, args.ratios, args.real_flows, args.cost
    )
    return _report_out(report, args)


def _cmd_bench(args) -> int:
    report = experiments.scalability_bench(args.dimension, args.sizes, args.trials, args.seed)
    return _report_out(report, args)


# name: (help, adds the subcommand's arguments, runs it)
_SUBCOMMANDS = {
    "solve": ("compute the optimal honey-flow strategy", _solve_args, _cmd_solve),
    "evaluate": ("score one defender against one attacker model", _evaluate_args, _cmd_evaluate),
    "sweep": ("honey-flow cost sweep over random games", _sweep_args, _cmd_sweep),
    "matchup": ("defender x attacker-model grid over random games", _matchup_args, _cmd_matchup),
    "ratio": ("defender value vs honey/real flow ratio", _ratio_args, _cmd_ratio),
    "bench": ("solver scalability benchmark", _bench_args, _cmd_bench),
    "simulate": ("flow-level reconnaissance simulation", _simulate_args, _cmd_simulate),
    "heuristic": ("ratio-rule honey-flow recommendation", _heuristic_args, _cmd_heuristic),
}


def build_parser() -> argparse.ArgumentParser:
    """The full parser tree, with every subcommand and its arguments.
    ``_parse_args`` uses it only for the command lines it does not hand
    to one subcommand's parser: top-level help and usage errors."""
    parser = _CliParser(prog="honeyflow", description=__doc__)
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args, _) in _SUBCOMMANDS.items():
        add_args(sub.add_parser(name, help=help_text))
    return parser


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """The arguments of one command line, parsed by one parser when it can.

    When ``argv`` names a subcommand after any leading ``--verbose``
    tokens, only that subcommand's parser is built: it is the parser
    ``build_parser``'s ``add_parser`` would make, and the full tree would
    hand it every remaining token, so the result, help and errors are the
    same. Any other command line goes to the full tree.
    """
    verbose = 0
    while verbose < len(argv) and argv[verbose] == "--verbose":
        verbose += 1
    name = argv[verbose] if verbose < len(argv) else None
    if name not in _SUBCOMMANDS:
        return build_parser().parse_args(argv)
    parser = _CliParser(prog=f"honeyflow {name}")
    _SUBCOMMANDS[name][1](parser)
    args = parser.parse_args(argv[verbose + 1 :])
    args.command = name
    args.verbose = verbose > 0
    return args


def _check_outputs(args) -> None:
    """Reject an output option that names the file of the input or of
    another output option: the run would overwrite one with the other."""
    outputs = [n for n in ("output", "dump_spec", "switch_rates") if getattr(args, n, None)]
    if not outputs:
        return
    named = {}
    for name in ("game", "topology", *outputs):
        path = getattr(args, name, None)
        if path is None:
            continue
        first = named.setdefault(os.path.realpath(path), name)
        if first != name:
            options = " and ".join("--" + n.replace("_", "-") for n in (first, name))
            raise HoneyflowError(f"{options} name the same file {path}")


def run(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_args(argv)
        _check_outputs(args)
        return _SUBCOMMANDS[args.command][2](args)
    except (HoneyflowError, OSError, RecursionError, ValueError) as exc:
        # RecursionError: a JSON input nested too deep
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
