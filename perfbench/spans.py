"""Layer spans recorded from outside the program.

``Tracer.install`` replaces each public function in ``TARGETS`` with a
wrapper under the name its caller looks it up by, so the program itself is
unchanged. A wrapper records a span (name, start, end, parent) in memory
and accumulates per-layer totals; self time is a span's duration minus
the time covered by its child spans. Targets that no longer exist are
skipped, and the metrics of their layer are then absent rather than zero.
"""

from __future__ import annotations

import csv
import functools
import importlib
import statistics
import time
from array import array
from collections import defaultdict

# (module, attribute as its caller looks it up, span name)
TARGETS = (
    ("honeyflow.cli", "load_spec", "game.load_spec"),
    ("honeyflow.cli", "solve_stackelberg", "equilibrium.solve"),
    ("honeyflow.cli", "verify_equilibrium", "equilibrium.verify"),
    ("honeyflow.simulator", "network_from_dict", "simulator.network"),
    ("honeyflow.simulator", "run_trials", "simulator.run_trials"),
    # the harnesses cli calls through the module; their self time is
    # experiments.self_s
    ("honeyflow.experiments", "cost_sweep", "experiments.harness"),
    ("honeyflow.experiments", "matchup_grid", "experiments.harness"),
    ("honeyflow.experiments", "ratio_analysis", "experiments.harness"),
    ("honeyflow.experiments", "random_game", "experiments.random_game"),
    ("honeyflow.experiments", "solve_stackelberg", "equilibrium.solve"),
    ("honeyflow.experiments", "evaluate_matchup", "strategies.matchup"),
    ("honeyflow.equilibrium", "build_best_response_lp", "equilibrium.build_lp"),
    ("honeyflow.equilibrium", "solve_lp", "lp.solve"),
    ("honeyflow._kernels", "simplex_iterate", "kernels.simplex"),
    ("honeyflow.strategies", "rational_attacker", "strategies.rational"),
    ("honeyflow.simulator", "generate_flows", "simulator.generate"),
    ("honeyflow.simulator", "observe", "simulator.observe"),
    ("honeyflow.simulator", "attacker_episode", "simulator.attack"),
    ("honeyflow.simulator", "honey_traffic_rate", "simulator.rates"),
)
ROOT_SPAN = "cli.run"

# Counts that depend only on the inputs, so they repeat exactly.
DETERMINISTIC_COUNTS = (
    "kernels.pivots",
    "lp.calls",
    "lp.infeasible_frac",
    "equilibrium.lps_built",
    "simulator.flows_generated",
    "simulator.flows_observed",
    "simulator.episodes",
)


class _Frame:
    __slots__ = ("id", "name", "child_ns", "kernel_calls")

    def __init__(self, span_id: int, name: str):
        self.id = span_id
        self.name = name
        self.child_ns = 0
        self.kernel_calls = 0


class Tracer:
    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._spans = array("q")  # id, name id, start ns, end ns, parent id
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._installed: list[tuple[object, str, object]] = []
        self.present: set[str] = {ROOT_SPAN}
        self.min_self_ns = 0
        self._reset_totals()

    def _reset_totals(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        parent = self._stack[-1] if self._stack else None
        if name == "kernels.simplex":
            # lp.solve runs the kernel once for phase 1, then for phase 2
            if parent is not None and parent.name == "lp.solve":
                parent.kernel_calls += 1
                name = "kernels.phase1" if parent.kernel_calls == 1 else "kernels.phase2"
            else:
                name = "kernels.phase2"
        frame = _Frame(self._next_id, name)
        self._next_id += 1
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            duration = end - start
            own = duration - frame.child_ns
            self.min_self_ns = min(self.min_self_ns, own)
            if parent is not None:
                parent.child_ns += duration
            self.calls[name] += 1
            self.total_ns[name] += duration
            self.self_ns[name] += own
            name_id = self._name_ids.setdefault(name, len(self._name_ids))
            if name_id == len(self._names):
                self._names.append(name)
            self._spans.extend((frame.id, name_id, start, end, -1 if parent is None else parent.id))

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            _count(tracer.counts, name, result)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                continue
            self._installed.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))
            self.present.add(name)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    # -- results -----------------------------------------------------------

    def take_pass(self) -> dict[str, float]:
        """Layer metrics accumulated since the last call, then reset."""
        metrics = layer_metrics(self)
        self._reset_totals()
        return metrics

    def write_spans(self, path: str) -> int:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("id", "name", "start_ns", "end_ns", "parent"))
            s = self._spans
            for i in range(0, len(s), 5):
                writer.writerow((s[i], self._names[s[i + 1]], s[i + 2], s[i + 3], s[i + 4]))
        return len(self._spans) // 5


def _count(counts: dict[str, int], name: str, result) -> None:
    """Work counts read off a wrapped call's result."""
    if name == "kernels.simplex":
        counts["pivots"] += int(result[1])
    elif name == "lp.solve":
        counts["lp_infeasible"] += getattr(result, "status", None) == "infeasible"
    elif name == "simulator.generate":
        counts["flows_generated"] += len(result)
    elif name == "simulator.observe":
        counts["flows_observed"] += sum(len(fs) for fs in result.observed.values())


def layer_metrics(t: Tracer) -> dict[str, float]:
    def total(name):
        return t.total_ns[name] / 1e9

    def own(name):
        return t.self_ns[name] / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    present, calls, counts = t.present, t.calls, t.counts
    m = {"cli.self_s": own(ROOT_SPAN)}
    if "game.load_spec" in present:
        m["game.load_spec_s"] = total("game.load_spec")
        m["game.load_spec_calls"] = calls["game.load_spec"]
    if "equilibrium.solve" in present:
        m["equilibrium.solve_s"] = total("equilibrium.solve")
        m["equilibrium.solves"] = calls["equilibrium.solve"]
        m["equilibrium.self_s"] = own("equilibrium.solve")
    if "equilibrium.build_lp" in present:
        m["equilibrium.build_lp_s"] = total("equilibrium.build_lp")
        m["equilibrium.lps_built"] = calls["equilibrium.build_lp"]
    if "equilibrium.verify" in present:
        m["equilibrium.verify_s"] = total("equilibrium.verify")
    if "lp.solve" in present:
        m["lp.solve_s"] = total("lp.solve")
        m["lp.calls"] = calls["lp.solve"]
        m["lp.self_s"] = own("lp.solve")
        m["lp.infeasible_frac"] = ratio(counts["lp_infeasible"], calls["lp.solve"])
    if "kernels.simplex" in present:
        m["kernels.phase1_s"] = total("kernels.phase1")
        m["kernels.phase2_s"] = total("kernels.phase2")
        m["kernels.pivots"] = counts["pivots"]
    if "strategies.matchup" in present:
        m["strategies.matchup_s"] = total("strategies.matchup")
        m["strategies.matchups"] = calls["strategies.matchup"]
    if "strategies.rational" in present:
        m["strategies.rational_s"] = total("strategies.rational")
    if "experiments.random_game" in present:
        m["experiments.random_game_s"] = total("experiments.random_game")
        m["experiments.games"] = calls["experiments.random_game"]
    if "experiments.harness" in present:
        m["experiments.self_s"] = own("experiments.harness")
    if "simulator.network" in present:
        m["simulator.network_s"] = total("simulator.network")
    if "simulator.generate" in present:
        m["simulator.generate_s"] = total("simulator.generate")
        m["simulator.flows_generated"] = counts["flows_generated"]
    if "simulator.observe" in present:
        m["simulator.observe_s"] = total("simulator.observe")
        m["simulator.flows_observed"] = counts["flows_observed"]
        m["simulator.visible_frac"] = ratio(counts["flows_observed"], counts["flows_generated"])
    if "simulator.attack" in present:
        m["simulator.attack_s"] = total("simulator.attack")
        m["simulator.episodes"] = calls["simulator.attack"]
    if "simulator.run_trials" in present:
        m["simulator.episodes_s"] = own("simulator.run_trials")
    if "simulator.rates" in present:
        m["simulator.rates_s"] = total("simulator.rates")
        m["simulator.rate_calls"] = calls["simulator.rates"]
    return m


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_frac") else "count"


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}
