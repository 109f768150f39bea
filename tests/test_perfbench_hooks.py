"""The names that perfbench's span wrappers replace.

``perfbench/spans.py:TARGETS`` lists (module, attribute, span) triples;
the tracer replaces each attribute on its module with a timing wrapper
and skips any that no longer exists, so a renamed or deleted name would
only drop its layer's metrics. These tests read ``TARGETS`` without
installing anything and fail instead.
"""

from __future__ import annotations

import importlib
import importlib.util
import os

import numpy as np
import pytest

from honeyflow import experiments, simulator

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


STUDY_GAME = experiments.GeneratorParams(type_count=3, real_flows=5, honey_bound_range=(3, 6))


def _targets() -> tuple[tuple[str, str, str], ...]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize("module_name, attr, span", _targets())
def test_every_wrapped_name_is_callable(module_name, attr, span):
    assert callable(getattr(importlib.import_module(module_name), attr, None)), span


def test_run_trials_calls_attacker_episode_once_per_episode_in_draw_order(monkeypatch):
    """perfbench counts ``simulator.episodes`` as the calls of a wrapper
    on ``simulator.attacker_episode``; run_trials must make one call per
    episode, through the module, in the order episode_draws draws them."""
    assert ("honeyflow.simulator", "attacker_episode", "simulator.attack") in _targets()
    endpoints = {
        name: simulator.Endpoint(name, 1.0, 1.0, frozenset({0, 1}), name.startswith("f"))
        for name in ("a", "b", "c", "f1", "f2")
    }
    links = [(name, "s1") for name in endpoints]
    net = simulator.build_network(endpoints, ["s1"], links, ["s1"])
    real, honey, episodes, seed = {0: 20, 1: 15}, {0: 5, 1: 5}, 2_500, 3

    calls = []
    original = simulator.attacker_episode

    def counted(observation, chosen, row):
        calls.append((chosen, row))
        return original(observation, chosen, row)

    monkeypatch.setattr(simulator, "attacker_episode", counted)
    report = simulator.run_trials(net, real, honey, "uniform", episodes, seed)

    flows = simulator.generate_flows(net, real, honey, np.random.SeedSequence(seed).spawn(1)[0])
    totals = simulator.observe(flows).totals()
    blocks = list(simulator.episode_draws(totals, "uniform", episodes, seed))
    drawn = zip(*(np.concatenate(column).tolist() for column in zip(*blocks)))
    assert calls == list(drawn)
    assert sum(row.episodes for row in report.rows) == episodes


@pytest.mark.parametrize(
    "study, matchups",
    [
        (lambda: experiments.cost_sweep(STUDY_GAME, costs=(0.0, 1e-3, 0.5), trials=2), 2 * 3 * 3),
        (lambda: experiments.matchup_grid(STUDY_GAME, trials=3), 3 * 9),
        (
            lambda: experiments.ratio_analysis(
                [10.0, 20.0], [9.0, 4.0], [0.0, 0.1, 0.5, 2.0], [3, 7, 10], 0.1
            ),
            3 * 4,
        ),
    ],
    ids=["cost-sweep", "matchup-grid", "ratio-analysis"],
)
def test_studies_call_evaluate_matchup_once_per_matchup(monkeypatch, study, matchups):
    """perfbench counts ``strategies.matchups`` as the calls of a wrapper on
    ``experiments.evaluate_matchup``; each study must score every matchup
    through the module, once: trials x costs x 3 defenders in a sweep,
    trials x 9 in the grid, real-flow counts x ratios in the ratio study."""
    assert ("honeyflow.experiments", "evaluate_matchup", "strategies.matchup") in _targets()
    calls = []
    original = experiments.evaluate_matchup

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(experiments, "evaluate_matchup", counted)
    study()
    assert len(calls) == matchups
