"""Optimal honey-traffic strategies against passive network reconnaissance.

A defender floods the network with fake flows that advertise nonexistent
vulnerable hosts; an attacker watching from compromised switches must
decide which advertised weakness, if any, to act on. This package solves
the resulting leader-follower game exactly, provides baseline and naive
behaviors for comparison, approximates the optimum with a fast ratio rule,
and replays everything in a flow-level simulator.
"""

from .equilibrium import (
    Equilibrium,
    VerificationReport,
    solve_stackelberg,
    verify_equilibrium,
)
from .errors import (
    ConfigError,
    EmptyActionSet,
    EmptyObservation,
    HoneyflowError,
    ShapeError,
    SolverError,
    TopologyError,
    ValidationError,
)
from .game import (
    NO_ATTACK,
    AttackerAction,
    DefenderStrategy,
    GameSpec,
    VulnerabilityType,
    load_spec,
    spec_from_dict,
    spec_to_dict,
    summarize,
    summarize_counts,
    utilities,
)
from .heuristics import HeuristicInput, exactness_gap, recommend_honey_flows
from .strategies import (
    AttackerModel,
    MatchupResult,
    evaluate_matchup,
    greedy_attacker,
    no_deception_strategy,
    rational_attacker,
    uniform_attacker,
    uniform_random_strategy,
)

__version__ = "0.1.0"

__all__ = [
    "AttackerAction",
    "AttackerModel",
    "ConfigError",
    "DefenderStrategy",
    "EmptyActionSet",
    "EmptyObservation",
    "Equilibrium",
    "GameSpec",
    "HeuristicInput",
    "HoneyflowError",
    "MatchupResult",
    "NO_ATTACK",
    "ShapeError",
    "SolverError",
    "TopologyError",
    "ValidationError",
    "VerificationReport",
    "VulnerabilityType",
    "evaluate_matchup",
    "exactness_gap",
    "greedy_attacker",
    "load_spec",
    "no_deception_strategy",
    "rational_attacker",
    "recommend_honey_flows",
    "solve_stackelberg",
    "spec_from_dict",
    "spec_to_dict",
    "summarize",
    "summarize_counts",
    "uniform_attacker",
    "uniform_random_strategy",
    "utilities",
    "verify_equilibrium",
]
