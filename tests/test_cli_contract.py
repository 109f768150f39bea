"""The CLI's exit contract under arbitrary JSON input.

``solve``, ``evaluate`` and ``simulate`` read a JSON file. Whatever the
file holds, the run must exit 0 with finite numbers on stdout, or exit 1
with exactly one line on stderr and nothing on stdout. A traceback, a
NaN or Infinity printed with exit 0, or bad input reported as a solver
fault (exit 2) all break the contract.

Each input is a valid document with one node (the whole document, a
field, a list item) replaced, so that the deeper checks are reached as
well as the top level.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import re

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from honeyflow.cli import run
from honeyflow.game import MAX_TYPES

WORKED_EXAMPLE = {
    "types": [
        {"attacker_real_value": 10.0, "attacker_honey_value": -5.0, "real_flows": 5,
         "honey_flow_bound": 2, "cost_per_flow": 1.0},
        {"attacker_real_value": 20.0, "attacker_honey_value": -10.0, "real_flows": 5,
         "honey_flow_bound": 3, "cost_per_flow": 0.5},
    ]
}

CHAIN_TOPOLOGY = {
    "endpoints": [
        {"id": "c1", "defender_value": 1.0, "attacker_value": 1.0, "weaknesses": [0],
         "fake": False},
        {"id": "c2", "defender_value": 2.0, "attacker_value": 2.0, "weaknesses": [1],
         "fake": False},
        {"id": "f1", "defender_value": 0.0, "attacker_value": -1.0, "weaknesses": [0, 1],
         "fake": True},
    ],
    "switches": ["s1", "s2"],
    "links": [["c1", "s1"], ["f1", "s1"], ["s1", "s2"], ["c2", "s2"]],
    "compromised": ["s1"],
}

# Leaves include the values that have broken input checks before: null,
# booleans, NaN and infinities, and integers beyond every float.
LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from([10**400, -(10**400), 2**63, 1e308, 0, -1])
)
DOCUMENTS = st.recursive(
    LEAVES,
    lambda kids: (
        st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids, max_size=3)
    ),
    max_leaves=8,
)


def _paths(node, prefix=()):
    """The path (a tuple of keys and indices) of every node in ``node``."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _strings(node):
    """Every string in ``node``: its field names and its string values."""
    if isinstance(node, str):
        yield node
    elif isinstance(node, dict):
        yield from node
        for child in node.values():
            yield from _strings(child)
    elif isinstance(node, list):
        for child in node:
            yield from _strings(child)


@st.composite
def _mutated(draw, base):
    """``base`` with one node replaced: by arbitrary JSON, or by a value
    close to valid (a small number, or a string the document already uses)."""
    doc = copy.deepcopy(base)
    path = draw(st.sampled_from(list(_paths(doc))))
    value = draw(
        st.integers(-2, 12)
        | st.floats(-20, 20)
        | st.sampled_from(sorted(set(_strings(doc))))
        | DOCUMENTS
    )
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _text(base):
    return _mutated(base).map(json.dumps)  # NaN / Infinity as literals


NOT_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],  # tmp_path: one file, rewritten
)

# A JSON file nested far beyond Python's recursion limit.
DEEP = "[" * 100_000 + "]" * 100_000
HUGE_COUNT = json.dumps(
    {"types": [dict(WORKED_EXAMPLE["types"][0], real_flows=10**400)]}
)
LARGE_COUNT = json.dumps(  # a count well beyond int64 that still solves
    {"types": [dict(WORKED_EXAMPLE["types"][0], real_flows=10**20)]}
)
TOO_MANY_TYPES = json.dumps({"types": WORKED_EXAMPLE["types"][:1] * (MAX_TYPES + 1)})
# A subnormal step in type 1's curve: the hold weight at tau* overflows.
SUBNORMAL_STEP = json.dumps({"types": [
    {"attacker_real_value": -1e-9, "attacker_honey_value": -2e-9, "real_flows": 1,
     "honey_flow_bound": 1, "cost_per_flow": 1.0},
    {"attacker_real_value": 5e-324, "attacker_honey_value": 0.0, "real_flows": 1,
     "honey_flow_bound": 1, "cost_per_flow": 1.0},
]})
# A defender value whose episode payoffs sum past the largest float.
FLOAT_MAX_VALUE = json.dumps(
    dict(
        CHAIN_TOPOLOGY,
        endpoints=[dict(CHAIN_TOPOLOGY["endpoints"][0], defender_value=1e308)]
        + CHAIN_TOPOLOGY["endpoints"][1:],
    )
)


def _check_contract(tmp_path, text: str, argv: list[str]) -> int:
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([a.replace("{input}", str(path)) for a in argv])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1), (code, err)
    assert "Traceback" not in err
    if code == 1:
        assert out == ""
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
    else:
        assert not NOT_FINITE.search(out), out
    return code


@FUZZ
@given(text=_text(WORKED_EXAMPLE))
@example(text=DEEP)
@example(text=HUGE_COUNT)
@example(text=LARGE_COUNT)
@example(text=TOO_MANY_TYPES)
@example(text=SUBNORMAL_STEP)
def test_solve_contract(tmp_path, text):
    _check_contract(tmp_path, text, ["solve", "--game", "{input}"])


@FUZZ
@given(
    text=_text(WORKED_EXAMPLE),
    defender=st.sampled_from(["stackelberg", "uniform", "none"]),
    attacker=st.sampled_from(["rational", "uniform", "greedy"]),
    fmt=st.sampled_from(["json", "csv"]),
)
@example(text=DEEP, defender="stackelberg", attacker="rational", fmt="json")
@example(text=HUGE_COUNT, defender="uniform", attacker="greedy", fmt="csv")
@example(text=TOO_MANY_TYPES, defender="stackelberg", attacker="rational", fmt="json")
def test_evaluate_contract(tmp_path, text, defender, attacker, fmt):
    _check_contract(
        tmp_path,
        text,
        ["evaluate", "--game", "{input}", "--defender", defender, "--attacker", attacker,
         "--format", fmt],
    )


@FUZZ
@given(
    text=_text(CHAIN_TOPOLOGY),
    real=st.lists(st.integers(0, 6), min_size=2, max_size=2),
    honey=st.integers(0, 6),
    policy=st.sampled_from(["uniform", "0", "1"]),
)
@example(text=DEEP, real=[2, 2], honey=1, policy="uniform")
@example(text=FLOAT_MAX_VALUE, real=[1, 0], honey=0, policy="uniform")
def test_simulate_contract(tmp_path, text, real, honey, policy):
    _check_contract(
        tmp_path,
        text,
        ["simulate", "--topology", "{input}", "--real", ",".join(map(str, real)),
         "--honey", ",".join([str(honey)] * len(real)), "--policy", policy,
         "--episodes", "20", "--seed", "3"],
    )

