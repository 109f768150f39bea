"""Flow-level network simulator: topology, flows, observation, episodes.

Models what a passive attacker sitting on compromised switches can see and
what happens when it acts: flows (real or honey) advertise a vulnerability
type, the attacker draws a random observed flow of its chosen type, and
the draw resolves to a success (real flow, matching weakness), a no-op
(real flow, no matching weakness), or a defeat (honey flow, attacker
detected). Packet-level behavior is out of scope; honey-traffic load shows
up only as a per-switch traffic-rate metric.
"""

from __future__ import annotations

import csv
import enum
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, EmptyObservation, TopologyError


@dataclass(frozen=True)
class Endpoint:
    id: str
    defender_value: float
    attacker_value: float
    weaknesses: frozenset[int]
    is_fake: bool


@dataclass(frozen=True)
class NetworkModel:
    endpoints: dict[str, Endpoint]
    switches: frozenset[str]
    adjacency: dict[str, tuple[str, ...]]
    paths: dict[tuple[str, str], tuple[str, ...]]
    compromised: frozenset[str]

    @property
    def real_endpoint_ids(self) -> tuple[str, ...]:
        return tuple(sorted(e for e, ep in self.endpoints.items() if not ep.is_fake))

    @property
    def fake_endpoint_ids(self) -> tuple[str, ...]:
        return tuple(sorted(e for e, ep in self.endpoints.items() if ep.is_fake))


@dataclass(frozen=True)
class FlowRecord:
    origin: str
    destination: str
    info: int | None
    path: tuple[str, ...]
    is_honey: bool


class OutcomeKind(enum.Enum):
    SUCCESS = "success"
    NOOP = "noop"
    DEFEAT = "defeat"


@dataclass(frozen=True)
class EpisodeOutcome:
    kind: OutcomeKind
    target: str
    attacker_payoff: float
    defender_payoff: float


_TOPOLOGY_FIELDS = {"endpoints", "switches", "links", "compromised"}
_ENDPOINT_FIELDS = {"id", "defender_value", "attacker_value", "weaknesses", "fake"}


def _endpoint_value(raw: Mapping, field: str) -> float:
    value = raw.get(field, 0.0)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(float(value)):
                return float(value)
        except OverflowError:
            pass
    raise TopologyError(
        f"endpoint {raw['id']}: {field} must be a finite number, got {value!r}"
    )


def network_from_dict(payload: Mapping) -> NetworkModel:
    """Build and validate a NetworkModel from the topology JSON shape.

    Expected keys: ``endpoints`` (objects with id, defender_value,
    attacker_value, weaknesses, fake), ``switches`` (ids), ``links``
    (id pairs; endpoint-to-endpoint links are rejected), ``compromised``
    (switch ids). Unknown fields are rejected.
    """
    if not isinstance(payload, Mapping):
        raise TopologyError("topology must be a JSON object")
    unknown = set(payload) - _TOPOLOGY_FIELDS
    if unknown:
        raise TopologyError(f"unknown topology fields: {sorted(unknown)}")

    endpoints: dict[str, Endpoint] = {}
    for raw in payload.get("endpoints", []):
        if not isinstance(raw, Mapping) or "id" not in raw:
            raise TopologyError(f"endpoint {raw!r} must be an object with an id")
        unknown = set(raw) - _ENDPOINT_FIELDS
        if unknown:
            raise TopologyError(
                f"endpoint {raw.get('id')}: unknown fields {sorted(unknown)}"
            )
        weaknesses = raw.get("weaknesses", [])
        if not isinstance(weaknesses, list) or not all(
            isinstance(w, int) and not isinstance(w, bool) for w in weaknesses
        ):
            raise TopologyError(
                f"endpoint {raw['id']}: weaknesses must be a list of type ids"
            )
        ep = Endpoint(
            id=str(raw["id"]),
            defender_value=_endpoint_value(raw, "defender_value"),
            attacker_value=_endpoint_value(raw, "attacker_value"),
            weaknesses=frozenset(weaknesses),
            is_fake=bool(raw.get("fake", False)),
        )
        if ep.id in endpoints:
            raise TopologyError(f"duplicate endpoint id {ep.id}")
        endpoints[ep.id] = ep

    switches = frozenset(str(s) for s in payload.get("switches", []))
    if switches & set(endpoints):
        raise TopologyError("switch ids overlap endpoint ids")

    links = []
    for pair in payload.get("links", []):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise TopologyError(f"link {pair!r} must be a pair of node ids")
        a, b = str(pair[0]), str(pair[1])
        for node in (a, b):
            if node not in endpoints and node not in switches:
                raise TopologyError(f"link references unknown node {node}")
        if a in endpoints and b in endpoints:
            raise TopologyError(f"endpoints {a} and {b} may not link directly")
        links.append((a, b))

    compromised = frozenset(str(s) for s in payload.get("compromised", []))
    if not compromised <= switches:
        raise TopologyError("compromised ids must name switches")

    return build_network(endpoints, switches, links, compromised)


def build_network(
    endpoints: dict[str, Endpoint],
    switches: Iterable[str],
    links: Iterable[tuple[str, str]],
    compromised: Iterable[str] = (),
) -> NetworkModel:
    """Validate node counts and precompute per-pair switch paths.

    Paths are shortest by hop count with ties broken toward lower node
    ids, and never route through an intermediate endpoint. Pairs with no
    path are left out; requesting a flow across one raises later.
    """
    switches = frozenset(switches)
    if len(endpoints) < 2:
        raise TopologyError("a network needs at least two endpoints")
    if not switches:
        raise TopologyError("a network needs at least one switch")

    adjacency: dict[str, list[str]] = {n: [] for n in (*endpoints, *switches)}
    for a, b in links:
        if b not in adjacency[a]:
            adjacency[a].append(b)
        if a not in adjacency[b]:
            adjacency[b].append(a)
    adj = {n: tuple(sorted(ns)) for n, ns in adjacency.items()}

    paths: dict[tuple[str, str], tuple[str, ...]] = {}
    for origin in sorted(endpoints):
        dist = _bfs_distances(adj, origin, endpoints)
        for dest in sorted(endpoints):
            if dest == origin or dest not in dist:
                continue
            node = dest
            hops: list[str] = []
            while node != origin:
                # Smallest-id predecessor one hop closer to the origin.
                node = min(
                    n
                    for n in adj[node]
                    if dist.get(n, -1) == dist[node] - 1
                    and (n == origin or n not in endpoints)
                )
                if node != origin:
                    hops.append(node)
            paths[(origin, dest)] = tuple(reversed(hops))

    return NetworkModel(
        endpoints=dict(endpoints),
        switches=switches,
        adjacency=adj,
        paths=paths,
        compromised=frozenset(compromised),
    )


def _bfs_distances(
    adj: Mapping[str, tuple[str, ...]], origin: str, endpoints: Mapping[str, Endpoint]
) -> dict[str, int]:
    """Hop counts from origin, never expanding through other endpoints."""
    dist = {origin: 0}
    queue = deque([origin])
    while queue:
        node = queue.popleft()
        if node != origin and node in endpoints:
            continue
        for nxt in adj[node]:
            if nxt not in dist:
                dist[nxt] = dist[node] + 1
                queue.append(nxt)
    return dist


def _path_for(net: NetworkModel, origin: str, dest: str) -> tuple[str, ...]:
    key = (origin, dest)
    if key not in net.paths:
        raise TopologyError(f"no path between {origin} and {dest}")
    return net.paths[key]


def generate_flows(
    net: NetworkModel,
    real_counts: Mapping[int, int],
    honey_counts: Mapping[int, int],
    seed,
) -> list[FlowRecord]:
    """Seeded flow population: real flows advertise their destination's
    true weakness; honey flows advertise the fake endpoint's configured one.

    Honey flows run between fake endpoints when two exist, otherwise from a
    real endpoint toward the fake one.
    """
    rng = np.random.default_rng(seed)
    real_ids = net.real_endpoint_ids
    fake_ids = net.fake_endpoint_ids
    flows: list[FlowRecord] = []

    for vuln in sorted(real_counts):
        count = real_counts[vuln]
        if count <= 0:
            continue
        dests = [e for e in real_ids if vuln in net.endpoints[e].weaknesses]
        if not dests:
            raise ConfigError(f"no real endpoint advertises vulnerability {vuln}")
        for _ in range(count):
            dest = dests[rng.integers(len(dests))]
            origins = [e for e in real_ids if e != dest]
            if not origins:
                raise ConfigError("real flows need at least two real endpoints")
            origin = origins[rng.integers(len(origins))]
            flows.append(
                FlowRecord(origin, dest, vuln, _path_for(net, origin, dest), False)
            )

    for vuln in sorted(honey_counts):
        count = honey_counts[vuln]
        if count <= 0:
            continue
        if not fake_ids:
            raise ConfigError("honey flows requested but the network has no fake endpoints")
        dests = [e for e in fake_ids if vuln in net.endpoints[e].weaknesses]
        if not dests:
            raise ConfigError(f"no fake endpoint advertises vulnerability {vuln}")
        for _ in range(count):
            dest = dests[rng.integers(len(dests))]
            origins = [e for e in fake_ids if e != dest]
            if not origins:
                origins = [e for e in real_ids if e != dest]
            if not origins:
                raise ConfigError(f"no origin available for honey flows to {dest}")
            origin = origins[rng.integers(len(origins))]
            flows.append(
                FlowRecord(origin, dest, vuln, _path_for(net, origin, dest), True)
            )
    return flows


@dataclass(frozen=True)
class Observation:
    """Flows visible from the compromised switches, grouped by type.

    Attacker policies only ever see ``totals``; the per-flow records and
    the real/honey split exist for episode resolution and for validation
    oracles.
    """

    observed: dict[int, tuple[FlowRecord, ...]]

    def totals(self) -> dict[int, int]:
        return {t: len(fs) for t, fs in self.observed.items()}

    def real_honey_split(self) -> dict[int, tuple[int, int]]:
        return {
            t: (sum(not f.is_honey for f in fs), sum(f.is_honey for f in fs))
            for t, fs in self.observed.items()
        }


def observe(net: NetworkModel, flows: Sequence[FlowRecord]) -> Observation:
    """Flows whose path crosses at least one compromised switch."""
    seen: dict[int, list[FlowRecord]] = {}
    for flow in flows:
        if flow.info is None:
            continue
        if net.compromised.intersection(flow.path):
            seen.setdefault(flow.info, []).append(flow)
    return Observation({t: tuple(fs) for t, fs in sorted(seen.items())})


def uniform_type_policy(totals: Mapping[int, int], rng: np.random.Generator) -> int:
    """Uniform choice among the types with at least one observed flow."""
    types = sorted(t for t, n in totals.items() if n > 0)
    if not types:
        raise EmptyObservation("no observed flows of any type")
    return types[rng.integers(len(types))]


def attacker_episode(
    net: NetworkModel,
    observation: Observation,
    policy,
    seed,
) -> EpisodeOutcome:
    """One attack: pick a type (fixed id or policy callable), draw an
    observed flow of that type uniformly, and resolve the outcome."""
    rng = np.random.default_rng(seed)
    if callable(policy):
        chosen = int(policy(observation.totals(), rng))
    else:
        chosen = int(policy)
    flows = observation.observed.get(chosen, ())
    if not flows:
        raise EmptyObservation(f"no observed flows of type {chosen}")
    flow = flows[rng.integers(len(flows))]
    target = net.endpoints[flow.destination]
    if flow.is_honey:
        return EpisodeOutcome(
            OutcomeKind.DEFEAT, target.id, target.attacker_value, -target.attacker_value
        )
    if flow.info in target.weaknesses:
        return EpisodeOutcome(
            OutcomeKind.SUCCESS, target.id, target.attacker_value, -target.defender_value
        )
    return EpisodeOutcome(OutcomeKind.NOOP, target.id, 0.0, 0.0)


@dataclass(frozen=True)
class TypeStats:
    vuln_type: int
    honey_count: int
    episodes: int
    mean_defender: float
    mean_attacker: float
    stderr_defender: float
    stderr_attacker: float
    defeat_rate: float


@dataclass(frozen=True)
class SimulationReport:
    rows: tuple[TypeStats, ...]
    switch_rates: dict[str, float]
    episodes: int
    seed: int

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            write_report_csv([self], fh)


CSV_COLUMNS = (
    "honey_count",
    "type",
    "mean_def",
    "mean_att",
    "stderr_def",
    "stderr_att",
    "detect_rate",
)


def write_report_csv(reports: Iterable[SimulationReport], fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(CSV_COLUMNS)
    for report in reports:
        for row in report.rows:
            writer.writerow(
                [
                    row.honey_count,
                    row.vuln_type,
                    repr(row.mean_defender),
                    repr(row.mean_attacker),
                    repr(row.stderr_defender),
                    repr(row.stderr_attacker),
                    repr(row.defeat_rate),
                ]
            )


def run_trials(
    net: NetworkModel,
    real_counts: Mapping[int, int],
    honey_counts: Mapping[int, int],
    policy,
    episodes: int,
    seed: int,
) -> SimulationReport:
    """Generate one flow population, then run seeded independent episodes.

    Episode seeds come from splitting a single seed sequence, so any
    execution order (or parallel execution) reproduces the same report.
    """
    if episodes < 1:
        raise ConfigError("episode count must be at least 1")
    ss = np.random.SeedSequence(seed)
    children = ss.spawn(episodes + 1)
    flows = generate_flows(net, real_counts, honey_counts, children[0])
    observation = observe(net, flows)

    payoffs: dict[int, list[EpisodeOutcome]] = {}
    for k in range(episodes):
        rng = np.random.default_rng(children[k + 1])
        if callable(policy):
            chosen = int(policy(observation.totals(), rng))
        else:
            chosen = int(policy)
        outcome = attacker_episode(net, observation, chosen, rng)
        payoffs.setdefault(chosen, []).append(outcome)

    rows = []
    for vuln in sorted(payoffs):
        outs = payoffs[vuln]
        apay = np.array([o.attacker_payoff for o in outs])
        dpay = np.array([o.defender_payoff for o in outs])
        n = len(outs)
        rows.append(
            TypeStats(
                vuln_type=vuln,
                honey_count=int(honey_counts.get(vuln, 0)),
                episodes=n,
                mean_defender=float(dpay.mean()),
                mean_attacker=float(apay.mean()),
                stderr_defender=float(dpay.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0,
                stderr_attacker=float(apay.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0,
                defeat_rate=float(
                    sum(o.kind is OutcomeKind.DEFEAT for o in outs) / n
                ),
            )
        )
    switch_rates = {
        s: honey_traffic_rate(net, flows, s) for s in sorted(net.switches)
    }
    return SimulationReport(tuple(rows), switch_rates, episodes, seed)


def honey_traffic_rate(
    net: NetworkModel, flows: Sequence[FlowRecord], switch: str
) -> float:
    """Fraction of the traffic through one switch that is honey traffic.

    0 when no honey flows pass, and by convention 0 when nothing passes.
    """
    if switch not in net.switches:
        raise TopologyError(f"unknown switch {switch}")
    through = [f for f in flows if switch in f.path]
    if not through:
        return 0.0
    return sum(f.is_honey for f in through) / len(through)
