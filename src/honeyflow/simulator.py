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

import enum
import math
from array import array
from collections import Counter, deque
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field

import numpy as np

from . import pcg
from .errors import ConfigError, EmptyObservation, TopologyError

# Largest real or honey flow count per type that generate_flows accepts.
# A flow is one row of a FlowTable (17 bytes over its four columns), and
# drawing a type block needs roughly 60 bytes per flow more while it
# runs, so this bounds memory.
MAX_FLOWS_PER_TYPE = 10**6
# Largest episode count that run_trials accepts. It keeps two payoffs per
# episode (16 bytes), so this bounds its memory to about 16 MB; mostly it
# bounds its run time.
MAX_EPISODES = 10**6
# Episodes whose draws episode_draws computes together. About 150 bytes
# of numpy temporaries per episode are alive while a block is drawn.
EPISODE_BLOCK = 1024


@dataclass(frozen=True)
class Endpoint:
    id: str
    defender_value: float
    attacker_value: float
    weaknesses: frozenset[int]
    is_fake: bool


@dataclass(frozen=True)
class PairIndex:
    """Per-pair lookups over the sorted endpoint ids, built once per network.

    The arrays are indexed by [origin, destination] positions in ``ids``:
    ``reachable`` says a path exists, ``crosses`` that it passes a
    compromised switch, and ``incidence[s]`` that it passes switch
    ``switch_ids[s]``. This is the network's only copy of its routing. A
    model changed with ``dataclasses.replace`` keeps the old index, so
    build a new network instead.
    """

    ids: tuple[str, ...]
    switch_ids: tuple[str, ...]
    reachable: np.ndarray
    crosses: np.ndarray
    incidence: np.ndarray


@dataclass(frozen=True)
class NetworkModel:
    endpoints: dict[str, Endpoint]
    switches: frozenset[str]
    adjacency: dict[str, tuple[str, ...]]
    compromised: frozenset[str]
    index: PairIndex = field(compare=False, repr=False)


class FlowTable:
    """A flow population stored as columns, one row per flow.

    ``origin`` and ``destination`` are positions in ``net.index.ids``,
    ``info`` is the advertised vulnerability type and ``is_honey`` the
    honey flag. ``observe`` and ``honey_traffic_rate`` read a table only on
    ``net`` or on a network equal to it.
    """

    __slots__ = ("net", "origin", "destination", "info", "is_honey")

    def __init__(self, net, origin, destination, info, is_honey):
        self.net = net
        self.origin = origin
        self.destination = destination
        self.info = info
        self.is_honey = is_honey

    def __len__(self) -> int:
        return len(self.info)

    def take(self, rows) -> FlowTable:
        """The table restricted to ``rows`` (a slice, mask or index array)."""
        return FlowTable(
            self.net,
            self.origin[rows],
            self.destination[rows],
            self.info[rows],
            self.is_honey[rows],
        )

    def lookup(self, table: np.ndarray) -> np.ndarray:
        """Each row's entry in an [origin, destination] array of the index."""
        return table[self.origin, self.destination]


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


def _node_id(value, what: str) -> str:
    if isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool)):
        return str(value)
    raise TopologyError(f"{what} id must be a string or an integer, got {value!r}")


def _list_field(payload: Mapping, name: str) -> list:
    value = payload.get(name, [])
    if not isinstance(value, list):
        kind = type(value).__name__
        raise TopologyError(f"topology field {name} must be a list, got {kind}")
    return value


def network_from_dict(payload: Mapping) -> NetworkModel:
    """Build and validate a NetworkModel from the topology JSON shape.

    Expected keys, each a list: ``endpoints`` (objects with id,
    defender_value, attacker_value, weaknesses, and a boolean fake),
    ``switches`` (ids), ``links`` (id pairs; endpoint-to-endpoint links
    are rejected), ``compromised`` (switch ids). Node ids are strings or
    integers. Unknown fields are rejected.
    """
    if not isinstance(payload, Mapping):
        raise TopologyError("topology must be a JSON object")
    unknown = set(payload) - _TOPOLOGY_FIELDS
    if unknown:
        raise TopologyError(f"unknown topology fields: {sorted(unknown)}")

    endpoints: dict[str, Endpoint] = {}
    for raw in _list_field(payload, "endpoints"):
        if not isinstance(raw, Mapping) or "id" not in raw:
            raise TopologyError(f"endpoint {raw!r} must be an object with an id")
        eid = _node_id(raw["id"], "endpoint")
        unknown = set(raw) - _ENDPOINT_FIELDS
        if unknown:
            raise TopologyError(f"endpoint {eid}: unknown fields {sorted(unknown)}")
        weaknesses = raw.get("weaknesses", [])
        if not isinstance(weaknesses, list) or not all(
            isinstance(w, int) and not isinstance(w, bool) for w in weaknesses
        ):
            raise TopologyError(f"endpoint {eid}: weaknesses must be a list of type ids")
        fake = raw.get("fake", False)
        if not isinstance(fake, bool):
            raise TopologyError(f"endpoint {eid}: fake must be true or false, got {fake!r}")
        ep = Endpoint(
            id=eid,
            defender_value=_endpoint_value(raw, "defender_value"),
            attacker_value=_endpoint_value(raw, "attacker_value"),
            weaknesses=frozenset(weaknesses),
            is_fake=fake,
        )
        if ep.id in endpoints:
            raise TopologyError(f"duplicate endpoint id {ep.id}")
        endpoints[ep.id] = ep

    switches = frozenset(_node_id(s, "switch") for s in _list_field(payload, "switches"))
    if switches & set(endpoints):
        raise TopologyError("switch ids overlap endpoint ids")

    links = []
    for pair in _list_field(payload, "links"):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise TopologyError(f"link {pair!r} must be a pair of node ids")
        a, b = (_node_id(node, "link node") for node in pair)
        for node in (a, b):
            if node not in endpoints and node not in switches:
                raise TopologyError(f"link references unknown node {node}")
        if a in endpoints and b in endpoints:
            raise TopologyError(f"endpoints {a} and {b} may not link directly")
        links.append((a, b))

    compromised = frozenset(
        _node_id(s, "compromised switch") for s in _list_field(payload, "compromised")
    )
    if not compromised <= switches:
        raise TopologyError("compromised ids must name switches")

    return build_network(endpoints, switches, links, compromised)


def build_network(
    endpoints: dict[str, Endpoint],
    switches: Iterable[str],
    links: Iterable[tuple[str, str]],
    compromised: Iterable[str] = (),
) -> NetworkModel:
    """Validate node counts and route every endpoint pair into a PairIndex.

    Paths are shortest by hop count with ties broken toward lower node
    ids, and never route through an intermediate endpoint. Pairs with no
    path are marked unreachable; requesting a flow across one raises later.
    """
    switches = frozenset(switches)
    compromised = frozenset(compromised)
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

    ids = tuple(sorted(endpoints))
    switch_ids = tuple(sorted(switches))
    position = {node: k for k, node in enumerate(ids + switch_ids)}
    n = len(ids)
    # pred[o, x]: position of x's predecessor on the path from origin o
    pred = np.full((n, len(position)), -1)
    for o, origin in enumerate(ids):
        for node, prev in _predecessors(adj, origin, endpoints).items():
            pred[o, position[node]] = position[prev]

    reachable = pred[:, :n] >= 0
    incidence = np.zeros((len(switch_ids), n, n), dtype=bool)
    o_idx, d_idx = np.nonzero(reachable)
    hop = pred[o_idx, d_idx]
    while len(hop):  # walk every path back one hop at a time
        on = hop >= n  # a switch; the walk ends at the origin
        o_idx, d_idx, hop = o_idx[on], d_idx[on], hop[on]
        incidence[hop - n, o_idx, d_idx] = True
        hop = pred[o_idx, hop]
    watched = [position[s] - n for s in sorted(compromised & switches)]
    index = PairIndex(
        ids=ids,
        switch_ids=switch_ids,
        reachable=reachable,
        crosses=incidence[watched].any(axis=0),
        incidence=incidence,
    )
    return NetworkModel(
        endpoints=dict(endpoints),
        switches=switches,
        adjacency=adj,
        compromised=compromised,
        index=index,
    )


def _predecessors(
    adj: Mapping[str, tuple[str, ...]], origin: str, endpoints: Mapping[str, Endpoint]
) -> dict[str, str]:
    """Breadth-first search from origin that never expands through another
    endpoint. Maps every node it reaches to its smallest-id neighbour one
    hop closer to the origin, so following the map walks a shortest path."""
    dist = {origin: 0}
    pred: dict[str, str] = {}
    queue = deque([origin])
    while queue:
        node = queue.popleft()
        if node != origin and node in endpoints:
            continue
        for nxt in adj[node]:
            if nxt not in dist:
                dist[nxt] = dist[node] + 1
                pred[nxt] = node
                queue.append(nxt)
            elif dist[nxt] == dist[node] + 1 and node < pred[nxt]:
                pred[nxt] = node
    return pred


def check_flow_counts(label: str, counts: Mapping[int, int]) -> None:
    """Raise ConfigError unless every count lies in [0, MAX_FLOWS_PER_TYPE]."""
    for vuln, count in counts.items():
        if not 0 <= count <= MAX_FLOWS_PER_TYPE:
            raise ConfigError(
                f"{label} flow count for type {vuln} must be in "
                f"[0, {MAX_FLOWS_PER_TYPE}], got {count}"
            )


def generate_flows(
    net: NetworkModel,
    real_counts: Mapping[int, int],
    honey_counts: Mapping[int, int],
    seed,
) -> FlowTable:
    """Seeded flow population: real flows advertise their destination's
    true weakness; honey flows advertise the fake endpoint's configured one.

    Honey flows run between fake endpoints when two exist, otherwise from a
    real endpoint toward the fake one. Every count must lie in
    [0, MAX_FLOWS_PER_TYPE].

    Types are drawn in sorted order, real before honey. Each flow draws
    its destination, then its origin among the pool without that
    destination, each as one ``Generator.integers(high)`` draw; a type's
    whole block is one ``integers(0, highs)`` call with the two bounds
    alternating, which gives the same numbers.
    """
    check_flow_counts("real", real_counts)
    check_flow_counts("honey", honey_counts)
    rng = np.random.default_rng(seed)
    ids = net.index.ids
    fake = np.array([net.endpoints[e].is_fake for e in ids], dtype=bool)
    real_pool = np.flatnonzero(~fake).astype(np.int32)
    fake_pool = np.flatnonzero(fake).astype(np.int32)
    empty = np.empty(0, dtype=np.int32)
    blocks = [(empty, empty, np.empty(0, dtype=np.int64), np.empty(0, dtype=bool))]

    def advertising(pool: np.ndarray, vuln: int) -> np.ndarray:
        return pool[[vuln in net.endpoints[ids[k]].weaknesses for k in pool]]

    def add_block(vuln, count, dests, origins, skip, is_honey):
        origin, dest = _draw_pairs(net, rng, count, dests, origins, skip)
        info = np.full(count, vuln, dtype=np.int64)
        blocks.append((origin, dest, info, np.full(count, is_honey)))

    for vuln in sorted(real_counts):
        count = real_counts[vuln]
        if count <= 0:
            continue
        dests = advertising(real_pool, vuln)
        if not len(dests):
            raise ConfigError(f"no real endpoint advertises vulnerability {vuln}")
        if len(real_pool) < 2:
            raise ConfigError("real flows need at least two real endpoints")
        add_block(vuln, count, dests, real_pool, True, False)

    for vuln in sorted(honey_counts):
        count = honey_counts[vuln]
        if count <= 0:
            continue
        if not len(fake_pool):
            raise ConfigError("honey flows requested but the network has no fake endpoints")
        dests = advertising(fake_pool, vuln)
        if not len(dests):
            raise ConfigError(f"no fake endpoint advertises vulnerability {vuln}")
        if len(fake_pool) > 1:
            add_block(vuln, count, dests, fake_pool, True, True)
        else:  # a network has two endpoints, so the others are all real
            add_block(vuln, count, dests, real_pool, False, True)

    return FlowTable(net, *map(np.concatenate, zip(*blocks)))


def _draw_pairs(
    net: NetworkModel,
    rng: np.random.Generator,
    count: int,
    dests: np.ndarray,
    origins: np.ndarray,
    skip: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` (origin, destination) position pairs. When ``skip``
    the destination is left out of the origin pool. Raises TopologyError
    for the first pair, in draw order, that has no path."""
    highs = np.empty(2 * count, dtype=np.int64)
    highs[0::2] = len(dests)
    highs[1::2] = len(origins) - skip
    draws = rng.integers(0, highs)
    dest = dests[draws[0::2]]
    slot = draws[1::2]
    if skip:
        slot += slot >= np.searchsorted(origins, dest)
    origin = origins[slot]
    missing = ~net.index.reachable[origin, dest]
    if missing.any():
        k = int(missing.argmax())
        ids = net.index.ids
        raise TopologyError(f"no path between {ids[origin[k]]} and {ids[dest[k]]}")
    return origin, dest


def _check_network(net: NetworkModel, flows: FlowTable) -> None:
    """Raise TopologyError unless the flows were generated on ``net`` or on
    an equal network, whose endpoint positions and routing are the same."""
    if flows.net is not net and flows.net != net:
        raise TopologyError("the flows were generated on a different network")


@dataclass(frozen=True)
class Observation:
    """Flows visible from the compromised switches, grouped by type.

    ``observed`` maps each type with a visible flow to its rows, in
    generation order. Attacker policies only ever see ``totals``; the rows
    and the real/honey split exist for episode resolution and for
    validation oracles.
    """

    observed: dict[int, FlowTable]

    def totals(self) -> dict[int, int]:
        return {t: len(fs) for t, fs in self.observed.items()}

    def real_honey_split(self) -> dict[int, tuple[int, int]]:
        split = {}
        for t, fs in self.observed.items():
            honey = int(np.count_nonzero(fs.is_honey))
            split[t] = (len(fs) - honey, honey)
        return split


def observe(net: NetworkModel, flows: FlowTable) -> Observation:
    """Flows whose path crosses at least one compromised switch."""
    _check_network(net, flows)
    seen = flows.take(flows.lookup(net.index.crosses))
    types = np.unique(seen.info).tolist()
    return Observation({t: seen.take(seen.info == t) for t in types})


def attacker_episode(
    net: NetworkModel,
    observation: Observation,
    chosen: int,
    row: int,
) -> EpisodeOutcome:
    """One attack on type ``chosen`` that hits its observed flow ``row`` (a
    position in ``observation.observed[chosen]``): resolve the outcome."""
    flows = observation.observed.get(chosen, ())
    if not flows:
        raise EmptyObservation(f"no observed flows of type {chosen}")
    target = net.endpoints[flows.net.index.ids[flows.destination[row]]]
    if flows.is_honey[row]:
        return EpisodeOutcome(
            OutcomeKind.DEFEAT, target.id, target.attacker_value, -target.attacker_value
        )
    if chosen in target.weaknesses:
        return EpisodeOutcome(
            OutcomeKind.SUCCESS, target.id, target.attacker_value, -target.defender_value
        )
    return EpisodeOutcome(OutcomeKind.NOOP, target.id, 0.0, 0.0)


def episode_draws(
    totals: Mapping[int, int], policy, episodes: int, seed: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each episode's attacked type and observed-flow row, as arrays of
    ``EPISODE_BLOCK`` episodes at a time.

    ``totals`` maps each type to its observed flow count. ``policy`` is
    "uniform" (a uniform choice among the observed types) or a type id.
    Episode k draws from ``default_rng`` seeded with child k + 1 of
    ``SeedSequence(seed)``: the type as ``integers(len(types))`` over the
    sorted observed types, then the row as ``integers(totals[type])``. A
    fixed policy draws no type, like a uniform one with a single type.
    The draws are computed for a whole block at once (see ``pcg``); only
    the few episodes whose draw Lemire's method rejects get a real
    generator. Raises EmptyObservation before any draw when the policy
    has no observed flow to attack.
    """
    if policy == "uniform":
        types = sorted(t for t, n in totals.items() if n > 0)
        if not types:
            raise EmptyObservation("no observed flows of any type")
    elif isinstance(policy, int) and not isinstance(policy, bool):
        types = [policy]
        if totals.get(types[0], 0) <= 0:
            raise EmptyObservation(f"no observed flows of type {types[0]}")
    else:
        raise ConfigError(f'policy must be "uniform" or a type id, got {policy!r}')
    type_ids = np.array(types)
    counts = np.array([totals[t] for t in types], dtype=np.uint64)
    for start in range(0, episodes, EPISODE_BLOCK):
        keys = np.arange(start + 1, min(start + EPISODE_BLOCK, episodes) + 1)
        words = pcg.first_outputs(seed, keys)
        # the type takes the low 32 bits; the row takes the next 32 bits
        # numpy hands out: the buffered high half, or the low half when
        # the type draw consumed nothing
        if len(types) > 1:
            pick, redo = pcg.bounded(words & np.uint64(0xFFFFFFFF), len(types))
            words >>= np.uint64(32)
        else:
            pick, redo = np.zeros(len(keys), dtype=np.uint64), False
            words &= np.uint64(0xFFFFFFFF)
        rows, redo_row = pcg.bounded(words, counts[pick])
        pick, rows = pick.astype(np.int64), rows.astype(np.int64)
        for i in np.flatnonzero(redo | redo_row).tolist():
            child = np.random.SeedSequence(seed, spawn_key=(int(keys[i]),))
            rng = np.random.default_rng(child)
            pick[i] = rng.integers(len(types))
            rows[i] = rng.integers(totals[types[pick[i]]])
        yield type_ids[pick], rows


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


def run_trials(
    net: NetworkModel,
    real_counts: Mapping[int, int],
    honey_counts: Mapping[int, int],
    policy,
    episodes: int,
    seed: int,
) -> SimulationReport:
    """Generate one flow population, then run seeded independent episodes.

    Seeds come from splitting a single seed sequence, so any execution
    order reproduces the same report: the first child seeds the flows and
    child k + 1 episode k. ``episode_draws`` describes ``policy`` and what
    an episode draws. ``episodes`` must lie in [1, MAX_EPISODES]; it and
    the seed are checked before any flow is drawn.
    """
    if not 1 <= episodes <= MAX_EPISODES:
        raise ConfigError(
            f"episode count must be at least 1 and at most {MAX_EPISODES}, got {episodes}"
        )
    ss = np.random.SeedSequence(seed)
    flows = generate_flows(net, real_counts, honey_counts, ss.spawn(1)[0])
    observation = observe(net, flows)

    # per attacked type: its episodes' payoffs and its defeat count
    attacker: dict[int, array] = {}
    defender: dict[int, array] = {}
    defeats: Counter[int] = Counter()
    for chosen, rows in episode_draws(observation.totals(), policy, episodes, seed):
        for vuln, row in zip(chosen.tolist(), rows.tolist()):
            outcome = attacker_episode(net, observation, vuln, row)
            attacker.setdefault(vuln, array("d")).append(outcome.attacker_payoff)
            defender.setdefault(vuln, array("d")).append(outcome.defender_payoff)
            if outcome.kind is OutcomeKind.DEFEAT:
                defeats[vuln] += 1

    rows = []
    for vuln in sorted(attacker):
        apay = np.frombuffer(attacker[vuln])
        dpay = np.frombuffer(defender[vuln])
        n = len(apay)
        # Payoffs near the float maximum can sum past it. The statistic is
        # then infinite, and the CSV writer rejects it with a one-line error.
        with np.errstate(over="ignore"):
            rows.append(
                TypeStats(
                    vuln_type=vuln,
                    honey_count=int(honey_counts.get(vuln, 0)),
                    episodes=n,
                    mean_defender=float(dpay.mean()),
                    mean_attacker=float(apay.mean()),
                    stderr_defender=float(dpay.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0,
                    stderr_attacker=float(apay.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0,
                    defeat_rate=defeats[vuln] / n,
                )
            )
    switch_rates = {
        s: honey_traffic_rate(net, flows, s) for s in sorted(net.switches)
    }
    return SimulationReport(tuple(rows), switch_rates, episodes, seed)


def honey_traffic_rate(net: NetworkModel, flows: FlowTable, switch: str) -> float:
    """Fraction of the traffic through one switch that is honey traffic.

    0 when no honey flows pass, and by convention 0 when nothing passes.
    """
    if switch not in net.switches:
        raise TopologyError(f"unknown switch {switch}")
    _check_network(net, flows)
    index = net.index
    through = flows.lookup(index.incidence[index.switch_ids.index(switch)])
    passing = int(np.count_nonzero(through))
    if not passing:
        return 0.0
    return int(np.count_nonzero(through & flows.is_honey)) / passing
