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
from collections import Counter
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
# Largest endpoint count, and node (endpoint and switch) count, that
# build_network accepts. Routing keeps a switches × endpoints² boolean
# incidence array, and each honey_traffic_rate call counts its flows per
# pair into 2 × endpoints² int64 (4 MiB at the cap) while it runs. At the
# cap the largest incidence (426 endpoints, 214 switches) is 37 MiB, and
# routing peaks at 46 MiB (tracemalloc). On a 2-vCPU host a two-level
# tree of switches routes in 0.1-0.2 s; a chain of switches, the deepest
# search, in 1.2-1.3 s.
MAX_ENDPOINTS = 512
MAX_NODES = 640
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


@dataclass(frozen=True, eq=False)
class NetworkModel:
    """Endpoints, sorted switch ids, the compromised set, and the routing
    of every endpoint pair, which build_network computes once.

    The routing arrays are indexed by [origin, destination] positions in
    ``ids``, the sorted endpoint ids: ``reachable`` says a path exists,
    ``crosses`` that it passes a compromised switch, and ``incidence[s]``
    that it passes switch ``switches[s]``. A model changed with
    ``dataclasses.replace`` keeps the old routing, so build a new network
    instead. A network equals only itself: a flow table is read on
    ``flows.net``, the network it was drawn on.
    """

    endpoints: dict[str, Endpoint]
    switches: tuple[str, ...]
    compromised: frozenset[str]
    ids: tuple[str, ...]
    reachable: np.ndarray = field(repr=False)
    crosses: np.ndarray = field(repr=False)
    incidence: np.ndarray = field(repr=False)


class FlowTable:
    """A flow population stored as columns, one row per flow.

    ``origin`` and ``destination`` are positions in ``net.ids``,
    ``info`` is the advertised vulnerability type and ``is_honey`` the
    honey flag. The columns are read-only. A table is read on ``net``,
    the network it was drawn on.
    """

    __slots__ = ("net", "origin", "destination", "info", "is_honey")

    def __init__(self, net, origin, destination, info, is_honey):
        self.net = net
        self.origin = origin
        self.destination = destination
        self.info = info
        self.is_honey = is_honey
        for column in (origin, destination, info, is_honey):
            column.setflags(write=False)

    def __len__(self) -> int:
        return len(self.info)

    def take(self, rows) -> FlowTable:
        """The table restricted to ``rows`` (a slice, mask or index array)."""
        if isinstance(rows, np.ndarray) and rows.dtype == bool:
            rows = np.flatnonzero(rows)
        return FlowTable(
            self.net,
            self.origin[rows],
            self.destination[rows],
            self.info[rows],
            self.is_honey[rows],
        )


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

    switches = [_node_id(s, "switch") for s in _list_field(payload, "switches")]
    links = []
    for pair in _list_field(payload, "links"):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise TopologyError(f"link {pair!r} must be a pair of node ids")
        links.append(tuple(_node_id(node, "link node") for node in pair))
    compromised = [
        _node_id(s, "compromised switch") for s in _list_field(payload, "compromised")
    ]
    return build_network(endpoints, switches, links, compromised)


def build_network(
    endpoints: dict[str, Endpoint],
    switches: Iterable[str],
    links: Iterable[tuple[str, str]],
    compromised: Iterable[str] = (),
) -> NetworkModel:
    """Validate the nodes and links, and route every endpoint pair.

    Switch and endpoint ids must not overlap, every link must join two
    known nodes and at least one switch, and every compromised id must
    name a switch. A network holds at least two endpoints and one switch,
    at most MAX_ENDPOINTS endpoints and at most MAX_NODES nodes. Paths are
    shortest by hop count with ties broken toward lower node ids, and
    never route through an intermediate endpoint. Pairs with no path are
    marked unreachable; requesting a flow across one raises later.
    """
    switches = frozenset(switches)
    links = list(links)
    compromised = frozenset(compromised)
    if switches & set(endpoints):
        raise TopologyError("switch ids overlap endpoint ids")
    for a, b in links:
        for node in (a, b):
            if node not in endpoints and node not in switches:
                raise TopologyError(f"link references unknown node {node}")
        if a in endpoints and b in endpoints:
            raise TopologyError(f"endpoints {a} and {b} may not link directly")
    if not compromised <= switches:
        raise TopologyError("compromised ids must name switches")
    if len(endpoints) < 2:
        raise TopologyError("a network needs at least two endpoints")
    if not switches:
        raise TopologyError("a network needs at least one switch")
    if len(endpoints) > MAX_ENDPOINTS:
        raise TopologyError(
            f"a network may have at most {MAX_ENDPOINTS} endpoints, got {len(endpoints)}"
        )
    if len(endpoints) + len(switches) > MAX_NODES:
        raise TopologyError(
            f"a network may have at most {MAX_NODES} nodes (endpoints and switches), "
            f"got {len(endpoints) + len(switches)}"
        )

    ids = tuple(sorted(endpoints))
    switch_ids = tuple(sorted(switches))
    position = {node: k for k, node in enumerate(ids + switch_ids)}
    n = len(ids)
    linked = np.zeros((len(position), len(position)), dtype=bool)
    for a, b in links:
        linked[position[a], position[b]] = linked[position[b], position[a]] = True
    pred = _route(n, linked)

    reachable = pred[:, :n] >= 0
    incidence = np.zeros((len(switch_ids), n, n), dtype=bool)
    o_idx, d_idx = np.nonzero(reachable)
    hop = pred[o_idx, d_idx]
    while len(hop):  # walk every path back one hop at a time
        on = hop >= n  # a switch; the walk ends at the origin
        o_idx, d_idx, hop = o_idx[on], d_idx[on], hop[on]
        incidence[hop - n, o_idx, d_idx] = True
        hop = pred[o_idx, hop]
    watched = [position[s] - n for s in sorted(compromised)]
    return NetworkModel(
        endpoints=dict(endpoints),
        switches=switch_ids,
        compromised=compromised,
        ids=ids,
        reachable=reachable,
        crosses=incidence[watched].any(axis=0),
        incidence=incidence,
    )


def _route(n: int, linked: np.ndarray) -> np.ndarray:
    """pred[o, x]: the position of x's predecessor on the path from origin
    o, or -1 where x is o or unreachable from it.

    Positions are the sorted endpoints (the first ``n``), then the sorted
    switches; ``linked[x, y]`` says x and y are linked. One breadth-first
    search runs from every origin at once, its frontier an origins × nodes
    matrix, and only switches expand. A node's predecessor is the origin
    at hop 1 and, after that, the lowest-position (smallest-id) frontier
    switch linked to it. One float64 product per block of up to 52
    switches finds that switch: the block's switch at position p weighs
    2**(hi - 1 - p), where hi is one past the block's last position, so
    a sum of distinct weights is exact and its highest bit, e - 1 for
    frexp exponent e, names the lowest linked switch, p = hi - e.
    """
    size = len(linked)
    pred = np.full((n, size), -1, dtype=np.int32)
    new = linked[:n].copy()  # hop 1: an origin links only to switches
    pred[new] = np.nonzero(new)[0]
    reached = new | np.eye(n, size, dtype=bool)
    blocks = []
    for lo in range(n, size, 52):
        hi = min(lo + 52, size)
        weight = np.exp2(np.arange(hi - lo - 1, -1, -1.0))
        blocks.append((lo, hi, linked[lo:hi] * weight[:, None]))
    while new[:, n:].any():
        frontier = new.astype(float)
        new = np.zeros_like(reached)
        for lo, hi, weighted in blocks:  # a lower block's switch wins
            top = frontier[:, lo:hi] @ weighted
            found = (top > 0) & ~reached
            pred[found] = hi - np.frexp(top[found])[1]
            reached |= found
            new |= found
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
    ids = net.ids
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
    missing = ~net.reachable[origin, dest]
    if missing.any():
        k = int(missing.argmax())
        raise TopologyError(f"no path between {net.ids[origin[k]]} and {net.ids[dest[k]]}")
    return origin, dest


@dataclass(frozen=True)
class Observation:
    """Flows visible from the compromised switches, grouped by type.

    ``observed`` maps each type with a visible flow to its rows, in
    generation order. Attacker policies only ever see ``totals``; the rows
    exist for episode resolution and for validation oracles.
    """

    observed: dict[int, FlowTable]

    def totals(self) -> dict[int, int]:
        return {t: len(fs) for t, fs in self.observed.items()}


def observe(flows: FlowTable) -> Observation:
    """Flows whose path crosses at least one compromised switch."""
    seen = flows.take(flows.net.crosses[flows.origin, flows.destination])
    types = np.unique(seen.info).tolist()
    return Observation({t: seen.take(seen.info == t) for t in types})


def attacker_episode(observation: Observation, chosen: int, row: int) -> EpisodeOutcome:
    """One attack on type ``chosen`` that hits its observed flow ``row`` (a
    position in ``observation.observed[chosen]``): resolve the outcome."""
    flows = observation.observed.get(chosen, ())
    if not flows:
        raise EmptyObservation(f"no observed flows of type {chosen}")
    target = flows.net.endpoints[flows.net.ids[flows.destination[row]]]
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


def _statistic(payoffs: np.ndarray, ddof: int | None = None) -> float:
    """The mean of ``payoffs`` or, given ``ddof``, its standard error.

    Payoffs near the float maximum can overflow the sum or the squares;
    only then is the statistic recomputed from the payoffs divided by their
    largest magnitude and scaled back, so it is finite whenever its true
    value is.
    """

    def of(x: np.ndarray) -> float:
        if ddof is None:
            return float(x.mean())
        return float(x.std(ddof=ddof) / np.sqrt(len(x)))

    with np.errstate(over="ignore", invalid="ignore"):
        value = of(payoffs)
        if not math.isfinite(value):
            scale = float(np.max(np.abs(payoffs)))
            value = of(payoffs / scale) * scale
    return value


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
    observation = observe(flows)

    # per attacked type: its episodes' payoffs and its defeat count
    attacker: dict[int, array] = {}
    defender: dict[int, array] = {}
    defeats: Counter[int] = Counter()
    for chosen, rows in episode_draws(observation.totals(), policy, episodes, seed):
        for vuln, row in zip(chosen.tolist(), rows.tolist()):
            outcome = attacker_episode(observation, vuln, row)
            attacker.setdefault(vuln, array("d")).append(outcome.attacker_payoff)
            defender.setdefault(vuln, array("d")).append(outcome.defender_payoff)
            if outcome.kind is OutcomeKind.DEFEAT:
                defeats[vuln] += 1

    rows = []
    for vuln in sorted(attacker):
        apay = np.frombuffer(attacker[vuln])
        dpay = np.frombuffer(defender[vuln])
        n = len(apay)
        rows.append(
            TypeStats(
                vuln_type=vuln,
                honey_count=int(honey_counts.get(vuln, 0)),
                episodes=n,
                mean_defender=_statistic(dpay),
                mean_attacker=_statistic(apay),
                stderr_defender=_statistic(dpay, ddof=1) if n > 1 else 0.0,
                stderr_attacker=_statistic(apay, ddof=1) if n > 1 else 0.0,
                defeat_rate=defeats[vuln] / n,
            )
        )
    switch_rates = honey_traffic_rate(flows)
    return SimulationReport(tuple(rows), switch_rates)


def honey_traffic_rate(flows: FlowTable) -> dict[str, float]:
    """Each switch's fraction of honey traffic among the flows through it,
    keyed by switch id in sorted order: 0 when no honey flow passes, and
    by convention 0 when nothing passes.

    The flows and honey flows of each (origin, destination) pair are
    counted once, then read against one switch's incidence row at a time:
    a product with every row at once would cast the boolean incidence to
    int64, eight times its size.
    """
    net = flows.net
    n = len(net.ids)
    key = flows.origin.astype(np.intp) * n + flows.destination
    counts = np.stack([np.bincount(k, minlength=n * n) for k in (key, key[flows.is_honey])])
    rates = {}
    for switch, through in zip(net.switches, net.incidence):
        passing, honey = (int(c) for c in counts @ through.reshape(-1))
        rates[switch] = honey / passing if passing else 0.0
    return rates
