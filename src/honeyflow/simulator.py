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
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from . import pcg
from .errors import ConfigError, EmptyObservation, TopologyError

# Largest real or honey flow count per type that generate_flows accepts.
# A flow is one row of a FlowTable (17 bytes over its four columns). The
# draw writes the columns in chunks of FLOW_BLOCK flows and holds one
# chunk's temporaries besides them, about 0.7-0.8 MB whatever the count
# (tracemalloc, chain topology), so this bounds memory to the table.
MAX_FLOWS_PER_TYPE = 10**6
# Largest episode count that run_trials accepts. It keeps two payoffs per
# episode (16 bytes) until it takes each type's statistics, which need
# 8 bytes more: at the cap it peaks at 24 MB (tracemalloc, chain
# topology, uniform or fixed policy). Mostly the cap bounds run time.
MAX_EPISODES = 10**6
# Largest endpoint count, and node (endpoint and switch) count, that
# build_network accepts. The model holds two endpoints × nodes arrays,
# pred (int32, 1.3 MB at the caps) and crosses (bool, 0.3 MB). Routing
# peaks at 10-13 MiB (tracemalloc) on a 426-endpoint network at the node
# cap, whether its 214 switches form a two-level tree or a chain. On a
# 2-vCPU host the tree routes in 23-29 ms; the chain, the deepest
# search, in 0.66-0.71 s. Each honey_traffic_rate call counts its flows
# per pair into 2 × endpoints² int64 (4 MiB at the cap) while it runs.
MAX_ENDPOINTS = 512
MAX_NODES = 640
# Flows that generate_flows draws together, in one pcg.integers call. On
# a 2-vCPU host chunks of 2**15 drew no faster, and one draw of the whole
# population raised the peak of a simulate op at 50,000 real and honey
# flows per type on a 12-rack tree from 12.8 to 34.1 MB (tracemalloc).
FLOW_BLOCK = 2**13
# Episodes whose draws episode_draws computes, and whose outcomes
# run_trials gathers into payoff arrays, together. About 150 bytes of
# numpy temporaries per episode are alive while a block is drawn.
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

    ``pred`` and ``crosses`` are origins × nodes arrays, where origins are
    the positions in ``ids``, the sorted endpoint ids, and nodes are the
    endpoints, then the sorted switches (``switches[s]`` at
    ``len(ids) + s``). ``pred`` is the routing itself, one shortest-path
    tree per origin: ``pred[o, x]`` is the node before x on the path from
    origin o, and -1 where x is o or unreachable from it, so a pair (o, d)
    has a path when ``pred[o, d] >= 0``. ``crosses[o, x]`` says that path
    passes a compromised switch before x. A pair's switches are found by
    following ``pred`` back from the destination. A model changed with
    ``dataclasses.replace`` keeps the old routing, so build a new network
    instead. A network equals only itself: a flow table is read on
    ``flows.net``, the network it was drawn on.
    """

    endpoints: dict[str, Endpoint]
    switches: tuple[str, ...]
    compromised: frozenset[str]
    ids: tuple[str, ...]
    crosses: np.ndarray = field(repr=False)
    pred: np.ndarray = field(repr=False)


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
        """The table restricted to ``rows`` (a slice, mask or index array),
        which indexes each column."""
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
    integers, read as strings; an endpoint or switch id listed twice is
    rejected. Unknown fields are rejected.
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
    repeated = [s for s, n in Counter(switches).items() if n > 1]
    if repeated:
        raise TopologyError(f"duplicate switch id {repeated[0]}")
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
    watched = np.zeros(len(position), dtype=bool)
    watched[[position[s] for s in compromised]] = True
    pred, crosses = _route(n, linked, watched)
    return NetworkModel(
        endpoints=dict(endpoints),
        switches=switch_ids,
        compromised=compromised,
        ids=ids,
        crosses=crosses,
        pred=pred,
    )


def _route(n: int, linked: np.ndarray, watched: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``pred`` and ``via``, two origins × nodes arrays. pred[o, x] is the
    position of x's predecessor on the path from origin o, or -1 where x
    is o or unreachable from it; via[o, x] says that path passes a node
    that ``watched`` marks before it reaches x.

    Positions are the sorted endpoints (the first ``n``), then the sorted
    switches; ``linked[x, y]`` says x and y are linked. One breadth-first
    search runs from every origin at once, its frontier an origins × nodes
    matrix, and only switches expand. A node's predecessor is the origin
    at hop 1 and, after that, the lowest-position (smallest-id) frontier
    switch linked to it. One float64 product per block of up to 52
    switches finds that switch: the block's switch at position p weighs
    2**(hi - 1 - p), where hi is one past the block's last position, so
    a sum of distinct weights is exact and its highest bit, e - 1 for
    frexp exponent e, names the lowest linked switch, p = hi - e. After
    each hop, every node it reached inherits via from its predecessor,
    reached one hop earlier: via[o, x] = via[o, p] | watched[p].
    """
    size = len(linked)
    pred = np.full((n, size), -1, dtype=np.int32)
    via = np.zeros((n, size), dtype=bool)  # hop 1 passes only the origin
    new = linked[:n].copy()  # hop 1: an origin links only to switches
    pred[new] = np.nonzero(new)[0]
    reached = new | np.eye(n, size, dtype=bool)
    blocks = []
    for lo in range(n, size, 52):
        hi = min(lo + 52, size)
        weight = np.exp2(np.arange(hi - lo - 1, -1, -1.0))
        blocks.append((lo, hi, linked[lo:hi] * weight[:, None]))
    flat_pred, flat_via = pred.ravel(), via.ravel()
    while new[:, n:].any():
        frontier = new.astype(float)
        new = np.zeros_like(reached)
        for lo, hi, weighted in blocks:  # a lower block's switch wins
            top = frontier[:, lo:hi] @ weighted
            found = (top > 0) & ~reached
            pred[found] = hi - np.frexp(top[found])[1]
            reached |= found
            new |= found
        at = np.flatnonzero(new)  # o * size + x for each node this hop reached
        p = flat_pred[at]
        flat_via[at] = flat_via[at - at % size + p] | watched[p]
    return pred, via


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

    Types are drawn in sorted order, real before honey, one block of rows
    per type. Each flow draws its destination, then its origin among the
    pool without that destination, each as one ``Generator.integers(high)``
    draw. The rows are drawn in chunks of ``FLOW_BLOCK`` flows that run
    across block edges; a chunk's blocks are found by a bisect on the
    blocks' row ranges. One ``pcg.integers(rng, highs)`` call per chunk,
    with each flow's two bounds in turn, gives the numbers that one
    ``integers(0, highs)`` call per type block would, and leaves the same
    generator state. The chunks are written straight into the table's
    columns, so a draw holds one chunk's temporaries at a time.

    The type blocks are checked in draw order before any draw. When one is
    bad, the blocks before it are still drawn, so that an unreachable pair
    among them raises its TopologyError first; only then is the bad
    block's ConfigError raised.
    """
    check_flow_counts("real", real_counts)
    check_flow_counts("honey", honey_counts)
    blocks, bad = _type_blocks(net, real_counts, honey_counts)
    rng = np.random.default_rng(seed)
    total = blocks[-1].stop if blocks else 0
    origin = np.empty(total, dtype=np.int32)
    destination = np.empty(total, dtype=np.int32)
    info = np.empty(total, dtype=np.int64)
    is_honey = np.empty(total, dtype=bool)
    starts = [block.start for block in blocks]
    for lo in range(0, total, FLOW_BLOCK):
        hi = min(lo + FLOW_BLOCK, total)
        chunk = blocks[bisect_right(starts, lo) - 1 : bisect_left(starts, hi)]
        highs = np.empty(2 * (hi - lo), dtype=np.int64)  # each flow's two bounds
        for block in chunk:
            a, b = 2 * (max(block.start, lo) - lo), 2 * (min(block.stop, hi) - lo)
            highs[a:b:2] = len(block.dests)
            highs[a + 1 : b : 2] = len(block.origins) - block.skip
        draws = pcg.integers(rng, highs)
        for block in chunk:
            a, b = max(block.start, lo), min(block.stop, hi)
            pick = draws[2 * (a - lo) : 2 * (b - lo) : 2]
            slot = draws[2 * (a - lo) + 1 : 2 * (b - lo) : 2]
            if block.skip:  # pass over the destination's own rank in the pool
                slot += slot >= block.rank[pick]
            destination[a:b] = block.dests[pick]
            origin[a:b] = block.origins[slot]
            info[a:b] = block.vuln
            is_honey[a:b] = block.is_honey
        missing = _pair_values(net.pred, origin[lo:hi], destination[lo:hi]) < 0
        if missing.any():
            k = lo + int(missing.argmax())
            raise TopologyError(
                f"no path between {net.ids[origin[k]]} and {net.ids[destination[k]]}"
            )
    if bad is not None:
        raise bad
    return FlowTable(net, origin, destination, info, is_honey)


@dataclass(frozen=True, eq=False)
class _TypeBlock:
    """One type's rows of a flow population, ``start`` to ``stop``: flows
    to ``dests``, from ``origins`` without the destination when ``skip``.
    ``rank`` is each destination's position in ``origins``."""

    vuln: int
    start: int
    stop: int
    dests: np.ndarray
    origins: np.ndarray
    skip: bool
    is_honey: bool
    rank: np.ndarray


def _type_blocks(
    net: NetworkModel, real_counts: Mapping[int, int], honey_counts: Mapping[int, int]
) -> tuple[list[_TypeBlock], ConfigError | None]:
    """The type blocks with flows, in draw order, up to the first bad one,
    and that block's ConfigError (None when every block is good)."""
    ids = net.ids
    fake = np.array([net.endpoints[e].is_fake for e in ids], dtype=bool)
    real_pool = np.flatnonzero(~fake).astype(np.int32)
    fake_pool = np.flatnonzero(fake).astype(np.int32)
    blocks = []

    def add(vuln, count, dests, origins, skip, is_honey):
        start = blocks[-1].stop if blocks else 0
        rank = np.searchsorted(origins, dests)
        blocks.append(
            _TypeBlock(vuln, start, start + count, dests, origins, skip, is_honey, rank)
        )

    def advertising(pool: np.ndarray, vuln: int) -> np.ndarray:
        return pool[[vuln in net.endpoints[ids[k]].weaknesses for k in pool]]

    for vuln in sorted(real_counts):
        count = real_counts[vuln]
        if count <= 0:
            continue
        dests = advertising(real_pool, vuln)
        if not len(dests):
            return blocks, ConfigError(f"no real endpoint advertises vulnerability {vuln}")
        if len(real_pool) < 2:
            return blocks, ConfigError("real flows need at least two real endpoints")
        add(vuln, count, dests, real_pool, True, False)

    for vuln in sorted(honey_counts):
        count = honey_counts[vuln]
        if count <= 0:
            continue
        if not len(fake_pool):
            return blocks, ConfigError(
                "honey flows requested but the network has no fake endpoints"
            )
        dests = advertising(fake_pool, vuln)
        if not len(dests):
            return blocks, ConfigError(f"no fake endpoint advertises vulnerability {vuln}")
        if len(fake_pool) > 1:
            add(vuln, count, dests, fake_pool, True, True)
        else:  # a network has two endpoints, so the others are all real
            add(vuln, count, dests, real_pool, False, True)
    return blocks, None


def _pair_values(matrix: np.ndarray, origin: np.ndarray, destination: np.ndarray) -> np.ndarray:
    """``matrix[origin, destination]`` for an origins × nodes matrix of
    the routing, read at flat positions: ``np.take`` with one index array
    is about three times faster than indexing with two."""
    return np.take(matrix.ravel(), origin * matrix.shape[1] + destination)


@dataclass(frozen=True)
class Observation:
    """Flows visible from the compromised switches, grouped by type.

    ``observed`` maps each type with a visible flow to its rows, in
    generation order: a non-empty slice of one table of the visible rows,
    sorted stably by type. Attacker policies only ever see ``totals``; the
    rows exist for episode resolution and for validation oracles.
    ``outcomes`` is ``attacker_episode``'s memo, keyed by (attacked type,
    destination position, honey flag); it lives as long as the
    observation, one flow population, and its outcomes are immutable, so
    every episode with that key shares one.
    """

    observed: dict[int, FlowTable]
    outcomes: dict[tuple[int, int, bool], EpisodeOutcome] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def totals(self) -> dict[int, int]:
        return {t: len(fs) for t, fs in self.observed.items()}


def observe(flows: FlowTable) -> Observation:
    """Flows whose path crosses at least one compromised switch.

    The visible rows are sorted stably by type in one pass, so each type's
    rows are a contiguous slice of one table, in generation order.
    """
    visible = np.flatnonzero(_pair_values(flows.net.crosses, flows.origin, flows.destination))
    seen = flows.take(visible[np.argsort(flows.info[visible], kind="stable")])
    starts = [0, *(np.flatnonzero(seen.info[1:] != seen.info[:-1]) + 1).tolist()]
    ends = [*starts[1:], len(seen)]
    return Observation(  # a == b only for the one slice of an empty population
        {int(seen.info[a]): seen.take(slice(a, b)) for a, b in zip(starts, ends) if a < b}
    )


def attacker_episode(observation: Observation, chosen: int, row: int) -> EpisodeOutcome:
    """One attack on type ``chosen`` that hits its observed flow ``row`` (a
    position in ``observation.observed[chosen]``): resolve the outcome.

    The outcome depends only on the type, the row's destination and its
    honey flag, so it is built once per such key and then shared from
    ``observation.outcomes``.
    """
    flows = observation.observed.get(chosen)
    if flows is None:  # observe keeps only types with a visible flow
        raise EmptyObservation(f"no observed flows of type {chosen}")
    key = (chosen, int(flows.destination[row]), bool(flows.is_honey[row]))
    outcome = observation.outcomes.get(key)
    if outcome is None:
        outcome = observation.outcomes[key] = _outcome(flows.net, *key)
    return outcome


def _outcome(net: NetworkModel, chosen: int, destination: int, honey: bool) -> EpisodeOutcome:
    target = net.endpoints[net.ids[destination]]
    if honey:
        return EpisodeOutcome(OutcomeKind.DEFEAT, target.attacker_value, -target.attacker_value)
    if chosen in target.weaknesses:
        return EpisodeOutcome(OutcomeKind.SUCCESS, target.attacker_value, -target.defender_value)
    return EpisodeOutcome(OutcomeKind.NOOP, 0.0, 0.0)


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
    """One run's per-type statistics and the flow population it drew;
    ``honey_traffic_rate(report.flows)`` gives its per-switch rates."""

    rows: tuple[TypeStats, ...]
    flows: FlowTable


def _statistic(payoffs: np.ndarray, ddof: int | None = None) -> float:
    """The mean of ``payoffs`` or, given ``ddof``, its standard error.

    The reductions are the ones ``x.mean()`` and ``x.std(ddof=ddof) /
    np.sqrt(len(x))`` make, without numpy's wrappers around them, so the
    bits are the same. Payoffs near the float maximum can overflow the sum
    or the squares; only then is the statistic recomputed from the payoffs
    divided by their largest magnitude and scaled back, so it is finite
    whenever its true value is.
    """

    def of(x: np.ndarray) -> float:
        n = len(x)
        mean = float(np.add.reduce(x)) / n
        if ddof is None:
            return mean
        squares = x - mean
        np.multiply(squares, squares, out=squares)
        return math.sqrt(float(np.add.reduce(squares)) / (n - ddof)) / math.sqrt(n)

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
    the seed are checked before any flow is drawn. The report carries the
    population but no switch rates: a caller that wants them computes
    them, and one that does not pays nothing for them.
    """
    if not 1 <= episodes <= MAX_EPISODES:
        raise ConfigError(
            f"episode count must be at least 1 and at most {MAX_EPISODES}, got {episodes}"
        )
    ss = np.random.SeedSequence(seed)
    flows = generate_flows(net, real_counts, honey_counts, ss.spawn(1)[0])
    observation = observe(flows)

    # per attacked type: its episodes' payoffs, one array per block in
    # episode order, and its defeat count
    attacker: dict[int, list[np.ndarray]] = {}
    defender: dict[int, list[np.ndarray]] = {}
    defeats: Counter[int] = Counter()
    for chosen, rows in episode_draws(observation.totals(), policy, episodes, seed):
        # attacker_episode is read from the module on each call, so a
        # wrapper installed there sees every episode
        outcomes = [
            attacker_episode(observation, vuln, row)
            for vuln, row in zip(chosen.tolist(), rows.tolist())
        ]
        count = len(outcomes)
        apay = np.fromiter(map(attrgetter("attacker_payoff"), outcomes), float, count)
        dpay = np.fromiter(map(attrgetter("defender_payoff"), outcomes), float, count)
        kinds = np.fromiter(map(attrgetter("kind"), outcomes), object, count)
        defeat = kinds == OutcomeKind.DEFEAT
        for vuln in np.unique(chosen).tolist():
            mask = chosen == vuln
            attacker.setdefault(vuln, []).append(apay[mask])
            defender.setdefault(vuln, []).append(dpay[mask])
            defeats[vuln] += int(np.count_nonzero(defeat[mask]))

    rows = []
    for vuln in sorted(attacker):
        # popped, so each type's blocks are freed once joined
        apay = np.concatenate(attacker.pop(vuln))
        dpay = np.concatenate(defender.pop(vuln))
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
    return SimulationReport(tuple(rows), flows)


def honey_traffic_rate(flows: FlowTable) -> dict[str, float]:
    """Each switch's fraction of honey traffic among the flows through it,
    keyed by switch id in sorted order: 0 when no honey flow passes, and
    by convention 0 when nothing passes.

    The flows and honey flows of each (origin, destination) pair are
    counted once. Only the pairs that carry a flow are then walked up
    their origin's tree in ``net.pred``, all of them one hop at a time,
    and each hop adds their counts to the switches it reaches. The sums
    are integers, exact in float64, so each rate is the correctly rounded
    quotient of two counts.
    """
    net = flows.net
    n, size = net.pred.shape
    carried, passing, honey = _pair_counts(flows)
    base = carried // n * size  # each pair's row of pred, flattened
    hop = net.pred.ravel()[base + carried % n]
    through = np.zeros((2, len(net.switches)))
    while len(hop):  # a flow's first node is its origin, which ends the walk
        on = hop >= n
        base, hop, passing, honey = base[on], hop[on], passing[on], honey[on]
        through[0] += np.bincount(hop - n, passing, minlength=len(net.switches))
        through[1] += np.bincount(hop - n, honey, minlength=len(net.switches))
        hop = net.pred.ravel()[base + hop]
    return {
        switch: h / c if c else 0.0
        for switch, c, h in zip(net.switches, *through.tolist())
    }


def _pair_counts(flows: FlowTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (origin, destination) pairs that carry a flow, at their flat
    positions origin × n + destination, with their flow and honey-flow
    counts as floats."""
    n = len(flows.net.ids)
    key = flows.origin.astype(np.intp) * n + flows.destination
    counts = np.bincount(key, minlength=n * n)
    honey = np.bincount(key[flows.is_honey], minlength=n * n)
    carried = np.flatnonzero(counts)
    return carried, counts[carried].astype(float), honey[carried].astype(float)
