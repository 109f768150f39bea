import itertools
import json
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from honeyflow import cli
from honeyflow.errors import ConfigError, EmptyObservation, HoneyflowError, TopologyError
from honeyflow.simulator import (
    Endpoint,
    FlowTable,
    OutcomeKind,
    TypeStats,
    EPISODE_BLOCK,
    FLOW_BLOCK,
    MAX_ENDPOINTS,
    MAX_NODES,
    attacker_episode,
    build_network,
    episode_draws,
    generate_flows,
    honey_traffic_rate,
    network_from_dict,
    observe,
    run_trials,
    _statistic,
)
from honeyflow import pcg
from honeyflow.pcg import bounded, first_outputs
from oracles import (
    _scalar_paths,
    scalar_episodes,
    scalar_flows,
    scalar_observation,
    scalar_switch_rate,
)


def _endpoint(eid, value=1.0, weaknesses=(0,), fake=False, attacker_value=None):
    return Endpoint(
        id=eid,
        defender_value=value,
        attacker_value=value if attacker_value is None else attacker_value,
        weaknesses=frozenset(weaknesses),
        is_fake=fake,
    )


def _rows(flows):
    """(origin, destination, type, is_honey) per flow, with endpoint ids."""
    ids = flows.net.ids
    columns = (flows.origin, flows.destination, flows.info, flows.is_honey)
    return [(ids[o], ids[d], t, h) for o, d, t, h in zip(*(c.tolist() for c in columns))]


def _path(net, o, d):
    """The switch ids on the path from endpoint position o to position d,
    in path order, read back from d along o's tree in ``net.pred``; empty
    when d is o or unreachable from it."""
    n, hops = len(net.ids), []
    node = int(net.pred[o, d])
    while node >= n:  # the walk ends at the origin, or at -1
        hops.append(net.switches[node - n])
        node = int(net.pred[o, node])
    return tuple(reversed(hops))


def _switches_on(net, origin, destination):
    """The switches on the network's path between two endpoints."""
    return set(_path(net, net.ids.index(origin), net.ids.index(destination)))


def _no_flows(net):
    return generate_flows(net, {}, {}, seed=0)


CHAIN_LINKS = [
    ("client1", "s1"),
    ("client2", "s1"),
    ("fake1", "s1"),
    ("s1", "s2"),
    ("s2", "s3"),
    ("server1", "s3"),
    ("server2", "s3"),
    ("fake2", "s3"),
]


def _chain_net(compromised=("s2",), extra_links=(), links=CHAIN_LINKS):
    """Two real clients, two real servers, two fakes around a 3-switch chain."""
    endpoints = {
        "client1": _endpoint("client1", 1.0, (0,)),
        "client2": _endpoint("client2", 1.0, (1,)),
        "server1": _endpoint("server1", 2.0, (0,)),
        "server2": _endpoint("server2", 2.0, (1,)),
        "fake1": _endpoint("fake1", 0.0, (0,), fake=True),
        "fake2": _endpoint("fake2", 0.0, (1,), fake=True),
    }
    return build_network(endpoints, ["s1", "s2", "s3"], [*links, *extra_links], compromised)


def _three_type_net():
    """Six real endpoints and one fake per type on two linked switches;
    only s1 is compromised, so flows among s2's endpoints go unseen. The
    values are not short binary fractions, so sums round and their order
    shows in the statistics' bits."""
    endpoints = {
        "a": _endpoint("a", 1.1, (0, 1)),
        "b": _endpoint("b", 2.3, (1,)),
        "c": _endpoint("c", 3.7, (0, 2)),
        "d": _endpoint("d", 1.9, (2,)),
        "e": _endpoint("e", 2.9, (0,)),
        "g": _endpoint("g", 0.7, (1, 2)),
        "f0": _endpoint("f0", 0.0, (0,), fake=True, attacker_value=-1.3),
        "f1": _endpoint("f1", 0.0, (1,), fake=True, attacker_value=-0.55),
        "f2": _endpoint("f2", 0.0, (2,), fake=True, attacker_value=-2.1),
    }
    links = [(e, "s1") for e in ("a", "b", "c", "f0")]
    links += [(e, "s2") for e in ("d", "e", "g", "f1", "f2")] + [("s1", "s2")]
    return build_network(endpoints, ["s1", "s2"], links, ["s1"])


class TestBuildNetwork:
    def test_six_endpoint_testbed_topology(self, chain_topology_path):
        with open(chain_topology_path) as fh:
            net = network_from_dict(json.load(fh))
        assert len(net.endpoints) == 6
        assert net.switches == ("s1", "s2", "s3")
        assert _switches_on(net, "client1", "server1") == {"s1", "s2", "s3"}

    def test_routing_reads_the_links_as_a_set(self):
        """Links reordered, reversed end for end or listed twice route every
        pair the same way. Compromising s1 instead of s2 changes which paths
        cross a compromised switch, and the s1-s3 shortcut keeps the nodes
        but routes client-server flows around s2."""
        net = _chain_net()
        for other in (
            _chain_net(links=CHAIN_LINKS[::-1]),
            _chain_net(links=[(b, a) for a, b in CHAIN_LINKS]),
            _chain_net(extra_links=CHAIN_LINKS[::2]),
        ):
            for name in ("crosses", "pred"):
                assert np.array_equal(getattr(other, name), getattr(net, name))
        moved = _chain_net(compromised=("s1",))
        assert not np.array_equal(moved.crosses, net.crosses)
        assert np.array_equal(moved.pred, net.pred)
        shortcut = _chain_net(extra_links=[("s1", "s3")])
        assert not np.array_equal(shortcut.pred, net.pred)
        n = len(net.ids)
        assert np.array_equal(shortcut.pred[:, :n] >= 0, net.pred[:, :n] >= 0)

    @pytest.mark.parametrize(
        "links, compromised, message",
        [
            ([("a", "s1"), ("b", "zz")], (), "link references unknown node zz"),
            ([("a", "s1"), ("b", "s1")], ("s9",), "compromised ids must name switches"),
            ([("a", "s1"), ("a", "b")], (), "endpoints a and b may not link directly"),
        ],
    )
    def test_bad_links_and_compromised_ids_rejected_on_a_direct_call(
        self, links, compromised, message
    ):
        """build_network checks what it is given, as network_from_dict did."""
        eps = {"a": _endpoint("a"), "b": _endpoint("b")}
        with pytest.raises(TopologyError, match=re.escape(message)):
            build_network(eps, ["s1"], links, compromised)

    def test_switch_ids_overlapping_endpoint_ids_rejected(self):
        eps = {"a": _endpoint("a"), "b": _endpoint("b")}
        with pytest.raises(TopologyError, match="overlap"):
            build_network(eps, ["s1", "b"], [("a", "s1"), ("b", "s1")])

    def test_single_endpoint_rejected(self):
        with pytest.raises(TopologyError, match="two endpoints"):
            build_network({"a": _endpoint("a")}, ["s1"], [("a", "s1")])

    def test_topology_at_the_cap_is_routed(self):
        """MAX_ENDPOINTS endpoints, and MAX_NODES nodes, are accepted; one
        more of either is not."""
        eps = {f"e{k}": _endpoint(f"e{k}") for k in range(MAX_ENDPOINTS)}
        net = build_network(eps, ["s0"], [(e, "s0") for e in eps])
        assert (net.pred[:, :MAX_ENDPOINTS] >= 0).sum() == MAX_ENDPOINTS * (MAX_ENDPOINTS - 1)
        more = {**eps, "z": _endpoint("z")}
        with pytest.raises(TopologyError, match="at most"):
            build_network(more, ["s0"], [(e, "s0") for e in more])

        two = {e: eps[e] for e in ("e0", "e1")}
        switches = [f"s{k}" for k in range(MAX_NODES - 2)]
        links = [("e0", "s0"), ("e1", "s0")] + [("s0", s) for s in switches[1:]]
        assert build_network(two, switches, links).pred[0, 1] >= 0
        with pytest.raises(TopologyError, match="at most"):
            build_network(two, [*switches, "t"], links)

    def test_no_switch_rejected(self):
        eps = {"a": _endpoint("a"), "b": _endpoint("b")}
        with pytest.raises(TopologyError, match="switch"):
            build_network(eps, [], [])

    def test_direct_endpoint_link_rejected(self):
        payload = {
            "endpoints": [
                {"id": "a", "defender_value": 1, "attacker_value": 1, "weaknesses": [0]},
                {"id": "b", "defender_value": 1, "attacker_value": 1, "weaknesses": [0]},
            ],
            "switches": ["s1"],
            "links": [["a", "b"]],
        }
        with pytest.raises(TopologyError, match="directly"):
            network_from_dict(payload)

    def test_disconnected_pair_fails_when_flow_requested(self):
        eps = {
            "a": _endpoint("a", weaknesses=(0,)),
            "b": _endpoint("b", weaknesses=(0,)),
        }
        net = build_network(eps, ["s1", "s2"], [("a", "s1"), ("b", "s2")])
        with pytest.raises(TopologyError, match="no path"):
            generate_flows(net, {0: 1}, {}, seed=0)

    def test_paths_prefer_lower_switch_ids(self):
        eps = {"a": _endpoint("a"), "b": _endpoint("b")}
        links = [("a", "s1"), ("a", "s2"), ("s1", "b"), ("s2", "b")]
        net = build_network(eps, ["s1", "s2"], links)
        assert _switches_on(net, "a", "b") == {"s1"}

    def test_paths_never_route_through_endpoints(self):
        eps = {
            "a": _endpoint("a"),
            "b": _endpoint("b"),
            "c": _endpoint("c"),
        }
        # a-s1-c-s2-b would be shorter than a-s1-s3-s2-b if endpoints relayed
        links = [
            ("a", "s1"),
            ("s1", "c"),
            ("c", "s2"),
            ("s2", "b"),
            ("s1", "s3"),
            ("s3", "s2"),
        ]
        net = build_network(eps, ["s1", "s2", "s3"], links)
        assert _switches_on(net, "a", "b") == {"s1", "s3", "s2"}

    def test_unknown_topology_field_rejected(self):
        with pytest.raises(TopologyError, match="unknown topology"):
            network_from_dict({"endpoints": [], "switches": [], "nodes": []})

    def test_integer_node_ids_are_read_as_strings(self):
        payload = {
            "endpoints": [{"id": 1, "weaknesses": [0]}, {"id": "b", "weaknesses": [0]}],
            "switches": [7, 8],
            "links": [[1, 7], [7, 8], [8, "b"]],
            "compromised": [8],
        }
        net = network_from_dict(payload)
        assert set(net.endpoints) == {"1", "b"} and net.compromised == {"8"}
        assert _switches_on(net, "1", "b") == {"7", "8"}

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda t: t.update(endpoints=5), "field endpoints must be a list, got int"),
            (lambda t: t.update(switches="s1"), "field switches must be a list, got str"),
            (lambda t: t.update(compromised={"s2": 1}), "field compromised must be a list"),
            (lambda t: t["switches"].append(1.0), "switch id must be a string or an integer"),
            (lambda t: t["endpoints"][0].update(id=None), "endpoint id must be a string"),
            (lambda t: t["links"].append([False, "s1"]), "link node id must be a string"),
            (lambda t: t["compromised"].append(["s1"]), "compromised switch id must be"),
            (lambda t: t["endpoints"][0].update(fake=0), "client1: fake must be true or false"),
            (lambda t: t["switches"].append("s2"), "duplicate switch id s2"),
            (lambda t: t["switches"].extend([7, "7"]), "duplicate switch id 7"),
        ],
    )
    def test_bad_topology_types_rejected(self, edit, message):
        payload = json.loads(json.dumps(_CHAIN_WITH_ISLAND))
        edit(payload)
        with pytest.raises(TopologyError, match=re.escape(message)):
            network_from_dict(payload)


class TestGenerateFlows:
    def test_counts_and_flags(self):
        net = _chain_net()
        flows = generate_flows(net, {0: 100, 1: 50}, {0: 30}, seed=1)
        real = [f for f in _rows(flows) if not f[3]]
        honey = [f for f in _rows(flows) if f[3]]
        assert len(real) == 150
        assert len(honey) == 30
        assert {info for _, _, info, _ in honey} == {0}
        assert all(net.endpoints[dest].is_fake for _, dest, _, _ in honey)
        assert all(info in net.endpoints[dest].weaknesses for _, dest, info, _ in real)

    def test_same_seed_same_flows(self):
        net = _chain_net()
        a = generate_flows(net, {0: 40, 1: 40}, {1: 10}, seed=7)
        b = generate_flows(net, {0: 40, 1: 40}, {1: 10}, seed=7)
        assert _rows(a) == _rows(b)

    def test_honey_without_fakes_rejected(self):
        eps = {
            "a": _endpoint("a", weaknesses=(0,)),
            "b": _endpoint("b", weaknesses=(0,)),
        }
        net = build_network(eps, ["s1"], [("a", "s1"), ("b", "s1")])
        with pytest.raises(ConfigError, match="no fake endpoints"):
            generate_flows(net, {}, {0: 5}, seed=0)

    def test_honey_type_not_advertised_rejected(self):
        net = _chain_net()
        with pytest.raises(ConfigError, match="advertises vulnerability 9"):
            generate_flows(net, {}, {9: 5}, seed=0)

    def test_real_type_not_advertised_rejected(self):
        net = _chain_net()
        with pytest.raises(ConfigError, match="no real endpoint"):
            generate_flows(net, {9: 5}, {}, seed=0)


def _reference_flows(net, real_counts, honey_counts, seed):
    """generate_flows' four columns and the generator's final state, drawn
    one type block at a time: one numpy ``Generator.integers(0, highs)``
    call per block, each flow's origin picked from a list of its pool
    without the destination."""
    rng = np.random.default_rng(seed)
    ids = net.ids
    real = [k for k, e in enumerate(ids) if not net.endpoints[e].is_fake]
    fake = [k for k, e in enumerate(ids) if net.endpoints[e].is_fake]
    blocks = [(v, real_counts[v], real, real, False) for v in sorted(real_counts)]
    honey_origins = fake if len(fake) > 1 else real
    blocks += [(v, honey_counts[v], fake, honey_origins, True) for v in sorted(honey_counts)]
    rows = []
    for vuln, count, pool, origins, is_honey in blocks:
        if count == 0:
            continue
        dests = [k for k in pool if vuln in net.endpoints[ids[k]].weaknesses]
        skip = origins is pool
        highs = np.empty(2 * count, dtype=np.int64)
        highs[0::2], highs[1::2] = len(dests), len(origins) - skip
        draws = rng.integers(0, highs).tolist()
        for pick, slot in zip(draws[0::2], draws[1::2]):
            dest = dests[pick]
            pool_without = [k for k in origins if k != dest or not skip]
            rows.append((pool_without[slot], dest, vuln, is_honey))
    dtypes = (np.int32, np.int32, np.int64, bool)
    return [np.array(c, dtype=t) for c, t in zip(zip(*rows), dtypes)], rng.bit_generator.state


def _one_fake_net():
    """Three real endpoints and one fake on one switch: honey flows run
    from a real endpoint to the fake, so their origins skip nothing."""
    endpoints = {
        "a": _endpoint("a", 1.0, (0, 1)),
        "b": _endpoint("b", 2.0, (1,)),
        "c": _endpoint("c", 3.0, (0,)),
        "f": _endpoint("f", 0.0, (0, 1), fake=True),
    }
    return build_network(endpoints, ["s1"], [(e, "s1") for e in endpoints], ["s1"])


class TestChunkedDraw:
    """generate_flows draws FLOW_BLOCK flows per pcg.integers call, across
    type blocks; the columns and the generator state are those of one
    numpy call per block."""

    @pytest.mark.parametrize(
        "make_net, real, honey",
        [
            (_chain_net, {0: 100, 1: 57}, {0: 30}),
            (_chain_net, {0: FLOW_BLOCK - 1_000, 1: 600}, {1: 400}),
            (_chain_net, {0: 5_000, 1: 7_000}, {0: 6_000, 1: 3_001}),
            (_chain_net, {0: 0, 1: FLOW_BLOCK + 5, 7: 0}, {0: 0, 1: 40, 9: 0}),
            (_one_fake_net, {0: 3_000, 1: 4_000}, {0: 2_500, 1: FLOW_BLOCK}),
            (_three_type_net, {0: 0, 2: 1}, {0: 1, 1: 0, 2: 2}),
            (_chain_net, {0: 2 * FLOW_BLOCK + 7}, {}),
        ],
        ids=[
            "below", "at", "across", "zero-count-types", "one-fake", "tiny-blocks",
            "one-block-three-chunks",
        ],
    )
    def test_columns_and_state_match_one_call_per_block(self, make_net, real, honey):
        net = make_net()
        for seed in (0, 5, 2**64 + 1):
            rng = np.random.default_rng(seed)
            flows = generate_flows(net, real, honey, rng)
            expected, state = _reference_flows(net, real, honey, seed)
            for name, want in zip(("origin", "destination", "info", "is_honey"), expected):
                got = getattr(flows, name)
                assert got.dtype == want.dtype and got.tolist() == want.tolist(), name
            assert rng.bit_generator.state == state

    def test_sizes_reach_across_chunks(self):
        """The cases above hold one chunk exactly, and draw three."""
        assert sum((FLOW_BLOCK - 1_000, 600, 400)) == FLOW_BLOCK
        assert 2 * FLOW_BLOCK < sum((5_000, 7_000, 6_000, 3_001)) < 3 * FLOW_BLOCK

    def test_an_unreachable_pair_before_a_bad_block_is_raised_first(self):
        """Blocks in front of the first bad one are drawn: an unreachable
        pair among them raises its TopologyError, not the bad block's
        ConfigError (the island has no fake endpoint)."""
        net = network_from_dict(_CHAIN_WITH_ISLAND)
        with pytest.raises(ConfigError, match="no fake endpoints"):
            generate_flows(net, {}, {0: 5}, seed=1)
        with pytest.raises(TopologyError, match="no path"):
            generate_flows(net, {0: 50}, {}, seed=1)
        with pytest.raises(TopologyError, match="no path"):
            generate_flows(net, {0: 50}, {0: 5}, seed=1)

    def test_a_bad_block_before_an_unreachable_pair_is_raised_first(self):
        """Type -1 sorts first and nobody advertises it: its ConfigError is
        raised, and the type-0 block behind it is never drawn."""
        net = network_from_dict(_CHAIN_WITH_ISLAND)
        with pytest.raises(ConfigError, match="advertises vulnerability -1"):
            generate_flows(net, {-1: 5, 0: 50}, {}, seed=1)

    def test_draw_memory_is_the_table_plus_a_fixed_bound(self, chain_topology_path):
        """The draw holds the table's columns (17 bytes a flow) and one
        chunk's temporaries, whatever the count: drawing a whole type
        block at once held about 51 bytes a flow more, and joining the
        blocks copied the table."""
        with open(chain_topology_path, encoding="utf-8") as fh:
            net = network_from_dict(json.load(fh))
        generate_flows(net, {0: 10}, {0: 10}, seed=1)  # first-call allocations
        for per_type in (20_000, 150_000):
            counts = {0: per_type, 1: per_type}
            tracemalloc.start()
            try:
                flows = generate_flows(net, counts, counts, seed=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(flows) == 4 * per_type
            assert peak - 17 * len(flows) < 2**20


class TestStatistic:
    """_statistic against numpy's own mean and standard error, bit for bit."""

    @staticmethod
    def _reference(x, ddof=None):
        """The mean or standard error from ``x.mean()`` and ``x.std()``,
        recomputed from x over its largest magnitude when it overflows."""

        def of(y):
            return float(y.mean() if ddof is None else y.std(ddof=ddof) / np.sqrt(len(y)))

        with np.errstate(over="ignore", invalid="ignore"):
            value = of(x)
            if not np.isfinite(value):
                scale = float(np.max(np.abs(x)))
                value = of(x / scale) * scale
        return value

    @pytest.mark.parametrize("size", [1, 2, 3, 8, 127, 128, 129, 1_000, 2_999, 3_000])
    def test_matches_numpy_bit_for_bit(self, size):
        for seed in range(6):
            rng = np.random.default_rng([size, seed])
            x = rng.normal(rng.uniform(-3, 3), 1.0, size=size) * 10.0 ** rng.integers(-150, 150)
            assert _statistic(x).hex() == float(x.mean()).hex()
            if size > 1:
                want = float(x.std(ddof=1) / np.sqrt(size))
                assert _statistic(x, ddof=1).hex() == want.hex()

    @pytest.mark.parametrize("size", [2, 3, 50, 3_000])
    def test_overflow_path_matches_the_scaled_numpy_statistic(self, size):
        """Payoffs of ±1e308 overflow numpy's sum and squares; both ways
        rescale and give the same finite bits."""
        for seed in range(4):
            rng = np.random.default_rng([size, seed, 308])
            x = rng.choice([-1e308, 1e308, 9e307, -1.7e308], size=size)
            with np.errstate(over="ignore", invalid="ignore"):
                assert not np.isfinite(x.std(ddof=1))
            for ddof in (None, 1):
                got, want = _statistic(x, ddof), self._reference(x, ddof)
                assert np.isfinite(got) and got.hex() == want.hex()


class TestObserve:
    def test_no_compromised_switches_sees_nothing(self):
        net = _chain_net(compromised=())
        flows = generate_flows(net, {0: 50}, {0: 10}, seed=3)
        assert observe(flows).totals() == {}

    def test_all_switches_see_everything(self):
        net = _chain_net(compromised=("s1", "s2", "s3"))
        flows = generate_flows(net, {0: 50, 1: 20}, {0: 10}, seed=3)
        totals = observe(flows).totals()
        assert totals[0] == 60
        assert totals[1] == 20

    def test_middle_switch_sees_only_crossing_flows(self):
        net = _chain_net(compromised=("s2",))
        flows = generate_flows(net, {0: 80}, {0: 20}, seed=5)
        crossing = [f for f in _rows(flows) if "s2" in _switches_on(net, f[0], f[1])]
        observed = observe(flows)
        assert observed.totals().get(0, 0) == len(crossing)
        # fakes sit on opposite ends, always crossing
        assert np.count_nonzero(observed.observed[0].is_honey) == 20


class TestAttackerEpisode:
    def test_only_honey_means_defeat(self):
        net = _chain_net(compromised=("s2",))
        flows = generate_flows(net, {}, {0: 10}, seed=2)
        obs = observe(flows)
        for row in range(10):
            assert attacker_episode(obs, 0, row).kind is OutcomeKind.DEFEAT

    def test_only_real_means_success(self):
        net = _chain_net(compromised=("s1", "s2", "s3"))
        flows = generate_flows(net, {0: 10}, {}, seed=2)
        obs = observe(flows)
        for row in range(10):
            assert attacker_episode(obs, 0, row).kind is OutcomeKind.SUCCESS

    def test_mismatched_weakness_is_noop(self):
        net = _chain_net(compromised=("s2",))
        # generated real flows always advertise a true weakness, so build
        # the one row by hand: client1 -> server2 advertising type 0
        row = [np.array([net.ids.index(e)], dtype=np.int32) for e in ("client1", "server2")]
        flow = FlowTable(net, *row, np.array([0]), np.array([False]))
        obs = observe(flow)
        outcome = attacker_episode(obs, 0, 0)
        assert outcome.kind is OutcomeKind.NOOP
        assert outcome.attacker_payoff == 0.0
        assert outcome.defender_payoff == 0.0

    def test_empty_observation_raises(self):
        net = _chain_net()
        obs = observe(_no_flows(net))
        with pytest.raises(EmptyObservation):
            attacker_episode(obs, 0, 0)

    def test_half_honey_defeat_frequency(self):
        """5 real + 5 honey of one type: defeat frequency over 10k seeded
        episodes must sit within binomial 3-sigma of 0.5 (0.015)."""
        eps = {
            "r1": _endpoint("r1", 1.0, (0,)),
            "r2": _endpoint("r2", 1.0, (0,)),
            "f1": _endpoint("f1", 0.0, (0,), fake=True),
            "f2": _endpoint("f2", 0.0, (0,), fake=True),
        }
        links = [("r1", "s1"), ("r2", "s1"), ("f1", "s1"), ("f2", "s1")]
        net = build_network(eps, ["s1"], links, compromised=["s1"])
        report = run_trials(net, {0: 5}, {0: 5}, 0, episodes=10_000, seed=77)
        assert abs(report.rows[0].defeat_rate - 0.5) < 0.02

    def test_zero_sum_episode_bookkeeping(self):
        """With attacker and defender valuations equal, every outcome kind
        nets to zero across the two players."""
        net = _chain_net(compromised=("s1", "s2", "s3"))
        flows = generate_flows(net, {0: 7, 1: 3}, {0: 4, 1: 2}, seed=13)
        obs = observe(flows)
        for vuln, count in obs.totals().items():
            for row in range(count):
                outcome = attacker_episode(obs, vuln, row)
                assert outcome.attacker_payoff + outcome.defender_payoff == pytest.approx(
                    0.0, abs=1e-12
                )


def _replayed_rows(net, real, honey, policy, episodes, seed):
    """run_trials' rows rebuilt one episode at a time: the draws of
    ``scalar_episodes``, one ``attacker_episode`` call per episode, then
    ``_statistic`` over each type's payoffs in episode order."""
    flows = generate_flows(net, real, honey, np.random.SeedSequence(seed).spawn(1)[0])
    observation = observe(flows)
    outcomes = {}
    for vuln, row in zip(*scalar_episodes(observation.totals(), policy, episodes, seed)):
        outcomes.setdefault(vuln, []).append(attacker_episode(observation, vuln, row))
    rows = []
    for vuln in sorted(outcomes):
        apay = np.array([o.attacker_payoff for o in outcomes[vuln]])
        dpay = np.array([o.defender_payoff for o in outcomes[vuln]])
        defeats = sum(o.kind is OutcomeKind.DEFEAT for o in outcomes[vuln])
        n = len(apay)
        rows.append(
            TypeStats(
                vuln, int(honey.get(vuln, 0)), n, _statistic(dpay), _statistic(apay),
                _statistic(dpay, ddof=1) if n > 1 else 0.0,
                _statistic(apay, ddof=1) if n > 1 else 0.0,
                defeats / n,
            )
        )
    return tuple(rows)


REPLAY_POPULATIONS = {
    "chain": (_chain_net, {0: 30, 1: 25}, {0: 10, 1: 4}),
    "three-types": (_three_type_net, {0: 40, 1: 30, 2: 50}, {0: 5, 1: 10, 2: 3}),
}


class TestRunTrials:
    @pytest.mark.parametrize("population", REPLAY_POPULATIONS)
    @pytest.mark.parametrize("policy", ["uniform", 1])
    @pytest.mark.parametrize("episodes", [EPISODE_BLOCK - 1, EPISODE_BLOCK, 2_500])
    def test_rows_match_a_scalar_replay(self, population, policy, episodes):
        """Bit for bit, also across block edges: repr keeps every bit of a
        float."""
        make_net, real, honey = REPLAY_POPULATIONS[population]
        net = make_net()
        report = run_trials(net, real, honey, policy, episodes, seed=11)
        expected = _replayed_rows(net, real, honey, policy, episodes, 11)
        assert len(expected) == (len(real) if policy == "uniform" else 1)
        assert repr(report.rows) == repr(expected)

    def test_rows_with_one_key_share_an_outcome(self):
        """One outcome object per (type, destination, honey flag)."""
        net = _chain_net(compromised=("s1", "s2", "s3"))
        obs = observe(generate_flows(net, {0: 30}, {0: 10}, seed=4))
        flows = obs.observed[0]
        keys = list(zip(flows.destination.tolist(), flows.is_honey.tolist()))
        assert len(set(keys)) < len(keys)
        for row, key in enumerate(keys):
            assert attacker_episode(obs, 0, row) is attacker_episode(obs, 0, keys.index(key))
        shared = {id(attacker_episode(obs, 0, row)) for row in range(len(keys))}
        assert len(shared) == len(set(keys))

    def test_no_honey_means_no_detection_and_full_value(self):
        net = _chain_net(compromised=("s1", "s2", "s3"))
        report = run_trials(net, {0: 50}, {}, policy=0, episodes=400, seed=3)
        row = report.rows[0]
        assert row.defeat_rate == 0.0
        assert row.mean_attacker > 0.0

    def test_deterministic_given_seed(self):
        net = _chain_net()
        a = run_trials(net, {0: 30, 1: 30}, {0: 10, 1: 10}, "uniform", 300, 21)
        b = run_trials(net, {0: 30, 1: 30}, {0: 10, 1: 10}, "uniform", 300, 21)
        assert a.rows == b.rows
        assert honey_traffic_rate(a.flows) == honey_traffic_rate(b.flows)

    def test_bad_episode_count(self):
        net = _chain_net()
        with pytest.raises(ConfigError, match="at least 1"):
            run_trials(net, {0: 5}, {}, 0, episodes=0, seed=1)

    def test_memory_does_not_hold_an_object_per_episode(self, chain_topology_path):
        """20,000 episodes keep two float payoffs each (320 kB); one outcome
        object per episode, as run_trials once kept, peaked above 3 MB."""
        with open(chain_topology_path, encoding="utf-8") as fh:
            net = network_from_dict(json.load(fh))
        args = (net, {0: 20, 1: 20}, {0: 5, 1: 5}, "uniform")
        run_trials(*args, 10, 1)  # first-call allocations are not the episodes'
        tracemalloc.start()
        try:
            run_trials(*args, 20_000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_csv_schema(self, capsys, chain_topology_path):
        """``simulate`` writes a header and one line per report row."""
        with open(chain_topology_path, encoding="utf-8") as fh:
            net = network_from_dict(json.load(fh))
        report = run_trials(net, {0: 20, 1: 20}, {0: 5, 1: 5}, "uniform", 200, 2)
        argv = ["simulate", "--topology", chain_topology_path, "--real", "20,20",
                "--honey", "5,5", "--episodes", "200", "--seed", "2"]
        assert cli.run(argv) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = "honey_count,type,mean_def,mean_att,stderr_def,stderr_att,detect_rate"
        assert lines[0] == header
        assert len(lines) == 1 + len(report.rows)

    def test_payoffs_near_the_float_maximum_have_finite_statistics(self):
        """Defender payoffs are +1e308 (a fake hit) or -1e308 (a real one):
        their plain sum and squares overflow, yet the mean and standard
        error are representable and come out finite."""
        a = 1e308
        endpoints = {
            "client1": _endpoint("client1", a, (0,), attacker_value=1.0),
            "server1": _endpoint("server1", a, (0,), attacker_value=1.0),
            "fake1": _endpoint("fake1", 0.0, (0,), fake=True, attacker_value=-a),
        }
        links = [("client1", "s1"), ("server1", "s1"), ("fake1", "s1")]
        net = build_network(endpoints, ["s1"], links, ["s1"])
        row = run_trials(net, {0: 10}, {0: 10}, 0, episodes=200, seed=1).rows[0]
        d, n = row.defeat_rate, row.episodes
        assert 0.0 < d < 1.0
        assert row.mean_defender == pytest.approx(a * (2 * d - 1), rel=1e-9)
        assert row.stderr_defender == pytest.approx(
            a * (2 * np.sqrt(d * (1 - d) / (n - 1))), rel=1e-9
        )


# 2**32 and 2**64 + 1 make SeedSequence entropy of two and three words
EPISODE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 1)


def _drawn(totals, policy, episodes, seed):
    """episode_draws' (types, rows) over all its blocks, as lists."""
    blocks = list(episode_draws(totals, policy, episodes, seed))
    return tuple(np.concatenate(column).tolist() for column in zip(*blocks))


class TestEpisodeDraws:
    @pytest.mark.parametrize("seed", EPISODE_SEEDS)
    @pytest.mark.parametrize("policy", ["uniform", 2])
    def test_matches_scalar_episodes(self, seed, policy):
        # 3 * 2**30 flows make a quarter of the row draws reject
        totals = {0: 3, 2: 999_999, 5: 7, 7: 3 * 2**30}
        assert _drawn(totals, policy, 400, seed) == scalar_episodes(totals, policy, 400, seed)

    @pytest.mark.parametrize(
        "episodes", [EPISODE_BLOCK - 1, EPISODE_BLOCK, EPISODE_BLOCK + 1]
    )
    @pytest.mark.parametrize("policy", ["uniform", 1])
    def test_block_edges_match_scalar_episodes(self, episodes, policy):
        totals = {0: 40, 1: 25, 3: 2}
        for seed in (0, 2**64 + 1):
            assert _drawn(totals, policy, episodes, seed) == scalar_episodes(
                totals, policy, episodes, seed
            )

    @pytest.mark.parametrize(
        "totals, policy",
        [({4: 50}, "uniform"), ({0: 1, 1: 1}, "uniform"), ({0: 9, 3: 1}, 3), ({3: 1}, "uniform")],
        ids=["one-type", "one-flow-types", "fixed-one-flow", "one-type-one-flow"],
    )
    def test_bound_one_draws_nothing(self, totals, policy):
        """A single observed type (type bound 1) or a single observed flow
        (row bound 1) consumes no random word, so the next draw takes the
        word it would have taken."""
        for seed in EPISODE_SEEDS:
            assert _drawn(totals, policy, 200, seed) == scalar_episodes(
                totals, policy, 200, seed
            )

    @pytest.mark.parametrize("seed", [*EPISODE_SEEDS, 2**200 + 12345])
    def test_first_outputs_match_pcg64(self, seed):
        keys = np.array([0, 1, 2, 1000, 2**31, 2**32 - 1])
        expected = [
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(int(k),))).random_raw()
            for k in keys
        ]
        assert first_outputs(seed, keys).tolist() == expected

    @pytest.mark.parametrize("bound", [1, 2, 3, 7, 999_999, 3 * 2**30, 2**32 - 1])
    def test_bounded_matches_generator_integers(self, bound):
        """Generator.integers(bound) takes 32-bit words, low half of each
        64-bit output first, and skips the ones Lemire's method rejects."""
        raw = np.random.PCG64(5).random_raw(2000)
        words = np.column_stack([raw & 0xFFFFFFFF, raw >> 32]).ravel()
        draws, rejected = bounded(words, bound)
        rng = np.random.Generator(np.random.PCG64(5))
        kept = draws[~rejected].tolist()
        assert kept == [int(rng.integers(bound)) for _ in kept]
        if bound == 3 * 2**30:  # rejects when the low product word < 2**30
            assert 800 < np.count_nonzero(rejected) < 1200

    def test_empty_observation_raised_before_any_episode(self, monkeypatch):
        attacks = []
        monkeypatch.setattr(
            "honeyflow.simulator.attacker_episode", lambda *a: attacks.append(a)
        )
        blind = _chain_net(compromised=())
        with pytest.raises(EmptyObservation, match="^no observed flows of any type$"):
            run_trials(blind, {0: 20}, {0: 5}, "uniform", 10, 1)
        net = _chain_net(compromised=("s1", "s2", "s3"))
        with pytest.raises(EmptyObservation, match="^no observed flows of type 1$"):
            run_trials(net, {0: 20}, {0: 5}, 1, 10, 1)
        assert attacks == []

    @pytest.mark.parametrize("policy", [lambda totals, rng: 0, "0", 1.0, True, None])
    def test_policy_is_uniform_or_a_type_id(self, policy):
        with pytest.raises(ConfigError, match="policy must be"):
            next(episode_draws({0: 5, 1: 5}, policy, 10, 1))

    def test_negative_seed_rejected_before_flows(self, monkeypatch):
        drawn = []
        monkeypatch.setattr("honeyflow.simulator.generate_flows", lambda *a: drawn.append(a))
        with pytest.raises(ValueError, match="non-negative"):
            run_trials(_chain_net(), {0: 5}, {}, 0, 10, -1)
        assert drawn == []


class TestHoneyTrafficRate:
    def test_even_split(self):
        net = _chain_net(compromised=())
        flows = generate_flows(net, {0: 500, 1: 500}, {0: 500, 1: 500}, seed=1)
        through = [f for f in _rows(flows) if "s2" in _switches_on(net, f[0], f[1])]
        expected = sum(f[3] for f in through) / len(through)
        rates = honey_traffic_rate(flows)
        assert list(rates) == ["s1", "s2", "s3"]
        assert rates["s2"] == pytest.approx(expected)
        assert rates["s2"] > 0.4  # honey always crosses

    def test_no_honey_rate_zero(self):
        net = _chain_net()
        flows = generate_flows(net, {0: 100}, {}, seed=1)
        assert honey_traffic_rate(flows) == dict.fromkeys(net.switches, 0.0)

    def test_no_traffic_rate_zero_by_convention(self):
        net = _chain_net()
        assert honey_traffic_rate(_no_flows(net)) == dict.fromkeys(net.switches, 0.0)

    def test_honey_routed_around_a_switch(self):
        eps = {
            "r1": _endpoint("r1", 1.0, (0,)),
            "r2": _endpoint("r2", 1.0, (0,)),
            "f1": _endpoint("f1", 0.0, (0,), fake=True),
            "f2": _endpoint("f2", 0.0, (0,), fake=True),
        }
        # Honey pair hangs off s1 only; the real pair spans s1-s2-s3.
        links = [
            ("r1", "s1"),
            ("s1", "s2"),
            ("s2", "s3"),
            ("r2", "s3"),
            ("f1", "s1"),
            ("f2", "s1"),
        ]
        net = build_network(eps, ["s1", "s2", "s3"], links)
        flows = generate_flows(net, {0: 40}, {0: 40}, seed=6)
        rates = honey_traffic_rate(flows)
        assert rates["s2"] == 0.0
        assert rates["s1"] == pytest.approx(0.5)

    def test_memory_at_the_endpoint_cap(self):
        """Every switch of a 426-endpoint, 214-switch tree is rated from
        the 2.9 MiB of per-pair counts and a walk of the carried pairs up
        ``pred``; a product with a switch × pair int64 array would take
        296 MiB."""
        eps, links = {}, []
        for r in range(213):
            links.append(("c", f"r{r:03d}"))
            for eid, fake in ((f"h{r:03d}", False), (f"f{r:03d}", True)):
                eps[eid] = _endpoint(eid, fake=fake)
                links.append((f"r{r:03d}", eid))
        net = build_network(eps, ["c", *(f"r{r:03d}" for r in range(213))], links)
        assert (len(net.ids), len(net.switches)) == (426, 214)
        flows = generate_flows(net, {0: 1000}, {0: 1000}, seed=3)
        tracemalloc.start()
        try:
            rates = honey_traffic_rate(flows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert rates["c"] > 0 and len(rates) == 214


class TestFlowTable:
    def test_take_and_lookup(self):
        net = _chain_net()
        flows = generate_flows(net, {0: 6, 1: 4}, {1: 3}, seed=4)
        assert len(flows) == 13
        assert _rows(flows.take(slice(2, 5))) == _rows(flows)[2:5]
        assert _rows(flows.take(flows.is_honey)) == [f for f in _rows(flows) if f[3]]
        # observe looks each row's pair up in the network's crossing array
        pairs = zip(flows.origin.tolist(), flows.destination.tolist())
        crossing = [f for f, (o, d) in zip(_rows(flows), pairs) if net.crosses[o, d]]
        seen = [f for table in observe(flows).observed.values() for f in _rows(table)]
        assert sorted(seen) == sorted(crossing)

    def test_mask_take_equals_index_take(self):
        net = _chain_net()
        flows = generate_flows(net, {0: 40, 1: 30}, {0: 9, 1: 7}, seed=12)
        for mask in (flows.is_honey, ~flows.is_honey, flows.info == 1, flows.info > 5):
            by_mask, by_index = flows.take(mask), flows.take(np.flatnonzero(mask))
            for name in ("origin", "destination", "info", "is_honey"):
                got, want = getattr(by_mask, name), getattr(by_index, name)
                assert got.dtype == want.dtype and got.tolist() == want.tolist()

    def test_columns_are_read_only(self):
        """A table's rows are fixed once drawn: no column can be written."""
        net = _chain_net()
        flows = generate_flows(net, {0: 10}, {0: 4}, seed=3)
        for table in (flows, flows.take(flows.is_honey), flows.take(slice(1, 4))):
            for name in ("origin", "destination", "info", "is_honey"):
                column = getattr(table, name)
                assert not column.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    column[0] = column[0]

    def test_rates_of_taken_tables_match_the_scalar_loop(self, chain_topology_path):
        """A table made by take is rated on its own rows: the rates of each
        observed type's rows, read after the whole population's, are the
        scalar loop's rates over those rows."""
        with open(chain_topology_path, encoding="utf-8") as fh:
            topology = json.load(fh)
        net = network_from_dict(topology)
        real, honey = {0: 60, 1: 45}, {0: 20, 1: 30}
        expected = scalar_flows(topology, real, honey, 21)
        flows = generate_flows(net, real, honey, 21)
        switches = sorted(topology["switches"])
        whole = honey_traffic_rate(flows)
        assert list(whole.items()) == [(s, scalar_switch_rate(expected, s)) for s in switches]
        crossing = set(topology["compromised"])
        differs = False
        for vuln, table in observe(flows).observed.items():
            rows = [f for f in expected if f[2] == vuln and crossing & set(f[3])]
            rates = honey_traffic_rate(table)
            assert rates == {s: scalar_switch_rate(rows, s) for s in switches}
            differs |= rates != whole
        assert differs  # the whole population's rates would not pass


def test_block_draw_matches_scalar_draws():
    """generate_flows draws a type block with one integers(0, highs) call.
    numpy must give the scalar loop's numbers and leave the generator in
    the same state: bounds of 1 (no draw), near 2**32 and above it."""
    bounds = np.array([1, 2, 3, 7, 2**31, 2**32 - 1, 2**32, 2**32 + 5, 2**40])
    for seed in range(30):
        highs = np.random.default_rng(seed).choice(bounds, size=400)
        block_rng = np.random.default_rng([seed, 1])
        scalar_rng = np.random.default_rng([seed, 1])
        block = block_rng.integers(0, highs)
        assert block.tolist() == [scalar_rng.integers(int(h)) for h in highs]
        assert block_rng.bit_generator.state == scalar_rng.bit_generator.state


class _CountingGenerator(np.random.Generator):
    """A Generator that counts its ``integers`` calls."""

    calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return super().integers(*args, **kwargs)


# pcg.integers' bounds: 2**31 + 1 makes Lemire's method reject about half
# of the words, so numpy's own draw runs instead.
PCG_BOUNDS = (1, 2, 3, 7, 512, 2**31 + 1, 2**32 - 1)


class TestPcgIntegers:
    """pcg.integers against Generator.integers(0, highs): the values and
    the whole bit-generator state after each of several calls."""

    @staticmethod
    def _compare(seed, calls, buffered):
        ours = _CountingGenerator(np.random.PCG64(seed))
        numpy = np.random.Generator(np.random.PCG64(seed))
        if buffered:  # one bound-7 draw leaves a high half buffered
            for rng in (ours, numpy):
                rng.integers(0, np.array([7]))
            assert ours.bit_generator.state["has_uint32"] == 1
        ours.calls = 0
        for highs in calls:
            highs = np.asarray(highs, dtype=np.int64)
            got = pcg.integers(ours, highs)
            assert got.dtype == np.int64
            assert got.tolist() == numpy.integers(0, highs).tolist()
            assert ours.bit_generator.state == numpy.bit_generator.state
        return ours.calls

    @pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered"])
    @pytest.mark.parametrize("bound", PCG_BOUNDS)
    def test_one_bound_over_consecutive_calls(self, bound, buffered):
        calls = [[bound] * n for n in (1, 2, 5, 6, 101)]
        fallbacks = self._compare(3, calls, buffered)
        assert (fallbacks > 0) == (bound == 2**31 + 1)

    @pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered"])
    def test_mixed_bounds(self, buffered):
        rng = np.random.default_rng(8)
        bounds = [b for b in PCG_BOUNDS if b != 2**31 + 1]
        for seed in range(20):
            calls = [rng.choice(bounds, size=int(rng.integers(0, 40))) for _ in range(5)]
            assert self._compare(seed, calls, buffered) == 0

    @pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered"])
    def test_empty_and_all_ones(self, buffered):
        """No bound draws a word: the state stays, and a buffered half stays
        buffered; a bound above 1 afterwards takes that half."""
        assert self._compare(4, [[], [1], [1, 1, 1], [], [5], [1, 9]], buffered) == 0


def _random_topology(rng: np.random.Generator) -> dict:
    """1-5 real and 0-3 fake endpoints on 1-4 switches. Each endpoint
    links to one or two switches or, now and then, to none; neighbouring
    switches mostly link, so some pairs are unreachable. Weaknesses are
    drawn among types 0-2, and the compromised set at random."""
    n_real, n_fake = int(rng.integers(1, 6)), int(rng.integers(0, 4))
    if n_real + n_fake < 2:
        n_fake += 1
    switches = [f"s{k}" for k in range(int(rng.integers(1, 5)))]
    endpoints, links = [], []
    for k in range(n_real + n_fake):
        eid = f"{'f' if k >= n_real else 'h'}{k}"
        endpoints.append(
            {
                "id": eid,
                "defender_value": round(float(rng.uniform(0.0, 3.0)), 2),
                "attacker_value": round(float(rng.uniform(-1.0, 3.0)), 2),
                "weaknesses": [t for t in range(3) if rng.random() < 0.6],
                "fake": k >= n_real,
            }
        )
        if rng.random() < 0.95:
            size = min(len(switches), int(rng.integers(1, 3)))
            links += [[eid, str(s)] for s in rng.choice(switches, size=size, replace=False)]
    links += [[a, b] for a, b in zip(switches, switches[1:]) if rng.random() < 0.9]
    links += [[a, b] for a, b in itertools.combinations(switches, 2) if rng.random() < 0.3]
    compromised = [s for s in switches if rng.random() < 0.4]
    return {
        "endpoints": endpoints,
        "switches": switches,
        "links": links,
        "compromised": compromised,
    }


class TestScalarOracle:
    def test_flows_observation_and_rates_match_the_scalar_loop(self):
        """On 400 seeded random topologies the columns give the scalar
        loop's flows, observation counts and switch rates, or its first
        error message."""
        seen = Counter()
        for case in range(400):
            rng = np.random.default_rng([2020, case])
            topology = _random_topology(rng)
            real = {t: int(rng.integers(0, 25)) for t in range(3) if rng.random() < 0.7}
            honey = {t: int(rng.integers(0, 25)) for t in range(3) if rng.random() < 0.5}
            seed = int(rng.integers(2**32))
            net = network_from_dict(topology)
            try:
                expected = scalar_flows(topology, real, honey, seed)
            except ValueError as exc:
                with pytest.raises(HoneyflowError) as got:
                    generate_flows(net, real, honey, seed)
                assert str(got.value) == str(exc)
                seen["unreachable"] += str(exc).startswith("no path")
                continue
            flows = generate_flows(net, real, honey, seed)
            assert _rows(flows) == [(o, d, t, h) for o, d, t, _, h in expected]
            for o, d, _, path, _ in expected:
                assert _switches_on(net, o, d) == set(path)

            split = scalar_observation(expected, topology["compromised"])
            observation = observe(flows)
            assert {
                t: (len(fs) - int(fs.is_honey.sum()), int(fs.is_honey.sum()))
                for t, fs in observation.observed.items()
            } == split
            assert observation.totals() == {t: r + h for t, (r, h) in split.items()}
            assert honey_traffic_rate(flows) == {
                s: scalar_switch_rate(expected, s) for s in topology["switches"]
            }

            fakes = [e for e in topology["endpoints"] if e["fake"]]
            seen["single fake"] += len(fakes) == 1 and sum(honey.values()) > 0
            for counts, fake in ((real, False), (honey, True)):
                pool = [e for e in topology["endpoints"] if e["fake"] == fake]
                seen["one destination"] += any(
                    n > 0 and sum(t in e["weaknesses"] for e in pool) == 1
                    for t, n in counts.items()
                )
        assert seen["single fake"] and seen["one destination"] and seen["unreachable"], seen

    def test_unreachable_pair_reports_the_first_in_draw_order(self):
        """Two blocks, each with an unreachable pair: the first block's
        first unreachable flow names the error, as in the scalar loop."""
        topology = json.loads(json.dumps(_CHAIN_WITH_ISLAND))
        for seed in range(20):
            with pytest.raises(ValueError) as expected:
                scalar_flows(topology, {0: 5, 1: 5}, {}, seed)
            with pytest.raises(TopologyError) as got:
                generate_flows(network_from_dict(topology), {0: 5, 1: 5}, {}, seed)
            assert str(got.value) == str(expected.value)


def _routing_topology(rng: np.random.Generator) -> dict:
    """2-8 endpoints on 1-12 switches whose ids sort apart from their
    draw order (s10 before s2). Switch pairs link at a drawn density, so
    graphs have cycles and equal-hop ties, or fall apart; an endpoint links
    to zero to three switches, which also makes paths that would be
    shorter through another endpoint."""
    switches = [f"s{k}" for k in rng.permutation(int(rng.integers(1, 13)))]
    density = float(rng.uniform(0.1, 0.6))
    links = [[a, b] for a, b in itertools.combinations(switches, 2) if rng.random() < density]
    endpoints = []
    for k in range(int(rng.integers(2, 9))):
        endpoints.append({"id": f"e{k}", "fake": bool(rng.random() < 0.3)})
        size = min(len(switches), int(rng.choice([0, 1, 1, 2, 2, 3])))
        links += [[f"e{k}", str(s)] for s in rng.choice(switches, size=size, replace=False)]
    compromised = [s for s in switches if rng.random() < 0.3]
    return {"endpoints": endpoints, "switches": switches, "links": links, "compromised": compromised}


def _hops(topology: dict, origin: str, through_endpoints: bool) -> tuple[dict, dict]:
    """Hop distances from ``origin``, and each node's count of neighbours
    one hop closer that may forward to it (the origin or a switch, or any
    node when ``through_endpoints``)."""
    endpoints = {e["id"] for e in topology["endpoints"]}
    adj: dict[str, set[str]] = {}
    for a, b in topology["links"]:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    dist, frontier = {origin: 0}, [origin]
    while frontier:
        step = []
        for node in frontier:
            if node == origin or through_endpoints or node not in endpoints:
                for nxt in adj.get(node, ()):
                    if nxt not in dist:
                        dist[nxt] = dist[node] + 1
                        step.append(nxt)
        frontier = step
    ties = {
        node: sum(
            dist.get(m) == d - 1 and (m == origin or through_endpoints or m not in endpoints)
            for m in adj.get(node, ())
        )
        for node, d in dist.items()
    }
    return dist, ties


class TestRoutingOracle:
    def test_pair_index_matches_the_scalar_paths(self):
        """On 300 seeded graphs, every endpoint pair's reachability,
        compromised crossing and switches, read along ``pred``, are the
        scalar router's; so is ``crosses`` at each switch on the path,
        which says an earlier switch on it is compromised."""
        seen = Counter()
        for case in range(300):
            topology = _routing_topology(np.random.default_rng([2026, case]))
            net = network_from_dict(topology)
            paths = _scalar_paths(topology)
            compromised = set(topology["compromised"])
            column = {s: len(net.ids) + k for k, s in enumerate(net.switches)}
            for o, origin in enumerate(net.ids):
                dist, ties = _hops(topology, origin, through_endpoints=False)
                shortcut, _ = _hops(topology, origin, through_endpoints=True)
                for d, dest in enumerate(net.ids):
                    path = paths.get((origin, dest))
                    assert (net.pred[o, d] >= 0) == (path is not None)
                    on = set(path or ())
                    along = set(_path(net, o, d))
                    assert [s in along for s in net.switches] == [s in on for s in net.switches]
                    assert _path(net, o, d) == (path or ())
                    assert net.crosses[o, d] == bool(on & compromised)
                    for k, s in enumerate(path or ()):
                        assert net.crosses[o, column[s]] == bool(compromised & set(path[:k]))
                    if path is None:
                        seen["unreachable"] += o != d
                        continue
                    seen["tie"] += any(ties[x] > 1 for x in (*path, dest))
                    seen["endpoint shortcut"] += shortcut[dest] < dist[dest]
            seen["many switches"] += len(net.switches) >= 10
        assert all(seen[k] for k in ("unreachable", "tie", "endpoint shortcut", "many switches")), seen


# client3 advertises both types but hangs off an unlinked switch.
_CHAIN_WITH_ISLAND = {
    "endpoints": [
        {"id": "client1", "weaknesses": [0]},
        {"id": "client2", "weaknesses": [1]},
        {"id": "client3", "weaknesses": [0, 1]},
        {"id": "server1", "weaknesses": [0]},
        {"id": "server2", "weaknesses": [1]},
    ],
    "switches": ["s1", "s2", "s9"],
    "links": [
        ["client1", "s1"], ["client2", "s1"], ["s1", "s2"],
        ["server1", "s2"], ["server2", "s2"], ["client3", "s9"],
    ],
    "compromised": ["s2"],
}
