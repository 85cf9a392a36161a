"""Topology validation, transfer arithmetic, FIFO queues, latency records."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metafog.errors import TopologyError
from metafog.harness import TaskPipeline, run_scenario
from metafog.infrastructure import (
    Link,
    LinkParams,
    NetworkNode,
    Tier,
    TierParams,
    Topology,
    build_topology,
    fifo_completions,
    service_time_us,
    simulate_mm1,
    transfer_time,
)
from metafog.workload import Policy, Task, TaskKind

PARAMS = TierParams(
    fog_mips=4_000,
    edge_mips=20_000,
    cloud_mips=100_000,
    device_fog=LinkParams(2.0, 100),
    fog_edge=LinkParams(5.0, 1_000),
    edge_cloud=LinkParams(30.0, 10_000),
)


def minimal_chain():
    """One device under one fog under one edge under the cloud."""
    return build_topology([(0, 0)], PARAMS)


class TestBuildTopology:
    def test_minimal_chain_counts(self):
        topo = minimal_chain()
        assert topo.node_count() == 4
        assert len(topo.links) == 3

    def test_regular_two_region_tree_has_fifteen_nodes(self):
        # cloud + 2 regions x (1 edge + 2 fogs + 4 devices) = 1 + 2*7
        topo = build_topology([(0, 0), (1, 0)], PARAMS, fogs_per_edge=2, devices_per_fog=2)
        assert topo.node_count() == 15
        tiers = [topo.node(n).tier for n in topo.nodes_by_id]
        assert tiers.count(Tier.EDGE_SERVER) == 2
        assert tiers.count(Tier.FOG_SERVER) == 4
        assert tiers.count(Tier.END_DEVICE) == 8

    def test_device_with_two_parents_rejected(self):
        topo = minimal_chain()
        nodes = list(topo.nodes_by_id.values())
        fog = next(n.id for n in nodes if n.tier == Tier.FOG_SERVER)
        dev = next(n.id for n in nodes if n.tier == Tier.END_DEVICE)
        extra_fog = NetworkNode("fog-extra", Tier.FOG_SERVER, 4_000, None, "edge-0-0")
        links = list(topo.links) + [
            Link("fog-extra", "edge-0-0", 5_000, 1_000),
            Link(dev, "fog-extra", 2_000, 100),
        ]
        with pytest.raises(TopologyError, match="two parents"):
            Topology(nodes + [extra_fog], links)

    def test_orphan_rejected_by_name(self):
        nodes = [
            NetworkNode("cloud", Tier.CLOUD_SERVER, 1_000),
            NetworkNode("edge-0-0", Tier.EDGE_SERVER, 1_000, (0, 0), "cloud"),
            NetworkNode("lonely-fog", Tier.FOG_SERVER, 1_000),
        ]
        links = [Link("edge-0-0", "cloud", 1_000, 100)]
        with pytest.raises(TopologyError, match="lonely-fog"):
            Topology(nodes, links)

    def test_link_to_unknown_node_rejected(self):
        nodes = [NetworkNode("cloud", Tier.CLOUD_SERVER, 1_000)]
        with pytest.raises(TopologyError, match="ghost"):
            Topology(nodes, [Link("ghost", "cloud", 1_000, 100)])

    def test_non_adjacent_tier_link_rejected(self):
        nodes = [
            NetworkNode("cloud", Tier.CLOUD_SERVER, 1_000),
            NetworkNode("dev", Tier.END_DEVICE, 1_000),
        ]
        with pytest.raises(TopologyError, match="adjacent"):
            Topology(nodes, [Link("dev", "cloud", 1_000, 100)])

    def test_non_positive_capacity_rejected(self):
        with pytest.raises(TopologyError, match="capacity"):
            Topology([NetworkNode("cloud", Tier.CLOUD_SERVER, 0)], [])

    def test_edge_without_region_rejected(self):
        nodes = [
            NetworkNode("cloud", Tier.CLOUD_SERVER, 1_000),
            NetworkNode("edge", Tier.EDGE_SERVER, 1_000, None, "cloud"),
        ]
        with pytest.raises(TopologyError, match="region"):
            Topology(nodes, [Link("edge", "cloud", 1_000, 100)])

    def test_two_clouds_rejected(self):
        nodes = [
            NetworkNode("cloud-a", Tier.CLOUD_SERVER, 1_000),
            NetworkNode("cloud-b", Tier.CLOUD_SERVER, 1_000),
        ]
        with pytest.raises(TopologyError, match="cloud"):
            Topology(nodes, [])

    def test_region_without_edge_server_fails_at_lookup(self):
        topo = minimal_chain()
        with pytest.raises(TopologyError, match="no edge server"):
            topo.edge_of_region((5, 5))


class TestPath:
    def test_one_hop(self):
        topo = minimal_chain()
        dev = next(n for n in topo.nodes_by_id if n.startswith("dev"))
        fog = next(n for n in topo.nodes_by_id if n.startswith("fog"))
        path = topo.path(dev, fog)
        assert len(path) == 1
        assert {path[0].child, path[0].parent} == {dev, fog}

    def test_full_chain_is_three_links(self):
        topo = minimal_chain()
        dev = next(n for n in topo.nodes_by_id if n.startswith("dev"))
        assert len(topo.path(dev, "cloud")) == 3

    def test_identity_path_is_empty(self):
        topo = minimal_chain()
        assert topo.path("cloud", "cloud") == ()

    def test_unknown_node_rejected(self):
        topo = minimal_chain()
        with pytest.raises(TopologyError, match="nowhere"):
            topo.path("nowhere", "cloud")

    def test_sibling_path_goes_through_common_ancestor(self):
        topo = build_topology([(0, 0)], PARAMS, fogs_per_edge=2)
        fogs = sorted(n for n in topo.nodes_by_id if topo.node(n).tier == Tier.FOG_SERVER)
        path = topo.path(fogs[0], fogs[1])
        assert len(path) == 2  # up to the edge, down to the sibling


class TestTransferTime:
    def test_pure_propagation_for_zero_payload(self):
        link = Link("a", "b", 2_000, 100)
        assert transfer_time(0, [link]) == 2_000

    def test_empty_route_is_free(self):
        assert transfer_time(1_000_000, []) == 0

    def test_megabyte_over_100mbps(self):
        # 8e6 bits / 100 Mbps = 80 ms transmission + 5 ms propagation
        link = Link("a", "b", 5_000, 100)
        assert transfer_time(1_000_000, [link]) == 85_000

    def test_transmission_rounds_up(self):
        link = Link("a", "b", 0, 1_000)
        assert transfer_time(1, [link]) == 1  # 8 bits / 1000 Mbps -> ceil to 1 us


def serve(busy_until, arrivals, services, server=0):
    """(completion, wait) of each task, served in order at one FIFO server."""
    arrival = np.array(arrivals, dtype=np.int64)
    service = np.array(services, dtype=np.int64)
    completion = fifo_completions(np.full(arrival.size, server, dtype=np.int64),
                                  arrival, service, busy_until)
    return list(zip(completion.tolist(), (completion - service - arrival).tolist()))


class TestComputeQueue:
    def test_idle_service(self):
        busy = np.zeros(1, dtype=np.int64)
        assert serve(busy, [0], [service_time_us(500, 1_000)]) == [(500_000, 0)]

    def test_fifo_recurrence(self):
        s = service_time_us(20, 4_000)  # 5 ms
        busy = np.zeros(1, dtype=np.int64)
        assert serve(busy, [0, 1_000], [s, s]) == [(5_000, 0), (10_000, 4_000)]

    def test_arrival_after_busy_until_waits_nothing(self):
        busy = np.zeros(1, dtype=np.int64)
        serve(busy, [0], [5_000])
        assert serve(busy, [9_000], [1_000]) == [(10_000, 0)]

    def test_service_time_rounds_up(self):
        assert service_time_us(1, 3) == 333_334
        assert service_time_us(50, 4_000) == 12_500

    @settings(max_examples=200, deadline=None)
    @given(tasks=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 10_000),
                                    st.integers(1, 3_000)), max_size=60),
           cuts=st.lists(st.integers(0, 10_000), max_size=6))
    def test_windowed_pass_equals_the_per_task_loop(self, tasks, cuts):
        # reference: each server serves in (arrival, index) order, one task at a time
        expected = {}
        busy = [0] * 4
        for i in sorted(range(len(tasks)), key=lambda i: (tasks[i][1], i)):
            server, arrival, service = tasks[i]
            busy[server] = max(arrival, busy[server]) + service
            expected[i] = busy[server]
        # the same tasks resolved window by window, a window being the arrivals up to a cut
        got = {}
        busy_until = np.zeros(4, dtype=np.int64)
        lower = -1
        for cut in sorted(cuts) + [10_000]:
            window = sorted((i for i, t in enumerate(tasks) if lower < t[1] <= cut),
                            key=lambda i: (tasks[i][0], tasks[i][1], i))
            lower = max(lower, cut)
            columns = np.array([tasks[i] for i in window], dtype=np.int64).reshape(-1, 3)
            done = fifo_completions(columns[:, 0], columns[:, 1], columns[:, 2], busy_until)
            got.update(zip(window, done.tolist()))
        assert got == expected
        assert busy_until.tolist() == busy

    def test_batch_too_long_for_int64_is_refused(self):
        busy = np.zeros(2, dtype=np.int64)
        with pytest.raises(OverflowError):
            fifo_completions(np.array([0, 1]), np.array([0, 1 << 62]), np.array([1, 1]), busy)


def test_mm1_mean_wait_is_pinned():
    assert simulate_mm1(0.25, 0.5, 100_000, seed=2024) == \
        {"tasks": 100_000, "mean_wait_us": 1980.62187}


class TestEndToEndLatency:
    @staticmethod
    def records(task, device, home_fog=None):
        records = []
        pipeline = TaskPipeline(minimal_chain(), Policy.FOG_EDGE, record_sink=records.append)
        pipeline.dispatch_task(task, device, home_fog)
        pipeline.resolve(10_000_000)
        assert len(records) == 1
        return records[0]

    def test_components_sum_exactly(self):
        topo = minimal_chain()
        dev = next(n for n in topo.nodes_by_id if n.startswith("dev"))
        fog = next(n for n in topo.nodes_by_id if n.startswith("fog"))
        rec = self.records(Task(0, TaskKind.SPATIAL_NAVIGATION, 0, 50, 2_000, 1_000, 0), dev, fog)
        assert rec.placed_on == fog
        assert rec.total_us == rec.uplink_us + rec.wait_us + rec.service_us + rec.downlink_us
        assert rec.uplink_us == 2_000 + 160
        assert rec.service_us == 12_500
        assert rec.downlink_us == 2_000 + 80

    def test_device_local_route_is_wait_plus_service(self):
        rec = self.records(Task(1, TaskKind.UNIVERSE_SIMULATION, -1, 10_000, 0, 0, 0), "cloud")
        assert rec.uplink_us == rec.downlink_us == 0
        assert rec.total_us == rec.wait_us + rec.service_us == 100_000


def _record_map(policy, overrides, seed=5):
    records = []
    cfg = {"workload": {"user_count": 12},
           "experiment": {"horizon_ms": 30_000.0, "warmup_ms": 0.0}}
    for section, patch in overrides.items():
        cfg.setdefault(section, {})
        for key, value in patch.items():
            cfg[section][key] = value
    run_scenario(cfg, policy, seed, record_sink=records.append)
    return {r.task_id: r for r in records}


class TestScenarioLatencyInvariants:
    def test_decomposition_holds_for_every_record(self):
        records = _record_map("fogedge", {})
        assert records
        for r in records.values():
            assert r.total_us == r.uplink_us + r.wait_us + r.service_us + r.downlink_us

    def test_fifo_replay_reproduces_completions(self):
        # replay each node's arrival log through C_i = max(A_i, C_{i-1}) + S_i
        records = _record_map("cloud", {})
        by_node = {}
        for r in records.values():
            by_node.setdefault(r.placed_on, []).append(r)
        assert by_node
        for node_records in by_node.values():
            node_records.sort(key=lambda r: (r.created_us + r.uplink_us, r.task_id))
            completion = 0
            for r in node_records:
                arrival = r.created_us + r.uplink_us
                completion = max(arrival, completion) + r.service_us
                assert completion == arrival + r.wait_us + r.service_us

    def test_increasing_propagation_never_lowers_any_latency(self):
        for policy in ("cloud", "fogedge"):
            base = _record_map(policy, {})
            slower = _record_map(
                policy,
                {"topology": {"links": {"device_fog": {"propagation_ms": 6.0}}}},
            )
            shared = set(base) & set(slower)
            assert shared
            assert all(slower[tid].total_us >= base[tid].total_us for tid in shared)
