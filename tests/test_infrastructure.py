"""Topology building, transfer arithmetic, FIFO queues, latency records."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metafog.config import resolve_config
from metafog.harness import TaskPipeline, run_scenario
from metafog.infrastructure import Tier, build_user_topology, fifo_completions, service_time_us
from metafog.workload import SYSTEM_OWNER, Placement, Policy, TaskKind
from mm1_harness import simulate_mm1
from placement_oracle import (
    Link,
    home_fogs,
    links,
    nodes_by_id,
    path,
    reference_topology,
    transfer_time,
)

# The hand computations' tiers: the default topology with a 4 000 MIPS fog
# and a 30 ms edge-cloud link.
PARAMS = resolve_config({"topology": {
    "fog_mips": 4_000, "links": {"edge_cloud": {"propagation_ms": 30.0}}}})["topology"]


# Task profiles of the hand computations: lengths in MI, payloads in bytes.
PROFILES = {
    "spatial_navigation": {"length_mi": 50, "upload_bytes": 2_000, "download_bytes": 1_000},
    "collision_detection": {"base_length_mi": 20, "per_neighbor_mi": 1,
                            "upload_bytes": 1_000, "download_bytes": 500},
    "social_interaction": {"length_mi": 30, "upload_bytes": 1_000, "download_bytes": 1_000},
    "transaction_validation": {"length_mi": 2_000, "upload_bytes": 2_000, "download_bytes": 500},
    "universe_simulation": {"length_mi": 10_000, "upload_bytes": 0, "download_bytes": 0},
}


def minimal_chain():
    """One device under one fog under one edge under the cloud."""
    return build_user_topology([0], 1, 1, PARAMS)


class TestBuildTopology:
    def test_minimal_chain_counts(self):
        topo = minimal_chain()
        assert len(nodes_by_id(topo)) == 4
        assert len(links(topo)) == 3

    def test_regular_two_region_tree_has_fifteen_nodes(self):
        # cloud + 2 regions x (1 edge + 2 fogs + 4 devices) = 1 + 2*7
        topo = build_user_topology([r for r in range(2) for _ in range(4)], 2, 1,
                                   {**PARAMS, "devices_per_fog": 2})
        assert len(nodes_by_id(topo)) == 15
        tiers = [n.tier for n in nodes_by_id(topo).values()]
        assert tiers.count(Tier.EDGE_SERVER) == 2
        assert tiers.count(Tier.FOG_SERVER) == 4
        assert tiers.count(Tier.END_DEVICE) == 8


def columns(topo):
    """A topology's columns by node id, node and edge indexes spelt as ids."""
    ids = topo.node_ids
    return {"tier": dict(zip(ids, topo.tier.tolist())),
            "parent": {i: ids[p] for i, p in zip(ids, topo.parent.tolist())},
            "capacity": dict(zip(ids, topo.capacity.tolist())),
            "uplink_us": dict(zip(ids, topo.uplink_us.tolist())),
            "uplink_mbps": dict(zip(ids, topo.uplink_mbps.tolist())),
            "edges": {r: [ids[e] for e in edges] for r, edges in enumerate(topo.edges.tolist())},
            "cloud_id": ids[topo.cloud]}


def reference_columns(nodes, links):
    """The same read off NetworkNode and Link objects; the cloud is its own parent."""
    by_id = {n.id: n for n in nodes}
    uplink = {link.child: link for link in links}
    ids = sorted(by_id)
    edges = {}
    for node_id in ids:
        if by_id[node_id].tier == Tier.EDGE_SERVER:
            edges.setdefault(by_id[node_id].region, []).append(node_id)
    return {"tier": {i: by_id[i].tier for i in ids},
            "parent": {i: by_id[i].parent or i for i in ids},
            "capacity": {i: by_id[i].capacity_mips for i in ids},
            "uplink_us": {i: uplink[i].propagation_us if i in uplink else 0 for i in ids},
            "uplink_mbps": {i: uplink[i].bandwidth_mbps if i in uplink else 0 for i in ids},
            "edges": edges,
            "cloud_id": next(n.id for n in nodes if n.tier == Tier.CLOUD_SERVER)}


def reference_to_cloud_us(nodes, links, payload_bytes):
    """transfer_time of each node's links up to the cloud, walked over the objects, by id."""
    by_id = {n.id: n for n in nodes}
    uplink = {link.child: link for link in links}
    costs = {}
    for start in by_id:
        node_id, route = start, []
        while by_id[node_id].parent is not None:
            route.append(uplink[node_id])
            node_id = by_id[node_id].parent
        costs[start] = transfer_time(payload_bytes, route)
    return costs


def assert_builder_matches_reference(homes, regions_x, regions_y, topology):
    """The builder against the reference, given the same region index per user."""
    topo = build_user_topology(homes, regions_x, regions_y, topology)
    nodes, links_, ref_devices, ref_fogs = reference_topology(homes, regions_x, regions_y,
                                                              topology)
    assert columns(topo) == reference_columns(nodes, links_)
    assert ([topo.node_ids[d] for d in topo.device], home_fogs(topo)) == (ref_devices, ref_fogs)
    for payload in (0, 500, 1_000, 2_000):
        assert dict(zip(topo.node_ids, topo.transfer_to_cloud_us(payload).tolist())) == \
            reference_to_cloud_us(nodes, links_, payload)
    # rows: the cloud, the edges, the fogs, then user u's device dev-u, in user order
    assert topo.tier.tolist() == sorted(topo.tier.tolist(), reverse=True)
    nodes = len(topo.node_ids)
    assert topo.device.tolist() == list(range(nodes - len(homes), nodes))


_LINK = st.fixed_dictionaries({"propagation_ms": st.sampled_from([0.0, 0.5, 2.0, 16.1]),
                                "bandwidth_mbps": st.integers(1, 10_000)})


def topology_cfg(edges, devices_per_fog, links=None):
    return {**PARAMS, "edges_per_region": edges, "devices_per_fog": devices_per_fog,
            **({"links": dict(zip(("device_fog", "fog_edge", "edge_cloud"), links))}
               if links else {})}


class TestColumnBuilder:
    """build_user_topology fills the columns the object-level reference tree implies."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), regions_x=st.integers(1, 3), regions_y=st.integers(1, 3),
           edges=st.integers(1, 3), devices_per_fog=st.integers(1, 3),
           links=st.tuples(_LINK, _LINK, _LINK))
    def test_columns_equal_the_reference_builder(self, data, regions_x, regions_y, edges,
                                                 devices_per_fog, links):
        n_regions = regions_x * regions_y
        # users start in some of the regions, so others have edges but no fog
        occupied = sorted(data.draw(st.sets(st.sampled_from(range(n_regions)), min_size=1,
                                            max_size=max(1, n_regions - 1))))
        homes = data.draw(st.lists(st.sampled_from(occupied), min_size=1, max_size=20))
        assert_builder_matches_reference(homes, regions_x, regions_y,
                                         topology_cfg(edges, devices_per_fog, links))

    @settings(max_examples=60, deadline=None)
    @given(homes=st.lists(st.integers(0, 3), min_size=1, max_size=20),
           edges=st.sampled_from([1, 2, 3, 12]), devices_per_fog=st.integers(1, 3),
           links=st.tuples(_LINK, _LINK, _LINK))
    def test_built_tree_is_well_formed(self, homes, edges, devices_per_fog, links):
        # a Topology is not checked when made: the builder must make a well-formed tree
        topo = build_user_topology(homes, 2, 2, topology_cfg(edges, devices_per_fog, links))
        ids, tier, parent = topo.node_ids, topo.tier, topo.parent
        assert len(set(ids)) == len(ids)
        assert np.flatnonzero(tier == Tier.CLOUD_SERVER).tolist() == [topo.cloud]
        assert parent[topo.cloud] == topo.cloud
        below = np.arange(len(ids)) != topo.cloud
        assert (tier.take(parent[below]) == tier[below] + 1).all()
        assert (topo.capacity > 0).all()
        assert (topo.uplink_us[below] >= 0).all() and (topo.uplink_mbps[below] > 0).all()
        assert topo.edges.shape == (4, edges)
        assert sorted(topo.edges.ravel().tolist()) == \
            np.flatnonzero(tier == Tier.EDGE_SERVER).tolist()
        for row in topo.edges.tolist():
            assert [ids[e] for e in row] == sorted(ids[e] for e in row)
        assert len(topo.device) == len(homes)
        assert (tier.take(topo.device) == Tier.END_DEVICE).all()

    @pytest.mark.parametrize("edges", [11, 12])
    def test_many_edges_sort_as_strings_and_take_fogs_in_creation_order(self, edges):
        # 14 one-device fogs in region (0, 1), index 1, wrap past the last edge; edge-0-1-10
        # sorts before edge-0-1-2, and region (1, 0), index 2, stays empty
        homes = [1] * 14 + [3] * 3 + [0]
        assert_builder_matches_reference(homes, 2, 2, topology_cfg(edges, 1))
        topo = build_user_topology(homes, 2, 2, topology_cfg(edges, 1))
        edge_ids = [topo.node_ids[e] for e in topo.edges[1]]
        assert edge_ids[:3] == ["edge-0-1-0", "edge-0-1-1", "edge-0-1-10"]
        assert edge_ids[-1] == "edge-0-1-9"
        fog = topo.node_ids.index(f"fog-0-1-{edges}")  # the first fog past the last edge
        assert topo.node_ids[topo.parent[fog]] == "edge-0-1-0"


class TestPath:
    def test_one_hop(self):
        topo = minimal_chain()
        dev = next(n for n in nodes_by_id(topo) if n.startswith("dev"))
        fog = next(n for n in nodes_by_id(topo) if n.startswith("fog"))
        route = path(topo, dev, fog)
        assert len(route) == 1
        assert {route[0].child, route[0].parent} == {dev, fog}

    def test_full_chain_is_three_links(self):
        topo = minimal_chain()
        dev = next(n for n in nodes_by_id(topo) if n.startswith("dev"))
        assert len(path(topo, dev, "cloud")) == 3

    def test_identity_path_is_empty(self):
        topo = minimal_chain()
        assert path(topo, "cloud", "cloud") == ()

    def test_unknown_node_rejected(self):
        topo = minimal_chain()
        with pytest.raises(ValueError, match="nowhere"):
            path(topo, "nowhere", "cloud")

    def test_sibling_path_goes_through_common_ancestor(self):
        # two users, one device per fog: two sibling fogs under the one edge
        topo = build_user_topology([0] * 2, 1, 1, {**PARAMS, "devices_per_fog": 1})
        fogs = sorted(i for i, n in nodes_by_id(topo).items() if n.tier == Tier.FOG_SERVER)
        route = path(topo, fogs[0], fogs[1])
        assert len(route) == 2  # up to the edge, down to the sibling


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

    @given(route=st.lists(st.builds(Link, st.just("a"), st.just("b"), st.integers(0, 10**6),
                                    st.integers(1, 10**5)), max_size=6),
           payloads=st.tuples(st.integers(0, 10**8), st.integers(0, 10**8)),
           hops=st.integers(0, 6))
    def test_monotone_in_payload_and_hop_count(self, route, payloads, hops):
        small, large = sorted(payloads)
        assert transfer_time(small, route) <= transfer_time(large, route)
        assert transfer_time(large, route[:hops]) <= transfer_time(large, route)


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

    def test_service_summing_past_int64_is_refused_before_busy_until_moves(self):
        # each service fits in int64, their sum on one server does not
        busy = np.array([5, 7], dtype=np.int64)
        with pytest.raises(OverflowError):
            fifo_completions(np.array([0, 0]), np.array([0, 0]), np.array([2**62, 2**62]), busy)
        assert busy.tolist() == [5, 7]


def test_mm1_mean_wait_is_pinned():
    assert simulate_mm1(0.25, 0.5, 100_000, seed=2024) == \
        {"tasks": 100_000, "mean_wait_us": 1980.62187}


class TestEndToEndLatency:
    @staticmethod
    def records(kind, owner):
        topo = build_user_topology([0], 1, 1, PARAMS)
        (fog,) = home_fogs(topo)
        records = []
        placement = Placement(Policy.FOG_EDGE, topo, PROFILES)
        pipeline = TaskPipeline(placement, lambda finish, task_id: None,
                                record_sink=records.append)
        pipeline.submit(kind, owner, 0)
        pipeline.resolve(10_000_000)
        assert len(records) == 1
        return fog, records[0]

    def test_components_sum_exactly(self):
        fog, rec = self.records(TaskKind.SPATIAL_NAVIGATION, 0)
        assert rec.placed_on == fog
        assert rec.total_us == rec.uplink_us + rec.wait_us + rec.service_us + rec.downlink_us
        assert rec.uplink_us == 2_000 + 160
        assert rec.service_us == 12_500
        assert rec.downlink_us == 2_000 + 80

    def test_device_local_route_is_wait_plus_service(self):
        _, rec = self.records(TaskKind.UNIVERSE_SIMULATION, SYSTEM_OWNER)
        assert rec.placed_on == "cloud"
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
