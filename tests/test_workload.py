"""Task generation rates, placement policy table, policy separation, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metafog.config import resolve_config
from metafog.errors import ConfigError
from metafog.harness import run_scenario
from metafog.infrastructure import build_user_topology, service_time_us
from metafog.workload import (
    KIND_LABELS,
    REGION_KINDS,
    SYSTEM_OWNER,
    Placement,
    Policy,
    TaskKind,
)
from placement_oracle import home_fogs, nodes_by_id, path, place, transfer_time


def small_cfg(**workload):
    cfg = {
        "workload": {"user_count": 10, **workload},
        "experiment": {"horizon_ms": 20_000.0, "warmup_ms": 0.0},
    }
    return cfg


class TestPlacementTable:
    def setup_method(self):
        # one user, so one fog, in each of regions (0, 0) and (1, 1) of a 2 x 2 grid
        topology = resolve_config({"topology": {
            "fog_mips": 4_000, "links": {"edge_cloud": {"propagation_ms": 30.0}}}})["topology"]
        self.topo = build_user_topology([0, 3], 2, 2, topology)
        self.fog = home_fogs(self.topo)[0]

    def place(self, kind, policy=Policy.FOG_EDGE, region=None):
        return place(kind, policy, self.topo, self.fog, region=region, owner=3)

    def test_cloud_only_sends_every_kind_to_cloud(self):
        for kind in TaskKind:
            assert self.place(kind, Policy.CLOUD_ONLY, region=3) == "cloud"

    def test_fogedge_navigation_goes_to_home_fog(self):
        assert self.place(TaskKind.SPATIAL_NAVIGATION) == self.fog

    def test_fogedge_collision_goes_to_home_fog(self):
        assert self.place(TaskKind.COLLISION_DETECTION) == self.fog

    def test_fogedge_social_goes_to_current_region_edge(self):
        assert self.place(TaskKind.SOCIAL_INTERACTION, region=3) == "edge-1-1"

    def test_fogedge_transaction_goes_to_submitter_region_edge(self):
        assert self.place(TaskKind.TRANSACTION_VALIDATION, region=0) == "edge-0-0"

    def test_fogedge_universe_simulation_stays_on_cloud(self):
        assert self.place(TaskKind.UNIVERSE_SIMULATION) == "cloud"

    def test_place_is_deterministic(self):
        nodes = {self.place(TaskKind.SOCIAL_INTERACTION, region=3) for _ in range(5)}
        assert len(nodes) == 1

    def test_fog_task_without_home_fog_is_an_error(self):
        with pytest.raises(ConfigError):
            place(TaskKind.SPATIAL_NAVIGATION, Policy.FOG_EDGE, self.topo, None)


_LINK = st.fixed_dictionaries({"propagation_ms": st.sampled_from([0.0, 0.5, 2.0, 16.1]),
                                "bandwidth_mbps": st.integers(1, 10_000)})


class TestPlacementArrays:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), regions_x=st.integers(1, 3), regions_y=st.integers(1, 3),
           edges=st.sampled_from([1, 2, 3, 12]), devices_per_fog=st.integers(1, 3),
           links=st.tuples(_LINK, _LINK, _LINK))
    def test_apply_equals_place_transfer_and_service_task_by_task(
            self, data, regions_x, regions_y, edges, devices_per_fog, links):
        n_regions = regions_x * regions_y
        homes = data.draw(st.lists(st.integers(0, n_regions - 1), min_size=1, max_size=12))
        topology = {"device_mips": 2_000, "fog_mips": 4_000, "edge_mips": 20_000,
                    "cloud_mips": 100_000, "edges_per_region": edges,
                    "devices_per_fog": devices_per_fog,
                    "links": dict(zip(("device_fog", "fog_edge", "edge_cloud"), links))}
        # 12 edges a region: edge-R-10 and edge-R-11 sort before edge-R-2
        topo = build_user_topology(homes, regions_x, regions_y, topology)
        fogs = home_fogs(topo)
        profiles = resolve_config(None)["workload"]["profiles"]
        owner_of = st.integers(0, len(homes) - 1)
        tasks = data.draw(st.lists(st.tuples(
            st.sampled_from(list(TaskKind)), owner_of, st.integers(0, n_regions - 1),
            st.integers(0, 50)), min_size=1, max_size=30))
        tasks = [(k, SYSTEM_OWNER if k == TaskKind.UNIVERSE_SIMULATION else o, r,
                  c if k == TaskKind.COLLISION_DETECTION else 0) for k, o, r, c in tasks]
        columns = [np.array(column, dtype=np.int64) for column in zip(*tasks)]
        for policy in Policy:
            placement = Placement(policy, topo, profiles)
            got = list(zip(*(column.tolist() for column in placement.apply(*columns))))
            for (kind, owner, region, candidates), (server, up, service, down) in zip(tasks, got):
                system = owner == SYSTEM_OWNER
                node = place(kind, policy, topo, None if system else fogs[owner],
                             region=region, owner=owner)
                source = topo.node_ids[topo.cloud if system else topo.device[owner]]
                profile = profiles[KIND_LABELS[kind]]
                length = profile.get("length_mi", profile.get("base_length_mi"))
                length += profile.get("per_neighbor_mi", 0) * candidates
                assert topo.node_ids[server] == node
                assert up == transfer_time(profile["upload_bytes"], path(topo, source, node))
                assert down == transfer_time(profile["download_bytes"], path(topo, node, source))
                assert service == service_time_us(length, nodes_by_id(topo)[node].capacity_mips)


    def test_each_distinct_payload_is_costed_once(self):
        cfg = resolve_config(None)
        topo = build_user_topology([0, 1], 1, 2, cfg["topology"])
        sizes = []
        cost = topo.transfer_to_cloud_us
        topo.transfer_to_cloud_us = lambda size: sizes.append(size) or cost(size)
        Placement(Policy.FOG_EDGE, topo, cfg["workload"]["profiles"])
        assert sorted(sizes) == [0, 500, 1000, 2000]  # of the ten upload and download sizes

    def test_region_tasks_go_round_robin_over_edges_in_id_order(self):
        # 24 owners over 12 edges: owner 2 goes to edge-0-0-10, which sorts before edge-0-0-2
        topology = {**resolve_config(None)["topology"], "edges_per_region": 12}
        topo = build_user_topology([0] * 24, 1, 1, topology)
        placement = Placement(Policy.FOG_EDGE, topo, resolve_config(None)["workload"]["profiles"])
        owners, zeros = np.arange(24), np.zeros(24, dtype=np.int64)
        for kind in REGION_KINDS:
            server, *_ = placement.apply(np.full(24, kind), owners, zeros, zeros)
            got = [topo.node_ids[s] for s in server.tolist()]
            assert got == [place(kind, Policy.FOG_EDGE, topo, region=0, owner=o) for o in owners]
            assert got[:4] == ["edge-0-0-0", "edge-0-0-1", "edge-0-0-10", "edge-0-0-11"]
            assert got[12:] == got[:12]


class TestTaskValidation:
    # A task's length and payloads are those of its kind's profile, which the config checks.
    def test_non_positive_length_rejected(self):
        with pytest.raises(ConfigError, match="length_mi"):
            resolve_config({"workload": {"profiles": {"spatial_navigation": {"length_mi": 0}}}})

    def test_negative_payload_rejected(self):
        with pytest.raises(ConfigError, match="upload_bytes"):
            resolve_config({"workload": {"profiles": {"spatial_navigation": {"upload_bytes": -1}}}})


def test_policy_parse_accepts_cli_spellings():
    assert Policy.parse("cloud") is Policy.CLOUD_ONLY
    assert Policy.parse("fogedge") is Policy.FOG_EDGE
    with pytest.raises(ConfigError):
        Policy.parse("mist")


class TestGeneration:
    def test_one_tick_emits_navigation_plus_collision(self):
        records = []
        cfg = {"workload": {"user_count": 1,
                            "message_rate_per_user_per_s": 0.0,
                            "tx_rate_per_user_per_s": 0.0},
               "experiment": {"horizon_ms": 1_000.0, "warmup_ms": 0.0}}
        r = run_scenario(cfg, "fogedge", 1, record_sink=records.append)
        gen = r.extras["generated_by_kind"]
        assert gen["spatial_navigation"] == 1
        assert gen["collision_detection"] == 1
        assert gen["social_interaction"] == 0

    def test_lone_avatar_collision_length_is_base_only(self):
        records = []
        cfg = {"workload": {"user_count": 1,
                            "message_rate_per_user_per_s": 0.0,
                            "tx_rate_per_user_per_s": 0.0},
               "experiment": {"horizon_ms": 5_000.0, "warmup_ms": 0.0}}
        run_scenario(cfg, "fogedge", 1, record_sink=records.append)
        colls = [r for r in records if r.kind == TaskKind.COLLISION_DETECTION]
        assert colls
        # base 20 MI on the 8000 MIPS fog, no per-neighbor term
        assert all(r.service_us == 2_500 for r in colls)

    def test_zero_message_rate_means_zero_social_tasks(self):
        r = run_scenario(small_cfg(message_rate_per_user_per_s=0.0), "fogedge", 2)
        assert r.extras["generated_by_kind"]["social_interaction"] == 0
        assert r.extras["messages_sent"] == 0

    def test_poisson_transaction_count_near_expectation(self):
        # 100 users x 0.01/s x 1000 s -> about 1000 submissions
        cfg = {
            "world": {"movement_tick_ms": 10_000.0},  # slow ticks, tx process unaffected
            "workload": {"user_count": 100, "message_rate_per_user_per_s": 0.0},
            "experiment": {"horizon_ms": 1_000_000.0, "warmup_ms": 0.0},
        }
        r = run_scenario(cfg, "fogedge", 11)
        assert abs(r.extras["tx_submitted"] - 1000) <= 100

    def test_single_user_cannot_trade(self):
        r = run_scenario({"workload": {"user_count": 1},
                          "experiment": {"horizon_ms": 10_000.0, "warmup_ms": 0.0}},
                         "fogedge", 1)
        assert r.extras["tx_submitted"] == 0

    def test_messages_skip_when_nobody_is_near(self):
        # two users in a big world: nearly always out of proximity range
        cfg = {"workload": {"user_count": 2, "tx_rate_per_user_per_s": 0.0,
                            "message_rate_per_user_per_s": 1.0},
               "experiment": {"horizon_ms": 60_000.0, "warmup_ms": 0.0}}
        r = run_scenario(cfg, "fogedge", 3)
        assert r.extras["messages_skipped_no_neighbor"] > 0


class TestPolicySeparation:
    def run_records(self, policy):
        records = []
        run_scenario(small_cfg(), policy, 7, record_sink=records.append)
        return records

    def test_cloud_only_never_touches_fog_or_edge(self):
        assert all(r.placed_on == "cloud" for r in self.run_records("cloud"))

    def test_fogedge_keeps_avatar_tasks_off_the_cloud(self):
        records = self.run_records("fogedge")
        by_kind = {}
        for r in records:
            by_kind.setdefault(TaskKind(r.kind), set()).add(r.placed_on.split("-")[0])
        assert by_kind[TaskKind.SPATIAL_NAVIGATION] == {"fog"}
        assert by_kind[TaskKind.COLLISION_DETECTION] == {"fog"}
        assert by_kind[TaskKind.UNIVERSE_SIMULATION] == {"cloud"}
        if TaskKind.SOCIAL_INTERACTION in by_kind:
            assert by_kind[TaskKind.SOCIAL_INTERACTION] == {"edge"}
        if TaskKind.TRANSACTION_VALIDATION in by_kind:
            assert by_kind[TaskKind.TRANSACTION_VALIDATION] == {"edge"}


class TestConservationAndDeterminism:
    def test_every_generated_task_is_recorded_or_in_flight(self):
        for policy in ("cloud", "fogedge"):
            r = run_scenario(small_cfg(), policy, 13)
            e = r.extras
            assert e["tasks_generated"] == e["records_emitted"] + e["in_flight_at_horizon"]

    def test_fixed_seed_gives_identical_task_transcript(self):
        a, b = [], []
        run_scenario(small_cfg(), "fogedge", 21, record_sink=a.append)
        run_scenario(small_cfg(), "fogedge", 21, record_sink=b.append)
        assert a == b

    def test_workload_transcript_is_policy_independent(self):
        # creation times and kinds match across policies; only placement differs
        a, b = [], []
        run_scenario(small_cfg(), "cloud", 21, record_sink=a.append)
        run_scenario(small_cfg(), "fogedge", 21, record_sink=b.append)
        gen_a = [(r.task_id, r.kind, r.owner, r.created_us) for r in sorted(a, key=lambda r: r.task_id)]
        gen_b = [(r.task_id, r.kind, r.owner, r.created_us) for r in sorted(b, key=lambda r: r.task_id)]
        common = min(len(gen_a), len(gen_b))
        # completion cutoffs differ per policy, so compare the shared prefix
        assert gen_a[:common // 2] == gen_b[:common // 2]
