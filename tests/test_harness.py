"""Config validation, aggregation, sweeps, emission round-trips, CLI."""

import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metafog import harness
from metafog.cli import main as cli_main
from metafog.config import _CHECKS, DEFAULTS, config_digest, load_config, resolve_config
from metafog.errors import ConfigError, ScenarioError
from metafog.harness import ScenarioRunner, TaskPipeline, run_scenario, sweep
from metafog.workload import Policy, TaskKind
from metafog.reporting import (
    CSV_HEADER,
    _ms_str_to_us,
    _us_to_ms_str,
    emit,
    parse_results_csv,
    plot_series,
    reduction_table,
    write_results_csv,
)
from metafog.stats import latency_reduction, percentile

SMALL = {
    "workload": {"user_count": 8},
    "experiment": {"horizon_ms": 15_000.0, "warmup_ms": 2_000.0,
                   "replications": 1, "user_count_sweep": [4, 8],
                   "tx_rate_sweep": [1, 5]},
}


class TestConfig:
    def test_defaults_resolve_clean(self):
        cfg = resolve_config(None)
        assert cfg == resolve_config({})
        assert cfg["topology"]["fog_mips"] == DEFAULTS["topology"]["fog_mips"]

    def test_unknown_key_is_named_in_the_error(self):
        with pytest.raises(ConfigError, match="workload.user_cuont"):
            resolve_config({"workload": {"user_cuont": 10}})

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="wrold"):
            resolve_config({"wrold": {}})

    def test_type_violation_names_key_and_constraint(self):
        with pytest.raises(ConfigError, match=r"workload.user_count.*integer >= 1"):
            resolve_config({"workload": {"user_count": 0}})
        with pytest.raises(ConfigError, match=r"bandwidth_mbps.*integer > 0"):
            resolve_config({"topology": {"links": {"device_fog": {"bandwidth_mbps": 0}}}})

    def test_warmup_beyond_horizon_rejected(self):
        with pytest.raises(ConfigError, match="warmup_ms"):
            resolve_config({"experiment": {"horizon_ms": 1_000.0}})

    def test_sweep_values_must_increase(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            resolve_config({"experiment": {"user_count_sweep": [100, 100]}})

    @pytest.mark.parametrize("key, value", [
        ("user_count_sweep", []),
        ("user_count_sweep", [100, 150.5]),
        ("user_count_sweep", (100, 200)),
        ("tx_rate_sweep", [2, 1]),
        ("tx_rate_sweep", [0, 1]),
        ("tx_rate_sweep", [1, math.inf]),
    ])
    def test_a_bad_sweep_list_is_named_with_its_constraint(self, key, value):
        kind = "integers" if key == "user_count_sweep" else "finite numbers"
        message = (f"config key 'experiment.{key}' = {value!r}: must be a non-empty, "
                   f"strictly increasing list of {kind} > 0")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            resolve_config({"experiment": {key: value}})

    def test_a_bad_sweep_list_is_named_before_the_cross_key_checks(self):
        with pytest.raises(ConfigError, match="^config key 'experiment.tx_rate_sweep'"):
            resolve_config({"experiment": {"horizon_ms": 1_000.0, "tx_rate_sweep": []}})

    @pytest.mark.parametrize("key", ["width", "height", "cell", "regions_x", "regions_y"])
    def test_a_zero_world_size_is_named(self, key):
        with pytest.raises(ConfigError, match=f"^config key 'world.{key}' = 0: must be "):
            resolve_config({"world": {key: 0}})

    def test_one_check_per_leaf_name(self):
        assert set(_CHECKS) == {path.rsplit(".", 1)[-1] for path in _leaf_paths(DEFAULTS)}

    def test_digest_is_stable_and_sensitive(self):
        a = config_digest(resolve_config(None))
        b = config_digest(resolve_config(None))
        c = config_digest(resolve_config({"workload": {"user_count": 7}}))
        assert a == b != c

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(SMALL))
        assert load_config(path) == resolve_config(SMALL)

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    @pytest.mark.parametrize("overrides, message", [
        ({"world": 3}, "config key 'world' must be a section (object)"),
        ({"topology": {"links": {"fog_edge": 5.0}}},
         "config key 'topology.links.fog_edge' must be a section (object)"),
        ({"world": {"width": {}}}, "config key 'world.width' must be a value, not a section"),
        ({"experiment": {"user_count_sweep": {"a": 1}}},
         "config key 'experiment.user_count_sweep' must be a value, not a section"),
        ([1], "config root must be an object"),
        ({"topology": {"links": {"fog_cloud": {}}}},
         "unknown config key 'topology.links.fog_cloud'"),
        ({"workload": {"profiles": {"teleport": {"length_mi": 5}}}},
         "unknown config key 'workload.profiles.teleport'"),
        ({"workload": {"profiles": {"social_interaction": {"period_ms": 5.0}}}},
         "unknown config key 'workload.profiles.social_interaction.period_ms'"),
    ])
    def test_each_structural_fault_has_its_message(self, overrides, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            resolve_config(overrides)

    @pytest.mark.parametrize("text", ["[]", "0", "false", '""', "null", "[1]", "3.5"])
    def test_a_config_root_that_is_not_an_object_is_refused(self, text, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match="root must be an object"):
            load_config(path)
        if text != "null":  # resolve_config(None) selects every default
            with pytest.raises(ConfigError, match="^config root must be an object$"):
                resolve_config(json.loads(text))
        assert cli_main(["run", "--config", str(path), "--policy", "cloud", "--seed", "1",
                         "--out", str(tmp_path / "x")]) == 2
        assert "root must be an object" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_a_resolved_config_is_fresh(self):
        def containers(tree) -> set:
            if isinstance(tree, dict):
                return {id(tree)}.union(*(containers(v) for v in tree.values()))
            return {id(tree)} if isinstance(tree, list) else set()

        defaults, digest = json.dumps(DEFAULTS), config_digest(resolve_config(None))
        given = {"workload": {"user_count": 7}, "experiment": {"tx_rate_sweep": [1, 2]}}
        cfg = resolve_config(given)
        cfg["world"]["width"] = 300.0  # a section the caller left alone
        cfg["experiment"]["user_count_sweep"].append(2000)
        cfg["experiment"]["tx_rate_sweep"].append(3)
        assert json.dumps(DEFAULTS) == defaults
        assert given == {"workload": {"user_count": 7}, "experiment": {"tx_rate_sweep": [1, 2]}}
        again = resolve_config(None)
        assert again["world"]["width"] == 1000.0
        assert 2000 not in again["experiment"]["user_count_sweep"]
        assert config_digest(again) == digest
        trees = (DEFAULTS, given, cfg, again, resolve_config(None))
        assert sum(len(containers(t)) for t in trees) == len(set().union(*map(containers, trees)))


def _leaf_paths(section: dict, prefix: str = "") -> list[str]:
    paths = []
    for key, value in section.items():
        here = f"{prefix}{key}"
        paths += _leaf_paths(value, here + ".") if isinstance(value, dict) else [here]
    return paths


def _nest(path: str, value) -> dict:
    for key in reversed(path.split(".")):
        value = {key: value}
    return value


# Bad for every leaf: each leaf is a number, an integer or a list of numbers,
# and each must be >= 0.
ALWAYS_BAD = st.sampled_from([None, "1", True, False, {}, {"length_mi": 5}, math.inf,
                              -math.inf, math.nan, -1, -0.5, [], [math.inf], ["1"], [0]])
# Bad for some leaves only.
MAYBE_BAD = st.sampled_from([0, 0.0, 0.5, 1e-320, 1e308, 10**400, 2**64, [1, 2], [2, 1],
                             [1e-320], [0.5, 10**400]])
# Finite, but too large for every time, payload, length, capacity, world side
# and count: their microseconds, bits, instructions, hash cells or set-up
# lists would not fit.
HUGE = st.sampled_from([1e300, 10**30, 2**53 + 1])


def _bounded(path: str) -> bool:
    leaf = path.rsplit(".", 1)[-1]
    return leaf.endswith(("_ms", "_bytes", "_mi", "_mips", "_mbps")) or \
        path in ("world.width", "world.height", "world.regions_x", "world.regions_y",
                 "topology.edges_per_region", "workload.user_count")


class TestConfigLeaves:
    @settings(max_examples=400, deadline=None)
    @given(path=st.sampled_from(_leaf_paths(DEFAULTS)), bad=ALWAYS_BAD, maybe=MAYBE_BAD,
           huge=HUGE, pick=st.sampled_from(["always", "maybe", "huge"]))
    def test_every_bad_leaf_is_a_config_error_that_names_it(self, path, bad, maybe, huge, pick):
        value = {"always": bad, "maybe": maybe, "huge": huge}[pick]
        refused = pick == "always" or (pick == "huge" and _bounded(path))
        try:
            resolve_config(_nest(path, value))
        except ConfigError as exc:
            assert path in str(exc)
        else:
            assert not refused, f"{path} = {value!r} accepted"

    @pytest.mark.parametrize("path, value", [
        ("experiment.horizon_ms", math.inf),
        ("world.width", math.inf),
        ("world.avatar_speed", math.inf),
        ("world.cell", math.nan),
        ("topology.links.edge_cloud.propagation_ms", math.inf),
        ("workload.message_rate_per_user_per_s", 1e-320),
        ("workload.tx_rate_per_user_per_s", 1e-302),
        ("world.height", 10**400),
        ("topology.links.edge_cloud.propagation_ms", 1e300),
        ("workload.profiles.spatial_navigation.upload_bytes", 10**30),
        ("workload.profiles.transaction_validation.length_mi", 10**30),
        ("world.width", 1e300),
    ])
    def test_non_finite_and_overflowing_values_are_refused(self, path, value):
        with pytest.raises(ConfigError, match=path):
            resolve_config(_nest(path, value))

    @pytest.mark.parametrize("path, largest", [
        ("experiment.horizon_ms", 2**53 // 1000),  # whole milliseconds of at most 2^53 us
        ("topology.links.fog_edge.propagation_ms", 2**53 // 1000),
        ("workload.profiles.social_interaction.download_bytes", 2**50),
        ("workload.profiles.collision_detection.per_neighbor_mi", 2**53 // 10**6),
        ("topology.cloud_mips", 2**53),
        ("workload.user_count", 2**20),
        ("world.regions_x", 2**20 // 10),  # times the default 10 regions_y
        ("topology.edges_per_region", 2**20 // 100),  # times the default 10 x 10 regions
    ])
    def test_int64_bounds_are_inclusive(self, path, largest):
        resolve_config(_nest(path, largest))
        with pytest.raises(ConfigError, match=path):
            resolve_config(_nest(path, largest + 1))

    def test_hash_grid_holds_at_most_2_to_the_20_cells(self):
        # 1024 x 1024 cells of the default 40-unit cell; World is not built
        resolve_config({"world": {"width": 40.0 * 1024, "height": 40.0 * 1024}})
        with pytest.raises(ConfigError, match="world.height"):
            resolve_config({"world": {"width": 40.0 * 1024, "height": 40.0 * 1024 + 1}})
        with pytest.raises(ConfigError, match="world.cell"):
            resolve_config({"world": {"cell": 1e-3, "proximity_radius": 1e-3}})

    def test_the_smallest_rates_with_finite_gaps_are_accepted(self):
        resolve_config({"workload": {"tx_rate_per_user_per_s": 1e-300,
                                     "message_rate_per_user_per_s": 0}})


class TestPercentile:
    def test_nearest_rank_examples(self):
        assert percentile([10, 20, 30, 40], 50) == 20
        assert percentile([10, 20, 30, 40], 100) == 40
        assert percentile([10, 20, 30, 40], 95) == 40
        assert percentile([7], 1) == 7
        assert percentile([7], 99) == 7

    def test_empty_set_is_an_error(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_bounds_hold_on_random_samples(self):
        rng = random.Random(0)
        for _ in range(200):
            values = sorted(rng.randrange(10_000) for _ in range(rng.randrange(1, 50)))
            p50, p95, p99 = (percentile(values, p) for p in (50, 95, 99))
            assert values[0] <= p50 <= p95 <= p99 <= values[-1]

    @given(values=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=300),
           quarters=st.integers(0, 400))
    def test_matches_a_nearest_rank_oracle(self, values, quarters):
        # p in quarter percents is exact in binary, so the oracle can be exact too
        p = quarters / 4
        ordered = sorted(values)
        rank = max(1, math.ceil(Fraction(quarters, 400) * len(ordered)))
        assert percentile(ordered, p) == ordered[rank - 1]


class TestLatencyReduction:
    def test_headline_example(self):
        assert latency_reduction(200.0, 100.0) == 0.5

    def test_equal_means_give_zero(self):
        assert latency_reduction(123.4, 123.4) == 0.0

    def test_negative_reduction_is_representable(self):
        assert latency_reduction(100.0, 150.0) == -0.5

    def test_non_positive_cloud_mean_rejected(self):
        with pytest.raises(ValueError):
            latency_reduction(0.0, 10.0)

    def test_reduction_identity(self):
        rng = random.Random(1)
        for _ in range(100):
            c = rng.uniform(0.1, 1000.0)
            f = rng.uniform(0.0, 1000.0)
            assert latency_reduction(c, f) == pytest.approx(1 - f / c)


class TestRunScenario:
    def test_same_seed_twice_is_byte_identical(self):
        from dataclasses import asdict
        a = run_scenario(SMALL, "fogedge", 42)
        b = run_scenario(SMALL, "fogedge", 42)
        assert json.dumps(asdict(a), sort_keys=True) == json.dumps(asdict(b), sort_keys=True)

    @pytest.mark.parametrize("seed", [-1, True, 1.0, "1"])
    def test_a_seed_that_is_not_an_integer_at_least_0_is_refused(self, seed):
        with pytest.raises(ConfigError, match=f"^seed = {re.escape(repr(seed))}: must be an "
                                              "integer >= 0$"):
            run_scenario(SMALL, "cloud", seed)

    def test_zero_horizon_yields_empty_result(self):
        cfg = {"workload": {"user_count": 5},
               "experiment": {"horizon_ms": 0.0, "warmup_ms": 0.0}}
        r = run_scenario(cfg, "cloud", 1)
        assert r.stats["overall"].count == 0
        assert r.extras["tasks_generated"] == 0
        assert r.extras["records_emitted"] == 0

    def test_stats_cover_overall_plus_every_kind(self):
        r = run_scenario(SMALL, "fogedge", 3)
        assert set(r.stats) == {"overall", "spatial_navigation", "collision_detection",
                                "social_interaction", "transaction_validation",
                                "universe_simulation"}
        total = sum(s.count for k, s in r.stats.items() if k != "overall")
        assert total == r.stats["overall"].count

    @pytest.mark.parametrize("policy", ["cloud", "fogedge"])
    @pytest.mark.parametrize("changes", [
        {"workload.profiles.universe_simulation.upload_bytes": 10**6,
         "workload.profiles.universe_simulation.download_bytes": 10**6},
        {"topology.device_mips": 20_000},
    ], ids=["universe-bytes", "device-mips"])
    def test_keys_no_task_uses_change_no_output_but_the_digest(self, policy, changes):
        # Universe tasks start and run at the cloud, so their payloads cross
        # no link; and no task is served on a device.
        base = {"workload": {"user_count": 8, "tx_rate_per_user_per_s": 0.5},
                "ledger": {"batch_size": 3},
                "experiment": {"horizon_ms": 15_000.0, "warmup_ms": 2_000.0}}
        changed = json.loads(json.dumps(base))
        for path, value in changes.items():
            *sections, key = path.split(".")
            node = changed
            for section in sections:
                node = node.setdefault(section, {})
            node[key] = value
        (a, a_records), (b, b_records) = [
            (run_scenario(cfg, policy, 5, record_sink=records.append), records)
            for cfg, records in ((base, []), (changed, []))]
        universe = [r for r in b_records if r.kind == TaskKind.UNIVERSE_SIMULATION]
        assert universe and all(r.uplink_us == r.downlink_us == 0 for r in universe)
        assert a.chain and b.chain == a.chain
        assert (b.stats, b.extras, b_records) == (a.stats, a.extras, a_records)
        assert b.config_digest != a.config_digest

    def test_a_run_loads_no_process_pool(self):
        # Only a parallel sweep needs the pool; importing it costs every run about 2 MB.
        script = ("import sys, metafog; "
                  f"metafog.run_scenario({SMALL!r}, 'fogedge', 1); "
                  "print(sorted(m for m in sys.modules "
                  "if m.startswith(('concurrent', 'multiprocessing'))))")
        src = str(Path(harness.__file__).parents[1])
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"

    def test_collect_twice_agrees_and_leaves_the_latency_parts_as_they_were(self):
        runner = ScenarioRunner(resolve_config(SMALL), PAIR, 3)
        runner.run()
        totals = runner.pipeline.totals

        def snapshot():
            return [[(part.dtype, part.tobytes()) for part in kind] for kind in totals]

        before = snapshot()
        # emission order is not sorted order, so a part sorted in place would show
        assert any(np.any(np.diff(part) < 0) for kind in totals for part in kind)
        first = runner.collect("s", "user_count", 8, 0)
        assert runner.collect("s", "user_count", 8, 0) == first
        assert snapshot() == before


_TASK = st.tuples(
    st.integers(0, 4_000),  # created
    st.integers(0, 3),  # server
    st.integers(0, 500),  # uplink
    st.integers(1, 1_500),  # service
    st.integers(0, 500),  # downlink
    st.booleans(),  # a transaction-validation task
)


class _GivenPlacement:
    """Places task i, submitted with region i, on the server and times listed for it."""

    policy = Policy.CLOUD_ONLY
    node_ids = ["n0", "n1", "n2", "n3"]

    def __init__(self, tasks):
        self.tasks = tasks

    def apply(self, kind, owner, region, candidates):
        given = np.array([self.tasks[i][1:5] for i in region.tolist()], dtype=np.int64)
        return tuple(given.reshape(-1, 4).T)


def _appender(validated: list):
    """An on_validated that appends each (finish, task id) to the list."""
    return lambda finish, task_id: validated.append((finish, task_id))


class TestResolve:
    @settings(max_examples=150, deadline=None)
    @given(tasks=st.lists(_TASK, max_size=50), cuts=st.lists(st.integers(0, 6_000), max_size=5))
    def test_windowed_resolve_matches_a_per_task_replay(self, tasks, cuts):
        self.check_against_replay(tasks, cuts)

    @settings(max_examples=150, deadline=None)
    @given(tasks=st.lists(_TASK, max_size=50), cuts=st.lists(st.integers(0, 6_000), max_size=5))
    def test_validations_without_a_record_sink_match_the_replay(self, tasks, cuts):
        # Without a sink, _emit puts only the validation rows in finish order.
        self.check_against_replay(tasks, cuts, sink=False)

    @staticmethod
    def check_against_replay(tasks, cuts, sink=True):
        tasks = sorted(tasks)  # submitted as generated: in creation order
        records, validated = [], []
        pipeline = TaskPipeline(_GivenPlacement(tasks), _appender(validated),
                                record_sink=records.append if sink else None)
        # a peer takes in the same submissions from the pipeline's buffer
        peer_records, peer_validated = [], []
        peer = TaskPipeline(_GivenPlacement(tasks), _appender(peer_validated),
                            record_sink=peer_records.append if sink else None)
        pipeline.peers = [peer]
        submitted = 0
        for cut in sorted(cuts) + [6_000]:
            while submitted < len(tasks) and tasks[submitted][0] <= cut:
                created, *_, validation = tasks[submitted]
                # the region is the task's index
                kind = (TaskKind.TRANSACTION_VALIDATION if validation
                        else TaskKind.SPATIAL_NAVIGATION)
                pipeline.submit(kind, 7, created, submitted)
                submitted += 1
            pipeline.resolve(cut)
        # replay: FIFO per server in (arrival, submit index) order, one task at a time
        busy = [0] * 4
        finished = []
        for i in sorted(range(len(tasks)), key=lambda i: (tasks[i][0] + tasks[i][2], i)):
            created, server, up, service, down, _ = tasks[i]
            arrival = created + up
            busy[server] = max(arrival, busy[server]) + service
            finished.append((busy[server] + down, busy[server], arrival, i))
        finished = sorted(f for f in finished if f[0] <= 6_000)
        for p, p_records, p_validated in ((pipeline, records, validated),
                                          (peer, peer_records, peer_validated)):
            assert [(r.task_id, r.wait_us, r.total_us) for r in p_records] == [
                (i, done - tasks[i][3] - arrival, finish - tasks[i][0])
                for finish, done, arrival, i in finished if sink]
            assert p_validated == [(finish, i) for finish, _, _, i in finished if tasks[i][5]]
            assert p.in_flight() == p.unfinished() == len(tasks) - len(finished)

    def test_a_held_task_goes_before_a_later_task_that_arrives_with_it(self):
        # Task 0 is still in its uplink at the first cutoff; task 1 is
        # submitted in the next window. Both reach server 0 at 1100.
        tasks = [(900, 0, 200, 100, 10, False), (1050, 0, 50, 100, 10, False)]
        records = []
        pipeline = TaskPipeline(_GivenPlacement(tasks), _appender([]), record_sink=records.append)
        pipeline.submit(TaskKind.SPATIAL_NAVIGATION, 7, 900, 0)
        pipeline.resolve(999)
        assert pipeline.unfinished() == 1 and not records
        pipeline.submit(TaskKind.SPATIAL_NAVIGATION, 7, 1050, 1)
        pipeline.resolve(2_000)
        assert [(r.task_id, r.wait_us, r.total_us) for r in records] == [(0, 0, 310), (1, 100, 260)]

    def test_a_window_with_nothing_to_serve_changes_nothing(self):
        records, validated = [], []
        pipeline = TaskPipeline(_GivenPlacement([(100, 1, 500, 50, 5, True)]),
                                _appender(validated), record_sink=records.append)

        def state():
            return (pipeline.tasks_generated, pipeline.generated[:], pipeline.completed[:],
                    pipeline.records_emitted, pipeline.busy_until.tolist(),
                    pipeline.in_flight(), pipeline.unfinished(), records[:], validated[:])

        fresh = state()
        pipeline.resolve(99)  # no submissions
        assert state() == fresh
        pipeline.submit(TaskKind.TRANSACTION_VALIDATION, 7, 100, 0)
        pipeline.resolve(599)  # the task reaches its server at 600
        taken = (1, [0, 0, 0, 1, 0], [0] * 5, 0, [0] * 4, 1, 1, [], [])
        assert state() == taken
        pipeline.resolve(599)  # nothing new, the task still in its uplink
        assert state() == taken
        pipeline.resolve(1_000)
        assert [(r.task_id, r.wait_us, r.total_us) for r in records] == [(0, 0, 555)]
        assert validated == [(655, 0)]
        assert pipeline.in_flight() == pipeline.unfinished() == 0

    @staticmethod
    def submit(pipeline, tasks, indexes):
        """Submit the listed tasks, each with its index as its region."""
        for i in indexes:
            validation = tasks[i][5]
            pipeline.submit(TaskKind.TRANSACTION_VALIDATION if validation
                            else TaskKind.SPATIAL_NAVIGATION, 7, tasks[i][0], i)

    def test_a_task_that_finishes_at_the_cutoff_is_emitted_by_that_pass(self):
        # One run, finishing at 350, 550 and 750 on three servers.
        tasks = [(0, 0, 100, 200, 50, False), (0, 1, 100, 400, 50, True),
                 (0, 2, 100, 600, 50, False)]
        records, validated = [], []
        pipeline = TaskPipeline(_GivenPlacement(tasks), _appender(validated),
                                record_sink=records.append)
        self.submit(pipeline, tasks, range(3))
        pipeline.resolve(550)
        assert [(r.task_id, r.total_us) for r in records] == [(0, 350), (1, 550)]
        assert validated == [(550, 1)]
        assert pipeline.in_flight() == pipeline.unfinished() == 1

    def test_a_pass_emits_from_two_runs_and_keeps_one_runs_suffix(self):
        # The first pass serves tasks 0 and 1, finishing at 1600 and 2500, and
        # emits neither; the second serves tasks 2 and 3, finishing at 1500
        # and 1800, and emits them with task 0, in finish order across runs.
        tasks = [(0, 0, 100, 1_400, 100, False), (0, 1, 100, 2_300, 100, True),
                 (1_000, 2, 100, 300, 100, True), (1_000, 3, 100, 600, 100, False)]
        records, validated = [], []
        pipeline = TaskPipeline(_GivenPlacement(tasks), _appender(validated),
                                record_sink=records.append)
        self.submit(pipeline, tasks, (0, 1))
        pipeline.resolve(999)
        assert not records and pipeline.unfinished() == 2
        self.submit(pipeline, tasks, (2, 3))
        pipeline.resolve(2_000)
        assert [(r.task_id, r.total_us) for r in records] == [(2, 500), (0, 1_600), (3, 800)]
        assert validated == [(1_500, 2)]
        assert pipeline.in_flight() == pipeline.unfinished() == 1
        pipeline.resolve(3_000)
        assert [r.task_id for r in records] == [2, 0, 3, 1]
        assert validated == [(1_500, 2), (2_500, 1)]
        assert pipeline.in_flight() == pipeline.unfinished() == 0


class TestSweep:
    def test_cardinality_and_ordering(self):
        results = sweep(SMALL, "user_count", values=[4, 8], replications=1)
        assert len(results) == 4  # 2 values x 2 policies x 1 rep
        keys = [(r.value, r.policy, r.replication) for r in results]
        assert keys == sorted(keys)

    def test_replication_seeds_offset_from_base(self):
        results = sweep(SMALL, "user_count", values=[4], replications=2)
        seeds = {(r.replication, r.seed) for r in results}
        base = resolve_config(SMALL)["experiment"]["base_seed"]
        assert seeds == {(0, base), (1, base + 1)}

    def test_tx_rate_sweep_scales_per_user_rate(self):
        results = sweep(SMALL, "tx_rate", values=[4], replications=1)
        # 8 users, aggregate 4/s -> 0.5/s each; do not assert exact counts,
        # just that transactions flowed at all on this short horizon
        assert all(r.extras["tx_submitted"] > 0 for r in results)

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError, match="sweep parameter"):
            sweep(SMALL, "bandwidth")

    def test_serial_and_parallel_runs_are_identical(self, tmp_path):
        cfg = resolve_config(SMALL)
        serial = sweep(SMALL, "user_count", replications=2)
        parallel = sweep(SMALL, "user_count", replications=2, parallel=True, max_workers=2)
        dir_a, dir_b = tmp_path / "serial", tmp_path / "parallel"
        emit(serial, dir_a, cfg, param="user_count")
        emit(parallel, dir_b, cfg, param="user_count")
        for name in ("results.csv", "fig_latency_vs_users.dat", "run_metadata.json"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    @pytest.mark.parametrize("param, values", [("user_count", [4, 8, 4]),
                                               ("tx_rate", [2, 2.0])])
    def test_a_repeated_value_is_refused_before_any_scenario_runs(self, param, values,
                                                                  monkeypatch):
        monkeypatch.setattr(ScenarioRunner, "run", None)  # any run would raise TypeError
        with pytest.raises(ConfigError, match="^sweep values: [42] is given more than once$"):
            sweep(SMALL, param, values, replications=1)

    @pytest.mark.parametrize("param, values, message, replications", [
        ("user_count", [4, 2.5], "values: user_count 2.5 is not an integer", 1),
        ("tx_rate", [1, 0], "values: tx_rate 0 is not > 0", 1),
        ("tx_rate", [float("nan")], "values: tx_rate nan is not > 0", 1),
        ("user_count", [], "values: none given", 1),
        ("user_count", [4], r"replications = 1\.5: must be integer >= 1", 1.5),
        ("user_count", [4], "replications = True: must be integer >= 1", True),
        ("user_count", [4], "replications = 0: must be integer >= 1", 0),
    ])
    def test_a_value_its_parameter_cannot_take_is_refused_before_any_scenario_runs(
            self, param, values, message, replications, monkeypatch):
        monkeypatch.setattr(ScenarioRunner, "run", None)  # any run would raise TypeError
        with pytest.raises(ConfigError, match=f"^sweep {message}$"):
            sweep(SMALL, param, values, replications=replications)

    @pytest.mark.parametrize("parallel", [False, True])
    def test_a_failing_scenario_is_named_and_stays_a_config_error(self, parallel):
        # user_count 0 is refused by the config check inside the worker
        with pytest.raises(ConfigError, match=r"user_count=0 rep0 \(seed 42\): .*user_count"):
            sweep(SMALL, "user_count", values=[4, 0], replications=2, parallel=parallel,
                  max_workers=2)

    def test_an_exception_inside_a_scenario_is_named(self, monkeypatch):
        run = ScenarioRunner.run

        def broken(runner):
            if runner.seed == 43:
                raise ZeroDivisionError("boom")
            run(runner)

        monkeypatch.setattr(ScenarioRunner, "run", broken)
        with pytest.raises(ScenarioError,
                           match=r"user_count=4 rep1 \(seed 43\) failed: ZeroDivisionError: boom"):
            sweep(SMALL, "user_count", values=[4], replications=2)


PAIR = (Policy.CLOUD_ONLY, Policy.FOG_EDGE)


class TestPairedPolicies:
    """One generation resolved under both policies equals a one-policy run of each."""

    @settings(max_examples=25, deadline=None)
    @given(users=st.integers(1, 60), regions=st.integers(1, 3), edges=st.integers(1, 3),
           messages=st.sampled_from([0.0, 0.3, 1.0]), txs=st.sampled_from([0.0, 0.2, 1.0]),
           batch=st.integers(1, 4), horizon_s=st.integers(1, 6), seed=st.integers(0, 1_000))
    def test_two_policy_run_matches_one_policy_runs(self, users, regions, edges, messages,
                                                    txs, batch, horizon_s, seed):
        cfg = resolve_config({
            "world": {"width": 150.0, "height": 150.0, "regions_x": regions,
                      "regions_y": regions + 1},
            "topology": {"edges_per_region": edges},
            "workload": {"user_count": users, "message_rate_per_user_per_s": messages,
                         "tx_rate_per_user_per_s": txs},
            "ledger": {"batch_size": batch},
            "experiment": {"horizon_ms": 1_000.0 * horizon_s, "warmup_ms": 250.0 * horizon_s},
        })
        paired = []
        both = ScenarioRunner(cfg, PAIR, seed, record_sink=paired.append)
        both.run()
        for policy in PAIR:
            records = []
            alone = ScenarioRunner(cfg, policy, seed, record_sink=records.append)
            alone.run()
            assert both.collect("s", "user_count", users, 0, policy) == \
                alone.collect("s", "user_count", users, 0)
            assert [r for r in paired if r.policy == policy.value] == records
            assert both.chains[policy].export_lines() == alone.chain.export_lines()


class TestResolveCadence:
    """The outputs do not depend on how many windows a resolve pass spans."""

    @settings(max_examples=25, deadline=None)
    @given(users=st.integers(1, 300), messages=st.sampled_from([0.0, 0.3, 1.0]),
           txs=st.sampled_from([0.0, 0.2, 1.0]), batch=st.integers(1, 4),
           horizon_s=st.integers(1, 10), rows=st.integers(1, 600), seed=st.integers(0, 1_000))
    def test_every_window_the_default_a_drawn_threshold_and_one_pass_agree(
            self, users, messages, txs, batch, horizon_s, rows, seed):
        cfg = resolve_config({
            "world": {"width": 150.0, "height": 150.0, "regions_x": 2, "regions_y": 2},
            "workload": {"user_count": users, "message_rate_per_user_per_s": messages,
                         "tx_rate_per_user_per_s": txs},
            "ledger": {"batch_size": batch},
            "experiment": {"horizon_ms": 1_000.0 * horizon_s, "warmup_ms": 250.0 * horizon_s},
        })
        horizon_us = 1_000_000 * horizon_s
        resolve = TaskPipeline.resolve

        def run(threshold):
            records, cutoffs = [], []

            def counted(pipeline, cutoff_us):
                cutoffs.append(cutoff_us)
                resolve(pipeline, cutoff_us)

            runner = ScenarioRunner(cfg, PAIR, seed, record_sink=records.append)
            with patch.object(harness, "RESOLVE_ROWS", threshold), \
                    patch.object(TaskPipeline, "resolve", counted):
                runner.run()
            # The policies share the sink, and a pass hands it one policy's records,
            # then the other's: only each policy's sequence is an output.
            outputs = [(runner.collect("s", "user_count", users, 0, policy),
                        runner.chains[policy].export_lines(),
                        [r for r in records if r.policy == policy.value]) for policy in PAIR]
            return outputs, cutoffs, runner.pipeline.tasks_generated

        every_window, cutoffs, submitted = run(0)
        assert cutoffs == [*range(999_999, horizon_us, 1_000_000), horizon_us]
        once, cutoffs, _ = run(submitted + 1)
        assert cutoffs == [horizon_us]
        assert once == every_window
        assert run(harness.RESOLVE_ROWS)[0] == every_window
        assert run(rows)[0] == every_window


class TestEmission:
    @pytest.fixture()
    def results(self):
        return sweep(SMALL, "user_count", values=[4, 8], replications=1)

    def test_csv_row_count_and_header(self, results, tmp_path):
        path = tmp_path / "results.csv"
        write_results_csv(results, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(results) * 6  # overall + five kinds per scenario

    def test_csv_round_trip_is_lossless(self, results, tmp_path):
        path = tmp_path / "results.csv"
        write_results_csv(results, path)
        parsed = {r.scenario_id: r for r in parse_results_csv(path)}
        assert len(parsed) == len(results)
        for r in results:
            p = parsed[r.scenario_id]
            assert (p.policy, p.param, p.value, p.replication, p.seed, p.config_digest) == \
                   (r.policy, r.param, r.value, r.replication, r.seed, r.config_digest)
            assert p.stats == r.stats

    @staticmethod
    def written(results, path):
        """results.csv of the results, split into rows of fields; the header is rows[0]."""
        write_results_csv(results, path)
        return [line.split(",") for line in path.read_text().splitlines()]

    def test_a_kind_given_twice_for_a_scenario_is_refused(self, results, tmp_path):
        # a second (scenario, overall) row would replace the first one's stats
        path = tmp_path / "results.csv"
        rows = self.written(results, path)
        again = [*rows[1][:7], "999.000", *rows[1][8:]]
        path.write_text("".join(",".join(row) + "\n" for row in [*rows, again]))
        with pytest.raises(ConfigError, match="^" + re.escape(
                f"{path}: row {len(rows) + 1}, column 'kind': 'overall' given twice")):
            parse_results_csv(path)

    @pytest.mark.parametrize("column, text", [
        ("policy", "other"), ("param", "other"), ("value", "5"), ("replication", "1"),
        ("seed", "7"), ("config_digest", "other")])
    def test_a_row_that_disagrees_with_its_scenario_is_refused(self, results, tmp_path,
                                                               column, text):
        path = tmp_path / "results.csv"
        rows = self.written(results, path)
        assert rows[2][0] == rows[1][0]  # the first scenario's second kind
        rows[2][rows[0].index(column)] = text
        path.write_text("".join(",".join(row) + "\n" for row in rows))
        with pytest.raises(ConfigError, match="^" + re.escape(
                f"{path}: row 3, column {column!r}: {text!r} differs from the scenario's "
                "first row")):
            parse_results_csv(path)

    @pytest.mark.parametrize("edit, problem", [
        ({"count": "-5"}, "column 'count': '-5' is not an integer >= 0"),
        ({"count": "2.0"}, "column 'count': '2.0' is not an integer >= 0"),
        ({"count": "+2"}, "column 'count': '+2' is not an integer >= 0"),
        ({"count": ""}, "column 'count': '' is not an integer >= 0"),
        ({"count": "0"}, "column 'mean_ms': '{mean_ms}' disagrees with count 0"),
        ({"count": "0", "mean_ms": "", "p50_ms": "", "p95_ms": ""},
         "column 'p99_ms': '{p99_ms}' disagrees with count 0"),
        ({"p95_ms": ""}, "column 'p95_ms': '' disagrees with count {count}"),
        ({"mean_ms": "", "p50_ms": "", "p95_ms": "", "p99_ms": ""},
         "column 'mean_ms': '' disagrees with count {count}"),
    ], ids=["negative", "float", "signed", "empty", "zero-with-latencies", "zero-with-p99",
            "p95-missing", "latencies-missing"])
    def test_a_count_its_latencies_disagree_with_is_refused(self, results, tmp_path, edit,
                                                             problem):
        path = tmp_path / "results.csv"
        rows = self.written(results, path)
        first = dict(zip(rows[0], rows[1]))
        assert first["kind"] == "overall" and int(first["count"]) > 0
        for column, text in edit.items():
            rows[1][rows[0].index(column)] = text
        path.write_text("".join(",".join(row) + "\n" for row in rows))
        with pytest.raises(ConfigError, match="^" + re.escape(
                f"{path}: row 2, {problem.format(**first)}") + "$"):
            parse_results_csv(path)

    def test_a_kind_with_no_records_round_trips_with_empty_latencies(self, results, tmp_path):
        path = tmp_path / "results.csv"
        rows = self.written(results, path)
        rows[1][6:11] = ["0", "", "", "", ""]
        path.write_text("".join(",".join(row) + "\n" for row in rows))
        parsed = parse_results_csv(path)
        assert parsed[0].scenario_id == rows[1][0]
        assert parsed[0].stats["overall"] == (0, None, None, None, None)

    def test_rerun_emits_byte_identical_files(self, results, tmp_path):
        cfg = resolve_config(SMALL)
        emit(results, tmp_path / "a", cfg, param="user_count")
        emit(results, tmp_path / "b", cfg, param="user_count")
        for name in ("results.csv", "fig_latency_vs_users.dat", "run_metadata.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_plot_series_has_one_row_per_value(self, results):
        rows = plot_series(results, "user_count")
        assert [row[0] for row in rows] == [4, 8]
        assert all(len(row) == 3 for row in rows)

    def test_metadata_records_resolved_config(self, results, tmp_path):
        cfg = resolve_config(SMALL)
        emit(results, tmp_path, cfg, param="user_count")
        meta = json.loads((tmp_path / "run_metadata.json").read_text())
        assert meta["config"] == cfg
        assert len(meta["scenarios"]) == len(results)
        assert all("in_flight_at_horizon" in s for s in meta["scenarios"])

    def test_reduction_table_lists_each_value(self, results):
        table = reduction_table(results)
        assert "4" in table and "8" in table and "%" in table

    def test_chain_txt_is_written_for_exactly_one_result(self, tmp_path):
        cfg = resolve_config(SMALL)
        one, other = run_scenario(cfg, "fogedge", 3), run_scenario(cfg, "cloud", 3)
        assert one.chain
        single = emit([one], tmp_path / "one", cfg)
        assert [p.name for p in single] == ["results.csv", "run_metadata.json", "chain.txt"]
        assert single[-1].read_text() == "".join(line + "\n" for line in one.chain)
        emit([one, other], tmp_path / "two", cfg)
        assert not (tmp_path / "two" / "chain.txt").exists()

    def test_a_collected_result_writes_no_chain_txt(self, tmp_path):
        cfg = resolve_config(SMALL)
        runner = ScenarioRunner(cfg, Policy.FOG_EDGE, 3)
        runner.run()
        assert runner.chain.blocks
        result = runner.collect("collected", "none", 8, 0)
        assert result.chain is None
        written = emit([result], tmp_path, cfg)
        assert [p.name for p in written] == ["results.csv", "run_metadata.json"]
        assert not (tmp_path / "chain.txt").exists()

    def test_a_run_without_transactions_writes_an_empty_chain_txt(self, tmp_path):
        cfg = resolve_config({**SMALL, "workload": {"user_count": 8,
                                                    "tx_rate_per_user_per_s": 0}})
        result = run_scenario(cfg, "fogedge", 3)
        assert result.chain == []
        written = emit([result], tmp_path, cfg)
        assert written[-1] == tmp_path / "chain.txt"
        assert written[-1].read_bytes() == b""

    @pytest.mark.parametrize("text, us", [
        ("1.500", 1500), ("-1.500", -1500), ("-0.001", -1), ("0.000", 0), ("12.034", 12034),
        ("", None)])
    def test_ms_strings_parse_exactly(self, text, us):
        assert _ms_str_to_us(text) == us
        assert _us_to_ms_str(us) == text

    @pytest.mark.parametrize("text", ["1.5678", "1.5", "2", "1.", ".500", "+1.000", "1e3",
                                      " 1.000", "--1.000", "1.-00"])
    def test_ms_strings_that_are_not_exact_microseconds_are_refused(self, text):
        with pytest.raises(ValueError):
            _ms_str_to_us(text)

    def test_emit_without_results_is_an_error(self, tmp_path):
        with pytest.raises(ConfigError):
            emit([], tmp_path, resolve_config(None))


class TestCli:
    @pytest.fixture()
    def cfg_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(SMALL))
        return path

    def test_run_writes_output_tree(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli_main(["run", "--config", str(cfg_file), "--policy", "cloud",
                         "--seed", "9", "--out", str(out)])
        assert code == 0
        assert (out / "results.csv").exists()
        assert (out / "chain.txt").exists()
        assert (out / "run_metadata.json").exists()
        assert "records" in capsys.readouterr().out

    def test_sweep_then_report(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = cli_main(["sweep", "--config", str(cfg_file), "--param", "user_count",
                         "--values", "4,8", "--reps", "1", "--out", str(out)])
        assert code == 0
        assert (out / "fig_latency_vs_users.dat").exists()
        capsys.readouterr()
        assert cli_main(["report", "--in", str(out)]) == 0
        table = capsys.readouterr().out
        assert "reduction" in table

    def test_invalid_config_exits_nonzero_with_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"workload": {"user_count": -3}}))
        code = cli_main(["run", "--config", str(bad), "--policy", "cloud",
                         "--seed", "1", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "user_count" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", "-42"])
    def test_a_negative_seed_exits_2_and_writes_nothing(self, seed, cfg_file, tmp_path,
                                                         capsys):
        out = tmp_path / "x"
        code = cli_main(["run", "--config", str(cfg_file), "--policy", "cloud",
                         "--seed", seed, "--out", str(out)])
        assert code == 2
        assert f"error: seed = {seed}: must be an integer >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, key", [
        ('{"experiment": {"horizon_ms": Infinity}}', "experiment.horizon_ms"),
        ('{"world": {"width": Infinity}}', "world.width"),
        ('{"world": {"avatar_speed": Infinity}}', "world.avatar_speed"),
        ('{"workload": {"message_rate_per_user_per_s": 1e-320}}',
         "workload.message_rate_per_user_per_s"),
        ('{"world": {"cell": NaN}}', "world.cell"),
        ('{"topology": {"links": {"edge_cloud": {"propagation_ms": 1e300}}}}',
         "topology.links.edge_cloud.propagation_ms"),
        ('{"workload": {"profiles": {"spatial_navigation": {"upload_bytes": %d}}}}' % 10**30,
         "workload.profiles.spatial_navigation.upload_bytes"),
        ('{"world": {"width": 1e300}}', "world.width"),
        # every value is in range, but the cloud's backlog outgrows int64 microseconds
        (json.dumps({"workload": {"user_count": 20, "profiles": {
            "spatial_navigation": {"length_mi": 2**53 // 10**6}}},
            "topology": {"cloud_mips": 1},
            "experiment": {"horizon_ms": 60_000.0, "warmup_ms": 0.0}}),
         "workload.profiles.*.length_mi"),
    ])
    def test_non_finite_and_overflowing_values_exit_2(self, text, key, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        for command in (["run", "--policy", "cloud", "--seed", "1"],
                        ["sweep", "--param", "user_count", "--values", "20", "--reps", "1"]):
            code = cli_main([*command, "--config", str(bad), "--out", str(tmp_path / "x")])
            assert code == 2
            err = capsys.readouterr().err
            assert key in err and "Traceback" not in err

    def test_sweep_names_the_scenario_that_fails(self, cfg_file, tmp_path, capsys):
        code = cli_main(["sweep", "--config", str(cfg_file), "--param", "user_count",
                         "--values", "4,0", "--reps", "1", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "user_count=0 rep0 (seed 42)" in capsys.readouterr().err

    @pytest.mark.parametrize("param, values, bad", [
        ("user_count", "abc", "'abc'"),
        ("user_count", "1.5", "'1.5'"),
        ("tx_rate", "1,x", "'x'"),
        # refused by harness.sweep, after parsing and before any scenario runs
        ("user_count", "4,4", "sweep values: 4 is given more than once"),
        ("user_count", "2.5", "'2.5'"),
        ("tx_rate", "0", "sweep values: tx_rate 0 is not > 0"),
        ("user_count", "", "sweep values: none given"),
        ("tx_rate", " , ", "sweep values: none given"),
    ])
    def test_bad_sweep_values_exit_2(self, param, values, bad, cfg_file, tmp_path, capsys):
        out = tmp_path / "x"
        code = cli_main(["sweep", "--config", str(cfg_file), "--param", param,
                         "--values", values, "--reps", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --values" if bad.startswith("'") else f"error: {bad}")
        assert bad in err and "Traceback" not in err
        assert not out.exists()

    _ROW = "v/cloudonly/rep0,cloudonly,user_count,4,0,overall,3,1.500,1.000,2.000,2.000,42,d"

    @pytest.mark.parametrize("lines, where", [
        ([CSV_HEADER.replace("scenario,", ""), _ROW.split(",", 1)[1]],
         "row 1: no column 'scenario'"),
        ([CSV_HEADER, _ROW, _ROW.replace("1.500", "1.x")], "row 3, column 'mean_ms'"),
        ([CSV_HEADER, _ROW.rsplit(",", 2)[0]], "row 2, column 'seed'"),
        ([CSV_HEADER, _ROW.replace("cloudonly", "cloud\udcffonly")], "not CSV text"),
        ([CSV_HEADER, _ROW, _ROW.replace("1.500", "1.5678")],
         "row 3, column 'mean_ms': cannot read '1.5678'"),
        ([CSV_HEADER, _ROW.replace("1.500", "0.000")],
         "row 2, column 'mean_ms': '0.000' is not a latency > 0"),
        ([CSV_HEADER, _ROW, _ROW.replace("2.000,42", "-1.500,42")],
         "row 3, column 'p99_ms': '-1.500' is not a latency > 0"),
        ([CSV_HEADER, _ROW.replace(",4,0,", ",4,-1,")],
         "row 2, column 'replication': '-1' is not an integer >= 0"),
        ([CSV_HEADER, _ROW.replace(",42,", ",-7,")],
         "row 2, column 'seed': '-7' is not an integer >= 0"),
        ([CSV_HEADER, _ROW.replace(",42,", ",4.0,")],
         "row 2, column 'seed': '4.0' is not an integer >= 0"),
        ([CSV_HEADER, _ROW.replace(",4,", ",inf,")],
         "row 2, column 'value': 'inf' is not a finite number > 0"),
        ([CSV_HEADER, _ROW.replace(",4,", ",nan,")],
         "row 2, column 'value': 'nan' is not a finite number > 0"),
        ([CSV_HEADER, _ROW.replace(",4,", ",-3,")],
         "row 2, column 'value': '-3' is not a finite number > 0"),
        ([CSV_HEADER, _ROW.replace(",4,", ",0.0,")],
         "row 2, column 'value': '0.0' is not a finite number > 0"),
        ([CSV_HEADER, _ROW.replace(",4,", ",1e400,")],
         "row 2, column 'value': '1e400' is not a finite number > 0"),
    ])
    def test_malformed_results_csv_exits_2(self, lines, where, tmp_path, capsys):
        path = tmp_path / "results.csv"
        path.write_bytes(("\n".join(lines) + "\n").encode(errors="surrogateescape"))
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: {where}')}"):
            parse_results_csv(path)
        assert cli_main(["report", "--in", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: {where}" in err and "Traceback" not in err

    @pytest.mark.parametrize("lines", [
        [CSV_HEADER],
        [CSV_HEADER, _ROW],  # cloud-only, as `metafog run --policy cloud` writes
        [CSV_HEADER, _ROW, _ROW.replace("cloudonly", "fogedge").replace(",4,", ",8,")],
    ], ids=["header-only", "cloud-only", "one-policy-per-value"])
    def test_results_without_a_value_under_both_policies_exit_2(self, lines, tmp_path, capsys):
        (tmp_path / "results.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="^results hold no value with both cloudonly and "
                                              "fogedge rows$"):
            reduction_table(parse_results_csv(tmp_path / "results.csv"))
        assert cli_main(["report", "--in", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no value with both cloudonly and fogedge rows" in captured.err
        assert "Traceback" not in captured.err
