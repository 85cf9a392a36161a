"""Config validation, aggregation, sweeps, emission round-trips, CLI."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metafog.cli import main as cli_main
from metafog.config import DEFAULTS, config_digest, load_config, resolve_config
from metafog.errors import ConfigError
from metafog.harness import TaskPipeline, run_scenario, sweep
from metafog.infrastructure import TierParams, build_topology
from metafog.workload import Policy
from metafog.reporting import (
    CSV_HEADER,
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

    def test_radius_larger_than_cell_rejected(self):
        with pytest.raises(ConfigError, match="proximity_radius"):
            resolve_config({"world": {"proximity_radius": 90.0}})

    def test_warmup_beyond_horizon_rejected(self):
        with pytest.raises(ConfigError, match="warmup_ms"):
            resolve_config({"experiment": {"horizon_ms": 1_000.0}})

    def test_sweep_values_must_increase(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            resolve_config({"experiment": {"user_count_sweep": [100, 100]}})

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


_TASK = st.tuples(
    st.integers(0, 4_000),  # created
    st.integers(0, 3),  # server
    st.integers(0, 500),  # uplink
    st.integers(1, 1_500),  # service
    st.integers(0, 500),  # downlink
    st.booleans(),  # carries a transaction
)


class TestResolve:
    @settings(max_examples=150, deadline=None)
    @given(tasks=st.lists(_TASK, max_size=50), cuts=st.lists(st.integers(0, 6_000), max_size=5))
    def test_windowed_resolve_matches_a_per_task_replay(self, tasks, cuts):
        tasks = sorted(tasks)  # submitted as generated: in creation order
        records, validated = [], []
        pipeline = TaskPipeline(build_topology([(0, 0)], TierParams()), Policy.CLOUD_ONLY,
                                record_sink=records.append)
        pipeline.on_validated = lambda at, txs: validated.append((at, txs))
        submitted = 0
        for cut in sorted(cuts) + [6_000]:
            while submitted < len(tasks) and tasks[submitted][0] <= cut:
                created, server, up, service, down, has_tx = tasks[submitted]
                pipeline.submit(submitted, 0, 7, server, created, up, service, down,
                                f"tx{submitted}" if has_tx else None)
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
        assert [(r.task_id, r.wait_us, r.total_us) for r in records] == [
            (i, done - tasks[i][3] - arrival, finish - tasks[i][0])
            for finish, done, arrival, i in finished]
        groups = {}
        for finish, _, _, i in finished:
            if tasks[i][5]:
                groups.setdefault(finish, []).append(f"tx{i}")
        assert validated == list(groups.items())
        assert pipeline.in_flight() == pipeline.unfinished() == len(tasks) - len(finished)


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
