"""Tests of the benchmark's own checks: they pass on real output and trip on tampered output.

Run from the root of the repository: python3 -m pytest benchmark/tests -q
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
from metafog import Engine, Policy, ScenarioRunner, emit, resolve_config  # noqa: E402
from spans import Tracer  # noqa: E402

SMALL = {
    "world": {"width": 200.0, "height": 200.0, "regions_x": 2, "regions_y": 2},
    "workload": {"user_count": 120, "message_rate_per_user_per_s": 0.5,
                 "tx_rate_per_user_per_s": 0.2},
    "ledger": {"batch_size": 3},
    "experiment": {"horizon_ms": 4_000.0, "warmup_ms": 1_000.0},
}


def _scenario(policy, seed=7, overrides=SMALL):
    cfg = resolve_config(overrides)
    records = []
    runner = ScenarioRunner(cfg, policy, seed, record_sink=records.append)
    runner.run()
    return cfg, runner, runner.collect("t", "user_count", 120, 0), records


@pytest.fixture(scope="module", params=[Policy.CLOUD_ONLY, Policy.FOG_EDGE])
def scenario(request):
    return _scenario(request.param)


def test_every_check_passes_on_real_output(scenario, tmp_path):
    cfg, runner, result, records = scenario
    checks.check_conservation(result.extras, len(records))
    checks.check_task_counts(cfg, result.extras)
    checks.check_transfers(cfg, records, runner.home_fog_of_user)
    assert checks.check_queue_waits(cfg, records) > 0
    checks.check_chain(runner.chain.blocks, records, cfg["ledger"]["batch_size"])
    checks.check_nearby(runner.world, cfg["world"]["proximity_radius"], seed=1)
    emit([result], tmp_path, cfg)
    checks.check_csv_roundtrip([result], tmp_path / "results.csv")
    checks.check_same_stats([[result], [_scenario(Policy(result.policy))[2]]])


def test_exact_us_is_exact_for_decimal_milliseconds():
    assert checks.exact_us(16.1) == 16_100
    assert checks.exact_us(2.0) == 2_000
    assert checks.exact_us(0.0001) == 1
    assert checks.exact_us(15) == 15_000


def test_transfer_check_trips_on_a_wrong_uplink(scenario):
    cfg, runner, _, records = scenario
    bad = list(records)
    bad[5] = bad[5]._replace(uplink_us=bad[5].uplink_us + 1)
    with pytest.raises(checks.CheckError, match="uplink"):
        checks.check_transfers(cfg, bad, runner.home_fog_of_user)


def test_transfer_check_trips_on_a_changed_link_parameter(scenario):
    cfg, runner, _, records = scenario
    other = resolve_config({**SMALL, "topology": {"links": {
        "device_fog": {"propagation_ms": 2.5, "bandwidth_mbps": 100}}}})
    with pytest.raises(checks.CheckError):
        checks.check_transfers(other, records, runner.home_fog_of_user)


def test_queue_check_trips_on_a_wrong_wait():
    cfg, _, _, records = _scenario(Policy.CLOUD_ONLY)
    # Shorten the wait of a task that queued, and keep its total consistent,
    # so only the recurrence can tell.
    i = next(i for i, r in enumerate(records) if r.wait_us > 0 and r.created_us < 1_000_000)
    r = records[i]
    bad = list(records)
    bad[i] = r._replace(wait_us=r.wait_us - 1, total_us=r.total_us - 1)
    with pytest.raises(checks.CheckError, match="recurrence"):
        checks.check_queue_waits(cfg, bad)


def test_queue_check_trips_on_an_inconsistent_total(scenario):
    cfg, _, _, records = scenario
    bad = list(records)
    bad[3] = bad[3]._replace(total_us=bad[3].total_us + 1)
    with pytest.raises(checks.CheckError, match="total"):
        checks.check_queue_waits(cfg, bad)


def test_chain_check_trips_on_a_tampered_transaction(scenario):
    cfg, runner, _, records = scenario
    blocks = list(runner.chain.blocks)
    tx = blocks[0].txs[0]
    blocks[0] = replace(blocks[0], txs=(replace(tx, amount=tx.amount + 1),) + blocks[0].txs[1:])
    with pytest.raises(checks.CheckError, match="hash"):
        checks.check_chain(blocks, records, cfg["ledger"]["batch_size"])


def test_chain_check_trips_on_a_lost_validation(scenario):
    cfg, runner, _, records = scenario
    lost = next(i for i, r in enumerate(records) if r.kind == checks.TRANSACTION_KIND)
    with pytest.raises(checks.CheckError, match="validated"):
        checks.check_chain(runner.chain.blocks, records[:lost] + records[lost + 1:],
                           cfg["ledger"]["batch_size"])


def test_count_and_conservation_checks_trip(scenario):
    cfg, _, result, records = scenario
    extras = dict(result.extras, generated_by_kind=dict(result.extras["generated_by_kind"]))
    extras["generated_by_kind"]["universe_simulation"] += 1
    with pytest.raises(checks.CheckError, match="universe"):
        checks.check_task_counts(cfg, extras)
    with pytest.raises(checks.CheckError):
        checks.check_conservation(result.extras, len(records) - 1)


def test_nearby_check_trips_on_a_missed_neighbour(scenario):
    cfg, runner, _, _ = scenario
    world = runner.world

    class DropsOne:
        avatars = world.avatars

        def nearby_users(self, user, radius):
            return world.nearby_users(user, radius)[1:]

    with pytest.raises(checks.CheckError, match="brute force"):
        # every user with a neighbour loses one, and the sample holds all users
        checks.check_nearby(DropsOne(), cfg["world"]["proximity_radius"], seed=1,
                            samples=len(world.avatars))


def test_result_checks_trip(scenario, tmp_path):
    cfg, _, result, _ = scenario
    cloud = replace(result, policy="cloudonly", value=1000)
    fog = replace(result, policy="fogedge", value=1000)
    with pytest.raises(checks.CheckError, match="half"):
        checks.check_fog_halves_cloud([cloud, fog])  # equal means, not halved
    emit([result], tmp_path, cfg)
    with pytest.raises(checks.CheckError):
        checks.check_csv_roundtrip([replace(result, seed=result.seed + 1)],
                                   tmp_path / "results.csv")
    other = _scenario(Policy(result.policy), seed=8)[2]
    with pytest.raises(checks.CheckError):
        checks.check_same_stats([[result], [other]])


def test_tracer_changes_no_result_and_restores_every_class():
    on, run_until = Engine.__dict__["on"], Engine.__dict__["run_until"]
    _, _, plain, _ = _scenario(Policy.FOG_EDGE)
    with Tracer() as tracer:
        _, _, traced, _ = _scenario(Policy.FOG_EDGE)
    assert traced.stats == plain.stats
    assert Engine.__dict__["on"] is on and Engine.__dict__["run_until"] is run_until
    layers = tracer.layer_metrics()
    assert layers["engine.events"][0] == plain.extras["events_dispatched"]
    assert layers["harness.tasks"][0] == plain.extras["tasks_generated"]
    assert layers["harness.submit_calls"][0] == plain.extras["tasks_generated"]
    assert layers["world.proximity_queries"][0] > 0
    assert layers["ledger.blocks"][0] == plain.extras["blocks_formed"]
