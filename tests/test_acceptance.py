"""Acceptance suite: one test per criterion, printed as a pass/fail checklist.

The two figure-analogue sweeps run once as session fixtures (the full default
sweep takes several minutes; see the README's note on suite runtime) and every
criterion is asserted at the tolerance stated in its test. Run with -s to see
the checklist lines as they pass.
"""

import json
import random
import time
from dataclasses import replace

import pytest

from metafog.config import resolve_config
from metafog.engine import RngStream
from metafog.harness import TaskPipeline, run_scenario, sweep
from metafog.infrastructure import build_user_topology
from metafog.ledger import Chain, Transaction
from metafog.reporting import emit
from metafog.stats import latency_reduction
from metafog.workload import Placement, Policy, TaskKind
from metafog.world import World, WorldGrid
from mm1_harness import simulate_mm1

REPLICATIONS = 3
SEEDS = tuple(42 + r for r in range(REPLICATIONS))


def _passed(line: str) -> None:
    print(f"\nACCEPTANCE {line}: PASS")


@pytest.fixture(scope="session")
def fig3_serial(tmp_path_factory):
    """Full default user-count sweep, serial execution, emitted to disk."""
    out = tmp_path_factory.mktemp("fig3_serial")
    results = sweep(None, "user_count", replications=REPLICATIONS)
    emit(results, out, resolve_config(None), param="user_count")
    return results, out


@pytest.fixture(scope="session")
def fig3_parallel(tmp_path_factory):
    """The same full default sweep again, executed with parallel workers."""
    out = tmp_path_factory.mktemp("fig3_parallel")
    results = sweep(None, "user_count", replications=REPLICATIONS,
                    parallel=True, max_workers=2)
    emit(results, out, resolve_config(None), param="user_count")
    return results, out


@pytest.fixture(scope="session")
def fig4_results():
    """Default transaction-rate sweep at the fixed default user count."""
    return sweep(None, "tx_rate", replications=REPLICATIONS,
                 parallel=True, max_workers=2)


def _means(results, value, policy, metric="overall"):
    out = []
    for r in results:
        if r.value == value and r.policy == policy:
            out.append(r.stats[metric].mean_us)
    return out


def test_criterion_1_headline_latency_reduction(fig3_serial):
    """Default sweep at 1000 users must cut mean latency by at least 40%."""
    results, out = fig3_serial
    cloud = _means(results, 1000, "cloudonly")
    fog = _means(results, 1000, "fogedge")
    assert len(cloud) == len(fog) == REPLICATIONS
    pooled = latency_reduction(sum(cloud) / len(cloud), sum(fog) / len(fog))
    assert pooled >= 0.40
    for c, f in zip(cloud, fog):
        assert latency_reduction(c, f) >= 0.40

    # the documented >= 50% configuration: the defaults at 500 users,
    # where the cloud baseline is still stable (see README)
    cloud500 = _means(results, 500, "cloudonly")
    fog500 = _means(results, 500, "fogedge")
    assert latency_reduction(sum(cloud500) / 3, sum(fog500) / 3) >= 0.50

    # sweep metadata must carry the default parameter set that produced this
    meta = json.loads((out / "run_metadata.json").read_text())
    assert meta["config"] == resolve_config(None)

    # runtime bound: the most expensive scenario of the sweep, timed alone
    t0 = time.perf_counter()
    run_scenario({"workload": {"user_count": 1000}}, "cloud", SEEDS[0])
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _passed(f"1 headline-reduction (pooled {pooled:.1%}, worst scenario {elapsed:.1f}s)")


def test_criterion_2_latency_vs_users_shape(fig3_serial):
    """Cloud curve strictly rises (>=3x at the top); fog-edge stays flat (<=1.5x)."""
    results, _ = fig3_serial
    values = sorted({r.value for r in results})
    for rep in range(REPLICATIONS):
        cloud_curve = [
            next(r.stats["overall"].mean_us for r in results
                 if r.value == v and r.policy == "cloudonly" and r.replication == rep)
            for v in values
        ]
        fog_curve = [
            next(r.stats["overall"].mean_us for r in results
                 if r.value == v and r.policy == "fogedge" and r.replication == rep)
            for v in values
        ]
        assert all(b > a for a, b in zip(cloud_curve, cloud_curve[1:])), \
            f"cloud curve not strictly increasing for replication {rep}: {cloud_curve}"
        assert cloud_curve[-1] >= 3 * cloud_curve[0]
        assert fog_curve[-1] <= 1.5 * fog_curve[0]
    _passed("2 latency-vs-users shape (all replications)")


def test_criterion_3_latency_vs_transactions_shape(fig4_results):
    """Cloud transaction latency >=2x from bottom to top rate; fog-edge <=1.5x spread."""
    values = sorted({r.value for r in fig4_results})
    for rep in range(REPLICATIONS):
        cloud_curve = [
            next(r.stats["transaction_validation"].mean_us for r in fig4_results
                 if r.value == v and r.policy == "cloudonly" and r.replication == rep)
            for v in values
        ]
        fog_curve = [
            next(r.stats["transaction_validation"].mean_us for r in fig4_results
                 if r.value == v and r.policy == "fogedge" and r.replication == rep)
            for v in values
        ]
        assert cloud_curve[-1] >= 2 * cloud_curve[0]
        assert max(fog_curve) <= 1.5 * min(fog_curve)
    _passed("3 latency-vs-transactions shape (all replications)")


def test_criterion_4_mm1_queueing_oracle():
    """rho = 0.5 with 100k tasks lands within 10% of the analytic mean wait."""
    lam, mu = 0.25, 0.5  # per ms -> rho = 0.5
    result = simulate_mm1(lam, mu, 100_000, seed=2024)
    analytic_us = (lam / mu) / (mu - lam) * 1000
    rel_err = abs(result["mean_wait_us"] - analytic_us) / analytic_us
    assert result["tasks"] >= 100_000
    assert rel_err <= 0.10
    _passed(f"4 M/M/1 oracle (rel err {rel_err:.3%})")


def test_criterion_5_hand_trace_oracle():
    """Two users, three tasks on a minimal chain reproduce the hand computation.

    Topology: the builder's one-region tree for two users, dev-0 and dev-1
    -> fog-0-0-0 (4000 MIPS) -> edge-0-0 (20000 MIPS) -> cloud (100000 MIPS);
    links dev-fog 2 ms / 100 Mbps, fog-edge 5 ms / 1000 Mbps, edge-cloud
    30 ms / 10000 Mbps.

    T0 nav user0, 50 MI, 2000 B up / 1000 B down, created 0, on the fog:
       uplink   = 2000 + ceil(16000/100) = 2160
       wait     = 0 (idle), service = ceil(50e6/4000) = 12500
       downlink = 2000 + ceil(8000/100) = 2080          total 16740
    T1 nav user1, identical, created 0, arrives at 2160 behind T0:
       wait     = (2160 + 12500) - 2160 = 12500          total 29240
    T2 social user0, 30 MI, 1000 B both ways, created 1000, on the edge:
       uplink   = (2000 + 80) + (5000 + ceil(8000/1000)) = 7088
       wait     = 0, service = ceil(30e6/20000) = 1500
       downlink = 7088                                   total 15676
    """
    topo = build_user_topology([0, 0], 1, 1, resolve_config({"topology": {
        "fog_mips": 4_000, "devices_per_fog": 2,
        "links": {"edge_cloud": {"propagation_ms": 30.0}}}})["topology"])
    assert [topo.node_ids[i] for i in topo.parent.take(topo.device)] == ["fog-0-0-0"] * 2
    profiles = {
        **resolve_config(None)["workload"]["profiles"],
        "spatial_navigation": {"length_mi": 50, "upload_bytes": 2_000, "download_bytes": 1_000},
        "social_interaction": {"length_mi": 30, "upload_bytes": 1_000, "download_bytes": 1_000},
    }
    placement = Placement(Policy.FOG_EDGE, topo, profiles)
    records = []
    pipeline = TaskPipeline(placement, lambda finish, task_id: None, record_sink=records.append)
    pipeline.submit(TaskKind.SPATIAL_NAVIGATION, 0, 0)  # task ids are submit indexes
    pipeline.submit(TaskKind.SPATIAL_NAVIGATION, 1, 0)
    pipeline.submit(TaskKind.SOCIAL_INTERACTION, 0, 1_000, region=0)  # region (0, 0)
    pipeline.resolve(10_000_000)

    expected = {
        0: (2_160, 0, 12_500, 2_080, 16_740),
        1: (2_160, 12_500, 12_500, 2_080, 29_240),
        2: (7_088, 0, 1_500, 7_088, 15_676),
    }
    assert len(records) == 3
    for r in records:
        assert (r.uplink_us, r.wait_us, r.service_us, r.downlink_us, r.total_us) == \
            expected[r.task_id], f"task {r.task_id} deviates from the hand computation"
    _passed("5 hand-trace oracle (fixed-point equality)")


def test_criterion_6_neighbor_search_oracle():
    """1000 random placements: spatial hash equals brute force every time."""
    grid = WorldGrid(1000.0, 1000.0, 10, 10, 40.0)
    rng = random.Random(606)
    for trial in range(1_000):
        n = rng.randrange(2, 40)
        radius = rng.uniform(0.5, grid.cell)
        world = World(grid, n, 1.5, RngStream(trial, "movement"), grid.cell)
        for user in range(n):
            got = set(world.nearby_users(user, radius))
            me = world.avatars[user]
            expected = {
                a.user for a in world.avatars
                if a.user != user and (a.x - me.x) ** 2 + (a.y - me.y) ** 2 <= radius ** 2
            }
            assert got == expected, f"trial {trial}, user {user}"
    _passed("6 neighbor-search oracle (1000 trials)")


def test_criterion_7_determinism_serial_vs_parallel(fig3_serial, fig3_parallel):
    """Two full default sweeps, one serial and one parallel, emit identical bytes."""
    _, dir_a = fig3_serial
    _, dir_b = fig3_parallel
    for name in ("results.csv", "fig_latency_vs_users.dat", "run_metadata.json"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name
    _passed("7 determinism (byte-identical output trees, serial vs parallel)")


def _random_chain(rng):
    chain = Chain()
    n = rng.randrange(1, 12)
    for i in range(n):
        chain.add_validated(Transaction(i, rng.randrange(100), 100 + rng.randrange(100),
                                        rng.randrange(10_000), rng.randrange(1_000),
                                        rng.randrange(1_000_000)))
    batch = rng.randrange(1, 5)
    while chain.form_block(batch, rng.randrange(1_000_000)) is not None:
        pass
    chain.flush(2_000_000)
    return chain


def test_criterion_8_ledger_properties():
    """10k random build/verify trials pass; 1000 single-field tampers all detected."""
    rng = random.Random(808)
    for _ in range(10_000):
        assert _random_chain(rng).verify()

    detected = 0
    for _ in range(1_000):
        chain = _random_chain(rng)
        bi = rng.randrange(len(chain.blocks))
        block = chain.blocks[bi]
        field = rng.choice(["tx_amount", "tx_buyer", "tx_seller", "tx_asset",
                            "tx_submitted", "index", "prev_hash", "formed_at", "hash"])
        if field.startswith("tx_"):
            txs = list(block.txs)
            ti = rng.randrange(len(txs))
            attr = {"tx_amount": "amount", "tx_buyer": "buyer", "tx_seller": "seller",
                    "tx_asset": "asset", "tx_submitted": "submitted_at_us"}[field]
            txs[ti] = replace(txs[ti], **{attr: getattr(txs[ti], attr) + 1})
            chain.blocks[bi] = replace(block, txs=tuple(txs))
        elif field == "index":
            chain.blocks[bi] = replace(block, index=block.index + 1)
        elif field == "prev_hash":
            flipped = bytes([block.prev_hash[0] ^ 1]) + block.prev_hash[1:]
            chain.blocks[bi] = replace(block, prev_hash=flipped)
        elif field == "formed_at":
            chain.blocks[bi] = replace(block, formed_at_us=block.formed_at_us + 1)
        else:
            flipped = bytes([block.hash[0] ^ 1]) + block.hash[1:]
            chain.blocks[bi] = replace(block, hash=flipped)
        detected += not chain.verify()
    assert detected == 1_000
    _passed("8 ledger properties (10k verify + 1000/1000 tampers detected)")


def test_criterion_9_conservation(fig3_serial, fig3_parallel, fig4_results):
    """Every acceptance scenario: generated == records + in-flight at horizon."""
    checked = 0
    for results in (fig3_serial[0], fig3_parallel[0], fig4_results):
        for r in results:
            e = r.extras
            assert e["tasks_generated"] == e["records_emitted"] + e["in_flight_at_horizon"], \
                r.scenario_id
            assert sum(e["generated_by_kind"].values()) == e["tasks_generated"]
            checked += 1
    # fig-3 sweep runs twice (serial and parallel), the fig-4 sweep once
    assert checked == REPLICATIONS * 2 * (10 + 10 + 6)
    _passed(f"9 conservation ({checked} scenarios reconciled)")
