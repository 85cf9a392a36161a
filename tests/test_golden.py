"""Golden outputs: SHA-256 of the files a run writes, pinned per scenario.

The other determinism tests compare the code only with itself; these hold it
against bytes written once, so a rewrite that is meant to keep the outputs
must reproduce them exactly. A change that alters outputs on purpose re-pins
the affected hashes and says why.
"""

import hashlib

import pytest

from metafog.config import resolve_config
from metafog.harness import ScenarioRunner, sweep
from metafog.reporting import emit
from metafog.workload import Policy

SEED = 42


def _experiment(horizon_ms: float) -> dict:
    return {"horizon_ms": horizon_ms, "warmup_ms": horizon_ms / 4}


_LEDGER_HEAVY = {
    "workload": {"user_count": 300, "tx_rate_per_user_per_s": 0.5},
    "ledger": {"batch_size": 2},
    "experiment": _experiment(30_000.0),
}

SCENARIOS = {
    "cloud-1000u-60s": (Policy.CLOUD_ONLY, {
        "workload": {"user_count": 1000}, "experiment": _experiment(60_000.0)}),
    "fogedge-1000u-60s": (Policy.FOG_EDGE, {
        "workload": {"user_count": 1000}, "experiment": _experiment(60_000.0)}),
    "cloud-ledger": (Policy.CLOUD_ONLY, _LEDGER_HEAVY),
    "fogedge-ledger": (Policy.FOG_EDGE, _LEDGER_HEAVY),
    "fogedge-3edges-messages": (Policy.FOG_EDGE, {
        "topology": {"edges_per_region": 3},
        "workload": {"user_count": 600, "message_rate_per_user_per_s": 0.5},
        "experiment": _experiment(30_000.0)}),
    # 16.1 ms is one of the decimal delays a binary float product rounds a microsecond high
    "cloud-decimal-link": (Policy.CLOUD_ONLY, {
        "topology": {"links": {"edge_cloud": {"propagation_ms": 16.1}}},
        "workload": {"user_count": 500},
        "experiment": _experiment(30_000.0)}),
}

SWEEP = ({"experiment": _experiment(20_000.0)}, [200, 600])

GOLDEN = {
    "cloud-decimal-link": {
        "results.csv": "4b8b8f2bf9fb0e2210032c9e579bc2f384635717fddc1a14235a8b277d76feba",
        "run_metadata.json": "a1ff201caf402fd0b7cb7f7a987d9615d3fc3e0af147fa4c5115156c18f87533",
        "chain.txt": "5ca6c519c79187e748cf61ebd9fe328d8b5c4c6f90c877cdb65c1ed9334f8e85",
    },
    "cloud-1000u-60s": {
        "results.csv": "77b929ef26a1b305976d8d1cec9386d3588cba705e599184f9581b13f4c6d398",
        "run_metadata.json": "7174917c43afe3886f7cc00050eca435d3e7af3ccd31b9690c40787dec0122d1",
        "chain.txt": "df7593920ff04c875da3b9553334d55071d1d66d6e4d1439046ef1e4934b227f",
    },
    "cloud-ledger": {
        "results.csv": "742209d42a645629821c61cda513f0ec9de2f24dba26f45c9384f1795b7f75e1",
        "run_metadata.json": "d3ac8a8c38524e78bdf1704c65919e467850f4c49593ebc2e6e1abdf24eb53b3",
        "chain.txt": "e6d9ab61eebf5f9617125c3d13854ae457dd53a9d5f1b615f865baf6e601c4bf",
    },
    "fogedge-1000u-60s": {
        "results.csv": "f08c3008a1ab98cb784c8d5eb5ecf950fa56a90d0920d294196bd6218738d2c7",
        "run_metadata.json": "10226b2a056e2c078642c8e27f657b68e5ec5be7529d1021507b689b46f1a6ba",
        "chain.txt": "165fca30f6d1f9ddf92e7c18f2455bc129d25dc19baf61a04537e6f87ab745b3",
    },
    "fogedge-3edges-messages": {
        "results.csv": "db92d5b6bb71238752e0a528a647740d5114c10d42d14b1858515a7c54705eba",
        "run_metadata.json": "609ff8c7c39dd180f0e60ccccd5251a4c1b661794ee225e9a232b5bbf3aced7f",
        "chain.txt": "a4c2c2030747b432c2f4278850ef9b88ad772d7b1843534a396a8898c4c91fff",
    },
    "fogedge-ledger": {
        "results.csv": "331a88592583c83ecf857ab62be2bd65994d92cf04b7fed54ea1bf5509681852",
        "run_metadata.json": "3fab409efc9a15ab70826813380d1ea47e41c18611a18e6c60c3713a20e3eaf5",
        "chain.txt": "3bb5b991cc72714c8dbd97ef93ad6a1433353ac2d3a2eabed5e782fb48a0aaf7",
    },
    "sweep-users": {
        "results.csv": "9917739a715907c13d32ee0fbc370f341478b05c6270f47ceb288f63b16c487f",
        "fig_latency_vs_users.dat": "ad667c8f706af26356f09fb768e1e1b5949d261c5b44036898fcb9aac848d103",
        "run_metadata.json": "1cfac9c0363f69b115d51951f669cbb6cf28f07f4c17b3bad28eea8c5aedac11",
    },
}


def _digests(paths) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def scenario_digests(name: str, out) -> dict[str, str]:
    """Run one pinned scenario the way `metafog run` does, and hash what it writes."""
    policy, overrides = SCENARIOS[name]
    cfg = resolve_config(overrides)
    runner = ScenarioRunner(cfg, policy, SEED)
    runner.run()
    result = runner.collect(f"golden/{name}", "none", cfg["workload"]["user_count"], 0)
    return _digests(emit([result], out, cfg, chain_lines=runner.chain.export_lines()))


def sweep_digests(out) -> dict[str, str]:
    overrides, values = SWEEP
    cfg = resolve_config(overrides)
    results = sweep(overrides, "user_count", values, replications=1)
    return _digests(emit(results, out, cfg, param="user_count"))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_outputs_match_golden(name, tmp_path):
    assert scenario_digests(name, tmp_path) == GOLDEN[name]


def test_sweep_tree_matches_golden(tmp_path):
    assert sweep_digests(tmp_path) == GOLDEN["sweep-users"]
