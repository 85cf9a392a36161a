"""Hash-chain behaviour: batching, verification, tamper evidence, export."""

import random
from dataclasses import replace

from metafog.config import resolve_config
from metafog.harness import ScenarioRunner, run_scenario
from metafog.ledger import ZERO_DIGEST, Chain, Transaction, block_hash
from metafog.workload import Policy


def tx(i, amount=10):
    return Transaction(i, i, i + 1, i, amount, i * 1_000)


class TestDrawnTransactions:
    def test_every_chained_transaction_of_a_run_is_well_formed(self):
        # few users and a small amount range, so a seller equal to its buyer
        # or an amount out of range would show within a few hundred draws
        cfg = resolve_config({
            "workload": {"user_count": 4, "tx_rate_per_user_per_s": 2.0,
                         "message_rate_per_user_per_s": 0.0},
            "ledger": {"batch_size": 5, "tx_amount_max": 3},
            "experiment": {"horizon_ms": 60_000.0, "warmup_ms": 0.0},
        })
        runner = ScenarioRunner(cfg, Policy.FOG_EDGE, 11)
        runner.run()
        txs = [t for block in runner.chain.blocks for t in block.txs]
        assert len(txs) > 300
        for t in txs:
            assert t.buyer != t.seller, t
            assert 1 <= t.amount <= 3, t
            assert t.asset == t.tx_id, t
        assert {t.amount for t in txs} == {1, 2, 3}
        assert {(t.buyer, t.seller) for t in txs} == \
            {(b, s) for b in range(4) for s in range(4) if b != s}


class TestBatching:
    def test_five_pending_batch_two_forms_two_blocks_leaving_one(self):
        chain = Chain()
        for i in range(5):
            chain.add_validated(tx(i))
        blocks = []
        while (b := chain.form_block(2, 9_000)) is not None:
            blocks.append(b)
        assert [len(b.txs) for b in blocks] == [2, 2]
        assert len(chain.pending) == 1

    def test_form_block_with_nothing_pending_returns_none(self):
        assert Chain().form_block(2, 0) is None

    def test_flush_forms_final_partial_block(self):
        chain = Chain()
        chain.add_validated(tx(0))
        block = chain.flush(123_000)
        assert block is not None and len(block.txs) == 1
        assert block.formed_at_us == 123_000
        assert not chain.pending

    def test_flush_of_empty_chain_is_noop(self):
        chain = Chain()
        assert chain.flush(0) is None
        assert chain.blocks == []

    def test_fifo_order_is_preserved_across_blocks(self):
        chain = Chain()
        ids = list(range(23))
        for i in ids:
            chain.add_validated(tx(i))
        while chain.form_block(5, 0) is not None:
            pass
        chain.flush(1)
        replayed = [t.tx_id for b in chain.blocks for t in b.txs]
        assert replayed == ids


class TestVerification:
    def test_empty_chain_verifies(self):
        assert Chain().verify()

    def test_genesis_anchors_at_zero_digest(self):
        chain = Chain()
        chain.add_validated(tx(0))
        chain.flush(0)
        assert chain.blocks[0].prev_hash == ZERO_DIGEST

    def test_constructed_chains_always_verify(self):
        rng = random.Random(5)
        for _ in range(200):
            chain = Chain()
            for i in range(rng.randrange(1, 30)):
                chain.add_validated(tx(i, amount=rng.randrange(1000)))
            while chain.form_block(rng.randrange(1, 6), 100) is not None:
                pass
            chain.flush(200)
            assert chain.verify()

    def test_append_keeps_earlier_blocks_unchanged(self):
        chain = Chain()
        for i in range(10):
            chain.add_validated(tx(i))
        chain.form_block(5, 0)
        snapshot = chain.blocks[0]
        chain.form_block(5, 1)
        assert chain.blocks[0] == snapshot
        assert chain.blocks[1].prev_hash == snapshot.hash

    def test_mutating_a_tx_amount_breaks_verification(self):
        chain = Chain()
        for i in range(4):
            chain.add_validated(tx(i))
        chain.form_block(4, 0)
        block = chain.blocks[0]
        doctored = list(block.txs)
        doctored[2] = replace(doctored[2], amount=999_999)
        chain.blocks[0] = replace(block, txs=tuple(doctored))
        assert not chain.verify()

    def test_rewriting_a_block_hash_breaks_the_link(self):
        chain = Chain()
        for i in range(6):
            chain.add_validated(tx(i))
        while chain.form_block(3, 0) is not None:
            pass
        fake = block_hash(0, chain.blocks[0].prev_hash, chain.blocks[0].txs, 555)
        chain.blocks[0] = replace(chain.blocks[0], hash=fake)
        assert not chain.verify()


class TestExport:
    def test_export_line_format(self):
        chain = Chain()
        for i in range(3):
            chain.add_validated(tx(i))
        chain.form_block(3, 42_000)
        lines = chain.export_lines()
        assert len(lines) == 1
        index, digest, prev, count, formed = lines[0].split()
        assert index == "0"
        assert len(digest) == 64 and len(prev) == 64
        assert int(digest, 16) >= 0 and prev == "0" * 64
        assert count == "3"
        assert formed == "42000"


class TestScenarioIntegration:
    def test_blocks_form_during_the_run_and_chain_verifies(self):
        cfg = {
            "workload": {"user_count": 20, "tx_rate_per_user_per_s": 0.5,
                         "message_rate_per_user_per_s": 0.0},
            "ledger": {"batch_size": 5},
            "experiment": {"horizon_ms": 60_000.0, "warmup_ms": 0.0},
        }
        r = run_scenario(cfg, "fogedge", 17)
        assert r.extras["blocks_formed"] > 1
        assert r.extras["chain_valid"]
        # every validated tx ends up in exactly one block after the flush
        validated = r.extras["completed_by_kind"]["transaction_validation"]
        assert r.extras["chain_tx_count"] == validated

    def test_validation_placement_follows_policy(self):
        cfg = {
            "workload": {"user_count": 6, "tx_rate_per_user_per_s": 0.5,
                         "message_rate_per_user_per_s": 0.0},
            "experiment": {"horizon_ms": 30_000.0, "warmup_ms": 0.0},
        }
        for policy, tier in (("cloud", "cloud"), ("fogedge", "edge")):
            records = []
            run_scenario(cfg, policy, 23, record_sink=records.append)
            placed = {r.placed_on.split("-")[0] for r in records if r.kind == 3}
            assert placed == {tier}
