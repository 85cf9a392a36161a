"""Minimal hash-chained ledger for digital-asset purchases.

Validated transactions queue up FIFO and are batched into blocks; each block
commits to its predecessor through a SHA-256 digest over a canonical byte
serialization, so any single-field mutation anywhere in the chain is
detectable. There is no mining and no consensus, just tamper evidence.

Canonical serialization (documented contract, fixed field order):
  transaction: "tx_id|buyer|seller|asset|amount|submitted_at_us"
  block body:  "index|prev_hash_hex|formed_at_us|n_txs|tx;tx;..."
all integers as decimal ASCII, hashed with SHA-256. The genesis block's
prev_hash is 32 zero bytes.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass

ZERO_DIGEST = bytes(32)


@dataclass(frozen=True)
class Transaction:
    tx_id: int
    buyer: int
    seller: int
    asset: int
    amount: int
    submitted_at_us: int

    def serialize(self) -> bytes:
        return (
            f"{self.tx_id}|{self.buyer}|{self.seller}|{self.asset}|"
            f"{self.amount}|{self.submitted_at_us}"
        ).encode("ascii")


def block_hash(index: int, prev_hash: bytes, txs: tuple[Transaction, ...], formed_at_us: int) -> bytes:
    body = f"{index}|{prev_hash.hex()}|{formed_at_us}|{len(txs)}|".encode("ascii")
    body += b";".join(tx.serialize() for tx in txs)
    return hashlib.sha256(body).digest()


@dataclass(frozen=True)
class Block:
    index: int
    prev_hash: bytes
    txs: tuple[Transaction, ...]
    formed_at_us: int
    hash: bytes


class Chain:
    """Append-only block list plus the FIFO of validated, unbatched transactions."""

    def __init__(self):
        self.blocks: list[Block] = []
        self.pending: deque[Transaction] = deque()

    def add_validated(self, tx: Transaction) -> None:
        self.pending.append(tx)

    def form_block(self, batch_size: int, at_us: int) -> Block | None:
        """Form one block from the first batch_size pending transactions.

        Returns None when fewer than batch_size transactions are pending.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if len(self.pending) < batch_size:
            return None
        return self._append(tuple(self.pending.popleft() for _ in range(batch_size)), at_us)

    def flush(self, at_us: int) -> Block | None:
        """Horizon-end flush: form a final partial block from whatever is pending."""
        if not self.pending:
            return None
        txs = tuple(self.pending)
        self.pending.clear()
        return self._append(txs, at_us)

    def _append(self, txs: tuple[Transaction, ...], at_us: int) -> Block:
        index = len(self.blocks)
        prev = self.blocks[-1].hash if self.blocks else ZERO_DIGEST
        block = Block(index, prev, txs, at_us, block_hash(index, prev, txs, at_us))
        self.blocks.append(block)
        return block

    def verify(self) -> bool:
        """True iff every block hash recomputes and every prev_hash link matches."""
        prev = ZERO_DIGEST
        for i, block in enumerate(self.blocks):
            if (block.index != i or block.prev_hash != prev
                    or block.hash != block_hash(i, prev, block.txs, block.formed_at_us)):
                return False
            prev = block.hash
        return True

    def export_lines(self) -> list[str]:
        """Plain-text chain export: index, hash, prev_hash, tx count, formed_at_us."""
        return [
            f"{b.index} {b.hash.hex()} {b.prev_hash.hex()} {len(b.txs)} {b.formed_at_us}"
            for b in self.blocks
        ]
