"""
The asset-trading ledger
========================

Validated purchases are batched FIFO into a hash chain. Each block commits to
its predecessor's digest, so editing any field of any historical transaction
is detectable with a single verification pass.
"""

from dataclasses import replace

from metafog import Chain, Transaction

chain = Chain()
for i in range(23):
    chain.add_validated(Transaction(
        tx_id=i, buyer=i % 7, seller=10 + i % 5, asset=i, amount=100 + i,
        submitted_at_us=i * 50_000,
    ))

while chain.form_block(batch_size=10, at_us=1_000_000) is not None:
    pass
chain.flush(at_us=2_000_000)  # horizon flush picks up the final partial block

print("chain export (index hash prev_hash tx_count formed_at_us):")
for line in chain.export_lines():
    print(" ", line[:90], "...")

print("\nverify_chain:", chain.verify())

# tamper with one amount deep in block 0 and watch verification fail
block = chain.blocks[0]
txs = list(block.txs)
txs[3] = replace(txs[3], amount=999_999)
chain.blocks[0] = replace(block, txs=tuple(txs))
print("after tampering with one amount:", chain.verify())
