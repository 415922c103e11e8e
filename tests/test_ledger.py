"""Simulated chain: validation, confirmation, conservation, determinism."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import seed
from vasptrust import codec, crypto
from vasptrust.ledger import (BadSignature, InsufficientFunds, Ledger,
                              TxNotFound, ValueMismatch, make_transfer)


def keypairs(n, label="keys"):
    return [crypto.generate_keypair(seed(f"{label}:{i}")) for i in range(n)]


def signer(pair):
    return lambda m: crypto.sign(pair.private_key, m)


@pytest.fixture
def funded():
    a, b, c = keypairs(3)
    ledger = Ledger([(a.public_key, 100), (b.public_key, 50)])
    return ledger, a, b, c


def test_simple_transfer(funded):
    ledger, a, b, _ = funded
    tx = make_transfer([(a.public_key, 100)], [(b.public_key, 100)],
                       {a.public_key: signer(a)})
    tx_id = ledger.submit_transfer(tx)
    assert ledger.balance(b.public_key) == 50  # unchanged until confirmation
    ledger.confirm_block()
    assert ledger.balance(b.public_key) == 150
    assert ledger.confirmed_height(tx_id) == 1


def test_insufficient_funds(funded):
    ledger, a, b, _ = funded
    tx = make_transfer([(a.public_key, 101)], [(b.public_key, 101)],
                       {a.public_key: signer(a)})
    with pytest.raises(InsufficientFunds):
        ledger.submit_transfer(tx)


def test_mempool_counts_toward_spend(funded):
    ledger, a, b, _ = funded
    ledger.submit_transfer(make_transfer([(a.public_key, 80)],
                                         [(b.public_key, 80)],
                                         {a.public_key: signer(a)}))
    with pytest.raises(InsufficientFunds):
        ledger.submit_transfer(make_transfer([(a.public_key, 30)],
                                             [(b.public_key, 30)],
                                             {a.public_key: signer(a)}))


def test_value_mismatch(funded):
    ledger, a, b, _ = funded
    tx = make_transfer([(a.public_key, 50)], [(b.public_key, 60)],
                       {a.public_key: signer(a)})
    with pytest.raises(ValueMismatch):
        ledger.submit_transfer(tx)


def test_bad_signature(funded):
    ledger, a, b, c = funded
    # c signs a spend of a's funds
    tx = make_transfer([(a.public_key, 10)], [(b.public_key, 10)],
                       {a.public_key: signer(c)})
    with pytest.raises(BadSignature):
        ledger.submit_transfer(tx)


def test_genesis_then_confirm(funded):
    ledger, *_ = funded
    genesis = ledger.blocks[0]
    assert genesis.height == 0
    block = ledger.confirm_block()
    assert block.height == 1
    assert block.prev_hash == genesis.block_hash
    empty = ledger.confirm_block()
    assert empty.tx_ids == ()


def test_query_unknown(funded):
    ledger, *_ = funded
    with pytest.raises(TxNotFound):
        ledger.query_tx(crypto.digest(b"nothing"))


def test_batch_outputs_intact(funded):
    ledger, a, b, c = funded
    tx = make_transfer([(a.public_key, 90)],
                       [(b.public_key, 30), (c.public_key, 60)],
                       {a.public_key: signer(a)})
    assert len({o.public_key for o in tx.outputs}) == 2
    tx_id = ledger.submit_transfer(tx)
    ledger.confirm_block()
    stored = ledger.query_tx(tx_id)
    assert [(o.public_key, o.amount) for o in stored.outputs] == \
        [(b.public_key, 30), (c.public_key, 60)]


def test_memo_tag_length_checked(funded):
    ledger, a, b, _ = funded
    tx = make_transfer([(a.public_key, 1)], [(b.public_key, 1)],
                       {a.public_key: signer(a)}, memo_tag=b"short")
    with pytest.raises(ValueMismatch):
        ledger.submit_transfer(tx)


def random_ops(ledger, pairs, rng, count):
    """Drive a ledger with a random mix of transfers and confirmations."""
    for _ in range(count):
        if rng.random() < 0.25:
            ledger.confirm_block()
            continue
        src = rng.choice(pairs)
        dst = rng.sample(pairs, rng.randint(1, 3))
        available = ledger.balance(src.public_key)
        amount = rng.randint(0, max(available, 5) + 5)
        if amount <= 0 or len({d.public_key for d in dst}) != len(dst):
            continue
        split = sorted(rng.sample(range(1, amount + 1), min(len(dst), amount))) \
            if amount >= len(dst) else []
        if not split:
            continue
        bounds = [0] + split[:-1] + [amount]
        outputs = [(d.public_key, hi - lo)
                   for d, lo, hi in zip(dst, bounds, bounds[1:]) if hi > lo]
        if not outputs:
            continue
        tx = make_transfer([(src.public_key, amount)], outputs,
                           {src.public_key: signer(src)},
                           memo_tag=rng.randbytes(32) if rng.random() < 0.3 else None)
        try:
            ledger.submit_transfer(tx)
        except (InsufficientFunds, ValueMismatch, BadSignature):
            pass
    ledger.confirm_block()


def test_conservation_over_random_ops():
    pairs = keypairs(6, "conserve")
    ledger = Ledger([(p.public_key, 1000) for p in pairs])
    supply = ledger.total_supply()
    rng = random.Random(2024)
    random_ops(ledger, pairs, rng, 600)
    assert ledger.total_supply() == supply
    assert all(v >= 0 for v in ledger._balances.values())


def test_confirmed_height_never_changes():
    pairs = keypairs(2, "monotone")
    ledger = Ledger([(pairs[0].public_key, 10)])
    tx = make_transfer([(pairs[0].public_key, 10)], [(pairs[1].public_key, 10)],
                       {pairs[0].public_key: signer(pairs[0])})
    tx_id = ledger.submit_transfer(tx)
    assert tx_id == crypto.digest(codec.struct_bytes(tx))
    assert ledger.confirmed_height(tx_id) == 0  # in the mempool
    ledger.confirm_block()
    height = ledger.confirmed_height(tx_id)
    for _ in range(5):
        ledger.confirm_block()
    assert ledger.confirmed_height(tx_id) == height == 1
    assert ledger.query_tx(tx_id) is tx


def test_identical_op_sequences_identical_hashes():
    def run():
        pairs = keypairs(4, "determinism")
        ledger = Ledger([(p.public_key, 500) for p in pairs])
        random_ops(ledger, pairs, random.Random(7), 200)
        return [b.block_hash for b in ledger.blocks]

    assert run() == run()


WINDOW_KEYS = keypairs(2, "window")


def whole_chain_filter(ledger, lo, hi):
    """The reference: every block of the chain, filtered by height."""
    hi = ledger.height if hi is None else hi
    return [(tx_id, ledger.query_tx(tx_id)) for block in ledger.blocks[1:]
            if lo <= block.height <= hi for tx_id in block.tx_ids]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=6))
def test_confirmed_txs_window_matches_whole_chain_filter(block_sizes):
    src, dst = WINDOW_KEYS
    ledger = Ledger([(src.public_key, 1000)])
    amount = 1
    for size in block_sizes:
        for _ in range(size):
            ledger.submit_transfer(make_transfer(
                [(src.public_key, amount)], [(dst.public_key, amount)],
                {src.public_key: signer(src)}))
            amount += 1
        ledger.confirm_block()
    heights = range(-2, ledger.height + 3)
    assert ledger.confirmed_txs() == whole_chain_filter(ledger, 1, None)
    for lo in heights:
        for hi in [None, *heights]:
            assert ledger.confirmed_txs(lo, hi) == \
                whole_chain_filter(ledger, lo, hi), (lo, hi)


def test_dump_chain_mentions_tx_hex(funded):
    ledger, a, b, _ = funded
    tx = make_transfer([(a.public_key, 5)], [(b.public_key, 5)],
                       {a.public_key: signer(a)})
    tx_id = ledger.submit_transfer(tx)
    ledger.confirm_block()
    dump = ledger.dump_chain()
    assert tx_id.hex() in dump
    assert "height=1" in dump
