"""Minimal simulated blockchain: confirmed transfers with queryable history.

Account model keyed by public key, with explicit input/output lists so a
single transaction can pay several beneficiaries (batch transfers from a
commingled account). Transactions wait in a mempool until confirm_block()
applies them atomically; value is conserved after genesis. An optional
32-byte memo tag on a transaction carries an opaque correlation handle.

Through ``codec.seal``, each input key signs every field of a transaction
but its signatures, the last; the transaction id is the digest of those
bytes, derived from the value and never carried in it. The height a
transaction is confirmed at is the ledger's record
(``Ledger.confirmed_height``), not a field of the signed value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping

from . import codec, crypto

MEMO_TAG_SIZE = 32
GENESIS_PREV_HASH = b"\x00" * crypto.DIGEST_SIZE


class LedgerError(Exception):
    pass


class InsufficientFunds(LedgerError):
    pass


class ValueMismatch(LedgerError):
    """Input and output sums differ; value would be created or destroyed."""


class BadSignature(LedgerError):
    pass


class TxNotFound(LedgerError):
    pass


@dataclass(frozen=True)
class TxEntry:
    public_key: bytes
    amount: int


@dataclass(frozen=True)
class LedgerTx:
    inputs: tuple[TxEntry, ...]
    outputs: tuple[TxEntry, ...]
    memo_tag: bytes | None
    signatures: tuple[bytes, ...]

    @cached_property
    def tx_id(self) -> bytes:
        return crypto.digest(codec.struct_bytes(self))

    def distinct_input_keys(self) -> list[bytes]:
        seen: list[bytes] = []
        for entry in self.inputs:
            if entry.public_key not in seen:
                seen.append(entry.public_key)
        return seen


@dataclass(frozen=True)
class Block:
    height: int
    prev_hash: bytes
    tx_ids: tuple[bytes, ...]
    block_hash: bytes


def _block_hash(height: int, prev_hash: bytes, tx_ids: tuple[bytes, ...]) -> bytes:
    return crypto.digest(codec.canonical_encode((height, prev_hash, list(tx_ids))))


def make_transfer(inputs: Iterable[tuple[bytes, int]],
                  outputs: Iterable[tuple[bytes, int]],
                  signers: Mapping[bytes, Callable[[bytes], bytes]],
                  memo_tag: bytes | None = None) -> LedgerTx:
    """Assemble and sign a transfer.

    ``signers`` maps each distinct input public key to a signing callable
    (a plain private key closure, or a trusted-hardware signing handle).
    """
    tx = LedgerTx(
        inputs=tuple(TxEntry(k, a) for k, a in inputs),
        outputs=tuple(TxEntry(k, a) for k, a in outputs),
        memo_tag=memo_tag,
        signatures=(),
    )
    return codec.seal(tx, lambda tbs: tuple(
        signers[key](tbs) for key in tx.distinct_input_keys()))[0]


class Ledger:
    """Single-writer chain owned by the simulator event loop."""

    def __init__(self, genesis_allocations: Iterable[tuple[bytes, int]] = ()):
        self._balances: dict[bytes, int] = {}
        for key, amount in genesis_allocations:
            self._balances[key] = self._balances.get(key, 0) + amount
        self._blocks: list[Block] = [
            Block(0, GENESIS_PREV_HASH, (), _block_hash(0, GENESIS_PREV_HASH, ()))
        ]
        self._mempool: list[bytes] = []  # tx ids, in submission order
        self._pending_spend: dict[bytes, int] = {}
        self._tx_index: dict[bytes, LedgerTx] = {}
        self._heights: dict[bytes, int] = {}  # tx id -> confirmed height

    @property
    def height(self) -> int:
        return self._blocks[-1].height

    @property
    def blocks(self) -> list[Block]:
        return list(self._blocks)

    def balance(self, public_key: bytes) -> int:
        return self._balances.get(public_key, 0)

    def total_supply(self) -> int:
        return sum(self._balances.values())

    def submit_transfer(self, tx: LedgerTx) -> bytes:
        tx_id = self._validate(tx)
        self._mempool.append(tx_id)
        self._tx_index[tx_id] = tx
        for entry in tx.inputs:
            self._pending_spend[entry.public_key] = (
                self._pending_spend.get(entry.public_key, 0) + entry.amount)
        return tx_id

    def _validate(self, tx: LedgerTx) -> bytes:
        """The id of ``tx``: the digest of the signing input it verifies."""
        if any(e.amount <= 0 for e in tx.inputs) or any(e.amount <= 0 for e in tx.outputs):
            raise ValueMismatch("amounts must be positive")
        if sum(e.amount for e in tx.inputs) != sum(e.amount for e in tx.outputs):
            raise ValueMismatch("inputs and outputs must sum to the same value")
        if tx.memo_tag is not None and len(tx.memo_tag) != MEMO_TAG_SIZE:
            raise ValueMismatch(f"memo_tag must be {MEMO_TAG_SIZE} bytes")
        unsigned, signatures = codec.unseal(tx)
        if (tx_id := crypto.digest(unsigned)) in self._tx_index:
            raise ValueMismatch("transaction already submitted")
        keys = tx.distinct_input_keys()
        if len(signatures) != len(keys):
            raise BadSignature("one signature per distinct input key required")
        for key, sig in zip(keys, signatures):
            if not crypto.verify(key, unsigned, sig):
                raise BadSignature("input key signature does not verify")
        spend: dict[bytes, int] = {}
        for entry in tx.inputs:
            spend[entry.public_key] = spend.get(entry.public_key, 0) + entry.amount
        for key, amount in spend.items():
            available = self._balances.get(key, 0) - self._pending_spend.get(key, 0)
            if amount > available:
                raise InsufficientFunds(
                    f"spend {amount} exceeds available balance {available}")
        return tx_id

    def confirm_block(self) -> Block:
        """Confirm every mempool transaction at a new height, atomically."""
        height = self.height + 1
        confirmed_ids = tuple(self._mempool)
        for tx_id in confirmed_ids:
            tx = self._tx_index[tx_id]
            for entry in tx.inputs:
                self._balances[entry.public_key] -= entry.amount
            for entry in tx.outputs:
                self._balances[entry.public_key] = (
                    self._balances.get(entry.public_key, 0) + entry.amount)
            self._heights[tx_id] = height
        self._mempool.clear()
        self._pending_spend.clear()
        block = Block(
            height=height,
            prev_hash=self._blocks[-1].block_hash,
            tx_ids=confirmed_ids,
            block_hash=_block_hash(height, self._blocks[-1].block_hash,
                                   confirmed_ids),
        )
        self._blocks.append(block)
        return block

    def query_tx(self, tx_id: bytes) -> LedgerTx:
        try:
            return self._tx_index[tx_id]
        except KeyError:
            raise TxNotFound(tx_id.hex()) from None

    def confirmed_height(self, tx_id: bytes) -> int:
        """The height of the block that confirmed ``tx_id``; 0 while it
        waits in the mempool."""
        self.query_tx(tx_id)
        return self._heights.get(tx_id, 0)

    def confirmed_txs(self, lo_height: int = 1, hi_height: int | None = None) -> list[LedgerTx]:
        """Transactions of the blocks at heights ``lo_height..hi_height``,
        genesis excluded; a block's height is its index in the chain."""
        hi = self.height if hi_height is None else hi_height
        return [self._tx_index[tx_id]
                for block in self._blocks[max(lo_height, 1):max(hi + 1, 0)]
                for tx_id in block.tx_ids]

    def dump_chain(self) -> str:
        """Chain as line-oriented text, transaction ids in hex."""
        lines = []
        for block in self._blocks:
            lines.append(
                f"block height={block.height} hash={block.block_hash.hex()} "
                f"prev={block.prev_hash.hex()} txs={len(block.tx_ids)}")
            for tx_id in block.tx_ids:
                tx = self._tx_index[tx_id]
                memo = tx.memo_tag.hex() if tx.memo_tag else "-"
                ins = ",".join(f"{e.public_key.hex()[:16]}:{e.amount}" for e in tx.inputs)
                outs = ",".join(f"{e.public_key.hex()[:16]}:{e.amount}" for e in tx.outputs)
                lines.append(
                    f"  tx {tx_id.hex()} in=[{ins}] out=[{outs}] memo={memo}")
        return "\n".join(lines) + "\n"
