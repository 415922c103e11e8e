"""Customer-information payloads exchanged between VASPs for asset transfers.

A payload carries the five required information items: originator name,
originator account, one identifying detail about the originator (a
geographic address, national identity number, customer identification
number, or date-and-place of birth), beneficiary name, and beneficiary
account. Payloads are signed with the sending VASP's claims-signing key,
exchanged before the on-chain transfer, and afterwards correlated to the
confirmed ledger transaction, batch transfers included. Consent from both
the originator and the beneficiary gates every exchange.

A payload's id is the digest of its canonical encoding, derived from the
payload and never carried in it. ``codec.seal`` signs a ``SignedPayload``
over the payload and the signer's certificate serial, every field but its
signature, the last. An answer travels as a ``SignedAnswer``, its account
alone, and is verified once rebuilt on its request and the key paid.
The signer checks nothing in ``sign_payload``; a receiver checks the
signer in ``TrustContext.verify_member_signature``, the one check of
every value a member signs.

Payload, consent and correlation stores are append-only. A VASP keeps a
payload on record as its ``SignedPayload``'s canonical bytes, re-headed from
the signing input it signed or verified; ``read_payload_record`` decodes one.
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from . import codec, crypto, pki
from .ledger import Ledger
from .resolver import UnknownCustomer


class TravelRuleError(Exception):
    pass


class IncompleteOriginatorData(TravelRuleError):
    """Originator record lacks every accepted identifying detail."""


class NoMatch(TravelRuleError):
    pass


class AmbiguousMatch(TravelRuleError):
    """Two or more ledger outputs fit and no memo tag disambiguates."""


class IdentifyingKind(Enum):
    GEOGRAPHIC_ADDRESS = "GeographicAddress"
    NATIONAL_ID = "NationalId"
    CUSTOMER_NUMBER = "CustomerNumber"
    BIRTH_INFO = "BirthInfo"


@dataclass(frozen=True)
class IdentifyingInfo:
    """Exactly one identifying detail; ``extra`` is the birth place when
    kind is BIRTH_INFO (value then holds the birth date)."""

    kind: IdentifyingKind
    value: str
    extra: str = ""

    @property
    def present(self) -> bool:
        if self.kind is IdentifyingKind.BIRTH_INFO:
            return bool(self.value.strip()) and bool(self.extra.strip())
        return bool(self.value.strip())


class HintKind(Enum):
    MEMO_TAG = "MemoTag"
    KEY_AMOUNT = "KeyAmount"


@dataclass(frozen=True)
class CorrelationHint:
    """How the payload expects to be matched on-chain.

    MEMO_TAG: the submitting VASP tags the transaction with the payload id.
    KEY_AMOUNT: match the output paying ``expected_amount`` to
    ``expected_key`` (needed for batch transfers sharing one memo).
    """

    kind: HintKind
    expected_key: bytes | None = None
    expected_amount: int | None = None


# The hint of every memo-tagged payload: one value, shared.
MEMO_TAG_HINT = CorrelationHint(HintKind.MEMO_TAG)


@dataclass
class CustomerRecord:
    customer_id: str
    legal_name: str
    geographic_address: str | None = None
    national_id: str | None = None
    customer_number: str | None = None
    birth_info: tuple[str, str] | None = None  # (date, place)


def pick_identifying(customer: CustomerRecord) -> IdentifyingInfo | None:
    """First identifying detail present, in the required listing order."""
    date, place = customer.birth_info or ("", "")
    for kind, value, extra in (
            (IdentifyingKind.GEOGRAPHIC_ADDRESS, customer.geographic_address, ""),
            (IdentifyingKind.NATIONAL_ID, customer.national_id, ""),
            (IdentifyingKind.CUSTOMER_NUMBER, customer.customer_number, ""),
            (IdentifyingKind.BIRTH_INFO, date, place)):
        if (info := IdentifyingInfo(kind, value or "", extra)).present:
            return info
    return None


@dataclass(frozen=True)
class TravelRulePayload:
    originator_name: str
    originator_account: str
    originator_identifying: IdentifyingInfo | None
    beneficiary_name: str
    beneficiary_account: str
    originating_vasp_number: int
    # The originating VASP's count of the transfers it has started: with
    # that VASP's number, it makes every payload id of a run unique.
    transfer_number: int
    beneficiary_vasp_number: int
    amount: int
    correlation: CorrelationHint

    @cached_property
    def payload_id(self) -> bytes:
        return crypto.digest(codec.canonical_encode(self))


REQUIRED_FIELDS = (
    "originator_name",
    "originator_account",
    "originator_identifying",
    "beneficiary_name",
    "beneficiary_account",
)


def build_payload(originator: CustomerRecord,
                  beneficiary_name: str,
                  beneficiary_account: str,
                  beneficiary_vasp_number: int,
                  amount: int,
                  originating_vasp_number: int,
                  transfer_number: int,
                  hint: CorrelationHint | None = None) -> TravelRulePayload:
    identifying = pick_identifying(originator)
    if identifying is None:
        raise IncompleteOriginatorData(
            "originator needs a geographic address, national id, customer "
            "number, or date and place of birth")
    if amount <= 0:
        raise ValueError("amount must be a positive number of minor units")
    return TravelRulePayload(
        originator_name=originator.legal_name,
        originator_account=originator.customer_id,
        originator_identifying=identifying,
        beneficiary_name=beneficiary_name,
        beneficiary_account=beneficiary_account,
        originating_vasp_number=originating_vasp_number,
        transfer_number=transfer_number,
        beneficiary_vasp_number=beneficiary_vasp_number,
        amount=amount,
        correlation=hint or MEMO_TAG_HINT,
    )


def answer_payload(request: TravelRulePayload, beneficiary_account: str,
                   beneficiary_tx_key: bytes) -> TravelRulePayload:
    """The beneficiary VASP's answer to ``request``: the beneficiary's
    account, matched on-chain by the amount paid to ``beneficiary_tx_key``;
    the rest is the request's."""
    return TravelRulePayload(
        originator_name=request.originator_name,
        originator_account=request.originator_account,
        originator_identifying=request.originator_identifying,
        beneficiary_name=request.beneficiary_name,
        beneficiary_account=beneficiary_account,
        originating_vasp_number=request.originating_vasp_number,
        transfer_number=request.transfer_number,
        beneficiary_vasp_number=request.beneficiary_vasp_number,
        amount=request.amount,
        correlation=CorrelationHint(HintKind.KEY_AMOUNT, beneficiary_tx_key,
                                    request.amount))


def validate_payload(payload: TravelRulePayload) -> tuple[str, ...]:
    """The names of the required information items ``payload`` lacks, in
    ``REQUIRED_FIELDS`` order; empty when it is complete. Pure and total."""
    missing = []
    for name in REQUIRED_FIELDS:
        value = getattr(payload, name)
        if name == "originator_identifying":
            present = value is not None and value.present
        else:
            present = bool(value.strip())
        if not present:
            missing.append(name)
    return tuple(missing)


@dataclass(frozen=True)
class SignedPayload:
    payload: TravelRulePayload
    signer_cert_serial: int
    signature: bytes


def sign_payload(claims_private_key: bytes, signer_cert_serial: int,
                 payload: TravelRulePayload) -> tuple[SignedPayload, bytes]:
    """``payload`` sealed, unchecked, under the claims key of certificate
    ``signer_cert_serial``, with its signing input. The payload's id is
    taken from that input, which opens with the payload's bytes."""
    signed, tbs = codec.seal(SignedPayload(payload, signer_cert_serial, b""),
                             lambda tbs: crypto.sign(claims_private_key, tbs))
    vars(payload)["payload_id"] = crypto.digest(codec.first_field(SignedPayload, tbs))
    return signed, tbs


@dataclass(frozen=True)
class SignedAnswer:
    """A signed answer as it travels: the account it names, no hint."""

    beneficiary_account: str
    signer_cert_serial: int
    signature: bytes


def answer_delta(signed: SignedPayload) -> SignedAnswer:
    return SignedAnswer(signed.payload.beneficiary_account,
                        signed.signer_cert_serial, signed.signature)


def rebuild_answer(request: TravelRulePayload, answer: SignedAnswer,
                   beneficiary_tx_key: bytes) -> SignedPayload:
    """The signed answer to ``request`` whose delta is ``answer``, for the
    transaction key the originator pays."""
    return SignedPayload(answer_payload(request, answer.beneficiary_account,
                                        beneficiary_tx_key),
                         answer.signer_cert_serial, answer.signature)


def verify_signed_payload(signed: SignedPayload, tbs: bytes,
                          trust: pki.TrustContext, signer_vasp_number: int) -> bool:
    """``trust.verify_member_signature`` of ``signed``, signing input
    ``tbs``, for member ``signer_vasp_number``: the payload check, named
    so that perfbench can time it."""
    return trust.verify_member_signature(signed, tbs, signer_vasp_number)


class ConsentDirection(Enum):
    SEND_INFO_TO_COUNTERPARTY = "SendInfoToCounterparty"
    RECEIVE_ASSETS = "ReceiveAssets"


@dataclass(slots=True)
class ConsentRecord:
    customer_id: str
    direction: ConsentDirection
    counterparty_vasp_number: int | None
    granted_at: int
    withdrawn_at: int | None = None

    def active(self, now: int) -> bool:
        if self.granted_at > now:
            return False
        return self.withdrawn_at is None or self.withdrawn_at > now


class ConsentStore:
    """Append-only consent records for one VASP's customers.

    ``customers`` is a live view of the owning VASP's customer ids (its
    customer table); consent can only be recorded for known customers.
    """

    def __init__(self, customers: Container[str]):
        self._customers = customers
        self._records: list[ConsentRecord] = []
        # Records by (customer, direction, counterparty scope); None is
        # the unscoped grant that matches every counterparty.
        self._by_scope: dict[tuple[str, ConsentDirection, int | None],
                             list[ConsentRecord]] = {}

    @property
    def records(self) -> list[ConsentRecord]:
        return list(self._records)

    def record(self, customer_id: str, direction: ConsentDirection,
               counterparty: int | None, now: int) -> ConsentRecord:
        if customer_id not in self._customers:
            raise UnknownCustomer(customer_id)
        rec = ConsentRecord(customer_id, direction, counterparty, granted_at=now)
        self._records.append(rec)
        self._by_scope.setdefault((customer_id, direction, counterparty),
                                  []).append(rec)
        return rec

    def withdraw(self, customer_id: str, direction: ConsentDirection,
                 counterparty: int | None, now: int) -> None:
        if customer_id not in self._customers:
            raise UnknownCustomer(customer_id)
        for rec in self._by_scope.get((customer_id, direction, counterparty), ()):
            if rec.active(now):
                rec.withdrawn_at = now

    def check(self, customer_id: str, direction: ConsentDirection,
              counterparty: int | None, now: int) -> bool:
        """True iff an active, scope-matching consent record exists: an
        unscoped one or one scoped to ``counterparty``."""
        scopes = (None,) if counterparty is None else (None, counterparty)
        return any(rec.active(now)
                   for scope in scopes
                   for rec in self._by_scope.get((customer_id, direction, scope), ()))


@dataclass(frozen=True, slots=True)
class CorrelationRecord:
    payload_id: bytes
    tx_id: bytes
    output_index: int
    matched_at_height: int


class CorrelationStore:
    """Matches payloads to confirmed ledger outputs, each output at most once."""

    def __init__(self) -> None:
        self._consumed: set[tuple[bytes, int]] = set()
        self._records: dict[bytes, CorrelationRecord] = {}

    @property
    def records(self) -> list[CorrelationRecord]:
        return list(self._records.values())

    def correlate(self, payload: TravelRulePayload, ledger: Ledger,
                  window: tuple[int, int]) -> CorrelationRecord:
        """Find the unique confirmed (tx, output) this payload covers.

        Memo-tagged transactions match on tag equality with the payload id,
        narrowed by amount if the transaction pays several outputs;
        otherwise the expected (key, amount) pair from the hint must select
        exactly one unconsumed output inside the height window. Only the
        window's blocks are read, so the caller's window bounds the work.
        """
        if validate_payload(payload):
            raise ValueError("payload must be complete before correlation")
        if payload.payload_id in self._records:
            return self._records[payload.payload_id]

        lo, hi = window
        hint = payload.correlation
        memo = hint.kind is HintKind.MEMO_TAG
        wanted = (hint.expected_key, hint.expected_amount)
        candidates: list[tuple[bytes, int]] = []  # (tx id, output index)
        for tx_id, tx in ledger.confirmed_txs(lo, hi):
            if memo and tx.memo_tag != payload.payload_id:
                continue
            fits = [(tx_id, i) for i, out in enumerate(tx.outputs)
                    if (tx_id, i) not in self._consumed
                    and (memo or (out.public_key, out.amount) == wanted)]
            if memo and len(fits) > 1:
                fits = [(t, i) for t, i in fits
                        if tx.outputs[i].amount == payload.amount] or fits
            candidates.extend(fits)

        if not candidates:
            raise NoMatch("no confirmed output matches this payload")
        if len(candidates) > 1:
            raise AmbiguousMatch(
                f"{len(candidates)} outputs match and no tag disambiguates")
        tx_id, index = candidates[0]
        record = CorrelationRecord(
            payload_id=payload.payload_id,
            tx_id=tx_id,
            output_index=index,
            matched_at_height=ledger.height,
        )
        self._consumed.add((tx_id, index))
        self._records[payload.payload_id] = record
        return record


def read_payload_record(data: bytes) -> SignedPayload:
    """The ``SignedPayload`` a payload-store record keeps the bytes of."""
    return codec.canonical_decode(data, SignedPayload)


def dump_payload_store(entries: list[tuple[str, bytes]]) -> str:
    """Payload-store records, (direction, canonical SignedPayload bytes),
    as line-oriented text (direction, id, parties, amount)."""
    lines = []
    for direction, data in entries:
        signed = read_payload_record(data)
        p = signed.payload
        lines.append(
            f"payload {direction} id={p.payload_id.hex()} "
            f"from=vasp:{p.originating_vasp_number} to=vasp:{p.beneficiary_vasp_number} "
            f"originator={p.originator_name!r} beneficiary={p.beneficiary_name!r} "
            f"amount={p.amount} signer_serial={signed.signer_cert_serial}")
    return "\n".join(lines) + ("\n" if lines else "")
