"""Simulated trusted-hardware wallet with remote attestation and boarding.

The device holds an attestation key whose private half never leaves it (no
operation returns it), a set of key slots tagged by origin (generated
internally vs imported) and migratability, and an ordered measurement log
whose running digest fingerprints the wallet's software stack. attest()
truthfully reports every slot, erased slots included, signed over a
verifier-chosen nonce.

Boarding procedures implement the acquiring/releasing VASP duties: check
prior wallet status against the shared registry, re-verify the keys'
on-chain history, flag migratable or imported keys, cut over to fresh
non-migratable keys on on-boarding, and prove erasure of supervised keys on
off-boarding before the wallet returns to private status. A refused
boarding or checkpoint returns the ``pki.Refusal`` member naming why.

The checks here take the key ``TrustContext.certified_key`` gives, so a
device whose certificate is revoked fails every checkpoint and audit, and
its offboarding is refused EVIDENCE_INVALID: it stays Regulated.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from enum import Enum

from . import codec, crypto
from .ledger import Ledger, LedgerTx, make_transfer
from .pki import Refusal

NONCE_SIZE = 32
BOOT_DIGEST_SEED = b"\x00" * crypto.DIGEST_SIZE


class WalletError(Exception):
    pass


class NonMigratable(WalletError):
    """The hardware refuses to export a non-migratable private key."""


class ErasedKey(WalletError):
    pass


class UnknownHandle(WalletError):
    pass


class AttestationRefused(WalletError):
    """The device will not attest."""


class NotSupervised(WalletError):
    pass


class KeyOrigin(Enum):
    GENERATED_INTERNALLY = "GeneratedInternally"
    IMPORTED = "Imported"


@dataclass(frozen=True)
class KeyReport:
    handle: int
    public_key: bytes
    origin: KeyOrigin
    migratable: bool
    erased: bool


@dataclass(frozen=True)
class StackReport:
    measurement_log: tuple[tuple[str, bytes], ...]
    boot_digest: bytes


@dataclass(frozen=True)
class AttestationEvidence:
    device_id: str
    nonce: bytes
    key_reports: tuple[KeyReport, ...]
    stack_report: StackReport
    signature: bytes


def fold_boot_digest(log: tuple[tuple[str, bytes], ...]) -> bytes:
    acc = BOOT_DIGEST_SEED
    for name, measurement in log:
        acc = crypto.digest(acc + codec.canonical_encode(name) + measurement)
    return acc


class WalletDevice:
    """Trusted hardware: key slots, measured stack, truthful attestation.

    Private key material lives in a table separate from the reported slot
    records; no public operation ever returns the attestation key or a
    non-migratable slot's private half.
    """

    def __init__(self, device_id: str, seed: bytes,
                 initial_stack: list[tuple[str, bytes]]):
        self.device_id = device_id
        self._seed = seed
        self._counter = 0
        self._attestation = crypto.generate_keypair(
            crypto.derive_seed(seed, "attestation-key"))
        self._slots: dict[int, KeyReport] = {}
        self._private: dict[int, bytes] = {}
        self.measurement_log: tuple[tuple[str, bytes], ...] = tuple(initial_stack)
        self.boot_digest = fold_boot_digest(self.measurement_log)
        self.attestation_enabled = True

    @property
    def attestation_public_key(self) -> bytes:
        return self._attestation.public_key

    def handles(self) -> list[int]:
        return sorted(self._slots)

    def slot(self, handle: int) -> KeyReport:
        try:
            return self._slots[handle]
        except KeyError:
            raise UnknownHandle(f"no key slot {handle}") from None

    def _add_slot(self, pair: crypto.KeyPair, origin: KeyOrigin,
                  migratable: bool) -> int:
        handle = self._counter = self._counter + 1
        self._slots[handle] = KeyReport(handle, pair.public_key, origin,
                                        migratable, erased=False)
        self._private[handle] = pair.private_key
        return handle

    def generate_key(self, migratable: bool) -> int:
        seed = crypto.derive_seed(self._seed, f"slot:{self._counter + 1}")
        return self._add_slot(crypto.generate_keypair(seed),
                              KeyOrigin.GENERATED_INTERNALLY, migratable)

    def import_key(self, keypair: crypto.KeyPair) -> int:
        # Imported private material existed outside the hardware, so the
        # slot is unconditionally migratable.
        return self._add_slot(keypair, KeyOrigin.IMPORTED, migratable=True)

    def export_key(self, handle: int) -> crypto.KeyPair:
        slot = self.slot(handle)
        if slot.erased:
            raise ErasedKey(f"slot {handle} is erased")
        if not slot.migratable:
            raise NonMigratable(f"slot {handle} cannot be extracted")
        return crypto.KeyPair(slot.public_key, self._private[handle])

    def erase_key(self, handle: int) -> None:
        """Destroy the private half; the slot stays visible, flagged erased."""
        slot = self.slot(handle)
        if not slot.erased:
            self._slots[handle] = replace(slot, erased=True)
            self._private.pop(handle, None)

    def sign(self, handle: int, message: bytes) -> bytes:
        slot = self.slot(handle)
        if slot.erased:
            raise ErasedKey(f"slot {handle} is erased and cannot sign")
        return crypto.sign(self._private[handle], message)

    def signer(self, handle: int):
        return lambda message: self.sign(handle, message)

    def attest(self, nonce: bytes) -> AttestationEvidence:
        """Signed, truthful report of every slot and the measured stack.
        It carries no time: its freshness is the verifier's ``nonce``
        (RFC 9334 §10)."""
        if not self.attestation_enabled:
            raise AttestationRefused(f"{self.device_id} will not attest")
        if len(nonce) != NONCE_SIZE:
            raise ValueError(f"nonce must be {NONCE_SIZE} bytes")
        return codec.seal(AttestationEvidence(
            device_id=self.device_id,
            nonce=nonce,
            key_reports=tuple(self._slots[h] for h in sorted(self._slots)),
            stack_report=StackReport(self.measurement_log, self.boot_digest),
            signature=b"",
        ), lambda tbs: crypto.sign(self._attestation.private_key, tbs))[0]


@dataclass(frozen=True)
class VerifierVerdict:
    signature_ok: bool
    nonce_fresh: bool
    stack_approved: bool
    key_findings: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.signature_ok and self.nonce_fresh and self.stack_approved


def verify_evidence(evidence: AttestationEvidence,
                    expected_nonce: bytes,
                    device_attestation_public_key: bytes,
                    approved_stack_digests: set[bytes]) -> VerifierVerdict:
    """Check evidence authenticity, freshness and stack approval.

    Key findings (imported or migratable keys present) are reported but do
    not fail the verdict; the risk decision belongs to the caller.
    """
    signature_ok = crypto.verify(device_attestation_public_key,
                                 *codec.unseal(evidence))
    nonce_fresh = evidence.nonce == expected_nonce
    stack = evidence.stack_report
    stack_approved = (fold_boot_digest(stack.measurement_log) == stack.boot_digest
                      and stack.boot_digest in approved_stack_digests)
    findings = []
    for report in evidence.key_reports:
        if report.origin is KeyOrigin.IMPORTED:
            findings.append(f"imported key present (handle {report.handle})")
        elif report.migratable and not report.erased:
            findings.append(f"migratable key present (handle {report.handle})")
    return VerifierVerdict(signature_ok, nonce_fresh, stack_approved,
                           tuple(findings))


class WalletClass(Enum):
    REGULATED = "Regulated"
    PRIVATE = "Private"


@dataclass(frozen=True)
class WalletStatus:
    classification: WalletClass
    supervising_vasp_number: int | None
    since: int


class WalletRegistry:
    """Consortium-shared table of wallet regulatory status, by device id."""

    def __init__(self) -> None:
        self._status: dict[str, WalletStatus] = {}

    def status(self, device_id: str) -> WalletStatus:
        return self._status.get(device_id,
                                WalletStatus(WalletClass.PRIVATE, None, 0))

    def set_regulated(self, device_id: str, vasp_number: int, now: int) -> None:
        self._status[device_id] = WalletStatus(WalletClass.REGULATED,
                                               vasp_number, now)

    def set_private(self, device_id: str, now: int) -> None:
        self._status[device_id] = WalletStatus(WalletClass.PRIVATE, None, now)


@dataclass(frozen=True)
class KeyTransition:
    old_handles: tuple[int, ...]
    new_handle: int


@dataclass(frozen=True)
class BoardingReport:
    """The outcome of an on- or off-boarding; ``reason`` names the first
    check that failed of a refused one, and is None for an accepted one."""

    accepted: bool
    reason: Refusal | None
    key_transition: KeyTransition | None
    erasure_evidence: AttestationEvidence | None


@dataclass
class SupervisionRecord:
    """A VASP's record of one supervised wallet."""

    customer_id: str
    device_id: str
    supervised_handles: list[int]
    since: int
    checkpoints: list[AttestationEvidence] = field(default_factory=list)
    # An offboarding's handoff key and its last signed moves there, by the
    # supervised handle each spends from, held until the erasure is proven.
    handoff: tuple[int, dict[int, LedgerTx]] | None = None


def check_key_history(device: WalletDevice, ledger: Ledger) -> bool:
    """True iff every confirmed spend from a wallet key was genuinely
    signed by that key (the customer's historical transactions add up)."""
    wallet_keys = {device.slot(h).public_key for h in device.handles()}
    for _, tx in ledger.confirmed_txs():
        keys = tx.distinct_input_keys()
        for key, sig in zip(keys, tx.signatures):
            if key in wallet_keys and not crypto.verify(
                    key, codec.struct_bytes(tx), sig):
                return False
    return True


def challenge(device: WalletDevice, nonce: bytes
              ) -> AttestationEvidence | Refusal:
    """The device's evidence over ``nonce``; ATTESTATION_REFUSED if the
    device will not attest or ``nonce`` is not NONCE_SIZE bytes."""
    if len(nonce) != NONCE_SIZE:
        return Refusal.ATTESTATION_REFUSED
    try:
        return device.attest(nonce)
    except AttestationRefused:
        return Refusal.ATTESTATION_REFUSED


def _fresh_evidence(device: WalletDevice, nonce: bytes,
                    attestation_key: bytes) -> AttestationEvidence | Refusal:
    """Evidence from the device, signed by the expected attestation key
    over the nonce just issued; or ATTESTATION_REFUSED, or
    EVIDENCE_INVALID."""
    evidence = challenge(device, nonce)
    if isinstance(evidence, Refusal):
        return evidence
    if not crypto.verify(attestation_key, *codec.unseal(evidence)):
        return Refusal.EVIDENCE_INVALID
    if evidence.nonce != nonce:
        return Refusal.EVIDENCE_INVALID
    return evidence


def _moves(device: WalletDevice, handles: Iterable[int], to_key: bytes,
           ledger: Ledger) -> dict[int, LedgerTx]:
    """By handle, one transfer of the whole available balance of each live
    key among ``handles`` to ``to_key``, signed on ``device``."""
    moves = {}
    for handle in handles:
        slot = device.slot(handle)
        balance = ledger.available(slot.public_key)
        if balance > 0 and not slot.erased:
            moves[handle] = make_transfer(
                inputs=[(slot.public_key, balance)],
                outputs=[(to_key, balance)],
                signers={slot.public_key: device.signer(handle)})
    return moves


def onboard_customer(acquiring_vasp_number: int,
                     customer_id: str,
                     device: WalletDevice,
                     ledger: Ledger,
                     registry: WalletRegistry,
                     nonce: bytes,
                     now: int,
                     *, attestation_key: bytes
                     ) -> tuple[BoardingReport, SupervisionRecord | None]:
    """Acquire a customer's wallet under supervision.

    ``attestation_key`` is the device's attestation key as the consortium
    certifies it; the device's own claim about its key is not trusted.
    Checks the device's evidence, prior status, key history, then
    that no imported key still holds assets, and refuses under the first
    that fails; else cuts assets over to a freshly generated non-migratable
    key so responsibility starts on a clean key. The asset move is
    submitted to the ledger mempool; the caller confirms the block.
    """
    evidence = _fresh_evidence(device, nonce, attestation_key)
    prior = registry.status(device.device_id)
    if isinstance(evidence, Refusal):
        refusal = evidence
    elif (prior.classification is not WalletClass.PRIVATE
            and prior.supervising_vasp_number != acquiring_vasp_number):
        refusal = Refusal.WALLET_SUPERVISED_ELSEWHERE
    elif not check_key_history(device, ledger):
        refusal = Refusal.KEY_HISTORY_INVALID
    elif any(r.origin is KeyOrigin.IMPORTED and not r.erased
             and ledger.balance(r.public_key) > 0 for r in evidence.key_reports):
        refusal = Refusal.FUNDED_KEY_NOT_MIGRATED
    else:
        refusal = None
    if refusal is not None:
        return BoardingReport(False, refusal, None, None), None

    old_handles = tuple(h for h in device.handles() if not device.slot(h).erased)
    new_handle = device.generate_key(migratable=False)
    for move in _moves(device, old_handles,
                       device.slot(new_handle).public_key, ledger).values():
        ledger.submit_transfer(move)

    registry.set_regulated(device.device_id, acquiring_vasp_number, now)
    report = BoardingReport(True, None, KeyTransition(old_handles, new_handle),
                            None)
    supervision = SupervisionRecord(customer_id, device.device_id,
                                    [new_handle], now, [evidence])
    return report, supervision


def offboard_customer(releasing_vasp_number: int,
                      customer_id: str,
                      device: WalletDevice,
                      ledger: Ledger,
                      registry: WalletRegistry,
                      supervision: SupervisionRecord,
                      nonce: bytes,
                      erasure_nonce: bytes,
                      now: int,
                      *, attestation_key: bytes) -> BoardingReport:
    """Release a supervised wallet back to private status.

    The device is challenged first, over ``nonce``: a wallet that will not
    attest, or whose evidence fails, or whose key history does not verify,
    is refused with nothing changed. Else the device signs the moves of
    the supervised keys' assets to one migratable handoff key (made once,
    held on ``supervision``), every supervised non-migratable key is
    erased, and fresh evidence over ``erasure_nonce`` must prove the
    erasure before the moves are submitted (ending the VASP's Travel Rule
    responsibility) and the wallet made private. Both evidences must
    verify under ``attestation_key``. A refused wallet stays regulated
    and submits nothing; a retry signs each live key's move again, over
    its balance then, and keeps the move held for a key already erased.
    The moves go to the ledger mempool; the caller confirms the block.
    """
    status = registry.status(device.device_id)
    if (status.classification is not WalletClass.REGULATED
            or status.supervising_vasp_number != releasing_vasp_number
            or supervision.customer_id != customer_id
            or supervision.device_id != device.device_id):
        raise NotSupervised(
            f"{device.device_id} is not supervised by vasp {releasing_vasp_number}")

    evidence = _fresh_evidence(device, nonce, attestation_key)
    if isinstance(evidence, Refusal):
        return BoardingReport(False, evidence, None, None)
    if not check_key_history(device, ledger):
        return BoardingReport(False, Refusal.KEY_HISTORY_INVALID, None, None)

    if supervision.handoff is None:
        supervision.handoff = device.generate_key(migratable=True), {}
    handoff_handle, held = supervision.handoff
    moves = {h: m for h, m in held.items() if device.slot(h).erased} | _moves(
        device, supervision.supervised_handles,
        device.slot(handoff_handle).public_key, ledger)
    supervision.handoff = handoff_handle, moves

    to_erase = [h for h in supervision.supervised_handles
                if not device.slot(h).migratable]
    for handle in to_erase:
        device.erase_key(handle)

    evidence = _fresh_evidence(device, erasure_nonce, attestation_key)
    if isinstance(evidence, Refusal):
        return BoardingReport(False, evidence, None, None)
    reported = {r.handle: r for r in evidence.key_reports}
    if any(h not in reported or not reported[h].erased for h in to_erase):
        return BoardingReport(False, Refusal.ERASURE_NOT_PROVEN, None, None)

    for move in moves.values():
        ledger.submit_transfer(move)
    registry.set_private(device.device_id, now)
    return BoardingReport(
        True, None, KeyTransition(tuple(supervision.supervised_handles),
                                  handoff_handle), evidence)


def take_checkpoint(supervision: SupervisionRecord, device: WalletDevice,
                    nonce: bytes, attestation_key: bytes
                    ) -> AttestationEvidence | Refusal:
    """Record and return fresh evidence from a supervised device if it
    verifies under ``attestation_key`` and answers ``nonce``; else record
    nothing and return why not."""
    evidence = _fresh_evidence(device, nonce, attestation_key)
    if not isinstance(evidence, Refusal):
        supervision.checkpoints.append(evidence)
    return evidence
