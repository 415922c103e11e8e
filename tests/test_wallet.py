"""Trusted-hardware wallet: attestation truthfulness, boarding procedures."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from conftest import seed
from vasptrust import codec, crypto, wallet
from vasptrust.ledger import Ledger, make_transfer
from vasptrust.netsim import build_world
from vasptrust.netsim.world import CHECKPOINT_INTERVAL
from vasptrust.pki import Refusal

STACK = [("bootloader", crypto.digest(b"boot-1")),
         ("wallet-os", crypto.digest(b"os-1"))]


def fresh_device(label="dev", stack=None):
    return wallet.WalletDevice(f"wdev:{label}", seed(f"device:{label}"),
                               stack if stack is not None else STACK)


def nonce(i=0):
    return crypto.digest(f"nonce:{i}".encode())


def corrupt_signature(ledger, tx_id) -> None:
    """Flip one bit of the first recorded signature of confirmed ``tx_id``."""
    stored = ledger.query_tx(tx_id)
    forged = stored.signatures[0][:-1] + bytes([stored.signatures[0][-1] ^ 1])
    ledger._tx_index[tx_id] = type(stored)(
        stored.inputs, stored.outputs, stored.memo_tag, (forged,))


def boarding_events(world, since=0) -> list[tuple]:
    """(event, accepted, reason) of each ``boarding.*`` event from the
    ``since``-th on."""
    return [(e.event, e.get("accepted"), e.get("reason"))
            for e in world.sim.trace.events[since:]
            if e.event.startswith("boarding.")]


class TestDevice:
    def test_fresh_device(self):
        device = fresh_device()
        assert device.handles() == []
        assert len(device.measurement_log) == len(STACK)

    def test_boot_digest_deterministic(self):
        a = wallet.WalletDevice("d", b"\x01" * 32, STACK)
        b = wallet.WalletDevice("d", b"\x01" * 32, STACK)
        assert a.boot_digest == b.boot_digest

    def test_boot_digest_sensitive_to_stack(self):
        other = [("bootloader", crypto.digest(b"boot-1")),
                 ("wallet-os", crypto.digest(b"os-EVIL"))]
        assert fresh_device().boot_digest != fresh_device("dev2", other).boot_digest

    def test_generate_key_flags(self):
        device = fresh_device()
        h1 = device.generate_key(migratable=False)
        h2 = device.generate_key(migratable=True)
        assert (device.slot(h1).origin, device.slot(h1).migratable) == \
            (wallet.KeyOrigin.GENERATED_INTERNALLY, False)
        assert device.slot(h2).migratable is True

    def test_handles_unique_over_100_generations(self):
        device = fresh_device()
        handles = [device.generate_key(bool(i % 2)) for i in range(100)]
        assert len(set(handles)) == 100
        keys = {device.slot(h).public_key for h in handles}
        assert len(keys) == 100

    def test_import_always_migratable(self):
        device = fresh_device()
        pair = crypto.generate_keypair(seed("import-me"))
        handle = device.import_key(pair)
        slot = device.slot(handle)
        assert (slot.origin, slot.migratable) == (wallet.KeyOrigin.IMPORTED, True)
        sig = device.sign(handle, b"msg")
        assert crypto.verify(pair.public_key, b"msg", sig)

    def test_export_rules(self):
        device = fresh_device()
        migratable = device.generate_key(migratable=True)
        fixed = device.generate_key(migratable=False)
        exported = device.export_key(migratable)
        assert exported.public_key == device.slot(migratable).public_key
        with pytest.raises(wallet.NonMigratable):
            device.export_key(fixed)
        device.erase_key(migratable)
        with pytest.raises(wallet.ErasedKey):
            device.export_key(migratable)

    def test_erase_semantics(self):
        device = fresh_device()
        handle = device.generate_key(migratable=False)
        device.erase_key(handle)
        device.erase_key(handle)  # idempotent
        with pytest.raises(wallet.ErasedKey):
            device.sign(handle, b"x")
        evidence = device.attest(nonce())
        report = next(r for r in evidence.key_reports if r.handle == handle)
        assert report.erased is True

    def test_unknown_handle(self):
        with pytest.raises(wallet.UnknownHandle):
            fresh_device().erase_key(5)


class TestAttestation:
    def test_fresh_device_attests_empty(self):
        device = fresh_device()
        evidence = device.attest(nonce())
        assert evidence.key_reports == ()
        assert evidence.nonce == nonce()
        verdict = wallet.verify_evidence(evidence, nonce(),
                                         device.attestation_public_key,
                                         {device.boot_digest})
        assert verdict.passed

    def test_replay_against_new_nonce_rejected(self):
        device = fresh_device()
        evidence = device.attest(nonce(1))
        verdict = wallet.verify_evidence(evidence, nonce(2),
                                         device.attestation_public_key,
                                         {device.boot_digest})
        assert not verdict.nonce_fresh and not verdict.passed

    def test_unapproved_stack_fails(self):
        device = fresh_device()
        evidence = device.attest(nonce())
        verdict = wallet.verify_evidence(evidence, nonce(),
                                         device.attestation_public_key,
                                         {crypto.digest(b"other stack")})
        assert not verdict.stack_approved and not verdict.passed

    def test_imported_key_is_finding_not_failure(self):
        device = fresh_device()
        device.import_key(crypto.generate_keypair(seed("imp")))
        evidence = device.attest(nonce())
        verdict = wallet.verify_evidence(evidence, nonce(),
                                         device.attestation_public_key,
                                         {device.boot_digest})
        assert verdict.passed
        assert any("imported" in f for f in verdict.key_findings)

    def test_every_byte_tamper_breaks_evidence(self):
        device = fresh_device()
        device.generate_key(migratable=False)
        evidence = device.attest(nonce())
        blob = codec.canonical_encode(evidence)
        rng = random.Random(9)
        for index in range(len(blob)):
            tampered = bytearray(blob)
            tampered[index] ^= rng.randint(1, 255)
            try:
                decoded = codec.canonical_decode(bytes(tampered),
                                                 wallet.AttestationEvidence)
            except codec.DecodeError:
                continue
            verdict = wallet.verify_evidence(decoded, nonce(),
                                             device.attestation_public_key,
                                             {device.boot_digest})
            assert not verdict.passed, f"byte {index}"

    def test_refusing_device(self):
        device = fresh_device()
        device.attestation_enabled = False
        with pytest.raises(wallet.AttestationRefused):
            device.attest(nonce())
        assert wallet.challenge(device, nonce()) is Refusal.ATTESTATION_REFUSED


class ShadowModel:
    """Independent replay of device operations for oracle comparison."""

    def __init__(self):
        self.slots = {}
        self.next = 0

    def generate(self, public_key, migratable):
        self.next += 1
        self.slots[self.next] = (public_key, "GeneratedInternally",
                                 migratable, False)
        return self.next

    def import_(self, public_key):
        self.next += 1
        self.slots[self.next] = (public_key, "Imported", True, False)
        return self.next

    def erase(self, handle):
        if handle in self.slots:
            key, origin, migratable, _ = self.slots[handle]
            self.slots[handle] = (key, origin, migratable, True)

    def expected_reports(self):
        return [(h, *self.slots[h]) for h in sorted(self.slots)]


def test_attestation_matches_shadow_model_over_random_sequences():
    rng = random.Random(0xA77E57)
    for trial in range(200):
        device = wallet.WalletDevice(f"d{trial}", rng.randbytes(32), STACK)
        shadow = ShadowModel()
        for _ in range(rng.randint(1, 12)):
            op = rng.choice(("gen", "gen", "import", "erase", "export", "sign"))
            if op == "gen":
                migratable = rng.random() < 0.5
                handle = device.generate_key(migratable)
                shadow.generate(device.slot(handle).public_key, migratable)
            elif op == "import":
                pair = crypto.generate_keypair(rng.randbytes(32))
                device.import_key(pair)
                shadow.import_(pair.public_key)
            elif op == "erase" and shadow.slots:
                handle = rng.choice(sorted(shadow.slots))
                device.erase_key(handle)
                shadow.erase(handle)
            elif op == "export" and shadow.slots:
                handle = rng.choice(sorted(shadow.slots))
                _, _, migratable, erased = shadow.slots[handle]
                if erased:
                    with pytest.raises(wallet.ErasedKey):
                        device.export_key(handle)
                elif not migratable:
                    with pytest.raises(wallet.NonMigratable):
                        device.export_key(handle)
                else:
                    device.export_key(handle)
            elif op == "sign" and shadow.slots:
                handle = rng.choice(sorted(shadow.slots))
                erased = shadow.slots[handle][3]
                if erased:
                    with pytest.raises(wallet.ErasedKey):
                        device.sign(handle, b"m")
                else:
                    device.sign(handle, b"m")
        evidence = device.attest(nonce(trial))
        reported = [(r.handle, r.public_key, r.origin.value, r.migratable,
                     r.erased) for r in evidence.key_reports]
        assert reported == shadow.expected_reports()


def test_no_operation_output_leaks_nonmigratable_private_key():
    # The generated slot's private seed is derivable from the device seed;
    # recompute it independently and scan every operation output for it.
    device_seed = seed("leak-check")
    device = wallet.WalletDevice("leaky?", device_seed, STACK)
    handle = device.generate_key(migratable=False)
    private = crypto.derive_seed(device_seed, f"slot:{handle}")
    attestation_private = crypto.derive_seed(device_seed, "attestation-key")

    outputs: list[bytes] = []
    outputs.append(codec.canonical_encode(device.attest(nonce())))
    outputs.append(device.sign(handle, b"message"))
    outputs.append(device.slot(handle).public_key)
    try:
        device.export_key(handle)
    except wallet.NonMigratable as exc:
        outputs.append(str(exc).encode())
    blob = b"".join(outputs)
    assert private not in blob
    assert private.hex().encode() not in blob
    assert attestation_private not in blob


class TestBoarding:
    def setup_world(self, balance=500, imported_balance=0):
        device = fresh_device("board")
        handle = device.generate_key(migratable=False)
        allocations = [(device.slot(handle).public_key, balance)]
        if imported_balance:
            pair = crypto.generate_keypair(seed("board-import"))
            device.import_key(pair)
            allocations.append((pair.public_key, imported_balance))
        ledger = Ledger(allocations)
        registry = wallet.WalletRegistry()
        return device, ledger, registry, handle

    def test_clean_onboard(self):
        device, ledger, registry, old = self.setup_world()
        report, supervision = wallet.onboard_customer(
            7, "alice", device, ledger, registry, nonce(), now=1,
            attestation_key=device.attestation_public_key)
        ledger.confirm_block()
        assert report.accepted
        assert report.key_transition.old_handles == (old,)
        new_handle = report.key_transition.new_handle
        assert not device.slot(new_handle).migratable
        assert ledger.balance(device.slot(new_handle).public_key) == 500
        assert ledger.balance(device.slot(old).public_key) == 0
        assert registry.status(device.device_id).classification \
            is wallet.WalletClass.REGULATED
        assert supervision.supervised_handles == [new_handle]

    def test_imported_key_with_assets_rejected_by_default(self):
        device, ledger, registry, _ = self.setup_world(imported_balance=50)
        report, supervision = wallet.onboard_customer(
            7, "alice", device, ledger, registry, nonce(), now=1,
            attestation_key=device.attestation_public_key)
        assert not report.accepted
        assert supervision is None
        assert report.reason is Refusal.FUNDED_KEY_NOT_MIGRATED
        assert registry.status(device.device_id).classification \
            is wallet.WalletClass.PRIVATE

    def test_refusal_names_the_first_failing_check(self):
        # Each wallet also holds a funded imported key, the last check's
        # failure: the check before it is the one named.
        device, ledger, registry, _ = self.setup_world(imported_balance=50)
        registry.set_regulated(device.device_id, 3, 0)
        report, _ = wallet.onboard_customer(
            7, "alice", device, ledger, registry, nonce(), now=1,
            attestation_key=device.attestation_public_key)
        assert report.reason is Refusal.WALLET_SUPERVISED_ELSEWHERE

        device, ledger, registry, handle = self.setup_world(imported_balance=50)
        key = device.slot(handle).public_key
        tx_id = ledger.submit_transfer(make_transfer(
            [(key, 100)], [(b"\x02" * 32, 100)], {key: device.signer(handle)}))
        ledger.confirm_block()
        corrupt_signature(ledger, tx_id)
        report, supervision = wallet.onboard_customer(
            7, "alice", device, ledger, registry, nonce(), now=1,
            attestation_key=device.attestation_public_key)
        assert (report.accepted, report.reason, supervision) == \
            (False, Refusal.KEY_HISTORY_INVALID, None)

    def test_onboard_policy_matrix(self):
        # imported balance -> accepted: an imported key holding assets is
        # refused, an empty one is not.
        for imported, expect in [(0, True), (50, False)]:
            device, ledger, registry, _ = self.setup_world(
                imported_balance=imported)
            report, _ = wallet.onboard_customer(
                7, "a", device, ledger, registry, nonce(), 1,
                attestation_key=device.attestation_public_key)
            assert report.accepted == expect, imported

    def test_attestation_refusal_fails_onboarding(self):
        device, ledger, registry, _ = self.setup_world()
        device.attestation_enabled = False
        report, supervision = wallet.onboard_customer(
            7, "alice", device, ledger, registry, nonce(), 1,
            attestation_key=device.attestation_public_key)
        assert (report.accepted, report.reason, supervision) == \
            (False, Refusal.ATTESTATION_REFUSED, None)
        assert registry.status(device.device_id).classification \
            is wallet.WalletClass.PRIVATE

    def test_inconsistent_key_history_detected(self):
        device, ledger, registry, handle = self.setup_world()
        key = device.slot(handle).public_key
        other = crypto.generate_keypair(seed("spender"))
        tx = make_transfer([(key, 100)], [(other.public_key, 100)],
                           {key: device.signer(handle)})
        tx_id = ledger.submit_transfer(tx)
        ledger.confirm_block()
        # Corrupt the recorded signature after confirmation; the history
        # check must notice the spend no longer verifies.
        corrupt_signature(ledger, tx_id)
        assert not wallet.check_key_history(device, ledger)

    def _onboarded(self):
        device, ledger, registry, _ = self.setup_world()
        report, supervision = wallet.onboard_customer(
            7, "alice", device, ledger, registry, nonce(), now=1,
            attestation_key=device.attestation_public_key)
        ledger.confirm_block()
        return device, ledger, registry, supervision

    def test_offboard_accepted_with_erasure_evidence(self):
        device, ledger, registry, supervision = self._onboarded()
        supervised = list(supervision.supervised_handles)
        height = ledger.height
        report = wallet.offboard_customer(7, "alice", device, ledger,
                                          registry, supervision, nonce(9), 9)
        assert report.accepted
        assert ledger.height == height  # the caller confirms the asset move
        ledger.confirm_block()
        evidence = report.erasure_evidence
        reported = {r.handle: r for r in evidence.key_reports}
        assert all(reported[h].erased for h in supervised
                   if not reported[h].migratable)
        handoff = report.key_transition.new_handle
        assert device.slot(handoff).migratable
        assert ledger.balance(device.slot(handoff).public_key) == 500
        assert registry.status(device.device_id).classification \
            is wallet.WalletClass.PRIVATE

    def test_offboard_refused_on_bad_key_history(self):
        device, ledger, registry, supervision = self._onboarded()
        (cutover,) = [tx_id for tx_id, tx in ledger.confirmed_txs()
                      if tx.signatures]
        corrupt_signature(ledger, cutover)
        handles = device.handles()
        report = wallet.offboard_customer(7, "alice", device, ledger,
                                          registry, supervision, nonce(9), 9)
        assert not report.accepted
        assert report.reason is Refusal.KEY_HISTORY_INVALID
        assert report.key_transition is None and report.erasure_evidence is None
        assert device.handles() == handles  # no handoff key
        assert not any(device.slot(h).erased for h in handles)
        assert registry.status(device.device_id).classification \
            is wallet.WalletClass.REGULATED

    def test_offboard_requires_supervision(self):
        device, ledger, registry, supervision = self._onboarded()
        with pytest.raises(wallet.NotSupervised):
            wallet.offboard_customer(9, "alice", device, ledger, registry,
                                     supervision, nonce(), 9)

    def test_device_skipping_erasure_yields_erasure_not_proven(self):
        class StubbornDevice(wallet.WalletDevice):
            def erase_key(self, handle):  # ignores erasure, attests truthfully
                pass

        device = StubbornDevice("wdev:stubborn", seed("stubborn"), STACK)
        handle = device.generate_key(migratable=False)
        ledger = Ledger([(device.slot(handle).public_key, 100)])
        registry = wallet.WalletRegistry()
        _, supervision = wallet.onboard_customer(
            7, "alice", device, ledger, registry, nonce(), 1,
            attestation_key=device.attestation_public_key)
        ledger.confirm_block()
        report = wallet.offboard_customer(7, "alice", device, ledger, registry,
                                          supervision, nonce(2), 9)
        assert (report.accepted, report.reason) == \
            (False, Refusal.ERASURE_NOT_PROVEN)
        assert registry.status(device.device_id).classification \
            is wallet.WalletClass.REGULATED

    def test_impostor_device_refused_at_onboarding(self):
        # An emulator answers under the registered device's id with an
        # attestation key of its own, and reports that key as its own.
        device, ledger, registry, _ = self.setup_world()
        impostor = wallet.WalletDevice(device.device_id, seed("impostor"),
                                       STACK)
        report, supervision = wallet.onboard_customer(
            7, "alice", impostor, ledger, registry, nonce(), 1,
            attestation_key=device.attestation_public_key)
        assert (report.accepted, report.reason, supervision) == \
            (False, Refusal.EVIDENCE_INVALID, None)
        assert registry.status(device.device_id).classification \
            is wallet.WalletClass.PRIVATE

    @pytest.mark.parametrize("fault, reason", [
        ("impostor", "evidence_invalid"), ("mute", "attestation_refused")])
    def test_device_fault_refuses_onboarding_by_vasp_node(
            self, demo_config, fault, reason):
        # An emulator answers under the registered device's id with an
        # attestation key of its own, or the device will not attest: the
        # onboarding is refused, and the wallet stays private.
        world = build_world(demo_config)
        vasp, genuine = world.vasps[7], world.devices["wdev:alice@7"]
        if fault == "impostor":
            device = wallet.WalletDevice(genuine.device_id, seed("impostor"),
                                         STACK)
        else:
            device = genuine
            device.attestation_enabled = False
        report = vasp.onboard("alice", device)
        assert (report.accepted, report.reason) == (False, Refusal(reason))
        assert boarding_events(world) == [("boarding.onboard", False, reason)]
        assert "alice" not in vasp.supervision
        assert vasp.devices[genuine.device_id] is genuine
        assert world.registry.status(genuine.device_id).classification \
            is wallet.WalletClass.PRIVATE

    @pytest.mark.parametrize("fault, reason", [
        ("mute", "attestation_refused"), ("stubborn", "erasure_not_proven")])
    def test_device_fault_refuses_offboarding_by_vasp_node(
            self, demo_config, monkeypatch, fault, reason):
        # After onboarding, the device stops attesting, or ignores erasure
        # and attests truthfully: the offboarding is refused, and the wallet
        # stays supervised and regulated.
        world = build_world(demo_config)
        vasp, device = world.vasps[7], world.devices["wdev:alice@7"]
        assert vasp.onboard("alice", device).accepted
        world.confirm_block()
        supervision = vasp.supervision["alice"]
        if fault == "mute":
            device.attestation_enabled = False
        else:
            monkeypatch.setattr(device, "erase_key", lambda handle: None)
        since = len(world.sim.trace.events)
        report = vasp.offboard("alice", device)
        assert (report.accepted, report.reason) == (False, Refusal(reason))
        assert boarding_events(world, since) == [
            ("boarding.offboard", False, reason)]
        assert vasp.supervision["alice"] is supervision
        status = world.registry.status(device.device_id)
        assert (status.classification, status.supervising_vasp_number) == \
            (wallet.WalletClass.REGULATED, 7)

    def test_forged_erasure_evidence_refused(self):
        class ForgingDevice(wallet.WalletDevice):
            """Once forging, keeps its keys and claims their erasure in
            evidence signed by a key of its own."""

            forging = False

            def erase_key(self, handle):
                if not self.forging:
                    super().erase_key(handle)

            def attest(self, nonce):
                evidence = super().attest(nonce)
                if not self.forging:
                    return evidence
                forger = crypto.generate_keypair(seed("forger"))
                claimed = replace(evidence, key_reports=tuple(
                    replace(r, erased=True) for r in evidence.key_reports))
                return replace(claimed, signature=crypto.sign(
                    forger.private_key, codec.struct_bytes(claimed)))

        device = ForgingDevice("wdev:forging", seed("forging"), STACK)
        handle = device.generate_key(migratable=False)
        ledger = Ledger([(device.slot(handle).public_key, 100)])
        registry = wallet.WalletRegistry()
        _, supervision = wallet.onboard_customer(
            7, "alice", device, ledger, registry, nonce(), 1,
            attestation_key=device.attestation_public_key)
        ledger.confirm_block()
        device.forging = True
        report = wallet.offboard_customer(7, "alice", device, ledger, registry,
                                          supervision, nonce(2), 9)
        assert (report.accepted, report.reason) == \
            (False, Refusal.EVIDENCE_INVALID)
        assert registry.status(device.device_id).classification \
            is wallet.WalletClass.REGULATED

    def test_replayed_erasure_evidence_refused(self):
        class ReplayingDevice(wallet.WalletDevice):
            """Answers every challenge with one fixed nonce."""

            def attest(self, nonce_):
                return super().attest(nonce(99))

        device = ReplayingDevice("wdev:replay", seed("replay"), STACK)
        handle = device.generate_key(migratable=False)
        ledger = Ledger([(device.slot(handle).public_key, 100)])
        registry = wallet.WalletRegistry()
        _, supervision = wallet.onboard_customer(
            7, "alice", device, ledger, registry, nonce(99), 1,
            attestation_key=device.attestation_public_key)
        ledger.confirm_block()
        report = wallet.offboard_customer(7, "alice", device, ledger, registry,
                                          supervision, nonce(2), 9)
        assert (report.accepted, report.reason) == \
            (False, Refusal.EVIDENCE_INVALID)
        assert registry.status(device.device_id).classification \
            is wallet.WalletClass.REGULATED

    def test_impostor_device_refused_at_checkpoint(self, demo_config):
        # After onboarding the genuine device, the VASP's handle to it is
        # swapped for an emulator with an attestation key of its own.
        world = build_world(demo_config)
        vasp = world.vasps[7]
        genuine = world.devices["wdev:alice@7"]
        assert vasp.onboard("alice", genuine).accepted
        supervision = vasp.supervision["alice"]
        vasp.devices[genuine.device_id] = wallet.WalletDevice(
            genuine.device_id, seed("impostor"), STACK)
        recorded = len(supervision.checkpoints)
        while world.sim.now % CHECKPOINT_INTERVAL != CHECKPOINT_INTERVAL - 1:
            world.sim.step()
        world.sim.step()  # the tick hook takes checkpoints; must not raise
        assert len(supervision.checkpoints) == recorded
        refused = world.sim.trace.find("attest.checkpoint_refused")
        assert len(refused) == 1
        assert refused[0].get("device") == genuine.device_id
        assert not world.sim.trace.find("attest.checkpoint")

    def test_checkpoint_verifies_signature_and_nonce(self):
        device, ledger, registry, supervision = self._onboarded()
        impostor = wallet.WalletDevice(device.device_id, seed("impostor"),
                                       STACK)
        assert wallet.take_checkpoint(supervision, impostor, nonce(10)) \
            is Refusal.EVIDENCE_INVALID

        class Replaying:
            """The genuine device's evidence, for a nonce issued earlier."""

            def attest(self, nonce_):
                return device.attest(nonce(99))

        assert wallet.take_checkpoint(supervision, Replaying(), nonce(11)) \
            is Refusal.EVIDENCE_INVALID
        assert len(supervision.checkpoints) == 1  # onboarding only

    def test_checkpoints_accumulate(self):
        device, ledger, registry, supervision = self._onboarded()
        for i in range(3):
            wallet.take_checkpoint(supervision, device, nonce(i + 10))
        assert len(supervision.checkpoints) == 4  # onboarding + 3
