"""Acceptance suite: one test per release criterion, stated tolerances.

Each test prints a PASS/FAIL line through the conftest report hook. The
oracles here (brute-force matching, from-scratch table rebuilds, shadow
device replay, networkx graph measures) are independent of the code paths
they check.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace

import networkx as nx
import pytest

from conftest import (carried, issue_member, make_subject, scenario_trace,
                      seed, trust_context)
from vasptrust import claims, codec, crypto, pki, travel_rule as tr, wallet
from vasptrust.config import parse_config
from vasptrust.ledger import (BadSignature, InsufficientFunds, Ledger,
                              ValueMismatch, make_transfer)
from vasptrust.netsim import run_scenario_with_world
from vasptrust.netsim.messages import LookupResponse
from vasptrust.netsim.scenarios import flood_round, ground_truth_map
from vasptrust.netsim.world import build_world

RNG_SEED = 0xACCE97


# ---------------------------------------------------------------------------
# Criterion: travel-rule completeness matrix (32 cases, < 1 s)
# ---------------------------------------------------------------------------

def test_travel_rule_completeness_matrix():
    originator = tr.CustomerRecord("A-001", "Alice Example",
                                   geographic_address="1 Main St")
    complete = tr.build_payload(originator, "Bob Jones", "B-900", 9, 125, 7, 1)
    for bits in itertools.product((True, False), repeat=5):
        payload = replace(
            complete,
            originator_name=complete.originator_name if bits[0] else "",
            originator_account=complete.originator_account if bits[1] else "",
            originator_identifying=(complete.originator_identifying
                                    if bits[2] else None),
            beneficiary_name=complete.beneficiary_name if bits[3] else "",
            beneficiary_account=complete.beneficiary_account if bits[4] else "")
        missing = tr.validate_payload(payload)
        assert (not missing) == all(bits)
        assert missing == tuple(
            name for name, present in zip(tr.REQUIRED_FIELDS, bits)
            if not present)


# ---------------------------------------------------------------------------
# Criterion: three-key distinctness for 100 simulated VASPs (< 5 s)
# ---------------------------------------------------------------------------

def test_three_key_distinctness_hundred_vasps():
    rng = random.Random(RNG_SEED)
    root = pki.create_consortium_root(seed("accept-distinct"))
    identity_certs = []
    for n in range(100):
        identity = crypto.generate_keypair(rng.randbytes(32))
        tx = crypto.generate_keypair(rng.randbytes(32))
        claims_key = crypto.generate_keypair(rng.randbytes(32))
        cert = root.issue_identity_cert(make_subject(n), identity.public_key,
                                        0, 10_000)
        root.issue_signing_cert(cert, pki.CertPurpose.TRANSACTION_SIGNING,
                                tx.public_key, 0, 10_000)
        root.issue_signing_cert(cert, pki.CertPurpose.CLAIMS_SIGNING,
                                claims_key.public_key, 0, 10_000)
        identity_certs.append(cert)

    keys = [c.subject_public_key for c in root.issued_certificates()]
    assert len(keys) == 300
    assert len(set(keys)) == 300, "public-key collision in the registry"

    reused = identity_certs[17].subject_public_key
    with pytest.raises(pki.KeyReuse):
        root.issue_identity_cert(make_subject(777), reused, 0, 10_000)
    with pytest.raises(pki.KeyReuse):
        root.issue_signing_cert(identity_certs[3],
                                pki.CertPurpose.TRANSACTION_SIGNING,
                                reused, 0, 10_000)
    with pytest.raises(pki.KeyReuse):
        root.issue_signing_cert(identity_certs[3],
                                pki.CertPurpose.CLAIMS_SIGNING,
                                identity_certs[3].subject_public_key,
                                0, 10_000)


# ---------------------------------------------------------------------------
# Criterion: tamper rejection over 1,000 random blobs (< 30 s)
# ---------------------------------------------------------------------------

def _tamper_fixture():
    rng = random.Random(RNG_SEED + 1)
    root = pki.create_consortium_root(seed("accept-tamper"))
    member_id = crypto.generate_keypair(seed("accept-tamper-id"))
    member_cert = root.issue_identity_cert(make_subject(900),
                                           member_id.public_key, 0, 10_000)
    claims_key = crypto.generate_keypair(seed("accept-tamper-claims"))
    claims_cert = root.issue_signing_cert(member_cert,
                                          pki.CertPurpose.CLAIMS_SIGNING,
                                          claims_key.public_key, 0, 10_000)
    tx_key = crypto.generate_keypair(seed("accept-tamper-tx"))
    tx_cert = root.issue_signing_cert(member_cert,
                                      pki.CertPurpose.TRANSACTION_SIGNING,
                                      tx_key.public_key, 0, 10_000)
    trust = trust_context(root, {"identity_cert": member_cert,
                                 "tx_cert": tx_cert, "claims_cert": claims_cert})
    device = wallet.WalletDevice("wdev:tamper", seed("accept-tamper-dev"),
                                 [("fw", crypto.digest(b"fw"))])

    def make_cert(i):
        key = crypto.generate_keypair(rng.randbytes(32))
        cert = root.issue_identity_cert(make_subject(1000 + i),
                                        key.public_key, 0, 10_000)
        blob = codec.canonical_encode(cert)

        def check(data: bytes) -> bool:
            decoded = codec.canonical_decode(data, pki.EvIdentityCertificate)
            return pki.validate_chain(decoded, root.public_key,
                                      root.revocation_list, 5) \
                is pki.Verdict.VALID
        return blob, check

    def make_payload(i):
        originator = tr.CustomerRecord(f"A-{i}", f"Customer {i}",
                                       national_id=f"ID-{rng.randint(0, 10**9)}")
        payload = tr.build_payload(originator, "Bob Jones", "B-900", 9,
                                   rng.randint(1, 10**9), 7, i)
        signed, _ = tr.sign_payload(claims_key.private_key, claims_cert.serial,
                                    payload)
        blob = codec.canonical_encode(signed)

        def check(data: bytes) -> bool:
            decoded = codec.canonical_decode(data, tr.SignedPayload)
            return trust.verify_member_signature(
                decoded, codec.struct_bytes(decoded), 900)
        return blob, check

    def make_evidence(i):
        if rng.random() < 0.3:
            device.generate_key(migratable=rng.random() < 0.5)
        nonce = rng.randbytes(32)
        evidence = device.attest(nonce)
        blob = codec.canonical_encode(evidence)

        def check(data: bytes) -> bool:
            decoded = codec.canonical_decode(data, wallet.AttestationEvidence)
            verdict = wallet.verify_evidence(decoded, nonce,
                                             device.attestation_public_key,
                                             {device.boot_digest})
            return verdict.passed
        return blob, check

    makers = [make_cert, make_payload, make_evidence]
    blobs = []
    for i in range(1000):
        blobs.append(makers[i % 3](i))
    return rng, blobs


def _mutate(blob: bytes, index: int, delta: int) -> bytes:
    out = bytearray(blob)
    out[index] ^= delta
    return bytes(out)


def test_tamper_rejection_thousand_blobs():
    rng, blobs = _tamper_fixture()
    false_accepts = 0
    # Sampled byte positions across every blob...
    for blob, check in blobs:
        assert check(blob), "untampered blob must verify"
        for _ in range(8):
            data = _mutate(blob, rng.randrange(len(blob)),
                           rng.randint(1, 255))
            try:
                if check(data):
                    false_accepts += 1
            except codec.DecodeError:
                pass
    # ...plus an exhaustive every-position sweep on one blob of each kind.
    for blob, check in blobs[:3]:
        for index in range(len(blob)):
            data = _mutate(blob, index, rng.randint(1, 255))
            try:
                if check(data):
                    false_accepts += 1
            except codec.DecodeError:
                continue
    assert false_accepts == 0


# ---------------------------------------------------------------------------
# Criterion: resolver privacy (no key material in lookup responses)
# ---------------------------------------------------------------------------

def test_resolver_privacy_structural_and_traces(demo_config):
    import typing

    # Structural: the response type is made of ints and a closed refusal
    # code; nothing can carry key bytes.
    hints = typing.get_type_hints(LookupResponse)
    assert hints == {"answers": int, "vasp_numbers": tuple[int, ...],
                     "refusal": pki.Refusal | None}

    carol_key_hex = next(
        i for v in demo_config.vasps for c in v.customers
        for i in c.identifiers if len(i) == 64)
    carol_key = bytes.fromhex(carol_key_hex)

    worlds = []
    for name in ("S1", "S2", "S3", "S4", "S5"):
        _, world = run_scenario_with_world(name, demo_config)
        worlds.append(world)

    # A remote lookup of the bare-key identifier itself: the response must
    # still carry numbers only.
    _, world = run_scenario_with_world("S3", demo_config)
    requester, responder = world.vasps[9], world.vasps[7]
    channel = world.channel_between(requester, responder)
    requester.remote_lookup(channel, f"key:{carol_key_hex}")
    world.sim.run_until_quiet()
    assert [list(r.vasp_numbers) for r in requester.remote_lookups[-1:]] == [[7]]
    worlds.append(world)

    registered_keys = set()
    for world in worlds:
        registered_keys.update(device.slot(handle).public_key
                               for device in world.devices.values()
                               for handle in device.handles())
        registered_keys.add(carol_key)

    responses_seen = 0
    for world in worlds:
        for message_name, blob in world.sim.wire_log:
            if message_name != "LookupResponse":
                continue
            responses_seen += 1
            for key in registered_keys:
                assert key not in blob
                assert key.hex().encode() not in blob
    assert responses_seen >= 2


# ---------------------------------------------------------------------------
# Criterion: federation convergence on 50 random topologies (< 60 s)
# ---------------------------------------------------------------------------

def _topology_config(graph: nx.Graph, seed_value: int):
    vasps = []
    for node in sorted(graph.nodes):
        number = 10 + node
        vasps.append({
            "vasp_number": number,
            "organization_name": f"Rand VASP {number}",
            "alt_domain_names": [f"v{number}.example"],
            "incorporation_number_or_lei": f"INC-{number}",
            "is_lei": False,
            "place_of_business": "x",
            "jurisdiction": "y",
            "regulated_business_activity": "Transfer",
            "policy_object_identifier": "1.2.3",
            "customers": [{
                "id": f"user{number}",
                "legal_name": f"User {number}",
                "identifiers": [f"user{number}$v{number}.example"],
                "customer_number": f"CN-{number}",
            }],
        })
    edges = {str(10 + a): [] for a in graph.nodes}
    for a, b in graph.edges:
        edges[str(10 + a)].append(10 + b)
    return parse_config({"consortium": "rand", "seed": seed_value,
                         "vasps": vasps, "federation_graph": edges})


def test_federation_convergence_fifty_random_topologies():
    rng = random.Random(RNG_SEED + 2)
    for trial in range(50):
        n = rng.randint(2, 10)
        while True:
            graph = nx.gnp_random_graph(n, min(1.0, 1.8 / max(n - 1, 1)),
                                        seed=rng.randrange(2**32))
            if nx.is_connected(graph):
                break
        diameter = nx.diameter(graph)  # independent oracle
        config = _topology_config(graph, seed_value=trial)
        world = build_world(config, scenario=f"accept-fed-{trial}")

        # Ground-truth oracle straight from the configuration.
        truth = {}
        for vasp_cfg in config.vasps:
            for customer in vasp_cfg.customers:
                for ident in customer.identifiers:
                    truth.setdefault(ident, []).append(vasp_cfg.vasp_number)
        truth = {k: sorted(v) for k, v in sorted(truth.items())}
        assert ground_truth_map(world) == truth

        channels = world.federation_channels()
        for _ in range(diameter):
            flood_round(world, channels)
        for number in sorted(world.vasps):
            assert world.vasps[number].resolver.resolve_map() == truth, \
                f"trial {trial}: vasp {number} not converged " \
                f"within diameter {diameter}"


def test_incremental_merge_equals_from_scratch_random_interleavings():
    rng = random.Random(RNG_SEED + 3)
    root = pki.create_consortium_root(seed("accept-lsa"))
    origins = {}
    members = []
    for number in (3, 9, 12):
        member = issue_member(root, number, f"lsa:{number}")
        members.append(member)
        service = ResolverServiceFactory(number)
        versions = []
        for k in range(6):
            service.register(f"u{k}$vasp{number}.example")  # its own domain
            versions.append(service.service.build_advertisement(
                member["claims"].private_key, member["claims_cert"].serial,
                member["identity_cert"].subject.alt_domain_names))
        origins[number] = versions
    trust = trust_context(root, *members)

    for _ in range(60):
        from vasptrust.resolver import ResolverService
        receiver = ResolverService(99, set())
        delivered = []
        schedule = []
        for number, versions in origins.items():
            schedule.extend((number, v) for v in range(len(versions)))
        rng.shuffle(schedule)
        schedule = schedule[:rng.randint(1, len(schedule))]
        # duplicates and reordering
        schedule += [rng.choice(schedule) for _ in range(rng.randint(0, 5))]
        rng.shuffle(schedule)
        for number, version in schedule:
            adv = origins[number][version]
            receiver.merge_advertisement(adv, trust)
            delivered.append(adv)

        newest = {}
        for adv in delivered:
            held = newest.get(adv.vasp_number)
            if held is None or adv.sequence > held.sequence:
                newest[adv.vasp_number] = adv
        expected = {}
        for origin, adv in newest.items():
            for rendered in carried(adv, trust):
                expected.setdefault(rendered, set()).add(origin)
        expected = {k: sorted(v) for k, v in sorted(expected.items())}
        assert receiver.resolve_map() == expected


class ResolverServiceFactory:
    """Tiny wrapper so register() reads naturally above."""

    def __init__(self, number: int):
        from vasptrust.resolver import ResolverService, parse_identifier
        self.parse = parse_identifier
        self.service = ResolverService(number, {"u"})
        self.service._customers.add("u")

    def register(self, identifier: str) -> None:
        self.service.register_identifier("u", self.parse(identifier))


# ---------------------------------------------------------------------------
# Criterion: end-to-end scenario S1, ordered and byte-reproducible
# ---------------------------------------------------------------------------

def test_end_to_end_transfer_scenario(demo_config):
    first = scenario_trace("S1", demo_config)
    second = scenario_trace("S1", demo_config)
    assert first.to_text() == second.to_text(), "trace must be byte-identical"
    assert first.passed

    trace = first
    lookup = trace.find("resolver.lookup")[0]
    assert lookup.get("count") == 1
    validated = trace.find("travel_rule.payload_validated", present="5/5")
    outbound = [e for e in validated if e.get("direction") == "outbound"]
    inbound = [e for e in validated if e.get("direction") == "inbound"]
    assert len(outbound) >= 2 and len(inbound) >= 2, \
        "signed payloads must validate 5/5 in both directions"
    checks = trace.find("travel_rule.consent_checked", ok=True)
    directions = {e.get("direction") for e in checks}
    assert directions == {"SendInfoToCounterparty", "ReceiveAssets"}, \
        "both consents must be checked"
    confirmations = trace.find("ledger.block_confirmed")
    correlations = trace.find("travel_rule.correlated")
    assert len(correlations) == 1, "exactly one correlation record"

    ordering = [trace.events.index(lookup),
                trace.events.index(validated[0]),
                trace.events.index(checks[0]),
                trace.events.index(checks[-1]),
                trace.events.index(confirmations[-1]),
                trace.events.index(correlations[0])]
    assert ordering == sorted(ordering), "trace order must follow the flow"


# ---------------------------------------------------------------------------
# Criterion: batch correlation agrees with the bipartite oracle
# ---------------------------------------------------------------------------

def _enumerate_matchings(payloads, outputs):
    solutions = []

    def extend(i, used, acc):
        if i == len(payloads):
            solutions.append(tuple(acc))
            return
        hint = payloads[i].correlation
        for j, (key, amount) in enumerate(outputs):
            if j not in used and key == hint.expected_key \
                    and amount == hint.expected_amount:
                extend(i + 1, used | {j}, acc + [j])

    extend(0, set(), [])
    return solutions


def test_batch_correlation_bijective_and_never_wrong():
    source = crypto.generate_keypair(seed("accept-batch-src"))
    beneficiaries = [crypto.generate_keypair(seed(f"accept-batch-{i}"))
                     for i in range(3)]
    amounts = [11, 22, 33]
    ledger = Ledger([(source.public_key, 200)])
    tx = make_transfer(
        [(source.public_key, 66)],
        [(k.public_key, a) for k, a in zip(beneficiaries, amounts)],
        {source.public_key: lambda m: crypto.sign(source.private_key, m)})
    ledger.submit_transfer(tx)
    ledger.confirm_block()

    originator = tr.CustomerRecord("A-1", "Alice Example",
                                   geographic_address="1 Main St")
    payloads = [
        tr.build_payload(originator, "Bob Jones", "B-9", 9, amount, 7, n,
                         hint=tr.CorrelationHint(tr.HintKind.KEY_AMOUNT,
                                                 expected_key=k.public_key,
                                                 expected_amount=amount))
        for n, (k, amount) in enumerate(zip(beneficiaries, amounts), 1)]

    outputs = [(o.public_key, o.amount) for o in tx.outputs]
    matchings = _enumerate_matchings(payloads, outputs)
    assert len(matchings) == 1, "oracle says the matching is unique"

    store = tr.CorrelationStore()
    records = [store.correlate(p, ledger, (1, ledger.height))
               for p in payloads]
    assert tuple(r.output_index for r in records) == matchings[0]
    assert len({(r.tx_id, r.output_index) for r in records}) == 3
    payload_map = {p.payload_id: r for p, r in zip(payloads, records)}
    assert len(payload_map) == 3, "payload -> (tx, output) stays injective"

    # Designed ambiguity: equal amounts to one key, no tags.
    dup = Ledger([(source.public_key, 100)])
    twin = make_transfer(
        [(source.public_key, 100)],
        [(beneficiaries[0].public_key, 50), (beneficiaries[0].public_key, 50)],
        {source.public_key: lambda m: crypto.sign(source.private_key, m)})
    dup.submit_transfer(twin)
    dup.confirm_block()
    ambiguous = tr.build_payload(
        originator, "Bob Jones", "B-9", 9, 50, 7, 4,
        hint=tr.CorrelationHint(tr.HintKind.KEY_AMOUNT,
                                expected_key=beneficiaries[0].public_key,
                                expected_amount=50))
    twin_outputs = [(o.public_key, o.amount) for o in twin.outputs]
    assert len(_enumerate_matchings([ambiguous], twin_outputs)) == 2
    with pytest.raises(tr.AmbiguousMatch):
        tr.CorrelationStore().correlate(ambiguous, dup, (1, dup.height))


# ---------------------------------------------------------------------------
# Criterion: claims flow invariants
# ---------------------------------------------------------------------------

def test_claims_flow_receipts_and_scoping(demo_config):
    trace, world = run_scenario_with_world("S2", demo_config)
    assert trace.passed
    store = world.stores["alice"].store
    vasp = world.vasps[7]
    token = vasp.claims_token
    policy = store.policy

    fetches = [e for e in store.audit_log if e.event == "claims_released"]
    assert len(store.receipts) == len(fetches) == 1
    for receipt in store.receipts:
        assert set(receipt.attributes_released) \
            <= set(token.permitted_attributes) \
            <= policy.readable_attributes

    # Post-withdrawal fetches release nothing.
    trace2, world2 = run_scenario_with_world(
        "S2", demo_config, overrides={"withdraw_before_fetch": True})
    store2 = world2.stores["alice"].store
    assert world2.vasps[7].fetched_claims == []
    assert store2.receipts == []
    assert not trace2.find("claims.claims_released")

    # Repeated authorized fetches: one receipt per successful fetch.
    server = world.auth_servers["alice"].server
    successes = len(fetches)
    for i in range(10):
        result = server.request_authorization(
            7, {"driving_license_number"}, policy.usage_purpose,
            world.sim.now + i)
        store.fetch_claims(result, world.trust.certified_key("authsrv:alice"),
                           now=world.sim.now + i + 1)
        successes += 1
    assert len(store.receipts) == successes
    released_events = [e for e in store.audit_log if e.event == "claims_released"]
    assert len(released_events) == successes


# ---------------------------------------------------------------------------
# Criterion: attestation truthfulness over 1,000 random op sequences
# ---------------------------------------------------------------------------

class _Shadow:
    """Independent replay model of the device slot table."""

    def __init__(self):
        self.slots = {}
        self.counter = 0

    def on_generate(self, public_key, migratable):
        self.counter += 1
        self.slots[self.counter] = [public_key, "GeneratedInternally",
                                    migratable, False]

    def on_import(self, public_key):
        self.counter += 1
        self.slots[self.counter] = [public_key, "Imported", True, False]

    def on_erase(self, handle):
        self.slots[handle][3] = True

    def expected(self):
        return [(h, *self.slots[h]) for h in sorted(self.slots)]


def test_attestation_truthfulness_thousand_sequences():
    rng = random.Random(RNG_SEED + 4)
    stack = [("fw", crypto.digest(b"fw"))]
    for trial in range(1000):
        device_seed = rng.randbytes(32)
        device = wallet.WalletDevice(f"d{trial}", device_seed, stack)
        shadow = _Shadow()
        nonmigratable_privates = []
        outputs = []
        for _ in range(rng.randint(1, 10)):
            op = rng.choice(("gen", "gen", "import", "erase", "export"))
            if op == "gen":
                migratable = rng.random() < 0.5
                handle = device.generate_key(migratable)
                shadow.on_generate(device.slot(handle).public_key, migratable)
                if not migratable:
                    nonmigratable_privates.append(
                        crypto.derive_seed(device_seed, f"slot:{handle}"))
            elif op == "import":
                pair = crypto.generate_keypair(rng.randbytes(32))
                device.import_key(pair)
                shadow.on_import(pair.public_key)
            elif op == "erase" and shadow.slots:
                handle = rng.choice(sorted(shadow.slots))
                device.erase_key(handle)
                shadow.on_erase(handle)
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
                    outputs.append(device.export_key(handle).private_key)

        nonce = rng.randbytes(32)
        evidence = device.attest(nonce)
        reported = [(r.handle, r.public_key, r.origin.value, r.migratable,
                     r.erased) for r in evidence.key_reports]
        assert reported == shadow.expected(), f"trial {trial}"
        assert wallet.verify_evidence(evidence, nonce,
                                      device.attestation_public_key,
                                      {device.boot_digest}).passed

        blob = codec.canonical_encode(evidence) + b"".join(outputs)
        for private in nonmigratable_privates:
            assert private not in blob
            assert private.hex().encode() not in blob


# ---------------------------------------------------------------------------
# Criterion: off-boarding soundness (S4 plus skip-erasure mutation)
# ---------------------------------------------------------------------------

def test_offboarding_soundness(demo_config):
    trace, world = run_scenario_with_world("S4", demo_config)
    assert trace.passed
    offboards = trace.find("boarding.offboard")
    assert len(offboards) == 1 and offboards[0].get("accepted") is True

    # Accepted off-boarding implies, from the report alone, erasure of every
    # supervised non-migratable handle in the attached evidence. Re-run the
    # lifecycle directly to hold the report object.
    device = wallet.WalletDevice("wdev:accept-off", seed("accept-off"),
                                 [("fw", crypto.digest(b"fw"))])
    handle = device.generate_key(migratable=False)
    ledger = Ledger([(device.slot(handle).public_key, 77)])
    registry = wallet.WalletRegistry()
    _, supervision = wallet.onboard_customer(
        7, "alice", device, ledger, registry, seed("n1"), now=1,
        attestation_key=device.attestation_public_key)
    ledger.confirm_block()
    supervised = list(supervision.supervised_handles)
    report = wallet.offboard_customer(
        7, "alice", device, ledger, registry, supervision, seed("n2"),
        seed("n2e"), now=9, attestation_key=device.attestation_public_key)
    assert report.accepted
    reported = {r.handle: r for r in report.erasure_evidence.key_reports}
    assert all(reported[h].erased for h in supervised
               if not reported[h].migratable)

    class SkipsErasure(wallet.WalletDevice):
        def erase_key(self, handle):
            pass

    bad = SkipsErasure("wdev:skips", seed("accept-skip"),
                       [("fw", crypto.digest(b"fw"))])
    handle = bad.generate_key(migratable=False)
    ledger2 = Ledger([(bad.slot(handle).public_key, 10)])
    registry2 = wallet.WalletRegistry()
    _, supervision2 = wallet.onboard_customer(
        7, "alice", bad, ledger2, registry2, seed("n3"), now=1,
        attestation_key=bad.attestation_public_key)
    ledger2.confirm_block()
    refused = wallet.offboard_customer(
        7, "alice", bad, ledger2, registry2, supervision2, seed("n4"),
        seed("n4e"), now=9, attestation_key=bad.attestation_public_key)
    assert (refused.accepted, refused.reason, refused.erasure_evidence) == \
        (False, pki.Refusal.ERASURE_NOT_PROVEN, None)
    assert registry2.status(bad.device_id).classification \
        is wallet.WalletClass.REGULATED


# ---------------------------------------------------------------------------
# Criterion: ledger conservation over 10,000 random operations (< 10 s)
# ---------------------------------------------------------------------------

def test_ledger_conservation_ten_thousand_ops():
    rng = random.Random(RNG_SEED + 5)
    pairs = [crypto.generate_keypair(rng.randbytes(32)) for _ in range(10)]
    signers = {p.public_key: (lambda priv: lambda m: crypto.sign(priv, m))(
        p.private_key) for p in pairs}
    ledger = Ledger([(p.public_key, 10_000) for p in pairs])
    supply = ledger.total_supply()

    attempted = rejected = 0
    for step in range(10_000):
        roll = rng.random()
        if roll < 0.15:
            ledger.confirm_block()
            continue
        src = rng.choice(pairs)
        recipients = rng.sample(pairs, rng.randint(1, 3))
        amount = rng.randint(1, 4_000)
        shares = [amount // len(recipients)] * len(recipients)
        shares[0] += amount - sum(shares)
        outputs = [(r.public_key, s) for r, s in zip(recipients, shares) if s > 0]
        if roll < 0.25:  # deliberately unbalanced
            outputs[0] = (outputs[0][0], outputs[0][1] + 1)
        tx = make_transfer([(src.public_key, amount)], outputs,
                           {src.public_key: signers[src.public_key]},
                           memo_tag=rng.randbytes(32) if roll > 0.8 else None)
        attempted += 1
        try:
            ledger.submit_transfer(tx)
        except (InsufficientFunds, ValueMismatch, BadSignature):
            rejected += 1
        assert ledger.total_supply() == supply
    ledger.confirm_block()
    assert ledger.total_supply() == supply
    assert all(balance >= 0 for balance in ledger._balances.values())
    assert attempted > 8_000 and 0 < rejected < attempted
