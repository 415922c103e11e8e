"""Actor state machines: VASPs, claims services, insurer.

A node mutates its state only from its message handler or its own
public methods. Nodes share the ledger, the wallet registry and, until
each gets its own trust view, one ``TrustContext``. Nodes that terminate
channels carry an EV identity certificate and prove possession of its
key during channel establishment. ``Node.handle``, the door, hands a
delivered body, never its seq, to its type's handler in the class's
``HANDLERS``. A request's handler returns a ``pki.Refusal`` or its
answer's fields after ``answers``, and the door sends that one answer.
A refusal names a ``pki.Refusal``; one a peer sends is recorded as
``reason=peer_refused`` with the peer's member as ``peer_reason``.
A node keeps no party's key: it asks ``TrustContext.certified_key``.

A node sends each request with ``Node.ask``, which keeps it in the one
table ``asked`` by channel and seq, both the channel's own (RFC 8446
§5.3). An answer names its request's seq on the same channel:
``Node.handle`` takes the entry out before the answer's handler runs,
and refuses any other answer once.

A VASP's ``pending`` table holds only its open transfers; a settled one
stays on record in its payload and correlation stores and the trace. The
payload store is a list of records, not of live payloads: each is the
direction and the canonical bytes of the ``SignedPayload`` sent or
accepted, so a settled transfer's payload objects are freed;
``travel_rule.read_payload_record`` decodes a record. A VASP encodes a
``SignedPayload`` it signs or verifies once: its record and payload id
come from that signing input. Values the events of one transfer repeat
(``k/n`` presence, and the ``vasp:N`` and ``customer:ID`` names,
interned) are built once and shared. A request is framed from its
payload's record, and a flood from the bytes of each advertisement the
VASP built or applied, which its outbox holds only until the next round
forwards them: no node encodes what it already holds.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Container
from dataclasses import dataclass

from .. import claims as claims_mod
from .. import codec, crypto, pki, travel_rule, wallet
from ..ledger import InsufficientFunds, Ledger, make_transfer
from ..pki import Refusal
from ..resolver import (CustomerIdentifier, IdentifierAdvertisement,
                        MergeOutcome, ResolverService, Unparseable,
                        parse_identifier)
from ..travel_rule import (ConsentDirection, ConsentStore, CorrelationStore,
                           CustomerRecord, SignedPayload, TravelRulePayload)
from . import events
from . import messages as msg
from .sim import PossessionProof, SecureChannel, Simulation
from .trace import check_actor


class Node:
    """Channel-capable actor bound to an EV identity certificate, in
    simulation ``sim``, trusting what ``trust`` holds. A service node
    takes its service first, then these arguments."""

    # Body type -> the method that handles it, per class. An answer's
    # handler also takes the context its request was asked with.
    HANDLERS: dict[type, Callable[..., object]] = {}

    def __init__(self, sim: Simulation, name: str,
                 identity_cert: pki.EvIdentityCertificate,
                 identity_key: crypto.KeyPair,
                 trust: pki.TrustContext):
        self.sim = sim
        self.name = name
        self.identity_cert = identity_cert
        self._identity_key = identity_key
        self.trust = trust
        # (channel id, seq of a request sent) -> (its answer type, context).
        self.asked: dict[tuple[int, int], tuple[type, object]] = {}

    def prove_possession(self, challenge: bytes) -> bytes:
        return codec.seal(PossessionProof(challenge, b""), lambda tbs: crypto.sign(
            self._identity_key.private_key, tbs))[0].signature

    def ask(self, channel: SecureChannel, body: msg.MessageBody,
            context: object, frame: bytes | None = None) -> None:
        """Send the request ``body``, framed as ``frame`` if the sender built
        it (``Simulation.send``), and await its answer over ``channel``, to
        be handled with ``context``."""
        seq = self.sim.send(channel, self.name, body, frame)
        self.asked[channel.id, seq] = (msg.ANSWER[type(body)], context)

    def handle(self, channel: SecureChannel, seq: int,
               body: msg.MessageBody) -> None:
        """Run the handler of the body's type on the body. A request (a key
        of ``msg.ANSWER``) gets one answer, sent here, naming its seq: the
        fields after ``answers`` or the Refusal its handler returns. It is
        refused ``invalid_caller``, with one event and no handler, unless
        ``_admits`` the certificate its sender opened the channel with."""
        kind = type(body)
        handler = self.HANDLERS.get(kind)
        peer = channel.other(self.name)
        if handler is None:
            self._refused(events.UNEXPECTED, Refusal.UNEXPECTED_MESSAGE,
                          kind.__name__, peer)
        elif kind in msg.ANSWER:
            if self._admits(channel.peer_cert(peer)):
                answer = handler(self, channel, body)
            else:
                answer = Refusal.INVALID_CALLER
                self._refused(events.UNEXPECTED, answer, kind.__name__, peer)
            reply = msg.ANSWER[kind]
            self.sim.send(channel, self.name, reply(seq, refusal=answer)
                          if isinstance(answer, Refusal) else reply(seq, *answer))
        elif kind not in _ANSWERS:
            handler(self, channel, body)
        elif self.asked.get(key := (channel.id, body.answers), (None,))[0] is kind:
            handler(self, channel, body, self.asked.pop(key)[1])
        else:
            self._refused(events.UNSOLICITED, Refusal.UNSOLICITED_ANSWER,
                          kind.__name__, peer, body.answers)

    def _admits(self, cert: pki.EvIdentityCertificate) -> bool:
        """Whether a peer that opened its channel with ``cert`` may ask: a
        member or the insurer, the only parties that send requests, while
        ``cert`` validates (RFC 5280 §6.1.3); a claims provider or a wallet
        device, certified only to sign, may not."""
        member = self.trust.members.get(cert.subject.vasp_number)
        name = cert.subject.organization_name
        known = member.identity if member else (
            self.trust.identities.get(name) if name.startswith("insurer:")
            else None)
        return cert == known and self.trust.validate(cert) is pki.Verdict.VALID

    def _refused(self, event: events.Event, reason: Refusal, *values,
                 by_peer: bool = False) -> None:
        """Emit ``event``: ``values``, then ``reason``, or, when a peer
        refused, ``peer_refused`` and then the peer's ``reason``."""
        tail = (Refusal.PEER_REFUSED.value, reason.value) if by_peer \
            else (reason.value, None)
        self.sim.emit(self.name, event, *values, *tail)

    def _peer_number(self, channel: SecureChannel) -> int:
        """Entity number in the certificate our peer, the sender of all we
        receive over ``channel``, opened it with."""
        return channel.peer_cert(channel.other(self.name)).subject.vasp_number


_ANSWERS = frozenset(msg.ANSWER.values())
_CLAIMS = pki.CertPurpose.CLAIMS_SIGNING

# "k/n" for k of the n required payload fields present, indexed by k.
_PRESENT = tuple(f"{k}/{len(travel_rule.REQUIRED_FIELDS)}"
                 for k in range(len(travel_rule.REQUIRED_FIELDS) + 1))


def _present(missing: tuple[str, ...]) -> str:
    """How many required payload fields are present, as ``k/n``."""
    return _PRESENT[len(travel_rule.REQUIRED_FIELDS) - len(missing)]


def _name(kind: str, key) -> str:
    """``kind:key`` (``vasp:9``, ``customer:alice``), interned: one string
    shared by every event, of every node, that names it."""
    return sys.intern(f"{kind}:{key}")


def _lapses_at(member: pki.VaspCerts) -> int:
    """The tick at which ``member``'s identity or claims certificate
    expires, whichever comes first."""
    return min(member.identity.not_after, member.claims.not_after)


def _short(digest: bytes) -> str:
    """The 16-hex short id the trace names a payload or transaction by."""
    return digest.hex()[:16]


@dataclass(slots=True)
class PendingTransfer:
    """An open transfer this VASP originated, ``requested`` or ``submitted``.
    It leaves ``VaspNode.pending`` as ``correlated`` or ``refused``."""

    payload: TravelRulePayload
    state: str = "requested"
    tx_id: bytes | None = None
    submitted_height: int = 0  # ledger height when the tx entered the mempool
    tx_short: str = ""  # the short id of tx_id, once submitted


class VaspNode(Node):
    """A VASP: customers, resolver, consent ledger, travel-rule exchange,
    commingled-account treasury key, wallet supervision."""

    def __init__(self, sim: Simulation, vasp_number: int,
                 identity_key: crypto.KeyPair,
                 tx_key: crypto.KeyPair,
                 claims_key: crypto.KeyPair,
                 ledger: Ledger,
                 trust: pki.TrustContext,
                 registry: wallet.WalletRegistry):
        self.certs = trust.members[vasp_number]
        super().__init__(sim, f"vasp:{vasp_number}", self.certs.identity,
                         identity_key, trust)
        self.vasp_number = vasp_number
        self.tx_key = tx_key
        self.claims_key = claims_key
        self.ledger = ledger
        self.registry = registry

        self.customers: dict[str, CustomerRecord] = {}
        self.devices: dict[str, wallet.WalletDevice] = {}  # device_id -> device
        self.resolver = ResolverService(vasp_number, self.customers)
        # Delta flooding state: the content of our last own advertisement,
        # advertisements built or applied since the last flood, by origin,
        # with their canonical bytes and the channels whose neighbour
        # already has each, the channels flooded over once, the revoked
        # serials last purged against, and the earliest tick at which a
        # held origin lapses.
        self._advertised: tuple | None = None
        self._own_adv: IdentifierAdvertisement | None = None
        self._outbox: dict[int, tuple[IdentifierAdvertisement, bytes, set[int]]] = {}
        self._synced: set[int] = set()
        self._revocations_seen: frozenset[int] | None = None
        self._lapse_at = 0
        self.consents = ConsentStore(self.customers)
        self.correlations = CorrelationStore()
        # Payloads sent, and received payloads that passed every check, as
        # (direction, canonical SignedPayload bytes) records.
        self.payload_store: list[tuple[str, bytes]] = []
        self.supervision: dict[str, wallet.SupervisionRecord] = {}
        # Open transfers by payload id, in initiation order; the count of
        # transfers started.
        self.pending: dict[bytes, PendingTransfer] = {}
        self.transfers_started = 0
        self.remote_lookups: list[msg.LookupResponse] = []
        self.claims_token: claims_mod.AuthorizationToken | None = None
        self.claims_denial: Refusal | None = None
        self.fetched_claims: list[claims_mod.SignedClaim] = []
        self.consent_receipts: list[claims_mod.ConsentReceipt] = []

    def _record(self, direction: str, signed: SignedPayload, tbs: bytes) -> bytes:
        """Keep ``signed``, signing input ``tbs``, as its canonical bytes,
        and return them."""
        record = codec.sealed_bytes(signed, tbs)
        self.payload_store.append((direction, record))
        return record

    # -- customer management ---------------------------------------------------

    def add_customer(self, record: CustomerRecord,
                     identifiers: list[CustomerIdentifier],
                     idp_domains: Container[str]) -> None:
        check_actor(_name("customer", record.customer_id))  # its events' actor
        self.customers[record.customer_id] = record
        for ident in identifiers:
            self.resolver.register_identifier(record.customer_id, ident)
            idp = ident.domain_part.lower()
            self.sim.emit(self.name, events.IDENTIFIER_REGISTERED, record.customer_id,
                          ident.render(), f"idp:{idp}" if idp in idp_domains else None)

    # -- consent -------------------------------------------------------------------

    def grant_consent(self, customer_id: str, direction: ConsentDirection,
                      counterparty: int | None) -> None:
        self.consents.record(customer_id, direction, counterparty, self.sim.now)
        self.sim.emit(_name("customer", customer_id), events.CONSENT_RECORDED,
                      self.vasp_number, direction.value,
                      None if counterparty is None else _name("vasp", counterparty))

    def withdraw_consent(self, customer_id: str, direction: ConsentDirection,
                         counterparty: int | None) -> None:
        self.consents.withdraw(customer_id, direction, counterparty, self.sim.now)
        self.sim.emit(_name("customer", customer_id), events.CONSENT_WITHDRAWN,
                      self.vasp_number, direction.value)

    # -- resolver -------------------------------------------------------------------

    def local_lookup(self, identifier: CustomerIdentifier) -> list[int]:
        self._purge_lapsed()
        hits = self.resolver.lookup(identifier)
        self.sim.emit(self.name, events.LOOKUP, identifier.render(), hits, len(hits))
        return hits

    def _purge_lapsed(self) -> None:
        """Drop the advertisements held from every origin whose standing
        as a claims signer (``trust.standing``) is not VALID, so a revoked
        or expired member stops resolving. Held origins are rescanned only
        on a set of revoked serials not seen before, or once the earliest
        tick at which one of them lapses has come."""
        revoked = self.trust.revocation_list.serials
        if revoked == self._revocations_seen and self.trust.clock() < self._lapse_at:
            return
        self._revocations_seen, self._lapse_at = revoked, sys.maxsize
        for adv in self.resolver.known_advertisements():
            origin = self.trust.members[adv.vasp_number]
            verdict = self.trust.standing(origin, _CLAIMS)
            if verdict is pki.Verdict.VALID:
                self._lapse_at = min(self._lapse_at, _lapses_at(origin))
                continue
            self.resolver.drop_origin(adv.vasp_number)
            self._outbox.pop(adv.vasp_number, None)
            self.sim.emit(self.name, events.ADV_PURGED, _name("vasp", adv.vasp_number),
                          adv.sequence, verdict.value)

    def flood_advertisements(self, channels: list[SecureChannel]) -> None:
        """One flooding round of the link-state exchange (RFC 2328 §13).

        Our own advertisement is re-originated only when its content (the
        local identifiers or the claims certificate) changed. Over a channel
        flooded before, only the advertisements applied since the previous
        round go out, each to every channel but the ones it arrived on; a
        channel never flooded over gets everything held, once. What one
        channel is due goes out as one AdvertisementFlood, in this order
        (one Link State Update, RFC 2328 §13 and §A.3.5); a channel due
        nothing gets no message. While this VASP may not sign, it builds
        no advertisement: the round it would is refused as an event. A
        frame is framed from the bytes the outbox holds; a first flood over
        a channel encodes the advertisements whose bytes it does not hold.
        """
        self._purge_lapsed()
        content = (tuple(self.resolver.local_identifiers()),
                   self.certs.claims.serial)
        if content != self._advertised:
            if self.trust.standing(self.certs, _CLAIMS) is not pki.Verdict.VALID:
                self._refused(events.ADV_REFUSED, Refusal.OWN_CERT_INVALID)
            else:
                kept: list[bytes] = []
                adv = self._own_adv = self.resolver.build_advertisement(
                    self.claims_key.private_key, self.certs.claims.serial,
                    self.certs.identity.subject.alt_domain_names, kept.append)
                self.sim.emit(self.name, events.ADV_BUILT, adv.sequence,
                              len(content[0]), digest=crypto.digest(kept[0]))
                self._advertised = content
                self._outbox[self.vasp_number] = (adv, kept[0], set())
        outbox, self._outbox = self._outbox, {}
        for channel in channels:
            if channel.id in self._synced:
                due = [(adv, sealed) for _, (adv, sealed, seen_on)
                       in sorted(outbox.items()) if channel.id not in seen_on]
            else:
                self._synced.add(channel.id)
                held = [adv for adv in (self._own_adv,) if adv] \
                    + self.resolver.known_advertisements()
                due = [(adv, entry[1] if (entry := outbox.get(adv.vasp_number))
                        and entry[0] is adv else codec.canonical_encode(adv))
                       for adv in held]
            if due:
                advs, sealed = zip(*due)
                frame = codec.member_bytes(msg.MessageBody, msg.AdvertisementFlood,
                                           codec.sequence_bytes(sealed))
                self.sim.send(channel, self.name, msg.AdvertisementFlood(advs), frame)

    def _on_advertisement_flood(self, channel: SecureChannel,
                                body: msg.AdvertisementFlood) -> None:
        kept: list[bytes] = []  # the bytes of an advertisement applied
        for adv in body.advertisements:
            outcome = self.resolver.merge_advertisement(adv, self.trust, kept.append)
            pending = self._outbox.get(adv.vasp_number)
            if outcome is MergeOutcome.APPLIED:
                self._outbox[adv.vasp_number] = (adv, kept.pop(), {channel.id})
                self._lapse_at = min(
                    self._lapse_at, _lapses_at(self.trust.members[adv.vasp_number]))
            elif pending is not None and pending[0].sequence == adv.sequence:
                # The neighbour sent us this very advertisement: it has it.
                pending[2].add(channel.id)
            self.sim.emit(self.name, events.ADV_MERGED, _name("vasp", adv.vasp_number),
                          adv.sequence, outcome.value)

    # -- travel rule exchange ---------------------------------------------------------

    def initiate_transfer(self, channel: SecureChannel, originator_id: str,
                          beneficiary_name: str, beneficiary_identifier: str,
                          beneficiary_vasp: int, amount: int
                          ) -> TravelRulePayload | None:
        """Send a travel-rule request for a transfer to ``beneficiary_vasp``
        and open it in ``pending``. Without the originator's consent to
        send their data to that VASP, or while this VASP may not sign,
        nothing leaves: the transfer is refused as an event and None is
        returned."""
        originator = self.customers[originator_id]
        self.transfers_started += 1
        payload = travel_rule.build_payload(
            originator, beneficiary_name, beneficiary_identifier,
            beneficiary_vasp, amount, self.vasp_number, self.transfers_started)
        if not self.consents.check(originator_id,
                                   ConsentDirection.SEND_INFO_TO_COUNTERPARTY,
                                   beneficiary_vasp, self.sim.now):
            self._refuse(payload, Refusal.ORIGINATOR_CONSENT_MISSING)
            return None
        if self.trust.standing(self.certs, _CLAIMS) is not pki.Verdict.VALID:
            self._refuse(payload, Refusal.OWN_CERT_INVALID)
            return None
        signed, record = self._sign_outbound(payload)
        pending = self.pending[payload.payload_id] = PendingTransfer(payload)
        self.ask(channel, msg.TravelRuleRequest(signed), pending,
                 codec.member_bytes(msg.MessageBody, msg.TravelRuleRequest, record))
        return payload

    def _sign_outbound(self, payload: TravelRulePayload
                       ) -> tuple[SignedPayload, bytes]:
        """Validate, sign and store a payload this VASP sends; return it
        signed, and its record."""
        missing = travel_rule.validate_payload(payload)
        signed, tbs = travel_rule.sign_payload(
            self.claims_key.private_key, self.certs.claims.serial, payload)
        self.sim.emit(self.name, events.PAYLOAD_SIGNED, "outbound", _present(missing),
                      _short(payload.payload_id), digest=payload.payload_id)
        return signed, self._record("outbound", signed, tbs)

    def _settle(self, pending: PendingTransfer, state: str) -> None:
        """End an open transfer in ``state``: it leaves ``pending``."""
        pending.state = state
        del self.pending[pending.payload.payload_id]

    def _refuse(self, payload: TravelRulePayload, reason: Refusal,
                pending: PendingTransfer | None = None, *,
                by_peer: bool = False) -> None:
        """Emit the refusal of the transfer of ``payload``, after ending an
        open ``pending`` entry ``refused``."""
        if pending is not None:
            self._settle(pending, "refused")
        self._refused(events.TRANSFER_REFUSED, reason, _short(payload.payload_id),
                      by_peer=by_peer)

    def _verify_counterparty_payload(self, signed: SignedPayload, tbs: bytes,
                                     signer: int) -> bool:
        ok = travel_rule.verify_signed_payload(signed, tbs, self.trust, signer)
        missing = travel_rule.validate_payload(signed.payload)
        payload_id = crypto.digest(codec.first_field(SignedPayload, tbs))
        self.sim.emit(self.name, events.PAYLOAD_VERIFIED, "inbound", _present(missing),
                      "ok" if ok else "bad", _short(payload_id), digest=payload_id)
        return ok and not missing

    def _on_travel_rule_request(self, channel: SecureChannel,
                                body: msg.TravelRuleRequest) -> Refusal | tuple:
        signed = body.signed
        tbs = codec.struct_bytes(signed)
        answer = self._answer(channel, signed, tbs)
        if isinstance(answer, Refusal):
            self._refused(events.TRANSFER_REFUSED, answer,
                          _short(crypto.digest(codec.first_field(SignedPayload, tbs))))
            return answer
        return None, travel_rule.answer_delta(answer)  # no refusal, the answer

    def _answer(self, channel: SecureChannel, signed: SignedPayload,
                tbs: bytes) -> SignedPayload | Refusal:
        """Our signed answer to the request ``signed`` (signing input
        ``tbs``), stored, or why the request is refused."""
        if self.trust.standing(self.certs, _CLAIMS) is not pki.Verdict.VALID:
            return Refusal.OWN_CERT_INVALID  # we may not sign an answer
        payload = signed.payload
        # The signer is the originator the payload names; that originator
        # is the channel peer, and the payload is addressed to us.
        if not self._verify_counterparty_payload(
                signed, tbs, payload.originating_vasp_number):
            return Refusal.INVALID_PAYLOAD
        if (payload.originating_vasp_number
                != self._peer_number(channel)
                or payload.beneficiary_vasp_number != self.vasp_number):
            return Refusal.MISADDRESSED_PAYLOAD
        try:
            ident = parse_identifier(payload.beneficiary_account)
        except Unparseable:
            return Refusal.UNPARSEABLE_BENEFICIARY
        holder = self.resolver.local_customer_for(ident)
        if holder is None:
            return Refusal.BENEFICIARY_UNKNOWN
        beneficiary = self.customers[holder]
        if beneficiary.legal_name != payload.beneficiary_name:
            return Refusal.BENEFICIARY_NAME_MISMATCH
        consent = self.consents.check(beneficiary.customer_id,
                                      ConsentDirection.RECEIVE_ASSETS,
                                      payload.originating_vasp_number, self.sim.now)
        self.sim.emit(self.name, events.CONSENT_CHECKED, beneficiary.customer_id,
                      ConsentDirection.RECEIVE_ASSETS.value, consent)
        if not consent:
            return Refusal.BENEFICIARY_CONSENT_MISSING
        self._record("inbound", signed, tbs)
        return self._sign_outbound(travel_rule.answer_payload(
            payload, beneficiary.customer_id, self.tx_key.public_key))[0]

    def _on_travel_rule_response(self, channel: SecureChannel,
                                 body: msg.TravelRuleResponse,
                                 pending: PendingTransfer) -> None:
        payload = pending.payload
        asked = payload.beneficiary_vasp_number
        if body.refusal is not None:
            self._refuse(payload, body.refusal, pending, by_peer=True)
            return
        # Rebuilt on its request and the key we pay, an answer to another
        # request, key or amount fails its signature.
        beneficiary = self.trust.members[asked]
        answer = body.answer and travel_rule.rebuild_answer(
            payload, body.answer, beneficiary.transaction.subject_public_key)
        tbs = answer and codec.struct_bytes(answer)
        if not (tbs and self._verify_counterparty_payload(answer, tbs, asked)):
            self._refuse(payload, Refusal.INVALID_PAYLOAD, pending)
            return
        self._record("inbound", answer, tbs)

        originator = payload.originator_account
        originator_consent = self.consents.check(
            originator, ConsentDirection.SEND_INFO_TO_COUNTERPARTY,
            asked, self.sim.now)
        self.sim.emit(self.name, events.CONSENT_CHECKED, originator,
                      ConsentDirection.SEND_INFO_TO_COUNTERPARTY.value,
                      originator_consent)
        self.sim.emit(self.name, events.TRANSFER_GATE, _short(payload.payload_id),
                      originator_consent, True)
        if not originator_consent:
            self._refuse(payload, Refusal.ORIGINATOR_CONSENT_MISSING, pending)
            return
        # Pay only a transaction key the beneficiary may sign with now.
        if self.trust.standing(beneficiary, pki.CertPurpose.TRANSACTION_SIGNING) \
                is not pki.Verdict.VALID:
            self._refuse(payload, Refusal.BENEFICIARY_TX_CERT_INVALID, pending)
            return

        signed_over = []  # the transaction's signing input, as signed
        tx = make_transfer(
            inputs=[(self.tx_key.public_key, payload.amount)],
            outputs=[(beneficiary.transaction.subject_public_key,
                      payload.amount)],
            signers={self.tx_key.public_key: lambda m: signed_over.append(m)
                     or crypto.sign(self.tx_key.private_key, m)},
            memo_tag=payload.payload_id)
        try:
            pending.tx_id = self.ledger.submit_transfer(tx)
        except InsufficientFunds:
            self._refuse(payload, Refusal.INSUFFICIENT_FUNDS, pending)
            return
        pending.tx_short = _short(pending.tx_id)
        pending.submitted_height = self.ledger.height
        pending.state = "submitted"
        self.sim.emit(self.name, events.TX_SUBMITTED, pending.tx_short,
                      "customer_transfer", payload.amount,
                      digest=crypto.digest(codec.sealed_bytes(tx, signed_over[0])))

    def correlate_pending(self) -> list[travel_rule.CorrelationRecord]:
        """Correlate, in initiation order, every open transfer whose
        transaction is in a block, and retire it from ``pending``.
        confirm_block confirms the whole mempool, so a submitted transaction
        is in a block above the height it was submitted at. Entries not yet
        submitted, or submitted since the last block, stay open."""
        records = []
        for pending in list(self.pending.values()):
            if (pending.state != "submitted"
                    or self.ledger.height <= pending.submitted_height):
                continue
            record = self.correlations.correlate(
                pending.payload, self.ledger,
                (pending.submitted_height + 1, self.ledger.height))
            self._settle(pending, "correlated")
            records.append(record)
            tx = pending.tx_short if record.tx_id == pending.tx_id \
                else _short(record.tx_id)
            self.sim.emit(self.name, events.CORRELATED,
                          _short(pending.payload.payload_id), tx,
                          record.output_index, record.matched_at_height)
        return records

    # -- remote resolver API ---------------------------------------------------------

    def remote_lookup(self, channel: SecureChannel, identifier: str) -> None:
        self.ask(channel, msg.LookupRequest(identifier), None)

    def _on_lookup_request(self, channel: SecureChannel,
                           body: msg.LookupRequest) -> Refusal | tuple:
        self._purge_lapsed()
        caller = channel.other(self.name)
        try:
            hits = self.resolver.lookup(parse_identifier(body.identifier))
        except Unparseable:
            self._refused(events.REMOTE_LOOKUP_REFUSED,
                          Refusal.UNPARSEABLE_IDENTIFIER, caller, [])
            return Refusal.UNPARSEABLE_IDENTIFIER
        self.sim.emit(self.name, events.REMOTE_LOOKUP, caller, hits, "-")
        return (tuple(hits),)

    def _on_lookup_response(self, channel: SecureChannel,
                            body: msg.LookupResponse, _: None) -> None:
        if body.refusal is not None:
            self._refused(events.LOOKUP_REFUSED, body.refusal,
                          channel.other(self.name), by_peer=True)
        self.remote_lookups.append(body)

    # -- claims gathering -------------------------------------------------------------

    def request_claims_authorization(self, channel: SecureChannel,
                                     attributes: tuple[str, ...],
                                     purpose: str) -> None:
        """Ask for a token; only one scoped as asked is taken."""
        request = msg.ClaimsAuthRequest(attributes, purpose)
        self.ask(channel, request, request)

    def fetch_claims(self, channel: SecureChannel) -> None:
        """Fetch the held token's claims in a request sealed with our claims
        key, our agreement to its terms; while this VASP may not sign,
        nothing is sent and the fetch is refused as an event."""
        token = self.claims_token
        if token is None:
            raise claims_mod.ClaimsError("no authorization token held")
        if self.trust.standing(self.certs, _CLAIMS) is not pki.Verdict.VALID:
            self._refused(events.FETCH_REFUSED, Refusal.OWN_CERT_INVALID)
            return
        request, _ = codec.seal(
            msg.ClaimsFetchRequest(token, self.certs.claims.serial, b""),
            lambda tbs: crypto.sign(self.claims_key.private_key, tbs))
        self.sim.emit(self.name, events.TERMS_ACCEPTED, _short(token.token_id),
                      token.purpose)
        self.ask(channel, request, token)

    def _on_claims_auth_response(self, channel: SecureChannel,
                                 body: msg.ClaimsAuthResponse,
                                 asked: msg.ClaimsAuthRequest) -> None:
        token = body.token
        if body.refusal is not None:
            self.claims_denial = body.refusal
            self._refused(events.TOKEN_DENIED_BY_PEER, body.refusal, by_peer=True)
        elif (token is None
              or token.audience_vasp_number != self.vasp_number
              or token.purpose != asked.purpose
              or set(token.permitted_attributes) != set(asked.attributes)):
            self._refused(events.TOKEN_REFUSED, Refusal.TOKEN_SCOPE_MISMATCH)
        else:
            self.claims_token = token
            self.sim.emit(self.name, events.TOKEN_RECEIVED, _short(token.token_id),
                          list(token.permitted_attributes), payload=token)

    def _on_claims_fetch_response(self, channel: SecureChannel,
                                  body: msg.ClaimsFetchResponse,
                                  token: claims_mod.AuthorizationToken) -> None:
        """Keep the answer to the fetch of ``token`` only if its receipt
        names that token and this VASP and verifies under the store's
        certified key; and of its claims, those whose issuer's verifies."""
        if body.refusal is not None:
            self._refused(events.FETCH_REFUSED, body.refusal, by_peer=True)
            return
        receipt = body.receipt
        if (receipt is None or receipt.token_id != token.token_id
                or receipt.vasp_number != self.vasp_number
                or not crypto.verify(self.trust.certified_key(channel.other(
                    self.name)), *codec.unseal(receipt))):
            self._refused(events.FETCH_REFUSED, Refusal.RECEIPT_INVALID)
            return
        verified = [c for c in body.claims if claims_mod.verify_claim(
            c, self.trust.certified_key(f"cp:{c.issuer}"), self.sim.now)
            is pki.Verdict.VALID]
        self.fetched_claims.extend(verified)
        self.consent_receipts.append(receipt)
        self.sim.emit(self.name, events.CLAIMS_FETCHED, len(body.claims),
                      len(verified), "yes")

    # -- wallet supervision -------------------------------------------------------------

    def onboard(self, customer_id: str,
                device: wallet.WalletDevice) -> wallet.BoardingReport:
        nonce = self.sim.nonce()
        report, supervision = wallet.onboard_customer(
            self.vasp_number, customer_id, device, self.ledger, self.registry,
            nonce, self.sim.now,
            attestation_key=self.trust.certified_key(device.device_id))
        if supervision is not None:
            self.supervision[customer_id] = supervision
            self.devices[device.device_id] = device
            self.sim.emit(self.name, events.EVIDENCE_PRODUCED, device.device_id,
                          "onboarding", payload=supervision.checkpoints[0])
        transition = report.key_transition
        self.sim.emit(self.name, events.ONBOARD, customer_id, device.device_id,
                      report.accepted,
                      None if transition is None else list(transition.old_handles),
                      None if transition is None else transition.new_handle,
                      report.reason and report.reason.value)
        return report

    def offboard(self, customer_id: str,
                 device: wallet.WalletDevice) -> wallet.BoardingReport:
        supervision = self.supervision.get(customer_id)
        if supervision is None:
            raise wallet.NotSupervised(customer_id)
        report = wallet.offboard_customer(
            self.vasp_number, customer_id, device, self.ledger, self.registry,
            supervision, self.sim.nonce(), self.sim.nonce(), self.sim.now,
            attestation_key=self.trust.certified_key(device.device_id))
        erased = [r.handle for r in report.erasure_evidence.key_reports
                  if r.erased] if report.erasure_evidence else []
        self.sim.emit(self.name, events.OFFBOARD, customer_id, device.device_id,
                      report.accepted, erased, report.reason and report.reason.value)
        if report.accepted:
            del self.supervision[customer_id]
        return report

    def take_checkpoints(self) -> None:
        """Tick hook: attestation checkpoint for every supervised wallet."""
        for customer_id in sorted(self.supervision):
            supervision = self.supervision[customer_id]
            device = self.devices[supervision.device_id]
            evidence = wallet.take_checkpoint(
                supervision, device, self.sim.nonce(),
                self.trust.certified_key(device.device_id))
            if isinstance(evidence, Refusal):
                self.sim.emit(self.name, events.CHECKPOINT_REFUSED,
                              device.device_id, evidence.value)
                continue
            self.sim.emit(self.name, events.CHECKPOINT, device.device_id,
                          len(supervision.checkpoints), payload=evidence)

    def _on_attestation_challenge(self, channel: SecureChannel,
                                  body: msg.AttestationChallenge) -> Refusal | tuple:
        device = self.devices.get(body.device_id)
        if device is None:
            evidence = Refusal.UNKNOWN_DEVICE
        else:
            evidence = wallet.challenge(device, body.nonce)
        if isinstance(evidence, Refusal):
            self._refused(events.CHALLENGE_REFUSED, evidence, channel.other(self.name))
            return evidence
        self.sim.emit(self.name, events.EVIDENCE_PRODUCED, body.device_id,
                      "audit", payload=evidence)
        return (evidence,)

    HANDLERS = {
        msg.TravelRuleRequest: _on_travel_rule_request,
        msg.TravelRuleResponse: _on_travel_rule_response,
        msg.LookupRequest: _on_lookup_request,
        msg.LookupResponse: _on_lookup_response,
        msg.AdvertisementFlood: _on_advertisement_flood,
        msg.ClaimsAuthResponse: _on_claims_auth_response,
        msg.ClaimsFetchResponse: _on_claims_fetch_response,
        msg.AttestationChallenge: _on_attestation_challenge,
    }
    # Node's dispatch, named on this class too: perfbench profiles per class.
    handle = Node.handle


class AuthServerNode(Node):
    """Authorization server for one customer's claims store."""

    def __init__(self, server: claims_mod.AuthorizationServer, *node_args):
        super().__init__(*node_args)
        self.server = server

    def _on_claims_auth_request(self, channel: SecureChannel,
                                body: msg.ClaimsAuthRequest) -> Refusal | tuple:
        caller = channel.other(self.name)
        result = self.server.request_authorization(
            self._peer_number(channel), set(body.attributes),
            body.purpose, self.sim.now)
        if isinstance(result, Refusal):
            self._refused(events.TOKEN_DENIED, result, caller)
            return result
        self.sim.emit(self.name, events.TOKEN_ISSUED, caller,
                      _short(result.token_id), list(result.permitted_attributes),
                      result.expires_at, payload=result)
        return (result,)

    HANDLERS = {msg.ClaimsAuthRequest: _on_claims_auth_request}


class ClaimsStoreNode(Node):
    """Network face of one customer's claims store."""

    def __init__(self, store: claims_mod.ClaimsStore, *node_args):
        super().__init__(*node_args)
        self.store = store

    def _on_claims_fetch_request(self, channel: SecureChannel,
                                 body: msg.ClaimsFetchRequest) -> Refusal | tuple:
        token = body.token
        audience = token.audience_vasp_number
        # The token binds to its audience: only that VASP, over its own
        # channel and with its own claims key, may present it.
        if self._peer_number(channel) != audience:
            result = Refusal.TOKEN_AUDIENCE_MISMATCH
        elif not self.trust.verify_member_signature(
                body, codec.struct_bytes(body), audience):
            result = Refusal.TERMS_NOT_COUNTERSIGNED
        else:
            result = self.store.fetch_claims(token, self.trust.certified_key(
                f"authsrv:{self.store.owner}"), self.sim.now)
        if isinstance(result, Refusal):
            self._refused(events.FETCH_REFUSED, result)
            return result
        released, receipt = result
        self.sim.emit(self.name, events.CLAIMS_RELEASED, audience,
                      sorted({c.attribute_name for c in released}), len(released))
        self.sim.emit(self.name, events.RECEIPT_ISSUED, _short(receipt.receipt_id),
                      _short(receipt.token_id), payload=receipt)
        return tuple(released), receipt

    HANDLERS = {msg.ClaimsFetchRequest: _on_claims_fetch_request}


class InsurerNode(Node):
    """Asset insurer: audits regulated wallets via attestation evidence."""

    def __init__(self, approved_stacks: set[bytes], *node_args):
        super().__init__(*node_args)
        self.approved_stacks = approved_stacks
        self.audit_verdicts: dict[str, wallet.VerifierVerdict] = {}

    def request_audit(self, channel: SecureChannel, device_id: str) -> None:
        nonce = self.sim.nonce()
        self.sim.emit(self.name, events.AUDIT_REQUESTED, device_id,
                      channel.other(self.name))
        self.ask(channel, msg.AttestationChallenge(device_id, nonce),
                 (device_id, nonce))

    def _on_attestation_response(self, channel: SecureChannel,
                                 body: msg.AttestationResponse,
                                 asked: tuple[str, bytes]) -> None:
        device_id, nonce = asked
        if body.refusal is not None or body.evidence is None:
            self._refused(events.AUDIT_REFUSED, body.refusal or Refusal.NO_EVIDENCE,
                          device_id, False, by_peer=body.refusal is not None)
            return
        verdict = wallet.verify_evidence(body.evidence, nonce,
                                         self.trust.certified_key(device_id),
                                         self.approved_stacks)
        self.audit_verdicts[device_id] = verdict
        findings = "; ".join(verdict.key_findings) or "none"
        self.sim.emit(self.name, events.AUDIT_VERDICT, device_id, verdict.passed,
                      verdict.signature_ok, verdict.nonce_fresh,
                      verdict.stack_approved, f"[{findings}]")

    HANDLERS = {msg.AttestationResponse: _on_attestation_response}
