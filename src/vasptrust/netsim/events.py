"""The trace's schema: every event the simulator emits, declared once.

A declaration names an event and the fields its line renders, in order,
as RFC 5424 §6.3 registers an SD-ID with its parameter names. An event
written in more than one shape declares each shape under the one name.
``Simulation.emit(actor, EVENT, *values)`` takes one value per field; a
None value is left out of the line. An event a node records through
``Node._refused`` ends in ``reason peer_reason``.

A field marked ``*`` is free text, which a config, a scenario parameter
or a peer supplies, so ``emit`` checks it against the trace's rendering
rule. Every other field holds an int, a bool, a list of ints, an enum
member's value, a message type name, a short hex id, a ``vasp:N`` name
or a fixed word, none of which can break a line.
"""

from __future__ import annotations


class Event:
    """A declared event: its ``name``, its field names ``keys`` (the one
    tuple its events share) and the indexes of its free-text fields."""

    __slots__ = ("name", "keys", "text")

    def __init__(self, name: str, fields: str = ""):
        specs = fields.split()
        self.name = name
        self.keys = tuple(spec.rstrip("*") for spec in specs)
        self.text = tuple(i for i, spec in enumerate(specs) if spec.endswith("*"))


# The simulator and the world's set-up.
CHANNEL_ESTABLISHED = Event("netsim.channel_established", "ch a* b*")
CHANNEL_PARTITIONED = Event("netsim.channel_refused", "a* b* reason")
PEER_CERT_INVALID = Event("netsim.channel_refused", "peer* verdict")
PEER_PROOF_FAILED = Event("netsim.channel_refused", "peer* reason")
SENT = Event("netsim.sent", "msg ch seq answers")
DELIVERED = Event("netsim.delivered", "msg ch seq from*")
UNEXPECTED = Event("netsim.refused", "msg from* reason peer_reason")
UNSOLICITED = Event("netsim.refused", "msg from* answers reason peer_reason")
ACTOR_READY = Event("netsim.actor_ready", "customers treasury")
ROOT_CREATED = Event("pki.root_created", "consortium* root_key")
IDENTITY_CERT_ISSUED = Event("pki.cert_issued", "kind serial vasp org*")
SIGNING_CERT_ISSUED = Event("pki.cert_issued", "kind purpose serial vasp")
BLOCK_CONFIRMED = Event("ledger.block_confirmed", "height txs hash")
TX_SUBMITTED = Event("ledger.tx_submitted", "tx kind amount")

# Identifiers: registration, lookup and federation.
IDENTIFIER_REGISTERED = Event("resolver.identifier_registered",
                              "customer* identifier* validated_by*")
LOOKUP = Event("resolver.lookup", "identifier* vasps count")
REMOTE_LOOKUP = Event("resolver.remote_lookup", "caller* vasps error")
REMOTE_LOOKUP_REFUSED = Event("resolver.remote_lookup",
                              "caller* vasps reason peer_reason")
LOOKUP_REFUSED = Event("resolver.lookup_refused", "from* reason peer_reason")
ADV_BUILT = Event("resolver.adv_built", "seq identifiers")
ADV_MERGED = Event("resolver.adv_merged", "origin seq outcome")
ADV_PURGED = Event("resolver.adv_purged", "origin seq verdict")
ADV_REFUSED = Event("resolver.adv_refused", "reason peer_reason")
FEDERATION_ROUND = Event("federation.round", "round converged")

# The travel-rule exchange.
CONSENT_RECORDED = Event("travel_rule.consent_recorded", "vasp direction counterparty")
CONSENT_WITHDRAWN = Event("travel_rule.consent_withdrawn", "vasp direction")
CONSENT_CHECKED = Event("travel_rule.consent_checked", "customer* direction ok")
PAYLOAD_SIGNED = Event("travel_rule.payload_validated", "direction present payload")
PAYLOAD_VERIFIED = Event("travel_rule.payload_validated",
                         "direction present signature payload")
TRANSFER_GATE = Event("travel_rule.transfer_gate",
                      "payload consent_originator beneficiary_accepted")
TRANSFER_REFUSED = Event("travel_rule.transfer_refused", "payload reason peer_reason")
TRANSFER_HALTED = Event("travel_rule.transfer_halted",
                        "identifier* reason count vasps")
CORRELATED = Event("travel_rule.correlated", "payload tx output height")

# Claims gathering.
CLAIM_ISSUED = Event("claims.claim_issued", "subject* attribute*")
POLICY_SET = Event("claims.policy_set", "store* vasps attrs* purpose*")
CONSENT_REVOKED = Event("claims.consent_revoked", "store*")
TOKEN_ISSUED = Event("claims.token_issued", "caller* token attrs* expires")
TOKEN_DENIED = Event("claims.token_denied", "caller* reason peer_reason")
TOKEN_DENIED_BY_PEER = Event("claims.token_denied", "reason peer_reason")
TOKEN_RECEIVED = Event("claims.token_received", "token attrs*")
TOKEN_REFUSED = Event("claims.token_refused", "reason peer_reason")
TERMS_ACCEPTED = Event("claims.terms_accepted", "token purpose*")
CLAIMS_RELEASED = Event("claims.claims_released", "vasp attrs* count")
RECEIPT_ISSUED = Event("claims.receipt_issued", "receipt token")
FETCH_REFUSED = Event("claims.fetch_refused", "reason peer_reason")
CLAIMS_FETCHED = Event("claims.claims_fetched", "claims verified receipt")

# Wallet boarding and attestation.
ONBOARD = Event("boarding.onboard", "customer* device* accepted old new reason")
OFFBOARD = Event("boarding.offboard",
                 "customer* device* accepted erased_handles reason")
EVIDENCE_PRODUCED = Event("attest.evidence_produced", "device* purpose")
CHECKPOINT = Event("attest.checkpoint", "device* count")
CHECKPOINT_REFUSED = Event("attest.checkpoint_refused", "device* reason")
CHALLENGE_REFUSED = Event("attest.challenge_refused", "from* reason peer_reason")
AUDIT_REQUESTED = Event("attest.audit_requested", "device* via*")
AUDIT_REFUSED = Event("attest.audit_verdict", "device* passed reason peer_reason")
AUDIT_VERDICT = Event("attest.audit_verdict", "device* passed signature_ok "
                      "nonce_fresh stack_approved findings*")
