from __future__ import annotations

import os
from dataclasses import dataclass

import pytest
from hypothesis import settings

from vasptrust import codec, crypto, pki
from vasptrust.config import default_config, parse_config
from vasptrust.netsim import ScenarioTrace, run_scenario_with_world
from vasptrust.netsim.messages import ClaimsFetchRequest, MessageBody
from vasptrust.netsim.trace import TraceEvent


def pytest_runtest_logreport(report):
    # One visible pass/fail line per acceptance criterion.
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        outcome = "PASS" if report.passed else "FAIL"
        print(f"\n[ACCEPTANCE] {name}: {outcome}", flush=True)

# Hypothesis profiles, chosen by HYPOTHESIS_PROFILE: tier-1 runs "tier-1",
# and CI's config-fuzz step sets "config-fuzz". Each gives the example
# count of the one test that sets none of its own, the config fuzz
# (tests/test_config_fuzz.py). Under "tier-1" every Hypothesis test draws
# the same examples on each run, so a tier-1 failure reproduces; the CI
# step keeps drawing new ones.
settings.register_profile("tier-1", max_examples=200, derandomize=True)
settings.register_profile("config-fuzz", max_examples=2000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier-1"))

MASTER = crypto.seed_from_int(20260810)


def seed(label: str) -> bytes:
    return crypto.derive_seed(MASTER, label)


def make_subject(vasp_number: int, org: str | None = None,
                 domains: tuple[str, ...] = ()) -> pki.EvSubjectInfo:
    """Member ``vasp_number``'s subject, listing ``vaspN.example`` and
    ``domains``: the domains whose PayIDs it may advertise."""
    return pki.EvSubjectInfo(
        organization_name=org or f"VASP {vasp_number} Ltd",
        alt_domain_names=(f"vasp{vasp_number}.example", *domains),
        incorporation_number_or_lei=f"INC-{vasp_number:05d}",
        is_lei=False,
        place_of_business="1 Test Way",
        jurisdiction="Test Registry Office",
        vasp_number=vasp_number,
        regulated_business_activity=pki.BusinessActivity.EXCHANGE,
        policy_object_identifier="1.3.6.1.4.1.0.1",
    )


def trust_context(root: pki.RootAuthority, *members: dict,
                  now: int = 1) -> pki.TrustContext:
    """A node's trust context on ``root``'s consortium, with the clock
    stopped at ``now``, holding the given members' certificates."""
    trust = pki.TrustContext(root.public_key, lambda: root.revocation_list,
                             lambda: now)
    for m in members:
        trust.add_member(pki.VaspCerts(m["identity_cert"], m["tx_cert"],
                                       m["claims_cert"]))
    return trust


def scenario_trace(name: str, config, overrides: dict | None = None
                   ) -> ScenarioTrace:
    """The trace of scenario ``name`` run on ``config``."""
    return run_scenario_with_world(name, config, overrides)[0]


@dataclass(frozen=True)
class Frame:
    """A logged frame's body, decoded, with the channel and seq that the
    ``netsim.sent`` event logging it names: the wire carries neither."""

    ch: int
    seq: int
    body: MessageBody


def sent_frames(sim) -> list[tuple[TraceEvent, Frame]]:
    """Every frame of ``sim``'s wire log, decoded as a ``MessageBody``, in
    send order, with the ``netsim.sent`` event that logged it, paired by
    order. A frame names neither its sender, its send tick, its channel
    nor its seq; the event's actor, time, ``ch`` and ``seq`` do."""
    sent = sim.trace.find("netsim.sent")
    assert len(sent) == len(sim.wire_log)
    frames = []
    for event, (kind, blob) in zip(sent, sim.wire_log):
        body = codec.canonical_decode(blob, MessageBody)
        assert event.get("msg") == kind == type(body).__name__
        frames.append((event, Frame(event.get("ch"), event.get("seq"), body)))
    return frames


def wire_frames(sim) -> list[Frame]:
    """Every frame of ``sim``'s wire log, as ``sent_frames`` gives it."""
    return [frame for _, frame in sent_frames(sim)]


def asked_seq(node, context) -> int:
    """The seq of the one open request ``node`` asked with ``context``:
    the number its answer must name."""
    (seq,) = [seq for (_, seq), (_, asked) in node.asked.items()
              if asked is context]
    return seq


def sealed_fetch(token, serial: int, key: crypto.KeyPair) -> ClaimsFetchRequest:
    """A fetch of ``token`` naming certificate ``serial``, sealed with ``key``."""
    return codec.seal(ClaimsFetchRequest(token, serial, b""),
                      lambda tbs: crypto.sign(key.private_key, tbs))[0]


def carried(adv, trust: pki.TrustContext) -> list[str]:
    """The canonical strings advertisement ``adv`` carries, a PayID group's
    domain read from its origin's identity certificate in ``trust``."""
    domains = trust.members[adv.vasp_number].identity.subject.alt_domain_names
    return ([f"{local}${domains[i].lower()}" for i, locals_ in adv.payids
             for local in locals_]
            + [f"{local}@{domain}" for domain, locals_ in adv.emails
               for local in locals_]
            + [f"key:{key.hex()}" for key in adv.keys])


@pytest.fixture
def root() -> pki.RootAuthority:
    return pki.create_consortium_root(seed("root"))


def issue_member(root: pki.RootAuthority, number: int, label: str,
                 domains: tuple[str, ...] = ()) -> dict:
    """Keys and identity, transaction and claims certificates of member
    ``number``, its subject listing ``domains`` too, from the seeds
    ``label:id``, ``label:tx``, ``label:claims``; the three certificates
    are issued as one batch, in that order."""
    identity = crypto.generate_keypair(seed(f"{label}:id"))
    tx = crypto.generate_keypair(seed(f"{label}:tx"))
    claims = crypto.generate_keypair(seed(f"{label}:claims"))
    draft = root.draft_identity_cert(make_subject(number, domains=domains),
                                     identity.public_key, 0, 10_000)
    identity_cert, tx_cert, claims_cert = root.issue([draft] + [
        root.draft_signing_cert(draft, purpose, key.public_key, 0, 10_000)
        for purpose, key in ((pki.CertPurpose.TRANSACTION_SIGNING, tx),
                             (pki.CertPurpose.CLAIMS_SIGNING, claims))])
    return {
        "identity": identity, "tx": tx, "claims": claims,
        "identity_cert": identity_cert, "tx_cert": tx_cert,
        "claims_cert": claims_cert,
    }


@pytest.fixture
def member(root):
    """One fully equipped member, VASP 7."""
    return issue_member(root, 7, "member")


@pytest.fixture
def demo_config():
    return parse_config(default_config())


@pytest.fixture(params=["openssl", "libsodium"])
def ed25519_path(request, monkeypatch):
    """Runs the test once through each library ``crypto`` can sign and
    verify with; the libsodium leg is skipped where it does not load."""
    path = {"openssl": crypto._OPENSSL, "libsodium": crypto._SODIUM}[request.param]
    if path is None:
        pytest.skip("libsodium does not load on this host")
    monkeypatch.setattr(crypto, "_path", path)
    return path
