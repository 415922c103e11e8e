from __future__ import annotations

import os

import pytest
from hypothesis import settings

from vasptrust import codec, crypto, pki
from vasptrust.config import default_config, parse_config
from vasptrust.netsim import Envelope, ScenarioTrace, run_scenario_with_world
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


def make_subject(vasp_number: int, org: str | None = None) -> pki.EvSubjectInfo:
    return pki.EvSubjectInfo(
        organization_name=org or f"VASP {vasp_number} Ltd",
        alt_domain_names=(f"vasp{vasp_number}.example",),
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


def wire_envelopes(sim) -> list[Envelope]:
    """Every envelope of ``sim``'s wire log, decoded, in send order."""
    return [codec.canonical_decode(blob, Envelope) for _, blob in sim.wire_log]


def sent_envelopes(sim) -> list[tuple[TraceEvent, Envelope]]:
    """Every envelope of ``sim``'s wire log, decoded, in send order, with
    the ``netsim.sent`` event that logged it. An envelope names neither
    its sender nor its send tick; the event's actor and time do."""
    sent = sim.trace.find("netsim.sent")
    envelopes = wire_envelopes(sim)
    assert len(sent) == len(envelopes)
    for event, env in zip(sent, envelopes):
        assert (event.get("ch"), event.get("seq")) == (env.channel_id, env.seq)
    return list(zip(sent, envelopes))


def asked_seq(node, context) -> int:
    """The seq of the one open request ``node`` asked with ``context``:
    the number its answer must name."""
    (seq,) = [seq for (_, seq), (_, asked) in node.asked.items()
              if asked is context]
    return seq


@pytest.fixture
def root() -> pki.RootAuthority:
    return pki.create_consortium_root(seed("root"))


def issue_member(root: pki.RootAuthority, number: int, label: str) -> dict:
    """Keys and identity, transaction and claims certificates of member
    ``number``, from the seeds ``label:id``, ``label:tx``, ``label:claims``;
    the three certificates are issued as one batch, in that order."""
    identity = crypto.generate_keypair(seed(f"{label}:id"))
    tx = crypto.generate_keypair(seed(f"{label}:tx"))
    claims = crypto.generate_keypair(seed(f"{label}:claims"))
    draft = root.draft_identity_cert(make_subject(number), identity.public_key,
                                     0, 10_000)
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
