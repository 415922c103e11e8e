"""End-to-end scenarios over the simulated network.

  S1  asset transfer: lookup, signed payload exchange both directions,
      consent checks, on-chain confirmation, correlation
  S2  claims gathering: policy, authorization token, fetch, consent receipt
  S3  federation convergence: advertisement flooding rounds, remote lookup
  S4  wallet on-/off-boarding with attestation checkpoints and insurer audit
  S5  multi-match lookup: the transfer halts instead of guessing a VASP

Each scenario declares its parameters once, as keyword-only parameters with
defaults, and appends terminal assertions to the trace. The one runner,
run_scenario_with_world, reads them with ``config.read`` before it builds
the world (a missing or wrong-typed one is a ConfigError naming, say,
``scenario_params.S1.amount``); it is byte-reproducible per (name, config).
"""

from __future__ import annotations

from collections import deque

from .. import claims as claims_mod
from .. import pki, wallet
from ..config import Identifier, TopologyConfig, read
from ..pki import Refusal
from ..resolver import parse_identifier
from ..travel_rule import ConsentDirection, pick_identifying
from . import events
from .trace import ScenarioTrace
from .world import CERT_VALIDITY, World, build_world, wallet_device_id


class ScenarioError(Exception):
    pass


class UnknownScenario(ScenarioError):
    pass


def graph_diameter(graph: dict[int, list[int]]) -> int:
    """Longest shortest path over the federation graph (BFS from each node)."""
    nodes = sorted(graph)
    diameter = 0
    for start in nodes:
        dist = {start: 0}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in graph.get(u, []):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        if len(dist) < len(nodes):
            raise ScenarioError("federation graph is not connected")
        diameter = max(diameter, max(dist.values()))
    return diameter


def ground_truth_map(world: World) -> dict[str, list[int]]:
    """Oracle: identifier -> sorted VASP numbers, unioned over local tables."""
    truth: dict[str, set[int]] = {}
    for number in sorted(world.vasps):
        for rendered in world.vasps[number].resolver.local_identifiers():
            truth.setdefault(rendered, set()).add(number)
    return {k: sorted(v) for k, v in sorted(truth.items())}


def flood_round(world: World,
                channels_by_vasp: dict[int, list] | None = None) -> None:
    """One advertisement flooding round: every VASP sends what changed
    since its previous round to its neighbors, then one delivery step."""
    channels = channels_by_vasp or world.federation_channels()
    for number in sorted(world.vasps):
        world.vasps[number].flood_advertisements(channels[number])
    world.sim.run_until_quiet()


def federated_truth(truth: dict[str, frozenset[int]], number: int,
                    own: list[str]) -> dict[str, frozenset[int]]:
    """What VASP ``number``'s resolver learns from a converged federation:
    ``truth`` without its own origin, and without the identifiers only it
    serves. Its resolve_map equals ``truth`` exactly when its federated
    view equals this. ``own`` lists the identifiers it serves; only those
    entries of ``truth`` are patched."""
    view = dict(truth)
    for rendered in own:
        others = view.pop(rendered) - {number}
        if others:
            view[rendered] = others
    return view


def converge_federation(world: World, max_rounds: int | None = None) -> int:
    """Flood until every resolver equals the ground truth; returns rounds.
    Each VASP's expected view is derived from the one truth map as needed."""
    truth = {rendered: frozenset(owners)
             for rendered, owners in ground_truth_map(world).items()}
    own = {n: vasp.resolver.local_identifiers() for n, vasp in world.vasps.items()}
    channels = world.federation_channels()
    limit = max_rounds if max_rounds is not None \
        else graph_diameter(world.config.federation_graph)
    rounds_used = 0
    for round_no in range(1, limit + 1):
        flood_round(world, channels)
        rounds_used = round_no
        converged = sum(
            1 for n in sorted(world.vasps)
            if world.vasps[n].resolver.holds_federated(
                federated_truth(truth, n, own[n])))
        world.sim.emit("sim", events.FEDERATION_ROUND, round_no,
                       f"{converged}/{len(world.vasps)}")
        if converged == len(world.vasps):
            break
    return rounds_used


# ---------------------------------------------------------------------------
# S1: end-to-end transfer
# ---------------------------------------------------------------------------

def scenario_s1(world: World, *, originator_vasp: int, originator_customer: str,
                beneficiary_identifier: Identifier, beneficiary_name: str,
                amount: int, grant_originator_consent: bool = True,
                grant_beneficiary_consent: bool = True) -> None:
    if amount <= 0:
        raise ScenarioError(f"scenario parameter amount is {amount}; a "
                            "transfer moves a positive amount")
    sim = world.sim
    ovasp = _require_entity(world.vasps, originator_vasp, "VASP")
    originator = _require_entity(ovasp.customers, originator_customer,
                                 f"a customer of {ovasp.name}")
    if pick_identifying(originator) is None:
        raise ScenarioError(f"scenario parameter originator_customer "
                            f"{originator_customer!r} has no identifying detail")
    target = parse_identifier(beneficiary_identifier)

    converge_federation(world)

    if grant_originator_consent:
        ovasp.grant_consent(originator_customer,
                            ConsentDirection.SEND_INFO_TO_COUNTERPARTY, None)

    hits = ovasp.local_lookup(target)
    world.assert_that("lookup_hit", len(hits) == 1, f"vasps={hits}")
    if len(hits) != 1:
        reason = Refusal.MULTIPLE_VASPS if hits else Refusal.BENEFICIARY_UNKNOWN
        sim.emit(ovasp.name, events.TRANSFER_HALTED, beneficiary_identifier,
                 reason.value, len(hits))
        for name in ("payload_outbound_complete", "payload_inbound_complete",
                     "consent_originator", "consent_beneficiary",
                     "ledger_confirmed", "correlation_recorded_once"):
            world.assert_that(name, False, "transfer halted before this step")
        return

    bvasp = world.vasps[hits[0]]
    beneficiary_id = bvasp.resolver.local_customer_for(target)
    if grant_beneficiary_consent:
        bvasp.grant_consent(beneficiary_id, ConsentDirection.RECEIVE_ASSETS,
                            ovasp.vasp_number)

    channel = world.channel_between(ovasp, bvasp)
    payload = ovasp.initiate_transfer(
        channel, originator_customer, beneficiary_name, beneficiary_identifier,
        bvasp.vasp_number, amount)
    # Taken now: a refused transfer leaves the table. None when the
    # originator's consent is missing and nothing was sent.
    pending = ovasp.pending[payload.payload_id] if payload else None
    sim.run_until_quiet()
    world.confirm_block()
    submitted = pending is not None and pending.state == "submitted"
    records = ovasp.correlate_pending() if submitted else []

    outbound = sim.trace.find(events.PAYLOAD_SIGNED.name,
                              direction="outbound", present="5/5")
    inbound = sim.trace.find(events.PAYLOAD_VERIFIED.name,
                             direction="inbound", present="5/5", signature="ok")
    world.assert_that("payload_outbound_complete", len(outbound) >= 2,
                      f"validated_outbound={len(outbound)}")
    world.assert_that("payload_inbound_complete", len(inbound) >= 2,
                      f"validated_inbound={len(inbound)}")
    world.assert_that(
        "consent_originator",
        ovasp.consents.check(originator_customer,
                             ConsentDirection.SEND_INFO_TO_COUNTERPARTY,
                             bvasp.vasp_number, sim.now))
    world.assert_that(
        "consent_beneficiary",
        beneficiary_id is not None and bvasp.consents.check(
            beneficiary_id, ConsentDirection.RECEIVE_ASSETS,
            ovasp.vasp_number, sim.now))
    confirmed = (pending is not None and pending.tx_id is not None
                 and world.ledger.confirmed_height(pending.tx_id) > 0)
    world.assert_that("ledger_confirmed", confirmed,
                      f"state={pending.state if pending else 'refused'}")
    world.assert_that("correlation_recorded_once",
                      len(records) == 1 and len(ovasp.correlations.records) == 1,
                      f"records={len(ovasp.correlations.records)}")


def _require_entity(mapping: dict, key, what: str):
    try:
        return mapping[key]
    except KeyError:
        raise ScenarioError(
            f"scenario parameter refers to {what} {key!r}, "
            f"which this topology does not configure") from None


# ---------------------------------------------------------------------------
# S2: claims gathering with consent receipt
# ---------------------------------------------------------------------------

def scenario_s2(world: World, *, owner_customer: str, requesting_vasp: int,
                attributes: list[str], purpose: str,
                withdraw_before_fetch: bool = False) -> None:
    sim = world.sim
    vasp = _require_entity(world.vasps, requesting_vasp, "VASP")

    store_node = _require_entity(world.stores, owner_customer,
                                 "a claims store for")
    server_node = _require_entity(world.auth_servers, owner_customer,
                                  "an authorization server for")
    policy = claims_mod.AccessPolicy(
        owner_customer_ref=owner_customer,
        allowed_vasp_numbers=frozenset({vasp.vasp_number}),
        readable_attributes=frozenset(attributes),
        usage_purpose=purpose)
    store_node.store.set_policy(owner_customer, policy, now=sim.now)
    sim.emit(f"customer:{owner_customer}", events.POLICY_SET, store_node.name,
             [vasp.vasp_number], sorted(attributes), purpose)

    auth_channel = world.channel_between(vasp, server_node)
    vasp.request_claims_authorization(auth_channel, tuple(attributes), purpose)
    sim.run_until_quiet()

    token = vasp.claims_token
    world.assert_that("token_issued", token is not None,
                      vasp.claims_denial.value if vasp.claims_denial else "")
    world.assert_that(
        "token_scope_within_policy",
        token is not None
        and set(token.permitted_attributes) <= policy.readable_attributes)

    if withdraw_before_fetch:
        store_node.store.revoke_consent(owner_customer, sim.now)
        sim.emit(f"customer:{owner_customer}", events.CONSENT_REVOKED, store_node.name)

    store_channel = world.channel_between(vasp, store_node)
    if token is not None:
        vasp.fetch_claims(store_channel)
        sim.run_until_quiet()

    released = list(vasp.fetched_claims)
    receipts = list(vasp.consent_receipts)
    world.assert_that("claims_released", len(released) >= 1,
                      f"claims={len(released)}")
    world.assert_that("one_receipt_per_fetch",
                      len(receipts) == len(store_node.store.receipts) == 1,
                      f"receipts={len(receipts)}")
    release_ok = bool(receipts) and token is not None and (
        set(receipts[0].attributes_released)
        <= set(token.permitted_attributes)
        <= policy.readable_attributes)
    world.assert_that("release_within_token_within_policy", release_ok)
    verified = all(
        claims_mod.verify_claim(
            c, world.trust.provider_keys.get(c.issuer, b""), sim.now)
        is pki.Verdict.VALID
        for c in released)
    world.assert_that("claim_signatures_valid",
                      bool(released) and verified)
    world.assert_that("receipt_verifies",
                      bool(receipts) and store_node.store.verify_receipt(receipts[0]))


# ---------------------------------------------------------------------------
# S3: federation convergence
# ---------------------------------------------------------------------------

def scenario_s3(world: World) -> None:
    sim = world.sim
    diameter = graph_diameter(world.config.federation_graph)
    rounds = converge_federation(world, max_rounds=len(world.vasps))

    truth = ground_truth_map(world)
    converged = all(world.vasps[n].resolver.resolve_map() == truth
                    for n in sorted(world.vasps))
    world.assert_that("federation_converged", converged,
                      f"rounds={rounds}")
    world.assert_that("rounds_within_diameter", rounds <= diameter,
                      f"rounds={rounds} diameter={diameter}")

    # Exercise the protected remote lookup API across the federation.
    numbers = sorted(world.vasps)
    requester, responder = world.vasps[numbers[0]], world.vasps[numbers[-1]]
    target = next((rendered for rendered, owners in truth.items()
                   if owners == [numbers[-1]]), None)
    if target is not None and requester is not responder:
        channel = world.channel_between(requester, responder)
        requester.remote_lookup(channel, target)
        sim.run_until_quiet()
        responses = requester.remote_lookups
        world.assert_that(
            "remote_lookup_served",
            len(responses) == 1 and list(responses[0].vasp_numbers) == truth[target],
            f"response={[list(r.vasp_numbers) for r in responses]}")
    else:
        world.assert_that("remote_lookup_served", True, "skipped: single node")


# ---------------------------------------------------------------------------
# S4: wallet boarding with attestation and insurer audit
# ---------------------------------------------------------------------------

def scenario_s4(world: World, *, customer: str, vasp: int,
                insurer_audit: bool = True, supervision_steps: int = 25) -> None:
    if supervision_steps >= CERT_VALIDITY:
        raise ScenarioError(f"scenario parameter supervision_steps is "
                            f"{supervision_steps}; the audit must come before "
                            "the certificates expire")
    sim = world.sim
    vasp = _require_entity(world.vasps, vasp, "VASP")
    device_id = wallet_device_id(customer, vasp.vasp_number)
    device = _require_entity(world.devices, device_id, "a wallet device")

    before = world.registry.status(device_id)
    report = vasp.onboard(customer, device)
    world.confirm_block()
    world.assert_that("onboard_accepted", report.accepted,
                      report.reason.value if report.reason else "")
    world.assert_that("key_transition_recorded",
                      report.key_transition is not None)
    world.assert_that(
        "registry_regulated_after_onboard",
        world.registry.status(device_id).classification
        is wallet.WalletClass.REGULATED
        and before.classification is wallet.WalletClass.PRIVATE)
    audit = insurer_audit and world.insurer is not None
    if not report.accepted:  # nothing to supervise: report the rest failed
        for name in ("attestation_checkpoints_taken",
                     *(["insurer_audit_pass"] if audit else []), "offboard_accepted",
                     "erasure_proven", "registry_private_after_offboard"):
            world.assert_that(name, False, "onboarding refused")
        return

    for _ in range(supervision_steps):
        sim.step()
    supervision = vasp.supervision[customer]
    world.assert_that("attestation_checkpoints_taken",
                      len(supervision.checkpoints) >= 3,
                      f"checkpoints={len(supervision.checkpoints)}")

    if audit:
        channel = world.channel_between(world.insurer, vasp)
        world.insurer.request_audit(channel, device_id)
        sim.run_until_quiet()
        verdict = world.insurer.audit_verdicts.get(device_id)
        world.assert_that("insurer_audit_pass",
                          verdict is not None and verdict.passed,
                          "" if verdict is None else
                          f"findings={list(verdict.key_findings)}")

    supervised = list(supervision.supervised_handles)
    off_report = vasp.offboard(customer, device)
    world.confirm_block()
    world.assert_that("offboard_accepted", off_report.accepted,
                      off_report.reason.value if off_report.reason else "")
    evidence = off_report.erasure_evidence
    erased_ok = evidence is not None and all(
        r.erased for r in evidence.key_reports
        if r.handle in supervised and not r.migratable)
    world.assert_that("erasure_proven", erased_ok)
    world.assert_that(
        "registry_private_after_offboard",
        world.registry.status(device_id).classification is wallet.WalletClass.PRIVATE)


# ---------------------------------------------------------------------------
# S5: ambiguous lookup halts the transfer
# ---------------------------------------------------------------------------

def scenario_s5(world: World, *, originator_vasp: int,
                beneficiary_identifier: Identifier) -> None:
    sim = world.sim
    ovasp = _require_entity(world.vasps, originator_vasp, "VASP")
    target = parse_identifier(beneficiary_identifier)

    converge_federation(world)
    supply_before = world.ledger.total_supply()
    height_before = world.ledger.height

    hits = ovasp.local_lookup(target)
    world.assert_that("multi_match_detected", len(hits) > 1, f"vasps={hits}")
    sim.emit(ovasp.name, events.MULTI_MATCH_HALTED, beneficiary_identifier,
             Refusal.MULTIPLE_VASPS.value, len(hits), hits)
    world.assert_that("transfer_halted",
                      bool(sim.trace.find(events.TRANSFER_HALTED.name)))
    no_tx = (world.ledger.height == height_before
             and world.ledger.total_supply() == supply_before
             and not sim.trace.find(events.TX_SUBMITTED.name))
    world.assert_that("no_ledger_transfer", no_tx)


SCENARIOS = {
    "S1": scenario_s1,
    "S2": scenario_s2,
    "S3": scenario_s3,
    "S4": scenario_s4,
    "S5": scenario_s5,
}


def run_scenario_with_world(name: str, config: TopologyConfig,
                            overrides: dict | None = None
                            ) -> tuple[ScenarioTrace, World]:
    """Build the world and run one named scenario on it; returns the trace
    and the world, for inspection. ``overrides`` are merged over the
    config's scenario parameters."""
    if name not in SCENARIOS:
        raise UnknownScenario(
            f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}")
    scenario = SCENARIOS[name]
    params = read(scenario, {**config.scenario_params.get(name, {}),
                             **(overrides or {})}, f"scenario_params.{name}")
    world = build_world(config, scenario=name)
    scenario(world, **params)
    return world.sim.trace, world
