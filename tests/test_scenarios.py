"""End-to-end scenario behavior and trace guarantees."""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from collections import Counter

import pytest

from conftest import (asked_seq, carried, scenario_trace, sent_frames,
                      wire_frames)
from vasptrust import codec, pki, wallet
from vasptrust.config import default_config, parse_config
from vasptrust.ledger import Ledger
from vasptrust.netsim import (FaultConfig, UnknownScenario, build_world,
                              graph_diameter, run_scenario_with_world)
from vasptrust.netsim.messages import (AdvertisementFlood, TravelRuleRequest,
                                       TravelRuleResponse)
from vasptrust.netsim.nodes import PendingTransfer
from vasptrust.netsim import scenarios
from vasptrust.netsim.scenarios import (converge_federation, flood_round,
                                        ground_truth_map)
from vasptrust.resolver import parse_identifier
from vasptrust.travel_rule import (ConsentDirection, read_payload_record,
                                   rebuild_answer)


def line_config(n, seed=11, ring=False, chord=0):
    """n VASPs in a line (or ring) federation topology, one customer each;
    with ``chord``, position i also links to position i + chord (mod n)."""
    vasps = []
    for i in range(n):
        number = 10 + i
        vasps.append({
            "vasp_number": number,
            "organization_name": f"Line VASP {number}",
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
    graph = {str(10 + i): [10 + i + 1] for i in range(n - 1)}
    if ring:
        graph[str(10 + n - 1)] = [10]
    if chord:
        for i in range(n):
            graph.setdefault(str(10 + i), []).append(10 + (i + chord) % n)
    return parse_config({
        "consortium": "line", "seed": seed, "vasps": vasps,
        "federation_graph": graph,
    })


class TestS1:
    def test_happy_path_assertions(self, demo_config):
        trace = scenario_trace("S1", demo_config)
        assert trace.passed
        names = [a.name for a in trace.assertions]
        assert names == ["lookup_hit", "payload_outbound_complete",
                         "payload_inbound_complete", "consent_originator",
                         "consent_beneficiary", "ledger_confirmed",
                         "correlation_recorded_once"]

    def test_trace_event_order(self, demo_config):
        trace = scenario_trace("S1", demo_config)
        order = [
            trace.find("resolver.lookup")[0],
            trace.find("travel_rule.payload_validated", direction="outbound")[0],
            trace.find("travel_rule.transfer_gate")[0],
            trace.find("ledger.tx_submitted")[0],
            trace.find("ledger.block_confirmed")[-1],
            trace.find("travel_rule.correlated")[0],
        ]
        positions = [trace.events.index(e) for e in order]
        assert positions == sorted(positions)

    def test_byte_identical_across_runs(self, demo_config):
        assert scenario_trace("S1", demo_config).to_text() == \
            scenario_trace("S1", demo_config).to_text()

    def test_unknown_beneficiary_refuses_transfer(self, demo_config):
        trace, world = run_scenario_with_world(
            "S1", demo_config,
            overrides={"beneficiary_identifier": "nobody@idp2.com"})
        assert not trace.passed
        assert trace.find("travel_rule.transfer_halted")
        assert not trace.find("ledger.tx_submitted")
        assert world.ledger.confirmed_txs() == []

    def test_beneficiary_consent_missing_blocks_ledger(self, demo_config):
        trace, world = run_scenario_with_world(
            "S1", demo_config, overrides={"grant_beneficiary_consent": False})
        assert not trace.passed
        assert trace.find("travel_rule.transfer_refused",
                          reason="beneficiary_consent_missing")
        assert not trace.find("ledger.tx_submitted")

    def test_originator_consent_missing_blocks_ledger(self, demo_config):
        trace, _ = run_scenario_with_world(
            "S1", demo_config, overrides={"grant_originator_consent": False})
        assert not trace.passed
        assert trace.find("travel_rule.transfer_refused",
                          reason="originator_consent_missing")
        assert not trace.find("ledger.tx_submitted")

    def test_zero_treasury_refuses_the_transfer(self):
        # The ledger refuses VASP 7's spend: the transfer ends refused, as
        # a trace event, and nothing moves.
        config = default_config()
        config["vasps"][0]["treasury"] = 0
        config = parse_config(config)
        trace, world = run_scenario_with_world("S1", config)
        (refused,) = trace.find("travel_rule.transfer_refused",
                                reason="insufficient_funds")
        assert refused.actor == "vasp:7"
        assert trace.events.index(trace.find("travel_rule.transfer_gate")[0]) \
            < trace.events.index(refused)
        assert [a.passed for a in trace.assertions
                if a.name == "ledger_confirmed"] == [False]
        assert not trace.find("ledger.tx_submitted")
        assert world.vasps[7].pending == {}
        assert world.ledger.total_supply() == \
            build_world(config, scenario="S1").ledger.total_supply()

    def test_gatekeeping_order_in_trace(self, demo_config):
        # Every customer transfer is preceded by a validated payload
        # exchange and both consent checks.
        trace = scenario_trace("S1", demo_config)
        for submitted in trace.find("ledger.tx_submitted"):
            if submitted.get("kind") != "customer_transfer":
                continue
            at = trace.events.index(submitted)
            before = trace.events[:at]
            validated = [e for e in before
                         if e.event == "travel_rule.payload_validated"
                         and e.get("present") == "5/5"]
            consents = [e for e in before
                        if e.event == "travel_rule.consent_checked"
                        and e.get("ok") is True]
            gates = [e for e in before if e.event == "travel_rule.transfer_gate"]
            assert len(validated) >= 4  # both directions, both sides
            assert len(consents) >= 2
            assert gates


class TestS2:
    def test_happy_path(self, demo_config):
        trace, world = run_scenario_with_world("S2", demo_config)
        assert trace.passed
        assert len(trace.find("claims.receipt_issued")) == 1
        store = world.stores["alice"].store
        assert len(store.receipts) == 1

    def test_withdrawal_blocks_release(self, demo_config):
        trace, world = run_scenario_with_world(
            "S2", demo_config, overrides={"withdraw_before_fetch": True})
        assert not trace.passed  # happy-path assertions fail by design
        assert trace.find("claims.fetch_refused", reason="ConsentWithdrawn")
        assert not trace.find("claims.claims_released")
        assert world.stores["alice"].store.receipts == []
        assert world.vasps[7].fetched_claims == []


class TestS2Terms:
    def test_uncountersigned_terms_refused(self, demo_config):
        # A fetch whose terms countersignature does not verify releases
        # nothing and produces no receipt.
        from vasptrust.netsim.messages import ClaimsFetchRequest
        from vasptrust import claims as claims_mod

        trace, world = run_scenario_with_world("S2", demo_config)
        vasp = world.vasps[7]
        store_node = world.stores["alice"]
        receipts_before = len(store_node.store.receipts)
        channel = world.channel_between(vasp, store_node)
        world.sim.send(channel, vasp.name, ClaimsFetchRequest(
            vasp.claims_token, b"\x00" * 64, vasp.certs.claims.serial))
        world.sim.run_until_quiet()
        assert trace.find("claims.fetch_refused",
                          reason="terms_not_countersigned")
        assert len(store_node.store.receipts) == receipts_before


class TestS3:
    def test_demo_topology_converges(self, demo_config):
        trace = scenario_trace("S3", demo_config)
        assert trace.passed

    def test_line_of_five_needs_exactly_diameter_rounds(self):
        config = line_config(5)
        assert graph_diameter(config.federation_graph) == 4
        trace = scenario_trace("S3", config)
        assert trace.passed
        rounds = trace.find("federation.round")
        assert len(rounds) == 4
        assert rounds[-1].get("converged") == "5/5"
        # Not converged before the final round on a line.
        assert rounds[-2].get("converged") != "5/5"

    def test_remote_lookup_exercised(self, demo_config):
        trace = scenario_trace("S3", demo_config)
        assert trace.find("resolver.remote_lookup")


def _flood_msgs(world, since):
    return sum(1 for kind, _ in world.sim.wire_log[since:]
               if kind == "AdvertisementFlood")


def _flood_bodies(world, since=0):
    """(sent event, frame, its advertisements) of each flood sent from
    wire log entry ``since`` on, decoded from the wire."""
    return [(sent, frame, frame.body.advertisements)
            for sent, frame in sent_frames(world.sim)[since:]
            if isinstance(frame.body, AdvertisementFlood)]


class TestDeltaFlooding:
    """Flooding rules of the resolver federation, checked by counts."""

    def test_flood_round_after_convergence_sends_nothing(self, demo_config):
        world = build_world(demo_config)
        converge_federation(world)
        before = len(world.sim.wire_log)
        flood_round(world)
        assert _flood_msgs(world, before) == 0

    def test_forwards_end_one_round_after_convergence_on_cycles(self):
        # On a ring of five the last wave arrives at two adjacent VASPs at
        # once; their forwards cross once, change nothing, then stop.
        config = line_config(5, ring=True)
        world = build_world(config)
        channels = world.federation_channels()
        assert converge_federation(world) == graph_diameter(
            config.federation_graph) == 2
        events_before = len(world.sim.trace.events)
        flood_round(world, channels)
        merged = [e for e in world.sim.trace.events[events_before:]
                  if e.event == "resolver.adv_merged"]
        assert merged
        assert all(e.get("outcome") == "Stale" for e in merged)
        before = len(world.sim.wire_log)
        flood_round(world, channels)
        assert _flood_msgs(world, before) == 0
        assert len(world.sim.trace.find("resolver.adv_built")) == 5

    def test_new_identifier_reoriginated_and_resolves_within_diameter(self):
        config = line_config(5)
        world = build_world(config)
        channels = world.federation_channels()
        converge_federation(world)
        built_before = len(world.sim.trace.find("resolver.adv_built"))
        world.vasps[10].resolver.register_identifier(
            "user10", parse_identifier("late$v10.example"))
        truth = ground_truth_map(world)
        assert truth["late$v10.example"] == [10]
        diameter = graph_diameter(config.federation_graph)
        for _ in range(diameter):
            flood_round(world, channels)
        built = world.sim.trace.find("resolver.adv_built")[built_before:]
        assert [(e.actor, list(e.fields.items())[0]) for e in built] == \
            [("vasp:10", ("seq", 2))]
        for number in sorted(world.vasps):
            assert world.vasps[number].resolver.resolve_map() == truth

    def test_channel_opened_after_convergence_gets_full_held_set(self):
        config = line_config(5)
        world = build_world(config)
        channels = world.federation_channels()
        converge_federation(world)
        first, last = world.vasps[10], world.vasps[14]
        shortcut = world.channel_between(first, last)
        channels[10].append(shortcut)
        channels[14].append(shortcut)
        before = len(world.sim.wire_log)
        flood_round(world, channels)
        # The 10 advertisements go out in one message per direction.
        floods = _flood_bodies(world, before)
        assert len(floods) == 2
        assert sum(len(advs) for _, _, advs in floods) == 10
        for node in (first, last):
            sent = [adv.vasp_number for event, frame, advs in floods
                    if frame.ch == shortcut.id and event.actor == node.name
                    for adv in advs]
            assert sorted(sent) == sorted(world.vasps)

    def test_late_joiner_converges(self):
        config = line_config(5)
        world = build_world(config)
        channels = world.federation_channels()
        # VASP 14 stays offline while the others converge among themselves.
        partial = {n: [ch for ch in chs if world.vasps[14].name
                       not in ch.endpoints()] for n, chs in channels.items()}
        for _ in range(3):
            flood_round(world, partial)
        truth = ground_truth_map(world)
        assert world.vasps[14].resolver.resolve_map() != truth
        for _ in range(graph_diameter(config.federation_graph)):
            flood_round(world, channels)
        for number in sorted(world.vasps):
            assert world.vasps[number].resolver.resolve_map() == truth

    def test_revocation_purges_held_advertisements(self, demo_config):
        world = build_world(demo_config)
        converge_federation(world)
        dave = parse_identifier("dave@idp2.com")
        assert world.vasps[7].local_lookup(dave) == [3, 9]
        world.root.revoke(world.vasps[3].certs.identity.serial,
                          pki.RevocationReason.KEY_COMPROMISE, world.sim.now)
        assert world.vasps[7].local_lookup(dave) == [9]
        assert world.vasps[9].local_lookup(dave) == [9]
        purged = world.sim.trace.find("resolver.adv_purged")
        assert [(e.actor, e.get("origin"), e.get("verdict")) for e in purged] \
            == [("vasp:7", "vasp:3", "Revoked"), ("vasp:9", "vasp:3", "Revoked")]
        # Further flooding does not bring the revoked member back.
        flood_round(world)
        flood_round(world)
        assert world.vasps[7].local_lookup(dave) == [9]
        assert 3 not in world.vasps[9].resolver.resolve_map().get(
            "dave@idp2.com", [])

    def test_advertisements_carry_the_canonical_identifiers(self, demo_config):
        # Each origin advertises the canonical strings of the identifiers
        # its config lists (a bare key as its bytes), once each, and every
        # other member holds that very advertisement.
        world = build_world(demo_config)
        converge_federation(world)
        for vcfg in demo_config.vasps:
            rendered = {parse_identifier(s).render()
                        for c in vcfg.customers for s in c.identifiers}
            own = world.vasps[vcfg.vasp_number]._own_adv
            assert sorted(carried(own, world.trust)) == sorted(rendered)
            for other in sorted(set(world.vasps) - {vcfg.vasp_number}):
                held = {adv.vasp_number: adv for adv in
                        world.vasps[other].resolver.known_advertisements()}
                assert held[vcfg.vasp_number] == own
        # VASP 7 holds acmepay.com, its certificate's first domain, and a
        # bare key; VASP 9 its e-mail identifiers on idp2.com.
        assert world.vasps[7]._own_adv.payids == ((0, ("alice", "carol")),)
        assert len(world.vasps[7]._own_adv.keys) == 1
        assert world.vasps[9]._own_adv.emails == (("idp2.com", ("bob", "dave")),)


def _applied(world):
    return len(world.sim.trace.find("resolver.adv_merged", outcome="Applied"))


class TestBatchedFlooding:
    """A round sends what one channel is due as one message (RFC 2328
    §A.3.5); the merges are those of one message per advertisement."""

    @pytest.mark.parametrize("chord, msgs, advs", [(3, 120, 200), (0, 100, 100)],
                             ids=["ring-with-chords", "ring"])
    def test_cold_convergence_counts(self, chord, msgs, advs):
        # One message per channel direction per round that is due anything:
        # the same 200 (or 100) advertisements went in as many messages.
        world = build_world(line_config(10, ring=True, chord=chord))
        converge_federation(world)
        floods = _flood_bodies(world)
        assert len(floods) == msgs
        assert sum(len(a) for _, _, a in floods) == advs
        assert _applied(world) == 90  # each of 10 VASPs learns 9 origins

    def test_no_empty_flood_and_one_per_channel_direction_and_tick(self):
        world = build_world(line_config(10, ring=True, chord=3))
        converge_federation(world)
        flood_round(world)  # after convergence: only crossing forwards
        floods = _flood_bodies(world)
        assert all(advs for _, _, advs in floods)
        slots = Counter((frame.ch, sent.actor, sent.time)
                        for sent, frame, _ in floods)
        assert max(slots.values()) == 1

    def test_receiver_merges_in_message_order(self):
        world = build_world(line_config(10, ring=True, chord=3))
        converge_federation(world)
        sent = {(frame.ch, frame.seq, event.actor):
                [("vasp:%d" % a.vasp_number, a.sequence) for a in advs]
                for event, frame, advs in _flood_bodies(world)}
        events = world.sim.trace.events
        delivered = [i for i, e in enumerate(events) if e.event ==
                     "netsim.delivered" and e.get("msg") == "AdvertisementFlood"]
        assert len(delivered) == len(sent)
        for i in delivered:
            e = events[i]
            advs = sent.pop((e.get("ch"), e.get("seq"), e.get("from")))
            merged = events[i + 1:i + 1 + len(advs)]
            assert [(m.actor, m.event) for m in merged] == \
                [(e.actor, "resolver.adv_merged")] * len(advs)
            assert [(m.get("origin"), m.get("seq")) for m in merged] == advs

    def test_faulty_transport_converges_to_the_same_maps(self):
        config = line_config(10, ring=True, chord=3)
        clean = build_world(config)
        faulty = build_world(config, faults=FaultConfig(drop_rate=0.2))
        rounds = [converge_federation(w) for w in (clean, faulty)]
        assert rounds[0] == rounds[1]
        assert faulty.sim.now > clean.sim.now  # drops were retransmitted
        truth = ground_truth_map(clean)
        for number in sorted(clean.vasps):
            assert faulty.vasps[number].resolver.resolve_map() \
                == clean.vasps[number].resolver.resolve_map() == truth
        assert _applied(faulty) == _applied(clean) == 90


def _agrees_with_resolve_map(world, truth):
    """Whether, for every VASP, the federated-view check gives what
    comparing its resolve_map with ``truth`` gives; returns the count of
    converged VASPs as federation.round reports it."""
    origins = {rendered: frozenset(owners) for rendered, owners in truth.items()}
    converged = 0
    for n in sorted(world.vasps):
        resolver = world.vasps[n].resolver
        same = resolver.resolve_map() == truth
        assert resolver.holds_federated(scenarios.federated_truth(
            origins, n, resolver.local_identifiers())) == same
        converged += same
    return f"{converged}/{len(world.vasps)}"


@pytest.mark.parametrize("config", [line_config(5),
                                    line_config(10, ring=True, chord=3)],
                         ids=["line", "ring-with-chords"])
def test_round_reports_match_resolve_map_counts(config):
    # converge_federation counts converged VASPs without building
    # resolve_map; a replay counting with resolve_map reports the same.
    world = build_world(config)
    rounds = converge_federation(world)
    replay = build_world(config)
    truth = ground_truth_map(replay)
    counts = []
    for _ in range(rounds):
        flood_round(replay)
        counts.append(_agrees_with_resolve_map(replay, truth))
    assert [e.get("converged") for e in
            world.sim.trace.find("federation.round")] == counts


def test_federated_view_check_agrees_while_a_member_lags():
    config = line_config(5)
    world = build_world(config)
    truth = ground_truth_map(world)
    channels = world.federation_channels()
    lagging = {n: [ch for ch in chs if world.vasps[14].name
                   not in ch.endpoints()] for n, chs in channels.items()}
    counts = []
    for round_no in range(3 + graph_diameter(config.federation_graph)):
        flood_round(world, lagging if round_no < 3 else channels)
        counts.append(_agrees_with_resolve_map(world, truth))
    # Nobody matches the truth while VASP 14's identifiers are missing.
    assert counts[:3] == ["0/5"] * 3 and counts[-1] == "5/5"


def _carries_flood(value) -> bool:
    """``value`` is an AdvertisementFlood, or a dataclass holding one."""
    return type(value) is AdvertisementFlood or (
        dataclasses.is_dataclass(value) and any(
            _carries_flood(getattr(value, f.name))
            for f in dataclasses.fields(value)))


@pytest.mark.parametrize("chord", [0, 3], ids=["ring", "ring-with-chords"])
def test_each_flood_is_encoded_once(chord):
    # Encodes, at the codec's public boundary (canonical_encode and
    # struct_bytes), of a value that is or carries an AdvertisementFlood,
    # over a cold convergence: Simulation.send encodes each frame once
    # and digests the bytes of that encoding, so no flood is encoded again.
    world = build_world(line_config(10, ring=True, chord=chord))
    encoded = [0]
    boundary = (codec.canonical_encode.__code__, codec.struct_bytes.__code__)

    def profile(frame, event, arg):
        if (event == "call" and frame.f_code in boundary
                and _carries_flood(frame.f_locals["value"])):
            encoded[0] += 1

    sys.setprofile(profile)
    try:
        converge_federation(world)
    finally:
        sys.setprofile(None)
    sent = _flood_msgs(world, 0)
    assert sent >= 100 and encoded == [sent]


class TestS4:
    def test_full_boarding_lifecycle(self, demo_config):
        trace, world = run_scenario_with_world("S4", demo_config)
        assert trace.passed
        device_id = "wdev:alice@7"
        assert world.registry.status(device_id).classification.value == "Private"
        checkpoints = trace.find("attest.checkpoint")
        assert len(checkpoints) >= 2
        verdict = world.insurer.audit_verdicts[device_id]
        assert verdict.passed

    def test_erased_handles_visible_in_trace(self, demo_config):
        trace, _ = run_scenario_with_world("S4", demo_config)
        offboard = trace.find("boarding.offboard")[0]
        assert offboard.get("accepted") is True
        assert isinstance(offboard.get("erased_handles"), list)

    @staticmethod
    def imported_key_config():
        """The demo config with a key imported into Alice's wallet, funded
        at genesis with 40 beside the 500 of the key it generated."""
        config = default_config()
        config["vasps"][0]["customers"][0]["wallet"]["imported_key_balance"] = 40
        return parse_config(config)

    def test_imported_key_is_funded_at_genesis_and_held_by_the_device(self):
        config = self.imported_key_config()
        world = build_world(config)
        device = world.devices["wdev:alice@7"]
        slots = [device.slot(handle) for handle in device.handles()]
        assert [slot.origin for slot in slots] == [
            wallet.KeyOrigin.GENERATED_INTERNALLY, wallet.KeyOrigin.IMPORTED]
        assert [world.ledger.balance(slot.public_key) for slot in slots] == \
            [500, 40]
        assert world.ledger.total_supply() == \
            sum(vasp.treasury for vasp in config.vasps) + 500 + 40

    def test_refused_onboarding_fails_s4_without_raising(self):
        # The default policy refuses a wallet whose imported key holds
        # assets: S4 records the refusal and supervises nothing. Every
        # assertion it did not reach is reported as failed, as on a pass.
        config = self.imported_key_config()
        trace, world = run_scenario_with_world("S4", config)
        passing = scenario_trace("S4", parse_config(default_config()))
        assert [a.name for a in trace.assertions] == [
            a.name for a in passing.assertions]
        assert [a.name for a in trace.assertions if a.passed] == []
        assert {a.note for a in trace.assertions[3:]} == {"onboarding refused"}
        assert world.vasps[7].supervision == {}
        assert not trace.find("attest.checkpoint")


class TestS5:
    def test_multi_match_halts(self, demo_config):
        trace, world = run_scenario_with_world("S5", demo_config)
        assert trace.passed
        halt = trace.find("travel_rule.transfer_halted")[0]
        assert halt.get("reason") == "multiple_vasps"
        assert halt.get("vasps") == [3, 9]
        assert world.ledger.confirmed_txs() == []
        assert not trace.find("ledger.tx_submitted")


def test_unknown_scenario(demo_config):
    with pytest.raises(UnknownScenario):
        scenario_trace("S99", demo_config)


def test_seed_override_changes_trace(demo_config):
    base = scenario_trace("S1", demo_config).to_text()
    other = scenario_trace(
        "S1", dataclasses.replace(demo_config, seed=777)).to_text()
    assert base != other


def test_traces_reproducible_across_processes(demo_config, tmp_path):
    # Hash randomization differs per interpreter; traces must not.
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import vasptrust

    names = ("S1", "S2", "S3", "S4", "S5")
    snippet = (
        "from vasptrust.config import parse_config, default_config\n"
        "from vasptrust.netsim import run_scenario_with_world\n"
        "cfg = parse_config(default_config())\n"
        "import json, sys\n"
        "json.dump({name: run_scenario_with_world(name, cfg)[0].to_text()\n"
        "           for name in sys.argv[1:]}, sys.stdout)\n"
    )
    package_root = str(Path(vasptrust.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    outputs = []
    for hashseed in ("1", "20672"):
        result = subprocess.run(
            [sys.executable, "-c", snippet, *names],
            capture_output=True, text=True,
            # PYTHONPATH so the child imports the vasptrust tested here;
            # nothing else, so the hash seed is all the two children differ in.
            env={"PYTHONHASHSEED": hashseed, "PATH": "/usr/bin:/bin",
                 "PYTHONPATH": pythonpath},
            cwd="/")
        assert result.returncode == 0, result.stderr
        outputs.append(json.loads(result.stdout))
    for name in names:
        in_process = scenario_trace(name, demo_config).to_text()
        assert outputs[0][name] == outputs[1][name], name
        assert outputs[0][name] == in_process, name


def test_all_protocol_messages_ride_channels(demo_config):
    for name in ("S1", "S2", "S3", "S4", "S5"):
        trace, world = run_scenario_with_world(name, demo_config)
        channels = {ch.id: ch for ch in world.sim.channels}
        seqs: dict[tuple[int, str], list[int]] = {}
        for sent, frame in sent_frames(world.sim):
            channel = channels[frame.ch]
            assert sent.actor in channel.endpoints()
            seqs.setdefault((channel.id, sent.actor), []).append(frame.seq)
        # Every message a channel numbered is on the wire, once.
        assert seqs == {(ch.id, sender): list(range(ch._dirs[sender].next_seq))
                        for ch in channels.values() for sender in ch.endpoints()
                        if ch._dirs[sender].next_seq}


# ---------------------------------------------------------------------------
# Correlation of one-at-a-time transfers
# ---------------------------------------------------------------------------

def transfer_world(config):
    """The demo world with Alice at VASP 7 and Bob at VASP 9 consenting to
    transfers between the two."""
    world = build_world(config)
    world.vasps[7].grant_consent(
        "alice", ConsentDirection.SEND_INFO_TO_COUNTERPARTY, 9)
    world.vasps[9].grant_consent("bob", ConsentDirection.RECEIVE_ASSETS, 7)
    return world


def transfer(world, amount):
    """Alice sends Bob ``amount``; returns VASP 7's pending entry once the
    exchange is quiet."""
    ovasp, bvasp = world.vasps[7], world.vasps[9]
    payload = ovasp.initiate_transfer(world.channel_between(ovasp, bvasp),
                                      "alice", "Bob Jones", "bob@idp2.com",
                                      9, amount)
    world.sim.run_until_quiet()
    return ovasp.pending[payload.payload_id]


def test_correlate_pending_waits_for_the_block(demo_config):
    world = transfer_world(demo_config)
    pending = transfer(world, 125)
    assert pending.state == "submitted" and world.ledger.height == 0
    # Submitted but not yet in a block: nothing to correlate, no error.
    assert world.vasps[7].correlate_pending() == []
    assert pending.state == "submitted"
    world.confirm_block()
    records = world.vasps[7].correlate_pending()
    assert [r.tx_id for r in records] == [pending.tx_id]
    assert pending.state == "correlated"
    assert world.vasps[7].correlate_pending() == []
    assert len(world.sim.trace.find("travel_rule.correlated")) == 1


def test_correlation_reads_a_bounded_window(demo_config, monkeypatch):
    # Rows Ledger.confirmed_txs hands to correlation over k transfers, a
    # block and a correlation pass every 5: linear in k, not quadratic.
    rows = [0]
    confirmed_txs = Ledger.confirmed_txs

    def counting(self, *args, **kwargs):
        out = confirmed_txs(self, *args, **kwargs)
        rows[0] += len(out)
        return out

    monkeypatch.setattr(Ledger, "confirmed_txs", counting)

    def run(k):
        world = transfer_world(demo_config)
        rows[0] = 0
        entries = []
        for i in range(1, k + 1):
            entries.append(transfer(world, i))
            if i % 5 == 0:
                world.confirm_block()
                world.vasps[7].correlate_pending()
        assert all(p.state == "correlated" for p in entries)
        return rows[0]

    at_100, at_200 = run(100), run(200)
    assert 0 < at_200 <= 2.2 * at_100


def test_correlate_pending_visits_only_submitted_entries(demo_config,
                                                        monkeypatch):
    # Pending entries each correlate_pending call reads: the five submitted
    # since the last pass, not every transfer the node has made, and a
    # correlated transfer leaves the table.
    visited = set()
    read = PendingTransfer.__getattribute__

    def counting(self, name):
        visited.add(id(self))
        return read(self, name)

    world = transfer_world(demo_config)
    per_call = []
    for i in range(1, 31):
        transfer(world, i)
        if i % 5 == 0:
            world.confirm_block()
            visited.clear()
            with monkeypatch.context() as patch:
                patch.setattr(PendingTransfer, "__getattribute__", counting)
                records = world.vasps[7].correlate_pending()
            assert len(records) == 5
            per_call.append(len(visited))
    assert len(world.vasps[7].pending) == 0
    assert per_call == [5] * 6


def test_correlated_events_follow_the_pending_order(demo_config):
    # Alice pays Bob at VASP 9, then Dave at VASP 3. The 7-3 channel has
    # the lower id, so Dave's answer is handled, and his transfer
    # submitted, first; correlation still follows the order of ``pending``.
    world = transfer_world(demo_config)
    ovasp = world.vasps[7]
    to_dave = world.channel_between(ovasp, world.vasps[3])
    to_bob = world.channel_between(ovasp, world.vasps[9])
    assert to_dave.id < to_bob.id
    ovasp.grant_consent("alice", ConsentDirection.SEND_INFO_TO_COUNTERPARTY, 3)
    world.vasps[3].grant_consent("dave", ConsentDirection.RECEIVE_ASSETS, 7)
    bob = ovasp.initiate_transfer(to_bob, "alice", "Bob Jones",
                                  "bob@idp2.com", 9, 40)
    dave = ovasp.initiate_transfer(to_dave, "alice", "Dave Osei",
                                   "dave@idp2.com", 3, 60)
    world.sim.run_until_quiet()
    submitted = [e.get("amount")
                 for e in world.sim.trace.find("ledger.tx_submitted")]
    assert submitted == [60, 40]
    world.confirm_block()
    records = ovasp.correlate_pending()
    assert [r.payload_id for r in records] == [bob.payload_id, dave.payload_id]
    assert [e.get("payload") for e in world.sim.trace.find(
        "travel_rule.correlated")] == [bob.payload_id.hex()[:16],
                                        dave.payload_id.hex()[:16]]


def test_repeated_transfer_settles_twice(demo_config):
    # The same (originator, beneficiary, amount) twice: VASP 7 numbers
    # each transfer it starts, so each has its own payload id, memo tag
    # and transaction, and each correlates once.
    world = transfer_world(demo_config)
    first, second = transfer(world, 7), transfer(world, 7)
    assert first.state == second.state == "submitted"
    assert first.payload.transfer_number + 1 == second.payload.transfer_number
    assert first.payload.payload_id != second.payload.payload_id
    assert first.tx_id != second.tx_id
    world.confirm_block()
    records = world.vasps[7].correlate_pending()
    assert [(r.payload_id, r.tx_id) for r in records] == [
        (first.payload.payload_id, first.tx_id),
        (second.payload.payload_id, second.tx_id)]
    assert first.state == second.state == "correlated"
    assert world.vasps[7].correlations.records == records


def test_settled_transfer_leaves_pending_and_stays_on_record(demo_config):
    trace, world = run_scenario_with_world("S1", demo_config)
    assert trace.passed
    ovasp = world.vasps[7]
    (record,) = ovasp.correlations.records
    assert ovasp.pending == {}
    assert [d for d, _ in ovasp.payload_store] == ["outbound", "inbound"]
    sent = read_payload_record(ovasp.payload_store[0][1])
    assert sent.payload.payload_id == record.payload_id


def test_every_payload_record_decodes_to_the_payload_sent(demo_config):
    # S1's request and answer, each kept by its sender (outbound) and its
    # receiver (inbound) as bytes, decode to the SignedPayload sent, and
    # are that payload's canonical bytes. The answer crossed the wire as
    # its delta; rebuilt on the request and the transaction key of VASP 9's
    # certificate, it is the answer VASP 9 signed, so VASP 7 keeps the
    # very bytes VASP 9 does.
    _, world = run_scenario_with_world("S1", demo_config)
    request, response = [
        frame.body for frame in wire_frames(world.sim)
        if isinstance(frame.body, (TravelRuleRequest, TravelRuleResponse))]
    request = request.signed
    answer = rebuild_answer(request.payload, response.answer,
                            world.trust.members[9].transaction.subject_public_key)
    records = {number: [(d, read_payload_record(data), data)
                        for d, data in vasp.payload_store]
               for number, vasp in world.vasps.items() if vasp.payload_store}
    assert records == {
        7: [("outbound", request, codec.canonical_encode(request)),
            ("inbound", answer, codec.canonical_encode(answer))],
        9: [("inbound", request, codec.canonical_encode(request)),
            ("outbound", answer, codec.canonical_encode(answer))]}


def test_refused_transfer_leaves_pending(demo_config):
    # Bob has not consented to receive: VASP 9 refuses the transfer.
    world = build_world(demo_config)
    ovasp = world.vasps[7]
    ovasp.grant_consent("alice", ConsentDirection.SEND_INFO_TO_COUNTERPARTY, 9)
    payload = ovasp.initiate_transfer(
        world.channel_between(ovasp, world.vasps[9]),
        "alice", "Bob Jones", "bob@idp2.com", 9, 125)
    pending = ovasp.pending[payload.payload_id]
    world.sim.run_until_quiet()
    assert pending.state == "refused"
    assert ovasp.pending == {}
    assert [read_payload_record(data).payload
            for _, data in ovasp.payload_store] == [payload]


def test_answer_from_a_vasp_not_asked_leaves_the_entry_open(demo_config):
    # VASP 3 refuses VASP 7's request to VASP 9 before VASP 9 answers,
    # naming that request's seq over its own channel, where VASP 7 asked
    # nothing: it is refused once, and the transfer stays open.
    world = transfer_world(demo_config)
    ovasp = world.vasps[7]
    payload = ovasp.initiate_transfer(
        world.channel_between(ovasp, world.vasps[9]),
        "alice", "Bob Jones", "bob@idp2.com", 9, 125)
    pending = ovasp.pending[payload.payload_id]
    asked = dict(ovasp.asked)
    world.sim.send(world.channel_between(world.vasps[3], ovasp),
                   world.vasps[3].name,
                   TravelRuleResponse(asked_seq(ovasp, pending),
                                      pki.Refusal.BENEFICIARY_UNKNOWN, None))
    world.sim.step()
    assert not world.sim.trace.find("travel_rule.transfer_refused")
    assert [e.get("reason") for e in world.sim.trace.find(
        "netsim.refused")] == ["unsolicited_answer"]
    assert ovasp.asked == asked
    assert ovasp.pending == {payload.payload_id: pending}
    assert pending.state == "requested"
    # VASP 9's answer still completes the transfer, which stays open until
    # it is correlated.
    world.sim.run_until_quiet()
    assert ovasp.pending == {payload.payload_id: pending}
    assert pending.state == "submitted"
    world.confirm_block()
    assert len(ovasp.correlate_pending()) == 1
    assert pending.state == "correlated" and ovasp.pending == {}


# SHA-256 of each scenario's trace text and of its wire log on the demo
# config. The wire log digest covers, per entry in send order, the message
# type name, a zero byte, the 4-byte big-endian length of the frame
# bytes and those bytes. Any change to a trace or wire byte must update
# these values and say so (the history is in CHANGES.md). They hold
# because every key, nonce and id is derived from the seed, and a run
# without faults makes no fault draw.
PINNED = {
    "S1": ("1be46aef990d8494f720439cfb66d413f70748e51f44f7fd50b32dd7962a2266",
           "d726f2a697735c245b429368ce71d814465dda1a8345daafac224ac613589d2c"),
    "S2": ("2979c96f49651e1eadafe3ec643b1a974325fee98b5c9f6e8168b574085afe5f",
           "e5fa076cd598cfa3c17dab866034524abfed6ba898aed06ae04b1aa3df295679"),
    "S3": ("adfbe4227fd4581db5f64c26f769db58754f320f694a0e0ad1eec85ba4ae89f6",
           "bc2b20e2a5bd08e61058da8b53b2c5fbc262eb8873ea689a839c0529040e906a"),
    "S4": ("18fc4c57b78b5bb7c7146dbbe87e4fdcbf3108f5cb4cbef2fa42ae56bc847a1f",
           "2532048b38daf89b4f06cdf454b409fff671412f8664abea71e223128c9bb911"),
    "S5": ("8c6923492b0f2fd383adc708f617cd3dddf29b117385935bbf8633657883b73c",
           "b481f6abed3e99de631872ba8b92859d113232e1aa46467eaf4d197ab10787e7"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_trace_and_wire_bytes_pinned(demo_config, name):
    trace, world = run_scenario_with_world(name, demo_config)
    wire = hashlib.sha256()
    for kind, blob in world.sim.wire_log:
        wire.update(kind.encode() + b"\0" + len(blob).to_bytes(4, "big") + blob)
    digests = (hashlib.sha256(trace.to_text().encode()).hexdigest(),
               wire.hexdigest())
    assert digests == PINNED[name]
