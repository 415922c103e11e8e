"""Seeded inputs, workloads and correctness oracles of the benchmark.

A workload repeats one unit of work. Every unit builds its own world from
the seed alone, so all units of a run do identical work:

  federation  cold link-state convergence of a generated federation
  transfers   an episode of travel-rule transfers on a converged federation
  scenarios   passes of S1-S5 on the default config

A unit reports its set-up time separately from its timed work, so work
moved into set-up shows in ``setup_s``. Times are taken with
``speed.clock``, which leaves out the host-speed sampler's slices. Oracle failures go to
``UnitResult.problems``; operations the program refuses are counted in
``failed`` under a reason.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from collections import Counter
from dataclasses import dataclass, field

from speed import clock
from vasptrust import ledger as ledger_mod
from vasptrust.config import default_config, parse_config
from vasptrust.netsim import scenarios as scenarios_mod
from vasptrust.netsim import world as world_mod
from vasptrust.resolver import parse_identifier
from vasptrust.travel_rule import ConsentDirection

FEDERATION_VASPS = 25
FEDERATION_CUSTOMERS = 5
TRANSFER_VASPS = 10
TRANSFER_CUSTOMERS = 5
TRANSFERS_PER_EPISODE = 1000
CONFIRM_EVERY = 5  # transfers between block confirmations
MAX_AMOUNT = 100
SCENARIO_NAMES = ("S1", "S2", "S3", "S4", "S5")
PASSES_PER_UNIT = 10


# ---------------------------------------------------------------------------
# Topology generator
# ---------------------------------------------------------------------------

def chord_offset(n: int) -> int:
    """Ring distance spanned by every chord: about sqrt(n), at least 2."""
    return max(2, round(n ** 0.5))


def generate_topology(n: int, customers_per_vasp: int, seed: int) -> dict:
    """Config dict for a ring of ``n`` VASPs plus one chord per ring position.

    Position i links to i+1 and to i+chord_offset(n). The seed places the
    VASP numbers on the ring and draws every customer; the graph shape is
    the same for every seed, so the work of a unit does not depend on the
    seed. All generated strings have a fixed width, so wire bytes do not
    either. Every customer has complete originator data (a geographic
    address) and one payment identifier at its VASP's domain.
    """
    rng = random.Random(f"perfbench-topology:{seed}")
    numbers = list(range(1, n + 1))
    rng.shuffle(numbers)  # numbers[i] sits at ring position i
    vasps = []
    for number in sorted(numbers):
        domain = f"v{number:03d}.example"
        customers = []
        for _ in range(customers_per_vasp):
            tag = f"{rng.getrandbits(32):08x}"
            customers.append({
                "id": f"c{tag}",
                "legal_name": f"Customer {tag}",
                "identifiers": [f"c{tag}${domain}"],
                "geographic_address": f"{rng.randrange(10**4):04d} Ledger Way",
            })
        vasps.append({
            "vasp_number": number,
            "organization_name": f"Bench VASP {number:03d}",
            "alt_domain_names": [domain],
            "incorporation_number_or_lei": f"INC-{number:05d}",
            "place_of_business": "1 Bench Street",
            "jurisdiction": "Bench Registry",
            "regulated_business_activity": "Transfer",
            "customers": customers,
        })
    offset = chord_offset(n)
    graph = {str(numbers[i]): [numbers[(i + 1) % n], numbers[(i + offset) % n]]
             for i in range(n)}
    return {"consortium": "perfbench", "seed": seed, "vasps": vasps,
            "federation_graph": graph}


def config_truth(config) -> dict[str, list[int]]:
    """Identifier -> sorted VASP numbers, straight from the config."""
    truth: dict[str, set[int]] = {}
    for vcfg in config.vasps:
        for ccfg in vcfg.customers:
            for ident in ccfg.identifiers:
                truth.setdefault(parse_identifier(ident).render(), set()).add(
                    vcfg.vasp_number)
    return {k: sorted(v) for k, v in sorted(truth.items())}


# ---------------------------------------------------------------------------
# Unit results
# ---------------------------------------------------------------------------

@dataclass
class UnitResult:
    setup_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failure_reasons: Counter = field(default_factory=Counter)
    ops: int = 0  # operations completed
    op_s: list[float] = field(default_factory=list)  # latency samples
    pieces_s: list[float] = field(default_factory=list)  # the timed work, in order
    ticks: int = 0
    wire_msgs: Counter = field(default_factory=Counter)   # by body type
    wire_bytes: Counter = field(default_factory=Counter)  # by body type
    trace_events: int = 0
    trace_sha256: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def record_world(self, sim, key: str = "trace", wire_from: int = 0) -> None:
        """Add the wire log from ``wire_from`` on and the trace of ``sim``.

        A trace recorded again under the same key must have the same bytes.
        """
        for body_type, data in sim.wire_log[wire_from:]:
            self.wire_msgs[body_type] += 1
            self.wire_bytes[body_type] += len(data)
        self.ticks += sim.now
        self.trace_events += len(sim.trace.events)
        digest = hashlib.sha256(sim.trace.to_text().encode("utf-8")).hexdigest()
        if self.trace_sha256.setdefault(key, digest) != digest:
            self.problems.append(f"{key}: same seed, different trace bytes")


# ---------------------------------------------------------------------------
# federation
# ---------------------------------------------------------------------------

def federation_setup(seed: int, n: int = FEDERATION_VASPS,
                     customers: int = FEDERATION_CUSTOMERS):
    config = parse_config(generate_topology(n, customers, seed), "federation")
    return world_mod.build_world(config, scenario="bench-federation")


def federation_work(world) -> UnitResult:
    result = UnitResult()
    t0 = clock()
    rounds = scenarios_mod.converge_federation(world, max_rounds=len(world.vasps))
    elapsed = clock() - t0
    result.attempted = 1
    result.pieces_s.append(elapsed)
    truth = config_truth(world.config)
    if any(world.vasps[n].resolver.resolve_map() != truth for n in sorted(world.vasps)):
        result.failed = 1
        result.failure_reasons["not_converged"] += 1
        result.problems.append(f"federation not converged after {rounds} rounds")
    else:
        result.ops = 1
        result.op_s.append(elapsed)
    result.record_world(world.sim)
    return result


# ---------------------------------------------------------------------------
# transfers
# ---------------------------------------------------------------------------

@dataclass
class TransferSetup:
    world: object
    seed: int
    transfers: int


def transfers_setup(seed: int, n: int = TRANSFER_VASPS,
                    customers: int = TRANSFER_CUSTOMERS,
                    transfers: int = TRANSFERS_PER_EPISODE) -> TransferSetup:
    config = parse_config(generate_topology(n, customers, seed), "transfers")
    world = world_mod.build_world(config, scenario="bench-transfers")
    scenarios_mod.converge_federation(world)
    return TransferSetup(world, seed, transfers)


def draw_transfers(config, seed: int, count: int):
    """(originator VASP, originator id, beneficiary config, amount) tuples.

    Repeats of the same (originator, beneficiary, amount) are left in: the
    program must handle them.
    """
    rng = random.Random(f"perfbench-transfers:{seed}")
    parties = [(v.vasp_number, c) for v in config.vasps for c in v.customers]
    draws = []
    for _ in range(count):
        onum, originator = rng.choice(parties)
        while True:
            bnum, beneficiary = rng.choice(parties)
            if bnum != onum:
                break
        draws.append((onum, originator.id, beneficiary,
                      rng.randint(1, MAX_AMOUNT)))
    return draws


def transfers_work(setup: TransferSetup) -> UnitResult:
    world = setup.world
    sim = world.sim
    result = UnitResult()
    draws = draw_transfers(world.config, setup.seed, setup.transfers)
    supply_before = world.ledger.total_supply()
    wire_before = len(sim.wire_log)
    ticks_before = sim.now
    # Every transfer the benchmark started: (originating node, PendingTransfer).
    started: list[tuple[object, object]] = []
    # (originating VASP, payload id) -> the PendingTransfer the node holds.
    current: dict[tuple[int, bytes], object] = {}
    displaced: set[int] = set()  # ids of entries a repeat replaced

    def confirm_and_correlate() -> None:
        world.confirm_block()
        for number in sorted(world.vasps):
            world.vasps[number].correlate_pending()

    starts: list[float] = []
    for i, (onum, originator_id, beneficiary, amount) in enumerate(draws, 1):
        ovasp = world.vasps[onum]
        identifier = beneficiary.identifiers[0]
        result.attempted += 1
        t_start = clock()
        starts.append(t_start)
        hits = ovasp.local_lookup(parse_identifier(identifier))
        if len(hits) != 1:
            result.problems.append(f"lookup of {identifier} gave {hits}")
            break
        bvasp = world.vasps[hits[0]]
        ovasp.grant_consent(originator_id,
                            ConsentDirection.SEND_INFO_TO_COUNTERPARTY,
                            bvasp.vasp_number)
        bvasp.grant_consent(beneficiary.id, ConsentDirection.RECEIVE_ASSETS,
                            ovasp.vasp_number)
        channel = world.channel_between(ovasp, bvasp)
        payload = ovasp.initiate_transfer(channel, originator_id,
                                          beneficiary.legal_name, identifier,
                                          bvasp.vasp_number, amount)
        pending = ovasp.pending[payload.payload_id]
        earlier = current.get((onum, payload.payload_id))
        if earlier is not None and earlier.state == "submitted":
            # The repeat replaced an entry not yet correlated: the node
            # never correlates that transfer.
            displaced.add(id(earlier))
        current[(onum, payload.payload_id)] = pending
        started.append((ovasp, pending))
        try:
            sim.run_until_quiet()
        except ledger_mod.ValueMismatch:
            # compute_payload_id has no nonce, so a repeat of the same
            # (originator, beneficiary, amount) yields the same payload id,
            # memo tag and transaction id, and the ledger refuses it.
            if earlier is None:
                raise
            result.failed += 1
            result.failure_reasons["repeat_payload_id"] += 1
        else:
            if pending.state == "submitted":
                result.op_s.append(clock() - t_start)
            else:
                result.problems.append(
                    f"transfer {i} ended in state {pending.state}")
        if i % CONFIRM_EVERY == 0:
            confirm_and_correlate()
    confirm_and_correlate()
    end = clock()
    # Piece i runs from the start of transfer i to the start of the next.
    result.pieces_s = [b - a for a, b in zip(starts, starts[1:] + [end])]

    records = {(v.vasp_number, r.payload_id): r
               for v in world.vasps.values() for r in v.correlations.records}
    for node, pending in started:
        if pending.state == "correlated":
            result.ops += 1
            record = records.get((node.vasp_number, pending.payload.payload_id))
            if record is None or record.tx_id != pending.tx_id:
                result.problems.append("correlation record does not match its tx")
        elif pending.state == "submitted" and id(pending) not in displaced:
            result.problems.append("a submitted transfer was never correlated")
    if len(records) != result.ops:
        result.problems.append(
            f"{len(records)} correlation records for {result.ops} transfers")
    # A displaced transfer is lost to the same defect: counted, same reason.
    result.failed += len(displaced)
    result.failure_reasons["repeat_payload_id"] += len(displaced)
    if result.ops + result.failed != result.attempted:
        result.problems.append(
            f"{result.ops} correlated + {result.failed} failed "
            f"!= {result.attempted} attempted")
    if world.ledger.total_supply() != supply_before:
        result.problems.append("ledger total supply changed")

    result.record_world(sim, wire_from=wire_before)
    result.ticks -= ticks_before
    return result


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def scenarios_setup(seed: int):
    config = dataclasses.replace(parse_config(default_config()), seed=seed)
    world_mod.build_world(config, scenario="S1")
    return config


def scenarios_work(config, passes: int = PASSES_PER_UNIT) -> UnitResult:
    """``passes`` S1-S5 passes, each scenario building its own world."""
    result = UnitResult()
    for _ in range(passes):
        t_pass = clock()
        runs = [(name, *scenarios_mod.run_scenario_with_world(name, config))
                for name in SCENARIO_NAMES]
        elapsed = clock() - t_pass
        result.pieces_s.append(elapsed)
        passed = True
        for name, trace, world in runs:
            result.attempted += 1
            if not trace.passed:
                failed = [a.name for a in trace.assertions if not a.passed]
                passed = False
                result.failed += 1
                result.failure_reasons[f"{name}_assertion"] += 1
                result.problems.append(f"{name} failed assertions {failed}")
            result.record_world(world.sim, key=name)
        if passed:
            result.ops += 1
            result.op_s.append(elapsed)
    return result


# ---------------------------------------------------------------------------
# Units
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    setup: object  # seed -> state
    work: object   # state -> UnitResult


WORKLOADS = {
    "federation": Workload("federation", federation_setup, federation_work),
    "transfers": Workload("transfers", transfers_setup, transfers_work),
    "scenarios": Workload("scenarios", scenarios_setup, scenarios_work),
}


def run_unit(workload: Workload, seed: int) -> UnitResult:
    t0 = clock()
    state = workload.setup(seed)
    setup_s = clock() - t0
    result = workload.work(state)
    result.setup_s = setup_s
    return result
