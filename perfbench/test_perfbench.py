"""Checks of the benchmark itself, on small versions of its workloads.

Run with the repository's tests: ``PYTHONPATH=src python -m pytest -q``.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from functools import partial

import pytest

import run

sys.path.insert(0, str(run.SRC))

import layers  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402
from vasptrust import codec  # noqa: E402
from vasptrust.config import parse_config  # noqa: E402
from vasptrust.netsim import nodes, scenarios  # noqa: E402

SEED = 3

SMALL = {
    "federation": wl.Workload(
        "federation", partial(wl.federation_setup, n=6, customers=2),
        wl.federation_work),
    "transfers": wl.Workload(
        "transfers", partial(wl.transfers_setup, n=4, customers=2, transfers=30),
        wl.transfers_work),
    "scenarios": wl.Workload(
        "scenarios", wl.scenarios_setup, partial(wl.scenarios_work, passes=2)),
}

# Wrapped names each workload must reach. ledger.make_transfer is called
# through the name nodes.py imported with ``from ..ledger import``.
REACHED = {
    "federation": [
        "codec.canonical_encode", "codec.struct_bytes", "crypto.sign",
        "crypto.verify", "crypto.digest", "pki.validate_chain",
        "resolver.ResolverService.merge_advertisement",
        "resolver.ResolverService.build_advertisement",
        "netsim.sim.Simulation.send", "netsim.sim.Simulation.step",
        "netsim.sim.Simulation.emit", "netsim.sim.Simulation.establish_channel",
        "netsim.nodes.VaspNode.handle", "netsim.world.build_world",
    ],
    "transfers": [
        "resolver.ResolverService.lookup", "travel_rule.sign_payload",
        "travel_rule.verify_signed_payload",
        "travel_rule.CorrelationStore.correlate", "travel_rule.ConsentStore.check",
        "ledger.Ledger.submit_transfer", "ledger.Ledger.confirm_block",
        "ledger.Ledger.confirmed_txs", "ledger.make_transfer",
        "netsim.sim.Simulation.send", "netsim.nodes.VaspNode.handle",
    ],
    "scenarios": [
        "claims.ClaimsStore.fetch_claims",
        "claims.AuthorizationServer.request_authorization",
        "wallet.onboard_customer", "wallet.offboard_customer",
        "netsim.world.build_world",
    ],
}
# Layers a workload must not reach at all.
UNREACHED = {"federation": ["travel_rule.", "ledger.", "claims.", "wallet."],
             "transfers": ["claims.", "wallet."],
             "scenarios": []}


@pytest.fixture(scope="module", params=sorted(SMALL))
def pair(request):
    """(workload name, untraced unit, traced unit, tracer) at one seed."""
    workload = SMALL[request.param]
    plain = wl.run_unit(workload, SEED)
    tracer = layers.Tracer()
    with tracer:
        traced = wl.run_unit(workload, SEED)
    return request.param, plain, traced, tracer


def test_wrapped_names_are_reached_where_expected(pair):
    name, _, traced, tracer = pair
    assert not traced.problems
    missing = [k for k in REACHED[name] if tracer.stat(k).calls == 0]
    assert not missing
    for prefix in UNREACHED[name]:
        assert not [k for k in tracer.stats if k.startswith(prefix)]


def test_tracing_changes_no_trace_or_wire_byte(pair):
    _, plain, traced, _ = pair
    assert traced.trace_sha256 == plain.trace_sha256
    assert traced.wire_bytes == plain.wire_bytes
    assert traced.wire_msgs == plain.wire_msgs


def test_tracer_restores_every_original():
    originals = (codec.canonical_encode, nodes.make_transfer,
                 nodes.VaspNode.__dict__["handle"], scenarios.build_world)
    with layers.Tracer():
        assert codec.canonical_encode is not originals[0]
        assert nodes.make_transfer is not originals[1]
        assert scenarios.build_world is not originals[3]
    assert (codec.canonical_encode, nodes.make_transfer,
            nodes.VaspNode.__dict__["handle"], scenarios.build_world) == originals


def test_topology_is_seeded_and_its_shape_is_not():
    def shape(config):
        degrees = sorted(len(v) for v in config.federation_graph.values())
        return degrees, scenarios.graph_diameter(config.federation_graph)

    a, b = (parse_config(wl.generate_topology(25, 5, s)) for s in (1, 2))
    again = parse_config(wl.generate_topology(25, 5, 1))
    assert wl.config_truth(a) == wl.config_truth(again)
    assert wl.config_truth(a) != wl.config_truth(b)
    assert a.federation_graph != b.federation_graph
    assert shape(a) == shape(b)


def test_reported_metrics_match_benchmark_json(pair):
    name, plain, traced, tracer = pair
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = run.end_to_end(name, [plain.setup_s], [plain])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: unit for k, (_, unit) in e2e.items()}
    layer = run.per_layer(tracer, [plain], [traced])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: unit for k, (_, unit) in layer.items()}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(wl.WORKLOADS)


def test_wrong_output_gives_nonzero_exit(monkeypatch, capsys):
    monkeypatch.setitem(wl.WORKLOADS, "scenarios", SMALL["scenarios"])
    assert run.main(["--workload", "scenarios", "--seed", str(SEED),
                     "--seconds", "1"]) == 0
    monkeypatch.setattr(run, "check_units", lambda units: ["forced problem"])
    assert run.main(["--workload", "scenarios", "--seed", str(SEED),
                     "--seconds", "1"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False


def test_sampler_scales_the_clock_and_restores_the_alarm():
    handler = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        t0, c0 = time.perf_counter(), speed.clock()
        while time.perf_counter() - t0 < 0.2:
            sum(range(1000))
        wall, scaled = time.perf_counter() - t0, speed.clock() - c0
    assert len(sampler.slices_s) > speed.WINDOW + 5
    # The slices are left out and the rest runs at the window's scale.
    spent = sum(sampler.slices_s[speed.WINDOW:])
    assert scaled == pytest.approx((wall - spent) * sampler.scale(), rel=0.5)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    t0, c0 = time.perf_counter(), speed.clock()
    time.sleep(0.01)
    assert speed.clock() - c0 == pytest.approx(time.perf_counter() - t0, abs=1e-3)
