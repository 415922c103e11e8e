"""Benchmark of vasptrust: one workload, one seed, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload federation --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run repeats units of the workload (workloads.py),
each after a fixed number of extra timed set-ups, and reports the
end-to-end metrics. The number of units is fixed by ``--seconds`` and the
workload's UNIT_SECONDS, not by how fast the program runs, so every
version of the program is measured on the same number of units; a run
lasts 1.2-1.7 times ``--seconds`` on a 2-vCPU VM, loaded or not. Every
workload reports the same metrics, so they are defined per operation: a
cold convergence (federation), a transfer from the lookup to ``submitted``
(transfers), an S1-S5 pass (scenarios).

  setup_s        median of all set-up times (build_world; plus convergence
                 in transfers)
  peak_rss_mb    peak resident memory of the process
  success_ratio  1 - failed / attempted operations (scenarios: per scenario)
  wire_msgs, wire_bytes, sim_ticks   per unit, from the simulator
  ops_per_s      operations completed per second of work
  op_ms_p50      median operation latency
  op_ms_tail     p90 of operation latency (federation: p50, as a run holds
                 only a few convergences)

ops_per_s is the median over units of each unit's operations per second
of its work; the latency percentiles are taken over the samples of all
units. Both keep every pause the program causes (a collection, a resize,
a long history scan). The set-ups and units run under a speed.Sampler, so
every timing (setup_s, ops_per_s, op_ms_*) is read at the host's reference
speed and follows the program, not the load of a shared host; the run's
median scale is printed as ``host_speed_scale`` (1: the host ran at the
reference speed; 0.6: it ran 1/0.6 times slower). The workload-specific names
(converge_s, transfers_per_s, suite_ms_p90, ...) are printed as well. With
``--trace 1`` the run alternates an untraced and a traced unit and reports
the per-layer metrics of the traced units, per unit and including set-up,
plus ``tracing_overhead_ratio``. Both modes check the outputs; when one is
wrong the run prints ``correct: false`` and exits with status 1. A traced
unit whose trace or wire bytes differ from an untraced one's is wrong.
Lines before the last are for people; the last line is the JSON result.
All load comes from this one thread.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path

import layers
import speed
from speed import clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Seconds of --seconds that one unit stands for: a run of --seconds S makes
# round(S / UNIT_SECONDS) units, at least MIN_UNITS. On an unloaded 2-vCPU
# VM a unit with its set-ups and checks takes about this long, except in
# federation, where a unit (about 2.3 s) holds a single convergence.
UNIT_SECONDS = {"federation": 2.2, "transfers": 3.5, "scenarios": 0.65}
MIN_UNITS = 3
# Extra set-ups timed before each unit, for setup_s (0.1-0.3 s of them).
SETUPS_PER_UNIT = {"federation": 5, "transfers": 1, "scenarios": 24}

# Percentile of op latency reported as op_ms_tail: with at least ten
# operations beyond it in a run (a federation run has only a few in all).
TAIL_PERCENTILE = {"federation": 50, "transfers": 90, "scenarios": 90}

MESSAGE_TYPES = (
    "TravelRuleRequest", "TravelRuleResponse", "LookupRequest",
    "LookupResponse", "AdvertisementFlood", "ClaimsAuthRequest",
    "ClaimsAuthResponse", "ClaimsFetchRequest", "ClaimsFetchResponse",
    "AttestationChallenge", "AttestationResponse",
)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def unit_count(name: str, seconds: float) -> int:
    return max(MIN_UNITS, round(seconds / UNIT_SECONDS[name]))


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def check_units(units) -> list[str]:
    """Oracle problems of every unit, plus: units of one seed are identical."""
    problems = [p for u in units for p in u.problems]
    first = units[0]
    for u in units[1:]:
        if u.trace_sha256 != first.trace_sha256:
            problems.append("same seed gave different trace bytes")
        if u.wire_bytes != first.wire_bytes:
            problems.append("same seed gave different wire bytes")
        if (u.ops, len(u.op_s), len(u.pieces_s)) != \
                (first.ops, len(first.op_s), len(first.pieces_s)):
            problems.append("same seed gave a different number of operations")
    return problems


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------

def timed_setup(workload, seed: int) -> float:
    t0 = clock()
    workload.setup(seed)
    return clock() - t0


def measure(workload, seed: int, count: int):
    """``count`` units, each after SETUPS_PER_UNIT extra timed set-ups.

    Returns the set-up times, the units and the run's speed scale.
    """
    from workloads import run_unit
    setups, units = [], []
    with speed.Sampler() as sampler:
        for _ in range(count):
            setups += [timed_setup(workload, seed)
                       for _ in range(SETUPS_PER_UNIT[workload.name])]
            units.append(run_unit(workload, seed))
            setups.append(units[-1].setup_s)
    return setups, units, sampler.scale()


def unit_median(units, figure) -> float:
    """Median over units of ``figure(unit)``."""
    return statistics.median(figure(u) for u in units)


def latency_ms(units, q: float) -> float:
    """q-th percentile of the latency samples of all units, in ms."""
    return percentile([s for u in units for s in u.op_s], q) * 1000


def work_s(unit) -> float:
    return sum(unit.pieces_s)


def end_to_end(name: str, setups: list[float], units) -> dict[str, tuple[float, str]]:
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_ratio": (1 - failed / attempted, "ratio"),
        "wire_msgs": (unit_median(units, lambda u: sum(u.wire_msgs.values())), "count"),
        "wire_bytes": (unit_median(units, lambda u: sum(u.wire_bytes.values())), "B"),
        "sim_ticks": (unit_median(units, lambda u: u.ticks), "count"),
        "ops_per_s": (unit_median(units, lambda u: u.ops / work_s(u)), "1/s"),
        "op_ms_p50": (latency_ms(units, 50), "ms"),
        "op_ms_tail": (latency_ms(units, TAIL_PERCENTILE[name]), "ms"),
    }


def aliases(name: str, metrics: dict, units) -> dict[str, tuple[float, str]]:
    """The workload-specific names of the generic metrics."""
    if name == "federation":
        return {"converge_s": (metrics["op_ms_p50"][0] / 1000, "s"),
                "converge_ticks": metrics["sim_ticks"]}
    if name == "transfers":
        return {"transfers_per_s": metrics["ops_per_s"],
                "transfer_ms_p50": metrics["op_ms_p50"],
                "transfer_ms_p99": (latency_ms(units, 99), "ms")}
    return {"suite_ms_p50": metrics["op_ms_p50"],
            "suite_ms_p90": metrics["op_ms_tail"]}


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------

def measure_traced(workload, seed: int, count: int):
    """``count`` pairs of an untraced and a traced unit."""
    from workloads import run_unit
    tracer = layers.Tracer()
    plain, traced = [], []
    for _ in range(count):
        plain.append(run_unit(workload, seed))
        with tracer:
            traced.append(run_unit(workload, seed))
    return tracer, plain, traced


def per_layer(tracer, plain, traced) -> dict[str, tuple[float, str]]:
    n = len(traced)
    st = tracer.stat

    def calls(*keys):
        return (sum(st(k).calls for k in keys) / n, "count")

    def self_s(*keys):
        return (sum(st(k).self_s for k in keys) / n, "s")

    encoders = layers.ENCODERS
    merge = st(layers.MERGE)
    handlers = [k for k in tracer.stats
                if k.startswith("netsim.nodes.") and k.endswith(".handle")]
    out = {
        "codec.encode.calls": calls(*encoders),
        "codec.encode.bytes": (sum(st(k).result_bytes for k in encoders) / n, "B"),
        "codec.encode.self_s": self_s(*encoders),
        "codec.decode.calls": calls("codec.canonical_decode"),
        "codec.decode.self_s": self_s("codec.canonical_decode"),
        "crypto.sign.calls": calls("crypto.sign"),
        "crypto.sign.self_s": self_s("crypto.sign"),
        "crypto.verify.calls": calls("crypto.verify"),
        "crypto.verify.self_s": self_s("crypto.verify"),
        "crypto.digest.calls": calls("crypto.digest"),
        "pki.validate_chain.calls": calls("pki.validate_chain"),
        "pki.validate_chain.self_s": self_s("pki.validate_chain"),
        "resolver.merge.calls": calls(layers.MERGE),
        "resolver.merge.applied_ratio": (
            merge.applied / merge.calls if merge.calls else 0.0, "ratio"),
        "resolver.merge.self_s": self_s(layers.MERGE),
        "resolver.lookup.calls": calls("resolver.ResolverService.lookup"),
        "resolver.lookup.self_s": self_s("resolver.ResolverService.lookup"),
        "resolver.build_adv.calls": calls("resolver.ResolverService.build_advertisement"),
        "travel_rule.sign_payload.self_s": self_s("travel_rule.sign_payload"),
        "travel_rule.verify_payload.self_s": self_s("travel_rule.verify_signed_payload"),
        "travel_rule.correlate.calls": calls("travel_rule.CorrelationStore.correlate"),
        "travel_rule.correlate.self_s": self_s("travel_rule.CorrelationStore.correlate"),
        "travel_rule.consent_check.self_s": self_s("travel_rule.ConsentStore.check"),
        "ledger.submit.self_s": self_s("ledger.Ledger.submit_transfer"),
        "ledger.confirm_block.self_s": self_s("ledger.Ledger.confirm_block"),
        "ledger.confirmed_txs.self_s": self_s("ledger.Ledger.confirmed_txs"),
        "claims.self_s": (tracer.layer_self_s("claims") / n, "s"),
        "wallet.self_s": (tracer.layer_self_s("wallet") / n, "s"),
        "netsim.sim.send.calls": calls("netsim.sim.Simulation.send"),
        "netsim.sim.send.self_s": self_s("netsim.sim.Simulation.send"),
        "netsim.sim.step.calls": calls("netsim.sim.Simulation.step"),
        "netsim.sim.step.self_s": self_s("netsim.sim.Simulation.step"),
        "netsim.sim.emit.calls": calls("netsim.sim.Simulation.emit"),
        "netsim.sim.emit.self_s": self_s("netsim.sim.Simulation.emit"),
        "netsim.sim.establish_channel.calls": calls("netsim.sim.Simulation.establish_channel"),
    }
    msgs = sum((u.wire_msgs for u in traced), Counter())
    sizes = sum((u.wire_bytes for u in traced), Counter())
    for body_type in MESSAGE_TYPES:
        out[f"netsim.sim.wire.msgs.{body_type}"] = (msgs[body_type] / n, "count")
        out[f"netsim.sim.wire.bytes.{body_type}"] = (sizes[body_type] / n, "B")
    out["netsim.nodes.handle.self_s"] = self_s(*handlers)
    out["netsim.trace.events"] = (sum(u.trace_events for u in traced) / n, "count")
    out["netsim.world.build_s"] = (st("netsim.world.build_world").total_s / n, "s")
    out["tracing_overhead_ratio"] = (
        unit_median(traced, work_s) / unit_median(plain, work_s), "ratio")
    return out


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("federation", "transfers", "scenarios"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vasptrust" / "__init__.py").is_file():
        print(f"error: no vasptrust sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]

    if args.trace:
        count = max(1, unit_count(args.workload, args.seconds) // 2)
        tracer, plain, traced = measure_traced(workload, args.seed, count)
        units = plain + traced
        problems = check_units(units)
        metrics = per_layer(tracer, plain, traced)
        info = {}
    else:
        count = unit_count(args.workload, args.seconds)
        setups, units, scale = measure(workload, args.seed, count)
        problems = check_units(units)
        metrics = end_to_end(args.workload, setups, units)
        info = {**aliases(args.workload, metrics, units),
                "host_speed_scale": (scale, "ratio")}
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    reasons = sum((u.failure_reasons for u in units), Counter())

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"units={len(units)} ops={sum(u.ops for u in units)} "
          f"latency_samples={sum(len(u.op_s) for u in units)}")
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print(f"  {'failed_ratio':40s} {failed / attempted:.6g} "
          f"({failed} of {attempted}; {dict(reasons) or 'none'})")
    print(f"  {'src_lines':40s} {src_line_count()}")
    for key, digest in units[0].trace_sha256.items():
        print(f"  trace_sha256.{key:27s} {digest}")
    for problem in sorted(set(problems)):
        print(f"  PROBLEM {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
