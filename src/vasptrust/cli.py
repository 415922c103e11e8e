"""Command-line front end: init a workspace, run scenarios, report results.

    vtn init   --config topology.json [--workspace DIR]
    vtn run    --scenario S1 [--workspace DIR] [--seed-override N]
               [--trace-out FILE] [--override key=value ...]
    vtn report [--workspace DIR]

The workspace defaults to $VTN_WORKSPACE. Every behavior here is a thin
shell over the library; identical library calls produce identical results.
``vtn report`` counts events per kind and refusals per ``pki.Refusal``,
read from the ``reason=`` fields of the workspace's traces.
Exit codes: 0 success / all assertions passed, 1 scenario assertion failed,
2 configuration or usage error, which covers every refused config value,
seed override and scenario parameter, and a configured name the trace
cannot hold as one field (``UnrenderableField``); no trace is written then.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from collections import Counter
from pathlib import Path

from . import pki, travel_rule
from .config import (ConfigError, Seed, TopologyConfig, config_to_dict,
                     load_config, read)
from .netsim import run_scenario_with_world
from .netsim.scenarios import ScenarioError
from .netsim.trace import UnrenderableField, parse_trace_text
from .netsim.world import build_world

EXIT_OK = 0
EXIT_ASSERTION_FAILED = 1
EXIT_CONFIG_ERROR = 2


def _workspace_path(args) -> Path:
    ws = args.workspace or os.environ.get("VTN_WORKSPACE")
    if not ws:
        raise ConfigError("workspace", "no --workspace given and VTN_WORKSPACE unset")
    return Path(ws)


def _build_manifest(config: TopologyConfig) -> dict:
    world = build_world(config, scenario="init")
    certificates = []
    for cert in world.root.issued_certificates():
        if isinstance(cert, pki.EvIdentityCertificate):
            kind, about = "identity", {
                "subject_organization": cert.subject.organization_name,
                "entity_number": cert.subject.vasp_number}
        else:
            kind, about = "signing", {"purpose": cert.purpose.value}
        certificates.append({"serial": cert.serial, "kind": kind,
                             "hex": pki.cert_to_hex(cert), **about})
    devices = [
        {"device_id": device_id,
         "boot_digest": device.boot_digest.hex(),
         "attestation_public_key": device.attestation_public_key.hex()}
        for device_id, device in sorted(world.devices.items())
    ]
    return {
        "consortium": config.consortium,
        "seed": config.seed,
        "root_public_key": world.root.public_key.hex(),
        "certificates": certificates,
        "devices": devices,
        "vasp_numbers": sorted(world.vasps),
        "scenarios": sorted(config.scenario_params) or ["S1", "S2", "S3", "S4", "S5"],
    }


def cmd_init(args) -> int:
    workspace = _workspace_path(args)
    if not args.config:
        raise ConfigError("init", "--config is required")
    config = load_config(args.config)
    workspace.mkdir(parents=True, exist_ok=True)
    (workspace / "traces").mkdir(exist_ok=True)
    (workspace / "config.json").write_text(
        json.dumps(config_to_dict(config), indent=2) + "\n")
    manifest = _build_manifest(config)
    (workspace / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"workspace {workspace} initialized: "
          f"{len(manifest['certificates'])} certificates, "
          f"{len(manifest['devices'])} wallet devices")
    return EXIT_OK


def _parse_overrides(pairs: list[str]) -> dict:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError("override", f"expected key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    return overrides


def cmd_run(args) -> int:
    workspace = _workspace_path(args)
    config_path = workspace / "config.json"
    if not config_path.exists():
        raise ConfigError(str(config_path),
                          "workspace not initialized (run `vtn init` first)")
    config = load_config(config_path)
    if args.seed_override is not None:
        config = dataclasses.replace(config, seed=read(
            Seed, args.seed_override, "--seed-override"))
    overrides = _parse_overrides(args.override or [])

    trace, world = run_scenario_with_world(args.scenario, config,
                                           overrides=overrides)
    trace_path = Path(args.trace_out) if args.trace_out \
        else workspace / "traces" / f"{args.scenario}.trace"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(trace.to_text())

    chain_path = workspace / "traces" / f"{args.scenario}.chain.txt"
    chain_path.write_text(world.ledger.dump_chain())
    payload_lines = []
    for number in sorted(world.vasps):
        store = world.vasps[number].payload_store
        if store:
            payload_lines.append(f"# vasp:{number}")
            payload_lines.append(travel_rule.dump_payload_store(store).rstrip("\n"))
    (workspace / "traces" / f"{args.scenario}.payloads.txt").write_text(
        "\n".join(payload_lines) + ("\n" if payload_lines else ""))

    for assertion in trace.assertions:
        print(assertion.line())
    print(f"trace written to {trace_path}")
    return EXIT_OK if trace.passed else EXIT_ASSERTION_FAILED


def cmd_report(args) -> int:
    workspace = _workspace_path(args)
    trace_dir = workspace / "traces"
    trace_files = sorted(trace_dir.glob("*.trace")) if trace_dir.exists() else []
    if not trace_files:
        raise ConfigError(str(trace_dir), "no traces found; run a scenario first")

    counted_events = {
        "payloads_validated": "travel_rule.payload_validated",
        "consents_recorded": "travel_rule.consent_recorded",
        "correlations": "travel_rule.correlated",
        "consent_receipts": "claims.receipt_issued",
        "attestation_evidence": "attest.evidence_produced",
        "attestation_checkpoints": "attest.checkpoint",
        "blocks_confirmed": "ledger.block_confirmed",
    }
    rows = []
    totals = {key: 0 for key in counted_events}
    reasons = Counter()
    for path in trace_files:
        try:
            trace = parse_trace_text(path.read_text())
        except ValueError as exc:
            raise ConfigError(str(path), f"malformed trace: {exc}") from None
        rows.append((trace.scenario, "PASS" if trace.passed else "FAIL",
                     len(trace.events),
                     sum(1 for a in trace.assertions if a.passed),
                     len(trace.assertions)))
        for key, event in counted_events.items():
            totals[key] += len(trace.find(event))
        reasons.update(e.get("reason") for e in trace.events)

    print(f"{'scenario':<10} {'result':<7} {'events':>7} {'assertions':>11}")
    for scenario, result, events, ok, total in rows:
        print(f"{scenario:<10} {result:<7} {events:>7} {f'{ok}/{total}':>11}")
    print()
    for key in sorted(counted_events):
        print(f"{key}: {totals[key]}")
    print("\nrefusals:")
    for refusal in pki.Refusal:
        if reasons[refusal.value]:
            print(f"{refusal.value} {reasons[refusal.value]}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: a parser holds reference cycles, so one
    built per ``main`` call would be left for the cyclic collector."""
    parser = argparse.ArgumentParser(
        prog="vtn",
        description="Deterministic VASP trust-network simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_init = sub.add_parser("init", help="create a workspace from a config")
    p_init.add_argument("--config", required=True, help="topology JSON file")
    p_init.add_argument("--workspace", help="workspace directory "
                                            "(default: $VTN_WORKSPACE)")
    p_init.set_defaults(func=cmd_init)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("--scenario", required=True,
                       help="scenario name (S1..S5)")
    p_run.add_argument("--workspace", help="workspace directory")
    p_run.add_argument("--seed-override", type=int, default=None)
    p_run.add_argument("--trace-out", help="trace file path "
                                           "(default: traces/<scenario>.trace)")
    p_run.add_argument("--override", action="append", metavar="KEY=VALUE",
                       help="override a scenario parameter (JSON value)")
    p_run.set_defaults(func=cmd_run)

    p_report = sub.add_parser("report", help="summarize workspace traces")
    p_report.add_argument("--workspace", help="workspace directory")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ScenarioError, UnrenderableField) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
