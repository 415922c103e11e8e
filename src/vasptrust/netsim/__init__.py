"""Deterministic discrete-event network simulation of the trust protocols."""

from .scenarios import (SCENARIOS, UnknownScenario, graph_diameter,
                        run_scenario_with_world)
from .sim import (ChannelClosed, Envelope, FaultConfig, PeerCertInvalid,
                  SecureChannel, Simulation)
from .trace import Assertion, ScenarioTrace, TraceEvent, parse_trace_text
from .world import World, build_world

__all__ = [
    "SCENARIOS", "UnknownScenario", "graph_diameter",
    "run_scenario_with_world",
    "ChannelClosed", "Envelope", "FaultConfig",
    "PeerCertInvalid", "SecureChannel", "Simulation",
    "Assertion", "ScenarioTrace", "TraceEvent", "parse_trace_text",
    "World", "build_world",
]
