"""Per-layer tracing: wraps the public functions and methods of each layer.

While a ``Tracer`` is installed, every public function of a layer module and
every public method of a class defined there is replaced by a wrapper that
counts calls and measures total and self time (total minus the time of
wrapped calls made inside it). A name is patched where callers look it up:
the module attribute, the class attribute, and every ``vasptrust`` module
that bound the function with ``from x import f``. ``restore`` puts every
original back. Nothing in the program's state or trace changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

# Layer name -> module. Layer names prefix the per-layer metric names.
LAYERS = {
    "codec": "vasptrust.codec",
    "crypto": "vasptrust.crypto",
    "pki": "vasptrust.pki",
    "resolver": "vasptrust.resolver",
    "travel_rule": "vasptrust.travel_rule",
    "ledger": "vasptrust.ledger",
    "claims": "vasptrust.claims",
    "wallet": "vasptrust.wallet",
    "netsim.sim": "vasptrust.netsim.sim",
    "netsim.nodes": "vasptrust.netsim.nodes",
    "netsim.world": "vasptrust.netsim.world",
}

ENCODERS = ("codec.canonical_encode", "codec.struct_bytes")
MERGE = "resolver.ResolverService.merge_advertisement"


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    result_bytes: int = 0  # summed len() of results, for encoders
    applied: int = 0       # APPLIED outcomes, for merges


class Tracer:
    """Install with ``with Tracer() as tracer:``; read ``tracer.stats``."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self._stack: list[list[float]] = []  # [start, child time] per open call
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, key: str, func):
        stats = self.stats
        stack = self._stack
        clock = time.perf_counter
        applied = None
        if key == MERGE:
            from vasptrust.resolver import MergeOutcome
            applied = MergeOutcome.APPLIED
        count_bytes = key in ENCODERS

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stat = stats.get(key)
                if stat is None:
                    stat = stats[key] = Stat()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frame[1]
            if count_bytes:
                stat.result_bytes += len(result)
            elif applied is not None and result is applied:
                stat.applied += 1
            return result

        return wrapper

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped: dict[int, object] = {}  # id(original function) -> wrapper
        for layer, module_name in LAYERS.items():
            module = importlib.import_module(module_name)
            for name, obj in sorted(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module_name:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(f"{layer}.{name}", obj)
                    wrapped[id(obj)] = wrapper
                    self._patch(module, name, wrapper)
                elif inspect.isclass(obj):
                    for attr, member in sorted(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(member):
                            self._patch(obj, attr, self._wrap(
                                f"{layer}.{name}.{attr}", member))
        # Names bound by ``from x import f`` in any loaded module. The
        # originals stay referenced by self._patches, so their ids are unique.
        patched = {(id(owner), name) for owner, name, _ in self._patches}
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not module_name.startswith("vasptrust"):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = wrapped.get(id(obj))
                if wrapper is not None and (id(module), name) not in patched:
                    self._patch(module, name, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        self._stack.clear()

    # -- reading ----------------------------------------------------------------

    def stat(self, key: str) -> Stat:
        return self.stats.get(key, Stat())

    def layer_self_s(self, layer: str) -> float:
        return sum(s.self_s for k, s in self.stats.items()
                   if k.startswith(layer + "."))
