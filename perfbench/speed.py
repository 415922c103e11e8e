"""The host's speed, sampled while the benchmark measures.

On a shared host the speed of the program moves by up to 1.7x within
seconds and between runs, with other tenants' load and with nothing in the
program. A Sampler measures the speed at the same moments the program
runs: every PERIOD_S of wall time a SIGALRM handler times a fixed
reference slice, SLICE_VERIFIES Ed25519 verifications of one message
through the library the program signs with. Of the slices tried (string
formatting and hashing, object and dict work, bytes building, Ed25519)
this one followed the program's own speed closest, on every workload.

While a Sampler runs, ``clock`` leaves out the time spent in slices and
runs at the host's reference speed: each period between two slices
counts REFERENCE_S / (median of the last WINDOW slices) times its length.
So a time taken with ``clock`` reads as seconds on a host that runs a
slice in REFERENCE_S, about the slice's median on an unloaded 2-vCPU VM,
whatever the load was while it was taken. Outside a Sampler ``clock`` is
perf_counter.

The slice allocates no container, so it never sets off a collection of the
program's garbage and never takes the program's time.
"""

from __future__ import annotations

import signal
import statistics
import time

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

PERIOD_S = 0.01
WINDOW = 9
SLICE_VERIFIES = 2
REFERENCE_S = 0.000230

_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_PUBLIC = _KEY.public_key()
_MESSAGE = bytes(range(200))
_SIGNATURE = _KEY.sign(_MESSAGE)

# clock() = _base + (perf_counter() - _base_at) * _scale
_base = 0.0
_base_at = 0.0
_scale = 1.0
_changes = 0  # bumped on every change of the three above


def clock() -> float:
    """Seconds at the reference speed, without the reference slices."""
    while True:
        changes = _changes
        value = _base + (time.perf_counter() - _base_at) * _scale
        if _changes == changes:
            return value


def _restart(counted_until: float, at: float, scale: float) -> None:
    """Count the time up to ``counted_until``; go on from ``at`` at ``scale``."""
    global _base, _base_at, _scale, _changes
    _base += (counted_until - _base_at) * _scale
    _base_at, _scale = at, scale
    _changes += 1


def time_slice() -> float:
    t0 = time.perf_counter()
    for _ in range(SLICE_VERIFIES):
        _PUBLIC.verify(_SIGNATURE, _MESSAGE)
    return time.perf_counter() - t0


class Sampler:
    """Times a reference slice every PERIOD_S while the context is open."""

    def __init__(self) -> None:
        self.slices_s: list[float] = []
        self._old_handler = None
        self._in_tick = False

    def _window_scale(self) -> float:
        return REFERENCE_S / statistics.median(self.slices_s[-WINDOW:])

    def _tick(self, signum, frame) -> None:
        if self._in_tick:  # a tick that came due during a slow slice
            return
        self._in_tick = True
        start = time.perf_counter()
        self.slices_s.append(time_slice())
        _restart(start, time.perf_counter(), self._window_scale())
        self._in_tick = False

    def __enter__(self) -> "Sampler":
        start = time.perf_counter()
        self.slices_s = [time_slice() for _ in range(WINDOW)]
        _restart(start, time.perf_counter(), self._window_scale())
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        now = time.perf_counter()
        _restart(now, now, 1.0)

    def scale(self) -> float:
        """The run's scale: REFERENCE_S over the median of all its slices."""
        return REFERENCE_S / statistics.median(self.slices_s)
