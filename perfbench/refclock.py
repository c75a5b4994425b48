"""A clock that reads in reference seconds, so host speed drift cancels.

On a shared host the speed of the same code drifts by 10-50 % within
seconds, so wall time of a pass says as much about the neighbours as about
lpiforms.  This clock samples the host's speed every INTERVAL seconds (a
SIGALRM handler times `calibration()`, a fixed loop that calls nothing in
lpiforms, so a faster lpiforms still reads faster) and advances at wall
rate x REFERENCE / (calibration time): one reference second is a second
of wall time at the speed where the loop takes REFERENCE seconds.  The
calibration pauses themselves are not counted.  Between two samples the
speed is taken as the mean of the two.

    refclock.start()           # after numpy is imported
    t0 = refclock.now()
    ...                        # work
    ref = refclock.now() - t0  # reference seconds
    refclock.stop()

`paused()` is the wall time spent calibrating so far, so wall time of
the work is perf_counter() difference minus paused() difference.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

INTERVAL = 0.025   # s between speed samples (about a tenth of wall time calibrates)
REFERENCE = 2.0e-3  # s the calibration loop takes at reference speed: about
# its median on the 2-vCPU Xeon host the bounds were set on

# Inputs of the calibration loop; fixed, so every sample does the same work.
_TERMS_A = {((i % 3, i * 5 % 3, i * 7 % 3), (i % 4, 4 + i % 3)): 1.0 + 0.1 * i for i in range(30)}
_TERMS_B = {((i * 2 % 3, i % 3, i * 11 % 3), (8 + i % 5,)): 0.5 - 0.05 * i for i in range(30)}
_XP = np.linspace(0.0, 1.0, 513)
_FP = np.sin(7.0 * _XP)
_XQ = (np.arange(4000) * 0.6180339887) % 1.0
_SMALL = [np.arange(8.0) + i for i in range(40)]
_SYM = np.add.outer(np.arange(96.0), np.arange(96.0)) % 7.0 + np.diag(np.arange(96.0))

# (reference seconds at mark, perf_counter() at the end of the last
# sample, reference seconds per wall second since then), replaced whole so
# that now() never reads half an update
_state = (0.0, 0.0, 1.0)
_paused = 0.0
_busy = False


def calibration() -> dict:
    """Fixed work of the kinds lpiforms does: a product of two term dicts
    with tuple keys (as in t_wedge), many numpy calls on small arrays (as
    in the mollifier's interpolation) and a dense symmetric eigensolve (as
    in Gauss-Legendre rules and the SVD ranks).  Its time tracks the host's
    speed for the library's own mix better than any one of the three."""
    out: dict = {}
    for (ea, ia), ca in _TERMS_A.items():
        for (eb, ib), cb in _TERMS_B.items():
            key = (tuple(x + y for x, y in zip(ea, eb)), ia + ib)
            out[key] = out.get(key, 0.0) + ca * cb
    for _ in range(3):
        np.dot(np.interp(_XQ, _XP, _FP), _XQ)
    for a in _SMALL:
        np.dot(a, a)
    np.linalg.eigvalsh(_SYM)
    return out


def _sample(*_args) -> None:
    global _state, _paused, _busy
    if _busy:  # a late signal while calibrating
        return
    _busy = True
    t0 = perf_counter()
    calibration()
    t1 = perf_counter()
    ref, mark, old = _state
    rate = REFERENCE / (t1 - t0)
    _state = (ref + (t0 - mark) * 0.5 * (old + rate), t1, rate)
    _paused += t1 - t0
    _busy = False


def start() -> None:
    """Take the first samples and start sampling every INTERVAL seconds."""
    global _state, _paused
    _state = (0.0, perf_counter(), 1.0)
    _sample()  # warms the loop up
    _sample()
    _state, _paused = (0.0,) + _state[1:], 0.0
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)


def stop() -> None:
    """Stop sampling.  The handler stays, for a signal already on its way."""
    signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)


def now() -> float:
    """Reference seconds since start(); between samples at the last rate."""
    ref, mark, rate = _state
    return ref + (perf_counter() - mark) * rate


def paused() -> float:
    """Wall seconds spent in calibration since start()."""
    return _paused
