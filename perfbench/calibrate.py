"""Host speed, measured with a fixed piece of work that does not use hiertsc.

On a shared virtual machine the speed of plain CPU work drifts by 20-60%
over minutes, and a pass of hiertsc slows with it.  The benchmark times this
module's unit of work for a short while after every timed operation, and
rescales the run's wall times by the mean unit time of the run:
``wall * REFERENCE_UNIT_S / mean unit time``.  Those are *reference
seconds*: the time the operation would take on the reference host in a quiet
stretch.  A change to hiertsc moves them; a change of host speed moves them
much less than it moves wall time.

The unit mixes what a hiertsc pass spends its time on: interpreter work
(loops, dict updates), gathers of sliding windows out of a series matrix
contracted against a short kernel, and a ridge solve with 256 features.  Its
arrays have the sizes of the benchmark's data, so that it shares the passes'
use of the caches.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds one :func:`unit` takes on the reference host (a 2-vCPU x86_64
#: virtual machine, one BLAS thread) in a quiet stretch.
REFERENCE_UNIT_S = 0.015

#: How long one calibration sample runs.
SAMPLE_S = 0.25

_rng = np.random.default_rng(0)
_SERIES = _rng.standard_normal((160, 64))
_KERNEL = _rng.standard_normal(9)
_WINDOWS = [np.arange(64 - 8 * d)[:, None] + np.arange(9)[None, :] * d for d in (1, 2, 3, 4)]
_FEATURES = _rng.standard_normal((120, 256))


def unit() -> None:
    counts: dict[int, int] = {}
    total = 0
    for i in range(20_000):
        total += i * i
        counts[i % 97] = counts.get(i % 97, 0) + 1
    for windows in _WINDOWS * 4:
        padded = np.zeros((len(_SERIES), _SERIES.shape[1] + 8))
        padded[:, 4:-4] = _SERIES
        conv = padded[:, windows] @ _KERNEL
        (conv > 0).mean(axis=1)
        conv.max(axis=1)
    for _ in range(2):
        gram = _FEATURES.T @ _FEATURES + np.eye(_FEATURES.shape[1])
        np.linalg.solve(gram, _FEATURES.T[:, :8])


def sample(seconds: float = SAMPLE_S) -> float:
    """Mean wall time of one :func:`unit` over at least ``seconds``."""
    start = time.perf_counter()
    done = 0
    while True:
        unit()
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return elapsed / done
