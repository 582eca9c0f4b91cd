"""Machine-speed probe that scales the benchmark's timings to a reference speed.

On a shared host this process's speed swings by up to 1.8x over tens of
seconds as other tenants load the machine, so raw wall times of identical
runs a minute apart differ by more than any useful regression bound. Each
timed span is therefore bracketed by a probe: fixed benchmark-owned work
that runs no crowdgnn code, so no change to the program can move it. A
span's wall time is multiplied by ``reference / mean(probe before, probe
after)``. The probe mixes the two kinds of work the workloads spend their
time in, because contention slows them by different amounts: Python loops
around small numpy calls, like the autodiff tape, and pairwise-distance
arithmetic over 200 pedestrians, like a dense graph build.
"""
from __future__ import annotations

import time

import numpy as np

# the probe's typical time on a 2-core x86-64 host (Python 3.11, numpy 2.4),
# so scaled times read as seconds on that host
REFERENCE_PROBE_S = 0.0070
PROBE_REPEATS = 3


def _tape_work(rng: np.random.Generator) -> None:
    """Python loops around small numpy calls, like the autodiff tape."""
    small, w = rng.standard_normal((8, 5)), rng.standard_normal((5, 5))
    keep = []
    for _ in range(50):
        b = small @ w
        c = np.where(b > 0, b, 0.25 * b)
        d = np.pad(c, ((1, 1), (0, 0)))[1:-1] + 1.0
        keep.append((b, d, lambda x, c=c: x * c))
        float(d.sum())
    s = 0
    for i in range(2000):
        s += i * i


def _array_work(rng: np.random.Generator) -> None:
    """Pairwise-distance kernels and matmuls over 200 pedestrians, like a dense graph build."""
    pos = rng.standard_normal((2, 200, 2))
    m = rng.standard_normal((200, 5))
    for p in pos:
        diff = p[:, None, :] - p[None, :, :]
        dist = np.sqrt(diff[..., 0] * diff[..., 0] + diff[..., 1] * diff[..., 1])
        w = np.where(dist > 0, np.exp(-dist), 0.0)
        float((w @ m).sum())


def probe() -> float:
    """Median seconds of PROBE_REPEATS runs of the probe's fixed work."""
    times = []
    for _ in range(PROBE_REPEATS):
        rng = np.random.default_rng(0)
        t0 = time.perf_counter()
        _tape_work(rng)
        _array_work(rng)
        times.append(time.perf_counter() - t0)
    return sorted(times)[PROBE_REPEATS // 2]


class Speed:
    """Probes before and after consecutive spans; ``factor()`` scales the last one."""

    def __init__(self):
        self.before = probe()
        self.factors: list[float] = []

    def rebase(self) -> None:
        """Probe again after untimed work, just before the next span starts."""
        self.before = probe()

    def factor(self) -> float:
        """Scale for the span since the last probe; the new probe starts the next."""
        after = probe()
        f = REFERENCE_PROBE_S / (0.5 * (self.before + after))
        self.before = after
        self.factors.append(f)
        return f
