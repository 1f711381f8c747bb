"""Machine-speed calibration for every time the benchmark reports.

On a shared host a core's speed drifts by tens of percent over seconds:
a fixed pure-Python loop timed back to back for a minute on a 2-core
host ran anywhere from 13 to 22 ms, in phases lasting seconds to tens
of seconds, with CPU time equal to wall time.  No run length averages
that away, so each timed stretch of work is bracketed by a short fixed
loop, and its time is scaled by REFERENCE_S over the loop's time
measured next to it.  A reported time therefore reads as the time the
work would take with the loop at REFERENCE_S.  The loop touches no
toroshrink code.
"""

import statistics
import threading
import time

REFERENCE_S = 0.0012  # the loop's median time on the 2-core host the benchmark was built on


def _loop() -> float:
    t = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(3000):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) + i
        acc += i * i % 13
    return time.perf_counter() - t


def sample() -> float:
    """Fastest of three runs of the fixed loop (drops interrupt spikes)."""
    return min(_loop() for _ in range(3))


class Scaler:
    """Factors for consecutive stretches of work, each bracketed by samples."""

    def __init__(self):
        self.last = sample()

    def factor(self) -> float:
        """Scale factor for the work done since the previous sample."""
        now = sample()
        f = 2 * REFERENCE_S / (self.last + now)
        self.last = now
        return f


class Sampler:
    """Samples the loop on a background thread while the main thread runs
    code that cannot be interrupted for calibration (an import, a whole
    CLI command).  ``stop`` returns (scale factor, seconds the samples
    took, which the caller subtracts from its elapsed time)."""

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.samples = [sample()]
        self.busy = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            t = _loop()
            self.busy += t
            self.samples.append(t)

    def stop(self) -> tuple[float, float]:
        self._stop.set()
        self._thread.join()
        self.samples.append(sample())
        return REFERENCE_S / statistics.median(self.samples), self.busy


def timed(fn):
    """(fn(), scaled seconds fn took, scale factor), sampled while it runs."""
    sampler = Sampler()
    t = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - t
    factor, busy = sampler.stop()
    return result, (elapsed - busy) * factor, factor
