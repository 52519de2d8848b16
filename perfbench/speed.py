"""Machine-speed probe, so that timings are comparable across moments.

On a shared virtual machine the speed of the same pure-Python loop drifts
by tens of percent within seconds (measured on the 2-core box this
benchmark was built on: a 1 s window varied by 22% IQR/median, a 20 s
window by 8%).  A raw wall-clock throughput then says more about the
neighbours than about the program.

A sample runs a fixed loop (the companion-matrix walk written out here,
independent of monomod); its speed is REFERENCE_S over the loop's
duration, so 1.0 means as fast as the reference box and 0.8 means 25%
slower.  A wall-clock interval times the mean speed sampled during it is
its length in reference seconds, once the probe's own time inside it is
taken out.  Where the samples are taken depends on where the timed work
runs:

* on this thread (`SpeedProbe()`): SIGALRM interrupts the work every
  PERIOD_S to sample;
* in forked pool workers (`SpeedProbe(workers_dir=...)`): each process
  forked while the probe is active samples itself the same way and
  appends its samples to a file there, marking whether it interrupted
  monomod code (busy) or the wait for the next task (idle).  The pool
  finishes when its last busy worker does, so an interval is scaled by
  the busy samples of the worker busy last.  The waiting parent does not
  sample: on a 2-core box a third busy process would slow the workers
  and be slowed by them;
* in subprocesses the caller waits for (`SpeedProbe(between=True)`):
  nothing interrupts; the caller, pinned to the CPU its subprocesses run
  on, calls `sample()` before each request, and a request is scaled by
  the samples just before and after it.  Sampling while the subprocess
  ran measured the other CPU and made the figures less steady, not more;
* for set-up, each probe interpreter reports `sample_speed()` right
  after it is ready, and run.py scales that probe's set-up time by it.
"""

from __future__ import annotations

import os
import signal
import statistics
from pathlib import Path
from time import perf_counter

PERIOD_S = 0.2
STEPS = 20_000
REFERENCE_S = 0.0055  # the loop's typical time on the reference box; only a scale

_active: "SpeedProbe | None" = None
_fork_hook_registered = False


def calibration_loop(steps: int = STEPS) -> float:
    n, k = 1_000_003, 5
    a, b, c, d = k, n - 1, 1, 0
    start = perf_counter()
    for _ in range(steps):
        a, b, c, d = (k * a - c) % n, (k * b - d) % n, a, b
    return perf_counter() - start


def _sample() -> tuple[float, float, float]:
    """(time, speed, seconds the sample took)."""
    start = perf_counter()
    loop = calibration_loop()
    return start, REFERENCE_S / loop, perf_counter() - start


def sample_speed() -> float:
    return REFERENCE_S / calibration_loop()


def _probe_forked_child() -> None:
    probe = _active
    if probe is None or probe.workers_dir is None:
        return
    path = probe.workers_dir / f"speed-{os.getpid()}.txt"

    def sample(signum, frame) -> None:
        busy = 0
        while frame is not None and not busy:
            busy = f"{os.sep}monomod{os.sep}" in frame.f_code.co_filename
            frame = frame.f_back
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("%r %r %r %d %d\n" % (*_sample(), os.getpid(), busy))

    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)


class SpeedProbe:
    """Context manager collecting speed samples; see the module docstring."""

    def __init__(self, workers_dir: Path | None = None, between: bool = False) -> None:
        self.samples: list[tuple[float, float, float]] = []
        # worker samples also carry the pid and the busy flag
        self.worker_samples: list[tuple[float, float, float, float, float]] = []
        self.workers_dir = workers_dir
        self.interrupts = workers_dir is None and not between
        self._previous = None

    def sample(self, signum=None, frame=None) -> None:
        self.samples.append(_sample())

    def __enter__(self) -> "SpeedProbe":
        global _active, _fork_hook_registered
        if self.workers_dir is not None:
            self.workers_dir.mkdir(parents=True, exist_ok=True)
            if not _fork_hook_registered:
                os.register_at_fork(after_in_child=_probe_forked_child)
                _fork_hook_registered = True
        _active = self
        self.sample()
        if self.interrupts:
            self._previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        global _active
        _active = None
        if self.interrupts:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        if self.workers_dir is not None:
            for path in self.workers_dir.glob("speed-*.txt"):
                with open(path, encoding="utf-8") as fh:
                    self.worker_samples.extend(
                        tuple(map(float, line.split())) for line in fh if line.strip()
                    )
                path.unlink()
            self.workers_dir.rmdir()

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds for the wall-clock interval [start, end]: its
        length, less the time the probe itself spent inside it, times the
        mean speed sampled during it (with no sample inside, the mean of
        the nearest samples before and after).  For pool work, only the
        busy samples of the worker busy last count."""
        seconds = end - start
        busy = [s for s in self.worker_samples if s[4] and start <= s[0] <= end]
        if busy:
            last = max(busy)[3]
            samples = [s for s in busy if s[3] == last]
            seconds -= sum(s[2] for s in samples)
        else:
            samples = self.samples
            seconds -= sum(d for t, _, d in samples if start <= t <= end)
        speeds = [sample[1] for sample in samples if start <= sample[0] <= end]
        if not speeds:
            before = [sample for sample in samples if sample[0] < start]
            after = [sample for sample in samples if sample[0] > end]
            speeds = [max(before)[1]] if before else []
            speeds += [min(after)[1]] if after else []
        return seconds * statistics.mean(speeds)
