"""Measurement rules shared by every workload: passes, machine speed, statistics.

The machine this benchmark runs on is shared.  Interference only ever slows a
pass down; it comes in stretches that last from seconds to minutes and can
take a third of the machine's speed, so no choice of passes *within* a run
escapes it.  Four rules follow (README, "Noise rules"):

* a phase is a sequence of *passes* that all issue the same operations;
* the phases of a workload are interleaved round-robin, one pass of each per
  round, so no phase sits entirely inside one disturbed stretch;
* a fixed calibration loop runs before and after every pass, and the pass is
  scaled to the speed the machine had around it: every duration is reported
  *at reference machine speed*, the speed of the reference box when nothing
  disturbs it (``REFERENCE_CALIB_S``);
* a rate is operations ÷ the median scaled duration of the phase's passes,
  and a latency percentile is the median over the passes of that percentile
  of the pass's scaled per-operation samples.  The wall-clock rate over all
  passes and the machine speed that was applied are kept beside it as
  diagnostics.
"""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from bench import ROOT

MIN_ROUNDS = 4  #: timed rounds, however short the run
WARM_PASSES = 2  #: untimed passes per phase before the timed section
#: What one calibration pass takes on the reference box when nothing disturbs
#: it (the fastest tenth of 9000 back-to-back passes averaged 8.2 ms, the
#: quietest 12 s of a 7 min run 8.1 ms).  Every timing is reported at this
#: machine speed: a pass that ran while its calibration passes took 12 ms
#: counts as two thirds of its wall time.
REFERENCE_CALIB_S = 0.0080
#: A phase whose passes ran on a machine this much slower than the reference
#: is flagged ``disturbed`` (its numbers are not altered).
DISTURBED_BELOW = 0.85


# --------------------------------------------------------------------------- #
# machine speed
# --------------------------------------------------------------------------- #
class _Record:
    __slots__ = ("number", "text")

    def __init__(self, number: int, text: str) -> None:
        self.number = number
        self.text = text


def _pair(left: int, right: int) -> Tuple[int, int]:
    return (left, right)


_KEYS = [(f"k{index}", index % 7) for index in range(400)]
_CACHED = np.arange(40_000, dtype=np.float64)
_CACHED_OUT = np.empty_like(_CACHED)
_CACHED_INTS = np.arange(40_000, dtype=np.int32)
_CACHED_MASK = np.empty(40_000, dtype=bool)
_STREAM = np.arange(200_000, dtype=np.float64)
_STREAM_OUT = np.empty_like(_STREAM)


def _calib_arithmetic() -> None:
    total = 0
    for value in range(40_000):
        total += value * value


def _calib_objects() -> None:
    """Dictionaries, small objects, attribute access, calls, sorting, hashing."""
    for _ in range(6):
        counts: Dict[Tuple[str, int], int] = {}
        for key in _KEYS:
            counts[key] = counts.get(key, 0) + 1
        records = [_Record(index, str(index)) for index in range(300)]
        total = 0
        for record in records:
            total += record.number + len(record.text)
        sorted(_KEYS, key=lambda key: key[1])
        frozenset(name for name, _ in _KEYS)
        [_pair(index, index + 1) for index in range(300)]


def _calib_numpy_cached() -> None:
    """Many short NumPy calls over arrays that stay in cache, as the planner makes."""
    for _ in range(25):
        np.multiply(_CACHED, 1.0001, out=_CACHED_OUT)
        np.less(_CACHED_OUT, 20_000.0, out=_CACHED_MASK)
        _CACHED_OUT[_CACHED_MASK].sum()
        shifted = _CACHED_INTS + 1
        np.minimum(shifted, _CACHED_INTS, out=shifted)
        np.flatnonzero(_CACHED_MASK)


def _calib_numpy_stream() -> None:
    """NumPy streaming through arrays larger than the cache."""
    for _ in range(10):
        np.multiply(_STREAM, 1.0001, out=_STREAM_OUT)
        _STREAM_OUT.sum()


def calibration_pass() -> float:
    """A fixed loop of four kernels of about equal length; returns its seconds.

    Bytecode arithmetic, object-heavy Python, short NumPy calls on cached
    arrays and NumPy streaming: the kinds of work the program under test is
    made of, because interference slows them by different amounts and a loop
    of one kind tracked the program worse (README, "Noise rules").  Its time
    is the machine's, not the program's: nothing under ``src/`` runs.
    """
    started = time.perf_counter()
    _calib_arithmetic()
    _calib_objects()
    _calib_numpy_cached()
    _calib_numpy_stream()
    return time.perf_counter() - started


class Calibration:
    """Calibration samples of one process, and the speed factors they give."""

    REUSE_S = 0.002  #: a sample this fresh also serves the next pass

    def __init__(self, sample: Callable[[], float] = calibration_pass) -> None:
        self._sample = sample
        self.samples: List[float] = []
        self._last_at = -1.0

    def sample(self) -> float:
        if self.samples and time.perf_counter() - self._last_at < self.REUSE_S:
            return self.samples[-1]
        return self._fresh()

    def _fresh(self) -> float:
        self.samples.append(self._sample())
        self._last_at = time.perf_counter()
        return self.samples[-1]

    def burst(self, seconds: float) -> float:
        """The mean of back-to-back samples over ``seconds`` (at least one).

        A stage of a set-up lasts seconds and cannot be interrupted, while the
        machine's speed flickers by ±15 % within tenths of a second: one pass
        on either side of the stage says too little about the speed it had.
        """
        started = time.perf_counter()
        taken = [self.sample()]
        while time.perf_counter() - started < seconds:
            taken.append(self._fresh())
        return sum(taken) / len(taken)

    @staticmethod
    def speed(before: float, after: float) -> float:
        """Reference time ÷ the time the machine took around a pass (1 = reference)."""
        return REFERENCE_CALIB_S / (0.5 * (before + after))

    def summary(self) -> Dict[str, float]:
        return {
            "machine.calib_ms": 1e3 * float(np.median(self.samples)),
            "machine.calib_samples": len(self.samples),
        }


class Staged:
    """Times consecutive stages of a set-up at reference machine speed.

    A burst of calibration passes runs between stages while the clock is
    stopped; each stage is scaled by the bursts on either side of it.
    """

    def __init__(self, calibration: Calibration, burst_s: float) -> None:
        self._calibration = calibration
        self._burst_s = burst_s
        self.wall: Dict[str, float] = {}
        self.scaled: Dict[str, float] = {}
        self._calib = calibration.burst(burst_s)
        self._started = time.perf_counter()

    def stage(self, name: str) -> None:
        wall = time.perf_counter() - self._started
        calib = self._calibration.burst(self._burst_s)
        self.wall[name] = wall
        self.scaled[name] = wall * Calibration.speed(self._calib, calib)
        self._calib = calib
        self._started = time.perf_counter()

    def finish(self) -> Dict[str, float]:
        """The scaled stages (seconds; ``*_ms`` names in ms), their sum, and the wall sum."""
        stages = {
            name: value * 1e3 if name.endswith("_ms") else value
            for name, value in self.scaled.items()
        }
        stages["setup_s"] = sum(self.scaled.values())
        stages["setup_wall_s"] = sum(self.wall.values())
        return stages


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #
def percentile(samples: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


@dataclass
class PhaseResult:
    """Everything one phase measured; see :meth:`summarise`."""

    name: str
    ops_per_pass: int
    durations: List[float] = field(default_factory=list)  #: per pass, as the wall clock saw it
    scaled: List[float] = field(default_factory=list)  #: per pass, at reference machine speed
    #: per pass, the per-operation latencies in seconds at reference machine
    #: speed (empty for a phase whose operations have no individual latency)
    latencies: List[Sequence[float]] = field(default_factory=list)
    attempted: int = 0
    answered: int = 0
    failed: int = 0

    def record(
        self, duration: float, latencies: Optional[Sequence[float]] = None, *, speed: float
    ) -> None:
        """One pass that ran at machine speed ``speed`` (see :meth:`Calibration.speed`)."""
        self.record_scaled(
            duration, duration * speed, [value * speed for value in latencies or ()])

    def record_scaled(self, duration: float, scaled: float, latencies: Sequence[float]) -> None:
        """One pass whose parts the caller has already scaled (``ingest_mixed``)."""
        self.durations.append(duration)
        self.scaled.append(scaled)
        if len(latencies):
            self.latencies.append(latencies)

    @property
    def machine_speed(self) -> float:
        """The median factor between a pass's wall-clock and reported duration."""
        return float(np.median(np.asarray(self.scaled) / np.asarray(self.durations)))

    def summarise(self) -> Dict[str, object]:
        durations = np.asarray(self.durations)
        scaled = np.asarray(self.scaled)
        machine_speed = self.machine_speed
        summary: Dict[str, object] = {
            "passes": len(durations),
            "ops_per_pass": self.ops_per_pass,
            # operations per second at reference machine speed, median pass
            "rate_per_s": self.ops_per_pass / float(np.median(scaled)),
            # diagnostics: what the wall clock saw, and the factor between the two
            "wall_rate_per_s": self.ops_per_pass * len(durations) / float(durations.sum()),
            "machine_speed": machine_speed,
            "disturbed": bool(machine_speed < DISTURBED_BELOW),
            "attempted": self.attempted,
            "answered": self.answered,
            "failed": self.failed,
        }
        if self.latencies:
            # Like the rate, a percentile is the median over the passes of the
            # pass's own percentile: a pass that the host stalled for tens of
            # milliseconds is one outlier among the passes, not a tenth of a
            # pooled sample.
            per_pass = np.asarray([np.percentile(samples, (50, 90)) for samples in self.latencies])
            pooled = np.concatenate([np.asarray(samples) for samples in self.latencies])
            summary["latency_samples"] = len(pooled)
            summary["latency_samples_per_pass"] = int(np.median([len(s) for s in self.latencies]))
            summary["latency_p50_ms"] = float(np.median(per_pass[:, 0])) * 1e3
            summary["latency_p90_ms"] = float(np.median(per_pass[:, 1])) * 1e3
            summary["latency_p99_ms"] = float(np.percentile(pooled, 99)) * 1e3  # diagnostic, pooled
        return summary


def run_rounds(
    passes: Sequence[Callable[[], None]],
    seconds: float,
    *,
    after_warm: Callable[[], None] = lambda: None,
) -> Dict[str, object]:
    """Interleave the phases' passes round-robin for ``seconds``.

    Each callable runs one pass of one phase and records it itself.  Two
    untimed rounds come first; ``after_warm`` then lets the caller forget
    what they recorded.  At least ``MIN_ROUNDS`` rounds are run however
    short ``seconds`` is.
    """
    for _ in range(WARM_PASSES):
        for run_pass in passes:
            run_pass()
    after_warm()
    rounds = 0
    started = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - started < seconds:
        for run_pass in passes:
            run_pass()
        rounds += 1
    return {"rounds": rounds, "timed_section_s": time.perf_counter() - started}


# --------------------------------------------------------------------------- #
# environment
# --------------------------------------------------------------------------- #
def confine_to_quietest_cpu(samples: int = 5, candidates: int = 8) -> Optional[int]:
    """Pin this thread, and those it starts from now on, to the allowed CPU on
    which the calibration loop runs fastest right now.

    For ``service_wire``, whose event loop and scoring thread hand every batch
    back and forth: on two virtual cores the hand-over crosses cores (an
    inter-processor interrupt and an idle exit, both expensive and uneven in
    a virtual machine) whenever the scheduler spreads the two threads out.
    On one core they simply take turns, the calibration loop shares exactly
    that core, and whatever else the host runs has the other core to itself.
    Returns the CPU, or ``None`` where the platform cannot pin or there is
    nothing to choose.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return None
    took = {}
    for cpu in allowed[:candidates]:
        os.sched_setaffinity(0, {cpu})
        took[cpu] = float(np.median([calibration_pass() for _ in range(samples)]))
    best = min(took, key=took.get)
    os.sched_setaffinity(0, {best})
    return best


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024.0 * 1024.0) if platform.system() == "Darwin" else peak / 1024.0


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def environment_stamp(kernel_backend: str) -> Dict[str, object]:
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    try:
        load = list(os.getloadavg())
    except OSError:
        load = []
    return {
        "git_sha": _git_sha(),
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "loadavg": load,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": kernel_backend,
    }
