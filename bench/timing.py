"""Noise control: the machine-speed probe and probe-normalised slices.

The host (a shared 2-core box) moves between discrete speed states about
27% apart, staying in one for anything from tens of milliseconds to tens of
seconds. A fixed NumPy probe tracks the state: the ratio of a CPU-bound
statistic to the probe stays within a few percent while either alone moves
by 25% or more. So every closed-loop timed region is cut into short slices,
each bracketed by the probe; a slice whose two probes disagree saw a state
change and is set aside, as is one probed in the box's slowest states; the
others are scaled to the pinned reference speed
``PROBE_REF_US``. A reported time is therefore "microseconds on a machine
whose probe reads ``PROBE_REF_US``", which is what makes two runs comparable.

Two shapes of slice occur. *Dense* slices hold tens of short requests
(1-row requests, bare kernels) between two short probes. *Sparse* slices
hold a single long operation (a 2048-row batch, a compile, a set-up) between
two long probes: an operation of tens of milliseconds sees a mix of states,
and only a probe that itself runs for milliseconds sees the same mix.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

#: the probe reading every timing is scaled to (a common state of the box
#: the benchmark was defined on); changing it rescales every timing metric
PROBE_REF_US = 80.0
#: slices whose bracketing probes differ by more than this share are unsteady
PROBE_TOLERANCE = 0.05
#: slices probed slower than this are set aside too: in the box's two slowest
#: states (probe about 91 and 108 µs, another tenant busy) a data-bound kernel
#: slows by less than the probe does, and scaling would over-correct by 10-20%
PROBE_CEILING_US = 85.0
#: with fewer steady slices than this, the unsteady ones are used as well
MIN_STEADY = 3
#: probe repetitions: short brackets dense slices, long brackets one long
#: operation (about 1.3 ms and 8 ms)
SHORT_PROBE, LONG_PROBE = 15, 100
#: slices with at least this many samples have quantiles of their own;
#: sparser ones are pooled into runs of this many samples
DENSE = 10

_LANES = 256
_SRC = np.random.default_rng(0).normal(size=1024)
_IDX = (np.arange(_LANES) * 7) % _SRC.size
_A = np.empty(_LANES)
_B = np.empty(_LANES, dtype=bool)
_C = np.empty(_LANES)


def _probe_once(iterations: int = 32) -> float:
    start = time.perf_counter()
    for _ in range(iterations):
        np.take(_SRC, _IDX, out=_A)
        np.less(_A, 0.1, out=_B)
        np.multiply(_A, _A, out=_C)
    return (time.perf_counter() - start) * 1e6


def probe_us(repeats: int = LONG_PROBE) -> float:
    """Microseconds of the fixed gather/compare/multiply sequence (the three
    dispatches a generated walk step is made of): the mean of the middle half
    of ``repeats`` repetitions, which ignores a preempted repetition and
    still averages over a state change inside the probe. One untimed
    repetition first: right after other work the probe's own code and arrays
    are cold and the first repetition reads 40-100% high."""
    _probe_once()
    reps = sorted(_probe_once() for _ in range(repeats))
    middle = reps[len(reps) // 4 : len(reps) - len(reps) // 4]
    return sum(middle) / len(middle)


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of a non-empty sequence."""
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


class Bracket:
    """The probe pair around a slice. Back-to-back slices share the probe
    between them; pass ``fresh`` when other work ran since the last ``end``."""

    def __init__(self, probe_repeats: int = LONG_PROBE) -> None:
        self.probe_repeats = probe_repeats
        self._open: float | None = None

    def begin(self, fresh: bool = False) -> None:
        if fresh or self._open is None:
            self._open = probe_us(self.probe_repeats)

    def end(self) -> tuple[bool, float, float]:
        """Close the slice: ``(steady, scale to the reference, mean probe)``."""
        close = probe_us(self.probe_repeats)
        opened, self._open = self._open, close
        mean_probe = 0.5 * (opened + close)
        steady = (
            abs(close - opened) <= PROBE_TOLERANCE * min(close, opened)
            and mean_probe <= PROBE_CEILING_US
        )
        return steady, PROBE_REF_US / mean_probe, mean_probe


@dataclass
class Slices:
    """The slices of one timed region, each sample already scaled."""

    #: scaled samples of every steady slice
    kept: list[list[float]] = field(default_factory=list)
    #: scaled samples of the slices set aside for a probe mismatch
    unsteady: list[list[float]] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)

    def add(self, samples_us, steady: bool, scale: float, mean_probe: float) -> None:
        scaled = [s * scale for s in samples_us]
        (self.kept if steady else self.unsteady).append(scaled)
        if steady:
            self.probes.append(mean_probe)

    @property
    def discarded(self) -> int:
        return len(self.unsteady)

    def usable(self) -> list[list[float]]:
        # A region that holds hardly any steady slice still has to report:
        # fall back to everything measured rather than to nothing.
        if len(self.kept) >= MIN_STEADY:
            return self.kept
        return self.kept + self.unsteady

    def _pooled(self) -> list[float]:
        return [x for s in self.usable() for x in s]

    def _groups(self) -> list[list[float]]:
        """The units tail and rate statistics are taken over: the slices
        themselves when they are dense, else runs of ``DENSE`` consecutive
        sparse slices."""
        usable = self.usable()
        if statistics.median(len(s) for s in usable) >= DENSE:
            return usable
        pooled = self._pooled()
        groups = [pooled[i : i + DENSE] for i in range(0, len(pooled) - DENSE + 1, DENSE)]
        return groups or [pooled]

    def count(self) -> int:
        return sum(len(s) for s in self.usable())

    def slice_medians(self) -> list[float]:
        return [statistics.median(s) for s in self.usable()]

    def p50(self) -> float:
        """Median over slices of the slice median."""
        return statistics.median(self.slice_medians())

    def tail(self, q: float = 0.95) -> float:
        """The ``q`` quantile of a *quiet* slice: the lower quartile over
        slices (runs of sparse slices) of the slice's own quantile. Bursts
        from the box's other tenants only ever add time and land on some
        slices and not others, so the median over slices of a tail statistic
        moved 20% between runs where the lower quartile moved 6%; a tail the
        system causes itself shows in every slice and so in this figure
        too."""
        return quantile([quantile(g, q) for g in self._groups()], 0.25)

    def per_second(self, units_per_sample: float) -> float:
        """Units completed per scaled busy second in a quiet slice (upper
        quartile; a mean is as burst-sensitive as a tail)."""
        return quantile(
            [units_per_sample * len(g) / (sum(g) * 1e-6) for g in self._groups()], 0.75
        )

    def spread(self) -> float:
        """Interquartile range of the slice medians over their median: the
        run's own noise, which ``bench.compare`` holds against the bound."""
        medians = self.slice_medians()
        if len(medians) < 4:
            return float("nan")
        q1, q2, q3 = statistics.quantiles(medians, n=4)
        return (q3 - q1) / q2


class SliceTimer:
    """One series of slices under its own probe brackets:
    ``begin()`` before a slice, ``end(samples_us)`` after it."""

    def __init__(self, probe_repeats: int = LONG_PROBE) -> None:
        self.bracket = Bracket(probe_repeats)
        self.result = Slices()

    def begin(self, fresh: bool = False) -> None:
        self.bracket.begin(fresh)

    def end(self, samples_us) -> bool:
        """Close the slice; returns whether it was steady."""
        verdict = self.bracket.end()
        self.result.add(samples_us, *verdict)
        return verdict[0]


def timed_once(fn) -> tuple[object, float, float]:
    """Run ``fn`` once between two long probes.

    Returns ``(result, scaled_seconds, mean_probe_us)``; for one-shot costs
    such as a set-up, where there are too few repeats to set any aside.
    """
    opened = probe_us()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    mean_probe = 0.5 * (opened + probe_us())
    return result, elapsed * PROBE_REF_US / mean_probe, mean_probe
