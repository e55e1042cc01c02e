"""Calibration of timings against a fixed reference unit of work.

On a shared virtual machine the speed of the processor drifts by a factor
of two or more within seconds, and process CPU time drifts with it, so raw
timings of the same work spread far wider than any change worth
detecting.  The benchmark therefore times a fixed unit of work between
the timed intervals and reports

    calibrated time = measured time * (nominal / reference time) ** sensitivity,

that is, the time the interval would have taken had the reference unit
run at its nominal speed.  A unit never calls jetfact, so a change to the
program moves calibrated times exactly as it moves raw times under a
steady processor.  Raw figures are reported beside the calibrated ones.

There are two units, and each workload names the one whose work is most
like its own (``Workload.reference``):

``fraction``    exact Fraction arithmetic into a dict keyed by tuples, the
                kind of work jetfact's exact layers do;
``quadrature``  numpy sums over a 128 x 128 grid of 30-vectors, shaped
                like the double residue of ``jetfact num swap``.

The second exists because numpy work over arrays of megabytes drifts
with the host's memory traffic as well as with the processor: on a
two-processor shared virtual machine, 4-second stretches of contour ops
in four processes tracked the fraction unit with a residual spread of
0.067 (log of the median op) and the quadrature unit with 0.032.

``sensitivity`` is set per workload, because whole ops follow their
unit's drifts only in part.  It was fitted on the same machine as the
exponent that made calibrated times steadiest across stretches of a run:
about 1 for sections, whose time is mostly small Fraction arithmetic like
the fraction unit's, and 0.8 for roundtrip, elimination and contour.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from fractions import Fraction
from typing import Callable, NamedTuple

__all__ = [
    "BLOCK_UNITS", "NOMINAL_REF_S", "REFERENCES", "Clock", "Reference", "calibrate",
    "ref_seconds",
]

# Fixed for good: changing it rescales every calibrated figure.  The
# reference unit takes about this long on the machine the benchmark was
# written on.
NOMINAL_REF_S = 0.0015
# Reference units per block; a block's time is their median.
BLOCK_UNITS = 7


def reference_unit() -> int:
    """About a millisecond and a half of the work jetfact's exact layers do:
    Fraction powers and sums with growing denominators, tuple keys, dict
    churn and a sort."""
    acc = {}
    q = Fraction(3, 5)
    for i in range(90):
        key = tuple((j, i % 5) for j in range(i % 4))
        c = q ** (i % 7) * Fraction(i + 1, 13) - Fraction(2, 17)
        prev = acc.get(key)
        total = c if prev is None else prev + c
        if total:
            acc[key] = total
        else:
            acc.pop(key, None)
    return len(sorted(acc, key=lambda k: (len(k), k)))


def ref_seconds(units: int = 1) -> float:
    """Median wall time of ``units`` reference units, now."""
    times = []
    for _ in range(units):
        t0 = time.perf_counter()
        reference_unit()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def make_quadrature_unit() -> Callable[[], float]:
    """The quadrature unit: about fifteen milliseconds of numpy work shaped
    like the double residue in ``jetfact num swap`` at 128 nodes on free x
    at W=6, that is two terms of a series of 30-vectors summed over a
    128 x 128 grid of points on two circles, then the weighted node
    average.  numpy is imported here, not with this module, so that it
    stays out of set-up times that do not need it."""
    import numpy as np

    theta = 2 * np.pi * np.arange(128) / 128
    z = np.broadcast_to((1.5 * np.exp(1j * theta))[:, None], (128, 128))
    w = np.broadcast_to((0.5 * np.exp(1j * theta))[None, :], (128, 128))
    terms = [(z, np.exp(1j * np.arange(30) / 7)), (z * w, np.exp(2j * np.arange(30) / 7))]

    def unit() -> float:
        out = np.zeros((128, 128, 30), dtype=complex)
        for mono, vec in terms:
            out += (mono * 1.0)[..., None] * vec
        return float(abs(((z * w)[..., None] * out).sum(axis=(0, 1))[0]))

    return unit


class Reference(NamedTuple):
    """A reference unit, built by ``make_unit``, and how a Clock samples
    it: one unit after every call that ends ``sample_s`` or more after the
    last unit (one per ``sample_s`` since then, at most ``max_units``)."""

    name: str
    make_unit: Callable[[], Callable[[], object]]
    nominal_s: float  # fixed for good, like NOMINAL_REF_S
    sample_s: float
    max_units: int


REFERENCES = {
    ref.name: ref
    for ref in (
        Reference("fraction", lambda: reference_unit, NOMINAL_REF_S, 0.05, 10),
        Reference("quadrature", make_quadrature_unit, 0.015, 0.25, 2),
    )
}


def calibrate(
    seconds: float,
    ref_before: float,
    ref_after: float,
    sensitivity: float = 1.0,
    nominal: float = NOMINAL_REF_S,
) -> float:
    """Scale a measured interval by the reference times taken on each side."""
    return seconds * (nominal / ((ref_before + ref_after) / 2)) ** sensitivity


class Clock:
    """Times calls, and between them times reference units that sample the
    processor's speed; each call is calibrated by the units around it.

    The speed flickers within tens of milliseconds and drifts over seconds,
    and only the drift is worth following: a single unit mostly sees the
    flicker.  So units are timed between calls as ``reference`` says, and
    each call is calibrated by the geometric mean, trimmed of its highest
    and lowest tenth, of the units within WINDOW_S of its midpoint, always
    including the units just before and just after it.  The figures exist
    once a unit after the last call does: see ``calibrated``.
    ``sensitivity`` is the exponent passed to ``calibrate``.
    """

    WINDOW_S = 1.5

    def __init__(self, sensitivity: float = 1.0, reference: Reference = REFERENCES["fraction"]):
        self.sensitivity = sensitivity
        self.reference = reference
        self.unit = reference.make_unit()
        self.unit()  # the first unit in a fresh process runs cold
        self.sample_times = []
        self.samples = []  # seconds of each reference unit
        self.calls = []  # (start, raw seconds)
        self._sample(reference.max_units)

    def _sample(self, units: int):
        for _ in range(units):
            t0 = time.perf_counter()
            self.unit()
            t1 = time.perf_counter()
            self.samples.append(t1 - t0)
            self.sample_times.append(t1)

    def time(self, fn, *args):
        """(result or raised exception, raw seconds)."""
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # reported by the caller
            result = exc
        raw = time.perf_counter() - t0
        self.calls.append((t0, raw))
        since = time.perf_counter() - self.sample_times[-1]
        every = self.reference.sample_s
        if since >= every:
            self._sample(min(self.reference.max_units, int(since / every)))
        return result, raw

    def calibrated(self):
        """Calibrated seconds of every call so far, in call order."""
        times = self.sample_times
        if self.calls and times[-1] < self.calls[-1][0]:
            self._sample(1)
        logs = [math.log(s) for s in self.samples]
        nominal = self.reference.nominal_s
        out = []
        for start, raw in self.calls:
            before = bisect.bisect_right(times, start) - 1
            mid = start + raw / 2
            lo = min(before, bisect.bisect_left(times, mid - self.WINDOW_S))
            hi = max(before + 2, bisect.bisect_right(times, mid + self.WINDOW_S))
            ref = math.exp(trimmed_mean(logs[lo:hi]))
            out.append(calibrate(raw, ref, ref, self.sensitivity, nominal))
        return out


def trimmed_mean(values) -> float:
    """Mean of the values without their highest and lowest tenth."""
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])
