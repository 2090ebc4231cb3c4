"""Deterministic sliding-window aggregation keyed on simulated cycles.

Post-hoc reports (``repro stats``/``profile``/``flows``) answer "what
happened over the whole run"; the online layer built here answers "what
is happening *now*" — the signal an autoscaler, an SLO burn-rate alert
or a streaming security detector needs.  Everything is keyed on
**simulated cycles**, never wall-clock, so a timeline is as
reproducible as the simulation that produced it.

Three primitives:

* :class:`TumblingCounter` — counts/sums bucketed into fixed-size
  windows (window ``w`` covers ``[w*W, (w+1)*W)`` cycles).  Buckets are
  exact (ints while amounts are integral, read as
  :class:`fractions.Fraction`), so the **reconciliation
  invariant** — the sum of per-window partials equals the end-of-run
  total, *exactly*, not approximately — is checkable with ``==`` and
  enforced by :meth:`TumblingCounter.reconcile`.
* :func:`sliding_sum` — a sliding view over the trailing *span*
  tumbling buckets (the multi-window burn-rate alerts in
  :mod:`repro.telemetry.slo` are built on this).
* :class:`WindowReservoir` — per-window latency samples for percentile
  estimation.  Each window gets its own epoch of the
  :class:`~repro.telemetry.metrics.Histogram` reservoir
  (:meth:`~repro.telemetry.metrics.Histogram.begin_epoch`), so
  percentiles never mix samples across a window boundary and the
  retained sample set is deterministic per ``(name, window)`` no matter
  how the run was parallelised.

Determinism contract: window boundaries depend only on the event's
cycle stamp and the window size — not on feed order, chunking, or how
many worker processes produced the events.  :meth:`TumblingCounter.ingest`
merges per-worker partials into the identical bucket map a single
process would have produced (property-tested in
``tests/property/test_property_windows.py``).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import ConfigError, ReconciliationError
from repro.telemetry.metrics import Histogram, reservoir_percentile

Number = Union[int, float, Fraction]
#: An exact value: an int when integral, else a Fraction.
Exact = Union[int, Fraction]


def window_of(cycle: float, window_cycles: float) -> int:
    """Index of the tumbling window containing *cycle*.

    Window ``w`` covers ``[w * window_cycles, (w + 1) * window_cycles)``.
    Floored in integer arithmetic on the exact ratios, so a cycle landing
    precisely on a boundary buckets identically on every host.
    """
    if window_cycles <= 0:
        raise ConfigError(f"window_cycles must be positive, got {window_cycles}")
    n, d = cycle.as_integer_ratio()
    wn, wd = window_cycles.as_integer_ratio()
    return (n * wd) // (d * wn)


def exact(value: Number) -> Exact:
    """*value* exactly: an int when integral (cheap to add), else a
    :class:`Fraction`."""
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def exact_sum(values: Iterable[Number]) -> Fraction:
    """The exact sum of ints, floats and Fractions.

    Numerators are added as ints per distinct denominator (floats of
    similar magnitude share a handful of power-of-two denominators), and
    only those partial sums are combined as ratios at the end."""
    partials: Dict[int, int] = {1: 0}
    get = partials.get
    for value in values:
        if type(value) is int:
            partials[1] += value
            continue
        n, d = value.as_integer_ratio()
        partials[d] = get(d, 0) + n
    return combine_partials(partials)


def combine_partials(partials: Dict[int, int]) -> Fraction:
    """The exact sum of a ``denominator -> numerator sum`` map."""
    acc = (0, 1)
    for d, n in partials.items():
        acc = _add(acc, n, d)
    return Fraction(*acc)


def _add(acc: Tuple[int, int], n: int, d: int) -> Tuple[int, int]:
    """Exact ``acc + n/d`` as an unreduced ratio: no gcd per add, and the
    denominator only grows to the lcm of the addends' (for ints and
    floats, the largest power of two seen)."""
    num, den = acc
    if d <= den:
        scale, rest = divmod(den, d)
        if not rest:
            return num + n * scale, den
    elif not d % den:
        return num * (d // den) + n, d
    lcm = math.lcm(den, d)
    return num * (lcm // den) + n * (lcm // d), lcm


class WindowIndex:
    """:func:`window_of` for one window size, remembering the float range
    of the last window it returned.

    Events arrive in (nearly) time order, so most fall in the window of
    the previous one and are bucketed by two float comparisons.  The
    remembered range is shrunk inward by one ulp at each end, so a
    cycle inside it provably lies in that window; anything else takes
    the exact path."""

    __slots__ = ("window_cycles", "_window", "_lo", "_hi")

    def __init__(self, window_cycles: float):
        window_of(0.0, window_cycles)  # validates the window size
        self.window_cycles = float(window_cycles)
        self._window = -1
        self._lo = math.inf
        self._hi = -math.inf

    def __call__(self, cycle: float) -> int:
        if self._lo <= cycle < self._hi:
            return self._window
        w = window_of(cycle, self.window_cycles)
        self._window = w
        self._lo = math.nextafter(w * self.window_cycles, math.inf)
        self._hi = math.nextafter((w + 1) * self.window_cycles, -math.inf)
        return w


class TumblingCounter:
    """Fraction-exact event counts/sums bucketed into tumbling windows."""

    __slots__ = ("name", "window_cycles", "_buckets", "_total")

    def __init__(self, name: str, window_cycles: float):
        if window_cycles <= 0:
            raise ConfigError(
                f"{name}: window_cycles must be positive, got {window_cycles}"
            )
        self.name = name
        self.window_cycles = float(window_cycles)
        #: Sparse ``window index -> exact partial sum``; plain ints while
        #: every amount is integral (the common case: event counts).
        self._buckets: Dict[int, Exact] = {}
        self._total: Exact = 0

    @property
    def buckets(self) -> Dict[int, Fraction]:
        """Sparse ``window index -> exact partial sum``."""
        return {w: Fraction(value) for w, value in self._buckets.items()}

    @property
    def total(self) -> Fraction:
        """Exact running total over every :meth:`add`."""
        return Fraction(self._total)

    def add(self, cycle: float, amount: Number = 1) -> int:
        """Record *amount* at *cycle*; returns the bucketed window index."""
        return self.add_at(window_of(cycle, self.window_cycles), amount)

    def add_at(self, window: int, amount: Number = 1) -> int:
        """Record *amount* in *window* — an index :func:`window_of` gave
        for this counter's window size (lets several counters share one
        bucketing of the same event)."""
        if type(amount) is not int:
            amount = exact(amount)
        self._buckets[window] = self._buckets.get(window, 0) + amount
        self._total += amount
        return window

    def bucket(self, window: int) -> Fraction:
        return Fraction(self._buckets.get(window, 0))

    def last_window(self) -> int:
        """Highest populated window index (-1 while empty)."""
        return max(self._buckets) if self._buckets else -1

    def series(self, first: int = 0, last: Optional[int] = None) -> List[Fraction]:
        """Dense bucket values for windows ``first..last`` inclusive."""
        if last is None:
            last = self.last_window()
        return [self.bucket(w) for w in range(first, last + 1)]

    # ------------------------------------------------------------------
    def ingest(self, buckets: Dict[int, Fraction]) -> None:
        """Merge a foreign partial bucket map (e.g. from a pool worker).

        Merging is plain per-window addition, so any chunking of one
        event stream across workers merges back to the identical bucket
        map a single process would have produced.
        """
        for window, amount in buckets.items():
            self.add_at(window, amount)

    # ------------------------------------------------------------------
    def reconcile(self, expected_total: Number) -> None:
        """Raise unless the window partials sum exactly to *expected_total*.

        *expected_total* must itself be exact (an int count, or a
        :class:`Fraction` accumulated alongside the events) — comparing
        against a float-accumulated total would blame the windows for
        the caller's rounding.
        """
        partial = exact_sum(self._buckets.values())
        if partial != self.total:
            raise ReconciliationError(
                f"{self.name}: internal total {self.total} != bucket sum "
                f"{partial}"
            )
        if partial != Fraction(expected_total):
            raise ReconciliationError(
                f"{self.name}: window partial sums total {partial}, "
                f"end-of-run total is {Fraction(expected_total)}"
            )


def sliding_sum(counter: TumblingCounter, window: int, span: int) -> Fraction:
    """Sum of the trailing *span* buckets ending at *window* (inclusive).

    The sliding view over tumbling buckets: ``span=1`` is the tumbling
    value itself; larger spans give the smoothed signal multi-window
    burn-rate alerting evaluates.
    """
    if span <= 0:
        raise ConfigError(f"span must be positive, got {span}")
    return sum(
        (counter.bucket(w) for w in range(window - span + 1, window + 1)),
        Fraction(0),
    )


class WindowReservoir:
    """Per-window value samples with deterministic percentile estimation.

    Each populated window has its own reservoir, the one a
    :class:`~repro.telemetry.metrics.Histogram` opened at epoch = window
    index would keep, so the retained samples are a pure function of
    ``(name, window, observed values)`` — feed order and process count
    cannot perturb them.  Until a window sees more than ``max_samples``
    values its reservoir is simply every ``(cycle, value)`` pair in
    order, so those pairs are kept as a plain list; a window that
    overflows gets the Histogram, filled from its list, and samples from
    then on.  Exact sums come from the raw values, or, once a window
    overflows, from numerators summed per denominator (as in
    :func:`exact_sum`), so latency mass reconciles exactly with
    end-of-run totals even when the reservoir itself is capped.
    """

    __slots__ = ("name", "window_cycles", "max_samples", "_values",
                 "_hists", "_sums", "total_count")

    def __init__(self, name: str, window_cycles: float,
                 max_samples: int = 4096):
        if window_cycles <= 0:
            raise ConfigError(
                f"{name}: window_cycles must be positive, got {window_cycles}"
            )
        self.name = name
        self.window_cycles = float(window_cycles)
        self.max_samples = max_samples
        #: ``(cycle, value)`` pairs of the windows that have not overflowed.
        self._values: Dict[int, List[Tuple[float, float]]] = {}
        #: Reservoirs of the overflowed windows, and their exact sums as
        #: ``denominator -> numerator`` maps.
        self._hists: Dict[int, Histogram] = {}
        self._sums: Dict[int, Dict[int, int]] = {}
        self.total_count = 0

    def observe(self, cycle: float, value: float,
                window: Optional[int] = None) -> int:
        """Record *value* at *cycle* (in *window* when the caller already
        bucketed *cycle* for this window size)."""
        w = window_of(cycle, self.window_cycles) if window is None else window
        self.total_count += 1
        hist = self._hists.get(w)
        if hist is None:
            values = self._values.get(w)
            if values is None:
                values = self._values[w] = []
            if len(values) < self.max_samples:
                values.append((cycle, value))
                return w
            # Overflow: from here on the reservoir samples.
            hist = self._hists[w] = Histogram(
                self.name, max_samples=self.max_samples
            )
            hist.begin_epoch(w)
            sums = self._sums[w] = {}
            for c, v in self._values.pop(w):
                hist.observe(v, cycle=c)
                n, d = v.as_integer_ratio()
                sums[d] = sums.get(d, 0) + n
        sums = self._sums[w]
        n, d = value.as_integer_ratio()
        sums[d] = sums.get(d, 0) + n
        hist.observe(value, cycle=cycle)
        return w

    # ------------------------------------------------------------------
    def count(self, window: int) -> int:
        if window in self._hists:
            return self._hists[window].count
        return len(self._values.get(window, ()))

    def window_sum(self, window: int) -> Fraction:
        if window in self._sums:
            return combine_partials(self._sums[window])
        return exact_sum(v for _, v in self._values.get(window, ()))

    @property
    def total_sum(self) -> Fraction:
        raw = (v for values in self._values.values() for _, v in values)
        overflowed = map(combine_partials, self._sums.values())
        return exact_sum(itertools.chain(raw, overflowed))

    def percentile(self, window: int, p: float) -> Optional[float]:
        """Reservoir percentile of one window; None when it saw nothing."""
        hist = self._hists.get(window)
        samples = hist.samples if hist is not None else self._values.get(window)
        if not samples:
            return None
        return reservoir_percentile(samples, p)

    def mean(self, window: int) -> Optional[float]:
        n = self.count(window)
        if not n:
            return None
        return float(self.window_sum(window) / n)

    def last_window(self) -> int:
        return max(self._windows(), default=-1)

    def _windows(self) -> List[int]:
        return [*self._values, *self._hists]

    # ------------------------------------------------------------------
    def reconcile(self, expected_count: int,
                  expected_sum: Optional[Number] = None) -> None:
        """Raise unless per-window counts (and, when given, exact value
        sums) reconcile with the end-of-run totals."""
        count = sum(map(self.count, self._windows()))
        if count != self.total_count or count != int(expected_count):
            raise ReconciliationError(
                f"{self.name}: window counts sum to {count}, end-of-run "
                f"count is {expected_count}"
            )
        if expected_sum is not None:
            partial = self.total_sum
            if partial != Fraction(expected_sum):
                raise ReconciliationError(
                    f"{self.name}: window value sums total {partial}, "
                    f"end-of-run total is {Fraction(expected_sum)}"
                )


def fraction_to_jsonable(value: Fraction) -> Union[int, float]:
    """Render an exact bucket value for JSON: int when integral, else
    the nearest float (display only — invariants are checked upstream
    on the exact values)."""
    if value.denominator == 1:
        return int(value)
    return float(value)


def merge_bucket_maps(
    maps: Iterable[Dict[int, Fraction]],
) -> Dict[int, Fraction]:
    """Merge several sparse bucket maps by exact per-window addition."""
    merged: Dict[int, Fraction] = {}
    for bucket_map in maps:
        for window, amount in bucket_map.items():
            merged[window] = merged.get(window, Fraction(0)) + Fraction(amount)
    return merged
