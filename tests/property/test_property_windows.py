"""Property-based tests for the window-aggregation determinism contract.

Two invariants back the whole observability layer:

* **Reconciliation** — per-window partial sums equal the end-of-run
  total, exactly (:class:`fractions.Fraction`, not float), for any
  event stream.
* **Feed-independence** — bucket maps do not depend on feed order or on
  how the stream was chunked across workers (``--jobs`` must not move a
  window boundary).
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.metrics import Histogram
from repro.telemetry.windows import (
    TumblingCounter,
    WindowIndex,
    WindowReservoir,
    exact_sum,
    merge_bucket_maps,
    sliding_sum,
    window_of,
)

#: (cycle, amount) event streams; cycles land on awkward floats on
#: purpose — boundary bucketing must still be exact.
events = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                  allow_infinity=False),
        st.one_of(st.integers(0, 50),
                  st.fractions(min_value=0, max_value=50)),
    ),
    max_size=200,
)

window_sizes = st.one_of(
    st.floats(min_value=0.1, max_value=1e4, allow_nan=False,
              allow_infinity=False),
    st.just(100.0),
)


@given(events, window_sizes)
@settings(max_examples=150, deadline=None)
def test_window_partials_reconcile_exactly(stream, window_cycles):
    counter = TumblingCounter("x", window_cycles)
    total = Fraction(0)
    for cycle, amount in stream:
        counter.add(cycle, amount)
        total += Fraction(amount)
    counter.reconcile(total)
    assert sum(counter.buckets.values(), Fraction(0)) == total


@given(events, window_sizes, st.integers(1, 8))
@settings(max_examples=100, deadline=None)
def test_chunked_ingest_equals_single_feed(stream, window_cycles, jobs):
    """Splitting the stream across N workers and merging their partials
    reproduces the single-process bucket map — the --jobs invariant."""
    serial = TumblingCounter("x", window_cycles)
    for cycle, amount in stream:
        serial.add(cycle, amount)

    workers = [TumblingCounter("x", window_cycles) for _ in range(jobs)]
    for i, (cycle, amount) in enumerate(stream):
        workers[i % jobs].add(cycle, amount)

    merged = TumblingCounter("x", window_cycles)
    merged.ingest(merge_bucket_maps(w.buckets for w in workers))
    assert merged.buckets == serial.buckets
    assert merged.total == serial.total


@given(events, window_sizes)
@settings(max_examples=100, deadline=None)
def test_bucketing_is_feed_order_independent(stream, window_cycles):
    forward = TumblingCounter("x", window_cycles)
    backward = TumblingCounter("x", window_cycles)
    for cycle, amount in stream:
        forward.add(cycle, amount)
    for cycle, amount in reversed(stream):
        backward.add(cycle, amount)
    assert forward.buckets == backward.buckets
    assert forward.total == backward.total


@given(events, window_sizes)
@settings(max_examples=100, deadline=None)
def test_every_event_lands_in_exactly_one_window(stream, window_cycles):
    counter = TumblingCounter("x", window_cycles)
    for cycle, amount in stream:
        w = counter.add(cycle, amount)
        assert w == window_of(cycle, window_cycles)
        # Window w covers [w*W, (w+1)*W).
        assert Fraction(w) * Fraction(window_cycles) <= Fraction(cycle)
        assert Fraction(cycle) < Fraction(w + 1) * Fraction(window_cycles)


@given(events, window_sizes, st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_sliding_sum_matches_bucket_sum(stream, window_cycles, span):
    counter = TumblingCounter("x", window_cycles)
    for cycle, amount in stream:
        counter.add(cycle, amount)
    last = counter.last_window()
    for window in range(max(0, last - 3), last + 1):
        expected = sum(
            (counter.bucket(w) for w in range(window - span + 1, window + 1)),
            Fraction(0),
        )
        assert sliding_sum(counter, window, span) == expected


#: Latency-like values for the reservoir tests.
reservoir_values = st.floats(min_value=0.0, max_value=1e3, allow_nan=False,
                             allow_infinity=False)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e5, allow_nan=False,
                      allow_infinity=False),
            reservoir_values,
        ),
        max_size=150,
    ),
    # A burst past the reservoir cap into one window, so every example
    # has a window that samples and (below) one that keeps everything.
    st.floats(min_value=0.0, max_value=1e5, allow_nan=False,
              allow_infinity=False),
    st.lists(reservoir_values, min_size=17, max_size=60),
    st.floats(min_value=1.0, max_value=1e4, allow_nan=False,
              allow_infinity=False),
)
@settings(max_examples=80, deadline=None)
def test_reservoir_counts_and_sums_reconcile(stream, burst_cycle, burst,
                                             window_cycles):
    stream = stream + [(burst_cycle, value) for value in burst]
    # Past every other cycle (and at least one window beyond them): a
    # window holding a single value.
    stream.append((2e5, 1.0))
    reservoir = WindowReservoir("lat", window_cycles, max_samples=16)
    total = Fraction(0)
    for cycle, value in stream:
        reservoir.observe(cycle, value)
        total += Fraction(value)
    reservoir.reconcile(len(stream), total)
    windows = sorted({window_of(cycle, window_cycles) for cycle, _ in stream})
    assert reservoir.last_window() == windows[-1]
    counts = [reservoir.count(w) for w in windows]
    assert any(count > 16 for count in counts)
    assert any(count <= 16 for count in counts)
    # Each window retains what a Histogram opened at epoch = window
    # index retains, and a second identically-fed reservoir agrees.
    replay = WindowReservoir("lat", window_cycles, max_samples=16)
    for cycle, value in stream:
        replay.observe(cycle, value)
    references = {}
    sums = {}
    for cycle, value in stream:
        w = window_of(cycle, window_cycles)
        if w not in references:
            references[w] = Histogram("lat", max_samples=16)
            references[w].begin_epoch(w)
        references[w].observe(value, cycle)
        sums[w] = sums.get(w, Fraction(0)) + Fraction(value)
    points = (0.0, 10.0, 50.0, 90.0, 99.0, 100.0)
    for w in windows:
        expected = [references[w].percentile(p) for p in points]
        for r in (reservoir, replay):
            assert r.count(w) == references[w].count
            assert r.window_sum(w) == sums[w]
            assert [r.percentile(w, p) for p in points] == expected
    empty = windows[-1] + 1
    assert reservoir.count(empty) == 0
    assert reservoir.percentile(empty, 50.0) is None


def _floor_ratio(cycle, window_cycles) -> int:
    """The definition: floor of the exact rational quotient."""
    return math.floor(Fraction(cycle) / Fraction(window_cycles))


#: Cycles on, and one ulp either side of, exact multiples of the window
#: (where float arithmetic can round across the boundary), plus
#: arbitrary floats.
@st.composite
def boundary_cycles(draw, window_cycles):
    k = draw(st.integers(0, 10**7))
    near = k * window_cycles
    return draw(st.sampled_from([
        near,
        math.nextafter(near, math.inf),
        math.nextafter(near, 0.0),
        draw(st.floats(min_value=0.0, max_value=1e13, allow_nan=False,
                       allow_infinity=False)),
    ]))


@given(st.data(), window_sizes)
@settings(max_examples=400, deadline=None)
def test_window_of_is_the_exact_floor(data, window_cycles):
    cycles = data.draw(st.lists(boundary_cycles(window_cycles), max_size=30))
    index = WindowIndex(window_cycles)
    for cycle in sorted(cycles) + cycles:
        expected = _floor_ratio(cycle, window_cycles)
        assert window_of(cycle, window_cycles) == expected
        assert index(cycle) == expected


@given(st.lists(st.one_of(
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.fractions(),
), max_size=60))
@settings(max_examples=200, deadline=None)
def test_exact_sum_equals_fraction_sum(values):
    assert exact_sum(values) == sum(map(Fraction, values), Fraction(0))
