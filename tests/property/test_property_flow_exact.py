"""The integer split and the on-read span build against the Fraction walk.

``split_exact`` partitions cycles in integers over one common
denominator, and a :class:`~repro.telemetry.flow.FlowRecord` builds its
span chain from the stored claims on first read.  The oracles below are
the straightforward eager implementations both replaced: a
``fractions.Fraction`` clamp-and-subtract walk, and a span chain assembled
from it at completion time.  The properties check that the fast versions
agree with them exactly — keys, order, values and value types — over
zeros, negatives, subnormals, values near 1e300, over-claims, repeated
categories and non-dyadic ``Fraction`` inputs.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.flow import COMPONENTS, FlowTracker, StageSpan
from repro.telemetry.profiler import split_exact

ZERO = Fraction(0)


def _oracle_exact(cycles):
    if isinstance(cycles, Fraction):
        return cycles
    return Fraction(float(cycles))


def oracle_split_exact(total, parts, residual):
    """The eager ``Fraction`` walk ``split_exact`` must reproduce."""
    remaining = _oracle_exact(total)
    out = {}
    for category, cycles in parts:
        claim = _oracle_exact(cycles)
        if claim <= ZERO:
            continue
        if claim > remaining:
            claim = remaining
        if claim > ZERO:
            out[category] = out.get(category, ZERO) + claim
            remaining -= claim
    if remaining > ZERO:
        out[residual] = out.get(residual, ZERO) + remaining
    return out


def oracle_stages(issue_ts, total, parts, residual):
    """The span chain ``FlowTracker.complete`` used to build eagerly."""
    exact = oracle_split_exact(
        total,
        [(f"{stage}\x00{comp}", cyc) for stage, comp, cyc in parts],
        f"{residual[0]}\x00{residual[1]}",
    )
    stage_order = []
    for stage, _comp, _cyc in list(parts) + [residual + (0.0,)]:
        if stage not in stage_order:
            stage_order.append(stage)
    spans = []
    cursor = issue_ts
    for stage in stage_order:
        span = StageSpan(stage=stage, enter=cursor, exit=cursor)
        for comp in COMPONENTS:
            value = exact.get(f"{stage}\x00{comp}")
            if value is not None:
                setattr(span, comp, value)
        if span.total == ZERO:
            continue
        span.exit = cursor + float(span.total)
        cursor = span.exit
        spans.append(span)
    return spans


# Floats across the whole range the engines can hand over: exact zeros,
# negatives (never claimable), subnormals, ordinary cycle counts and
# magnitudes near 1e300 (common denominators far beyond 2**1000).
_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308,
                     1e300, -1e300, 1.7976931348623157e300]),
    st.floats(min_value=-1e6, max_value=1e12,
              allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-300, max_value=1e-300,
              allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e290, max_value=1e300,
              allow_nan=False, allow_infinity=False),
)
# Non-dyadic denominators exercise the general ``math.lcm`` lift.
_FRACTIONS = st.fractions(
    min_value=-1000, max_value=10**9, max_denominator=10**6,
)
_CYCLES = st.one_of(_FLOATS, _FRACTIONS, st.integers(-50, 10**6))
_CATEGORIES = st.sampled_from(["pe.compute", "dma.issue", "dma.stall.iotlb",
                               "dma.transfer", "flush.scrub"])


def _assert_same_split(got, want):
    assert list(got) == list(want)
    for key, value in want.items():
        assert type(got[key]) is Fraction
        assert got[key] == value


@given(
    total=_CYCLES,
    claims=st.lists(st.tuples(_CATEGORIES, _CYCLES), max_size=10),
    residual=_CATEGORIES,
)
@settings(max_examples=400, deadline=None)
def test_integer_split_matches_fraction_walk(total, claims, residual):
    _assert_same_split(
        split_exact(total, claims, residual),
        oracle_split_exact(total, claims, residual),
    )


_STAGES = st.sampled_from(["issue", "security", "memory", "crypto", "queue"])


@given(
    issue_ts=st.floats(min_value=0.0, max_value=1e12,
                       allow_nan=False, allow_infinity=False),
    total=st.one_of(
        st.floats(min_value=-10.0, max_value=1e9,
                  allow_nan=False, allow_infinity=False),
        st.fractions(min_value=0, max_value=10**6, max_denominator=1000),
    ),
    parts=st.lists(
        st.tuples(_STAGES, st.sampled_from(COMPONENTS), _CYCLES),
        max_size=6,
    ),
    residual=st.tuples(_STAGES, st.sampled_from(COMPONENTS)),
)
@settings(max_examples=300, deadline=None)
def test_spans_built_on_read_match_eager_walk(issue_ts, total, parts,
                                              residual):
    tracker = FlowTracker(enabled=True)
    record = tracker.complete(
        tracker.allocate(), "dma", issue_ts, total, parts=parts,
        residual=residual,
    )
    want = oracle_stages(issue_ts, total, parts, residual)
    got = record.stages
    assert [s.stage for s in got] == [s.stage for s in want]
    for g, w in zip(got, want):
        assert (g.enter, g.exit) == (w.enter, w.exit)
        for comp in COMPONENTS:
            assert type(g.component(comp)) is Fraction
            assert g.component(comp) == w.component(comp)
    # Built once, then cached: every reader sees the same objects.
    assert record.stages is got
