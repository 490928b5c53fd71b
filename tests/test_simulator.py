"""Tests for the discrete-event engine, resources and trace analysis."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Context, azure_nc24rsv2
from repro.kernels import create_workload
from repro.simulator import BandwidthResource, ChannelResource, Engine, Trace


# --------------------------------------------------------------------------- #
# engine
# --------------------------------------------------------------------------- #
def test_engine_processes_events_in_time_order():
    engine = Engine()
    order = []
    engine.schedule(2.0, lambda: order.append("b"))
    engine.schedule(1.0, lambda: order.append("a"))
    engine.schedule(3.0, lambda: order.append("c"))
    end = engine.run()
    assert order == ["a", "b", "c"]
    assert end == pytest.approx(3.0)
    assert engine.events_processed == 3


def test_engine_same_time_events_keep_fifo_order():
    engine = Engine()
    order = []
    for name in "xyz":
        engine.call_soon(lambda n=name: order.append(n))
    engine.run()
    assert order == ["x", "y", "z"]


def test_engine_rejects_negative_delay_and_past_times():
    engine = Engine()
    with pytest.raises(ValueError):
        engine.schedule(-1.0, lambda: None)
    engine.schedule(1.0, lambda: None)
    engine.run()
    with pytest.raises(ValueError):
        engine.schedule_at(0.5, lambda: None)


def test_engine_run_until_bound():
    engine = Engine()
    hits = []
    engine.schedule(1.0, lambda: hits.append(1))
    engine.schedule(5.0, lambda: hits.append(2))
    engine.run(until=2.0)
    assert hits == [1]
    assert engine.now == pytest.approx(2.0)
    engine.run()
    assert hits == [1, 2]


def test_events_can_schedule_more_events():
    engine = Engine()
    seen = []

    def first():
        seen.append(engine.now)
        engine.schedule(1.5, lambda: seen.append(engine.now))

    engine.schedule(1.0, first)
    engine.run()
    assert seen == [pytest.approx(1.0), pytest.approx(2.5)]


# --------------------------------------------------------------------------- #
# channel resources (FIFO servers)
# --------------------------------------------------------------------------- #
def test_channel_resource_serialises_work():
    engine = Engine()
    res = ChannelResource(engine, "gpu", channels=1)
    done = []
    res.request(1.0, lambda: done.append(engine.now))
    res.request(2.0, lambda: done.append(engine.now))
    engine.run()
    assert done == [pytest.approx(1.0), pytest.approx(3.0)]
    assert res.completed_items == 2


def test_channel_resource_parallel_channels():
    engine = Engine()
    res = ChannelResource(engine, "copy", channels=2)
    done = []
    for _ in range(3):
        res.request(1.0, lambda: done.append(engine.now))
    engine.run()
    assert done == [pytest.approx(1.0), pytest.approx(1.0), pytest.approx(2.0)]


def test_channel_resource_per_item_overhead():
    engine = Engine()
    res = ChannelResource(engine, "sched", per_item_overhead=0.5)
    done = []
    res.request(0.0, lambda: done.append(engine.now))
    res.request(0.0, lambda: done.append(engine.now))
    engine.run()
    assert done == [pytest.approx(0.5), pytest.approx(1.0)]


def test_channel_resource_rejects_bad_arguments():
    engine = Engine()
    with pytest.raises(ValueError):
        ChannelResource(engine, "x", channels=0)
    res = ChannelResource(engine, "x")
    with pytest.raises(ValueError):
        res.request(-1.0, lambda: None)


# --------------------------------------------------------------------------- #
# bandwidth resources (processor sharing)
# --------------------------------------------------------------------------- #
def test_single_transfer_takes_bytes_over_bandwidth():
    engine = Engine()
    link = BandwidthResource(engine, "pcie", bandwidth=100.0)
    done = []
    link.request(200.0, lambda: done.append(engine.now))
    engine.run()
    assert done == [pytest.approx(2.0)]


def test_concurrent_transfers_share_bandwidth():
    engine = Engine()
    link = BandwidthResource(engine, "pcie", bandwidth=100.0)
    done = []
    link.request(100.0, lambda: done.append(("a", engine.now)))
    link.request(100.0, lambda: done.append(("b", engine.now)))
    engine.run()
    # Two equal transfers sharing the link both finish after 2x the solo time.
    assert done[0][1] == pytest.approx(2.0, rel=1e-6)
    assert done[1][1] == pytest.approx(2.0, rel=1e-6)


def test_later_arrival_slows_down_inflight_transfer():
    engine = Engine()
    link = BandwidthResource(engine, "pcie", bandwidth=100.0)
    times = {}
    link.request(100.0, lambda: times.setdefault("first", engine.now))

    def start_second():
        link.request(50.0, lambda: times.setdefault("second", engine.now))

    engine.schedule(0.5, start_second)
    engine.run()
    # First transfer: 0.5s alone (50 bytes) + shares the link afterwards.
    assert times["first"] > 1.0
    assert times["first"] == pytest.approx(1.5, rel=1e-2)
    assert times["second"] == pytest.approx(1.5, rel=1e-2)


def test_bandwidth_latency_adds_fixed_cost():
    engine = Engine()
    link = BandwidthResource(engine, "nic", bandwidth=100.0, latency=1.0)
    done = []
    link.request(0.0, lambda: done.append(engine.now))
    engine.run()
    assert done == [pytest.approx(1.0)]


def test_bandwidth_resource_counts_bytes():
    engine = Engine()
    link = BandwidthResource(engine, "disk", bandwidth=10.0)
    link.request(30.0, lambda: None)
    link.request(20.0, lambda: None)
    engine.run()
    assert link.bytes_transferred == pytest.approx(50.0)
    assert link.completed_items == 2


def test_many_tiny_transfers_terminate():
    """Regression test: fractional residual bytes must not stall the clock."""
    engine = Engine()
    link = BandwidthResource(engine, "pcie", bandwidth=7e9, latency=2e-6)
    done = []
    for i in range(50):
        engine.schedule(i * 1e-7, lambda: link.request(64.0, lambda: done.append(1)))
    engine.run()
    assert len(done) == 50


# --------------------------------------------------------------------------- #
# engine event cancellation
# --------------------------------------------------------------------------- #
def test_cancelled_event_never_fires_and_is_not_counted():
    engine = Engine()
    fired = []
    handle = engine.schedule_cancellable(1.0, lambda: fired.append("cancelled"))
    engine.schedule(2.0, lambda: fired.append("kept"))
    assert engine.pending == 2
    assert handle.cancel()
    assert engine.pending == 1
    engine.run()
    assert fired == ["kept"]
    assert engine.events_processed == 1
    assert engine.events_cancelled == 1
    # cancelling again (or after the queue drained) is a no-op
    assert not handle.cancel()
    assert engine.events_cancelled == 1


def test_cancel_after_firing_is_rejected():
    engine = Engine()
    handle = engine.schedule_cancellable(0.5, lambda: None)
    engine.run()
    assert not handle.cancel()
    assert engine.events_cancelled == 0


def test_run_until_skips_cancelled_head():
    engine = Engine()
    hits = []
    head = engine.schedule_cancellable(1.0, lambda: hits.append("head"))
    engine.schedule(3.0, lambda: hits.append("tail"))
    head.cancel()
    engine.run(until=2.0)
    assert hits == []
    assert engine.now == pytest.approx(2.0)


# --------------------------------------------------------------------------- #
# processor-sharing fairness and wake-up hygiene
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("n", [2, 3, 8])
def test_processor_sharing_fairness(n):
    """n equal concurrent transfers each see bandwidth/n: all end at n*solo."""
    engine = Engine()
    link = BandwidthResource(engine, "pcie", bandwidth=100.0)
    done = []
    for _ in range(n):
        link.request(100.0, lambda: done.append(engine.now))
    engine.run()
    assert len(done) == n
    for end in done:
        assert end == pytest.approx(n * 1.0, rel=1e-9)


def test_arrival_slowdown_cancels_stale_wakeup():
    """Regression (tentpole): an arrival between scheduling a wake-up and its
    due time re-arms the wake-up; the stale early wake-up must never be
    processed as a no-op event."""
    engine = Engine()
    link = BandwidthResource(engine, "pcie", bandwidth=100.0)
    times = {}
    link.request(100.0, lambda: times.setdefault("a", engine.now))
    engine.schedule(0.5, lambda: link.request(100.0, lambda: times.setdefault("b", engine.now)))
    engine.run()
    # a: 0.5s solo (50 B) + 1.0s shared (50 B at 50 B/s) -> 1.5; b ends at 2.0.
    assert times["a"] == pytest.approx(1.5, rel=1e-9)
    assert times["b"] == pytest.approx(2.0, rel=1e-9)
    # Exactly three events were processed: the scheduled arrival and the two
    # completion wake-ups.  The wake-up armed for t=1.0 was cancelled, not
    # fired early as a no-op (a link that never re-arms processes 4 events).
    assert engine.events_processed == 3
    assert engine.events_cancelled == 1
    assert link.wakeups_cancelled == 1


def test_short_arrival_completes_on_time_not_at_stale_wakeup():
    """Bugfix: a short transfer joining a long one must finish at its true
    processor-sharing time, not at the long transfer's pre-armed wake-up
    (t=1.0, 8x late), which is when a link that never re-arms notices it."""
    engine = Engine()
    link = BandwidthResource(engine, "pcie", bandwidth=100.0)
    done = {}
    link.request(100.0, lambda: done.setdefault("big", engine.now))
    engine.schedule(0.1, lambda: link.request(1.0, lambda: done.setdefault("tiny", engine.now)))
    engine.run()
    # tiny: arrives at 0.1 with 1 B at 50 B/s -> 0.12; big: 90 B left at 0.1,
    # 1 B spent shared by 0.12, remaining 89 B at full rate -> 1.01.
    assert done["tiny"] == pytest.approx(0.12, rel=1e-9)
    assert done["big"] == pytest.approx(1.01, rel=1e-9)


def test_virtual_clock_rewinds_when_link_goes_idle():
    """The normalized-service clock is bounded by one busy period, so its ulp
    can never outgrow the completion epsilon on high-bandwidth links."""
    engine = Engine()
    link = BandwidthResource(engine, "dtod", bandwidth=9e11)
    for _ in range(3):
        link.request(1e9, lambda: None)
        engine.run()
        assert link._virtual == 0.0


def test_completion_rearms_for_remaining_transfers():
    """When the earliest transfer finishes, the remaining ones speed up and
    their wake-up is re-armed at the (earlier) new finish time."""
    engine = Engine()
    link = BandwidthResource(engine, "pcie", bandwidth=100.0)
    done = {}
    link.request(50.0, lambda: done.setdefault("small", engine.now))
    link.request(100.0, lambda: done.setdefault("big", engine.now))
    engine.run()
    # shared until t=1.0 (each served 50 B) -> small done; big's last 50 B at
    # full rate -> 1.5 total.
    assert done["small"] == pytest.approx(1.0, rel=1e-9)
    assert done["big"] == pytest.approx(1.5, rel=1e-9)


def test_max_concurrency_queues_in_fifo_order():
    engine = Engine()
    link = BandwidthResource(engine, "pcie", bandwidth=100.0, max_concurrency=2)
    done = []
    for name in ("a", "b", "c"):
        link.request(100.0, lambda n=name: done.append((n, engine.now)))
    engine.run()
    # a and b share the link (done at 2.0); c starts only at 2.0 and runs alone.
    assert [name for name, _ in done] == ["a", "b", "c"]
    assert done[0][1] == pytest.approx(2.0, rel=1e-9)
    assert done[1][1] == pytest.approx(2.0, rel=1e-9)
    assert done[2][1] == pytest.approx(3.0, rel=1e-9)
    assert link.queued_transfers == 0


def test_queued_arrival_keeps_existing_wakeup():
    """An arrival beyond max_concurrency does not touch the active set, so the
    armed wake-up must not be cancelled or re-armed."""
    engine = Engine()
    link = BandwidthResource(engine, "pcie", bandwidth=100.0, max_concurrency=1)
    done = []
    link.request(100.0, lambda: done.append(engine.now))
    link.request(100.0, lambda: done.append(engine.now))
    engine.run()
    assert done == [pytest.approx(1.0), pytest.approx(2.0)]
    assert link.wakeups_cancelled == 0
    assert engine.events_cancelled == 0


def test_latency_is_shared_like_service_bytes():
    """Latency is charged as latency*bandwidth service bytes, so two
    concurrent zero-byte transfers each pay twice the solo latency."""
    engine = Engine()
    link = BandwidthResource(engine, "nic", bandwidth=100.0, latency=1.0)
    done = []
    link.request(0.0, lambda: done.append(engine.now))
    link.request(0.0, lambda: done.append(engine.now))
    engine.run()
    assert done == [pytest.approx(2.0, rel=1e-9), pytest.approx(2.0, rel=1e-9)]


def test_uninterrupted_transfer_matches_legacy_bitwise():
    """A transfer whose active set never changes completes at exactly
    ``(size + latency * bandwidth) / bandwidth`` — the same float the original
    per-transfer decrement produced."""
    engine = Engine()
    link = BandwidthResource(engine, "pcie", bandwidth=7.3e9, latency=3.7e-6)
    ends = []
    link.request(123_456_789.0, lambda: ends.append(engine.now))
    engine.run()
    assert ends[0].hex() == ((123_456_789.0 + 3.7e-6 * 7.3e9) / 7.3e9).hex()


def test_per_resource_event_counter():
    engine = Engine()
    link = BandwidthResource(engine, "pcie", bandwidth=100.0)
    chan = ChannelResource(engine, "gpu", channels=1)
    link.request(100.0, lambda: None)
    chan.request(1.0, lambda: None)
    chan.request(1.0, lambda: None)
    engine.run()
    assert link.events_processed == 1
    assert chan.events_processed == 2


# --------------------------------------------------------------------------- #
# trace analysis
# --------------------------------------------------------------------------- #
def test_trace_busy_time_merges_overlaps():
    trace = Trace()
    trace.record("gpu", "k1", 0.0, 2.0)
    trace.record("gpu", "k2", 1.0, 3.0)
    trace.record("gpu", "k3", 5.0, 6.0)
    assert trace.busy_time("gpu") == pytest.approx(4.0)
    assert trace.utilisation("gpu", 10.0) == pytest.approx(0.4)


def test_trace_overlap_between_resources():
    trace = Trace()
    trace.record("gpu", "kernel", 0.0, 4.0)
    trace.record("pcie", "copy", 2.0, 6.0)
    assert trace.overlap_time("gpu", "pcie") == pytest.approx(2.0)
    assert trace.overlap_time("gpu", "disk") == 0.0


def test_resources_record_into_trace():
    engine = Engine()
    trace = Trace()
    res = ChannelResource(engine, "gpu0", trace=trace)
    res.request(1.0, lambda: None, label="kernel")
    engine.run()
    assert trace.busy_time("gpu0") == pytest.approx(1.0)
    assert trace.summary() == {"gpu0": pytest.approx(1.0)}


def _reference_busy(spans) -> float:
    """Busy time by sorting the whole history and merging it left to right."""
    total = 0.0
    cur_start = None
    cur_end = 0.0
    for start, end in sorted(spans):
        if cur_start is None:
            cur_start, cur_end = start, end
        elif start <= cur_end:
            cur_end = max(cur_end, end)
        else:
            total += cur_end - cur_start
            cur_start, cur_end = start, end
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def _reference_summary(intervals) -> dict:
    spans = {}
    for iv in intervals:
        spans.setdefault(iv.resource, []).append((iv.start, iv.end))
    return {name: _reference_busy(spans[name]) for name in sorted(spans)}


def _hexed(busy: dict) -> dict:
    return {name: value.hex() for name, value in busy.items()}


#: grid values make zero-length, touching and nested intervals common;
#: arbitrary floats exercise the rounding of the summed lengths
_TIMES = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]),
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abc"), _TIMES, _TIMES), max_size=60))
def test_trace_busy_time_equals_sort_merge_reference(steps):
    """Like the engine, the stream is stamped with a clock that never goes back."""
    trace = Trace()
    now = 0.0
    for resource, advance, duration in steps:
        now += advance
        trace.record(resource, "work", now - duration, now)
    expected = _reference_summary(trace.intervals)
    assert _hexed(trace.summary()) == _hexed(expected)
    for resource in "abcd":
        assert trace.busy_time(resource).hex() == expected.get(resource, 0.0).hex()


def test_trace_rejects_an_interval_ending_before_the_previous_one():
    trace = Trace()
    trace.record("gpu", "k1", 0.0, 2.0)
    trace.record("pcie", "copy", 0.0, 1.0)  # each resource keeps its own order
    with pytest.raises(ValueError, match="before the previous end"):
        trace.record("gpu", "k2", 0.5, 1.5)
    assert trace.busy_time("gpu") == 2.0
    assert len(trace.intervals) == 2


def test_faulted_run_busy_time_equals_reference_over_recorded_intervals():
    """Failed attempts are never recorded, so the totals still match the trace."""
    ctx = Context(
        azure_nc24rsv2(nodes=1, gpus_per_node=2),
        mode="simulate",
        faults="transfer=0.2,compute=0.2,retry=8",
        fault_seed=5,
    )
    work = create_workload("hotspot3", ctx, 64 * 64, chunk_elems=64 * 16, iterations=4)
    work.prepare()
    work.submit()
    ctx.synchronize()
    stats = ctx.stats()
    assert stats.transfer_faults_injected > 0
    assert stats.compute_faults_injected > 0
    expected = _reference_summary(ctx.trace().intervals)
    assert _hexed(stats.resource_busy) == _hexed(expected)
