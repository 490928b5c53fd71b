"""Property-based tests for the discrete-event engine hot loop.

The engine rewrite (slab-allocated handles, batched inline dispatch, heap
compaction) must preserve three observable contracts, whatever the schedule
and cancellation pattern:

* dispatch order is strictly non-decreasing in time and FIFO by schedule
  order among equal timestamps (compaction keeps ``(time, seq)`` keys);
* a cancelled event's callback never runs, and cancellation is idempotent;
* the public counters (``pending`` / ``events_processed`` /
  ``events_cancelled``) stay mutually consistent across cancellation churn,
  compaction, and partial ``run(max_events=...)`` drains.

The final test is a functional-equivalence check one level up: a small
HotSpot run must produce the identical virtual time whether the engine's
batched ``run()`` loop or its reference ``step()`` path dispatches it.
"""

from hypothesis import given, settings, strategies as st

from repro.simulator.engine import _COMPACT_MIN, Engine

#: Exactly representable delays, with repeats, so timestamp ties are common.
_DELAYS = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 2.5, 3.0])


# --------------------------------------------------------------------------- #
# ordering: FIFO by schedule order among equal timestamps
# --------------------------------------------------------------------------- #
@settings(max_examples=100, deadline=None)
@given(delays=st.lists(_DELAYS, min_size=1, max_size=64),
       cancellable=st.lists(st.booleans(), min_size=64, max_size=64))
def test_same_timestamp_events_fire_in_schedule_order(delays, cancellable):
    engine = Engine()
    fired = []
    for idx, delay in enumerate(delays):
        def callback(i=idx):
            fired.append(i)
        if cancellable[idx]:
            engine.schedule_cancellable(delay, callback)
        else:
            engine.schedule(delay, callback)
    engine.run()
    # Stable sort by delay == non-decreasing time, FIFO among ties.
    expected = [i for i, _ in sorted(enumerate(delays), key=lambda p: p[1])]
    assert fired == expected
    assert engine.events_processed == len(delays)
    assert engine.pending == 0


def test_call_soon_runs_after_pending_same_time_events():
    engine = Engine()
    fired = []
    engine.schedule(0.0, lambda: fired.append("first"))
    engine.schedule(0.0, lambda: (fired.append("second"),
                                  engine.call_soon(lambda: fired.append("nested"))))
    engine.schedule(0.0, lambda: fired.append("third"))
    engine.run()
    assert fired == ["first", "second", "third", "nested"]


# --------------------------------------------------------------------------- #
# cancellation: a cancelled callback never runs
# --------------------------------------------------------------------------- #
@settings(max_examples=100, deadline=None)
@given(delays=st.lists(_DELAYS, min_size=1, max_size=64),
       cancel_mask=st.lists(st.booleans(), min_size=64, max_size=64),
       double_cancel=st.booleans())
def test_cancellation_never_fires_a_callback(delays, cancel_mask, double_cancel):
    engine = Engine()
    fired = []
    handles = []
    for idx, delay in enumerate(delays):
        handles.append(
            engine.schedule_cancellable(delay, lambda i=idx: fired.append(i))
        )
    cancelled = set()
    for idx, handle in enumerate(handles):
        if cancel_mask[idx]:
            assert handle.cancel() is True
            assert handle.cancelled
            if double_cancel:
                assert handle.cancel() is False  # idempotent
            cancelled.add(idx)
    engine.run()
    assert cancelled.isdisjoint(fired)
    assert sorted(fired) == sorted(set(range(len(delays))) - cancelled)
    assert engine.events_cancelled == len(cancelled)
    assert engine.events_processed == len(delays) - len(cancelled)


# --------------------------------------------------------------------------- #
# counters: consistent across cancellation churn and compaction
# --------------------------------------------------------------------------- #
@settings(max_examples=60, deadline=None)
@given(
    n_events=st.integers(min_value=1, max_value=3 * _COMPACT_MIN),
    cancel_stride=st.integers(min_value=1, max_value=4),
    drain=st.integers(min_value=0, max_value=16),
)
def test_counters_consistent_across_compaction(n_events, cancel_stride, drain):
    engine = Engine()
    fired = []
    handles = [
        engine.schedule_cancellable(1.0 + (i % 7) * 0.25, lambda i=i: fired.append(i))
        for i in range(n_events)
    ]
    assert engine.pending == n_events

    live = n_events
    for idx, handle in enumerate(handles):
        # strides 1 and 2 cancel a majority -> compaction fires for large n
        if idx % cancel_stride != cancel_stride - 1:
            handle.cancel()
            live -= 1
            # pending excludes cancelled entries whether or not the heap has
            # been compacted or pruned yet.
            assert engine.pending == live
    n_cancelled = n_events - live
    assert engine.events_cancelled == n_cancelled
    assert engine.events_processed == 0

    # Partial drain: counters advance one event at a time, never counting
    # cancelled entries as processed.
    engine.run(max_events=drain)
    drained = min(drain, live)
    assert engine.events_processed == drained
    assert engine.pending == live - drained

    engine.run()
    assert engine.pending == 0
    assert engine.events_processed == live
    assert engine.events_cancelled == n_cancelled
    assert len(fired) == live


@settings(max_examples=40, deadline=None)
@given(n_events=st.integers(min_value=_COMPACT_MIN, max_value=4 * _COMPACT_MIN))
def test_compaction_preserves_survivor_order(n_events):
    """Majority-cancel forces compaction; survivors still fire in order."""
    engine = Engine()
    fired = []
    handles = [
        engine.schedule_cancellable(1.0 + (i % 5) * 0.5, lambda i=i: fired.append(i))
        for i in range(n_events)
    ]
    survivors = []
    for idx, handle in enumerate(handles):
        if idx % 8 == 0:
            survivors.append(idx)
        else:
            handle.cancel()
    # 7/8 cancelled: the compaction threshold (cancelled majority, heap of at
    # least _COMPACT_MIN) must have been crossed while cancelling.
    assert len(engine._queue) < n_events
    engine.run()
    expected = [i for i in sorted(survivors, key=lambda i: (1.0 + (i % 5) * 0.5, i))]
    assert fired == expected


# --------------------------------------------------------------------------- #
# functional equivalence: per-event step() vs the batched inline run() loop
# --------------------------------------------------------------------------- #
def _step_run(self, until=None, max_events=None):
    """The pre-batching dispatch loop: one ``step()`` call per event."""
    processed = 0
    while True:
        self._prune_cancelled()
        if not self._queue:
            break
        if until is not None and self._queue[0][0] > until:
            self.now = until
            break
        if max_events is not None and processed >= max_events:
            break
        self.step()
        processed += 1
    return self.now


def test_hotspot_virtual_time_identical_under_step_dispatch(monkeypatch):
    """A small HotSpot run is bit-identical under old and new dispatch paths.

    The batched ``run()`` loop replaced a per-event ``step()`` driver; the
    rewrite's contract is that dispatch order — and therefore every virtual
    timestamp — is unchanged.  ``step()`` still exists, so the old driver can
    be reconstructed and the whole simulation replayed under it.
    """
    from repro.bench.harness import run_workload_with_stats

    def run_once():
        _, stats = run_workload_with_stats(
            "hotspot2", 4_000_000, nodes=1, gpus_per_node=2, mode="simulate",
        )
        return stats

    batched = run_once()
    monkeypatch.setattr(Engine, "run", _step_run)
    stepped = run_once()

    assert stepped.virtual_time == batched.virtual_time
    assert stepped.tasks_completed == batched.tasks_completed
    assert stepped.resource_events == batched.resource_events
