"""Tests for the discrete-event simulator core."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.events import EventQueue
from repro.sim.simulator import Simulator


class TestEventQueue:
    def test_orders_events_by_time(self):
        queue = EventQueue()
        order = []
        queue.push(2.0, order.append, ("b",))
        queue.push(1.0, order.append, ("a",))
        queue.push(3.0, order.append, ("c",))
        while queue:
            queue.pop().fire()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fire_in_scheduling_order(self):
        queue = EventQueue()
        order = []
        for label in "abc":
            queue.push(1.0, order.append, (label,))
        while queue:
            queue.pop().fire()
        assert order == ["a", "b", "c"]

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        order = []
        event = queue.push(1.0, order.append, ("x",))
        queue.push(2.0, order.append, ("y",))
        event.cancel()
        while queue:
            popped = queue.pop()
            if popped:
                popped.fire()
        assert order == ["y"]

    def test_negative_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(SimulationError):
            queue.push(-1.0, lambda: None)

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(5.0, lambda: None)
        event.cancel()
        assert queue.peek_time() == 5.0

    def test_len_is_exact_after_cancellation(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None) for i in range(5)]
        assert len(queue) == 5
        events[1].cancel()
        events[3].cancel()
        events[3].cancel()  # double-cancel is a no-op
        assert len(queue) == 3
        queue.clear()
        assert len(queue) == 0 and not queue

    def test_is_pending_tracks_lifecycle(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        assert queue.is_pending(event)
        assert queue.last_seq == event.seq
        event.cancel()
        assert not queue.is_pending(event)
        other = queue.push(2.0, lambda: None)
        queue.pop()
        assert not queue.is_pending(other)


class TestSimulator:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_schedule_advances_clock(self):
        sim = Simulator()
        times = []
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.schedule(0.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [0.5, 1.5]
        assert sim.now == 1.5

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(10.0, fired.append, 2)
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        assert sim.pending_events == 1

    def test_max_events_budget(self):
        sim = Simulator()
        for _ in range(10):
            sim.schedule(1.0, lambda: None)
        executed = sim.run(max_events=3)
        assert executed == 3
        assert sim.pending_events == 7

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-0.1, lambda: None)

    def test_schedule_at_in_the_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def outer():
            log.append(("outer", sim.now))
            sim.schedule(2.0, inner)

        def inner():
            log.append(("inner", sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert log == [("outer", 1.0), ("inner", 3.0)]

    def test_fork_rng_is_deterministic(self):
        first = Simulator(seed=7).fork_rng("x").random()
        second = Simulator(seed=7).fork_rng("x").random()
        third = Simulator(seed=7).fork_rng("y").random()
        assert first == second
        assert first != third

    def test_fork_rng_same_label_yields_independent_streams(self):
        sim = Simulator(seed=7)
        first = sim.fork_rng("x")
        second = sim.fork_rng("x")
        assert first.random() != second.random()

    def test_fork_rng_default_label_yields_independent_streams(self):
        sim = Simulator(seed=7)
        draws = [sim.fork_rng().random() for _ in range(4)]
        assert len(set(draws)) == 4
        # ...and the whole sequence is reproducible from the seed.
        again = Simulator(seed=7)
        assert draws == [again.fork_rng().random() for _ in range(4)]

    def test_interleaved_schedule_and_schedule_at_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, order.append, "delay-2")
        sim.schedule_at(1.0, order.append, "at-1")
        sim.schedule(1.0, order.append, "delay-1")
        sim.schedule_at(2.0, order.append, "at-2")
        sim.schedule_at(1.0, order.append, "at-1-again")
        sim.run()
        assert order == ["at-1", "delay-1", "at-1-again", "delay-2", "at-2"]

    def test_run_honours_until_and_max_events_within_a_cohort(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(1.0, fired.append, i)
        sim.schedule(5.0, fired.append, "late")
        assert sim.run(max_events=4) == 4
        assert fired == [0, 1, 2, 3]
        sim.run(until=2.0)
        assert fired == [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]
        assert sim.now == 2.0
        assert sim.pending_events == 1

    def test_run_budget_ignores_cancelled_cohort_members(self):
        # Regression: a cohort member cancelled by an earlier member must not
        # consume the max_events budget.
        sim = Simulator()
        fired = []
        holder = {}
        sim.schedule(1.0, lambda: holder["victim"].cancel())
        holder["victim"] = sim.schedule(1.0, fired.append, "victim")
        sim.schedule(1.0, fired.append, "third")
        assert sim.run(max_events=2) == 2
        assert fired == ["third"]
        assert sim.events_processed == 2

    def test_run_skips_events_cancelled_within_cohort(self):
        # The canceller fires first (lower seq, same timestamp) and cancels a
        # victim scheduled for the same instant.
        sim = Simulator()
        fired = []
        victim_holder = {}
        sim.schedule(1.0, lambda: victim_holder["victim"].cancel())
        victim_holder["victim"] = sim.schedule(1.0, fired.append, "victim")
        sim.run()
        assert fired == []

    def test_run_until_idle_raises_on_budget_exhaustion(self):
        sim = Simulator()

        def reschedule():
            sim.schedule(1.0, reschedule)

        sim.schedule(1.0, reschedule)
        with pytest.raises(SimulationError):
            sim.run_until_idle(max_events=10)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
    def test_events_always_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)


# ---------------------------------------------------------------------------
# Model-based: the heap + flag queue against a sort-the-list scheduler
# ---------------------------------------------------------------------------
class _ModelScheduler:
    """The documented semantics, written the slow obvious way."""

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self.pending = []  # (time, seq, label)
        self._seq = 0

    def schedule_at(self, time, label):
        self.pending.append((time, self._seq, label))
        self._seq += 1

    def cancel(self, label):
        self.pending = [entry for entry in self.pending if entry[2] != label]

    def run(self, on_fire, until=None, max_events=None):
        executed = 0
        while self.pending and (max_events is None or executed < max_events):
            entry = min(self.pending)
            if until is not None and entry[0] > until:
                self.now = max(self.now, until)
                break
            self.pending.remove(entry)
            self.now = entry[0]
            self.events_processed += 1
            on_fire(entry[2])
            executed += 1
        return executed


_DELAYS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 2.0])
_ACTIONS = st.lists(st.one_of(
    st.tuples(st.just("schedule"), _DELAYS),
    st.tuples(st.just("schedule_at"), _DELAYS),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=200)),
), max_size=4)
_SLICES = st.lists(st.one_of(
    st.tuples(st.just("until"), st.sampled_from([0.0, 0.25, 0.5, 0.6, 1.0, 1.5, 3.0])),
    st.tuples(st.just("max_events"), st.integers(min_value=0, max_value=7)),
    st.tuples(st.just("both"), st.integers(min_value=1, max_value=5)),
    st.tuples(st.just("step"), st.integers(min_value=1, max_value=3)),
), max_size=8)
_MAX_LABELS = 80


def _run_program(initial, scripts, slices, drain):
    """Run one random program on a Simulator and on the model; return both traces.

    Events are labelled by creation order (= ``seq``).  Firing label ``k``
    performs ``scripts[k % len(scripts)]``: schedules relative to the firing
    instant (delay 0.0 = same timestamp, mid-cohort) and cancels of any label
    created so far — pending, already fired, already cancelled or itself.
    """
    sim, model = Simulator(), _ModelScheduler()
    handles, sim_trace, model_trace = [], [], []

    def sim_api(kind, value, now):
        if kind == "cancel":
            if handles:
                handles[value % len(handles)].cancel()
        elif len(handles) < _MAX_LABELS:
            label = len(handles)
            if kind == "schedule":
                handles.append(sim.schedule(value, sim_fire, label))
            else:
                handles.append(sim.schedule_at(now + value, sim_fire, label))

    labels = [0]  # the model's own creation counter

    def model_api(kind, value, now):
        if kind == "cancel":
            if labels[0]:
                model.cancel(value % labels[0])
        elif labels[0] < _MAX_LABELS:
            model.schedule_at(now + value, labels[0])
            labels[0] += 1

    def sim_fire(label):
        sim_trace.append((label, sim.now, sim.events_processed))
        for kind, value in scripts[label % len(scripts)]:
            sim_api(kind, value, sim.now)

    def model_fire(label):
        model_trace.append((label, model.now, model.events_processed))
        for kind, value in scripts[label % len(scripts)]:
            model_api(kind, value, model.now)

    for kind, value in initial:
        sim_api(kind, value, 0.0)
        model_api(kind, value, 0.0)

    def check():
        assert sim_trace == model_trace
        assert (sim.now, sim.events_processed, sim.pending_events) == (
            model.now, model.events_processed, len(model.pending))
        live = {label for _, _, label in model.pending}
        assert [sim._queue.is_pending(handle) for handle in handles] == [
            label in live for label in range(len(handles))]
        assert sim.next_event_time() == (min(model.pending)[0] if model.pending else None)

    for kind, value in slices:
        if kind == "until":
            bounds = dict(until=sim.now + value)
        elif kind == "max_events":
            bounds = dict(max_events=value)
        elif kind == "both":
            bounds = dict(until=sim.now + 0.5 * value, max_events=value)
        else:
            for _ in range(value):
                assert sim.step() == (model.run(model_fire, max_events=1) == 1)
            check()
            continue
        assert drain(sim, **bounds) == model.run(model_fire, **bounds)
        check()
    if drain is Simulator.step:
        while sim.step():
            pass
    else:
        drain(sim)
    model.run(model_fire)
    check()
    assert sim.pending_events == 0
    return sim_trace


@given(initial=st.lists(st.one_of(st.tuples(st.just("schedule"), _DELAYS),
                                  st.tuples(st.just("schedule_at"), _DELAYS),
                                  st.tuples(st.just("cancel"), st.integers(0, 20))),
                        min_size=1, max_size=12),
       scripts=st.lists(_ACTIONS, min_size=1, max_size=6),
       slices=_SLICES)
@settings(max_examples=150, deadline=None)
def test_random_programs_fire_in_time_seq_order_on_every_drain(initial, scripts, slices):
    """``run``, ``step`` and any slicing by ``until`` / ``max_events`` fire
    the same events in sorted ``(time, seq)`` order, with equal clocks and
    counters after every slice — cancels of fired, pending and cancelled
    events and same-timestamp schedules from inside a firing callback
    included."""
    traces = [_run_program(initial, scripts, slices, Simulator.run),
              _run_program(initial, scripts, [], Simulator.step)]
    # Slicing moves the clock between events but never the order.
    assert [label for label, _, _ in traces[0]] == [label for label, _, _ in traces[1]]
    fired = [(time, label) for label, time, _ in traces[0]]
    assert fired == sorted(fired)  # labels are seqs: exactly (time, seq) order


def test_cancelled_timers_leave_no_dead_weight():
    """100 000 schedule-then-cancel pairs: the heap stays O(live) and the
    cancelled events' arguments are collectable at once, not at their due
    time (lazy cancellation alone would keep every one of them)."""
    import gc
    import weakref

    class Payload:
        pass

    sim = Simulator()
    live = [sim.schedule(1e6 + index, lambda: None) for index in range(50)]
    refs = []
    peak = 0
    for index in range(100_000):
        payload = Payload()
        if index % 10_000 == 0:
            refs.append(weakref.ref(payload))
        event = sim.schedule(10.0 + index, lambda _payload: None, payload)
        del payload
        event.cancel()
        event.cancel()  # idempotent
        peak = max(peak, len(sim._queue._heap))
        assert sim.pending_events == len(live)
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert peak <= 2 * len(live) + 2
    assert len(sim._queue._heap) <= 2 * len(live) + 1
    assert event.callback is None and event.args is None
    assert sim.run() == len(live) and sim.pending_events == 0
    # A fired event can still be "cancelled": a no-op that touches nothing.
    live[0].cancel()
    assert sim.pending_events == 0 and len(sim._queue) == 0
