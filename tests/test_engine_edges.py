"""Edge cases of the engine run loop and its cancellable timers.

Events and timers share one ``(time, seq)`` heap.  A timer's entry is
dropped when it pops after a cancel, re-filed under its reserved key
when it pops after an in-place ``rearm_timer``, and fired otherwise.
These tests pin the semantics at the seams: the ``until`` horizon,
``stop()``, ``max_events``, timer/event interleaving and re-arming.
"""

import pytest

from repro.sim.engine import Engine, SimulationError


# ----------------------------------------------------------------------
# run(until) x stop() x max_events x empty calendar
# ----------------------------------------------------------------------

def test_stop_during_run_until_leaves_clock_at_event():
    engine = Engine()
    fired = []
    engine.schedule(10, lambda: (fired.append("a"), engine.stop()))
    engine.schedule(20, fired.append, "b")
    assert engine.run(until=100) == 10
    assert fired == ["a"]
    # The stopped run must not advance the clock to `until`; the
    # remaining event is preserved and runs on resume.
    assert engine.now == 10
    engine.run(until=100)
    assert fired == ["a", "b"]


def test_max_events_wins_over_until():
    engine = Engine()
    fired = []
    for t in (1, 2, 3, 4):
        engine.schedule(t, fired.append, t)
    assert engine.run(until=100, max_events=2) == 2
    assert fired == [1, 2]
    engine.run(until=100)
    assert fired == [1, 2, 3, 4]


def test_run_until_with_empty_calendar_advances_to_until():
    engine = Engine()
    assert engine.run(until=50) == 50
    assert engine.now == 50
    # Scheduling at the horizon is legal afterwards; before it is not.
    engine.schedule(50, lambda: None)
    with pytest.raises(SimulationError):
        engine.schedule(49, lambda: None)


def test_event_beyond_until_is_pushed_back_intact():
    engine = Engine()
    fired = []
    engine.schedule(75, fired.append, "late")
    assert engine.run(until=30) == 30
    assert fired == []
    assert engine.pending_events == 1
    # A later run executes the preserved event exactly once.
    assert engine.run() == 75
    assert fired == ["late"]


def test_repeated_run_until_is_idempotent_on_empty_engine():
    engine = Engine()
    assert engine.run(until=10) == 10
    assert engine.run(until=10) == 10
    assert engine.run() == 10
    assert engine.events_processed == 0


# ----------------------------------------------------------------------
# timers: cancel / reschedule semantics
# ----------------------------------------------------------------------

def test_timer_fires_with_args():
    engine = Engine()
    fired = []
    engine.schedule_timer(100, fired.append, "t")
    engine.run()
    assert fired == ["t"]
    assert engine.now == 100
    assert engine.pending_timers == 0


def test_cancelled_timer_never_fires():
    engine = Engine()
    fired = []
    timer = engine.schedule_timer(100, fired.append, "t")
    engine.cancel_timer(timer)
    assert engine.pending_timers == 0
    engine.run()
    assert fired == []


def test_cancel_is_idempotent_and_tolerates_none():
    engine = Engine()
    timer = engine.schedule_timer(10, lambda: None)
    engine.cancel_timer(None)
    engine.cancel_timer(timer)
    engine.cancel_timer(timer)  # second cancel: no double decrement
    assert engine.pending_timers == 0
    engine.run()
    assert engine.events_processed == 0


def test_cancel_after_fire_is_a_noop():
    engine = Engine()
    timer = engine.schedule_timer(10, lambda: None)
    engine.run()
    assert engine.events_processed == 1
    engine.cancel_timer(timer)
    assert engine.pending_timers == 0


def test_rearm_pattern_only_last_timer_fires():
    # The transport's RTO pattern: cancel + re-arm on every ACK.
    engine = Engine()
    fired = []
    timer = None
    for delay in (100, 200, 300):
        engine.cancel_timer(timer)
        timer = engine.schedule_timer(delay, fired.append, delay)
    assert engine.pending_timers == 1
    engine.run()
    assert fired == [300]
    assert engine.now == 300


def test_timer_and_event_tie_breaks_by_arming_order():
    engine = Engine()
    fired = []
    engine.schedule_timer(50, fired.append, "timer-first")
    engine.schedule(50, fired.append, "event-second")
    engine.schedule(50, fired.append, "event-third")
    engine.run()
    assert fired == ["timer-first", "event-second", "event-third"]

    engine = Engine()
    fired = []
    engine.schedule(50, fired.append, "event-first")
    engine.schedule_timer(50, fired.append, "timer-second")
    engine.run()
    assert fired == ["event-first", "timer-second"]


def test_timer_beyond_until_survives_the_horizon():
    engine = Engine()
    fired = []
    engine.schedule_timer(500, fired.append, "t")
    assert engine.run(until=100) == 100
    assert fired == []
    assert engine.pending_timers == 1
    engine.run()
    assert fired == ["t"]
    assert engine.now == 500


def test_far_timer_fires_once_after_near_one():
    # 100 ms is far beyond the RTO range; it must still fire exactly
    # once, after the nearer timer.
    engine = Engine()
    fired = []
    engine.schedule_timer(100_000_000, fired.append, "far")
    engine.schedule_timer(1_000, fired.append, "near")
    engine.run()
    assert fired == ["near", "far"]
    assert engine.now == 100_000_000


def test_negative_timer_delay_raises():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.schedule_timer(-1, lambda: None)


def test_timer_armed_inside_callback_during_run():
    engine = Engine()
    fired = []

    def arm_followup():
        fired.append("first")
        engine.schedule_timer(25, fired.append, "second")

    engine.schedule_timer(10, arm_followup)
    engine.run()
    assert fired == ["first", "second"]
    assert engine.now == 35


def test_mixed_timers_and_events_fire_in_global_time_order():
    engine = Engine()
    fired = []
    expected = []
    # Interleave arming so heap events and timers share deadlines;
    # cancel a scattering of timers.
    cancelled = set()
    timers = {}
    for i in range(40):
        at = (i * 7_919) % 300_000
        if i % 2:
            engine.schedule(at, fired.append, ("event", at, i))
        else:
            timers[i] = engine.schedule_timer(at, fired.append,
                                              ("timer", at, i))
        if i % 10 == 4:
            engine.cancel_timer(timers.get(i))
            cancelled.add(i)
    for i in range(40):
        at = (i * 7_919) % 300_000
        if i not in cancelled:
            expected.append((at, i))
    engine.run()
    assert [(at, i) for _, at, i in fired] == sorted(expected)


def test_pending_events_counts_calendar_and_timers():
    engine = Engine()
    engine.schedule(10, lambda: None)
    timer = engine.schedule_timer(20, lambda: None)
    assert engine.pending_events == 2
    assert engine.pending_timers == 1
    engine.cancel_timer(timer)
    assert engine.pending_events == 1
    engine.run()
    assert engine.pending_events == 0


def test_live_timer_fires_before_later_event_behind_far_and_cancelled_timers():
    # Regression: the hashed timer wheel this engine used to have (512
    # slots of 65.536 us) swept slot 1 when the 70 us event came due,
    # kept the far timer there (one revolution out) and took its
    # deadline as the bound on every live timer, although slot 3 still
    # held the 200 us timer.  The 300 us event then ran first and the
    # clock went 300000 -> 200000.
    revolution = 512 * 65_536
    engine = Engine()
    fired = []

    def note(tag):
        fired.append((tag, engine.now))

    engine.schedule_timer(revolution + 70_000, note, "far")
    cancelled = engine.schedule_timer(66_000, note, "cancelled")
    engine.schedule_timer(200_000, note, "live")
    engine.cancel_timer(cancelled)
    for at in (10, 70_000, 300_000):
        engine.schedule(at, note, at)
    engine.run()
    assert fired == [(10, 10), (70_000, 70_000), ("live", 200_000),
                     (300_000, 300_000), ("far", revolution + 70_000)]


# ----------------------------------------------------------------------
# rearm_timer: in-place postponement and its fallback
# ----------------------------------------------------------------------

def test_rearm_later_postpones_in_place():
    engine = Engine()
    fired = []
    timer = engine.schedule_timer(100, fired.append, "old")
    same = engine.rearm_timer(timer, 300, fired.append, "new")
    assert same is timer
    assert engine.pending_timers == 1
    assert engine.pending_events == 1
    assert engine.run(until=200) == 200
    # The stale entry popped at 100 and was re-filed, uncounted.
    assert fired == []
    assert engine.events_processed == 0
    assert engine.pending_events == 1
    engine.run()
    assert fired == ["new"]
    assert engine.now == 300
    assert engine.events_processed == 1


def test_rearm_earlier_replaces_the_timer():
    engine = Engine()
    fired = []
    timer = engine.schedule_timer(300, fired.append, "old")
    new = engine.rearm_timer(timer, 100, fired.append, "new")
    assert new is not timer
    assert not timer.alive
    assert engine.pending_timers == 1
    assert engine.pending_events == 1
    engine.run()
    assert fired == ["new"]
    assert engine.now == 100
    assert engine.events_processed == 1
    assert engine.pending_events == 0


def test_rearm_of_none_fired_or_cancelled_timer_arms_a_new_one():
    engine = Engine()
    fired = []
    first = engine.rearm_timer(None, 10, fired.append, "a")
    engine.run()
    second = engine.rearm_timer(first, 10, fired.append, "b")
    assert second is not first
    engine.cancel_timer(second)
    third = engine.rearm_timer(second, 10, fired.append, "c")
    assert third is not second
    engine.run()
    assert fired == ["a", "c"]
    assert engine.pending_events == 0


def test_rearm_in_place_keeps_cancel_and_schedule_order():
    # The postponed timer takes the key a fresh timer would: after the
    # event armed before the re-arm, before the event armed after it.
    engine = Engine()
    fired = []
    timer = engine.schedule_timer(100, fired.append, "timer")
    engine.schedule(300, fired.append, "before")
    engine.rearm_timer(timer, 300, fired.append, "timer")
    engine.schedule(300, fired.append, "after")
    engine.run()
    assert fired == ["before", "timer", "after"]


def test_rearm_to_the_same_deadline_moves_behind_ties():
    engine = Engine()
    fired = []
    timer = engine.schedule_timer(100, fired.append, "timer")
    engine.schedule(100, fired.append, "event")
    engine.rearm_timer(timer, 100, fired.append, "timer")
    engine.run()
    assert fired == ["event", "timer"]


def test_rearm_inside_callbacks_fires_once_at_last_deadline():
    # The transport pattern: every ACK pushes the RTO further out.
    engine = Engine()
    fired = []
    sender = {"timer": None}

    def ack():
        sender["timer"] = engine.rearm_timer(sender["timer"], 1_000,
                                             fired.append, engine.now)

    for at in range(0, 5_000, 400):
        engine.schedule(at, ack)
    engine.run()
    assert fired == [4_800]
    assert engine.now == 5_800
    assert engine.events_processed == 13 + 1


def test_cancel_after_in_place_rearm_drops_the_entry():
    engine = Engine()
    fired = []
    timer = engine.schedule_timer(100, fired.append, "t")
    engine.rearm_timer(timer, 500, fired.append, "t")
    engine.cancel_timer(timer)
    assert engine.pending_events == 0
    assert engine.pending_timers == 0
    assert engine.run(until=1_000) == 1_000
    assert fired == []
    assert engine.events_processed == 0


def test_negative_rearm_delay_raises():
    engine = Engine()
    timer = engine.schedule_timer(10, lambda: None)
    with pytest.raises(SimulationError):
        engine.rearm_timer(timer, -1, lambda: None)


def test_dead_timer_entries_do_not_count_against_max_events():
    engine = Engine()
    fired = []
    for delay in (5, 6, 7):
        engine.cancel_timer(engine.schedule_timer(delay, fired.append, delay))
    engine.schedule(10, fired.append, "a")
    engine.schedule(20, fired.append, "b")
    assert engine.run(max_events=1) == 10
    assert fired == ["a"]
    assert engine.events_processed == 1
