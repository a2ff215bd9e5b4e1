"""The engine against a sorted-list reference model (hypothesis).

Random programs of ``schedule`` / ``schedule_after`` / ``schedule_timer``
/ ``cancel_timer`` / ``rearm_timer`` calls, split by ``run(until=...,
max_events=...)`` steps, are played on the real :class:`Engine` and on
a reference calendar that keeps every pending call in a plain list and
always fires the smallest ``(time, seq)`` key.  ``rearm_timer`` is
modelled by its contract: exactly ``cancel_timer`` then
``schedule_timer``.  Every fired call runs its own sub-program, so
timers are also armed, cancelled and re-armed from inside callbacks.

After every step the two must agree on the firing order, the clock,
``pending_events``, ``pending_timers`` and ``events_processed``; the
clock must never run backwards.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine

#: Handle slots the timer operations address.
SLOTS = 3
#: One revolution of the timer wheel the engine used to have (512 slots
#: of 65.536 us); deadlines around its multiples exercised its bugs.
REVOLUTION = 512 * 65_536

delays = st.one_of(
    st.integers(0, 300_000),
    st.integers(0, 3 * REVOLUTION),
    st.sampled_from([0, 1, 65_535, 65_536, REVOLUTION - 1, REVOLUTION,
                     REVOLUTION + 70_000, 2 * REVOLUTION]),
)


def _ops(children):
    slot = st.integers(0, SLOTS - 1)
    return st.one_of(
        st.tuples(st.just("schedule"), delays, children),
        st.tuples(st.just("after"), delays, children),
        st.tuples(st.just("timer"), delays, children, slot),
        st.tuples(st.just("rearm"), delays, children, slot),
        st.tuples(st.just("cancel"), slot),
    )


#: A list of operations; each arming operation carries the sub-program
#: its callback runs when it fires.
programs = st.recursive(
    st.just([]),
    lambda children: st.lists(_ops(children), max_size=4),
    max_leaves=12,
)

steps = st.lists(
    st.one_of(
        _ops(programs),
        st.tuples(st.just("run"),
                  st.one_of(st.none(), delays),
                  st.one_of(st.none(), st.integers(1, 6))),
    ),
    max_size=14,
)


class _RefTimer:
    __slots__ = ("entry",)

    def __init__(self, entry: list | None) -> None:
        self.entry = entry


class ReferenceEngine:
    """Pending calls in an unsorted list; ``run`` fires the minimum."""

    def __init__(self) -> None:
        self.now = 0
        self.seq = 0
        self.events_processed = 0
        #: ``[time, seq, callback, args, timer-or-None]``
        self.pending: list[list] = []

    @property
    def pending_events(self) -> int:
        return len(self.pending)

    @property
    def pending_timers(self) -> int:
        return sum(1 for entry in self.pending if entry[4] is not None)

    def _push(self, at, callback, args, timer=None) -> list:
        entry = [at, self.seq, callback, args, timer]
        self.seq += 1
        self.pending.append(entry)
        return entry

    def schedule(self, at, callback, *args) -> None:
        assert at >= self.now
        self._push(at, callback, args)

    def schedule_after(self, delay, callback, *args) -> None:
        self._push(self.now + delay, callback, args)

    def schedule_timer(self, delay, callback, *args) -> _RefTimer:
        timer = _RefTimer(None)
        timer.entry = self._push(self.now + delay, callback, args, timer)
        return timer

    def cancel_timer(self, timer) -> None:
        if timer is not None and timer.entry is not None:
            self.pending.remove(timer.entry)
            timer.entry = None

    def rearm_timer(self, timer, delay, callback, *args) -> _RefTimer:
        self.cancel_timer(timer)
        return self.schedule_timer(delay, callback, *args)

    def run(self, until=None, max_events=None) -> int:
        fired = 0
        while self.pending:
            entry = min(self.pending, key=lambda e: (e[0], e[1]))
            if until is not None and entry[0] > until:
                self.now = until
                break
            self.pending.remove(entry)
            if entry[4] is not None:
                entry[4].entry = None
            self.now = entry[0]
            entry[2](*entry[3])
            self.events_processed += 1
            fired += 1
            if max_events is not None and fired >= max_events:
                break
        if until is not None and self.now < until and not self.pending:
            self.now = until
        return self.now


class Player:
    """Plays a program on one engine, recording ``(tag, now)`` firings."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.slots: list = [None] * SLOTS
        self.fired: list[tuple[int, int]] = []
        self.tags = 0

    def fire(self, tag: int, program: list) -> None:
        now = self.engine.now
        assert not self.fired or self.fired[-1][1] <= now, "clock ran backwards"
        self.fired.append((tag, now))
        self.play(program)

    def play(self, program: list) -> None:
        engine = self.engine
        for op in program:
            kind = op[0]
            if kind == "cancel":
                engine.cancel_timer(self.slots[op[1]])
                continue
            delay, children = op[1], op[2]
            self.tags += 1
            args = (self.tags, children)
            if kind == "schedule":
                engine.schedule(engine.now + delay, self.fire, *args)
            elif kind == "after":
                engine.schedule_after(delay, self.fire, *args)
            elif kind == "timer":
                self.slots[op[3]] = engine.schedule_timer(delay, self.fire, *args)
            else:
                self.slots[op[3]] = engine.rearm_timer(
                    self.slots[op[3]], delay, self.fire, *args)


def _state(player: Player) -> tuple:
    engine = player.engine
    return (list(player.fired), engine.now, engine.pending_events,
            engine.pending_timers, engine.events_processed)


@given(program=steps)
@settings(max_examples=300, deadline=None)
def test_engine_matches_reference_model(program):
    real = Player(Engine())
    model = Player(ReferenceEngine())
    for step in program + [("run", None, None)]:
        if step[0] == "run":
            _, until_delta, max_events = step
            until = None if until_delta is None else real.engine.now + until_delta
            assert real.engine.run(until, max_events) == model.engine.run(
                until, max_events)
        else:
            real.play([step])
            model.play([step])
        assert _state(real) == _state(model)
    assert real.engine.pending_events == 0
    assert real.engine.pending_timers == 0
