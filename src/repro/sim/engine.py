"""Discrete-event simulation engine.

The engine is a classic event-calendar simulator: a binary heap of
``(time, sequence, callback, argument)`` tuples, an integer-nanosecond
clock, and a run loop.  Integer time avoids floating-point drift when
summing many small per-hop delays, which matters because the paper's
latency budget is built from 1 microsecond propagation delays and
sub-microsecond serialization times.

Cancellable timers (retransmission timeouts, health probes) live in the
same heap, so events and timers share one ``(time, sequence)`` order by
construction.  A timer's entry carries ``None`` in the callback slot and
the :class:`Timer` handle in the argument slot; the run loop dispatches
it inline.  Cancelling flags the handle and the dead entry is dropped
when it is popped, as in ns-3's scheduler.  Transports re-arm their RTO
on every ACK; :meth:`Engine.rearm_timer` postpones a live timer in place
(the handle reserves a fresh key and keeps its one heap entry, which is
re-filed under that key when it pops early), so ACKs leave no trail of
dead entries behind.

The engine is deliberately minimal; all protocol behaviour lives in the
network objects (:mod:`repro.net`, :mod:`repro.vnet`, :mod:`repro.core`)
that schedule events on it.
"""

from __future__ import annotations

import gc
import heapq
from collections.abc import Callable, Iterator
from typing import Any

# Unit helpers: all simulation timestamps are integers in nanoseconds.
NANOSECOND = 1
MICROSECOND = 1_000
MILLISECOND = 1_000_000
SECOND = 1_000_000_000


def usec(value: float) -> int:
    """Convert microseconds to integer nanoseconds."""
    return round(value * MICROSECOND)


def msec(value: float) -> int:
    """Convert milliseconds to integer nanoseconds."""
    return round(value * MILLISECOND)


class SimulationError(RuntimeError):
    """Raised on misuse of the engine (e.g. scheduling in the past)."""


class Timer:
    """A cancellable timer handle returned by :meth:`Engine.schedule_timer`.

    ``deadline``/``seq`` is the timer's key in the event heap.  A live
    timer always has exactly one heap entry; after an in-place
    :meth:`Engine.rearm_timer` that entry may sit under an older, smaller
    key until it is popped and re-filed under ``(deadline, seq)``.
    """

    __slots__ = ("deadline", "seq", "callback", "args", "alive")

    def __init__(self, deadline: int, seq: int,
                 callback: Callable[..., None], args: tuple) -> None:
        self.deadline = deadline
        self.seq = seq
        self.callback = callback
        self.args = args
        self.alive = True


class PeriodicTask:
    """Handle for a repeating callback armed by :meth:`Engine.schedule_periodic`.

    The task re-schedules itself after every firing; :meth:`cancel`
    stops the cycle (the pending event becomes a no-op rather than
    being removed from the calendar, mirroring timer lazy deletion).
    """

    __slots__ = ("period_ns", "callback", "args", "cancelled", "fired")

    def __init__(self, period_ns: int, callback: Callable[..., None],
                 args: tuple) -> None:
        self.period_ns = period_ns
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = 0

    def cancel(self) -> None:
        """Stop the cycle; the already-scheduled firing is skipped."""
        self.cancelled = True


class Engine:
    """An event-driven simulation engine with an integer nanosecond clock.

    Events are callbacks scheduled at absolute or relative times.  Ties
    are broken by insertion order, making runs fully deterministic for a
    fixed seed and fixed scheduling order.

    Example:
        >>> engine = Engine()
        >>> fired = []
        >>> engine.schedule(10, fired.append, "a")
        >>> engine.schedule(5, fired.append, "b")
        >>> engine.run()
        >>> fired
        ['b', 'a']
    """

    def __init__(self) -> None:
        #: Events ``(at, seq, callback, args)`` and timer entries
        #: ``(deadline, seq, None, timer)`` in one heap.
        self._queue: list[tuple[int, int, Callable[..., None] | None, Any]] = []
        self._sequence = 0
        self._now = 0
        self._events_processed = 0
        self._stopped = False
        self._live_timers = 0
        #: Entries of cancelled timers still in the heap.
        self._dead_entries = 0

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (timer firings included)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events still waiting (calendar + live timers)."""
        return len(self._queue) - self._dead_entries

    @property
    def pending_timers(self) -> int:
        """Number of armed (not cancelled, not fired) timers."""
        return self._live_timers

    def pending_args(self) -> Iterator[tuple]:
        """Argument tuples of every pending event and live timer.

        Yielded in heap order, not firing order; for inspection (the
        conservation oracle counts packets held by pending calls).
        """
        for _at, _seq, callback, args in self._queue:
            if callback is not None:
                yield args
            elif args.alive:
                yield args.args

    def schedule(self, at: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute time ``at``.

        Raises:
            SimulationError: if ``at`` is before the current time.
        """
        if at < self._now:
            raise SimulationError(
                f"cannot schedule event at t={at} before current time t={self._now}"
            )
        heapq.heappush(self._queue, (at, self._sequence, callback, args))
        self._sequence += 1

    def schedule_after(self, delay: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now.

        A non-negative delay from ``now`` can never land in the past,
        so this pushes straight onto the heap without the past-time
        check :meth:`schedule` performs — it is the per-packet hot path
        (every link delivery goes through here).
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        heapq.heappush(self._queue,
                       (self._now + delay, self._sequence, callback, args))
        self._sequence += 1

    # ------------------------------------------------------------------
    # periodic callbacks
    # ------------------------------------------------------------------
    def schedule_periodic(self, period_ns: int, callback: Callable[..., None],
                          *args: Any) -> PeriodicTask:
        """Run ``callback(*args)`` every ``period_ns``, starting one
        period from now.

        Long-horizon observers (streaming metric windows, always-on
        invariant sweeps) use this instead of hand-rolled re-scheduling.
        Returns a :class:`PeriodicTask`; ``cancel()`` stops the cycle —
        including from inside the callback itself.
        """
        if period_ns <= 0:
            raise SimulationError(f"period must be positive, got {period_ns}")
        task = PeriodicTask(period_ns, callback, args)
        self.schedule_after(period_ns, self._fire_periodic, task)
        return task

    def _fire_periodic(self, task: PeriodicTask) -> None:
        if task.cancelled:
            return
        task.fired += 1
        task.callback(*task.args)
        if not task.cancelled:
            self.schedule_after(task.period_ns, self._fire_periodic, task)

    # ------------------------------------------------------------------
    # cancellable timers
    # ------------------------------------------------------------------
    def schedule_timer(self, delay: int, callback: Callable[..., None],
                       *args: Any) -> Timer:
        """Arm a cancellable timer ``delay`` ns from now.

        Returns a :class:`Timer` handle for :meth:`cancel_timer` and
        :meth:`rearm_timer`.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        deadline = self._now + delay
        seq = self._sequence
        timer = Timer(deadline, seq, callback, args)
        heapq.heappush(self._queue, (deadline, seq, None, timer))
        self._sequence = seq + 1
        self._live_timers += 1
        return timer

    def cancel_timer(self, timer: Timer | None) -> None:
        """Disarm ``timer``; a no-op for None, fired or cancelled timers."""
        if timer is not None and timer.alive:
            timer.alive = False
            self._live_timers -= 1
            self._dead_entries += 1

    def rearm_timer(self, timer: Timer | None, delay: int,
                    callback: Callable[..., None], *args: Any) -> Timer:
        """Re-arm ``timer`` to fire ``callback(*args)`` ``delay`` ns from now.

        Fires exactly as ``cancel_timer(timer)`` followed by
        ``schedule_timer(delay, callback, *args)`` would, and returns the
        handle to keep.  When ``timer`` is live and the new deadline is
        not earlier than its current one, the timer is postponed in
        place: it reserves a fresh ``(deadline, seq)`` key and keeps its
        single heap entry, whose older key pops first and re-files it.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        deadline = self._now + delay
        if timer is None or not timer.alive or deadline < timer.deadline:
            self.cancel_timer(timer)
            return self.schedule_timer(delay, callback, *args)
        timer.deadline = deadline
        timer.seq = self._sequence
        self._sequence += 1
        timer.callback = callback
        timer.args = args
        return timer

    def stop(self) -> None:
        """Stop the run loop after the current event finishes."""
        self._stopped = True

    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Run events in time order.

        Args:
            until: stop once the next event is strictly later than this
                time (the clock is left at ``until``).
            max_events: safety valve; stop after this many events.

        Returns:
            The simulation time when the run loop exited.

        Automatic garbage collection is paused while the loop runs (and
        restored on exit): per-event garbage — calendar tuples, expired
        packets — is reference-counted away immediately, so the cyclic
        collector's periodic scans only add latency.  Anything cyclic
        produced during a run is reclaimed by the first collection after
        the loop returns.
        """
        self._stopped = False
        # Bind the loop's hot names to locals: each lookup saved here is
        # saved once per simulated event.
        queue = self._queue
        heappop = heapq.heappop
        heappush = heapq.heappush
        processed = self._events_processed
        processed_limit = None
        if max_events is not None:
            processed_limit = processed + max_events
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while queue and not self._stopped:
                at, seq, callback, args = heappop(queue)
                if until is not None and at > until:
                    heappush(queue, (at, seq, callback, args))
                    self._now = until
                    break
                if callback is not None:
                    self._now = at
                    callback(*args)
                else:
                    # Timer entry: drop it if cancelled, re-file it if
                    # postponed since it was pushed, otherwise fire it.
                    # Neither drop nor re-file counts as an event.
                    timer = args
                    if not timer.alive:
                        self._dead_entries -= 1
                        continue
                    if timer.seq != seq:
                        heappush(queue, (timer.deadline, timer.seq, None, timer))
                        continue
                    timer.alive = False
                    self._live_timers -= 1
                    self._now = at
                    timer.callback(*timer.args)
                processed += 1
                if processed_limit is not None and processed >= processed_limit:
                    break
        finally:
            if gc_was_enabled:
                gc.enable()
        self._events_processed = processed
        if until is not None and self._now < until \
                and len(queue) == self._dead_entries:
            self._now = until
        return self._now
