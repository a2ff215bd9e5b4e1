"""Fixture: T201 — float expressions flowing into the scheduler."""


def kick(engine, handler, timer, total, hops):
    engine.schedule(1.5, handler)
    engine.schedule_after(total / hops, handler)
    engine.schedule_timer(delay=0.25 * total, callback=handler)
    engine.rearm_timer(timer, total / hops, handler)
