"""Fixture: T201-clean — scheduler arguments stay integral."""


def usec(value):
    return value * 1_000


def kick(engine, handler, timer, total, hops):
    engine.schedule(usec(2), handler)
    engine.schedule_after(total // hops, handler)
    engine.schedule_timer(delay=round(total * 0.5), callback=handler)
    engine.rearm_timer(timer, total // hops, handler)
