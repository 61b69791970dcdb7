"""Date-guard fixture: clock reads that meet a literal date.

Every line the guard must report ends in ``# flagged``; the other
lines are near misses it must leave alone.
"""
import time
from datetime import date, datetime
from time import time as now


def expired():
    return date.today() > date(2026, 10, 17)  # flagged


def age_days():
    return (datetime.now() - datetime(2026, 1, 1)).days  # flagged


def stale_string():
    return datetime.utcnow().isoformat() >= "2026-10-17T00:00"  # flagged


def stale_alias():
    return now() > datetime(2026, 1, 1).timestamp()  # flagged


def separate_checks(deadline=date(2026, 1, 1)):
    return now() < 1_800_000_000 and deadline == date(2026, 1, 1)


def elapsed(started):
    return time.perf_counter() - started


def literal_only():
    return date(2026, 10, 17) - date(2026, 1, 1)
