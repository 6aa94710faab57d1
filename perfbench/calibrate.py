"""Calibrated time: wall time rescaled by the speed the host shows at that moment.

The host this benchmark was tuned on is shared, and other tenants slowed
it by up to 2x for minutes at a time.  A fixed pure-Python loop slows with
it, so a wall time multiplied by ``K_REF_MS`` over the loop's time right
before and right after it stays put where the wall time does not: it is the
time on a machine where the loop takes ``K_REF_MS``, about that host idle.
"""
from time import perf_counter_ns

K_REF_MS = 1.8


def loop_ms() -> float:
    """Time of a fixed pure-Python loop (dicts, floats, str)."""
    t0 = perf_counter_ns()
    seen, acc = {}, 0.0
    for i in range(8000):
        seen[i % 97] = acc
        acc += (i * 0.5) ** 0.5
        str(i)
    return (perf_counter_ns() - t0) / 1e6


def factor(before_ms: float, after_ms: float) -> float:
    """Wall-to-calibrated multiplier for work timed between two loop timings."""
    return K_REF_MS * 2 / (before_ms + after_ms)
