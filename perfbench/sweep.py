"""Scaling sweep of single layers at k in {10, 100, 1000} (traced runs only).

Each k builds a measure of k atoms plus k segments on [0, 1], the
convention of the ROADMAP baseline table, then times one layer at a time.
Every value is a calibrated time (see ``calibrate``), the median of a few
repetitions.
"""
from __future__ import annotations

import random
import statistics
from time import perf_counter_ns

from ordercdf.cdf import Cdf
from ordercdf.intervals import Interval
from ordercdf.measure import MeasureSpec
from ordercdf.quantile import PseudoInverse
from ordercdf.sampling import Sampler, empirical_F, integrate
from ordercdf.spaces import RealIntervalSpace

from perfbench.calibrate import factor, loop_ms
from perfbench.inputs import random_layout, random_masses

SIZES = (10, 100, 1000)
#: (span, unit): what each ``scale.<span>.k<k>`` metric times.
LAYERS = {
    "measure.MeasureSpec": "ms",
    "cdf.Cdf": "ms",
    "quantile.PseudoInverse": "ms",
    "cdf.eval_F": "us",
    "quantile.PseudoInverse.eval": "us",
    "sampling.Sampler.draw": "ms",
    "sampling.integrate": "ms",
    "sampling.empirical_F": "ms",
}
TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6}
#: ROADMAP baseline table (k = 10 and 100; it has no k = 1000 column) and its
#: one row without a k, empirical_F at one point over 1e5 samples.
BASELINE = {
    ("measure.MeasureSpec", 10): 0.6, ("measure.MeasureSpec", 100): 41.0,
    ("cdf.Cdf", 10): 0.09, ("cdf.Cdf", 100): 2.9,
    ("cdf.eval_F", 10): 3.7, ("cdf.eval_F", 100): 28.0,
    ("quantile.PseudoInverse.eval", 10): 1.1, ("quantile.PseudoInverse.eval", 100): 1.3,
    ("sampling.integrate", 10): 9.0, ("sampling.integrate", 100): 98.0,
    ("sampling.Sampler.draw", 10): 12.0, ("sampling.Sampler.draw", 100): 13.0,
    **{("sampling.empirical_F", k): 7.0 for k in SIZES},
}
BASELINE_SPREAD = 0.30
DRAWS = 10_000
EMPIRICAL_SAMPLE = 100_000
F_CALLS = 200
G_CALLS = 1000


def _reps(k: int) -> int:
    return 3 if k >= 1000 else 5


def _timed(times, span, fn, calls=1):
    """fn(), with its calibrated time per call appended to times[span]."""
    k0 = loop_ms()
    t0 = perf_counter_ns()
    value = fn()
    ns = perf_counter_ns() - t0
    times[span].append(ns * factor(k0, loop_ms()) / calls)
    return value


def sweep(seed: int):
    """{(span, k): median time in the layer's unit} and the baseline rows outside ±30 %."""
    rng = random.Random(seed)
    space = RealIntervalSpace(0.0, 1.0)
    values = {}
    for k in SIZES:
        atom_points, seg_points = random_layout(rng, "real_interval", 2 * k)
        masses = random_masses(rng, 2 * k)
        atoms = list(zip(atom_points, masses))
        segments = [(Interval(lo, hi, True, True), m)
                    for (lo, hi), m in zip(seg_points, masses[k:])]
        xs = [rng.random() for _ in range(F_CALLS)]
        rs = [rng.random() for _ in range(G_CALLS)]
        times = {span: [] for span in LAYERS}
        sample = None
        for rep in range(_reps(k)):
            spec = _timed(times, "measure.MeasureSpec", lambda: MeasureSpec(space, atoms, segments))
            cdf = _timed(times, "cdf.Cdf", lambda: Cdf(space, spec))
            gi = _timed(times, "quantile.PseudoInverse", lambda: PseudoInverse(cdf))
            _timed(times, "cdf.eval_F", lambda: [cdf.eval_F(x) for x in xs], F_CALLS)
            _timed(times, "quantile.PseudoInverse.eval", lambda: [gi.eval(r) for r in rs], G_CALLS)
            sampler = Sampler(gi, seed + rep)
            _timed(times, "sampling.Sampler.draw", lambda: sampler.draw(DRAWS))
            _timed(times, "sampling.integrate", lambda: integrate(gi, float))
            if sample is None:
                sample = Sampler(gi, seed).draw(EMPIRICAL_SAMPLE)
            _timed(times, "sampling.empirical_F", lambda: empirical_F(space, sample, 0.5))
        for span, ns in times.items():
            values[(span, k)] = statistics.median(ns) / TO_NS[LAYERS[span]]
    outside = [{"span": span, "k": k, "unit": LAYERS[span], "measured": values[(span, k)],
                "baseline": base}
               for (span, k), base in BASELINE.items()
               if abs(values[(span, k)] / base - 1.0) > BASELINE_SPREAD]
    return values, outside
