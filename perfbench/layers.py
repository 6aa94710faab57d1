"""Per-layer metrics of a traced run.

Every workload reports the same metric names; a metric for a call the
workload never makes reads 0.  Times are medians over ops of the span's
calibrated time (see ``calibrate``) per call, or per point for the
``ns_per_point`` metrics; ``.k<k>`` metrics use only the query ops on
measures of k pieces.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

from perfbench import sweep
from perfbench.tracing import MODULES

K = (16, 64, 256)

#: Every span the ops can open; each gets a ``<span>.errors`` count.
SPANS = (
    "bench.op", "spaces.space_from_config", "spaces.parse_point", "intervals.parse_interval",
    "measure.MeasureSpec", "cdf.Cdf", "quantile.PseudoInverse", "sampling.Sampler",
    "sampling.Sampler.draw", "cli.spec_hash", "spaces.format_point", "cdf.eval_F",
    "cdf.eval_F_minus", "quantile.PseudoInverse.try_eval", "cdf.interval_measure",
    "intervals.parse_union", "sampling.indicator", "sampling.indicator_split_levels",
    "sampling.integrate", "oracle.check_proposition_suite", "quantile.bijectivity_report",
    "cdf.measure_uniqueness_check",
)

#: (metric, span, unit, k): median time per call or point.
TIMES = [
    ("sampling.Sampler.draw.ns_per_point", "sampling.Sampler.draw", "ns", None),
    ("spaces.format_point.ns_per_point", "spaces.format_point", "ns", None),
    ("spaces.space_from_config.us", "spaces.space_from_config", "us", None),
    ("measure.MeasureSpec.us", "measure.MeasureSpec", "us", None),
    ("cdf.Cdf.us", "cdf.Cdf", "us", None),
    ("quantile.PseudoInverse.us", "quantile.PseudoInverse", "us", None),
    ("intervals.parse_union.us", "intervals.parse_union", "us", None),
    ("oracle.check_proposition_suite.ms", "oracle.check_proposition_suite", "ms", None),
    ("quantile.bijectivity_report.ms", "quantile.bijectivity_report", "ms", None),
    ("cdf.measure_uniqueness_check.ms", "cdf.measure_uniqueness_check", "ms", None),
] + [
    (f"{span}.{unit}.k{k}", span, unit, k)
    for k in K
    for span, unit in (("measure.MeasureSpec", "ms"), ("cdf.Cdf", "ms"),
                       ("quantile.PseudoInverse", "ms"), ("cdf.eval_F", "us"),
                       ("cdf.eval_F_minus", "us"), ("cdf.interval_measure", "us"),
                       ("quantile.PseudoInverse.try_eval", "us"), ("sampling.integrate", "ms"))
]

#: (metric, op counter, unit, k): median over ops, or the mean over ops without a k.
COUNTS = [(f"quantile.pieces.k{k}", "pieces", "count", k) for k in K] + [
    (f"sampling.integrate.g_calls.k{k}", "g_calls", "count", k) for k in K] + [
    ("oracle.rows_failed", "rows_failed", "rows/op", None),
    ("oracle.rows_completed", "rows_completed", "rows/op", None),
    ("known_defect.ops_ratio", "known_defect", "1", None),
]


#: Every per-layer metric a traced run prints, as (name, unit), in order.
METRICS = (
    [(name, unit) for name, _, unit, _ in TIMES]
    + [(name, unit) for name, _, unit, _ in COUNTS]
    + [(f"{span}.errors", "count") for span in SPANS]
    + [(f"{m}.self_share", "1") for m in MODULES]
    + [("trace.overhead_ratio", "1")]
    + [(f"scale.{span}.k{k}", unit) for k in sweep.SIZES for span, unit in sweep.LAYERS.items()]
    + [("scale.rows_outside_baseline", "count")]
)


def _median(values):
    return statistics.median(values) if values else 0


def per_layer(tracer, info, overhead_ratio, seed):
    """(metrics as {name: (value, unit)}, extra fields for the run record)."""
    per_op = defaultdict(lambda: [0, 0])   # (op, span) -> [ns, calls]
    errors = dict.fromkeys(SPANS, 0)
    for s in tracer.spans:
        acc = per_op[(s.op, s.name)]
        acc[0] += s.ns
        acc[1] += s.n
        errors[s.name] += s.errors
    errors["bench.op"] += sum(row["op_raised"] for row in info)
    metrics = {}
    for name, span, unit, k in TIMES:
        values = [ns * info[op]["scale"] / calls / sweep.TO_NS[unit]
                  for (op, sp), (ns, calls) in per_op.items()
                  if sp == span and calls and (k is None or info[op]["k"] == k)]
        metrics[name] = (_median(values), unit)
    for name, counter, unit, k in COUNTS:
        values = [row[counter] for row in info
                  if row[counter] is not None and (k is None or row["k"] == k)]
        if k is None:
            metrics[name] = (statistics.fmean(values) if values else 0, unit)
        else:
            metrics[name] = (_median(values), unit)
    metrics.update({f"{span}.errors": (n, "count") for span, n in errors.items()})
    shares = tracer.self_shares("bench.op")
    metrics.update({f"{m}.self_share": (shares[m], "1") for m in MODULES})
    metrics["trace.overhead_ratio"] = (overhead_ratio, "1")
    values, outside = sweep.sweep(seed)
    metrics.update({f"scale.{span}.k{k}": (v, sweep.LAYERS[span])
                    for (span, k), v in values.items()})
    metrics["scale.rows_outside_baseline"] = (len(outside), "count")
    return {name: metrics[name] for name, _ in METRICS}, {"scale_outside_baseline": outside}
