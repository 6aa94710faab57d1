"""The timed operations: one per workload, each CLI-shaped.

Every op calls the package's public functions in the order the CLI does,
starting from a config dict.  An op writes its answers into ``out``; a call
that raises is recorded in ``out["errors"]`` and, where later calls do not
need its answer, the op carries on so a failure still does the full work.
Nothing here checks an answer; that happens in ``checks`` outside the timer.
"""
from __future__ import annotations

import json
import random

from ordercdf.cdf import Cdf, measure_uniqueness_check
from ordercdf.cli import RunConfig, spec_hash
from ordercdf.intervals import parse_interval, parse_union
from ordercdf.measure import MeasureSpec
from ordercdf.oracle import check_proposition_suite
from ordercdf.quantile import PseudoInverse, bijectivity_report
from ordercdf.sampling import (
    RNG_ID, QuadratureSpec, Sampler, indicator, indicator_split_levels, integrate,
)
from ordercdf.spaces import space_from_config

SAMPLE_N = 20_000
UNIQUENESS_PROBES = 1000


def _space(config, tr):
    with tr.span("spaces.space_from_config"):
        return space_from_config(config["space"])


def _cdf(space, config, tr):
    """What the CLI's config loader and subcommands do: parse, validate, build F."""
    block = config["measure"]
    with tr.span("spaces.parse_point", len(block["atoms"])):
        atoms = [(space.parse_point(a["at"]), a["mass"]) for a in block["atoms"]]
    with tr.span("intervals.parse_interval", len(block["segments"])):
        segments = [(parse_interval(space, s["interval"]), s["mass"]) for s in block["segments"]]
    with tr.span("measure.MeasureSpec"):
        spec = MeasureSpec(space, atoms=atoms, segments=segments)
    with tr.span("cdf.Cdf"):
        return Cdf(space, spec)


def _pseudo_inverse(cdf, tr):
    with tr.span("quantile.PseudoInverse"):
        return PseudoInverse(cdf)


def _each(tr, name, fn, args, errors):
    """fn over args under one span; a raise leaves None and the loop goes on."""
    results = []
    with tr.span(name, len(args)) as sp:
        for a in args:
            try:
                results.append(fn(a))
            except Exception as exc:
                results.append(None)
                errors.append((name, a, exc))
                sp.errors += 1
    return results


def sample_op(item, op_seed, tr, out, n=SAMPLE_N):
    """``ordercdf sample --n <n> --seed <op_seed>``: draw, then print."""
    space = _space(item.config, tr)
    cdf = _cdf(space, item.config, tr)
    gi = _pseudo_inverse(cdf, tr)
    with tr.span("sampling.Sampler"):
        sampler = Sampler(gi, op_seed)
    with tr.span("sampling.Sampler.draw", n):
        out["points"] = points = sampler.draw(n)
    with tr.span("cli.spec_hash"):
        digest = spec_hash(RunConfig(space, cdf.spec, op_seed))
    lines = [json.dumps({"seed": op_seed, "rng": RNG_ID, "n": n, "spec_hash": digest},
                        sort_keys=True)]
    with tr.span("spaces.format_point", n):
        fmt = space.format_point
        lines += [fmt(p) for p in points]
    out["text"] = "\n".join(lines) + "\n"


def _integrand(space, gi, name, union, tr):
    """The CLI's ``--expr identity | square | indicator:<union>``."""
    if name == "identity":
        return (lambda x: float(x)), ()
    if name == "square":
        return (lambda x: float(x) ** 2), ()
    with tr.span("sampling.indicator"):
        g = indicator(space, union)
    with tr.span("sampling.indicator_split_levels"):
        return g, indicator_split_levels(gi, union)


def query_op(item, op_seed, tr, out):
    """Evaluation requests on one measure: F, F_minus, G, interval masses, an integral."""
    errors = out["errors"]
    space = _space(item.config, tr)
    cdf = _cdf(space, item.config, tr)
    out["spec"] = cdf.spec
    gi = _pseudo_inverse(cdf, tr)
    out["pieces"] = len(gi.pieces)
    out["F"] = _each(tr, "cdf.eval_F", cdf.eval_F, item.points, errors)
    out["F_minus"] = _each(tr, "cdf.eval_F_minus", cdf.eval_F_minus, item.points, errors)
    out["gi"] = gi
    out["G"] = _each(tr, "quantile.PseudoInverse.try_eval", gi.try_eval, item.levels, errors)
    out["interval_mass"] = _each(tr, "cdf.interval_measure", cdf.interval_measure,
                                 item.intervals, errors)
    with tr.span("intervals.parse_union"):
        union = parse_union(space, item.union_text)
    masses = _each(tr, "cdf.interval_measure", cdf.interval_measure, union.intervals, errors)
    out["union"] = union
    out["union_mass"] = sum(m for m in masses if m is not None)
    g, splits = _integrand(space, gi, item.integrand, union, tr)
    calls = [0]
    if tr.enabled:
        plain = g

        def g(x):
            calls[0] += 1
            return plain(x)
    with tr.span("sampling.integrate"):
        out["integral"] = integrate(gi, g, QuadratureSpec(split_at=splits))
    out["g_calls"] = calls[0]


def _suite_rows_so_far(exc):
    """Rows a proposition suite had completed when it raised."""
    tb = exc.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code is check_proposition_suite.__code__:
            return list(tb.tb_frame.f_locals.get("results", ()))
        tb = tb.tb_next
    return []


def verify_op(item, op_seed, tr, out):
    """``ordercdf verify`` and ``report --bijectivity``, then a uniqueness check
    against the same measure written with every segment split in two."""
    errors = out["errors"]
    space = _space(item.config, tr)
    cdf = _cdf(space, item.config, tr)
    resplit = _cdf(space, item.resplit, tr)
    with tr.span("oracle.check_proposition_suite") as sp:
        try:
            out["rows"] = check_proposition_suite(cdf, random.Random(0), instance=item.name)
        except Exception as exc:
            out["rows"] = _suite_rows_so_far(exc)
            errors.append(("oracle.check_proposition_suite", item.name, exc))
            sp.errors += 1
    try:
        gi = _pseudo_inverse(cdf, tr)
        with tr.span("quantile.bijectivity_report"):
            out["bijectivity"] = bijectivity_report(gi)
    except Exception as exc:
        errors.append(("quantile.bijectivity_report", item.name, exc))
    with tr.span("cdf.measure_uniqueness_check"):
        out["uniqueness"] = measure_uniqueness_check(cdf, resplit, n_random=UNIQUENESS_PROBES)


OPS = {"sample": sample_op, "query": query_op, "verify": verify_op}


def run_op(workload, item, op_seed, tr):
    """One op; whatever it raises is recorded, never propagated."""
    out = {"errors": []}
    try:
        OPS[workload](item, op_seed, tr, out)
    except Exception as exc:
        out["errors"].append(("op", item.name, exc))
    return out
