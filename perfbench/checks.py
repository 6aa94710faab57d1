"""Checks of each op's answers, run outside the timer.

The reference cdf here is computed with NumPy straight from the raw atoms
and segments the inputs were written from; it shares no code with the
closed-form modules.  ``measure_of`` (the package's own geometric oracle)
is the second, slower reference and is applied to a fixed subset of each
op's answers.  A check returns ``(name, detail)`` for each failure.

``known_defect`` probes, next to an op, the one defect the timed inputs
stay clear of (see ``inputs``); what it finds is reported, and does not
fail the op.
"""
from __future__ import annotations

import math
import random
from typing import List, Tuple

import numpy as np

from ordercdf.intervals import NEG_INF, POS_INF, lower_ray
from ordercdf.measure import measure_of
from ordercdf.oracle import check_proposition_suite
from ordercdf.spaces import space_from_config

from perfbench.ops import _cdf
from perfbench.tracing import Tracer

TOL_CDF = 1e-9
TOL_INTEGRAL = 1e-8
DKW_ALPHA = 1e-6
#: Answers per query op also checked against ``measure_of`` (it costs about
#: a millisecond a call at 256 pieces, so all of them would triple the run).
MEASURE_OF_POINTS = 20
MEASURE_OF_INTERVALS = 25

Failure = Tuple[str, object]


class Reference:
    """cdf of one measure from its raw description, on (outer, inner) keys.

    Every point maps to a key pair: the outer label's index and the inner
    value for lex spaces; 0 and the label index, integer or float otherwise.
    """

    def __init__(self, item):
        space = item.config["space"]
        self.kind = item.kind
        if self.kind == "lex":
            self.outer = {o: i for i, o in enumerate(space["outer"])}
            self.fibers = [space["fibers"][o] for o in space["outer"]]
        elif self.kind == "finite":
            self.index = {lab: i for i, lab in enumerate(space["labels"])}
        else:
            self.fibers = [space]
        if self.kind != "finite":
            self.fib_lo, self.fib_hi = (np.array([f[b] for f in self.fibers], dtype=float)
                                        for b in ("lo", "hi"))
            self.fib_inc_lo, self.fib_inc_hi = (
                np.array([f.get(b, True) for f in self.fibers], dtype=bool)
                for b in ("include_lo", "include_hi"))
        a = [(*self.raw_key(p), m) for p, m in item.atoms]
        s = [(*self.raw_key(lo), self.raw_key(hi)[1], m) for lo, hi, _, _, m in item.segments]
        self.ao, self.at, self.am = (np.array(c, dtype=float) for c in zip(*a)) \
            if a else (np.zeros(0),) * 3
        self.so, self.su, self.sv, self.sm = (np.array(c, dtype=float) for c in zip(*s)) \
            if s else (np.zeros(0),) * 4
        self.total = math.fsum([m for _, m in item.atoms] + [seg[4] for seg in item.segments])

    def raw_key(self, p):
        """(outer, inner) of a point or of an excluded boundary value."""
        if self.kind == "finite":
            return 0, self.index[p]
        if self.kind == "lex":
            return self.outer[p[0]], p[1]
        return 0, p

    def keys(self, points):
        """Key arrays of the points and a mask of those that are points of the space."""
        n = len(points)
        if self.kind == "finite":
            t = np.array([self.index.get(p, -1) if isinstance(p, str) else -1 for p in points],
                         dtype=float)
            return np.zeros(n), t, t >= 0
        if self.kind == "lex":
            shaped = [isinstance(p, tuple) and len(p) == 2 and p[0] in self.outer for p in points]
            o = np.array([self.outer[p[0]] if ok else 0 for p, ok in zip(points, shaped)],
                         dtype=int)
            inner = [p[1] if ok else None for p, ok in zip(points, shaped)]
        else:
            o = np.zeros(n, dtype=int)
            inner = points
        if self.kind == "int_range":
            typed = [isinstance(x, int) and not isinstance(x, bool) for x in inner]
        else:
            typed = [isinstance(x, float) for x in inner]
        t = np.array([x if ok else 0.0 for x, ok in zip(inner, typed)], dtype=float)
        lo, hi = self.fib_lo[o], self.fib_hi[o]
        ok = (np.array(typed, dtype=bool) & (t >= lo) & (t <= hi)
              & ((t != lo) | self.fib_inc_lo[o]) & ((t != hi) | self.fib_inc_hi[o]))
        return o.astype(float), t, ok

    def cdf(self, o, t, strict=False):
        """F (or F_minus when strict) at the keys."""
        o, t = o[:, None], t[:, None]
        at_or_below = (self.at < t) if strict else (self.at <= t)
        atoms = ((self.ao < o) | ((self.ao == o) & at_or_below)) @ self.am
        same = self.so == o
        whole = (self.so < o) | (same & (t >= self.sv))
        part = same & (t > self.su) & (t < self.sv)
        density = self.sm / (self.sv - self.su) if len(self.sm) else self.sm
        inside = np.where(part, (t - self.su) * density, 0.0).sum(axis=1)
        return atoms + whole @ self.sm + inside

    def interval_mass(self, lo, hi, lo_closed, hi_closed):
        def at(p, strict):
            o, t = self.raw_key(p)
            return self.cdf(np.array([o], dtype=float), np.array([t], dtype=float), strict)[0]
        lo_term = 0.0 if lo is NEG_INF else at(lo, strict=lo_closed)
        hi_term = self.total if hi is POS_INF else at(hi, strict=not hi_closed)
        return max(hi_term - lo_term, 0.0)


def dkw_band(n: int, alpha: float = DKW_ALPHA) -> float:
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def ks_distance(ref: Reference, o, t) -> float:
    """sup |F_n - F| for a sample given as key arrays; exact, ties included."""
    n = len(t)
    order = np.lexsort((t, o))
    o, t = o[order], t[order]
    new = np.ones(n, dtype=bool)
    new[1:] = (o[1:] != o[:-1]) | (t[1:] != t[:-1])
    starts = np.flatnonzero(new)
    uo, ut = o[starts], t[starts]
    below = starts / n                                  # F_n just left of each value
    upto = np.append(starts[1:], n) / n                 # F_n at each value
    return float(max(np.abs(upto - ref.cdf(uo, ut)).max(),
                     np.abs(below - ref.cdf(uo, ut, strict=True)).max()))


def _close(a, b, tol) -> bool:
    return a is not None and abs(a - b) <= tol


# ---------------------------------------------------------------------------
# per workload


def check_sample(item, out, ref) -> List[Failure]:
    points = out["points"]
    o, t, ok = ref.keys(points)
    if not ok.all():
        bad = int(np.flatnonzero(~ok)[0])
        return [("draw inside the space", {"index": bad, "draw": repr(points[bad])})]
    ks = ks_distance(ref, o, t)
    band = dkw_band(len(points))
    if ks > band:
        return [("KS distance inside the DKW band", {"ks": ks, "band": band})]
    return []


def _first(mask):
    return int(np.flatnonzero(mask)[0])


def _check_cdf(item, out, ref, failures):
    o, t, _ = ref.keys(item.points)
    for name, strict in (("F", False), ("F_minus", True)):
        got = np.array([np.nan if v is None else v for v in out[name]])
        want = ref.cdf(o, t, strict)
        bad = ~(np.abs(got - want) <= TOL_CDF)
        if bad.any():
            j = _first(bad)
            failures.append((f"{name} vs reference", {
                "x": repr(item.points[j]), "got": out[name][j], "want": float(want[j])}))
        step = max(1, len(item.points) // MEASURE_OF_POINTS)
        for j in range(0, len(item.points), step):
            want = measure_of(out["spec"], lower_ray(item.points[j], closed=not strict))
            if not _close(out[name][j], want, TOL_CDF):
                failures.append((f"{name} vs measure_of", {
                    "x": repr(item.points[j]), "got": out[name][j], "want": want}))
                break


def _check_galois(item, out, ref, levels, G, raised, failures, name="Galois adjunction"):
    """G(r) <= x iff r <= F(x), exactly, for every level against every
    evaluation point; ``raised`` is the number of levels where G raised."""
    defined = [j for j, g in enumerate(G) if g is not None]
    if len(G) - len(defined) > raised:
        failures.append(("G defined on a complete space",
                         {"levels": len(G) - len(defined) - raised}))
    go, gt, gok = ref.keys([G[j] for j in defined])
    if not gok.all():
        j = defined[_first(~gok)]
        failures.append(("G(r) inside the space", {"r": levels[j], "G": repr(G[j])}))
    xs = [j for j, v in enumerate(out["F"]) if v is not None]
    xo, xt, _ = ref.keys([item.points[j] for j in xs])
    r = np.array([levels[j] for j in defined])[:, None]
    fx = np.array([out["F"][j] for j in xs])[None, :]
    left = (go[:, None] < xo) | ((go[:, None] == xo) & (gt[:, None] <= xt))
    bad = left != (r <= fx)
    if bad.any():
        a, b = np.unravel_index(np.flatnonzero(bad)[0], bad.shape)
        failures.append((name, {
            "violations": int(bad.sum()), "r": levels[defined[a]], "G": repr(G[defined[a]]),
            "x": repr(item.points[xs[b]]), "F(x)": out["F"][xs[b]]}))


def _check_intervals(item, out, ref, failures):
    for j, iv in enumerate(item.intervals):
        want = ref.interval_mass(iv.lo, iv.hi, iv.lo_closed, iv.hi_closed)
        if not _close(out["interval_mass"][j], want, TOL_CDF):
            failures.append(("interval_measure vs reference", {
                "interval": repr(iv), "got": out["interval_mass"][j], "want": want}))
            break
    step = max(1, len(item.intervals) // MEASURE_OF_INTERVALS)
    for j in range(0, len(item.intervals), step):
        want = measure_of(out["spec"], item.intervals[j])
        if not _close(out["interval_mass"][j], want, TOL_CDF):
            failures.append(("interval_measure vs measure_of", {
                "interval": repr(item.intervals[j]), "got": out["interval_mass"][j],
                "want": want}))
            break
    want = math.fsum(ref.interval_mass(*iv) for iv in item.union_raw)
    if not _close(out["union_mass"], want, TOL_CDF):
        failures.append(("union mass vs reference", {
            "union": item.union_text, "got": out["union_mass"], "want": want}))
    elif not _close(out["union_mass"], measure_of(out["spec"], out["union"]), TOL_CDF):
        failures.append(("union mass vs measure_of", {"union": item.union_text}))
    return want


def exact_integral(item, union_mass) -> float:
    """The integral in closed form from the atoms and segments themselves."""
    if item.integrand == "indicator":
        return union_mass
    if item.integrand == "identity":
        return math.fsum([m * p for p, m in item.atoms]
                         + [m * (u + v) / 2 for u, v, _, _, m in item.segments])
    return math.fsum([m * p * p for p, m in item.atoms]
                     + [m * (u * u + u * v + v * v) / 3 for u, v, _, _, m in item.segments])


def check_query(item, out, ref) -> List[Failure]:
    failures: List[Failure] = []
    _check_cdf(item, out, ref, failures)
    raised = sum(1 for call, _, _ in out["errors"] if call == "quantile.PseudoInverse.try_eval")
    _check_galois(item, out, ref, item.levels, out["G"], raised, failures)
    union_mass = _check_intervals(item, out, ref, failures)
    want = exact_integral(item, union_mass)
    if not _close(out["integral"], want, TOL_INTEGRAL * max(1.0, abs(want))):
        failures.append(("integrate vs exact", {
            "integrand": item.integrand, "got": out["integral"], "want": want}))
    return failures


def check_verify(item, out, ref) -> List[Failure]:
    failures = [(f"suite: {row['proposition']}", repr(row["witness"]))
                for row in out["rows"] if row["status"] == "fail"]
    if not out["uniqueness"]:
        failures.append(("split measure is the same measure", out["uniqueness"].reason))
    return failures


CHECKS = {"sample": check_sample, "query": check_query, "verify": check_verify}


# ---------------------------------------------------------------------------
# the known defect, probed outside the timed ops


def _query_defect(item, out, ref) -> List[Failure]:
    """The op's G at its breakpoint levels F(a) and F_minus(a): where ROADMAP
    item 2 says F and G disagree in the last bits."""
    nb = item.n_breakpoints
    levels = list(dict.fromkeys(r for r in out["F"][:nb] + out["F_minus"][:nb]
                                if r is not None))
    G, raised = [], []
    for r in levels:
        try:
            G.append(out["gi"].try_eval(r))
        except Exception as exc:
            G.append(None)
            raised.append({"r": r, "exception": repr(exc)})
    found = [("G raised at a breakpoint level", dict(raised[0], count=len(raised)))] \
        if raised else []
    _check_galois(item, out, ref, levels, G, len(raised), found,
                  name="Galois adjunction at breakpoint levels")
    return found


def _verify_defect(item) -> List[Failure]:
    """The proposition suite on the probe measure (atoms inside segments,
    masses summed in floating point)."""
    probe = item.probe
    try:
        cdf = _cdf(space_from_config(probe.config["space"]), probe.config, Tracer())
        rows = check_proposition_suite(cdf, random.Random(0), instance=probe.name)
    except Exception as exc:
        return [("probe suite raised", {"exception": repr(exc)})]
    return [(f"probe suite: {row['proposition']}", repr(row["witness"]))
            for row in rows if row["status"] == "fail"]


def known_defect(workload, item, out, ref) -> List[Failure]:
    """Instances of ROADMAP item 2's defect next to one op; they are reported
    beside the op's result and never fail it."""
    if workload == "query" and "gi" in out and not out["errors"]:
        return _query_defect(item, out, ref)
    if workload == "verify" and item.probe is not None:
        return _verify_defect(item)
    return []


def check(workload, item, out, ref=None) -> List[Failure]:
    """Failures of one op: each call that raised (once per call, with a count),
    then each wrong answer."""
    raised = {}
    for call, arg, exc in out["errors"]:
        first = raised.setdefault(call, {"count": 0, "arg": repr(arg), "exception": repr(exc)})
        first["count"] += 1
    failures = [(f"{call} raised", detail) for call, detail in raised.items()]
    if "op" in raised:
        return failures
    return failures + CHECKS[workload](item, out, ref if ref is not None else Reference(item))
