"""Brute-force counterparts of the closed-form operations.

Everything here is deliberately dumb: subset-sum tables over finite
spaces, definitional grid scans for the pseudo-inverse, and a proposition
suite that re-checks the structural identities by direct evaluation.
The closed-form modules are only trusted to the extent they agree with
these.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from .errors import DomainError, PropositionViolation
from .intervals import (
    Interval, IntervalUnion, random_interval, random_interval_union,
)
from .measure import MeasureSpec, atom_set, measure_of
from .spaces import EQUAL, GREATER, LESS, FiniteSpace

#: Power-set enumeration refuses larger universes (2^8 = 256 subsets).
SIZE_CAP = 8


# ---------------------------------------------------------------------------
# random generators for property tests


def random_atomic_spec(space, rng: random.Random) -> MeasureSpec:
    """A random purely atomic measure on a finite chain."""
    if not isinstance(space, FiniteSpace):
        raise DomainError("atomic spec generator expects a finite chain")
    k = rng.randint(1, len(space.labels))
    points = sorted(rng.sample(range(len(space.labels)), k))
    weights = [rng.random() + 0.05 for _ in points]
    total = sum(weights)
    masses = [w / total for w in weights]
    masses[-1] = 1.0 - sum(masses[:-1])  # pin the float sum to exactly 1
    return MeasureSpec(space, atoms=[(space.labels[i], m)
                                     for i, m in zip(points, masses)])


# ---------------------------------------------------------------------------
# exhaustive finite verification


@dataclass(frozen=True)
class FiniteCase:
    """A finite chain with an atomic measure, small enough to enumerate."""

    space: FiniteSpace
    spec: MeasureSpec

    def __post_init__(self):
        if len(self.space.labels) > SIZE_CAP:
            raise DomainError(
                f"finite case has {len(self.space.labels)} points, cap is {SIZE_CAP}")
        if self.spec.segments:
            raise DomainError("finite cases must be purely atomic")


def enumerate_subset_measures(case: FiniteCase) -> List[Tuple[Tuple[object, ...], float]]:
    """All 2^|X| subsets with their subset-sum measures, checked additive."""
    labels = case.space.labels
    masses = [case.spec.atom_mass_at(lab) for lab in labels]
    table = []
    for bits in range(1 << len(labels)):
        subset = tuple(lab for i, lab in enumerate(labels) if bits >> i & 1)
        mu = math.fsum(m for i, m in enumerate(masses) if bits >> i & 1)
        table.append((subset, mu))
    # sanity on the table itself: complements are additive, full mass is 1
    for (s, m) in table:
        comp = math.fsum(masses) - m
        if abs(m + comp - 1.0) > 1e-9:
            raise PropositionViolation(f"subset table not additive at {s!r}")
    return table


# ---------------------------------------------------------------------------
# definitional grid inversion


def grid_invert(cdf, r: float, resolution: float = 1e-6):
    """Smallest grid point y with F(y) >= r, by monotone bisection.

    Purely definitional: it never looks at the piece table.
    """
    if resolution < 1e-9:
        raise DomainError("grid resolution below 1e-9 is not supported")
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"quantile level {r!r} outside [0, 1]")
    space = cdf.space

    if not space.segments_allowed:
        for x in space.dense_points():
            if cdf.eval_F(x) >= r:
                return x
        raise DomainError("super-level set empty at grid scale")

    for region in space.regions:
        fib = space.fiber(region)

        def grid_point(i: int):
            y = min(fib.lo + i * resolution, fib.hi)
            if not fib.contains(y):
                # excluded boundary: step just inside
                y = math.nextafter(y, (fib.lo + fib.hi) / 2)
            return space.join(region, y)

        lo_i, hi_i = 0, int(math.ceil((fib.hi - fib.lo) / resolution))
        if cdf.eval_F(grid_point(hi_i)) < r:
            continue
        while lo_i < hi_i:
            mid = (lo_i + hi_i) // 2
            if cdf.eval_F(grid_point(mid)) >= r:
                hi_i = mid
            else:
                lo_i = mid + 1
        return grid_point(lo_i)
    raise DomainError("super-level set empty at grid scale")


# ---------------------------------------------------------------------------
# proposition suite


def _probe_points(space, rng, n):
    import itertools
    pts = list(itertools.islice(space.dense_points(), min(n, 32)))
    pts += [space.random_point(rng) for _ in range(n)]
    return pts


def check_proposition_suite(cdf, rng: Optional[random.Random] = None,
                            instance: str = "unnamed", gi=None,
                            n_probes: int = 100) -> List[dict]:
    """Re-derive the structural identities by direct evaluation.

    Works on anything with eval_F/eval_F_minus/space/spec, so corrupted
    test doubles land here too; checks that need the pseudo-inverse are
    skipped when it cannot be built.
    """
    rng = rng or random.Random(0)
    space = cdf.space
    results: List[dict] = []

    def record(name, status, witness=None):
        results.append({"proposition": name, "instance": instance,
                        "status": status, "witness": witness})

    points = _probe_points(space, rng, n_probes)

    # F is monotone and lands in [0, 1]
    witness = None
    for _ in range(n_probes):
        x, y = space.random_point(rng), space.random_point(rng)
        if space._cmp(x, y) == GREATER:
            x, y = y, x
        fx, fy = cdf.eval_F(x), cdf.eval_F(y)
        if fx > fy + 1e-12 or not (-1e-12 <= fx <= 1 + 1e-12):
            witness = {"x": x, "y": y, "F(x)": fx, "F(y)": fy}
            break
    record("F monotone into [0,1]", "fail" if witness else "pass", witness)

    # jump identity: F = F_minus + atom mass, jumps never negative
    witness = None
    for x in points:
        jump = cdf.eval_F(x) - cdf.eval_F_minus(x)
        if jump < -1e-12 or abs(jump - cdf.spec.atom_mass_at(x)) > 1e-12:
            witness = {"x": x, "jump": jump, "atom_mass": cdf.spec.atom_mass_at(x)}
            break
    record("F(x) = F_minus(x) + atom mass at x", "fail" if witness else "pass", witness)

    # four interval formulas vs geometric measure
    witness = None
    for _ in range(n_probes):
        iv = random_interval(space, rng)
        try:
            closed_form = cdf.interval_measure(iv)
        except AttributeError:
            witness = "skip"
            break
        geometric = measure_of(cdf.spec, IntervalUnion(space, (iv,)))
        if abs(closed_form - geometric) > 1e-9:
            witness = {"interval": iv, "closed_form": closed_form,
                       "geometric": geometric}
            break
    if witness == "skip":
        record("interval mass via closure-flag formulas", "skipped", None)
    else:
        record("interval mass via closure-flag formulas",
               "fail" if witness else "pass", witness)

    # one-sided limits: sup F(<x) = F_minus(x), inf F_minus(>x) = F(x)
    if hasattr(cdf, "sup_F_below"):
        witness = None
        mn, mx = space.minimum(), space.maximum()
        for x in points[:40]:
            try:
                if mn is None or space._cmp(x, mn) != EQUAL:
                    cdf.sup_F_below(x)
                if mx is None or space._cmp(x, mx) != EQUAL:
                    cdf.inf_Fminus_above(x)
            except PropositionViolation as exc:
                witness = {"x": x, "error": str(exc)}
                break
        record("one-sided limits of F match F_minus and F",
               "fail" if witness else "pass", witness)

    if gi is None:
        try:
            from .quantile import PseudoInverse
            gi = PseudoInverse(cdf)
        except Exception:
            gi = None
    if gi is None:
        record("pseudo-inverse checks", "skipped", None)
        return results

    # grid inversion agrees with the piece table
    witness = None
    for _ in range(40):
        r = rng.random()
        point = gi.try_eval(r)
        if point is None:
            continue
        ref = grid_invert(cdf, r, 1e-6)
        if not space.close(point, ref, 2e-6):
            witness = {"r": r, "closed_form": point, "grid": ref}
            break
    record("G agrees with the definitional grid scan",
           "fail" if witness else "pass", witness)

    # Galois adjunction and the sandwich
    witness = None
    for _ in range(n_probes):
        r, x = rng.random(), space.random_point(rng)
        try:
            gi.galois_check(r, x)
        except PropositionViolation as exc:
            witness = {"r": r, "x": x, "error": str(exc)}
            break
    record("G(r) <= x iff r <= F(x)", "fail" if witness else "pass", witness)

    witness = None
    for _ in range(n_probes):
        r = rng.random()
        if not gi.is_defined(r):
            continue
        try:
            gi.sandwich_check(r)
        except PropositionViolation as exc:
            witness = {"r": r, "error": str(exc)}
            break
    record("F_minus(G(r)) <= r <= F(G(r))", "fail" if witness else "pass", witness)

    # plateau: every level in ]F_minus(x), F(x)] maps back to x
    witness = None
    for at, mass in atom_set(cdf.spec):
        plat = gi.plateau_of(at)
        for frac in (0.25, 0.75, 1.0):
            r = plat.lo + frac * (plat.hi - plat.lo)
            point = gi.try_eval(r)
            if point is None or space._cmp(point, at) != EQUAL:
                witness = {"atom": at, "r": r, "G(r)": point}
                break
        if witness:
            break
    record("atom plateaus map back to the atom", "fail" if witness else "pass", witness)

    # preimage of open intervals: level set length equals interval mass
    witness = None
    for _ in range(40):
        a, b = space.random_point(rng), space.random_point(rng)
        c = space._cmp(a, b)
        if c == EQUAL:
            continue
        if c == GREATER:
            a, b = b, a
        pre = gi.preimage_open_interval(a, b)
        target = measure_of(cdf.spec, Interval(a, b, False, False))
        if abs(pre.length - target) > 1e-9:
            witness = {"a": a, "b": b, "preimage": pre, "mass": target}
            break
        # every sampled level inside the preimage must land in ]a,b[
        for frac in (0.1, 0.5, 0.9):
            r = pre.lo + frac * (pre.hi - pre.lo)
            if pre.is_empty or not pre.contains(r):
                continue
            point = gi.try_eval(r)
            if point is not None and not (
                    space._cmp(a, point) == LESS and space._cmp(point, b) == LESS):
                witness = {"a": a, "b": b, "r": r, "G(r)": point}
                break
        if witness:
            break
    record("G-preimage of open intervals", "fail" if witness else "pass", witness)

    # pushforward on complete spaces
    if space.complete and hasattr(cdf, "interval_measure"):
        from .sampling import pushforward_check
        witness = None
        for _ in range(40):
            u = random_interval_union(space, rng)
            geo, quant = pushforward_check(gi, u)
            if abs(geo - quant) > 1e-9:
                witness = {"union": repr(u), "geometric": geo, "quantile": quant}
                break
        record("pushforward of length through G", "fail" if witness else "pass", witness)

    return results


def suite_passed(results: Iterable[dict]) -> bool:
    return all(row["status"] != "fail" for row in results)
