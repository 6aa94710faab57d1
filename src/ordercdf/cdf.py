"""The cumulative distribution function F and its left companion.

``F(x)`` is the mass of the closed lower ray at x and ``F_minus(x)`` the
mass of the open one; the gap between them is exactly the atom mass at x.
Interval masses come from the four closure-flag formulas, with the
conventions F(-inf) = 0 and F(+inf) = F_minus(+inf) = 1 so that extended
endpoints from the algebra are usable directly.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import DomainError, PropositionViolation
from .intervals import (
    NEG_INF, POS_INF, Interval, ext_cmp, is_infinite, lower_ray,
    random_interval_union, singleton,
)
from .measure import MeasureSpec, atom_set, measure_of
from .spaces import LESS, EQUAL, GREATER, OrderedSpace

#: h-ladder used by the continuity scans.
H_LADDER = (1e-3, 1e-6, 1e-9)


class Cdf:
    """Evaluator pair (F, F_minus) bound to a measure over a space.

    Immutable after construction; all evaluations are pure.
    """

    def __init__(self, space: OrderedSpace, spec: MeasureSpec):
        if spec.space is not space:
            raise DomainError("measure spec belongs to a different space")
        self.space = space
        self.spec = spec
        self._breakpoints = self._collect_breakpoints()
        # (key of lo, key of hi, inner coordinate of lo, segment) per segment
        self._segment_keys = [
            (space.key(s.interval.lo), space.key(s.interval.hi),
             space.split(s.interval.lo)[1], s)
            for s in spec.segments]

    def _collect_breakpoints(self) -> List[object]:
        pts = []

        def add(p):
            if p is not None and self.space.contains(p) and \
                    not any(self.space._cmp(p, q) == EQUAL for q in pts):
                pts.append(p)

        add(self.space.minimum())
        add(self.space.maximum())
        for a in self.spec.atoms:
            add(a.at)
        for s in self.spec.segments:
            add(s.interval.lo)
            add(s.interval.hi)
        pts.sort(key=self.space.key)
        return pts

    def breakpoints(self) -> List[object]:
        return list(self._breakpoints)

    # -- core evaluation ----------------------------------------------
    def _mass_strictly_below(self, value) -> float:
        """Mass of (< value); accepts quasi-points and infinities."""
        if value is NEG_INF:
            return 0.0
        if value is POS_INF:
            return 1.0
        total = 0.0
        for a in self.spec.atoms:
            if self.space._cmp(a.at, value) == LESS:
                total += a.mass
        key = self.space.key(value)
        for lo_key, hi_key, u, s in self._segment_keys:
            if key >= hi_key:
                total += s.mass
            elif key > lo_key:  # value lies inside the segment's fiber run
                total += s.density * (self.space.split(value)[1] - u)
        return total

    def _atom_mass(self, value) -> float:
        if is_infinite(value):
            return 0.0
        return self.spec.atom_mass_at(value)

    def _F(self, value) -> float:
        return self._mass_strictly_below(value) + self._atom_mass(value)

    def eval_F(self, x) -> float:
        """F(x) = mu(<= x)."""
        self.space.require(x)
        return self._F(x)

    def eval_F_minus(self, x) -> float:
        """F_minus(x) = mu(< x) = F(x) minus the atom mass at x."""
        self.space.require(x)
        return self._mass_strictly_below(x)

    # -- interval formulas --------------------------------------------
    def interval_measure(self, iv: Interval) -> float:
        """Closure-flag dispatch: e.g. mu(]a,b]) = F(b) - F(a)."""
        if not is_infinite(iv.lo) and not is_infinite(iv.hi):
            if ext_cmp(self.space, iv.lo, iv.hi) == GREATER:
                raise DomainError(f"interval {iv} has lo > hi")
        lo_term = self._mass_strictly_below(iv.lo) if iv.lo_closed \
            else self._F(iv.lo)
        hi_term = self._F(iv.hi) if iv.hi_closed \
            else self._mass_strictly_below(iv.hi)
        return max(hi_term - lo_term, 0.0)

    # -- sup/inf companions (independent scans) -----------------------
    def _ladder_points(self, x, sign):
        """x moved by sign * h along its real fiber, for h in the ladder."""
        if not self.space.segments_allowed:
            return
        region, t = self.space.split(x)
        fib = self.space.fiber(region)
        for h in H_LADDER:
            y = t + sign * h
            if fib.contains(y) and y != t:
                yield self.space.join(region, y)

    def _ladder_points_below(self, x):
        return self._ladder_points(x, -1)

    def _ladder_points_above(self, x):
        return self._ladder_points(x, +1)

    def sup_F_below(self, x) -> float:
        """sup of F over (< x); scanned independently, returns F_minus(x)."""
        self.space.require(x)
        mn = self.space.minimum()
        if mn is not None and self.space._cmp(x, mn) == EQUAL:
            raise DomainError("sup over the empty set: x is the minimum of X")
        candidates = [p for p in self._breakpoints if self.space._cmp(p, x) == LESS]
        fine = False
        pred = self.space.predecessor(x)
        if pred is not None:
            candidates.append(pred)
            fine = True
        for y in self._ladder_points_below(x):
            candidates.append(y)
            fine = True
        scan = max((self._F(p) for p in candidates), default=0.0)
        target = self._mass_strictly_below(x)
        if scan > target + 1e-12:
            raise PropositionViolation(
                f"sup F(<x) scan exceeded F_minus at {x!r}: {scan} > {target}")
        if fine and target - scan > self.spec.max_density * H_LADDER[-1] * 1.01 + 1e-12 \
                and pred is None:
            raise PropositionViolation(
                f"sup F(<x) scan too far from F_minus at {x!r}: {scan} vs {target}")
        if pred is not None and abs(scan - target) > 1e-12:
            raise PropositionViolation(
                f"discrete sup F(<x) must equal F_minus at {x!r}: {scan} vs {target}")
        return target

    def inf_Fminus_above(self, x) -> float:
        """inf of F_minus over (> x); scanned independently, returns F(x)."""
        self.space.require(x)
        mx = self.space.maximum()
        if mx is not None and self.space._cmp(x, mx) == EQUAL:
            raise DomainError("inf over the empty set: x is the maximum of X")
        candidates = [p for p in self._breakpoints if self.space._cmp(p, x) == GREATER]
        fine = False
        succ = self.space.successor(x)
        if succ is not None:
            candidates.append(succ)
            fine = True
        for y in self._ladder_points_above(x):
            candidates.append(y)
            fine = True
        scan = min((self._mass_strictly_below(p) for p in candidates), default=1.0)
        target = self._F(x)
        if scan < target - 1e-12:
            raise PropositionViolation(
                f"inf F_minus(>x) scan fell below F at {x!r}: {scan} < {target}")
        if fine and scan - target > self.spec.max_density * H_LADDER[-1] * 1.01 + 1e-12 \
                and succ is None:
            raise PropositionViolation(
                f"inf F_minus(>x) scan too far from F at {x!r}: {scan} vs {target}")
        if succ is not None and abs(scan - target) > 1e-12:
            raise PropositionViolation(
                f"discrete inf F_minus(>x) must equal F at {x!r}: {scan} vs {target}")
        return target

    def discontinuities(self) -> List[Tuple[object, float]]:
        """Jump points of F with their jump masses: exactly the atoms."""
        return atom_set(self.spec)


@dataclass(frozen=True)
class UniquenessVerdict:
    equal: bool
    witness: Optional[Interval]
    reason: str

    def __bool__(self):
        return self.equal


def cdfs_equal_on_dense(cdf1: Cdf, cdf2: Cdf, budget: int = 512, tol: float = 1e-12) -> bool:
    """Compare F on the dense enumeration plus all atoms of both specs."""
    if cdf1.space is not cdf2.space:
        raise DomainError("cdfs live on different spaces")
    probes = list(itertools.islice(cdf1.space.dense_points(), budget))
    probes += [a.at for a in cdf1.spec.atoms] + [a.at for a in cdf2.spec.atoms]
    return all(abs(cdf1.eval_F(p) - cdf2.eval_F(p)) <= tol for p in probes)


def measure_uniqueness_check(cdf1: Cdf, cdf2: Cdf, n_random: int = 10_000,
                             seed: int = 20_260_825, tol: float = 1e-9) -> UniquenessVerdict:
    """F = F_minus agreement on breakpoints implies mu agreement everywhere.

    Checks both cdfs at the union of their breakpoints, then confirms on
    random interval unions; a disagreement returns the first witness.
    """
    import random as _random

    if cdf1.space is not cdf2.space:
        raise DomainError("cdfs live on different spaces")
    space = cdf1.space
    points = list(cdf1._breakpoints)
    for p in cdf2._breakpoints:
        if not any(space._cmp(p, q) == EQUAL for q in points):
            points.append(p)
    for x in points:
        jump1 = cdf1.eval_F(x) - cdf1.eval_F_minus(x)
        jump2 = cdf2.eval_F(x) - cdf2.eval_F_minus(x)
        if abs(jump1 - jump2) > 1e-12:
            return UniquenessVerdict(False, singleton(x),
                                     f"atom masses differ at {x!r}: {jump1} vs {jump2}")
        f1, f2 = cdf1.eval_F(x), cdf2.eval_F(x)
        if abs(f1 - f2) > 1e-12:
            return UniquenessVerdict(False, lower_ray(x),
                                     f"F differs at {x!r}: {f1} vs {f2}")
    rng = _random.Random(seed)
    for _ in range(n_random):
        u = random_interval_union(space, rng)
        m1 = measure_of(cdf1.spec, u)
        m2 = measure_of(cdf2.spec, u)
        if abs(m1 - m2) > tol:
            witness = u.intervals[0] if u.intervals else None
            return UniquenessVerdict(False, witness,
                                     f"measures differ on {u!r}: {m1} vs {m2}")
    return UniquenessVerdict(True, None, "F and F_minus agree on all breakpoints")
