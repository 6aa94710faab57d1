"""The cumulative distribution function F and its left companion.

``F(x)`` is the mass of the closed lower ray at x and ``F_minus(x)`` the
mass of the open one; the gap between them is exactly the atom mass at x.
Interval masses come from the four closure-flag formulas, with the
conventions F(-inf) = 0 and F(+inf) = F_minus(+inf) = 1 so that extended
endpoints from the algebra are usable directly.

Both read one table of cumulative masses, ``Cdf.pieces``, and so does the
pseudo-inverse G of the quantile module: F and G agree on every level.
"""
from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, replace
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


@dataclass(frozen=True)
class GPiece:
    """One closed-form piece of G over the quantile range ]r_lo, r_hi]."""

    kind: str               # "atom" | "affine"
    r_lo: float
    r_hi: float
    point: object = None    # atom pieces
    region: object = None   # affine pieces: the region of the run (space.split)
    u: float = 0.0          # affine: inner coordinates of the run
    v: float = 0.0
    density: float = 0.0

    def point_at(self, space, r):
        if self.kind == "atom":
            return self.point
        coord = self.u + (r - self.r_lo) / self.density
        coord = min(max(coord, self.u), self.v)
        return space.join(self.region, coord)


def _piece_table(space, spec: MeasureSpec) -> Tuple[List[GPiece], list, list]:
    """The pieces in order, with the keys of each one's first and last point:
    a constant piece per atom and an affine one per uniform run, split at the
    atoms inside it.  The only running sum of masses; levels are cut at 1 and
    the last one is exactly 1.
    """
    atom_keys = [space.key(a.at) for a in spec.atoms]  # sorted, as the atoms are
    runs = [(key, 0, key, a.mass, {"kind": "atom", "point": a.at})
            for key, a in zip(atom_keys, spec.atoms)]
    for seg in spec.segments:
        lo, hi = seg.interval.lo, seg.interval.hi
        region, u = space.split(lo)
        inside = spec.atoms[bisect.bisect_left(atom_keys, space.key(lo)):
                            bisect.bisect_right(atom_keys, space.key(hi))]
        coords = sorted({u, space.split(hi)[1], *(space.split(a.at)[1] for a in inside)})
        for lo_c, hi_c in zip(coords, coords[1:]):
            runs.append((space.key(space.join(region, lo_c)), 1,
                         space.key(space.join(region, hi_c)), seg.density * (hi_c - lo_c),
                         {"kind": "affine", "region": region, "u": lo_c, "v": hi_c,
                          "density": seg.density}))
    runs.sort(key=lambda run: run[:2])  # an atom before the affine piece starting at it
    pieces, c = [], 0.0
    for _, _, _, mass, fields in runs:
        pieces.append(GPiece(r_lo=min(c, 1.0), r_hi=min(c + mass, 1.0), **fields))
        c += mass
    pieces[-1] = replace(pieces[-1], r_hi=1.0)
    return pieces, [run[0] for run in runs], [run[2] for run in runs]


class Cdf:
    """Evaluator pair (F, F_minus) bound to a measure over a space.

    Immutable after construction; all evaluations are pure.
    """

    def __init__(self, space: OrderedSpace, spec: MeasureSpec):
        if spec.space is not space:
            raise DomainError("measure spec belongs to a different space")
        self.space = space
        self.spec = spec
        self.pieces, self._starts, self._ends = _piece_table(space, spec)
        self._breakpoints = self._collect_breakpoints()

    def _collect_breakpoints(self) -> List[object]:
        """The extremes of X and the piece ends that lie in X, in order."""
        space = self.space
        ends = [space.minimum(), space.maximum()] + \
            [p.point for p in self.pieces if p.kind == "atom"] + \
            [space.join(p.region, t) for p in self.pieces if p.kind == "affine" for t in (p.u, p.v)]
        # the first of equal points wins, as the extremes and atoms come first
        by_key = {space.key(p): p for p in reversed(ends) if p is not None and space.contains(p)}
        return [by_key[k] for k in sorted(by_key)]

    def breakpoints(self) -> List[object]:
        return list(self._breakpoints)

    # -- core evaluation ----------------------------------------------
    def _mass_below(self, value, closed: bool) -> float:
        """Mass of (<= value) when closed, else of (< value); one bisect on
        the piece keys.  Accepts quasi-points and infinities."""
        if value is NEG_INF:
            return 0.0
        if value is POS_INF:
            return 1.0
        key = self.space.key(value)
        # the pieces starting at or before value, or strictly before it
        i = (bisect.bisect_right if closed else bisect.bisect_left)(self._starts, key)
        if i == 0:
            return 0.0
        piece = self.pieces[i - 1]
        if key < self._ends[i - 1]:  # value lies inside an affine piece
            return piece.r_lo + piece.density * (self.space.split(value)[1] - piece.u)
        return piece.r_hi

    def eval_F(self, x) -> float:
        """F(x) = mu(<= x)."""
        self.space.require(x)
        return self._mass_below(x, True)

    def eval_F_minus(self, x) -> float:
        """F_minus(x) = mu(< x) = F(x) minus the atom mass at x."""
        self.space.require(x)
        return self._mass_below(x, False)

    # -- interval formulas --------------------------------------------
    def interval_measure(self, iv: Interval) -> float:
        """Closure-flag dispatch: e.g. mu(]a,b]) = F(b) - F(a)."""
        if not is_infinite(iv.lo) and not is_infinite(iv.hi):
            if ext_cmp(self.space, iv.lo, iv.hi) == GREATER:
                raise DomainError(f"interval {iv} has lo > hi")
        lo_term = self._mass_below(iv.lo, not iv.lo_closed)
        hi_term = self._mass_below(iv.hi, iv.hi_closed)
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
        scan = max((self._mass_below(p, True) for p in candidates), default=0.0)
        target = self._mass_below(x, False)
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
        scan = min((self._mass_below(p, False) for p in candidates), default=1.0)
        target = self._mass_below(x, True)
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
    points = {}
    for p in cdf1._breakpoints + cdf2._breakpoints:
        points.setdefault(space.key(p), p)
    for x in points.values():
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
