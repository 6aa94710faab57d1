"""Probability measures as atoms plus uniform-density segments.

This is the concrete measure family everything else is built on, and the
geometric (length-counting) evaluation of mu on the interval algebra is
the brute-force side of most oracles: it never touches the cdf code.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .errors import ConstructionError
from .intervals import Interval, IntervalUnion, as_union, canonicalize_interval
from .spaces import OrderedSpace

#: Construction tolerance for the total mass; a violation is an error.
MASS_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Atom:
    """A point with positive mass."""

    at: object
    mass: float


@dataclass(frozen=True)
class DensitySegment:
    """Uniform mass over a real-interval region (or one lex fiber)."""

    interval: Interval
    mass: float
    density: float


class MeasureSpec:
    """Validated, immutable description of a probability measure.

    Atoms may sit inside segments (mixed measures); segments must be
    pairwise disjoint and carry positive length.
    """

    def __init__(self, space: OrderedSpace, atoms: Sequence[Tuple[object, float]] = (),
                 segments: Sequence[Tuple[Interval, float]] = ()):
        self.space = space
        seen = set()
        atom_list = []
        for at, mass in atoms:
            if not space.contains(at):
                raise ConstructionError(f"atom at {at!r} lies outside the space")
            if not mass > 0:
                raise ConstructionError(f"atom at {at!r} must have positive mass")
            if space.key(at) in seen:
                raise ConstructionError(f"duplicate atom at {at!r}")
            seen.add(space.key(at))
            atom_list.append(Atom(at, float(mass)))
        atom_list.sort(key=lambda a: space.key(a.at))

        if segments and not space.segments_allowed:
            raise ConstructionError("density segments need a real-interval region")
        seg_list = []
        for interval, mass in segments:
            canon = canonicalize_interval(space, interval)
            if canon is None:
                raise ConstructionError(f"segment {interval} is empty")
            if not mass > 0:
                raise ConstructionError(f"segment {canon} must have positive mass")
            if space.split(canon.lo)[0] != space.split(canon.hi)[0]:
                raise ConstructionError(f"segment {canon} must lie in one fiber")
            length = space.length(canon)
            if not length > 0:
                raise ConstructionError(f"segment {canon} has zero length")
            seg_list.append(DensitySegment(canon, float(mass), float(mass) / length))
        seg_list.sort(key=lambda s: space.key(s.interval.lo))
        # sorted by lower end, segments overlap iff some neighbours do
        for a, b in zip(seg_list, seg_list[1:]):
            if space.key(b.interval.lo) < space.key(a.interval.hi):
                raise ConstructionError(f"segments {a.interval} and {b.interval} overlap")

        total = math.fsum([a.mass for a in atom_list] + [s.mass for s in seg_list])
        if not atom_list and not seg_list:
            raise ConstructionError("measure.total_mass: empty measure specification")
        if abs(total - 1.0) > MASS_TOLERANCE:
            raise ConstructionError(f"measure.total_mass: masses sum to {total!r}, not 1")
        self.atoms: Tuple[Atom, ...] = tuple(atom_list)
        self.segments: Tuple[DensitySegment, ...] = tuple(seg_list)

    def atom_mass_at(self, x) -> float:
        for a in self.atoms:
            if self.space._cmp(a.at, x) == 0:
                return a.mass
        return 0.0

    @property
    def max_density(self) -> float:
        return max((s.density for s in self.segments), default=0.0)


def measure_of(spec: MeasureSpec, subset) -> float:
    """mu of a set in the algebra, evaluated geometrically."""
    u = as_union(spec.space, subset)
    total = 0.0
    for a in spec.atoms:
        if u.member(a.at):
            total += a.mass
    for s in spec.segments:
        seg_union = IntervalUnion(spec.space, (s.interval,))
        overlap = seg_union.intersect(u)
        for piece in overlap.intervals:
            total += s.density * spec.space.length(piece)
    return total


def atom_set(spec: MeasureSpec) -> List[Tuple[object, float]]:
    """The atoms of the measure, sorted along the order."""
    return [(a.at, a.mass) for a in spec.atoms]
