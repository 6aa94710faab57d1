"""The algebra of finite disjoint unions of intervals.

Intervals carry two closure flags and may be written with infinite
endpoints; unions are kept in a canonical form (pairwise disjoint,
non-adjacent, sorted), so set equality is representation equality.

Canonicalization pins down one representation per set; each space kind
applies these rules in its ``canon_lo`` / ``canon_hi``:

* infinite endpoints are clamped to the space's bounds,
* endpoints that are not points of the space (an excluded real boundary)
  are forced open,
* open endpoints next to an empty gap are advanced to the neighbouring
  point and closed (``]a, b]`` on integers becomes ``[a+1, b]``; a lex
  endpoint at the top of a fiber slides into the next fiber),
* empty intervals are dropped, adjacent ones merged.
"""
from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Iterable, List, Optional

from .errors import DomainError
from .spaces import EQUAL, GREATER, LESS, OrderedSpace


class _Infinity:
    """Sentinel endpoint; compares below/above every point."""

    __slots__ = ("sign",)

    def __init__(self, sign: int):
        self.sign = sign

    def __repr__(self):
        return "-inf" if self.sign < 0 else "inf"


NEG_INF = _Infinity(-1)
POS_INF = _Infinity(+1)


def is_infinite(endpoint) -> bool:
    return isinstance(endpoint, _Infinity)


def ext_cmp(space: OrderedSpace, a, b) -> int:
    """Compare extended endpoints (points, quasi-points or infinities)."""
    if isinstance(a, _Infinity):
        if isinstance(b, _Infinity):
            return LESS if a.sign < b.sign else (EQUAL if a.sign == b.sign else GREATER)
        return LESS if a.sign < 0 else GREATER
    if isinstance(b, _Infinity):
        return GREATER if b.sign < 0 else LESS
    return space._cmp(a, b)


@dataclass(frozen=True)
class Interval:
    """One interval ``|lo, hi|``; the closure flags encode the bars."""

    lo: object
    hi: object
    lo_closed: bool
    hi_closed: bool

    def __post_init__(self):
        if is_infinite(self.lo) and self.lo_closed:
            raise DomainError("an infinite endpoint can never be closed")
        if is_infinite(self.hi) and self.hi_closed:
            raise DomainError("an infinite endpoint can never be closed")


def singleton(x) -> Interval:
    return Interval(x, x, True, True)


def open_interval(lo, hi) -> Interval:
    return Interval(lo, hi, False, False)


def lower_ray(x, closed: bool = True) -> Interval:
    return Interval(NEG_INF, x, False, closed)


def upper_ray(x, closed: bool = True) -> Interval:
    return Interval(x, POS_INF, closed, False)


# ---------------------------------------------------------------------------
# canonicalization


def canonicalize_interval(space: OrderedSpace, iv: Interval) -> Optional[Interval]:
    """Unique representation of the same point set, or None if empty."""
    if iv.lo is POS_INF or iv.hi is NEG_INF:
        return None  # ]+inf, ...| and |..., -inf[ hold no point
    lo = space.canon_lo(None if is_infinite(iv.lo) else iv.lo, iv.lo_closed)
    hi = space.canon_hi(None if is_infinite(iv.hi) else iv.hi, iv.hi_closed)
    if lo is None or hi is None:
        return None
    (lov, loc), (hiv, hic) = lo, hi
    c = space._cmp(lov, hiv)
    if c == GREATER:
        return None
    if c == EQUAL:
        if loc and hic and space.contains(lov):
            return Interval(lov, hiv, True, True)
        return None
    return Interval(lov, hiv, loc, hic)


def interval_member(space: OrderedSpace, x, iv: Interval) -> bool:
    c = ext_cmp(space, x, iv.lo)
    if c == LESS or (c == EQUAL and not iv.lo_closed):
        return False
    c = ext_cmp(space, x, iv.hi)
    if c == GREATER or (c == EQUAL and not iv.hi_closed):
        return False
    return True


def _gap_is_empty(space, left: Interval, right: Interval) -> bool:
    """True when no point of X separates two canonical intervals."""
    gap = Interval(left.hi, right.lo, not left.hi_closed, not right.lo_closed) \
        if not (is_infinite(left.hi) or is_infinite(right.lo)) \
        else None
    if gap is None:
        # canonical intervals over bounded kinds never keep infinities
        return True
    return canonicalize_interval(space, gap) is None


def _endpoint_max(space, a, a_closed, b, b_closed):
    c = ext_cmp(space, a, b)
    if c == LESS:
        return b, b_closed
    if c == GREATER:
        return a, a_closed
    return a, a_closed or b_closed


class IntervalUnion:
    """A canonical finite disjoint union of intervals over one space."""

    __slots__ = ("space", "intervals")

    def __init__(self, space: OrderedSpace, intervals: Iterable[Interval], _canonical=False):
        self.space = space
        if _canonical:
            self.intervals = tuple(intervals)
            return
        canon = [c for c in (canonicalize_interval(space, iv) for iv in intervals) if c is not None]

        def cmp(a: Interval, b: Interval) -> int:
            c = ext_cmp(space, a.lo, b.lo)
            if c != EQUAL:
                return c
            if a.lo_closed != b.lo_closed:
                return LESS if a.lo_closed else GREATER
            return ext_cmp(space, a.hi, b.hi)

        canon.sort(key=functools.cmp_to_key(cmp))
        merged: List[Interval] = []
        for iv in canon:
            if merged and _gap_is_empty(space, merged[-1], iv):
                last = merged.pop()
                hi, hic = _endpoint_max(space, last.hi, last.hi_closed, iv.hi, iv.hi_closed)
                merged.append(Interval(last.lo, hi, last.lo_closed, hic))
            else:
                merged.append(iv)
        self.intervals = tuple(merged)

    # -- constructors -------------------------------------------------
    @classmethod
    def empty(cls, space):
        return cls(space, (), _canonical=True)

    @classmethod
    def full(cls, space):
        return cls(space, (Interval(NEG_INF, POS_INF, False, False),))

    @classmethod
    def of_points(cls, space, points):
        return cls(space, [singleton(space.require(p)) for p in points])

    # -- value semantics ----------------------------------------------
    def __eq__(self, other):
        return isinstance(other, IntervalUnion) and self.intervals == other.intervals

    def __hash__(self):
        return hash(self.intervals)

    def __repr__(self):
        return f"IntervalUnion({format_union(self.space, self)})"

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    # -- boolean algebra ----------------------------------------------
    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        return IntervalUnion(self.space, self.intervals + other.intervals)

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        pieces = []
        for a in self.intervals:
            for b in other.intervals:
                lo, loc = a.lo, a.lo_closed
                c = ext_cmp(self.space, b.lo, lo)
                if c == GREATER:
                    lo, loc = b.lo, b.lo_closed
                elif c == EQUAL:
                    loc = loc and b.lo_closed
                hi, hic = a.hi, a.hi_closed
                c = ext_cmp(self.space, b.hi, hi)
                if c == LESS:
                    hi, hic = b.hi, b.hi_closed
                elif c == EQUAL:
                    hic = hic and b.hi_closed
                if ext_cmp(self.space, lo, hi) != GREATER:
                    pieces.append(Interval(lo, hi, loc, hic))
        return IntervalUnion(self.space, pieces)

    def complement(self) -> "IntervalUnion":
        pieces = []
        cursor, cursor_closed = NEG_INF, False
        for iv in self.intervals:
            pieces.append(Interval(cursor, iv.lo, cursor_closed, not iv.lo_closed))
            cursor, cursor_closed = iv.hi, not iv.hi_closed
        if cursor is NEG_INF:
            return IntervalUnion.full(self.space)
        pieces.append(Interval(cursor, POS_INF, cursor_closed, False))
        return IntervalUnion(self.space, pieces)

    def member(self, x) -> bool:
        self.space.require(x)
        return any(interval_member(self.space, x, iv) for iv in self.intervals)


def convex_components(space: OrderedSpace, subset) -> List[Interval]:
    """Maximal convex pieces of a finite union of intervals/points."""
    u = as_union(space, subset)
    return list(u.intervals)


def as_union(space, subset) -> IntervalUnion:
    if isinstance(subset, IntervalUnion):
        return subset
    if isinstance(subset, Interval):
        return IntervalUnion(space, (subset,))
    return IntervalUnion.of_points(space, subset)


# ---------------------------------------------------------------------------
# infimum / supremum

#: Conventions for the empty set: inf(∅) = +∞ and sup(∅) = −∞.
EMPTY_INFIMUM = POS_INF
EMPTY_SUPREMUM = NEG_INF


def infimum(space: OrderedSpace, subset):
    """Greatest lower bound of the subset inside X.

    Returns a point, ``EMPTY_INFIMUM`` for the empty set, or None when
    the order is incomplete and the infimum does not exist in X.
    """
    u = as_union(space, subset)
    if u.is_empty:
        return EMPTY_INFIMUM
    first = u.intervals[0]
    if is_infinite(first.lo):
        return None
    if space.contains(first.lo):
        return first.lo
    return None  # quasi-point endpoint: the bound lives outside X


def supremum(space: OrderedSpace, subset):
    """Dual of :func:`infimum`; sup(∅) = ``EMPTY_SUPREMUM``."""
    u = as_union(space, subset)
    if u.is_empty:
        return EMPTY_SUPREMUM
    last = u.intervals[-1]
    if is_infinite(last.hi):
        return None
    if space.contains(last.hi):
        return last.hi
    return None


def interval_length(space: OrderedSpace, iv: Interval) -> float:
    """Order-length used by uniform densities; 0 for discrete kinds."""
    return space.length(iv)


# ---------------------------------------------------------------------------
# random generators for property tests


def random_interval(space: OrderedSpace, rng: random.Random) -> Interval:
    """A raw (not yet canonical) random interval, rays included."""
    roll = rng.random()
    lo = NEG_INF if roll < 0.1 else space.random_point(rng)
    hi = POS_INF if roll > 0.9 else space.random_point(rng)
    if lo is not NEG_INF and hi is not POS_INF and space._cmp(lo, hi) == GREATER:
        lo, hi = hi, lo
    return Interval(lo, hi,
                    lo is not NEG_INF and rng.random() < 0.5,
                    hi is not POS_INF and rng.random() < 0.5)


def random_interval_union(space: OrderedSpace, rng: random.Random,
                          max_pieces: int = 3) -> IntervalUnion:
    n = rng.randint(1, max_pieces)
    return IntervalUnion(space, [random_interval(space, rng) for _ in range(n)])


# ---------------------------------------------------------------------------
# text syntax: "(a,b]", "[a,b)", "-inf"/"inf" endpoints, unions comma-separated


def _parse_endpoint(space, text):
    text = text.strip()
    if text in ("-inf", "-oo"):
        return NEG_INF
    if text in ("inf", "+inf", "oo", "+oo"):
        return POS_INF
    return space.parse_endpoint(text)


def _split_top_level(text: str, sep: str = ","):
    parts, depth, buf = [], 0, []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    parts.append("".join(buf))
    return [p for p in (p.strip() for p in parts) if p]


def parse_interval(space: OrderedSpace, text: str) -> Interval:
    text = text.strip() if isinstance(text, str) else repr(text)
    if len(text) < 2 or text[0] not in "([" or text[-1] not in ")]":
        raise DomainError(f"bad interval syntax {text!r}")
    lo_closed = text[0] == "["
    hi_closed = text[-1] == "]"
    parts = _split_top_level(text[1:-1])
    if len(parts) != 2:
        raise DomainError(f"bad interval syntax {text!r}")
    lo = _parse_endpoint(space, parts[0])
    hi = _parse_endpoint(space, parts[1])
    if is_infinite(lo) and lo_closed:
        lo_closed = False
    if is_infinite(hi) and hi_closed:
        hi_closed = False
    return Interval(lo, hi, lo_closed, hi_closed)


def parse_union(space: OrderedSpace, text: str) -> IntervalUnion:
    if text.strip() == "{}":
        return IntervalUnion.empty(space)
    chunks = _split_top_level(text)
    if not chunks:
        return IntervalUnion.empty(space)
    return IntervalUnion(space, [parse_interval(space, c) for c in chunks])


def format_endpoint(space, endpoint) -> str:
    if is_infinite(endpoint):
        return repr(endpoint)
    return space.format_point(endpoint)


def format_interval(space, iv: Interval) -> str:
    left = "[" if iv.lo_closed else "("
    right = "]" if iv.hi_closed else ")"
    return f"{left}{format_endpoint(space, iv.lo)},{format_endpoint(space, iv.hi)}{right}"


def format_union(space, u: IntervalUnion) -> str:
    if u.is_empty:
        return "{}"
    return ",".join(format_interval(space, iv) for iv in u.intervals)
