"""Pluggable linearly ordered universes.

Four kinds of space are supported: finite label chains, inclusive integer
ranges, real intervals (with either boundary optionally excluded) and
lexicographic products of a finite chain with one real-interval fiber per
outer label.  Points are plain Python values: ``str`` for finite chains,
``int`` for integer ranges, ``float`` for real intervals and an
``(outer, inner)`` tuple for lex products.

Each kind owns its behaviour through one protocol on :class:`OrderedSpace`,
so no other module has to ask which kind a space is:

* ``canon_lo(lo, closed)`` / ``canon_hi(hi, closed)``: the canonical
  ``(endpoint, closed)`` of an interval's lower / upper end, or None when
  the interval is empty; an endpoint of None stands for -inf / +inf.
  ``minimum``, ``maximum``, ``successor`` and ``predecessor`` are derived
  from these two once, in the base class;
* ``key(p)``: the sort key of a point or quasi-point;
* ``length(iv)``: the order-length a uniform density spreads over;
* ``split(p)`` / ``join(region, t)`` / ``fiber(region)`` / ``regions``:
  on the kinds with real fibers, a point as a region (None on a real
  interval, the outer label on a lex product) plus a float on that
  region's real-interval fiber; ``join_many(region, ts)`` joins a float64
  array at once, and a fiber's ``contains_many(ts)`` tests one;
* ``parse_endpoint(text)``, ``random_point(rng)``, ``close(p, q, tol)``
  and ``to_config()``;
* two class attributes fixed per kind: ``numeric_points`` (points are
  numbers) and ``segments_allowed`` (density segments may be placed, and
  the fiber methods above exist).

``FiniteSpace`` and ``IntRangeSpace`` share a base class that addresses
points by position.  Each class keeps its own ``_cmp`` and ``contains``,
the hot comparisons of every draw and every ``F`` call.

Space descriptions are immutable and every operation is a pure function,
so instances can be shared freely across threads.
"""
from __future__ import annotations

import math
import numbers
import random
import sys
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigError, DomainError

#: Ordering verdicts returned by :meth:`OrderedSpace.compare`.
LESS, EQUAL, GREATER = -1, 0, 1

#: Marker used as an isolation witness when the point is an extreme of X.
MIN_MARKER = "min"
MAX_MARKER = "max"


@dataclass(frozen=True)
class IsolationReport:
    """Left/right isolation verdict for one point.

    ``left_witness`` is the predecessor (the ``z`` with an empty open gap
    ``]z, x[``), the string ``"min"`` when the point is the minimum, or
    ``None`` when the point is not left-isolated; symmetrically on the
    right.
    """

    point: object
    left_isolated: bool
    right_isolated: bool
    left_witness: object = None
    right_witness: object = None

    @property
    def isolated(self) -> bool:
        return self.left_isolated and self.right_isolated


class OrderedSpace:
    """Abstract total order with optional extremes and a dense witness."""

    kind: str = "abstract"
    #: Points are numbers, so numeric integrands such as ``identity`` apply.
    numeric_points: bool = False
    #: Points sit on real-interval fibers, so density segments are allowed.
    segments_allowed: bool = False

    # -- universe -----------------------------------------------------
    def contains(self, x) -> bool:
        raise NotImplementedError

    def require(self, x):
        if not self.contains(x):
            raise DomainError(f"point {x!r} is not in the {self.kind} space {self.describe()}")
        return x

    def describe(self) -> str:
        raise NotImplementedError

    # -- order --------------------------------------------------------
    def compare(self, x, y) -> int:
        """Total-order comparison; raises DomainError off the universe."""
        self.require(x)
        self.require(y)
        return self._cmp(x, y)

    def _cmp(self, x, y) -> int:
        """Comparison without the universe check.

        Also accepts "quasi points" (excluded boundary values) that the
        interval algebra uses as canonical endpoints.
        """
        raise NotImplementedError

    def key(self, p):
        """Sort key of a point or quasi-point, increasing along the order."""
        raise NotImplementedError

    # -- canonical interval endpoints -----------------------------------
    def canon_lo(self, lo, closed: bool) -> Optional[tuple]:
        """Canonical ``(lo, closed)`` of a lower end, or None when empty.

        ``lo`` is a point, a quasi-point, any number on an integer range,
        or None for -inf.  The result is clamped into X, closed exactly
        when it is a point of the interval, and moved across an empty gap
        when open.
        """
        raise NotImplementedError

    def canon_hi(self, hi, closed: bool) -> Optional[tuple]:
        """Dual of :meth:`canon_lo` for an upper end; None stands for +inf."""
        raise NotImplementedError

    def minimum(self):
        lo, closed = self.canon_lo(None, True)
        return lo if closed else None

    def maximum(self):
        hi, closed = self.canon_hi(None, True)
        return hi if closed else None

    @property
    def complete(self) -> bool:
        """Every nonempty representable subset has an inf and a sup in X."""
        raise NotImplementedError

    def successor(self, x) -> Optional[object]:
        """Immediate next point when ``]x, succ[`` is empty, else None.

        ``]x, ...`` starts at a closed point exactly when that point is
        the successor of x.
        """
        nxt = self.canon_lo(self.require(x), False)
        return nxt[0] if nxt is not None and nxt[1] else None

    def predecessor(self, x) -> Optional[object]:
        prv = self.canon_hi(self.require(x), False)
        return prv[0] if prv is not None and prv[1] else None

    def length(self, iv) -> float:
        """Order-length of a canonical interval used by uniform densities."""
        raise NotImplementedError

    def close(self, p, q, tol: float) -> bool:
        """Same point up to ``tol`` on a real coordinate."""
        return self._cmp(p, q) == EQUAL

    # -- separability -------------------------------------------------
    def dense_points(self) -> Iterator[object]:
        """Deterministic enumeration of a dense (here: countable) subset.

        Finite kinds enumerate the whole universe; real segments use the
        dyadic rationals level by level, smallest numerator first, so the
        enumeration probes both ends of every segment early.
        """
        raise NotImplementedError

    def predecessor_points(self) -> Iterator[object]:
        """Every point that has a predecessor (an empty gap below it)."""
        return iter(())

    def random_point(self, rng: random.Random):
        raise NotImplementedError

    # -- text syntax ---------------------------------------------------
    def parse_point(self, text: str):
        return self.require(self.parse_endpoint(text.strip()))

    def parse_endpoint(self, text: str):
        """A finite interval endpoint; unlike a point it may lie outside X."""
        raise NotImplementedError

    def format_point(self, x) -> str:
        raise NotImplementedError

    def to_config(self) -> dict:
        """The config-file block that :func:`space_from_config` reads back."""
        raise NotImplementedError


def _dyadics(lo: float, hi: float, include_lo: bool, include_hi: bool) -> Iterator[float]:
    if include_lo:
        yield lo
    if include_hi and hi != lo:
        yield hi
    width = hi - lo
    level = 1
    while True:
        denom = 1 << level
        step = width / denom
        for k in range(1, denom, 2):
            yield lo + k * step
        level += 1


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise DomainError(f"not a finite number: {text!r}")
    return value


class _PositionalSpace(OrderedSpace):
    """The discrete kinds: points are ``self.points``, addressed by position.

    Subclasses set ``points`` and define ``_position(p, closed, step)``:
    the position of the point nearest to endpoint p inside the interval,
    where ``step`` is +1 at a lower end and -1 at an upper end and an open
    end moves one position inward.  Every gap between neighbours is empty,
    so canonical endpoints are always closed points.
    """

    points: Sequence

    def canon_lo(self, lo, closed):
        i = 0 if lo is None else max(self._position(lo, closed, +1), 0)
        return (self.points[i], True) if i < len(self.points) else None

    def canon_hi(self, hi, closed):
        last = len(self.points) - 1
        i = last if hi is None else min(self._position(hi, closed, -1), last)
        return (self.points[i], True) if i >= 0 else None

    def key(self, p):
        return self._position(p, True, 0)

    @property
    def complete(self):
        return True

    def length(self, iv):
        return 0.0

    def dense_points(self):
        return iter(self.points)

    def predecessor_points(self):
        return iter(self.points[1:])

    def random_point(self, rng):
        return rng.choice(self.points)

    def format_point(self, x):
        return str(x)


class FiniteSpace(_PositionalSpace):
    """A finite chain given by an ordered list of distinct labels."""

    kind = "finite"

    def __init__(self, labels):
        labels = tuple(labels)
        if not labels:
            raise ConfigError("finite space needs at least one label")
        if len(set(labels)) != len(labels):
            raise ConfigError("finite space labels must be distinct")
        self.labels = self.points = labels
        self._index = {lab: i for i, lab in enumerate(labels)}

    def describe(self):
        return "{" + "<".join(self.labels) + "}"

    def contains(self, x):
        return x in self._index

    def _cmp(self, x, y):
        ix, iy = self._index[x], self._index[y]
        return LESS if ix < iy else (EQUAL if ix == iy else GREATER)

    def _position(self, p, closed, step):
        return self._index[self.require(p)] + (0 if closed else step)

    def parse_endpoint(self, text):
        if text not in self._index:
            raise DomainError(f"unknown label {text!r}")
        return text

    def to_config(self):
        return {"kind": self.kind, "labels": list(self.labels)}


class IntRangeSpace(_PositionalSpace):
    """Integers from lo to hi, both inclusive.

    Interval endpoints may be any finite number: a fractional one rounds
    inward and one beyond the range is clamped to it.
    """

    kind = "int_range"
    numeric_points = True

    def __init__(self, lo: int, hi: int):
        if lo > hi:
            raise ConfigError(f"empty integer range {lo}..{hi}")
        self.lo = int(lo)
        self.hi = int(hi)
        self.points = range(self.lo, self.hi + 1)

    def describe(self):
        return f"{self.lo}..{self.hi}"

    def contains(self, x):
        return isinstance(x, numbers.Integral) and not isinstance(x, bool) and self.lo <= x <= self.hi

    def _cmp(self, x, y):
        return LESS if x < y else (EQUAL if x == y else GREATER)

    def _position(self, p, closed, step):
        x = float(p)
        if not x.is_integer():
            return (math.ceil(x) if step > 0 else math.floor(x)) - self.lo
        return int(p) + (0 if closed else step) - self.lo

    def parse_endpoint(self, text):
        try:
            return int(text)
        except ValueError:
            return _finite_float(text)

    def to_config(self):
        return {"kind": self.kind, "lo": self.lo, "hi": self.hi}


class RealIntervalSpace(OrderedSpace):
    """A real interval [lo, hi] with either boundary optionally excluded.

    Comparisons are exact binary64 comparisons; no epsilon enters the
    order itself.  The space is its own single fiber, with region None.
    """

    kind = "real_interval"
    numeric_points = True
    segments_allowed = True
    regions = (None,)

    def __init__(self, lo: float, hi: float, include_lo: bool = True, include_hi: bool = True):
        lo, hi = float(lo), float(hi)
        if not lo < hi:
            raise ConfigError(f"real interval needs lo < hi, got [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi
        self.include_lo = bool(include_lo)
        self.include_hi = bool(include_hi)

    def describe(self):
        left = "[" if self.include_lo else "]"
        right = "]" if self.include_hi else "["
        return f"{left}{self.lo}, {self.hi}{right}"

    def contains(self, x):
        if not isinstance(x, numbers.Real) or isinstance(x, bool):
            return False
        if not self.lo <= x <= self.hi:  # also rejects NaN
            return False
        if x == self.lo and not self.include_lo:
            return False
        if x == self.hi and not self.include_hi:
            return False
        return True

    def contains_many(self, ts: np.ndarray) -> np.ndarray:
        """:meth:`contains` of every float in a float64 array, as a bool array."""
        ok = (ts >= self.lo) & (ts <= self.hi)  # also rejects NaN
        if not self.include_lo:
            ok &= ts != self.lo
        if not self.include_hi:
            ok &= ts != self.hi
        return ok

    def _cmp(self, x, y):
        return LESS if x < y else (EQUAL if x == y else GREATER)

    def key(self, p):
        return float(p)

    def canon_lo(self, lo, closed):
        if lo is None or lo < self.lo:
            lo, closed = self.lo, True
        lo = float(lo)
        if lo > self.hi:
            return None
        if (lo == self.lo and not self.include_lo) or (lo == self.hi and not self.include_hi):
            closed = False  # an excluded boundary is a quasi-point
        return lo, closed

    def canon_hi(self, hi, closed):
        if hi is None or hi > self.hi:
            hi, closed = self.hi, True
        hi = float(hi)
        if hi < self.lo:
            return None
        if (hi == self.hi and not self.include_hi) or (hi == self.lo and not self.include_lo):
            closed = False
        return hi, closed

    @property
    def complete(self):
        return self.include_lo and self.include_hi

    def length(self, iv):
        return float(iv.hi) - float(iv.lo)

    def fiber(self, region) -> "RealIntervalSpace":
        return self

    def split(self, p):
        return None, float(p)

    def join(self, region, t):
        return t

    def join_many(self, region, ts: np.ndarray) -> np.ndarray:
        """``join`` of every float in a float64 array, as an object array."""
        return ts.astype(object)

    def close(self, p, q, tol):
        return abs(float(p) - float(q)) <= tol

    def dense_points(self):
        return _dyadics(self.lo, self.hi, self.include_lo, self.include_hi)

    def random_point(self, rng):
        while True:
            x = self.lo + rng.random() * (self.hi - self.lo)
            if self.contains(x):
                return x

    def parse_endpoint(self, text):
        return _finite_float(text)

    def format_point(self, x):
        return repr(float(x))

    def to_config(self):
        return {"kind": self.kind, "lo": self.lo, "hi": self.hi,
                "include_lo": self.include_lo, "include_hi": self.include_hi}


class LexSpace(OrderedSpace):
    """Lexicographic product: finite outer chain, real-interval fibers.

    A point is an ``(outer_label, inner_value)`` tuple.  This covers the
    non-real separable examples while keeping every inf/sup computable in
    closed form.
    """

    kind = "lex"
    segments_allowed = True

    def __init__(self, outer_labels, fibers):
        self.outer = FiniteSpace(outer_labels)
        fibers = dict(fibers)
        missing = [o for o in self.outer.labels if o not in fibers]
        if missing:
            raise ConfigError(f"missing fiber spec for outer labels {missing}")
        self.fibers = {o: fibers[o] for o in self.outer.labels}
        for o, fib in self.fibers.items():
            if not isinstance(fib, RealIntervalSpace):
                raise ConfigError(f"fiber for {o!r} must be a real interval")

    def describe(self):
        parts = ", ".join(f"{o}:{self.fibers[o].describe()}" for o in self.outer.labels)
        return "lex(" + parts + ")"

    @property
    def regions(self):
        return self.outer.labels

    def fiber(self, outer) -> RealIntervalSpace:
        try:
            return self.fibers[outer]
        except KeyError as exc:
            raise DomainError(f"unknown outer label {outer!r}") from exc

    def split(self, p):
        return p[0], float(p[1])

    def join(self, region, t):
        return (region, t)

    def join_many(self, region, ts):
        return np.fromiter(((region, t) for t in ts.tolist()), dtype=object, count=len(ts))

    def contains(self, x):
        if not (isinstance(x, tuple) and len(x) == 2):
            return False
        o, t = x
        return o in self.fibers and self.fibers[o].contains(t)

    def _cmp(self, x, y):
        co = self.outer._cmp(x[0], y[0])
        if co != EQUAL:
            return co
        t, s = x[1], y[1]
        return LESS if t < s else (EQUAL if t == s else GREATER)

    def key(self, p):
        return (self.outer._index[p[0]], p[1])

    def canon_lo(self, lo, closed):
        o, t = (self.outer.labels[0], None) if lo is None else lo
        fib = self.fiber(o)
        end = fib.canon_lo(t, closed)
        if end is None or (end[0] == fib.hi and not end[1]):
            # ]top of fiber o, ...] starts at the bottom of the next fiber
            o = self.outer.successor(o)
            if o is None:
                return None
            end = self.fibers[o].canon_lo(None, True)
        return (o, end[0]), end[1]

    def canon_hi(self, hi, closed):
        o, t = (self.outer.labels[-1], None) if hi is None else hi
        fib = self.fiber(o)
        end = fib.canon_hi(t, closed)
        if end is None or (end[0] == fib.lo and not end[1]):
            o = self.outer.predecessor(o)
            if o is None:
                return None
            end = self.fibers[o].canon_hi(None, True)
        return (o, end[0]), end[1]

    @property
    def complete(self):
        return all(f.complete for f in self.fibers.values())

    def length(self, iv):
        (o1, t1), (o2, t2) = iv.lo, iv.hi
        if o1 != o2:
            raise DomainError("length across lex fibers is not defined")
        return float(t2) - float(t1)

    def close(self, p, q, tol):
        return p[0] == q[0] and abs(p[1] - q[1]) <= tol

    def dense_points(self):
        gens = [(o, self.fibers[o].dense_points()) for o in self.outer.labels]
        while True:
            for o, gen in gens:
                yield (o, next(gen))

    def predecessor_points(self):
        bottoms = ((o, self.fibers[o].lo) for o in self.outer.labels[1:])
        return (x for x in bottoms if self.contains(x) and self.predecessor(x) is not None)

    def random_point(self, rng):
        o = rng.choice(self.outer.labels)
        return (o, self.fibers[o].random_point(rng))

    def parse_endpoint(self, text):
        if not (text.startswith("(") and text.endswith(")") and "," in text):
            raise DomainError(f"lex point must look like '(outer,inner)': {text!r}")
        o, t = (part.strip() for part in text[1:-1].split(",", 1))
        return (o, self.fiber(o).parse_endpoint(t))

    def format_point(self, x):
        o, t = x
        return f"({o},{repr(float(t))})"

    def to_config(self):
        fibers = {o: {k: v for k, v in f.to_config().items() if k != "kind"}
                  for o, f in self.fibers.items()}
        return {"kind": self.kind, "outer": list(self.outer.labels), "fibers": fibers}


def classify_isolation(space: OrderedSpace, x) -> IsolationReport:
    """Left/right isolation of ``x``: an extreme point or an empty gap."""
    space.require(x)
    mn, mx = space.minimum(), space.maximum()
    left = right = False
    lw = rw = None
    if mn is not None and space._cmp(x, mn) == EQUAL:
        left, lw = True, MIN_MARKER
    else:
        pred = space.predecessor(x)
        if pred is not None:
            left, lw = True, pred
    if mx is not None and space._cmp(x, mx) == EQUAL:
        right, rw = True, MAX_MARKER
    else:
        succ = space.successor(x)
        if succ is not None:
            right, rw = True, succ
    return IsolationReport(x, left, right, lw, rw)


def config_number(value, path: str, integral: bool = False):
    """A finite JSON number of a config file, a whole one if ``integral``;
    anything else, booleans included, is a ConfigError naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not abs(value) <= sys.float_info.max \
            or (integral and not float(value).is_integer()):
        want = "integer" if integral else "number"
        raise ConfigError(f"{path}: must be a finite {want}, got {value!r}")
    return value


def space_from_config(block: dict) -> OrderedSpace:
    """Build a space from its config-file block (see the cli module)."""
    if not isinstance(block, dict) or "kind" not in block:
        raise ConfigError("space block must be an object with a 'kind' field")
    kind = block["kind"]

    def labels(field):
        value = block[field]
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise ConfigError(f"space.{field}: must be a list of strings, got {value!r}")
        return value

    def real(spec, path):
        flags = [spec.get(field, True) for field in ("include_lo", "include_hi")]
        if not all(isinstance(flag, bool) for flag in flags):
            raise ConfigError(f"{path}.include_lo/include_hi: must be true or false")
        return RealIntervalSpace(config_number(spec["lo"], f"{path}.lo"),
                                 config_number(spec["hi"], f"{path}.hi"), *flags)
    try:
        if kind == "finite":
            return FiniteSpace(labels("labels"))
        if kind == "int_range":
            return IntRangeSpace(config_number(block["lo"], "space.lo", integral=True),
                                 config_number(block["hi"], "space.hi", integral=True))
        if kind == "real_interval":
            return real(block, "space")
        if kind == "lex":
            fibers = block["fibers"]
            if not (isinstance(fibers, dict) and all(isinstance(f, dict) for f in fibers.values())):
                raise ConfigError("space.fibers: must map each outer label to an object")
            return LexSpace(labels("outer"),
                            {o: real(spec, f"space.fibers.{o}") for o, spec in fibers.items()})
    except KeyError as exc:
        raise ConfigError(f"space.{exc.args[0]}: missing field for kind {kind!r}") from exc
    raise ConfigError(f"space.kind: unknown kind {kind!r}")


def space_to_config(space: OrderedSpace) -> dict:
    return space.to_config()


def random_point(space: OrderedSpace, rng: random.Random):
    return space.random_point(rng)
