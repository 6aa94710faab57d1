"""The pseudo-inverse G(r) = inf of the super-level set of F at r.

G reads the closed-form piece table of its cdf (see the cdf module): a
constant piece per atom (its plateau of quantile levels) and an affine
piece per uniform segment run, split wherever an atom sits inside a
segment.  The definitional grid scan lives in the oracle module and is
kept independent so the closed form is genuinely tested.

The table is read two ways.  ``try_eval`` maps one level with a bisect
over the piece list; ``eval_many`` maps a whole level array at once from
NumPy columns of the same table, with the same IEEE operations in the
same order, so both return the same points bit for bit.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from .cdf import Cdf, GPiece
from .errors import DomainError, PropositionViolation, UndefinedPointError
from .intervals import Interval, IntervalUnion, singleton
from .measure import atom_set
from .spaces import EQUAL, GREATER, LESS


@dataclass(frozen=True)
class UnitInterval:
    """A sub-interval of [0,1], used for plateaus and G-preimages."""

    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool

    @property
    def is_empty(self) -> bool:
        if self.hi < self.lo:
            return True
        return self.hi == self.lo and not (self.lo_closed and self.hi_closed)

    @property
    def length(self) -> float:
        return max(self.hi - self.lo, 0.0)

    def contains(self, r: float) -> bool:
        if r < self.lo or (r == self.lo and not self.lo_closed):
            return False
        if r > self.hi or (r == self.hi and not self.hi_closed):
            return False
        return True


@dataclass(frozen=True)
class _PieceColumns:
    """One NumPy column per field of the G pieces, read by ``eval_many``.

    Atom pieces hold their point, checked against X here, once, in
    ``atom_ok``, and placeholder affine fields (density 1 keeps the
    vector division finite).  ``region`` indexes ``regions`` on affine
    pieces and is -1 on atoms.
    """

    r_lo: np.ndarray
    r_hi: np.ndarray
    u: np.ndarray
    v: np.ndarray
    density: np.ndarray
    points: np.ndarray
    regions: list
    region: np.ndarray
    atom_ok: np.ndarray

    @classmethod
    def of(cls, space, pieces: List[GPiece]) -> "_PieceColumns":
        def column(values, dtype=np.float64):
            return np.fromiter(values, dtype=dtype, count=len(pieces))

        regions = list(dict.fromkeys(p.region for p in pieces if p.kind == "affine"))
        index = {region: i for i, region in enumerate(regions)}
        return cls(
            r_lo=column(p.r_lo for p in pieces),
            r_hi=column(p.r_hi for p in pieces),
            u=column(p.u for p in pieces),
            v=column(p.v for p in pieces),
            density=column(p.density if p.kind == "affine" else 1.0 for p in pieces),
            points=column((p.point for p in pieces), object),
            regions=regions,
            region=column((index[p.region] if p.kind == "affine" else -1 for p in pieces),
                          np.intp),
            atom_ok=column((p.kind == "atom" and space.contains(p.point) for p in pieces),
                           bool))


def _level_outside(r: float) -> DomainError:
    return DomainError(f"quantile level {r!r} outside [0, 1]")


class PseudoInverse:
    """Partial map G from [0,1] into the space, with explicit verdicts."""

    def __init__(self, cdf: Cdf):
        self.cdf = cdf
        self.space = cdf.space
        self.pieces = cdf.pieces
        self._r_his = [p.r_hi for p in self.pieces]

    @cached_property
    def _columns(self) -> "_PieceColumns":
        """The piece table as NumPy columns, built on the first :meth:`eval_many`.

        A table only ever read through :meth:`try_eval` never builds them.
        """
        return _PieceColumns.of(self.space, self.pieces)

    # -- evaluation ----------------------------------------------------
    def try_eval(self, r: float) -> Optional[object]:
        """G(r) as a point of X, or None when the infimum is not in X."""
        if not 0.0 <= r <= 1.0:
            raise _level_outside(r)
        if r == 0.0:
            # the super-level set at 0 is all of X
            return self.space.minimum()
        idx = bisect.bisect_left(self._r_his, r)  # below len: the last r_hi is 1
        point = self.pieces[idx].point_at(self.space, r)
        return point if self.space.contains(point) else None

    def eval_many(self, levels) -> List[object]:
        """G at every level of a float64 array, as a list of points.

        The vector form of :meth:`eval`: the same points as one
        ``try_eval`` call per level, the same errors for the first level
        that has none.
        """
        levels = np.asarray(levels, dtype=np.float64)
        outside = ~((levels >= 0.0) & (levels <= 1.0))
        if outside.any():
            raise _level_outside(float(levels[np.argmax(outside)]))
        col = self._columns
        idx = np.searchsorted(col.r_hi, levels, side="left")
        region_of = col.region[idx]
        u, v = col.u[idx], col.v[idx]
        coord = u + (levels - col.r_lo[idx]) / col.density[idx]
        # min(max(coord, u), v) as GPiece.point_at has it: Python's tie
        # rule keeps the first argument, which np.maximum does not on
        # signed zeros
        coord = np.where(u > coord, u, coord)
        coord = np.where(v < coord, v, coord)
        out = col.points[idx]
        ok = col.atom_ok[idx]
        for i, region in enumerate(col.regions):
            on = region_of == i
            if on.any():
                ts = coord[on]
                ok[on] = self.space.fiber(region).contains_many(ts)
                out[on] = self.space.join_many(region, ts)
        for i in np.flatnonzero(levels == 0.0):
            # the super-level set at 0 is all of X
            out[i] = self.space.minimum()
            ok[i] = out[i] is not None
        if not ok.all():
            raise UndefinedPointError(self.undefined_reason(float(levels[np.argmin(ok)])))
        return out.tolist()

    def eval(self, r: float):
        point = self.try_eval(r)
        if point is None:
            raise UndefinedPointError(self.undefined_reason(r))
        return point

    def is_defined(self, r: float) -> bool:
        return self.try_eval(r) is not None

    def undefined_reason(self, r: float) -> str:
        if r == 0.0:
            return ("G(0) is the infimum of all of X, and the space "
                    f"{self.space.describe()} has no minimum")
        return (f"the super-level set at level {r!r} has an infimum at an "
                f"excluded boundary of {self.space.describe()}")

    # -- order-theoretic diagnostics ----------------------------------
    def galois_check(self, r: float, x) -> Optional[bool]:
        """(G(r) <= x) with the adjunction (r <= F(x)) cross-asserted.

        Returns None (inapplicable) when G is undefined at r.
        """
        self.space.require(x)
        point = self.try_eval(r)
        if point is None:
            return None
        left = self.space._cmp(point, x) != GREATER
        right = r <= self.cdf.eval_F(x)
        if left != right:
            raise PropositionViolation(
                f"Galois adjunction broken at r={r!r}, x={x!r}: "
                f"G(r)={point!r}, F(x)={self.cdf.eval_F(x)!r}")
        return left

    def sandwich_check(self, r: float) -> Tuple[float, float]:
        """(F_minus(G(r)), F(G(r))) with F_minus <= r <= F asserted."""
        point = self.eval(r)
        lo = self.cdf.eval_F_minus(point)
        hi = self.cdf.eval_F(point)
        if not (lo <= r + 1e-12 and r <= hi + 1e-12):
            raise PropositionViolation(
                f"sandwich broken at r={r!r}: ({lo}, {hi}) around G(r)={point!r}")
        if hi > r + 1e-9 and self.cdf.spec.atom_mass_at(point) <= 0.0:
            raise PropositionViolation(
                f"F(G(r)) > r at r={r!r} without an atom at G(r)={point!r}")
        return lo, hi

    def plateau_of(self, x) -> UnitInterval:
        """Quantile levels all mapping to x: ]F_minus(x), F(x)]."""
        self.space.require(x)
        return UnitInterval(self.cdf.eval_F_minus(x), self.cdf.eval_F(x), False, True)

    def preimage_open_interval(self, a, b) -> UnitInterval:
        """G^{-1}(]a,b[) = ]F(a), F_minus(b)| with the bar decided per query.

        The right endpoint is included exactly when G(F_minus(b)) lands
        inside ]a,b[; that membership test resolves the wildcard.
        """
        self.space.require(a)
        self.space.require(b)
        if self.space._cmp(a, b) != LESS:
            raise DomainError("preimage needs a < b")
        lo = self.cdf.eval_F(a)
        hi = self.cdf.eval_F_minus(b)
        if hi <= lo:
            return UnitInterval(lo, lo, False, False)
        point = self.try_eval(hi)
        hi_closed = point is not None and \
            self.space._cmp(a, point) == LESS and self.space._cmp(point, b) == LESS
        return UnitInterval(lo, hi, False, hi_closed)


# ---------------------------------------------------------------------------
# injectivity / bijectivity diagnostics


def is_G_injective(gi: PseudoInverse) -> Tuple[bool, Optional[UnitInterval]]:
    """G is injective exactly when the measure has no atoms."""
    atoms = atom_set(gi.cdf.spec)
    if not atoms:
        return True, None
    return False, gi.plateau_of(atoms[0][0])


def _witness_top(space, piece: Interval, spec):
    """A point b inside/at the top of a null piece with mu(]lo, b]) = 0."""
    hi = piece.hi
    if space.contains(hi) and spec.atom_mass_at(hi) == 0.0:
        return hi
    # only a real fiber can end a null piece at an atom or a quasi-point
    region, t2 = space.split(hi)
    lo_region, t1 = space.split(piece.lo)
    if lo_region != region:
        t1 = space.fiber(region).lo
    return space.join(region, (t1 + t2) / 2.0)


def is_F_injective(cdf: Cdf) -> Tuple[bool, Optional[Interval]]:
    """F is injective iff every half-open ]a,b] carries mass.

    The witness on failure is a maximal null half-open interval.
    """
    space, spec = cdf.space, cdf.spec
    support = IntervalUnion(
        space,
        [s.interval for s in spec.segments] + [singleton(a.at) for a in spec.atoms],
    )
    for piece in support.complement().intervals:
        if space._cmp(piece.lo, piece.hi) == LESS:
            b = _witness_top(space, piece, spec)
            return False, Interval(piece.lo, b, False, True)
    # a point with a predecessor and no atom is a one-step null interval
    for x in space.predecessor_points():
        if spec.atom_mass_at(x) == 0.0:
            return False, Interval(space.predecessor(x), x, False, True)
    return True, None


@dataclass(frozen=True)
class BijectivityReport:
    """The four equivalent conditions, evaluated independently."""

    identities_hold: bool        # F∘G = id on A and G∘F = id on X
    f_injective_onto: bool       # F injective and F(X) = A
    g_bijective: bool            # sampled collision + coverage testing
    support_atom_condition: bool # every ]a,b] charged and no atoms
    details: dict = field(default_factory=dict)

    @property
    def consistent(self) -> bool:
        return (self.identities_hold == self.f_injective_onto
                == self.g_bijective == self.support_atom_condition)


def bijectivity_report(gi: PseudoInverse, n_probes: int = 200,
                       seed: int = 7, tol: float = 1e-9) -> BijectivityReport:
    import itertools
    import random as _random

    cdf, space = gi.cdf, gi.space
    rng = _random.Random(seed)
    xs = list(itertools.islice(space.dense_points(), 64))
    xs += [space.random_point(rng) for _ in range(n_probes)]
    rs = [rng.random() for _ in range(n_probes)] + [0.25, 0.5, 0.75, 1.0]

    def fg_identity(r):
        point = gi.try_eval(r)
        return point is not None and abs(cdf.eval_F(point) - r) <= tol

    def gf_identity(x):
        point = gi.try_eval(cdf.eval_F(x))
        return point is not None and space.close(point, x, tol)

    fog = all(fg_identity(r) for r in rs)
    gof = all(gf_identity(x) for x in xs)
    identities = fog and gof

    f_inj, f_witness = is_F_injective(cdf)
    f_onto = f_inj and fog and all(gi.is_defined(cdf.eval_F(x)) for x in xs)

    # G injectivity: random pairs plus deterministic probes inside plateaus
    pairs = []
    for _ in range(n_probes):
        r, s = sorted((rng.random(), rng.random()))
        if s - r > 1e-7:
            pairs.append((r, s))
    for at, _ in atom_set(cdf.spec):
        plat = gi.plateau_of(at)
        if plat.length > 0:
            mid = (plat.lo + plat.hi) / 2
            pairs.append((mid - plat.length / 4, mid + plat.length / 4))
    injective = True
    for r, s in pairs:
        p, q = gi.try_eval(r), gi.try_eval(s)
        if p is not None and q is not None and space._cmp(p, q) == EQUAL:
            injective = False
            break
    surjective = gof
    g_bij = injective and surjective

    no_atoms = not atom_set(cdf.spec)
    cond4 = f_inj and no_atoms

    report = BijectivityReport(
        identities_hold=identities,
        f_injective_onto=f_onto,
        g_bijective=g_bij,
        support_atom_condition=cond4,
        details={
            "F_injective": f_inj,
            "F_injectivity_witness": f_witness,
            "G_injective_sampled": injective,
            "G_surjective_sampled": surjective,
            "atom_free": no_atoms,
        },
    )
    if not report.consistent:
        raise PropositionViolation(
            f"bijectivity conditions disagree: {report}")
    return report
