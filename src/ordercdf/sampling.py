"""Inverse-transform sampling and quantile-side integration.

Sampling draws uniform levels in ]0,1] and maps them through G; it is
refused on incomplete spaces, where G can be undefined on a null set of
levels and the pushforward argument needs every draw to land in X.
Integration uses the identity  integral of g d(mu) = integral of g(G(t)) dt
over ]0,1[, evaluated piecewise: atom plateaus contribute exactly and
affine pieces get a 5-node Gauss-Legendre rule that halves a cell only
where its two half-cell estimates disagree with the whole-cell one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .cdf import Cdf
from .errors import DomainError, IntegrandError, UnsupportedSpaceError
from .intervals import IntervalUnion, as_union
from .measure import measure_of
from .quantile import PseudoInverse

#: Identifier of the generator family recorded in sample metadata.
RNG_ID = "numpy:pcg64"


class Sampler:
    """Deterministic inverse-transform sampler bound to one pseudo-inverse."""

    def __init__(self, gi: PseudoInverse, seed: int):
        if not gi.space.complete:
            raise UnsupportedSpaceError(
                f"sampling needs a complete space; {gi.space.describe()} "
                "is missing suprema, so G is undefined at some levels")
        self.gi = gi
        self.seed = int(seed)
        self._rng = np.random.Generator(np.random.PCG64(self.seed))
        self.draws = 0

    def draw(self, n: int) -> List[object]:
        """n independent points with law mu, as points of the space."""
        if n < 0:
            raise DomainError("sample size must be nonnegative")
        levels = self._rng.random(n)
        self.draws += n
        # levels live in ]0,1]: nudge the measure-zero draw inside
        levels = np.where(levels == 0.0, np.nextafter(0.0, 1.0), levels)
        return self.gi.eval_many(levels)


def dkw_epsilon(n: int, alpha: float = 0.01) -> float:
    """Two-sided DKW band half-width at confidence 1 - alpha."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def empirical_F(space, samples: Sequence[object], x) -> float:
    """Fraction of the sample at or below x."""
    from .spaces import GREATER
    space.require(x)
    if not samples:
        raise DomainError("empirical cdf of an empty sample")
    hits = sum(1 for s in samples if space._cmp(s, x) != GREATER)
    return hits / len(samples)


def atom_frequencies(space, samples: Sequence[object], atoms) -> List[Tuple[object, float]]:
    """Observed relative frequency of each atom point in the sample."""
    from .spaces import EQUAL
    n = len(samples)
    out = []
    for at, _ in atoms:
        hits = sum(1 for s in samples if space._cmp(s, at) == EQUAL)
        out.append((at, hits / n if n else 0.0))
    return out


def ks_statistic(cdf: Cdf, samples: Sequence[object], grid: Sequence[object]) -> float:
    """Max |F_hat - F| over the given evaluation grid."""
    return max(abs(empirical_F(cdf.space, samples, x) - cdf.eval_F(x)) for x in grid)


# ---------------------------------------------------------------------------
# pushforward identity


def pushforward_check(gi: PseudoInverse, subset) -> Tuple[float, float]:
    """(mu(A) geometrically, length of G^{-1}(A) via the cdf formulas).

    The quantile-side length of the preimage of one interval |a,b| is
    F*(b) - F*(a) with the star picked by the closure flag; summed over
    the canonical pieces of the union.
    """
    u = as_union(gi.space, subset)
    geometric = measure_of(gi.cdf.spec, u)
    quantile_side = sum((gi.cdf.interval_measure(iv) for iv in u.intervals), 0.0)
    return geometric, quantile_side


# ---------------------------------------------------------------------------
# integration


@dataclass(frozen=True)
class QuadratureSpec:
    """Where to cut the affine pieces of G before integrating them.

    ``split_at`` lists quantile levels where the integrand is known to jump
    or to have a kink (e.g. the F-value of an indicator's boundary); cells
    start and end there, so an integrand that is constant, or a polynomial
    of degree at most 9, between them is integrated exactly without
    refinement.  List every such level: no sample of the rule falls within
    2.3% of a cell's width of its ends, so it cannot see a kink there.
    """

    split_at: Tuple[float, ...] = ()


#: (node, weight) of the 5-point Gauss-Legendre rule on [-1, 1], exact for
#: polynomials up to degree 9 (Golub & Welsch, 1969).
_GAUSS_LEGENDRE_5 = (
    (-math.sqrt(5 + 2 * math.sqrt(10 / 7)) / 3, (322 - 13 * math.sqrt(70)) / 900),
    (-math.sqrt(5 - 2 * math.sqrt(10 / 7)) / 3, (322 + 13 * math.sqrt(70)) / 900),
    (0.0, 128 / 225),
    (math.sqrt(5 - 2 * math.sqrt(10 / 7)) / 3, (322 + 13 * math.sqrt(70)) / 900),
    (math.sqrt(5 + 2 * math.sqrt(10 / 7)) / 3, (322 - 13 * math.sqrt(70)) / 900),
)

#: A cell is accepted when its halves agree with it to this relative error...
_REFINE_TOL = 1e-13
#: ...or when it has been halved this often (1/1024 of the cell cut at split_at).
_MAX_HALVINGS = 10


def _gauss_legendre(f: Callable[[float], float], lo: float, hi: float) -> float:
    half = 0.5 * (hi - lo)
    mid = lo + half
    return half * sum(w * f(mid + half * x) for x, w in _GAUSS_LEGENDRE_5)


def _refine(f: Callable[[float], float], lo: float, hi: float, whole: float,
            halvings: int = 1) -> float:
    """Integral of f on [lo, hi], given the rule's estimate ``whole`` there."""
    mid = 0.5 * (lo + hi)
    left, right = _gauss_legendre(f, lo, mid), _gauss_legendre(f, mid, hi)
    # written so that a NaN estimate stops the refinement too
    if halvings == _MAX_HALVINGS or \
            not abs(left + right - whole) > _REFINE_TOL * (abs(left) + abs(right)):
        return left + right
    return (_refine(f, lo, mid, left, halvings + 1)
            + _refine(f, mid, hi, right, halvings + 1))


def integrate(gi: PseudoInverse, g: Callable[[object], float],
              quad: QuadratureSpec = QuadratureSpec()) -> float:
    """integral of g d(mu) computed as integral of g(G(t)) dt on ]0,1[."""

    def value(point):
        try:
            return g(point)
        except Exception as exc:
            raise IntegrandError(point, exc) from exc

    total = 0.0
    for piece in gi.pieces:
        if piece.kind == "atom":
            total += value(piece.point) * (piece.r_hi - piece.r_lo)
            continue

        def g_of_G(r):
            return value(piece.point_at(gi.space, r))

        cuts = sorted({piece.r_lo, piece.r_hi,
                       *(r for r in quad.split_at if piece.r_lo < r < piece.r_hi)})
        for lo, hi in zip(cuts, cuts[1:]):
            total += _refine(g_of_G, lo, hi, _gauss_legendre(g_of_G, lo, hi))
    return total


def indicator(space, subset) -> Callable[[object], float]:
    """Indicator integrand of a set in the algebra."""
    u = as_union(space, subset)
    return lambda x: 1.0 if u.member(x) else 0.0


def indicator_split_levels(gi: PseudoInverse, subset) -> Tuple[float, ...]:
    """Quantile levels where the indicator of the set jumps along G."""
    u = as_union(gi.space, subset)
    levels = []
    for iv in u.intervals:
        levels += [gi.cdf._mass_below(end, closed)
                   for end in (iv.lo, iv.hi) for closed in (False, True)]
    return tuple(sorted(set(levels)))
