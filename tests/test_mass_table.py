"""One table of cumulative masses: F, F_minus and G read the same levels.

Seeded property tests on random measures of all four kinds, probed where
the identities are easiest to break: at the levels F(a) and F_minus(a)
of every breakpoint a.  The per-call scan over atoms and segments that F
used before the table is kept here as an independent reference, and so
is the pairwise overlap test that the sweep in MeasureSpec replaced.
"""
import random

import pytest

from ordercdf import (
    Cdf, ConstructionError, FiniteSpace, Interval, IntervalUnion, IntRangeSpace,
    LexSpace, MeasureSpec, PseudoInverse, RealIntervalSpace,
)
from ordercdf.spaces import GREATER, LESS

KINDS = ("finite", "int_range", "real_interval", "lex")


def scan_F_minus(spec, x):
    """mu(< x) summed atom by atom and segment by segment."""
    space = spec.space
    total = 0.0
    for a in spec.atoms:
        if space._cmp(a.at, x) == LESS:
            total += a.mass
    key = space.key(x)
    for s in spec.segments:
        if key >= space.key(s.interval.hi):
            total += s.mass
        elif key > space.key(s.interval.lo):
            total += s.density * (space.split(x)[1] - space.split(s.interval.lo)[1])
    return total


def scan_F(spec, x):
    return scan_F_minus(spec, x) + spec.atom_mass_at(x)


def pairwise_overlap(space, intervals):
    """Whether two of the intervals share a piece of positive length."""
    for i, a in enumerate(intervals):
        for b in intervals[i + 1:]:
            inter = IntervalUnion(space, (a,)).intersect(IntervalUnion(space, (b,)))
            if any(space.length(iv) > 0 for iv in inter.intervals):
                return True
    return False


def _real(rng):
    return RealIntervalSpace(0.0, 1.0, rng.random() < 0.7, rng.random() < 0.7)


def random_space(kind, rng):
    if kind == "finite":
        return FiniteSpace(tuple(f"l{i}" for i in range(rng.randint(1, 30))))
    if kind == "int_range":
        lo = rng.randint(-20, 20)
        return IntRangeSpace(lo, lo + rng.randint(0, 40))
    if kind == "real_interval":
        return _real(rng)
    labels = ("p", "q", "r")[:rng.randint(1, 3)]
    return LexSpace(labels, {o: _real(rng) for o in labels})


def masses(rng, n):
    """n positive masses normalised in floating point: their exact sum is
    within a few ulps of 1, not always 1."""
    weights = [rng.random() + 0.05 for _ in range(n)]
    total = sum(weights)
    return [w / total for w in weights]


def random_measure(space, rng):
    """Up to 40 atoms and 20 segments per fiber; many atoms on segment ends
    or inside segments, where the table splits an affine piece."""
    segments, ends = [], []
    if space.segments_allowed:
        for region in space.regions:
            fib = space.fiber(region)
            cuts = sorted({rng.uniform(fib.lo, fib.hi) for _ in range(2 * rng.randint(0, 20))})
            for a, b in zip(cuts[::2], cuts[1::2]):
                segments.append(Interval(space.join(region, a), space.join(region, b),
                                         rng.random() < 0.5, rng.random() < 0.5))
                ends += [space.join(region, a), space.join(region, b),
                         space.join(region, rng.uniform(a, b))]
    atoms = {}
    for _ in range(rng.randint(0 if segments else 1, 40)):
        at = rng.choice(ends) if ends and rng.random() < 0.5 else space.random_point(rng)
        if space.contains(at):
            atoms[space.key(at)] = at
    m = masses(rng, len(atoms) + len(segments))
    return MeasureSpec(space, atoms=list(zip(atoms.values(), m)),
                       segments=list(zip(segments, m[len(atoms):])))


def later_fiber_lex():
    """Query points in fiber q sit below the end of fiber p's segment."""
    space = LexSpace(("p", "q"), {"p": RealIntervalSpace(0.0, 1.0),
                                  "q": RealIntervalSpace(0.0, 1.0)})
    spec = MeasureSpec(space, atoms=[(("q", 0.1), 0.25), (("p", 0.5), 0.125)],
                       segments=[(Interval(("p", 0.2), ("p", 0.9), True, True), 0.375),
                                 (Interval(("q", 0.3), ("q", 0.8), True, False), 0.25)])
    return space, spec


def light_last_atom():
    """Masses summing to 1 + 5e-13, the last lighter than the excess."""
    space = FiniteSpace(("a", "b", "c"))
    return space, MeasureSpec(space, atoms=[("a", 0.6000000000005), ("b", 0.3999999999999),
                                            ("c", 1e-13)])


def measures(seed=5, per_kind=30):
    rng = random.Random(seed)
    for kind in KINDS:
        for _ in range(per_kind):
            space = random_space(kind, rng)
            yield space, random_measure(space, rng)
    yield later_fiber_lex()
    yield light_last_atom()


def test_later_fiber_points_count_the_whole_earlier_fiber():
    space, spec = later_fiber_lex()
    cdf = Cdf(space, spec)
    assert cdf.eval_F_minus(("q", 0.1)) == 0.5
    assert cdf.eval_F(("q", 0.1)) == 0.75
    assert cdf.eval_F(("q", 0.5)) == pytest.approx(0.85, abs=1e-15)
    assert cdf.eval_F(("q", 0.8)) == 1.0


def test_adjunction_is_exact_at_breakpoint_levels():
    """G(r) <= x iff r <= F(x), exactly, at r = F(a) and r = F_minus(a)."""
    rng = random.Random(11)
    for space, spec in measures():
        cdf = Cdf(space, spec)
        gi = PseudoInverse(cdf)
        breakpoints = cdf.breakpoints()
        xs = breakpoints + [space.random_point(rng) for _ in range(20)]
        F_at = [cdf.eval_F(x) for x in xs]
        levels = sorted({f(a) for a in breakpoints for f in (cdf.eval_F, cdf.eval_F_minus)})
        for r in levels:
            point = gi.try_eval(r)  # must not raise
            if point is None:
                continue
            for x, F_x in zip(xs, F_at):
                below = space._cmp(point, x) != GREATER
                assert below == (r <= F_x), (spec.space.describe(), r, point, x, F_x)


def test_total_mass_is_exactly_one():
    cdfs = [Cdf(space, spec) for space, spec in measures()]
    for cdf in cdfs:
        top = cdf.space.maximum()
        if top is not None:
            assert cdf.eval_F(top) == 1.0, cdf.space.describe()
    assert all(cdf.pieces[-1].r_hi == 1.0 for cdf in cdfs)
    assert all(p.r_hi <= 1.0 for cdf in cdfs for p in cdf.pieces)


def test_F_and_F_minus_agree_with_the_scan():
    rng = random.Random(12)
    for space, spec in measures():
        cdf = Cdf(space, spec)
        for x in cdf.breakpoints() + [space.random_point(rng) for _ in range(40)]:
            assert cdf.eval_F(x) == pytest.approx(scan_F(spec, x), abs=1e-12)
            assert cdf.eval_F_minus(x) == pytest.approx(scan_F_minus(spec, x), abs=1e-12)


def _random_segments(space, rng):
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    out = []
    for _ in range(rng.randint(1, 5)):
        region = rng.choice(space.regions)
        a, b = sorted(rng.sample(grid, 2))
        out.append(Interval(space.join(region, a), space.join(region, b),
                            rng.random() < 0.5, rng.random() < 0.5))
    return out


@pytest.mark.parametrize("space", [
    RealIntervalSpace(0.0, 1.0),
    LexSpace(("p", "q"), {"p": RealIntervalSpace(0.0, 1.0),
                          "q": RealIntervalSpace(0.0, 1.0)}),
], ids=["real_interval", "lex"])
def test_overlap_sweep_matches_the_pairwise_check(space):
    rng = random.Random(13)
    cases = [[Interval(space.join(space.regions[0], 0.0), space.join(space.regions[0], 0.5),
                       True, True),
              Interval(space.join(space.regions[0], 0.5), space.join(space.regions[0], 1.0),
                       True, True)]]
    cases += [_random_segments(space, rng) for _ in range(400)]
    verdicts = set()
    for segments in cases:
        overlap = pairwise_overlap(space, segments)
        verdicts.add(overlap)
        spec = list(zip(segments, masses(rng, len(segments))))
        if overlap:
            with pytest.raises(ConstructionError, match="overlap"):
                MeasureSpec(space, segments=spec)
        else:
            MeasureSpec(space, segments=spec)
    assert verdicts == {True, False}
