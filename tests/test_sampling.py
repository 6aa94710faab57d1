import math
import random
import re

import numpy as np
import pytest

from ordercdf import (
    Cdf, DomainError, FiniteSpace, Interval, IntRangeSpace, LexSpace,
    MeasureSpec, PseudoInverse, QuadratureSpec, RealIntervalSpace, Sampler,
    UndefinedPointError, UnsupportedSpaceError,
    atom_frequencies, dkw_epsilon, empirical_F, indicator,
    indicator_split_levels, integrate, ks_statistic, measure_of,
    pushforward_check,
)
from ordercdf.instances import COMPLETE_INSTANCE_NAMES, INSTANCE_NAMES, instance_gi
from ordercdf import random_interval_union

KINDS = ("finite", "int_range", "real_interval", "lex")


def _random_real(rng, complete):
    if complete:
        return RealIntervalSpace(0.0, 1.0)
    return RealIntervalSpace(0.0, 1.0, rng.random() < 0.6, rng.random() < 0.6)


def random_space(kind, rng, complete=False):
    if kind == "finite":
        return FiniteSpace(tuple("abcdefg"[:rng.randint(1, 7)]))
    if kind == "int_range":
        lo = rng.randint(-5, 5)
        return IntRangeSpace(lo, lo + rng.randint(0, 8))
    if kind == "real_interval":
        return _random_real(rng, complete)
    labels = ("p", "q", "r")[:rng.randint(1, 3)]
    return LexSpace(labels, {o: _random_real(rng, complete) for o in labels})


def random_measure(space, rng):
    """Atoms (some on segment ends, some inside segments) plus disjoint segments."""
    segments, ends = [], []
    if space.segments_allowed:
        for region in space.regions:
            fib = space.fiber(region)
            cuts = {rng.uniform(fib.lo, fib.hi) for _ in range(2 * rng.randint(0, 2))}
            cuts |= {end for end in (fib.lo, fib.hi) if rng.random() < 0.5}
            cuts = sorted(cuts)
            for a, b in zip(cuts[::2], cuts[1::2]):
                segments.append(Interval(space.join(region, a), space.join(region, b),
                                         rng.random() < 0.5, rng.random() < 0.5))
                ends += [space.join(region, a), space.join(region, b)]
    atoms = {}
    for _ in range(rng.randint(0 if segments else 1, 4)):
        at = rng.choice(ends) if ends and rng.random() < 0.3 else space.random_point(rng)
        if space.contains(at):
            atoms[space.key(at)] = at
    weights = [rng.random() + 0.05 for _ in range(len(atoms) + len(segments))]
    masses = [w / sum(weights) for w in weights]
    masses[-1] = 1.0 - sum(masses[:-1])
    return MeasureSpec(space, atoms=list(zip(atoms.values(), masses)),
                       segments=list(zip(segments, masses[len(atoms):])))


def random_gis(complete=False, per_kind=20, seed=83):
    rng = random.Random(seed)
    for kind in KINDS:
        for _ in range(per_kind):
            space = random_space(kind, rng, complete)
            yield PseudoInverse(Cdf(space, random_measure(space, rng)))


def signed_zero_gi():
    """Uniform on [-1, -0.0]: G(1) rounds to +0.0 and is clipped, keeping it."""
    space = RealIntervalSpace(-1.0, -0.0)
    spec = MeasureSpec(space, segments=[(Interval(-1.0, -0.0, True, True), 1.0)])
    return PseudoInverse(Cdf(space, spec))


def all_gis(complete=False):
    names = COMPLETE_INSTANCE_NAMES if complete else INSTANCE_NAMES
    return [instance_gi(name) for name in names] + [signed_zero_gi()] \
        + list(random_gis(complete))


def table_levels(gi, rng):
    """Every piece end and its two neighbours, the ends of ]0,1], random levels."""
    levels = []
    for piece in gi.pieces:
        for r in (piece.r_lo, piece.r_hi):
            levels += [np.nextafter(r, -1.0), r, np.nextafter(r, 2.0)]
    levels += [1.0, np.nextafter(0.0, 1.0)] + [rng.random() for _ in range(1000)]
    return [float(r) for r in levels if 0.0 <= r <= 1.0]


def same_points(got, expected):
    """Equal values with the same Python types (and signs of zero)."""
    return got == expected and list(map(repr, got)) == list(map(repr, expected))


def draw_one_by_one(gi, seed, n):
    """The per-level loop that Sampler.draw replaced, kept as its reference."""
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    for r in rng.random(n):
        if r == 0.0:
            r = np.nextafter(0.0, 1.0)
        out.append(gi.eval(float(r)))
    return out


def test_eval_many_equals_try_eval():
    rng = random.Random(89)
    for gi in all_gis():
        levels = table_levels(gi, rng)
        expected = [gi.try_eval(r) for r in levels]
        defined = [(r, p) for r, p in zip(levels, expected) if p is not None]
        got = gi.eval_many(np.array([r for r, _ in defined]))
        assert same_points(got, [p for _, p in defined]), gi.space.describe()
        if len(defined) < len(levels):
            first = levels[expected.index(None)]
            with pytest.raises(UndefinedPointError,
                               match=re.escape(gi.undefined_reason(first))):
                gi.eval_many(np.array(levels))


def test_eval_many_rejects_levels_outside_unit_interval():
    gi = instance_gi("mixed")
    assert gi.eval_many(np.array([])) == []
    for bad in (1.5, -0.1, math.nan):
        with pytest.raises(DomainError, match="outside"):
            gi.eval_many(np.array([0.5, bad]))


def test_draw_equals_the_per_level_loop():
    for gi in all_gis(complete=True):
        for seed in (1, 2, 3):
            got = Sampler(gi, seed).draw(500)
            assert same_points(got, draw_one_by_one(gi, seed, 500)), gi.space.describe()
        assert Sampler(gi, 1).draw(0) == []


def test_reproducible_streams():
    a = Sampler(instance_gi("mixed"), seed=99).draw(200)
    b = Sampler(instance_gi("mixed"), seed=99).draw(200)
    assert a == b
    c = Sampler(instance_gi("mixed"), seed=100).draw(200)
    assert a != c


def test_draw_counter_and_validation():
    s = Sampler(instance_gi("uniform"), seed=1)
    s.draw(10)
    s.draw(5)
    assert s.draws == 15
    with pytest.raises(Exception):
        s.draw(-1)


def test_refuses_incomplete_space():
    with pytest.raises(UnsupportedSpaceError):
        Sampler(instance_gi("open-uniform"), seed=1)


def test_uniform_ks_bound():
    gi = instance_gi("uniform")
    n = 10_000
    samples = Sampler(gi, seed=7).draw(n)
    grid = [i / 20 for i in range(21)]
    assert ks_statistic(gi.cdf, samples, grid) <= 1.63 / math.sqrt(n)


def test_atom_frequencies_mixed():
    gi = instance_gi("mixed")
    samples = Sampler(gi, seed=5).draw(20_000)
    [(at, freq)] = atom_frequencies(gi.space, samples, [(0.5, 0.5)])
    assert freq == pytest.approx(0.5, abs=0.02)


def test_empirical_cdf_dkw_band():
    gi = instance_gi("three-atom")
    n = 20_000
    samples = Sampler(gi, seed=3).draw(n)
    eps = 2 * dkw_epsilon(n)
    for x in gi.cdf.breakpoints():
        assert abs(empirical_F(gi.space, samples, x) - gi.cdf.eval_F(x)) <= eps


def test_pushforward_random_unions():
    rng = random.Random(61)
    for name in COMPLETE_INSTANCE_NAMES:
        gi = instance_gi(name)
        for _ in range(200):
            u = random_interval_union(gi.space, rng)
            geo, quant = pushforward_check(gi, u)
            assert geo == pytest.approx(quant, abs=1e-9)


def test_integrate_atoms_exact():
    gi = instance_gi("three-atom")
    values = {"a": 2.0, "b": -1.0, "c": 10.0}
    assert integrate(gi, values.__getitem__) == 0.2 * 2.0 + 0.3 * -1.0 + 0.5 * 10.0


def test_uniform_mean_and_square():
    gi = instance_gi("uniform")
    assert integrate(gi, lambda x: x) == pytest.approx(0.5, abs=1e-8)
    assert integrate(gi, lambda x: x * x) == pytest.approx(1 / 3, abs=1e-8)


def test_integrate_linearity():
    gi = instance_gi("mixed")
    rng = random.Random(67)
    for _ in range(20):
        a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
        g = lambda x: x * x - 1.0
        h = lambda x: 3.0 * x
        combined = integrate(gi, lambda x: a * g(x) + b * h(x))
        assert combined == pytest.approx(a * integrate(gi, g) + b * integrate(gi, h),
                                         abs=1e-10)


def test_indicator_coherence():
    rng = random.Random(71)
    gis = [instance_gi(name) for name in COMPLETE_INSTANCE_NAMES] + list(random_gis(per_kind=5))
    for gi in gis:
        for _ in range(40):
            u = random_interval_union(gi.space, rng)
            quad = QuadratureSpec(split_at=indicator_split_levels(gi, u))
            g = Counted(indicator(gi.space, u))
            got = integrate(gi, g, quad)
            assert got == pytest.approx(measure_of(gi.cdf.spec, u), abs=1e-12)
            assert g.calls <= calls_per_cell(gi, quad.split_at, 15), gi.space.describe()


def test_integrand_errors_carry_the_point():
    from ordercdf import IntegrandError
    gi = instance_gi("uniform")

    def bad(x):
        if x > 0.7:
            raise ValueError("boom")
        return x

    with pytest.raises(IntegrandError) as err:
        integrate(gi, bad)
    assert err.value.point > 0.7


# ---------------------------------------------------------------------------
# the self-refining Gauss-Legendre rule


class Counted:
    """An integrand that counts its calls."""

    def __init__(self, g):
        self.g = g
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.g(x)


def calls_per_cell(gi, split_at, per_cell):
    """``per_cell`` calls for each cell the affine pieces are cut into at
    ``split_at``, plus one call per atom."""
    calls = 0
    for piece in gi.pieces:
        if piece.kind == "atom":
            calls += 1
            continue
        cuts = sorted({piece.r_lo, piece.r_hi,
                       *(r for r in split_at if piece.r_lo < r < piece.r_hi)})
        calls += per_cell * (len(cuts) - 1)
    return calls


def midpoint_integrate(gi, g):
    """The 1024-cell midpoint loop that the Gauss-Legendre rule replaced,
    kept as the reference it must not do worse than."""
    total = 0.0
    for piece in gi.pieces:
        if piece.kind == "atom":
            total += g(piece.point) * (piece.r_hi - piece.r_lo)
            continue
        step = (piece.r_hi - piece.r_lo) / 1024
        for i in range(1024):
            total += g(piece.point_at(gi.space, piece.r_lo + (i + 0.5) * step)) * step
    return total


def numeric_gis(seed, per_kind=20):
    """Seeded random measures on real intervals and lex products, with atoms
    inside segments (one forced into each segment) and random masses."""
    rng = random.Random(seed)
    for kind in ("real_interval", "lex"):
        for _ in range(per_kind):
            space = random_space(kind, rng)
            spec = random_measure(space, rng)
            atoms = [(a.at, a.mass) for a in spec.atoms]
            for seg in spec.segments:
                region, u = space.split(seg.interval.lo)
                atoms.append((space.join(region, u + (space.split(seg.interval.hi)[1] - u)
                                         * rng.uniform(0.2, 0.8)), rng.random()))
            masses = [m for _, m in atoms] + [seg.mass for seg in spec.segments]
            total = sum(masses)
            masses = [m / total for m in masses]
            masses[-1] = 1.0 - sum(masses[:-1])
            spec = MeasureSpec(space, atoms=[(at, m) for (at, _), m in zip(atoms, masses)],
                               segments=[(seg.interval, m) for seg, m
                                         in zip(spec.segments, masses[len(atoms):])])
            yield PseudoInverse(Cdf(space, spec))


def closed_form(gi, f, antiderivative):
    """integral of f(inner coordinate) d(mu), summed over atoms and segments."""
    space, spec = gi.space, gi.cdf.spec
    total = sum(a.mass * f(space.split(a.at)[1]) for a in spec.atoms)
    for seg in spec.segments:
        u, v = space.split(seg.interval.lo)[1], space.split(seg.interval.hi)[1]
        total += seg.density * (antiderivative(v) - antiderivative(u))
    return total


def of_inner(gi, f):
    return lambda p: f(gi.space.split(p)[1])


def polynomial(coefs):
    f = lambda y: sum(c * y ** k for k, c in enumerate(coefs))
    antiderivative = lambda y: sum(c * y ** (k + 1) / (k + 1) for k, c in enumerate(coefs))
    return f, antiderivative


def test_integrate_smooth_integrands_to_closed_form():
    rng = random.Random(97)
    for gi in numeric_gis(101):
        # (f, antiderivative, calls per cell): a polynomial of degree <= 9 is
        # exact on the first cell; the depth cap bounds the other integrands
        cases = [(*polynomial([rng.uniform(-1, 1) for _ in range(degree + 1)]), 15)
                 for degree in range(10)]
        cases += [(math.exp, math.exp, 10235),
                  (lambda y: math.sin(20 * y), lambda y: -math.cos(20 * y) / 20, 10235)]
        for f, antiderivative, per_cell in cases:
            g = Counted(of_inner(gi, f))
            got = integrate(gi, g)
            assert abs(got - closed_form(gi, f, antiderivative)) <= 1e-12, gi.space.describe()
            assert g.calls <= calls_per_cell(gi, (), per_cell), gi.space.describe()


def test_integrate_sqrt_no_worse_than_midpoint():
    for gi in numeric_gis(109):
        exact = closed_form(gi, math.sqrt, lambda y: 2 / 3 * y ** 1.5)
        got = integrate(gi, of_inner(gi, math.sqrt))
        reference = midpoint_integrate(gi, of_inner(gi, math.sqrt))
        assert abs(got - exact) <= abs(reference - exact), gi.space.describe()


def test_integrate_kink_listed_in_split_at():
    rng = random.Random(113)
    for gi in numeric_gis(127):
        c = rng.random()
        kinks = tuple(gi.cdf.eval_F(gi.space.join(region, c)) for region in gi.space.regions
                      if gi.space.fiber(region).contains(c))
        f = lambda y: abs(y - c)
        got = integrate(gi, of_inner(gi, f), QuadratureSpec(split_at=kinks))
        exact = closed_form(gi, f, lambda y: (y - c) * abs(y - c) / 2)
        assert abs(got - exact) <= 1e-12, gi.space.describe()


def test_integrate_nan_stops_at_the_first_step():
    for gi in numeric_gis(131, per_kind=5):
        g = Counted(lambda p: math.nan)
        assert math.isnan(integrate(gi, g))
        assert g.calls == calls_per_cell(gi, (), 15)


def test_integrate_refines_at_most_ten_times():
    rng = random.Random(137)
    for name in ("uniform", "mixed", "gapped", "lex-mixed"):
        gi = instance_gi(name)
        g = Counted(lambda p: rng.random())  # never agrees with its halves
        integrate(gi, g)
        assert g.calls == calls_per_cell(gi, (), 10235), name
