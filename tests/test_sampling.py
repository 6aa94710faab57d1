import math
import random

import pytest

from ordercdf import (
    QuadratureSpec, Sampler, UnsupportedSpaceError,
    atom_frequencies, dkw_epsilon, empirical_F, indicator,
    indicator_split_levels, integrate, ks_statistic, measure_of,
    pushforward_check,
)
from ordercdf.instances import COMPLETE_INSTANCE_NAMES, instance_gi
from ordercdf import random_interval_union


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
    quad = QuadratureSpec(subdivisions=4096)
    assert integrate(gi, lambda x: x * x, quad) == pytest.approx(1 / 3, abs=1e-8)


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
    for name in COMPLETE_INSTANCE_NAMES:
        gi = instance_gi(name)
        for _ in range(40):
            u = random_interval_union(gi.space, rng)
            quad = QuadratureSpec(split_at=indicator_split_levels(gi, u))
            got = integrate(gi, indicator(gi.space, u), quad)
            assert got == pytest.approx(measure_of(gi.cdf.spec, u), abs=1e-9)


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
