import itertools
import random

import pytest

from ordercdf import (
    Cdf, DomainError, FiniteSpace, H_LADDER, Interval, IntervalUnion,
    MeasureSpec, RealIntervalSpace, cdfs_equal_on_dense,
    measure_of, measure_uniqueness_check,
)
from ordercdf.instances import instance_cdf
from ordercdf import random_interval, random_point


def test_classical_uniform_values():
    cdf = instance_cdf("uniform")
    for x in (0.0, 0.25, 1.0):
        assert cdf.eval_F(x) == pytest.approx(x, abs=1e-15)
    assert cdf.eval_F_minus(0.3) == pytest.approx(0.3)


def test_mixed_values():
    cdf = instance_cdf("mixed")
    assert cdf.eval_F(0.5) == pytest.approx(0.75)
    assert cdf.eval_F_minus(0.5) == pytest.approx(0.25)


def test_three_atom_values():
    cdf = instance_cdf("three-atom")
    assert cdf.eval_F("a") == pytest.approx(0.2)
    assert cdf.eval_F("b") == pytest.approx(0.5)
    assert cdf.eval_F("c") == pytest.approx(1.0)
    assert cdf.eval_F_minus("a") == 0.0


def test_jump_identity_exact():
    rng = random.Random(2)
    for name in ("uniform", "mixed", "gapped", "three-atom", "lex-mixed"):
        cdf = instance_cdf(name)
        for _ in range(300):
            x = random_point(cdf.space, rng)
            assert cdf.eval_F(x) - cdf.eval_F_minus(x) == cdf.spec.atom_mass_at(x)


def test_interval_measure_examples():
    cdf = instance_cdf("mixed")
    assert cdf.interval_measure(Interval(0.5, 0.5, True, True)) == pytest.approx(0.5)
    uni = instance_cdf("uniform")
    assert uni.interval_measure(Interval(0.2, 0.7, False, False)) == pytest.approx(0.5)


def test_interval_measure_matches_geometric():
    rng = random.Random(9)
    for name in ("uniform", "mixed", "gapped", "three-atom", "lex-mixed"):
        cdf = instance_cdf(name)
        for _ in range(400):
            iv = random_interval(cdf.space, rng)
            geo = measure_of(cdf.spec, IntervalUnion(cdf.space, (iv,)))
            assert cdf.interval_measure(iv) == pytest.approx(geo, abs=1e-12)


def test_one_sided_companions():
    mixed = instance_cdf("mixed")
    assert mixed.sup_F_below(0.5) == pytest.approx(0.25)
    assert mixed.inf_Fminus_above(0.5) == pytest.approx(0.75)
    uni = instance_cdf("uniform")
    assert uni.sup_F_below(0.4) == pytest.approx(0.4)
    assert uni.inf_Fminus_above(0.4) == pytest.approx(0.4)
    atoms = instance_cdf("three-atom")
    assert atoms.sup_F_below("b") == pytest.approx(0.2)
    assert atoms.inf_Fminus_above("b") == pytest.approx(0.5)


def test_one_sided_companions_empty_side():
    cdf = instance_cdf("uniform")
    with pytest.raises(DomainError):
        cdf.sup_F_below(0.0)
    with pytest.raises(DomainError):
        cdf.inf_Fminus_above(1.0)


def test_right_continuity_ladder():
    # |F(x+h) - F(x)| <= density*h + 1e-12 down the ladder
    for name in ("uniform", "mixed", "gapped", "open-uniform", "lex-mixed"):
        cdf = instance_cdf(name)
        density = cdf.spec.max_density
        for x in cdf.breakpoints():
            for y in cdf._ladder_points_above(x):
                h = _gap(cdf.space, x, y)
                assert abs(cdf.eval_F(y) - cdf.eval_F(x)) <= density * h + 1e-12


def test_left_limits_ladder():
    # F(x-h) converges to F_minus(x), not to F(x), at atoms
    for name in ("uniform", "mixed", "gapped", "open-uniform", "lex-mixed"):
        cdf = instance_cdf(name)
        density = cdf.spec.max_density
        for x in cdf.breakpoints():
            for y in cdf._ladder_points_below(x):
                h = _gap(cdf.space, y, x)
                assert abs(cdf.eval_F(y) - cdf.eval_F_minus(x)) <= density * h + 1e-12


def _gap(space, lo, hi):
    if isinstance(space, RealIntervalSpace):
        return float(hi) - float(lo)
    return hi[1] - lo[1]


def test_edge_limit_on_space_without_minimum():
    """inf F over the dense enumeration reaches 1e-6 within the budget."""
    cdf = instance_cdf("open-uniform")
    best = 1.0
    for x in itertools.islice(cdf.space.dense_points(), 1_000_000):
        best = min(best, cdf.eval_F(x))
        if best <= 1e-6:
            break
    assert best <= 1e-6


def test_discontinuities_are_the_atoms():
    assert instance_cdf("uniform").discontinuities() == []
    assert instance_cdf("mixed").discontinuities() == [(0.5, 0.5)]
    assert len(instance_cdf("three-atom").discontinuities()) == 3


def test_uniqueness_same_measure_two_decompositions():
    space = RealIntervalSpace(0.0, 1.0)
    one = MeasureSpec(space, atoms=[(0.5, 0.5)],
                      segments=[(Interval(0.0, 1.0, True, True), 0.5)])
    two = MeasureSpec(space, atoms=[(0.5, 0.5)],
                      segments=[(Interval(0.0, 0.5, True, True), 0.25),
                                (Interval(0.5, 1.0, False, True), 0.25)])
    verdict = measure_uniqueness_check(Cdf(space, one), Cdf(space, two),
                                       n_random=500)
    assert verdict
    assert verdict.witness is None
    assert cdfs_equal_on_dense(Cdf(space, one), Cdf(space, two))


def test_uniqueness_distinguishes_different_measures():
    space = RealIntervalSpace(0.0, 1.0)
    uniform = Cdf(space, MeasureSpec(
        space, segments=[(Interval(0.0, 1.0, True, True), 1.0)]))
    mixed = Cdf(space, MeasureSpec(
        space, atoms=[(0.5, 0.5)],
        segments=[(Interval(0.0, 1.0, True, True), 0.5)]))
    verdict = measure_uniqueness_check(uniform, mixed, n_random=100)
    assert not verdict
    assert verdict.witness is not None
    assert not cdfs_equal_on_dense(uniform, mixed)


def test_cdf_rejects_foreign_spec():
    space_a = RealIntervalSpace(0.0, 1.0)
    other = RealIntervalSpace(0.0, 1.0)
    spec = MeasureSpec(other, segments=[(Interval(0.0, 1.0, True, True), 1.0)])
    with pytest.raises(DomainError):
        Cdf(space_a, spec)
