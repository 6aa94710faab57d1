import random

import pytest

from ordercdf import (
    ConstructionError, FiniteSpace, Interval, IntervalUnion, MeasureSpec,
    RealIntervalSpace, atom_set, measure_of, singleton,
)
from ordercdf.instances import instance
from ordercdf import random_interval_union


def test_rejects_bad_total_mass():
    space = FiniteSpace(("a", "b"))
    with pytest.raises(ConstructionError, match="total_mass"):
        MeasureSpec(space, atoms=[("a", 0.4), ("b", 0.5)])


def test_rejects_empty_spec():
    with pytest.raises(ConstructionError, match="total_mass"):
        MeasureSpec(FiniteSpace(("a",)))


def test_rejects_atom_outside_space():
    space = FiniteSpace(("a", "b", "c"))
    with pytest.raises(ConstructionError, match="outside"):
        MeasureSpec(space, atoms=[("d", 1.0)])


def test_rejects_duplicate_atoms_and_nonpositive_mass():
    space = FiniteSpace(("a", "b"))
    with pytest.raises(ConstructionError, match="duplicate"):
        MeasureSpec(space, atoms=[("a", 0.5), ("a", 0.5)])
    with pytest.raises(ConstructionError):
        MeasureSpec(space, atoms=[("a", 0.0), ("b", 1.0)])


def test_rejects_overlapping_segments():
    space = RealIntervalSpace(0.0, 1.0)
    with pytest.raises(ConstructionError, match="overlap"):
        MeasureSpec(space, segments=[(Interval(0.0, 0.6, True, True), 0.5),
                                     (Interval(0.4, 1.0, True, True), 0.5)])


def test_rejects_segments_on_discrete_space():
    space = FiniteSpace(("a", "b"))
    with pytest.raises(ConstructionError, match="real-interval"):
        MeasureSpec(space, segments=[(Interval("a", "b", True, True), 1.0)])


def test_atom_inside_segment_is_allowed():
    space, spec = instance("mixed")
    assert spec.atom_mass_at(0.5) == 0.5
    assert len(spec.segments) == 1


def test_measure_of_examples():
    space, spec = instance("uniform")
    assert measure_of(spec, Interval(0.25, 0.75, False, True)) == pytest.approx(0.5)
    space, spec = instance("mixed")
    assert measure_of(spec, singleton(0.5)) == pytest.approx(0.5)
    # open interval around the atom picks up atom plus density
    assert measure_of(spec, Interval(0.4, 0.6, False, False)) == pytest.approx(0.6)


def test_measure_additive_and_monotone():
    rng = random.Random(41)
    for name in ("uniform", "mixed", "gapped", "three-atom", "lex-mixed"):
        space, spec = instance(name)
        for _ in range(200):
            a = random_interval_union(space, rng)
            b = random_interval_union(space, rng)
            ma, mb = measure_of(spec, a), measure_of(spec, b)
            mu_union = measure_of(spec, a.union(b))
            mu_inter = measure_of(spec, a.intersect(b))
            assert ma + mb == pytest.approx(mu_union + mu_inter, abs=1e-12)
            assert measure_of(spec, a.intersect(b)) <= min(ma, mb) + 1e-12
        assert measure_of(spec, IntervalUnion.full(space)) == pytest.approx(1.0)
        assert measure_of(spec, IntervalUnion.empty(space)) == 0.0


def test_atom_set_sorted():
    space, spec = instance("three-atom")
    assert atom_set(spec) == [("a", 0.2), ("b", 0.3), ("c", 0.5)]
    _, uniform_spec = instance("uniform")
    assert atom_set(uniform_spec) == []
