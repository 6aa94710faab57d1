import itertools
import random

import pytest

from ordercdf import (
    DomainError, EQUAL, GREATER, LESS, MAX_MARKER, MIN_MARKER,
    FiniteSpace, IntRangeSpace, LexSpace, RealIntervalSpace,
    classify_isolation, space_from_config, space_to_config,
)
from ordercdf import random_point


def sample_spaces():
    return [
        FiniteSpace(("a", "b", "c")),
        IntRangeSpace(-3, 7),
        RealIntervalSpace(0.0, 1.0),
        RealIntervalSpace(0.0, 1.0, include_lo=False),
        RealIntervalSpace(-2.0, 3.0, include_hi=False),
        LexSpace(("0", "1"), {"0": RealIntervalSpace(0.0, 1.0),
                              "1": RealIntervalSpace(0.0, 1.0)}),
    ]


def test_compare_totality_and_antisymmetry():
    rng = random.Random(11)
    for space in sample_spaces():
        for _ in range(2000):
            x, y = random_point(space, rng), random_point(space, rng)
            c = space.compare(x, y)
            assert c in (LESS, EQUAL, GREATER)
            assert space.compare(y, x) == -c
            if c == EQUAL:
                assert space.compare(x, x) == EQUAL


def test_compare_rejects_foreign_points():
    space = FiniteSpace(("a", "b"))
    with pytest.raises(DomainError):
        space.compare("a", "z")
    with pytest.raises(DomainError):
        RealIntervalSpace(0, 1).require(1.5)


def test_finite_successor_predecessor():
    space = FiniteSpace(("a", "b", "c"))
    assert space.successor("a") == "b"
    assert space.predecessor("c") == "b"
    assert space.successor("c") is None
    assert space.predecessor("a") is None
    assert list(space.predecessor_points()) == ["b", "c"]


def test_int_range_basics():
    space = IntRangeSpace(0, 5)
    assert space.minimum() == 0 and space.maximum() == 5
    assert space.successor(4) == 5 and space.successor(5) is None
    assert space.contains(3) and not space.contains(6)
    assert not space.contains(True)  # booleans are not points
    assert space.complete


def test_real_interval_boundaries():
    space = RealIntervalSpace(0.0, 1.0, include_lo=False)
    assert not space.contains(0.0)
    assert space.contains(1.0)
    assert space.minimum() is None
    assert not space.complete
    assert RealIntervalSpace(0, 1).complete


def test_real_has_no_successors():
    space = RealIntervalSpace(0.0, 1.0)
    assert space.successor(0.5) is None
    assert space.predecessor(0.5) is None


def test_dense_enumeration_probes_endpoints_early():
    space = RealIntervalSpace(0.0, 1.0)
    head = list(itertools.islice(space.dense_points(), 8))
    assert head[0] == 0.0 and head[1] == 1.0
    assert 0.5 in head and 0.25 in head
    assert all(space.contains(p) for p in head)


def test_dense_enumeration_skips_excluded_boundary():
    space = RealIntervalSpace(0.0, 1.0, include_lo=False)
    head = list(itertools.islice(space.dense_points(), 64))
    assert 0.0 not in head
    assert all(space.contains(p) for p in head)


def test_lex_order_and_junction():
    space = LexSpace(("0", "1"), {"0": RealIntervalSpace(0.0, 1.0),
                                  "1": RealIntervalSpace(0.0, 1.0)})
    assert space.compare(("0", 0.9), ("1", 0.1)) == LESS
    assert space.compare(("1", 0.1), ("1", 0.2)) == LESS
    # the gap ]("0",1), ("1",0)[ is empty, so these are adjacent
    assert space.successor(("0", 1.0)) == ("1", 0.0)
    assert space.predecessor(("1", 0.0)) == ("0", 1.0)
    assert list(space.predecessor_points()) == [("1", 0.0)]


def test_lex_junction_isolation():
    space = LexSpace(("0", "1"), {"0": RealIntervalSpace(0.0, 1.0),
                                  "1": RealIntervalSpace(0.0, 1.0)})
    report = classify_isolation(space, ("1", 0.0))
    assert report.left_isolated
    assert report.left_witness == ("0", 1.0)
    assert not report.right_isolated
    mn = classify_isolation(space, ("0", 0.0))
    assert mn.left_isolated and mn.left_witness == MIN_MARKER
    mx = classify_isolation(space, ("1", 1.0))
    assert mx.right_isolated and mx.right_witness == MAX_MARKER


def test_lex_open_fiber_breaks_adjacency():
    space = LexSpace(("0", "1"), {"0": RealIntervalSpace(0.0, 1.0, include_hi=False),
                                  "1": RealIntervalSpace(0.0, 1.0)})
    # ("1",0) has points of fiber 0 arbitrarily close below it
    assert space.predecessor(("1", 0.0)) is None
    assert list(space.predecessor_points()) == []
    assert not space.complete


def test_point_syntax_round_trip():
    for space in sample_spaces():
        rng = random.Random(3)
        for _ in range(20):
            p = random_point(space, rng)
            assert space.compare(space.parse_point(space.format_point(p)), p) == EQUAL


def test_config_round_trip():
    for space in sample_spaces():
        rebuilt = space_from_config(space_to_config(space))
        assert space_to_config(rebuilt) == space_to_config(space)
        assert rebuilt.describe() == space.describe()
