import itertools
import random

import pytest

from ordercdf import (
    DomainError, EMPTY_INFIMUM, EMPTY_SUPREMUM, NEG_INF, POS_INF,
    FiniteSpace, IntRangeSpace, Interval, IntervalUnion, LexSpace,
    RealIntervalSpace, canonicalize_interval, convex_components,
    format_union, infimum, interval_length, parse_interval, parse_union,
    singleton, supremum,
)
from ordercdf import random_interval_union, random_point


def spaces():
    return [
        FiniteSpace(("a", "b", "c", "d")),
        IntRangeSpace(0, 9),
        RealIntervalSpace(0.0, 1.0),
        RealIntervalSpace(0.0, 1.0, include_lo=False, include_hi=False),
        LexSpace(("0", "1"), {"0": RealIntervalSpace(0.0, 1.0),
                              "1": RealIntervalSpace(0.0, 1.0)}),
    ]


def test_closed_infinite_endpoint_rejected():
    with pytest.raises(DomainError):
        Interval(NEG_INF, 1.0, True, True)


def test_canonicalize_discrete_gap_closing():
    space = IntRangeSpace(0, 9)
    iv = canonicalize_interval(space, Interval(1, 5, False, False))
    assert iv == Interval(2, 4, True, True)
    assert canonicalize_interval(space, Interval(3, 4, False, False)) is None
    # fractional endpoints snap inward
    assert canonicalize_interval(space, Interval(0.5, 3.5, True, True)) \
        == Interval(1, 3, True, True)


def test_canonicalize_real_excluded_boundary():
    space = RealIntervalSpace(0.0, 1.0, include_lo=False)
    iv = canonicalize_interval(space, Interval(0.0, 0.5, True, True))
    assert iv == Interval(0.0, 0.5, False, True)  # 0 is a quasi-point, forced open
    assert canonicalize_interval(space, singleton(0.0)) is None


def test_canonicalize_lex_fiber_sliding():
    space = LexSpace(("0", "1"), {"0": RealIntervalSpace(0.0, 1.0),
                                  "1": RealIntervalSpace(0.0, 1.0)})
    # ](0,1), (1,0.5)] starts at the bottom of the next fiber
    iv = canonicalize_interval(space, Interval(("0", 1.0), ("1", 0.5), False, True))
    assert iv == Interval(("1", 0.0), ("1", 0.5), True, True)


def test_canonicalize_wrong_way_infinities_are_empty():
    for space in spaces():
        x = next(space.dense_points())
        assert canonicalize_interval(space, Interval(POS_INF, x, False, True)) is None
        assert canonicalize_interval(space, Interval(x, NEG_INF, False, False)) is None
        assert canonicalize_interval(space, Interval(POS_INF, NEG_INF, False, False)) is None
        assert canonicalize_interval(space, Interval(POS_INF, POS_INF, False, False)) is None
        assert canonicalize_interval(space, Interval(NEG_INF, NEG_INF, False, False)) is None


def test_canonicalization_idempotent():
    rng = random.Random(5)
    for space in spaces():
        for _ in range(300):
            u = random_interval_union(space, rng)
            for iv in u.intervals:
                assert canonicalize_interval(space, iv) == iv


def test_adjacent_pieces_merge():
    space = RealIntervalSpace(0.0, 1.0)
    u = IntervalUnion(space, [Interval(0.0, 0.5, True, True),
                              Interval(0.5, 1.0, False, True)])
    assert u.intervals == (Interval(0.0, 1.0, True, True),)
    space2 = IntRangeSpace(0, 9)
    u2 = IntervalUnion(space2, [Interval(0, 3, True, True),
                                Interval(4, 6, True, True)])
    assert u2.intervals == (Interval(0, 6, True, True),)


def test_boolean_algebra_laws_random():
    """De Morgan, involution and absorption on random triples."""
    rng = random.Random(17)
    for space in spaces():
        probes = [random_point(space, rng) for _ in range(40)]
        for _ in range(150):
            a = random_interval_union(space, rng)
            b = random_interval_union(space, rng)
            c = random_interval_union(space, rng)
            assert a.complement().complement() == a
            assert a.union(b).complement() == a.complement().intersect(b.complement())
            assert a.intersect(b).complement() == a.complement().union(b.complement())
            assert a.intersect(a.complement()).is_empty
            assert a.union(a.complement()) == IntervalUnion.full(space)
            assert a.union(b.intersect(c)) == a.union(b).intersect(a.union(c))
            for p in probes:
                assert a.union(b).member(p) == (a.member(p) or b.member(p))
                assert a.intersect(b).member(p) == (a.member(p) and b.member(p))
                assert a.complement().member(p) == (not a.member(p))


def test_power_set_exhaustive_on_small_chain():
    """Every subset of a 5-chain is canonical; set ops match set semantics."""
    space = FiniteSpace(("a", "b", "c", "d", "e"))
    labels = space.labels
    subsets = []
    for bits in range(1 << len(labels)):
        pts = [lab for i, lab in enumerate(labels) if bits >> i & 1]
        subsets.append((frozenset(pts), IntervalUnion.of_points(space, pts)))
    reprs = {u.intervals for _, u in subsets}
    assert len(reprs) == len(subsets)  # canonical form is injective
    for (sa, ua), (sb, ub) in itertools.product(subsets, repeat=2):
        assert {p for p in labels if ua.union(ub).member(p)} == sa | sb
        assert {p for p in labels if ua.intersect(ub).member(p)} == sa & sb
    for sa, ua in subsets:
        assert {p for p in labels if ua.complement().member(p)} == set(labels) - sa


def test_convex_components():
    space = RealIntervalSpace(0.0, 1.0)
    u = IntervalUnion(space, [Interval(0.0, 0.2, True, True),
                              Interval(0.6, 1.0, False, True),
                              singleton(0.4)])
    comps = convex_components(space, u)
    assert len(comps) == 3
    assert comps[1] == singleton(0.4)


def test_inf_sup_conventions_and_undefined():
    space = RealIntervalSpace(0.0, 1.0)
    empty = IntervalUnion.empty(space)
    assert infimum(space, empty) is EMPTY_INFIMUM
    assert supremum(space, empty) is EMPTY_SUPREMUM
    u = IntervalUnion(space, [Interval(0.2, 0.7, False, False)])
    assert infimum(space, u) == 0.2
    assert supremum(space, u) == 0.7
    # on an incomplete space the bound can fail to exist in X
    open_space = RealIntervalSpace(0.0, 1.0, include_lo=False)
    v = IntervalUnion(open_space, [Interval(0.0, 0.5, True, True)])
    assert infimum(open_space, v) is None
    assert supremum(open_space, v) == 0.5


def test_interval_length():
    real = RealIntervalSpace(0.0, 1.0)
    assert interval_length(real, Interval(0.25, 0.75, True, False)) == 0.5
    assert interval_length(IntRangeSpace(0, 9), Interval(2, 5, True, True)) == 0.0
    lex = LexSpace(("0", "1"), {"0": RealIntervalSpace(0.0, 1.0),
                                "1": RealIntervalSpace(0.0, 1.0)})
    assert interval_length(lex, Interval(("1", 0.1), ("1", 0.6), True, True)) == 0.5
    with pytest.raises(DomainError):
        interval_length(lex, Interval(("0", 0.5), ("1", 0.5), True, True))


def test_parse_format_round_trip():
    rng = random.Random(23)
    for space in spaces():
        for _ in range(100):
            u = random_interval_union(space, rng)
            assert parse_union(space, format_union(space, u)) == u


def test_parse_syntax():
    space = RealIntervalSpace(0.0, 1.0)
    iv = parse_interval(space, "(0.2, 0.7]")
    assert iv == Interval(0.2, 0.7, False, True)
    ray = parse_interval(space, "(-inf, 0.5)")
    assert ray.lo is NEG_INF and not ray.lo_closed
    lex = LexSpace(("0", "1"), {"0": RealIntervalSpace(0.0, 1.0),
                                "1": RealIntervalSpace(0.0, 1.0)})
    ivl = parse_interval(lex, "[(0,0.25),(1,0.5)]")
    assert ivl.lo == ("0", 0.25) and ivl.hi == ("1", 0.5)
    with pytest.raises(DomainError):
        parse_interval(space, "0.2,0.7")
    with pytest.raises(DomainError):
        parse_interval(space, "(0.2;0.7)")
