import random

import pytest

from ordercdf import (
    Cdf, DomainError, Interval, MeasureSpec, PseudoInverse,
    RealIntervalSpace, UndefinedPointError,
    bijectivity_report, is_F_injective, is_G_injective,
)
from ordercdf.instances import INSTANCE_NAMES, instance_gi
from ordercdf import grid_invert, random_point


def test_uniform_quantile_is_identity():
    gi = instance_gi("uniform")
    for r in (0.0, 0.5, 1.0):
        assert gi.eval(r) == pytest.approx(r, abs=1e-15)


def test_mixed_plateau_absorbs_levels():
    gi = instance_gi("mixed")
    for r in (0.3, 0.5, 0.6, 0.75):
        assert gi.eval(r) == 0.5
    assert gi.eval(0.2) == pytest.approx(0.4)
    assert gi.eval(0.9) == pytest.approx(0.8)


def test_three_atom_quantiles():
    gi = instance_gi("three-atom")
    assert gi.eval(0.1) == "a"
    assert gi.eval(0.2) == "a"
    assert gi.eval(0.3) == "b"
    assert gi.eval(1.0) == "c"
    assert gi.eval(0.0) == "a"  # G(0) = min X


def test_level_outside_unit_interval_rejected():
    gi = instance_gi("uniform")
    with pytest.raises(DomainError):
        gi.eval(1.5)
    with pytest.raises(DomainError):
        gi.eval(-0.1)


def test_undefined_at_zero_without_minimum():
    gi = instance_gi("open-uniform")
    assert gi.try_eval(0.0) is None
    with pytest.raises(UndefinedPointError, match="no minimum"):
        gi.eval(0.0)
    assert gi.is_defined(0.5)


def test_undefined_at_excluded_supremum():
    space = RealIntervalSpace(0.0, 1.0, include_hi=False)
    spec = MeasureSpec(space, segments=[(Interval(0.0, 1.0, True, False), 1.0)])
    gi = PseudoInverse(Cdf(space, spec))
    assert gi.try_eval(1.0) is None
    with pytest.raises(UndefinedPointError, match="excluded boundary"):
        gi.eval(1.0)
    assert gi.eval(0.999) == pytest.approx(0.999)


def test_monotone_on_random_levels():
    rng = random.Random(31)
    for name in INSTANCE_NAMES:
        gi = instance_gi(name)
        for _ in range(500):
            r, s = sorted((rng.random(), rng.random()))
            p, q = gi.try_eval(r), gi.try_eval(s)
            if p is not None and q is not None:
                assert gi.space._cmp(p, q) <= 0


def test_deflation_and_inflation():
    rng = random.Random(37)
    for name in INSTANCE_NAMES:
        gi = instance_gi(name)
        cdf = gi.cdf
        for _ in range(300):
            x = random_point(gi.space, rng)
            p = gi.try_eval(cdf.eval_F(x))
            if p is not None:
                # G(F(x)) <= x, up to one rounding step in the affine inverse
                assert gi.space._cmp(p, x) <= 0 or _close(gi.space, p, x)
            r = rng.random()
            q = gi.try_eval(r)
            if q is not None:
                assert cdf.eval_F(q) >= r - 1e-12  # F(G(r)) >= r


def _close(space, p, q, tol=1e-12):
    if isinstance(p, tuple):
        return p[0] == q[0] and abs(p[1] - q[1]) <= tol
    if isinstance(p, str):
        return p == q
    return abs(float(p) - float(q)) <= tol


def test_strict_contrapositive():
    # F(x) < r iff G(r) > x
    rng = random.Random(43)
    for name in INSTANCE_NAMES:
        gi = instance_gi(name)
        for _ in range(2000):
            r, x = rng.random(), random_point(gi.space, rng)
            p = gi.try_eval(r)
            if p is None:
                continue
            assert (gi.cdf.eval_F(x) < r) == (gi.space._cmp(p, x) > 0)


def test_left_continuity_ladder():
    for name in ("uniform", "mixed", "gapped"):
        gi = instance_gi(name)
        for piece in gi.pieces:
            if piece.kind != "affine":
                continue
            r = (piece.r_lo + piece.r_hi) / 2
            for gap in (1e-2, 1e-4, 1e-6, 1e-9):
                if r - gap <= piece.r_lo:
                    continue
                a, b = gi.eval(r - gap), gi.eval(r)
                assert abs(float(b) - float(a)) <= gap / piece.density + 1e-12
    # on a plateau, levels just below r give the same point
    gi = instance_gi("mixed")
    for gap in (1e-2, 1e-6, 1e-9):
        assert gi.eval(0.6 - gap) == gi.eval(0.6)


def test_galois_adjunction_probes():
    rng = random.Random(47)
    for name in INSTANCE_NAMES:
        gi = instance_gi(name)
        for _ in range(500):
            gi.galois_check(rng.random(), random_point(gi.space, rng))


def test_sandwich_values():
    gi = instance_gi("mixed")
    assert gi.sandwich_check(0.6) == (pytest.approx(0.25), pytest.approx(0.75))
    uni = instance_gi("uniform")
    lo, hi = uni.sandwich_check(0.4)
    assert lo == pytest.approx(0.4) and hi == pytest.approx(0.4)


def test_plateau_examples():
    gi = instance_gi("mixed")
    plat = gi.plateau_of(0.5)
    assert (plat.lo, plat.hi) == (pytest.approx(0.25), pytest.approx(0.75))
    assert not plat.lo_closed and plat.hi_closed
    assert instance_gi("uniform").plateau_of(0.3).is_empty


def test_preimage_of_open_intervals():
    uni = instance_gi("uniform")
    pre = uni.preimage_open_interval(0.2, 0.7)
    assert pre.length == pytest.approx(0.5)
    assert (pre.lo, pre.hi) == (pytest.approx(0.2), pytest.approx(0.7))
    mixed = instance_gi("mixed")
    pre = mixed.preimage_open_interval(0.4, 0.6)
    # the atom at 0.5 sits inside ]0.4, 0.6[, so the preimage spans its plateau
    assert pre.length == pytest.approx(0.6)
    assert (pre.lo, pre.hi) == (pytest.approx(0.2), pytest.approx(0.8))
    with pytest.raises(DomainError):
        uni.preimage_open_interval(0.7, 0.2)


def test_preimage_right_closure_membership():
    # gapped: G(F_minus(0.6)) = G(0.5) = 0.6, not inside ]0.3, 0.6[ -> open
    gapped = instance_gi("gapped")
    pre = gapped.preimage_open_interval(0.3, 0.7)
    assert pre.contains(0.5)
    assert gapped.eval(pre.hi) is not None


def test_agrees_with_grid_inversion():
    rng = random.Random(53)
    for name in INSTANCE_NAMES:
        gi = instance_gi(name)
        for _ in range(60):
            r = rng.random()
            p = gi.try_eval(r)
            if p is None:
                continue
            ref = grid_invert(gi.cdf, r, 1e-6)
            if isinstance(gi.space, RealIntervalSpace):
                assert abs(float(p) - float(ref)) <= 2e-6
            elif isinstance(p, tuple):
                assert p[0] == ref[0] and abs(p[1] - ref[1]) <= 2e-6
            else:
                assert p == ref


def test_G_injective_iff_atomless():
    expectations = {
        "uniform": True, "gapped": True, "open-uniform": True,
        "mixed": False, "three-atom": False, "lex-mixed": False,
    }
    for name, expect in expectations.items():
        ok, witness = is_G_injective(instance_gi(name))
        assert ok is expect, name
        if not ok:
            assert witness.length > 0


def test_F_injective_iff_no_null_gap():
    for name in INSTANCE_NAMES:
        cdf = instance_gi(name).cdf
        ok, witness = is_F_injective(cdf)
        assert ok is (name != "gapped"), name
    ok, witness = is_F_injective(instance_gi("gapped").cdf)
    assert witness == Interval(0.4, 0.6, False, True)


def test_F_injectivity_catches_chargeless_junction():
    # a lex junction with no atom makes mu(]pred, junction]) = 0
    from ordercdf import LexSpace
    space = LexSpace(("0", "1"), {"0": RealIntervalSpace(0.0, 1.0),
                                  "1": RealIntervalSpace(0.0, 1.0)})
    spec = MeasureSpec(space, segments=[
        (Interval(("0", 0.0), ("0", 1.0), True, True), 0.5),
        (Interval(("1", 0.0), ("1", 1.0), True, True), 0.5),
    ])
    ok, witness = is_F_injective(Cdf(space, spec))
    assert not ok
    assert witness == Interval(("0", 1.0), ("1", 0.0), False, True)


def test_bijectivity_reports_consistent_everywhere():
    for name in INSTANCE_NAMES:
        if name == "open-uniform":
            continue
        rep = bijectivity_report(instance_gi(name))
        assert rep.consistent, name
        assert rep.g_bijective is (name == "uniform"), name
