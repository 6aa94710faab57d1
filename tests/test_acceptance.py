"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line on success (visible with -s); the
assertions carry the stated tolerances.
"""
import itertools
import math
import random
import time

import pytest

from ordercdf import (
    Cdf, Interval, MeasureSpec, PseudoInverse, QuadratureSpec,
    RealIntervalSpace, Sampler, atom_frequencies, atom_set,
    bijectivity_report, dkw_epsilon, empirical_F, indicator,
    indicator_split_levels, integrate, is_F_injective, is_G_injective,
    measure_uniqueness_check, pushforward_check,
)
from ordercdf.instances import (
    COMPLETE_INSTANCE_NAMES, INSTANCE_NAMES, instance, instance_cdf, instance_gi,
)
from ordercdf import (
    random_atomic_spec, random_interval_union, random_point,
)
from ordercdf.spaces import FiniteSpace

SHIPPED = ("three-atom", "uniform", "mixed", "gapped", "lex-mixed")


def _ok(n, text):
    print(f"CRITERION {n}: PASS - {text}")


def test_criterion_1_exact_finite_agreement():
    """interval_measure equals the subset-sum oracle on every interval."""
    rng = random.Random(101)
    checked = 0
    for size in range(2, 9):
        labels = tuple(chr(ord("a") + i) for i in range(size))
        space = FiniteSpace(labels)
        for _ in range(30):
            spec = random_atomic_spec(space, rng)
            cdf = Cdf(space, spec)
            masses = [spec.atom_mass_at(lab) for lab in labels]
            for i, j in itertools.product(range(size), repeat=2):
                if i > j:
                    continue
                for loc, hic in itertools.product((True, False), repeat=2):
                    iv = Interval(labels[i], labels[j], loc, hic)
                    oracle = sum(
                        m for k, m in enumerate(masses)
                        if (k > i or (k == i and loc)) and (k < j or (k == j and hic)))
                    assert abs(cdf.interval_measure(iv) - oracle) <= 1e-12
                    checked += 1
    _ok(1, f"{checked} finite intervals exact to 1e-12")


def test_criterion_2_galois_adjunction():
    """G(r) <= x iff r <= F(x), 10^4 random pairs per shipped instance."""
    rng = random.Random(103)
    for name in SHIPPED:
        gi = instance_gi(name)
        violations = 0
        for _ in range(10_000):
            r, x = rng.random(), random_point(gi.space, rng)
            gi.galois_check(r, x)  # raises on any violation
        assert violations == 0
    _ok(2, "zero Galois violations on 10^4 pairs x 5 instances")


def test_criterion_3_sandwich():
    """F_minus(G(r)) <= r <= F(G(r)) on 10^4 levels per instance."""
    rng = random.Random(107)
    for name in SHIPPED:
        gi = instance_gi(name)
        for _ in range(10_000):
            r = rng.random()
            if gi.is_defined(r):
                gi.sandwich_check(r)  # raises on any violation
    _ok(3, "sandwich inequalities on 10^4 levels x 5 instances")


def test_criterion_4_pushforward():
    """mu(u) equals the length of G^{-1}(u) within 1e-9."""
    rng = random.Random(109)
    for name in COMPLETE_INSTANCE_NAMES:
        gi = instance_gi(name)
        for _ in range(1000):
            u = random_interval_union(gi.space, rng)
            geo, quant = pushforward_check(gi, u)
            assert abs(geo - quant) <= 1e-9, (name, u)
    _ok(4, "10^3 random unions per complete instance at 1e-9")


def test_criterion_5_sampling_consistency():
    """n=10^5 draws: atom frequencies, DKW band, runtime."""
    n = 100_000
    eps = dkw_epsilon(n, alpha=0.01)
    for name, seed in (("three-atom", 11), ("uniform", 12),
                       ("mixed", 13), ("lex-mixed", 14)):
        gi = instance_gi(name)
        start = time.perf_counter()
        samples = Sampler(gi, seed).draw(n)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, (name, elapsed)
        for at, freq in atom_frequencies(gi.space, samples, atom_set(gi.cdf.spec)):
            assert abs(freq - gi.cdf.spec.atom_mass_at(at)) <= 0.01, (name, at)
        grid = []
        for p in gi.space.dense_points():
            grid.append(p)
            if len(grid) == 20:
                break
        for x in grid:
            gap = abs(empirical_F(gi.space, samples, x) - gi.cdf.eval_F(x))
            assert gap <= eps, (name, x, gap)
    _ok(5, f"atom frequencies within 0.01 and DKW band {eps:.4f} held")


def test_criterion_6_integration_identity():
    """Quantile-side integrals: smooth within 1e-8, atomic exact."""
    rng = random.Random(113)
    # classical recovery: uniform quantile is the identity, mean is 1/2
    uni = instance_gi("uniform")
    for r in (0.1, 0.5, 0.9):
        assert uni.eval(r) == pytest.approx(r, abs=1e-15)
    assert abs(integrate(uni, lambda x: x) - 0.5) <= 1e-8
    for name in ("uniform", "mixed"):
        gi = instance_gi(name)
        exact = sum(m * at for at, m in atom_set(gi.cdf.spec))
        for seg in gi.cdf.spec.segments:
            u, v = float(seg.interval.lo), float(seg.interval.hi)
            exact += seg.density * (v * v - u * u) / 2
        assert abs(integrate(gi, lambda x: x) - exact) <= 1e-8, name
        for _ in range(30):
            from ordercdf import measure_of
            subset = random_interval_union(gi.space, rng)
            quad = QuadratureSpec(split_at=indicator_split_levels(gi, subset))
            got = integrate(gi, indicator(gi.space, subset), quad)
            assert abs(got - measure_of(gi.cdf.spec, subset)) <= 1e-8, name
    # purely atomic case is exact, no quadrature error at all
    atoms = instance_gi("three-atom")
    weight = {"a": 1.0, "b": 10.0, "c": 100.0}
    assert integrate(atoms, weight.__getitem__) == \
        0.2 * 1.0 + 0.3 * 10.0 + 0.5 * 100.0
    _ok(6, "identity/indicator integrals at 1e-8, atomic exact, mean 0.5")


def test_criterion_7_injectivity_diagnostics():
    """G injective iff atomless; F injective except on the gapped instance."""
    has_atoms = {"three-atom", "mixed", "lex-mixed"}
    for name in INSTANCE_NAMES:
        g_inj, g_wit = is_G_injective(instance_gi(name))
        assert g_inj is (name not in has_atoms), name
        f_inj, f_wit = is_F_injective(instance_cdf(name))
        assert f_inj is (name != "gapped"), name
    assert is_F_injective(instance_cdf("gapped"))[1] == \
        Interval(0.4, 0.6, False, True)
    for name in INSTANCE_NAMES:
        if name == "open-uniform":
            continue
        assert bijectivity_report(instance_gi(name)).consistent, name
    _ok(7, "diagnostics match the instance table; reports consistent")


def test_criterion_8_continuity_ladders():
    """Right-continuity of F, left-continuity of G, down the h-ladder."""
    ladder = (1e-3, 1e-6, 1e-9)
    for name in ("uniform", "mixed", "gapped", "open-uniform", "lex-mixed"):
        cdf = instance_cdf(name)
        density = cdf.spec.max_density
        for x in cdf.breakpoints():
            for y in cdf._ladder_points_above(x):
                h = _inner(y) - _inner(x)
                assert abs(cdf.eval_F(y) - cdf.eval_F(x)) <= density * h + 1e-12
            for y in cdf._ladder_points_below(x):
                h = _inner(x) - _inner(y)
                assert abs(cdf.eval_F(y) - cdf.eval_F_minus(x)) <= density * h + 1e-12
        gi = PseudoInverse(cdf)
        for piece in gi.pieces:
            if piece.kind != "affine":
                continue
            r = (piece.r_lo + piece.r_hi) / 2
            for h in ladder:
                if r - h <= piece.r_lo:
                    continue
                a, b = gi.eval(r - h), gi.eval(r)
                assert abs(_inner(b) - _inner(a)) <= h / piece.density + 1e-12
    _ok(8, "F right-continuous and G left-continuous at h in {1e-3,1e-6,1e-9}")


def _inner(p):
    return p[1] if isinstance(p, tuple) else float(p)


def test_criterion_9_uniqueness():
    """Same measure, different decomposition: equal; different: witnessed."""
    space = RealIntervalSpace(0.0, 1.0)
    one = MeasureSpec(space, atoms=[(0.5, 0.5)],
                      segments=[(Interval(0.0, 1.0, True, True), 0.5)])
    two = MeasureSpec(space, atoms=[(0.5, 0.5)],
                      segments=[(Interval(0.0, 0.5, True, True), 0.25),
                                (Interval(0.5, 1.0, False, True), 0.25)])
    assert measure_uniqueness_check(Cdf(space, one), Cdf(space, two))
    reals = {}
    for name in ("uniform", "mixed", "gapped"):
        _, spec = instance(name)
        reals[name] = Cdf(space, MeasureSpec(
            space,
            atoms=[(a.at, a.mass) for a in spec.atoms],
            segments=[(s.interval, s.mass) for s in spec.segments]))
    for a, b in itertools.combinations(reals, 2):
        verdict = measure_uniqueness_check(reals[a], reals[b], n_random=200)
        assert not verdict, (a, b)
        assert verdict.witness is not None, (a, b)
    _ok(9, "uniqueness accepted a re-decomposition and witnessed all mismatches")
