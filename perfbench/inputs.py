"""Seeded inputs for the three workloads.

Each measure is a config dict in the format the CLI reads, plus the raw
atoms and segments it was written from.  The reference checks read the
raw form, so they never depend on what the library parsed.  The same seed
always gives the same inputs; the library only ever sees the results.

The timed ops stay clear of the one known defect (ROADMAP item 2: ``F``
and ``G`` sum the masses in two ways that differ in the last bits, so the
identities break at breakpoint levels).  ``query`` evaluates ``G`` at
random levels only; ``verify``'s seeded measures keep their atoms outside
the segments and use masses that are multiples of ``2**-12``, so every
partial sum is exact.  The defect is still measured, outside the timer,
by ``checks.known_defect``: on each ``query`` op's breakpoint levels and
on a ``probe`` measure beside each seeded ``verify`` measure, laid out as
the other workloads' measures are.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from ordercdf.cli import RunConfig, config_to_dict
from ordercdf.instances import COMPLETE_INSTANCE_NAMES, INSTANCE_NAMES, instance
from ordercdf.intervals import NEG_INF, POS_INF, Interval

KINDS = ("finite", "int_range", "real_interval", "lex")
FIBERS = ("w", "x", "y", "z")
LABELS = tuple("abcdefghijklmnop")
SMALL_SIZES = (4, 8, 12, 16)
QUERY_SIZES = (16, 64, 256)
QUERY_KINDS = ("real_interval", "lex", "int_range")
INTEGRANDS = ("identity", "square", "indicator")
#: Distinct measures per (size, kind) pair in the query pool.
QUERY_VARIANTS = 8
N_POINTS = 500
N_LEVELS = 500
N_INTERVALS = 200
#: Intervals in each op's union; fixed, because the indicator integrand's
#: cost grows with it and a varying count would make the cost depend on the seed.
UNION_PIECES = 2
#: Denominator of the exact (dyadic) masses of the seeded verify measures.
DYADIC = 2 ** 12


@dataclass
class Item:
    """One measure of a workload's pool, with the inputs its ops use."""

    name: str
    kind: str
    pieces: int
    config: dict
    atoms: list                 # [(point, mass)]
    segments: list              # [(lo, hi, lo_closed, hi_closed, mass)]
    k_tag: Optional[int] = None  # query only: the size class 16/64/256
    resplit: Optional[dict] = None
    points: list = field(default_factory=list)
    n_breakpoints: int = 0
    levels: list = field(default_factory=list)
    intervals: list = field(default_factory=list)
    union_text: str = ""
    union_raw: list = field(default_factory=list)
    integrand: str = ""
    probe: Optional["Item"] = None  # verify only: the known-defect probe measure


# ---------------------------------------------------------------------------
# text syntax of points and intervals, as the CLI reads them


def fmt_point(kind: str, p) -> str:
    if kind == "lex":
        return f"({p[0]},{p[1]!r})"
    if kind == "real_interval":
        return repr(float(p))
    return str(p)


def fmt_interval(kind: str, lo, hi, lo_closed: bool, hi_closed: bool) -> str:
    return (("[" if lo_closed else "(") + fmt_point(kind, lo) + ","
            + fmt_point(kind, hi) + ("]" if hi_closed else ")"))


def space_config(kind: str, k: int) -> dict:
    if kind == "finite":
        return {"kind": "finite", "labels": list(LABELS)}
    if kind == "int_range":
        return {"kind": "int_range", "lo": 0, "hi": 4 * max(k, 16) - 1}
    if kind == "real_interval":
        return {"kind": "real_interval", "lo": 0.0, "hi": 1.0}
    return {"kind": "lex", "outer": list(FIBERS),
            "fibers": {o: {"lo": 0.0, "hi": 1.0} for o in FIBERS}}


def make_config(kind, space, atoms, segments) -> dict:
    return {"space": space, "measure": {
        "atoms": [{"at": fmt_point(kind, p), "mass": m} for p, m in atoms],
        "segments": [{"interval": fmt_interval(kind, *seg[:4]), "mass": seg[4]}
                     for seg in segments],
    }}


# ---------------------------------------------------------------------------
# random measures


def random_masses(rng: random.Random, n: int, dyadic: bool = False) -> List[float]:
    """n positive masses summing to 1; with ``dyadic``, multiples of 1/DYADIC."""
    weights = [rng.random() + 0.05 for _ in range(n)]
    total = sum(weights)
    if dyadic:
        units = [max(1, int(w / total * DYADIC)) for w in weights[:-1]]
        units.append(DYADIC - sum(units))
        assert units[-1] > 0, n
        return [u / DYADIC for u in units]
    masses = [w / total for w in weights]
    masses[-1] = 1.0 - sum(masses[:-1])
    return masses


def _cuts(rng: random.Random, n: int) -> List[float]:
    """n distinct sorted floats inside ]0, 1[."""
    while True:
        cuts = sorted(rng.random() for _ in range(n))
        if len(set(cuts)) == n and (not cuts or cuts[0] > 0.0):
            return cuts


def random_layout(rng: random.Random, kind: str, k: int, atoms_in_segments: bool = True):
    """Points of k pieces: half atoms, half segments; about half the atoms sit
    inside segments, or, without ``atoms_in_segments``, none of them."""
    if kind in ("finite", "int_range"):
        space = space_config(kind, k)
        universe = LABELS if kind == "finite" else range(space["lo"], space["hi"] + 1)
        return sorted(rng.sample(universe, k)), []
    n_atoms = k // 2
    n_segs = k - n_atoms
    fibers = FIBERS if kind == "lex" else (None,)
    per_fiber = [n_segs // len(fibers) + (i < n_segs % len(fibers)) for i in range(len(fibers))]
    rng.shuffle(per_fiber)
    segs = []
    for o, n in zip(fibers, per_fiber):
        cuts = _cuts(rng, 2 * n)
        segs += [(o, cuts[2 * i], cuts[2 * i + 1]) for i in range(n)]
    atoms = set()
    while len(atoms) < n_atoms:
        if atoms_in_segments and segs and rng.random() < 0.5:
            o, u, v = rng.choice(segs)
            t = rng.uniform(u, v)
        else:
            o, t = rng.choice(fibers), rng.random()
            if not atoms_in_segments and any(o == so and u <= t <= v for so, u, v in segs):
                continue
        atoms.add(t if o is None else (o, t))
    point = (lambda o, t: t) if kind == "real_interval" else (lambda o, t: (o, t))
    segments = [(point(o, u), point(o, v)) for o, u, v in segs]
    return sorted(atoms), segments


def random_item(rng: random.Random, kind: str, k: int, name: str, exact: bool = False) -> Item:
    """A seeded measure; ``exact`` keeps atoms out of segments and makes masses dyadic."""
    atom_points, seg_points = random_layout(rng, kind, k, atoms_in_segments=not exact)
    masses = random_masses(rng, k, dyadic=exact)
    atoms = list(zip(atom_points, masses))
    segments = [(lo, hi, True, True, m)
                for (lo, hi), m in zip(seg_points, masses[len(atoms):])]
    space = space_config(kind, k)
    return Item(name, kind, k, make_config(kind, space, atoms, segments), atoms, segments)


def builtin_item(name: str) -> Item:
    space, spec = instance(name)
    config = config_to_dict(RunConfig(space, spec, 0))
    del config["seed"]
    atoms = [(a.at, a.mass) for a in spec.atoms]
    segments = [(s.interval.lo, s.interval.hi, s.interval.lo_closed, s.interval.hi_closed, s.mass)
                for s in spec.segments]
    return Item(name, space.kind, len(atoms) + len(segments), config, atoms, segments)


def _small_pool(seed, builtins, exact: bool = False) -> List[Item]:
    rng = random.Random(seed)
    pool = [builtin_item(n) for n in builtins]
    for kind in KINDS:
        for k in SMALL_SIZES:
            pool.append(random_item(rng, kind, k, f"{kind}-{k}", exact))
    return pool


# ---------------------------------------------------------------------------
# per-workload pools


def _split(item: Item) -> dict:
    """The same measure with every segment cut in two at its midpoint."""
    segments = []
    for lo, hi, lo_closed, hi_closed, m in item.segments:
        if item.kind == "lex":
            mid = (lo[0], (lo[1] + hi[1]) / 2)
        else:
            mid = (lo + hi) / 2
        segments += [(lo, mid, lo_closed, True, m / 2), (mid, hi, False, hi_closed, m / 2)]
    return make_config(item.kind, item.config["space"], item.atoms, segments)


def sample_pool(seed: int) -> List[Item]:
    return _small_pool(seed, COMPLETE_INSTANCE_NAMES)


def verify_pool(seed: int) -> List[Item]:
    """Built-ins and exact seeded measures, each seeded one with a probe beside it."""
    pool = _small_pool(seed, INSTANCE_NAMES, exact=True)
    probes = {it.name: it for it in _small_pool(f"probe-{seed}", ())}
    for item in pool:
        item.resplit = _split(item)
        item.probe = probes.get(item.name)
    return pool


def _random_point(rng: random.Random, item: Item):
    space = item.config["space"]
    if item.kind == "int_range":
        return rng.randint(space["lo"], space["hi"])
    if item.kind == "lex":
        return (rng.choice(FIBERS), rng.random())
    return rng.random()


def _sorted_points(item: Item, points):
    return sorted(points, key=lambda p: (FIBERS.index(p[0]), p[1]) if item.kind == "lex" else p)


def _query_inputs(rng: random.Random, item: Item, integrand: str) -> None:
    space = item.config["space"]
    lo = space["lo"] if item.kind != "lex" else (FIBERS[0], 0.0)
    hi = space["hi"] if item.kind != "lex" else (FIBERS[-1], 1.0)
    breakpoints = {lo, hi, *(p for p, _ in item.atoms)}
    for seg in item.segments:
        breakpoints.update(seg[:2])
    points = _sorted_points(item, breakpoints)
    item.n_breakpoints = len(points)   # the first points; checks.known_defect uses them
    item.points = points + [_random_point(rng, item) for _ in range(N_POINTS - len(points))]
    item.levels = [rng.random() for _ in range(N_LEVELS)]
    for _ in range(N_INTERVALS):
        a, b = _sorted_points(item, (_random_point(rng, item), _random_point(rng, item)))
        roll = rng.random()
        if roll < 0.1:
            item.intervals.append(Interval(NEG_INF, b, False, rng.random() < 0.5))
        elif roll > 0.9:
            item.intervals.append(Interval(a, POS_INF, rng.random() < 0.5, False))
        else:
            item.intervals.append(Interval(a, b, rng.random() < 0.5, rng.random() < 0.5))
    while True:
        ends = _sorted_points(item, [_random_point(rng, item) for _ in range(2 * UNION_PIECES)])
        if len(set(ends)) == len(ends):
            break
    item.union_raw = [(ends[i], ends[i + 1], rng.random() < 0.5, rng.random() < 0.5)
                      for i in range(0, len(ends), 2)]
    item.union_text = ",".join(fmt_interval(item.kind, *iv) for iv in item.union_raw)
    item.integrand = "indicator" if item.kind == "lex" else integrand


def query_pool(seed: int) -> List[Item]:
    """Sizes cycle fastest, then kinds, then integrands: 27 ops per cycle."""
    rng = random.Random(seed)
    pool = []
    for variant in range(QUERY_VARIANTS):
        for integrand in INTEGRANDS:
            for kind in QUERY_KINDS:
                for k in QUERY_SIZES:
                    item = random_item(rng, kind, k, "")
                    item.k_tag = k
                    _query_inputs(rng, item, integrand)
                    item.name = f"{kind}-{k}-{item.integrand}-{len(pool)}"
                    pool.append(item)
    return pool


POOLS = {"sample": sample_pool, "query": query_pool, "verify": verify_pool}


def cycle_length(workload: str, pool: List[Item]) -> int:
    """Ops in one full turn of a workload's mix; timed runs end on a whole turn."""
    if workload == "query":
        return len(QUERY_SIZES) * len(QUERY_KINDS) * len(INTEGRANDS)
    return len(pool)
