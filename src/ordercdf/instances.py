"""Built-in example measures used by the verify command and the tests.

One instance per phenomenon: pure atoms, pure uniform, an atom inside a
segment, a support gap, a two-fiber product with an atom at the fiber
junction, and an incomplete space with an excluded endpoint.
"""
from __future__ import annotations

from typing import Tuple

from .cdf import Cdf
from .errors import ConfigError
from .intervals import Interval
from .measure import MeasureSpec
from .quantile import PseudoInverse
from .spaces import FiniteSpace, LexSpace, OrderedSpace, RealIntervalSpace


def _three_atom():
    space = FiniteSpace(("a", "b", "c"))
    spec = MeasureSpec(space, atoms=[("a", 0.2), ("b", 0.3), ("c", 0.5)])
    return space, spec


def _uniform():
    space = RealIntervalSpace(0.0, 1.0)
    spec = MeasureSpec(space, segments=[(Interval(0.0, 1.0, True, True), 1.0)])
    return space, spec


def _mixed():
    space = RealIntervalSpace(0.0, 1.0)
    spec = MeasureSpec(
        space,
        atoms=[(0.5, 0.5)],
        segments=[(Interval(0.0, 1.0, True, True), 0.5)],
    )
    return space, spec


def _gapped():
    space = RealIntervalSpace(0.0, 1.0)
    spec = MeasureSpec(
        space,
        segments=[
            (Interval(0.0, 0.4, True, True), 0.5),
            (Interval(0.6, 1.0, True, True), 0.5),
        ],
    )
    return space, spec


def _lex_mixed():
    # two closed unit fibers; the atom sits at the junction point (1, 0)
    space = LexSpace(("0", "1"), {
        "0": RealIntervalSpace(0.0, 1.0),
        "1": RealIntervalSpace(0.0, 1.0),
    })
    spec = MeasureSpec(
        space,
        atoms=[(("1", 0.0), 0.1)],
        segments=[
            (Interval(("0", 0.0), ("0", 1.0), True, True), 0.5),
            (Interval(("1", 0.0), ("1", 1.0), True, True), 0.4),
        ],
    )
    return space, spec


def _open_uniform():
    # incomplete space: 0 is excluded, so G(0) has no value
    space = RealIntervalSpace(0.0, 1.0, include_lo=False)
    spec = MeasureSpec(space, segments=[(Interval(0.0, 1.0, False, True), 1.0)])
    return space, spec


_BUILDERS = {
    "three-atom": _three_atom,
    "uniform": _uniform,
    "mixed": _mixed,
    "gapped": _gapped,
    "lex-mixed": _lex_mixed,
    "open-uniform": _open_uniform,
}

INSTANCE_NAMES = tuple(_BUILDERS)

#: Instances on complete spaces, where sampling and pushforward apply.
COMPLETE_INSTANCE_NAMES = tuple(n for n in INSTANCE_NAMES if n != "open-uniform")


def instance(name: str) -> Tuple[OrderedSpace, MeasureSpec]:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise ConfigError(
            f"unknown instance {name!r}; choose from {', '.join(INSTANCE_NAMES)}")


def instance_cdf(name: str) -> Cdf:
    space, spec = instance(name)
    return Cdf(space, spec)


def instance_gi(name: str) -> PseudoInverse:
    return PseudoInverse(instance_cdf(name))

