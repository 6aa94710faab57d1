"""Distribution functions, quantile maps and sampling on ordered spaces.

The package models probability measures on linearly ordered universes
(finite chains, integer ranges, real intervals, lexicographic products)
as atoms plus uniform segments, evaluates their cdfs on an exact interval
algebra, inverts them through a closed-form pseudo-inverse, and uses that
inverse for reproducible sampling and quantile-side integration.
"""

from .cdf import (
    Cdf, H_LADDER, UniquenessVerdict, cdfs_equal_on_dense, measure_uniqueness_check,
)
from .errors import (
    ConfigError, ConstructionError, DomainError, IntegrandError, OrderCdfError,
    PropositionViolation, UndefinedPointError, UnsupportedSpaceError,
)
from .intervals import (
    EMPTY_INFIMUM, EMPTY_SUPREMUM, NEG_INF, POS_INF,
    Interval, IntervalUnion, as_union, canonicalize_interval, convex_components,
    format_interval, format_union, infimum, interval_length, interval_member,
    lower_ray, open_interval, parse_interval, parse_union, random_interval,
    random_interval_union, singleton, supremum, upper_ray,
)
from .measure import Atom, DensitySegment, MeasureSpec, atom_set, measure_of
from .oracle import (
    FiniteCase, check_proposition_suite, enumerate_subset_measures,
    grid_invert, random_atomic_spec, suite_passed,
)
from .quantile import (
    BijectivityReport, GPiece, PseudoInverse, UnitInterval,
    bijectivity_report, is_F_injective, is_G_injective,
)
from .sampling import (
    RNG_ID, QuadratureSpec, Sampler, atom_frequencies, dkw_epsilon,
    empirical_F, indicator, indicator_split_levels, integrate,
    ks_statistic, pushforward_check,
)
from .spaces import (
    EQUAL, GREATER, LESS, MAX_MARKER, MIN_MARKER,
    FiniteSpace, IntRangeSpace, IsolationReport, LexSpace, OrderedSpace,
    RealIntervalSpace, classify_isolation, random_point, space_from_config,
    space_to_config,
)

__version__ = "0.1.0"
