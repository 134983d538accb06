"""Exact extremal bounds, solvers, and verifiers for intersecting families
over a two-part ground set."""

from .bounds import (
    binomial,
    cross_bound,
    ekr_bound,
    frankl_bound,
    hm_bound,
    nontrivial_bound,
    star_bound,
    star_bound_proven,
    star_size,
    two_sided_bound,
)
from .conjectures import (
    CrossResult,
    GridCell,
    HuntReport,
    ParameterGrid,
    best_construction,
    cross_oracle,
    evaluate_cell,
    hunt,
    max_cross_intersecting,
)
from .cyclic import (
    BlockingPair,
    CyclicPermutation,
    Interval,
    Rectangle,
    all_intervals,
    canonical_permutations,
    find_blocking_pairs,
    interval_distance,
    point_distance,
    proj_intersecting,
    set_to_rectangle,
)
from .doublecount import (
    DoubleCountResult,
    double_count_check,
    enumerate_rectangle_pair_count,
    rectangle_pair_count,
)
from .families import (
    Family,
    Profile,
    Universe,
    candidate_sets,
    enumerate_profile_sets,
    family_from_json,
    is_intersecting,
    is_trivially_intersecting,
    is_two_sided_intersecting,
    load_family,
    profile_of,
    star_family,
    trivial_witness,
)
from .search import (
    CompatibilityGraph,
    Constraint,
    SearchBudget,
    SearchResult,
    build_graph,
    exhaustive_oracle,
    max_intersecting,
)
from .verifiers import VerificationReport, verify_check

__version__ = "0.1.0"
