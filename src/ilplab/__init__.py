"""Exact-arithmetic laboratory for ILP sensitivity and proximity lower bounds."""

from .errors import (
    BudgetExceededError,
    ClaimFalsifiedError,
    EmbeddingError,
    UnboundedSearchError,
)
from .exactla import Matrix, Vec, det, hadamard_bound, max_subdet_all, rat, vec
from .hull import HullReport, hull_membership, integer_points_in_hull
from .ilp import IntegralSolutionSet, enumerate_integral_optima
from .instances import (
    BinPackingInstance,
    ConfigurationSet,
    IlpInstance,
    binpack_ilp_instance,
    enumerate_configurations,
    expected_sensitivity_pair,
    fractional_certificate,
    gen_binpack_proximity,
    gen_binpack_sensitivity,
    gen_proximity,
    gen_sensitivity,
    instance_from_doc,
    instance_to_doc,
    p_q_constants,
)
from .lp import CoordRange, LpResult, StandardLp, coord_range, is_feasible_point, lp_solve
from .measures import (
    MeasureReport,
    norm_floor,
    cook_bounds,
    dist_point_set,
    dist_set_set,
    fuzz_cook,
    measure_proximity_lb,
    measure_sensitivity,
)
from .petersen import Graph, MatchingSystem, build_matching_system, enumerate_perfect_matchings, petersen_graph

__version__ = "0.1.0"
