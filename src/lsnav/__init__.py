"""Pseudo-gradient flows, navigation functions, explicit motion planners and
Lusternik-Schnirelmann bound aggregation on embedded manifolds."""

from . import bounds, constraints, errors, flow, manifolds, navigation, paths, unit_tangent
from .bounds import (
    BoundInput,
    BoundResult,
    ComponentComplexity,
    ls_upper_bound,
    product_spheres_bound,
    reference_tc,
    unit_tangent_bound,
)
from .flow import (
    CriticalComponent,
    FlowConfig,
    FlowTrace,
    ScalarField,
    descent_diagnostic,
    detect_critical,
    find_critical_components,
    height_field,
    integrate_flow,
    newton_critical_search,
    rho,
)
from .manifolds import (
    Ellipsoid,
    Euclidean,
    ImplicitHypersurface,
    ManifoldSpec,
    PointOnM,
    ProductSpheres,
    Sphere,
    StiefelV2,
    TangentVector,
    mult_i,
    mult_j,
    project_to_manifold,
    random_points,
    spec_from_json,
    spec_to_json,
    tangent_project,
)
from .navigation import (
    NavTuple,
    PairCensus,
    PairSearchConfig,
    SignPattern,
    classify_sphere_critical,
    critical_tuple,
    find_parallel_pairs,
    nav_field,
    nav_gradient,
    nav_value,
    pattern_value,
    random_critical_tuple,
)
from .paths import (
    PathSpec,
    compose_section_through_deformation,
    deformation_to_section,
    eval_path,
    geodesic_to_antipode,
    path_fibration,
    plan_product_odd_spheres,
)
from .unit_tangent import (
    FiberTuple,
    Trivialization,
    df_ut,
    f_ut,
    f_ut_field,
    fiber_fibration,
    sigma_u_planner,
    su_trivialization,
    vertical_flow_endpoints,
    vertical_proportionality_scan,
)

__version__ = "0.1.0"
