"""Numerical laboratory for a conformal curvature functional on
triangulated spheres: energy evaluation, constrained minimization, the
mean-field equation, Green-function and bubble analysis, inequality
property suites, and a normalized curvature flow, with a CLI harness.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .energy import (
    EIGHT_PI,
    EnergyBreakdown,
    conformal_curvature,
    liouville_energy,
    log_volume,
    onofri_deficit,
    perturbed_functional,
    perturbed_gradient,
)
from .errors import (
    ConvergenceError,
    DataError,
    LabError,
    MeshQualityError,
    NumericError,
    ParameterError,
    ResolutionError,
)
from .flow import FlowTrace, flow_step, run_flow
from .green import (
    BubbleReport,
    GreenResult,
    bubble_checks,
    bubble_dirichlet_closed_form,
    bubble_mass_closed_form,
    bubble_profile,
    extract_A,
    lower_bound_predictor,
    rescale_diagnostic,
    solve_green,
)
from .inequalities import (
    InequalityReport,
    brezis_merle_check,
    check_global_mt,
    check_local_mt,
    onofri_suite,
    poincare_constant,
    sample_seed,
    disk_floor_gap,
)
from .mesh import (
    FOUR_PI,
    DiscreteOperators,
    TriangulatedSphere,
    assemble_operators,
    build_icosphere,
    dirichlet_energy,
    geodesic_distances,
    integrate,
    mobius_dilation_factor,
    random_band_field,
    read_field_csv,
    read_off_mesh,
    sample_field,
    set_conformal_background,
    write_field_csv,
    write_off_mesh,
)
from .solver import (
    DiskMinimum,
    MinimizerResult,
    SolverConfig,
    disk_min_dirichlet,
    mass_norm,
    minimize_perturbed,
    project_constraint,
    solve_mean_field,
)

# Every public name bound above; the submodules imported along the way and
# the private helpers stay out.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
