"""Numerical workbench for nonlocal functionals on ball Banach function spaces."""

from .bbm import (
    ConvergenceReport,
    convergence_study,
    kappa,
    sobolev_target,
    upper_bound_diagnostics,
)
from .field import (
    SampledField,
    TestFunction,
    fd_gradient,
    gradient_magnitude_field,
    indicator_halfspace,
    linear,
    load_field_csv,
    product_sine,
    quadratic,
    radial_bump,
    sample,
    zero_extension,
)
from .geometry import (
    Box,
    Disk,
    Interval,
    Polygon,
    QuadratureGrid,
    sample_quadrature,
)
from .mollifiers import (
    GagliardoFamily,
    RdatiFamily,
    bump_family,
    fractional_family,
    normalization_defect,
    tail_mass,
)
from .nonlocal_energy import (
    bbm_functional_schedule,
    energy_half_field,
    gagliardo_functional,
    pointwise_energy,
)
from .oracle import dense_1d_functional, mc_sphere_moment, rearrangement_oracle
from .spaces import (
    BesovBourgainMorrey,
    ConstantWeight,
    GridWeight,
    HerzGlobal,
    HerzLocal,
    Lebesgue,
    Lorentz,
    MixedLebesgue,
    Morrey,
    OrliczSlice,
    OrliczSpace,
    PowerLogOrlicz,
    PowerOrlicz,
    PowerWeight,
    TableOrlicz,
    VariableLebesgue,
    WeightedLebesgue,
    ap_constant,
    convexify,
    decreasing_rearrangement,
    holder_defect,
    norm,
)

__version__ = "0.1.0"
