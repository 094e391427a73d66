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


def _keep_freed_pages() -> None:
    """Pin glibc's mmap and trim thresholds, so that heap freed by one
    pass is kept for the next rather than handed back to the kernel and
    faulted in again.

    glibc's adaptive rule raises the mmap threshold to the largest mmapped
    chunk freed so far and the trim threshold to twice that; with the
    energy pass's sub-megabyte temporaries, each pass regrows the heap.
    Setting either value turns the rule off, so the trim threshold is set
    only once the mmap threshold is.  Nothing is done off glibc, or where
    the environment sets a MALLOC_* threshold or a glibc.malloc tunable."""
    import ctypes
    import os

    env = os.environ
    if os.name != "posix" or "glibc.malloc." in env.get("GLIBC_TUNABLES", "") \
            or any(f"MALLOC_{name}_" in env
                   for name in ("MMAP_THRESHOLD", "TRIM_THRESHOLD", "TOP_PAD")):
        return
    libc = ctypes.CDLL(None)
    if not hasattr(libc, "gnu_get_libc_version"):
        return
    mallopt = libc.mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # M_MMAP_THRESHOLD (-3) and M_TRIM_THRESHOLD (-1) at the ceiling of
    # glibc's own rule on 64-bit: DEFAULT_MMAP_THRESHOLD_MAX, and twice it
    if mallopt(-3, 32 << 20):
        mallopt(-1, 64 << 20)


_keep_freed_pages()
