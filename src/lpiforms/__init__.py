"""Sobolev exterior calculus on metric simplicial complexes.

Piecewise polynomial differential forms, sparse cochains, the Whitney and
integration maps between them, grid-based mollification on the unit ball,
chain contractions, and the convergence diagnostics of the weighted bump
family that obstructs splitting for non-monotone exponent sequences.
"""

from types import ModuleType as _ModuleType

from .cochains import Cochain, coboundary, indicator, lp_norm, pi_norm
from .complexes import (
    MetricComplex,
    PiSequence,
    barycentric_subdivide,
    build_complex,
    ray_complex,
    read_complex,
    skeleton,
    star,
    validate_bounded_geometry,
    write_complex,
)
from .contract import (
    Contraction,
    ContractionFailure,
    MatrixComplex,
    assemble,
    cohomology_dims,
    contract,
    verify_contraction,
)
from .derham import derham_map, verify_split, verify_stokes, whitney
from .errors import LpiFormsError
from .mollify import (
    GridForm,
    MollifierConfig,
    ball_diffeo,
    cone_S,
    grid_d,
    homotopy_A,
    regularize,
    verify_homotopy,
    verify_support_control,
)
from .nontrivial import (
    BumpFamily,
    SeriesVerdict,
    build_family,
    bump_profile,
    derham_kernel_check,
    family_norm_series,
    subdivision_image,
    verify_nontriviality,
)
from .polyform import PolyForm, prism_extend

__version__ = "0.1.0"

# the submodules are bound here by the imports above, but are not exported names
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
