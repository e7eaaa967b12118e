"""Sharp bounds for marginal densities of product measures: numerics.

Exact section/marginal evaluation for step product densities, the bound
formulas with their exponent assignments, Brascamp-Lieb and Grassmannian
average checks, and a CLI for reproducible verification campaigns.
"""

from .bounds import (
    BLSystem,
    BoundReport,
    GaussianDensity,
    ball_integral,
    bl_check,
    bound_box1,
    bound_box2,
    bound_main,
    frame_constant_check,
)
from .densities import (
    DensityFormatError,
    ProductDensity,
    StepDensity,
    cube_density,
    random_density,
    random_product_density,
    uniform_density,
)
from .grassmann import (
    ExponentAssignment,
    Frame,
    Subspace,
    box2_exponents,
    frame_of_complement,
    grassmann_search_max,
    haar_sample,
    orthonormal_complement,
    projection_weights,
)
from .kernels import BACKEND
from .marginals import (
    MarginalQuery,
    marginal_at,
    marginal_grid_sup,
    rogozin_check,
    small_ball,
)
from .sections import (
    Box,
    hyperplane_section_exact,
    hyperplane_section_sinc,
    section_mc,
    section_quadrature,
    sharp_block_subspace,
    sharp_paired_subspace,
    unit_cube,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "BLSystem",
    "BoundReport",
    "Box",
    "DensityFormatError",
    "ExponentAssignment",
    "Frame",
    "GaussianDensity",
    "MarginalQuery",
    "ProductDensity",
    "StepDensity",
    "Subspace",
    "__version__",
    "ball_integral",
    "bl_check",
    "bound_box1",
    "bound_box2",
    "bound_main",
    "box2_exponents",
    "cube_density",
    "frame_constant_check",
    "frame_of_complement",
    "grassmann_search_max",
    "haar_sample",
    "hyperplane_section_exact",
    "hyperplane_section_sinc",
    "marginal_at",
    "marginal_grid_sup",
    "orthonormal_complement",
    "projection_weights",
    "random_density",
    "random_product_density",
    "rogozin_check",
    "section_mc",
    "section_quadrature",
    "sharp_block_subspace",
    "sharp_paired_subspace",
    "small_ball",
    "uniform_density",
    "unit_cube",
]
