"""Natural gradient descent for combined losses over periodic densities.

The combined preconditioner diagonalizes the loss Hessian approximately in
a compactly supported orthogonal wavelet basis; transport (Wasserstein),
Fisher-Rao, and Mahalanobis preconditioners are provided as baselines.
"""

from .grid import Density, Grid, make_grid, reference_measure, uniform_density
from .losses import LossEval, LossSpec, combined_eval, e1_eval, e2_eval, e3_eval
from .metrics import MetricKind, MetricPrecomp, build_precomp, metric_apply_fn
from .operators import (
    EllipticSolveConfig,
    EllipticSolveError,
    laplacian_apply,
    laplacian_pinv_apply,
    weighted_elliptic_pinv_apply,
)
from .optimizer import DescentConfig, DescentHistory, armijo_step, run_descent
from .wavelets import (
    WaveletBasis,
    daubechies_lowpass,
    make_basis,
    transform_forward,
    transform_inverse,
)

__version__ = "0.1.0"
