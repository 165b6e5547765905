"""Coarse position measurement followed by a rank-one projection.

Library for computing P(Y=1) of the two-stage measurement (bin readout
at precision 1/n, then |phi><phi|) over rectangular grid schemes on
[0,1)^d and R^d, sampling the joint outcome (X, Y), discretizing
functions into per-bin bar charts, and estimating the decay rate of
P(Y=1) as the grids refine.
"""

from .grids import (
    Bin,
    ConcatenatedGrid,
    CubeBox,
    CustomGrid,
    GridLevel,
    GridScheme,
    GridValidationReport,
    InfeasibleGridError,
    Interval,
    OutOfDomainError,
    OverlappingCubesError,
    ProductGrid,
    jittered_grid,
    locate_bin,
    rd_grid,
    uniform_grid,
    validate_grid,
)
from .states import (
    CATALOG,
    DensityState,
    Domain,
    NonOrthogonalTermsError,
    SeparableFunction,
    WaveFunction,
    inner_product,
    make_density,
    make_state,
    product_field,
    superpose,
    tensor_product,
)
from .quadrature import (
    DEFAULT_CONFIG,
    Integral,
    QuadratureConfig,
    ToleranceNotMetError,
    bin_inner_product,
    bin_mass,
    l2_distance,
    l2_norm,
)
from .measurement import (
    JointDistribution,
    MeasurementResult,
    SampleBatch,
    TableTooLargeError,
    ZeroMassBinError,
    bar_norm_squared,
    collapse,
    joint_distribution,
    prob_y1_given_bin,
    prob_y1_mixed,
    prob_y1_pure,
    sample_xy,
)
from .discretizer import (
    DiscretizedFunction,
    discretization_error,
    discretize,
    norm_identity_check,
)
from .analysis import (
    ConvergenceRecord,
    ConvergenceRow,
    CubeBudgetExceededError,
    DegenerateWindowError,
    InsufficientSignalError,
    RiemannCheck,
    TailBudget,
    UnboundedStateError,
    convergence_study,
    fit_rate,
    rd_study,
    riemann_limit_check,
)

__version__ = "0.1.0"
