"""Stochastic bilevel optimization with double-momentum gradient trackers.

The package solves min_x f(x, y*(x)) where y*(x) minimizes a strongly convex
lower-level objective, using a matrix-free randomized Neumann-series
hypergradient estimator and recursive-momentum correction on both levels at a
single timescale.
"""

from .driver import (
    AlternatingSGD,
    DoubleLoop,
    Policy,
    RunConfig,
    TrajectoryRecord,
    TwoTimescale,
    run_baseline,
    run_sustain,
)
from .errors import SustainError
from .harness import (
    ExperimentConfig,
    NotReached,
    RateFit,
    fit_rate_exponent,
    run_grid,
    samples_to_epsilon,
)
from .hypergrad import (
    NeumannConfig,
    bias_bound,
    choose_K_nonconvex,
    choose_K_strongly_convex,
    estimate,
    lipschitz_L_K,
)
from .momentum import MomentumState, update_f, update_g
from .oracle import (
    BilevelOracle,
    ExactOracle,
    IteratePair,
    ProblemConstants,
    check_oracle_consistency,
    derive_constants,
)
from .sampling import SampleToken
from .schedules import (
    ScheduleParams,
    nonconvex_constants,
    nonconvex_params,
    practical_params,
    strongly_convex_params,
)
from .testbed import (
    HyperCleanSpec,
    MetaLinearSpec,
    QuadBilevelSpec,
    generate_corrupted_dataset,
    make_hyperclean,
    make_meta_linear,
    make_quadratic,
    random_quadratic_spec,
)

__version__ = "0.1.0"
