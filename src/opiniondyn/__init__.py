"""Two-functional-network opinion dynamics.

Opinions evolve through a public interacting network while each agent
privately weighs the others through a signed appraisal network; the package
classifies the coupled update spectrally, maps feasible step-size regions,
simulates issue-free and issue-coupled trajectories, and estimates the
private appraisal weights from sampled opinion pairs.
"""

from .errors import (
    AmbiguousSpectrumError,
    NumericalError,
    OpinionDynError,
    ValidationError,
)
from .netcore import (
    SystemSpec,
    abs_matrix,
    appraisal_kind,
    has_spanning_tree,
    laplacian_to_stochastic,
    same_topology,
    spanning_tree_root,
    stochastic_to_laplacian,
)
from .simulate import Trajectory, run, run_multi_issue
from .spectral import (
    LimitPrediction,
    SpectralReport,
    classify_multi_issue,
    classify_system,
    eigen,
    powers_converge,
    predict_limit,
)
from .stepsize import (
    FeasibleRegion,
    PolynomialPair,
    bilinear_transform,
    epsilon_range,
    feasible_rho_bound,
    feasible_rho_cubic,
    feasible_rho_direct,
    hb_step_check,
    hermite_biehler_hurwitz,
    imaginary_axis_parts,
)
from .estimate import (
    EstimationResult,
    SampleBoundQuery,
    ScenarioSet,
    draw_scenarios,
    empirical_violation,
    grow_sample_estimate,
    sample_bound,
    solve_estimation,
)

__version__ = "0.1.0"
