"""Periodic solutions of the differential inclusion 0 in q'' + dV(q).

Computes and certifies T-periodic orbits of second-order systems whose
potential V is locally Lipschitz (smooth, or a finite max of smooth
pieces), by discretizing the variational structure: the action
functional on a truncated Fourier loop space, its generalized gradient
with min-norm selection, Cerami-type compactness diagnostics, and the
superquadratic linking / subquadratic saddle minimax geometries,
followed by a posteriori residual verification and an independent
shooting cross-check for smooth potentials.
"""

from .action import (
    ActionGradient,
    CeramiRecord,
    action_value,
    cerami_measure,
    classify_sequence,
    h1_preconditioned,
    history_to_csv,
    min_norm_subgradient,
    project_hull,
)
from .linking import (
    InfeasibleGeometryError,
    LinkingGeometry,
    NonCoerciveError,
    alpha_lower_bound,
    calibrate_saddle,
    calibrate_superquadratic,
    certify_linking,
    threshold_period,
    unit_direction,
)
from .potentials import (
    HypothesisCertificate,
    PotentialModel,
    SamplerSpec,
    SubgradientSet,
    certify,
    clarke_directional,
    clarke_directional_fd,
    make_maxpair,
    make_maxpoly,
    make_quartic,
    make_subq32,
    make_subq32cos,
    subdiff,
)
from .solver import (
    GeometryNotCertified,
    SolverConfig,
    SolverResult,
    StallError,
    Surface,
    deform_step,
    init_surface,
    ridge_probe,
    run_minimax,
    run_saddle,
)
from .trajectory import (
    InequalityReport,
    PeriodicTrajectory,
    SpaceSplit,
    check_friedrichs,
    check_sobolev,
    check_wirtinger,
    h1_norm,
    h1_norm_mean,
    l2_inner,
    l2_norm,
    random_trajectory,
    split,
    sup_norm,
)
from .verification import (
    OracleFailure,
    ShootingResult,
    VerificationReport,
    energy_drift,
    inclusion_residual,
    shooting_oracle,
)

__version__ = "0.1.0"
