"""Periodic solutions of the differential inclusion 0 in q'' + dV(q).

Computes and certifies T-periodic orbits of second-order systems whose
potential V is locally Lipschitz (smooth, or a finite max of smooth
pieces), by discretizing the variational structure: the action
functional on a truncated Fourier loop space, its generalized gradient
with min-norm selection, the Cerami measure as the stopping rule, and
the superquadratic linking / subquadratic saddle minimax geometries,
followed by a posteriori residual verification and an independent
shooting cross-check for smooth potentials.  The package exports what a
run calls (certify -> calibrate -> probe -> polish -> verify) and the
types it reports.
"""

import numpy as _np

from .action import (
    ActionGradient,
    CeramiRecord,
    action_value,
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
    PeriodicTrajectory,
    h1_norm,
    l2_norm,
    random_trajectory,
)
from .verification import (
    OracleFailure,
    ShootingResult,
    VerificationReport,
    inclusion_residual,
    shooting_oracle,
)

__version__ = "0.1.0"

# Free one 4 MB block before any solve.  glibc serves blocks above its
# mmap threshold (128 KB at start) with a fresh mmap and unmaps them on
# free; freeing a mapped block raises that threshold (and the heap trim
# threshold) to the block's size.  Without this the solver's 0.3-0.5 MB
# temporaries are mapped, page-faulted and unmapped on every step, about
# 4500 minor faults per kink solve against about none with it.
_np.empty(4 << 20, _np.uint8)
