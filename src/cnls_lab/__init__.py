"""Numerical laboratory for standing waves of weakly coupled NLS systems."""

from .audit import AuditReport, AuditRow, identity_audit
from .core import (
    FieldPair,
    Grid,
    SystemParams,
    default_half_width,
    gradient_norm_sq,
    h1_distance,
    h1_norm_sq,
    l2_norm_sq,
    relative_error,
    weighted_l2_norm_sq,
)
from .errors import (
    BoundaryDecayError,
    ConstraintError,
    ConvergenceError,
    GridMismatchError,
    SupportError,
)
from .dynamics import (
    EvolveConfig,
    TrajectoryLog,
    VirialCheck,
    evolve,
    step_strang,
    virial_series,
)
from .functionals import (
    FunctionalReport,
    action_I,
    coupling_F,
    coupling_gradient,
    energy_E,
    nehari_pairing,
    partial_pairings,
    pohozaev_check,
    variance,
    virial_R,
)
from .minimize import (
    ConstraintSpec,
    MinimizeResult,
    gaussian_init,
    ground_state,
    minimize_on,
    multiplier_extract,
    nehari_project,
    nehari_set_project,
    pohozaev_project,
)
from .profiles import (
    Family,
    ScalingParams,
    base_profile_1d,
    base_profile_nd,
    critical_value_map_T,
    delta_of_omega,
    lambda_star,
    make_member,
    nehari_to_sphere,
    scale_field,
    scale_pair,
    z_beta_omega,
)
from .snapshots import load_snapshot, save_snapshot
from .stability import (
    BlowupReport,
    OrbitDistanceResult,
    StabilityVerdict,
    blowup_experiment,
    orbit_distance,
    perturbation_pair,
    stability_sweep,
)

__version__ = "0.1.0"
