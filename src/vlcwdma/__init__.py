"""Indoor visible-light WDMA link simulator and resource-allocation optimizer."""

from .geometry import Vec3, branch_normal
from .scene import (
    AccessPointSpec,
    BranchSpec,
    RoomSpec,
    Scene,
    SceneValidationError,
    SurfaceSpec,
    Wavelength,
    WAVELENGTHS,
    default_branches,
    default_surfaces,
    discretize,
    standard_room,
)
from .channel import (
    ChannelMetrics,
    GainTable,
    ImpulseResponse,
    bandwidth_3db_flagged,
    dc_gain,
    gain_matrix,
    impulse_response,
    los_contribution,
    metrics_from_response,
    rms_delay_spread,
)
from .link import (
    LinkReport,
    ReceiverFrontEnd,
    SinrModel,
    UnsupportedLinkError,
    data_rate,
    link_report,
    noise_variance,
)
from .allocator import (
    Assignment,
    Candidate,
    InfeasibleUserError,
    SearchSpaceLimitError,
    SolverConfig,
    candidates,
    solve_exact,
    solve_exhaustive,
    solve_greedy,
)
from .experiment import (
    ConfigError,
    ExperimentConfig,
    RunResult,
    load_config,
    preset_config,
    run_experiment,
    scenario_preset,
)

__version__ = "0.1.0"
