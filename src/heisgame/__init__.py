"""Zero-sum differential games on the Heisenberg group.

Group algebra and the gauge metric live in :mod:`heisgame.heis`,
horizontal curves in :mod:`heisgame.flow`, grids and interpolation in
:mod:`heisgame.grids`, the game engine in :mod:`heisgame.game`, the
initial-value Hamilton-Jacobi pipeline in :mod:`heisgame.hji`, and the
CLI in :mod:`heisgame.cli`.
"""

from .heis import (
    IDENTITY,
    Box,
    ConvexityReport,
    dilate,
    dist_g,
    gauge,
    group_mul,
    h_convexity_check,
    inverse,
)
from .flow import (
    PiecewiseConstantControl,
    Trajectory,
    check_reach_bound,
    check_shifted_start_bound,
    check_translation_identity,
    exact_step,
    integrate,
    rk4_reference,
)
from .grids import (
    Grid3,
    ValueGrid,
    certify_region,
    read_value_grid,
    sample_field,
    write_value_grid,
)
from .game import (
    AuditReport,
    ControlLattice,
    GameSpec,
    LipschitzConstants,
    NonFiniteValueError,
    backward_induction,
    brute_force_value,
    dpp_residual,
    isaacs_gap,
    lipschitz_audit,
    lower_hamiltonian,
    make_lattice,
    upper_hamiltonian,
)
from .hji import (
    HjiProblem,
    build_game,
    hamiltonian_identity_check,
    pde_residual,
    solve,
    uniqueness_initial_trace,
)
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario

__version__ = "0.1.0"
