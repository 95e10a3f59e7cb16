"""Verified numerics for leader-follower communication games.

The package computes equilibria of a two-player quadratic signaling game
with jointly Gaussian sources: the transmitter commits to its strategy
first, the receiver best-responds with a conditional-mean estimate.
Solvers cover the noiseless game, the rate-limited game, the average-power
noisy channel, receiver side information, and a family of quadratic control
games; a seeded simulation kit cross-checks every closed form against
model-free estimates.
"""

from .errors import (
    CrossTermPresent,
    DegenerateDenominator,
    InfeasibleInterval,
    InvalidDistribution,
    InvalidModel,
    NoRoot,
    NonCanonicalizable,
    SingularObservation,
    ToolkitError,
    Unbounded,
    ZeroRate,
)
from .gausslin import (
    CostPair,
    LinearScheme,
    SideInfoModel,
    SourcePairModel,
    ValidationReport,
    best_decoder,
    best_decoders,
    cross_moment,
    mmse_linear,
    no_information_costs,
    require_valid,
    scheme_costs,
    validate_model,
)
from .equilibrium import (
    EquilibriumReport,
    LimitReport,
    a_aux,
    analytic_costs,
    best_alpha,
    corollary_limits,
    objective_j,
    solve_noiseless,
)
from .strategic_rd import (
    DiscreteInstance,
    EmpiricalTriple,
    LloydMaxQuantizer,
    RdPoint,
    bits_to_nats,
    discrete_best_response,
    discrete_triple,
    empirical_triple,
    lloyd_max,
    nats_to_bits,
    quadratic_tables,
    rate_of_test_channel,
    rd_point,
    rd_sweep,
    rd_sweep_csv,
    rd_test_channel,
)
from .noisy_channel import ChannelSpec, capacity, opta_bound, power_sweep, solve_noisy
from .side_info import (
    MatchReport,
    SiEquilibriumReport,
    SiRdPoint,
    beta_of_rate,
    feasible_rho_xw_interval,
    find_matched_rho_xw,
    match_condition,
    match_sweep,
    match_sweep_csv,
    si_rate,
    si_rd_point,
    solve_noiseless_si,
    solve_noisy_si_linear,
    transmitter_si_invariance,
)
from .control_games import (
    CanonicalForm,
    QuadraticObjective,
    canonicalize,
    classification_report,
    expand_canonical,
    has_ux_cross_term,
    solve_canonical,
    solve_objectives,
)
from .simkit import (
    AceReport,
    CostEstimate,
    DecoderCheck,
    DeviationReport,
    GridSpec,
    SampleTable,
    SimConfig,
    ace_max_correlation,
    deviation_search,
    empirical_decoder,
    estimate_costs,
    sample,
    verification_report,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
