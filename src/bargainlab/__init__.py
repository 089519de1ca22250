"""Bargaining-on-a-grid laboratory.

Engine for a finite-horizon alternating-offers game on a share grid, two
follow-the-regularized-leader learning rules over its pure strategies,
self-play dynamics with convergence detection and closed-form predictions for
the one-round game, external-regret accounting against bin-constrained
adversaries, and stationary-equilibrium tooling (feasibility, certificate
construction, one-shot deviation scans, expected match payoffs) for a
matching market built on the same protocol.
"""

from bargainlab.game import (
    GameConfig,
    Strategy,
    Outcome,
    FeedbackVector,
    all_strategies,
    best_responses,
    continuous_play,
    equilibrium_value,
    feedback_vector,
    is_pure_ne,
    payoff_matrices,
    play,
    strategy_from_index,
    strategy_index,
    PAYOFF_TOL,
)
from bargainlab.ftrl import (
    HorizonExceededError,
    LearnerConfig,
    LearnerState,
    MixedStrategy,
    Play,
    l1_update,
    l2_update,
    make_learner,
    step,
)
from bargainlab.dynamics import (
    AdversarySchedule,
    BatchResult,
    G1Classification,
    RegretResult,
    TrajectoryRecord,
    batch_self_play,
    classify_g1,
    detect_convergence,
    external_regret,
    make_adversary,
    self_play,
    theorem5_preconditions,
)
from bargainlab.spe import (
    Deviation,
    EquilibriumCertificate,
    FeasibilityError,
    GapResult,
    MarketParams,
    MultiMarketParams,
    PayoffTarget,
    construct_certificate,
    expected_match_payoffs,
    feasibility_violations,
    multi_constraint_rhs,
    multi_discriminatory,
    multi_feasible,
    one_shot_deviation_scan,
    payoff_gaps,
    prop2_check,
    sample_feasible_instance,
    theorem1_feasible,
    w_bounds,
    w1_lower_bound,
    w2_lower_bound,
)

__version__ = "0.1.0"

# every name the imports above bind, except the submodules they bind as well
__all__ = [
    name for name in dir()
    if not name.startswith("_") and name not in ("game", "ftrl", "dynamics", "spe")
] + ["__version__"]
