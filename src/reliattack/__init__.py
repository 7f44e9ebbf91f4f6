"""Shapley values of reliability extensions of centrality and credit games,
with optimal budget-constrained attacks and independent validation oracles."""

from .attacks import (
    AttackPlan,
    AttackProblem,
    BMCReduction,
    CostModel,
    RemovalCheck,
    bmc_reduce,
    bmc_solve_exact,
    covered_weight,
    credit_knapsack_attack,
    crossover_lambda_pq,
    cycle_fractional_attack,
    fractional_attack,
    greedy_fractional_attack,
    pairwise_exempt_set,
    removal_attack,
    removal_no_benefit_check,
)
from .errors import DomainError, ResourceLimitError
from .games import (
    ClosedNeighborhoodGame,
    CoverageGame,
    CreditInstance,
    DistanceCutoffGame,
    FullCreditGame,
    FullObligationGame,
    Game,
    Graph,
    ThresholdNeighborhoodGame,
    ball,
    coauthor_contributions,
    complete_graph,
    cycle_sequence,
    game_from_json,
    is_complete,
    star_center,
)
from .oracle import (
    OracleConfig,
    fractional_knapsack_optimum,
    fractional_oracle,
)
from .reliability import (
    ReliabilityProfile,
    as_profile,
    liveness_transform,
    reliability_value,
)
from .shapley import (
    ShapleyVector,
    shapley_closed,
    shapley_cycle_closed,
    shapley_definitional,
    shapley_fc_two_author,
    shapley_gradient,
    shapley_gradient_nc1,
    shapley_vector_closed,
)

__version__ = "0.1.0"
