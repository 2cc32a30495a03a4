"""Core AlphaEvolve library: the alpha language, evaluator and search."""

from .cache import CacheStats, FingerprintCache, fingerprint
from .correlation import CorrelationFilter
from .evolution import (
    Candidate,
    CandidateScorer,
    EvolutionConfig,
    EvolutionResult,
    TrajectoryPoint,
)
from .fitness import FitnessReport, INVALID_FITNESS, daily_ic, mean_ic
from .initializations import (
    INITIALIZATION_NAMES,
    domain_expert_alpha,
    get_initialization,
    neural_network_alpha,
    noop_alpha,
    random_alpha,
)
from .interpreter import AlphaEvaluator, EvaluationResult
from .memory import INPUT_MATRIX, LABEL, Memory, Operand, OperandType, PREDICTION
from .mining import MinedAlpha, MiningSession
from .mutation import MutationConfig, Mutator
from .ops import (
    CLIP_VALUE,
    Dimensions,
    ExecutionContext,
    OP_REGISTRY,
    OpKind,
    OpSpec,
    get_op,
    list_ops,
    sample_params,
)
from .program import AlphaProgram, ComponentLimits, Operation, COMPONENTS
from .pruning import PruneResult, backward_liveness, liveness_fixpoint, prune_program

__all__ = [
    "AlphaEvaluator",
    "AlphaProgram",
    "COMPONENTS",
    "CLIP_VALUE",
    "CacheStats",
    "Candidate",
    "CandidateScorer",
    "ComponentLimits",
    "CorrelationFilter",
    "Dimensions",
    "EvaluationResult",
    "EvolutionConfig",
    "EvolutionResult",
    "ExecutionContext",
    "FingerprintCache",
    "FitnessReport",
    "INITIALIZATION_NAMES",
    "INPUT_MATRIX",
    "INVALID_FITNESS",
    "LABEL",
    "Memory",
    "MinedAlpha",
    "MiningSession",
    "MutationConfig",
    "Mutator",
    "OP_REGISTRY",
    "OpKind",
    "OpSpec",
    "Operand",
    "OperandType",
    "Operation",
    "PREDICTION",
    "PruneResult",
    "TrajectoryPoint",
    "backward_liveness",
    "daily_ic",
    "domain_expert_alpha",
    "fingerprint",
    "get_initialization",
    "get_op",
    "list_ops",
    "liveness_fixpoint",
    "mean_ic",
    "neural_network_alpha",
    "noop_alpha",
    "prune_program",
    "random_alpha",
    "sample_params",
]
