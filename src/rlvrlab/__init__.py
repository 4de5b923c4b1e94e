"""Desk-scale lab for reinforcement learning with verifiable rewards.

A fully explicit k-gram policy, group-normalized clipped policy-gradient
objectives with length curricula and repetition shaping, a cascade
math-answer verifier, and a data-curation pipeline, all exercised end to
end on synthetic arithmetic tasks.
"""

from .config import StagePlan, TrainConfig
from .curation import (
    CurationConfig,
    FunnelReport,
    ProblemRecord,
    run_pipeline,
)
from .objectives import (
    AdvantageSet,
    Batch,
    clipped_objective,
    filter_mixed_groups,
    shaped_advantages,
)
from .policy import (
    PolicyParams,
    Vocab,
    load_checkpoint,
    sample_groups,
    save_checkpoint,
)
from .repetition import detect_loop, repetition_score
from .tasks import TaskSpec, generate_tasks
from .trainer import (
    MetricsRecord,
    TrainResult,
    collect_batch,
    evaluate,
    stage_saturated,
    train,
)
from .verifier import (
    ParsedAnswer,
    Verdict,
    normalize,
    parse_math,
    reward,
    verify,
)

__version__ = "0.1.0"
