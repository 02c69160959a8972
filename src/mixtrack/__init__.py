"""Online mixture of restarting base learners for mixable losses.

A pool of base-learner copies is laid out on a reset calendar (one copy
per start time and restart period).  Their predictions are merged with a
loss-specific substitution rule, and weights are moved between copies by
a sparse transition kernel that routes mass through a single designated
restarting copy each round.  The result tracks the best sequence of
restarts without knowing the switch times in advance.

Modules
-------
losses
    Mixable loss families: checked evaluation and substitution over
    unchecked kernels, mixability slack.
base
    Constant-predictor base learners with logarithmic static regret.
schemes
    Reset calendars: when copies are born and when they restart.
mixture
    The aggregation engine: one row per created copy, one round path
    for both modes, one StepRecord per round and a Trace of columns.
evaluation
    Regret reports, switching bounds, tightest-path certificate.
harness
    Config-driven experiment runner, CSV/JSON emission, CLI.
"""

from .losses import (
    BernoulliLogLoss,
    ExpConcaveLoss,
    SquareLoss,
    make_loss,
    mixability_slack,
    register_loss,
)
from .base import KTEstimator, RunningMean, make_base, register_base, static_regret
from .schemes import (
    ExpertSpec,
    LinScheme,
    LogScheme,
    PeriodSequence,
    SubScheme,
    make_scheme,
)
from .mixture import Mixture, select_jt, transition_weight
from .evaluation import (
    RegretReport,
    Segmentation,
    dynamic_regret,
    nts_bound,
    oracle_comparators,
    path_oracle,
    switch_bound,
)
from .harness import ExperimentConfig, generate_stream, run_experiment, sweep

__all__ = [
    "BernoulliLogLoss",
    "ExpConcaveLoss",
    "ExperimentConfig",
    "ExpertSpec",
    "KTEstimator",
    "LinScheme",
    "LogScheme",
    "Mixture",
    "PeriodSequence",
    "RegretReport",
    "RunningMean",
    "Segmentation",
    "SquareLoss",
    "SubScheme",
    "dynamic_regret",
    "generate_stream",
    "make_base",
    "make_loss",
    "make_scheme",
    "mixability_slack",
    "nts_bound",
    "oracle_comparators",
    "path_oracle",
    "register_base",
    "register_loss",
    "run_experiment",
    "select_jt",
    "static_regret",
    "sweep",
    "switch_bound",
    "transition_weight",
]
