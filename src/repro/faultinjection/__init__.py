"""Statistical fault injection: campaigns, outcome taxonomy, significance."""

from .campaign import (
    CampaignConfig,
    PreparedWorkload,
    draw_plans,
    prepare,
    run_campaign,
    run_trial,
)
from .diskcache import CACHE_SCHEMA_VERSION, CampaignCache, campaign_key
from .parallel import run_trials_parallel
from .recovery import RecoveryResult, run_with_recovery
from .resilience import (
    Checkpoint,
    Checkpointer,
    ResilienceLogger,
    ResiliencePolicy,
    load_checkpoint,
    save_checkpoint,
)
from .outcomes import CampaignResult, Outcome, TrialResult
from .stats import Z_95, confidence_interval, margin_of_error, trials_for_margin

__all__ = [
    "CampaignConfig", "PreparedWorkload", "draw_plans", "prepare",
    "run_campaign", "run_trial",
    "CampaignResult", "Outcome", "TrialResult",
    "CACHE_SCHEMA_VERSION", "CampaignCache", "campaign_key",
    "run_trials_parallel",
    "RecoveryResult", "run_with_recovery",
    "Checkpoint", "Checkpointer", "ResilienceLogger", "ResiliencePolicy",
    "load_checkpoint", "save_checkpoint",
    "Z_95", "confidence_interval", "margin_of_error", "trials_for_margin",
]
