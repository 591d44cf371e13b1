"""Rule registry: every RPL rule, instantiated once, keyed by code."""

from .base import Rule, Violation, model_classes
from .rpl001_wallclock import WallClockRule
from .rpl002_randomness import RandomnessRule
from .rpl003_purity import SuperstepPurityRule
from .rpl004_mutable_defaults import MutableClassDefaultRule
from .rpl005_exceptions import ExceptionDisciplineRule
from .rpl006_metadata import EngineMetadataRule
from .rpl007_cost_accounting import CostAccountingRule
from .rpl008_set_iteration import SetIterationRule
from .rpl009_concurrency import ConcurrencyRule
from .rpl010_recovery_sites import RecoverySiteRule
from .rpl011_model_conformance import ModelConformanceRule
from .rpl012_determinism import DeterminismTaintRule
from .rpl013_span_coverage import SpanCoverageRule
from .rpl014_chaos_safety import ChaosSafetyRule
from .rpl015_pool_payload import PoolPayloadRule
from .rpl016_redundant_digest import RedundantDigestRule
from .rpl017_superstep_hygiene import SuperstepHygieneRule
from .rpl018_cache_key import CacheKeySoundnessRule
from .rpl019_worker_sharing import WorkerSharingRule
from .rpl020_bounded_retry import BoundedRetryRule
from .rpl021_guarded_fields import GuardedFieldRule
from .rpl022_blocking_under_lock import BlockingUnderLockRule
from .rpl023_condition_hygiene import ConditionHygieneRule
from .rpl024_thread_confinement import ThreadConfinementRule

__all__ = [
    "Rule",
    "Violation",
    "model_classes",
    "RULES",
    "RULES_BY_CODE",
]

RULES = (
    WallClockRule(),
    RandomnessRule(),
    SuperstepPurityRule(),
    MutableClassDefaultRule(),
    ExceptionDisciplineRule(),
    EngineMetadataRule(),
    CostAccountingRule(),
    SetIterationRule(),
    ConcurrencyRule(),
    RecoverySiteRule(),
    ModelConformanceRule(),
    DeterminismTaintRule(),
    SpanCoverageRule(),
    ChaosSafetyRule(),
    PoolPayloadRule(),
    RedundantDigestRule(),
    SuperstepHygieneRule(),
    CacheKeySoundnessRule(),
    WorkerSharingRule(),
    BoundedRetryRule(),
    GuardedFieldRule(),
    BlockingUnderLockRule(),
    ConditionHygieneRule(),
    ThreadConfinementRule(),
)

RULES_BY_CODE = {rule.code: rule for rule in RULES}
