"""Fault-injection campaign subsystem.

Proves — systematically, per fault model, under a pinned seed — which
corruptions of the decode/deploy path the hardened implementation
detects or recovers from, and which would slip through silently.  See
``docs/robustness.md`` for the taxonomy and guarantees, and ``repro
faults`` for the CLI entry point.

``models``
    Composable, deterministic injectors for TT/BBIT corruption,
    encoded-image bit flips, and fetch-protocol violations.
``campaign``
    The sweep runner (models x workloads x trials x decoder modes)
    with optional worker processes, per-case timeouts, and a
    downgrade-to-serial failure mode.
``report``
    Outcome classification, per-model detection-rate tables, and the
    ``FAULTS_report.json`` writer.
``storage``
    The ALICE-style crash-consistency checker over the *durability*
    surfaces (WAL, atomic report writes, disk cache):
    record the syscall trace, simulate a crash at every prefix, replay
    recovery, assert no acknowledged state is lost (``repro faults
    --storage``).
"""

from repro.faults.campaign import (
    CampaignConfig,
    DeploymentTarget,
    case_key,
    run_campaign,
    run_case,
)
from repro.faults.models import (
    DEFAULT_MODELS,
    MODELS_BY_NAME,
    FaultModel,
    RunState,
    SchemeTagCorruption,
)
from repro.faults.report import CaseResult, FaultCampaignReport
from repro.faults.storage import (
    MemoryVFS,
    StorageCampaignReport,
    run_storage_campaign,
    storage_report_problems,
)

__all__ = [
    "CampaignConfig",
    "DeploymentTarget",
    "case_key",
    "run_campaign",
    "run_case",
    "DEFAULT_MODELS",
    "MODELS_BY_NAME",
    "FaultModel",
    "RunState",
    "SchemeTagCorruption",
    "CaseResult",
    "FaultCampaignReport",
    "MemoryVFS",
    "StorageCampaignReport",
    "run_storage_campaign",
    "storage_report_problems",
]
