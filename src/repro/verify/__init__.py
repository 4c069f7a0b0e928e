"""Differential verification: the production path against the oracle.

The codec keeps one production path per job (compiled codebook
encode, bitplane decode) and one oracle (:mod:`repro.core.reference`:
per-block :class:`BlockSolver` encode, bit-serial decode), plus the
behavioural :class:`FetchDecoder` in three fault-handling modes.  This
package turns that redundancy into a harness: seeded randomised inputs
(streams, synthetic programs, corrupted table states) plus exhaustive
per-block-size sweeps run through every path, demanding bit-identical
agreement, with divergences shrunk into replayable counterexamples and
the verdict qualified by behaviour-space coverage
(``VERIFY_report.json``).  ``repro verify`` is the CLI front end.
"""

from repro.verify.campaign import (
    KIND_PATTERN,
    VerifyConfig,
    case_kind,
    case_seed_key,
    run_case,
    run_verify,
)
from repro.verify.checks import (
    CheckResult,
    TABLE_FAULTS,
    check_encoders,
    check_program,
    check_stream,
    check_tables,
    sweep_boundary,
    sweep_codebook,
    sweep_encoder_tables,
    sweep_tau,
)
from repro.verify.counterexample import (
    make_record,
    replay_counterexample,
    shrink_stream,
    shrink_words,
)
from repro.verify.coverage import (
    DECODER_TRANSITIONS,
    GATED_BLOCK_SIZES,
    CoverageTracker,
)
from repro.verify.generators import (
    Deployment,
    biased_stream,
    block_words,
    burst_stream,
    hot_word_stream,
    make_deployment,
    random_deployment,
    word_blocks,
)
from repro.verify.mutation import (
    MUTATIONS,
    applied_mutations,
    apply_mutation,
)
from repro.verify.report import (
    REPORT_VERSION,
    VerifyReport,
    load_verify_report,
    verify_report_problems,
)

__all__ = [
    "KIND_PATTERN",
    "VerifyConfig",
    "case_kind",
    "case_seed_key",
    "run_case",
    "run_verify",
    "CheckResult",
    "TABLE_FAULTS",
    "check_encoders",
    "check_program",
    "check_stream",
    "check_tables",
    "sweep_boundary",
    "sweep_codebook",
    "sweep_encoder_tables",
    "sweep_tau",
    "make_record",
    "replay_counterexample",
    "shrink_stream",
    "shrink_words",
    "DECODER_TRANSITIONS",
    "GATED_BLOCK_SIZES",
    "CoverageTracker",
    "Deployment",
    "biased_stream",
    "block_words",
    "burst_stream",
    "hot_word_stream",
    "make_deployment",
    "random_deployment",
    "word_blocks",
    "MUTATIONS",
    "applied_mutations",
    "apply_mutation",
    "REPORT_VERSION",
    "VerifyReport",
    "load_verify_report",
    "verify_report_problems",
]
