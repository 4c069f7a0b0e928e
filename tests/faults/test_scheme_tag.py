"""Fault-campaign coverage for mixed-scheme bundles.

The ``scheme_tag_corruption`` model rewrites the per-region scheme tag
of a deployed mixed bundle.  Strict mode must raise the typed
:class:`~repro.errors.SchemeTagError` (classified ``detected``);
recover mode must re-fetch the region from the golden bundle and
finish the trace bit-identically (``recovered``).  On a
classic single-scheme deployment the model has nothing to corrupt and
must report ``not-applicable`` rather than inventing work.
"""

import pytest

from repro.errors import ReproError, SchemeTagError
from repro.faults import MODELS_BY_NAME
from repro.faults.campaign import DeploymentTarget, run_case

from tests.strategies import rng_for

MODEL = MODELS_BY_NAME["scheme_tag_corruption"]
TRIALS = 6


@pytest.fixture(scope="module")
def mixed_target():
    """A real mixed-scheme deployment (selector over the fft workload);
    module-scoped because the selector run costs ~1.5s."""
    return DeploymentTarget.prepare_mixed("fft")


class TestTypedError:
    def test_scheme_tag_error_is_a_repro_error(self):
        assert issubclass(SchemeTagError, ReproError)


class TestMixedTarget:
    def test_target_carries_regions(self, mixed_target):
        assert mixed_target.name == "fft-mixed"
        assert mixed_target.regions
        assert all("scheme" in region for region in mixed_target.regions)

    def test_injection_rewrites_one_region_tag(self, mixed_target):
        state = mixed_target.materialise()
        record = MODEL.inject(state, rng_for("tag-inject", 0))
        assert record.applicable
        assert record.detail["tag"] == MODEL.BOGUS_TAG
        corrupted = {
            pc
            for pc, tag in state.region_schemes.items()
            if tag == MODEL.BOGUS_TAG
        }
        assert len(corrupted) == record.detail["addresses"]
        assert record.detail["first_pc"] == min(corrupted)

    def test_strict_detects_every_trial(self, mixed_target):
        for i in range(TRIALS):
            result = run_case(mixed_target, MODEL, f"tag:strict:{i}", "strict")
            assert result.outcome == "detected", (i, result.outcome)

    @pytest.mark.parametrize("mode", ["recover"])
    def test_recover_modes_recover_every_trial(self, mixed_target, mode):
        for i in range(TRIALS):
            result = run_case(mixed_target, MODEL, f"tag:{mode}:{i}", mode)
            assert result.outcome == "recovered", (mode, i, result.outcome)

    def test_case_is_deterministic(self, mixed_target):
        a = run_case(mixed_target, MODEL, "tag:det", "strict")
        b = run_case(mixed_target, MODEL, "tag:det", "strict")
        assert (a.outcome, a.detail) == (b.outcome, b.detail)


class TestClassicTargetNotApplicable:
    def test_no_regions_means_not_applicable(self):
        # Reuse the synthetic classic target from the campaign tests.
        from tests.faults.test_campaign import _synthetic_target

        target = _synthetic_target()
        for mode in ("strict", "recover"):
            result = run_case(target, MODEL, f"tag:na:{mode}", mode)
            assert result.outcome == "not-applicable", mode
