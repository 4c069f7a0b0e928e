"""Tests for firmware bundle serialisation and deployment."""

import dataclasses
import json

import pytest

from repro.core.transformations import ALL_TRANSFORMATIONS
from repro.errors import EncodingError
from repro.pipeline.bundle import EncodingBundle
from repro.pipeline.flow import EncodingFlow
from repro.sim.cpu import run_program
from repro.workloads.registry import build_workload


@pytest.fixture(scope="module")
def built():
    workload = build_workload("lu", n=10)
    program = workload.assemble()
    cpu, trace = run_program(program)
    result = EncodingFlow(block_size=5).run(program, trace, "lu")
    bundle = EncodingBundle.from_flow_result(program, result)
    return program, trace, result, bundle


class TestConstruction:
    def test_metadata(self, built):
        program, trace, result, bundle = built
        assert bundle.name == "lu"
        assert bundle.block_size == 5
        assert bundle.text_base == program.text_base
        assert bundle.encoded_words == result.encoded_image

    def test_table_sizes_match_flow(self, built):
        program, trace, result, bundle = built
        assert len(bundle.tt_entries) == result.tt_entries_used
        assert len(bundle.bbit_entries) == len(result.selected_blocks)

    def test_verify_against(self, built):
        program, trace, result, bundle = built
        assert bundle.verify_against(program)
        other = build_workload("mmul", n=6).assemble()
        assert not bundle.verify_against(other)


class TestSerialisation:
    def test_roundtrip(self, built):
        program, trace, result, bundle = built
        text = bundle.to_json()
        loaded = EncodingBundle.from_json(text)
        assert loaded.encoded_words == bundle.encoded_words
        assert loaded.tt_entries == bundle.tt_entries
        assert loaded.bbit_entries == bundle.bbit_entries
        assert loaded.original_digest == bundle.original_digest

    def test_json_is_plain(self, built):
        program, trace, result, bundle = built
        data = json.loads(bundle.to_json())
        assert data["format_version"] == 1
        assert all(len(w) == 8 for w in data["encoded_words"])

    def test_corruption_detected(self, built):
        program, trace, result, bundle = built
        data = json.loads(bundle.to_json())
        data["encoded_words"][0] = "deadbeef"
        with pytest.raises(ValueError, match="digest mismatch"):
            EncodingBundle.from_json(json.dumps(data))

    def test_unknown_version_rejected(self, built):
        program, trace, result, bundle = built
        data = json.loads(bundle.to_json())
        data["format_version"] = 99
        with pytest.raises(ValueError, match="unsupported"):
            EncodingBundle.from_json(json.dumps(data))


class TestDeployment:
    def test_tables_rebuild(self, built):
        program, trace, result, bundle = built
        tt, bbit = bundle.build_tables()
        assert len(tt) == result.tt_entries_used
        assert len(bbit) == len(result.selected_blocks)

    def test_deploy_and_check(self, built):
        program, trace, result, bundle = built
        assert bundle.deploy_and_check(program, trace)

    def test_deploy_after_json_roundtrip(self, built):
        program, trace, result, bundle = built
        loaded = EncodingBundle.from_json(bundle.to_json())
        assert loaded.deploy_and_check(program, trace)

    def test_deploy_rejects_wrong_program(self, built):
        program, trace, result, bundle = built
        other = build_workload("mmul", n=6).assemble()
        with pytest.raises(ValueError, match="does not match"):
            bundle.deploy_and_check(other, [])

    def test_empty_selection_bundle(self):
        from repro.isa.assembler import assemble

        program = assemble(
            ".text\nmain: addu $t0, $t1, $t2\nli $v0, 10\nsyscall\n"
        )
        cpu, trace = run_program(program)
        result = EncodingFlow(block_size=5).run(program, trace, "straight")
        bundle = EncodingBundle.from_flow_result(program, result)
        assert bundle.tt_entries == []
        assert bundle.deploy_and_check(program, trace)


REGISTRY_WORKLOADS = ("mmul", "sor", "ej", "fft", "tri", "lu", "fir", "iir", "conv2d")


@pytest.fixture(scope="module")
def registry_runs():
    """(program, trace) per registry workload at its default size."""
    runs = {}

    def run(name):
        if name not in runs:
            program = build_workload(name).assemble()
            cpu, trace = run_program(program)
            runs[name] = program, trace
        return runs[name]

    return run


class TestOptimalBundles:
    @pytest.mark.parametrize("k", (4, 5, 6, 7))
    @pytest.mark.parametrize("name", REGISTRY_WORKLOADS)
    def test_optimal_bundle_deploys_bit_exact(self, registry_runs, name, k):
        # The bundle's TT rows must come from the optimal encodings the
        # image holds, not from a greedy re-encode of the same blocks.
        program, trace = registry_runs(name)
        result = EncodingFlow(block_size=k, strategy="optimal").run(
            program, trace, name
        )
        bundle = EncodingBundle.from_flow_result(program, result)
        assert bundle.deploy_and_check(program, trace) is True


class TestNonDeployableResults:
    @pytest.fixture(scope="class")
    def mmul(self):
        program = build_workload("mmul", n=6).assemble()
        cpu, trace = run_program(program)
        return program, trace

    def test_disjoint_result_refused(self, mmul):
        program, trace = mmul
        result = EncodingFlow(
            block_size=5, strategy="disjoint", verify_decode=False
        ).run(program, trace, "mmul")
        assert result.encodings
        with pytest.raises(EncodingError, match="overlapped"):
            EncodingBundle.from_flow_result(program, result)

    def test_transformation_outside_the_8_set_refused(self, mmul):
        program, trace = mmul
        result = EncodingFlow(block_size=5).run(program, trace, "mmul")
        start, encoding = result.encodings[0]
        outside = next(t for t in ALL_TRANSFORMATIONS if t.selector is None)
        first_plan = (outside,) + encoding.segment_plans[0][1:]
        result.encodings[0] = (
            start,
            dataclasses.replace(
                encoding,
                segment_plans=(first_plan,) + encoding.segment_plans[1:],
            ),
        )
        with pytest.raises(EncodingError, match="8-set"):
            EncodingBundle.from_flow_result(program, result)
