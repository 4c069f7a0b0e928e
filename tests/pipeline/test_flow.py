"""Integration tests for the end-to-end encoding flow."""

import pytest

from repro.core.transformations import ALL_TRANSFORMATIONS
from repro.errors import DecodeVerificationError
from repro.hw.fetch_decoder import FetchDecoder
from repro.pipeline.flow import EncodingFlow
from repro.sim.bus import count_trace_transitions
from repro.sim.cpu import run_program
from repro.sim.tracer import DecodedTrace
from repro.workloads.registry import build_workload


@pytest.fixture(scope="module")
def mmul_setup():
    workload = build_workload("mmul", n=10)
    program = workload.assemble()
    cpu, trace = run_program(program)
    workload.verify(cpu)
    return program, trace


class TestFlowBasics:
    def test_decode_is_verified_end_to_end(self, mmul_setup):
        program, trace = mmul_setup
        result = EncodingFlow(block_size=5).run(program, trace, "mmul")
        assert result.decode_verified
        assert result.selected_blocks

    def test_verify_gate_checks_every_run_occurrence(self, mmul_setup, monkeypatch):
        # A wrong word in one *repeat* of a run (not its first
        # occurrence) must still fail the decode-verified gate: the
        # second, a middle and the last lap of a group of back-to-back
        # repeats.
        program, trace = mmul_setup
        group = max(range(len(trace.repeats)), key=trace.repeats.__getitem__)
        times = trace.repeats[group]
        assert times >= 3
        decode_trace = FetchDecoder.decode_trace

        def corrupt_lap(at):
            def corrupt(self, *args, **kwargs):
                decoded = decode_trace(self, *args, **kwargs)
                words, repeats = list(decoded.words), list(decoded.repeats)
                good = words[group]
                bad = good[:-1] + [good[-1] ^ 1]
                laps = [(good, at), (bad, 1), (good, times - at - 1)]
                laps = [(w, n) for w, n in laps if n]
                words[group : group + 1] = [w for w, _ in laps]
                repeats[group : group + 1] = [n for _, n in laps]
                return DecodedTrace(words, repeats)

            return corrupt

        for at in (1, times // 2, times - 1):
            monkeypatch.setattr(FetchDecoder, "decode_trace", corrupt_lap(at))
            with pytest.raises(DecodeVerificationError, match="restore"):
                EncodingFlow(block_size=5).run(program, trace, "mmul")

    def test_reduction_is_positive_and_sane(self, mmul_setup):
        program, trace = mmul_setup
        result = EncodingFlow(block_size=5).run(program, trace, "mmul")
        assert 0.0 < result.reduction_percent < 100.0
        assert result.encoded_transitions < result.baseline_transitions

    def test_transitions_match_bus_model(self, mmul_setup):
        program, trace = mmul_setup
        result = EncodingFlow(block_size=5).run(program, trace, "mmul")
        assert result.baseline_transitions == count_trace_transitions(
            program, trace
        )
        assert result.encoded_transitions == count_trace_transitions(
            program, trace, result.encoded_image
        )

    def test_image_only_differs_in_selected_blocks(self, mmul_setup):
        program, trace = mmul_setup
        result = EncodingFlow(block_size=5).run(program, trace, "mmul")
        from repro.cfg.graph import ControlFlowGraph

        cfg = ControlFlowGraph.build(program)
        encoded_addresses = set()
        for start in result.selected_blocks:
            encoded_addresses.update(cfg.blocks[start].addresses)
        base = program.text_base
        for i, (old, new) in enumerate(
            zip(program.words, result.encoded_image)
        ):
            if old != new:
                assert base + 4 * i in encoded_addresses

    def test_tt_budget_respected(self, mmul_setup):
        program, trace = mmul_setup
        for capacity in (2, 4, 8, 16):
            result = EncodingFlow(block_size=5, tt_capacity=capacity).run(
                program, trace, "mmul"
            )
            assert result.tt_entries_used <= capacity

    def test_more_tt_capacity_never_hurts(self, mmul_setup):
        program, trace = mmul_setup
        reductions = []
        for capacity in (2, 8, 32):
            result = EncodingFlow(block_size=5, tt_capacity=capacity).run(
                program, trace, "mmul"
            )
            reductions.append(result.reduction_percent)
        assert reductions == sorted(reductions)

    def test_block_size_trend(self, mmul_setup):
        # k=4 beats k=6/7 on average — the Figure 6 trend.
        program, trace = mmul_setup
        by_k = {
            k: EncodingFlow(block_size=k).run(program, trace, "mmul")
            for k in (4, 6)
        }
        assert (
            by_k[4].reduction_percent > by_k[6].reduction_percent
        )


class TestFlowVariants:
    def test_full_transformation_set_at_least_as_good(self, mmul_setup):
        program, trace = mmul_setup
        eight = EncodingFlow(block_size=5).run(program, trace, "mmul")
        sixteen = EncodingFlow(
            block_size=5,
            transformations=ALL_TRANSFORMATIONS,
            verify_decode=False,  # selectors unavailable outside the 8-set
        ).run(program, trace, "mmul")
        assert (
            sixteen.encoded_transitions <= eight.encoded_transitions
        )

    def test_optimal_strategy_at_least_as_good_as_greedy(self, mmul_setup):
        program, trace = mmul_setup
        greedy = EncodingFlow(block_size=5, strategy="greedy").run(
            program, trace, "mmul"
        )
        optimal = EncodingFlow(block_size=5, strategy="optimal").run(
            program, trace, "mmul"
        )
        assert (
            optimal.encoded_transitions <= greedy.encoded_transitions
        )

    def test_disjoint_cannot_be_deployed(self, mmul_setup):
        # The TT/BBIT protocol is overlapped-only: a verified disjoint
        # flow is refused up front, a measure-only one still runs.
        with pytest.raises(ValueError, match="disjoint"):
            EncodingFlow(block_size=5, strategy="disjoint")
        program, trace = mmul_setup
        result = EncodingFlow(
            block_size=5, strategy="disjoint", verify_decode=False
        ).run(program, trace, "mmul")
        assert not result.decode_verified
        assert result.encoded_transitions < result.baseline_transitions

    def test_run_workload_convenience(self):
        workload = build_workload("lu", n=8)
        result = EncodingFlow(block_size=5).run_workload(workload)
        assert result.name == "lu"
        assert result.decode_verified

    def test_per_line_breakdown(self, mmul_setup):
        program, trace = mmul_setup
        flow = EncodingFlow(block_size=5)
        result = flow.run(program, trace, "mmul")
        baseline, encoded = flow.per_line_breakdown(program, trace, result)
        assert sum(baseline) == result.baseline_transitions
        assert sum(encoded) == result.encoded_transitions
        assert len(baseline) == len(encoded) == 32

    def test_no_loops_program_selects_nothing(self):
        from repro.isa.assembler import assemble

        program = assemble(
            ".text\nmain: addu $t0, $t1, $t2\nli $v0, 10\nsyscall\n"
        )
        cpu, trace = run_program(program)
        result = EncodingFlow(block_size=5).run(program, trace, "straight")
        assert result.selected_blocks == []
        assert result.encoded_transitions == result.baseline_transitions
        assert result.reduction_percent == 0.0


class TestReport:
    def test_fig6_table_and_formatting(self, mmul_setup):
        from repro.pipeline.report import (
            fig6_table,
            fig7_series,
            format_fig6,
            format_fig7_ascii,
            summarize_results,
        )

        program, trace = mmul_setup
        results = {
            "mmul": {
                k: EncodingFlow(block_size=k).run(program, trace, "mmul")
                for k in (4, 5, 6, 7)
            }
        }
        table = fig6_table(results)
        assert table["benchmarks"] == ["mmul"]
        assert table["tr"]["mmul"] > 0
        text = format_fig6(table)
        assert "#TR" in text and "Reduction(%)" in text and "#5-block" in text

        series = fig7_series(results)
        assert set(series) == {4, 5, 6, 7}
        chart = format_fig7_ascii(series, ["mmul"])
        assert "mmul" in chart and "k=4" in chart

        averages = summarize_results(results)
        assert set(averages) == {4, 5, 6, 7}
        assert all(0 <= v <= 100 for v in averages.values())
