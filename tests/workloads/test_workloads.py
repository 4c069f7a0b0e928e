"""Tests for the six benchmarks: each runs (at reduced size) and is
checked against an independent Python reference by its own verify
callback; these tests also pin structural expectations (loops exist,
traces are loop-dominated)."""

import math

import pytest

from repro.cfg.graph import ControlFlowGraph
from repro.cfg.loops import find_natural_loops
from repro.cfg.profile import profile_trace
from repro.sim.cpu import run_program
from repro.workloads import fft
from repro.workloads.common import pseudo_values
from repro.workloads.registry import (
    BENCHMARK_ORDER,
    WORKLOAD_BUILDERS,
    build_workload,
)

#: Reduced sizes so the whole file runs in a few seconds.
SMALL = {
    "mmul": {"n": 8},
    "sor": {"n": 10, "sweeps": 3},
    "ej": {"n": 10, "sweeps": 3},
    "fft": {"n": 32},
    "tri": {"n": 24, "sweeps": 3},
    "lu": {"n": 10},
}


@pytest.mark.parametrize("name", BENCHMARK_ORDER)
class TestCorrectness:
    def test_runs_and_verifies(self, name):
        workload = build_workload(name, **SMALL[name])
        cpu, trace = workload.run()
        assert cpu.steps == len(trace) > 0

    def test_has_natural_loops(self, name):
        workload = build_workload(name, **SMALL[name])
        cfg = ControlFlowGraph.build(workload.assemble())
        assert find_natural_loops(cfg), f"{name} must contain loops"

    def test_trace_is_loop_dominated(self, name):
        workload = build_workload(name, **SMALL[name])
        program = workload.assemble()
        cpu, trace = run_program(program)
        cfg = ControlFlowGraph.build(program)
        profile = profile_trace(cfg, trace)
        loops = find_natural_loops(cfg)
        loop_blocks = set()
        for loop in loops:
            loop_blocks |= loop.body
        # Section 6: hot loops carry most of the fetch traffic.
        assert profile.coverage_of(sorted(loop_blocks)) > 0.8


class TestRegistry:
    def test_all_six_benchmarks_present(self):
        assert tuple(BENCHMARK_ORDER) == ("mmul", "sor", "ej", "fft", "tri", "lu")
        for name in BENCHMARK_ORDER:
            assert callable(WORKLOAD_BUILDERS[name])

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown workload"):
            build_workload("quicksort")

    def test_descriptions_mention_paper_scale(self):
        for name in BENCHMARK_ORDER:
            workload = build_workload(name, **SMALL[name])
            assert "paper" in workload.description


class TestParameterValidation:
    def test_mmul_rejects_bad_size(self):
        with pytest.raises(ValueError):
            build_workload("mmul", n=0)

    def test_fft_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            build_workload("fft", n=24)

    def test_sor_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            build_workload("sor", n=2)

    def test_lu_rejects_tiny_matrix(self):
        with pytest.raises(ValueError):
            build_workload("lu", n=1)

    def test_tri_rejects_tiny_system(self):
        with pytest.raises(ValueError):
            build_workload("tri", n=1)


class TestScaling:
    def test_mmul_work_grows_cubically(self):
        small = build_workload("mmul", n=4)
        large = build_workload("mmul", n=8)
        _, trace_small = small.run()
        _, trace_large = large.run()
        ratio = len(trace_large) / len(trace_small)
        assert 4.0 < ratio < 10.0  # ~8x for 2x size

    def test_fft_work_grows_n_log_n(self):
        small = build_workload("fft", n=16)
        large = build_workload("fft", n=64)
        _, trace_small = small.run()
        _, trace_large = large.run()
        ratio = len(trace_large) / len(trace_small)
        assert 4.0 < ratio < 8.0  # 64*6 / 16*4 = 6x


def _per_angle_dft(re, im):
    """The DFT with each twiddle's angle computed per term."""
    n = len(re)
    out_re, out_im = [], []
    for k in range(n):
        sr = si = 0.0
        for t in range(n):
            angle = -2.0 * math.pi * k * t / n
            c, s = math.cos(angle), math.sin(angle)
            sr += re[t] * c - im[t] * s
            si += re[t] * s + im[t] * c
        out_re.append(sr)
        out_im.append(si)
    return out_re, out_im


@pytest.mark.parametrize("n", (8, 16, 64))
def test_fft_reference_twiddle_table_matches_per_angle_dft(n):
    """fft's reference reads twiddles from an n-entry table; it must
    agree with the per-angle DFT to 1e-12."""
    re, im = pseudo_values(n, seed=5), pseudo_values(n, seed=6)
    table = fft._reference(re, im)
    per_angle = _per_angle_dft(re, im)
    for got, want in zip(table, per_angle):
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), (n, a, b)


def _table_dft(re, im):
    """The direct O(n^2) DFT, twiddles read from an n-entry table
    indexed by (k·t) mod n."""
    n = len(re)
    cos_of = [math.cos(-2.0 * math.pi * j / n) for j in range(n)]
    sin_of = [math.sin(-2.0 * math.pi * j / n) for j in range(n)]
    out_re, out_im = [], []
    for k in range(n):
        sr = si = 0.0
        for t in range(n):
            j = k * t % n
            c, s = cos_of[j], sin_of[j]
            sr += re[t] * c - im[t] * s
            si += re[t] * s + im[t] * c
        out_re.append(sr)
        out_im.append(si)
    return out_re, out_im


@pytest.mark.parametrize("n", (4, 8, 16, 32, 64, 128, 256))
def test_fft_reference_matches_direct_dft(n):
    """fft's radix-2 reference agrees with the direct DFT to 1e-12,
    well inside the 1e-6 its verify callback allows."""
    re, im = pseudo_values(n, seed=5), pseudo_values(n, seed=6)
    radix2 = fft._reference(re, im)
    direct = _table_dft(re, im)
    for got, want in zip(radix2, direct):
        assert len(got) == len(want) == n
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), (n, a, b)
