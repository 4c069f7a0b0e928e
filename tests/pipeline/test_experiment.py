"""Tests for the parameter-sweep experiment runner."""

import pytest

from repro.pipeline.experiment import SweepPoint, run_sweep


@pytest.fixture(scope="module")
def sweep():
    return run_sweep(
        {"lu": {"n": 8}, "mmul": {"n": 6}},
        block_sizes=(4, 5),
        tt_capacities=(4, 16),
        strategies=("greedy",),
    )


class TestSweep:
    def test_grid_size(self, sweep):
        assert len(sweep) == 2 * 2 * 2  # workloads x k x tt

    def test_all_points_verified(self, sweep):
        for point, result in sweep.points.items():
            assert result.decode_verified or not result.selected_blocks
            assert result.name == point.label()

    def test_tt_capacity_monotone(self, sweep):
        for name in ("lu", "mmul"):
            for k in (4, 5):
                small = sweep.points[SweepPoint(name, k, 4, "greedy")]
                large = sweep.points[SweepPoint(name, k, 16, "greedy")]
                assert (
                    large.reduction_percent >= small.reduction_percent - 1e-9
                )

    def test_csv_export(self, sweep):
        csv = sweep.to_csv()
        lines = csv.splitlines()
        assert lines[0].startswith("workload,block_size")
        assert len(lines) == 1 + len(sweep)
        # Rows sort deterministically and parse.
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[0] in ("lu", "mmul")
            float(fields[6])  # reduction percent

    def test_names_as_plain_sequence(self):
        sweep = run_sweep(
            ["lu"],
            block_sizes=(5,),
        )
        # Default lu size n=32 is heavier but must still work.
        assert len(sweep) == 1


def test_write_csv_is_atomic_and_identical(tmp_path):
    def sweep():
        return run_sweep(
            ["fir"],
            block_sizes=(4, 5),
            tt_capacities=(16,),
            strategies=("greedy",),
        )

    first, second = sweep(), sweep()
    a = first.write_csv(tmp_path / "a.csv")
    b = second.write_csv(tmp_path / "b.csv")
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text() == first.to_csv() + "\n"
    # No temporary file is left behind.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.csv"]
