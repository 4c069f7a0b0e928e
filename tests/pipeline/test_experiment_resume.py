"""Sweep WAL/resume tests: journaled grid points replay without
re-simulation and the CSV export stays byte-identical."""

import pytest

import repro.sim.cpu as sim_cpu
from repro.pipeline.experiment import SweepRecord, run_sweep
from repro.pipeline.report import fig6_table, fig7_series, format_fig6
from repro.runtime.checkpoint import CheckpointMismatchError


def _sweep(**kwargs):
    return run_sweep(
        ["fir"],
        block_sizes=(4, 5),
        tt_capacities=(16,),
        strategies=("greedy",),
        **kwargs,
    )


class TestSweepResume:
    def test_resume_replays_whole_grid_without_simulation(
        self, tmp_path, monkeypatch
    ):
        wal = tmp_path / "sweep.wal"
        first = _sweep(wal_path=wal)
        assert len(first) == 2

        def no_simulation(*args, **kwargs):  # pragma: no cover
            raise AssertionError("resume re-simulated a journaled workload")

        monkeypatch.setattr(sim_cpu, "run_program", no_simulation)
        second = _sweep(wal_path=wal, resume=True)
        assert len(second) == len(first)
        assert second.to_csv() == first.to_csv()
        # Replayed points come back as deterministic records.
        assert all(
            isinstance(result, SweepRecord)
            for result in second.points.values()
        )

    def test_resumed_sweep_tabulates_like_the_fresh_one(self, tmp_path):
        wal = tmp_path / "sweep.wal"
        first = _sweep(wal_path=wal)
        second = _sweep(wal_path=wal, resume=True)
        table = fig6_table(second.by_workload(), ["fir"])
        assert table == fig6_table(first.by_workload(), ["fir"])
        assert table["tr"]["fir"] > 0 and set(table["encoded"][4]) == {"fir"}
        assert format_fig6(table) == format_fig6(
            fig6_table(first.by_workload(), ["fir"])
        )
        assert fig7_series(second.by_workload()) == fig7_series(
            first.by_workload()
        )

    def test_partial_wal_resumes_only_missing_points(self, tmp_path):
        wal = tmp_path / "sweep.wal"
        first = _sweep(wal_path=wal)
        # Drop the last journaled point, as a mid-run kill would.
        lines = wal.read_text().splitlines()
        wal.write_text("\n".join(lines[:-1]) + "\n")
        second = _sweep(wal_path=wal, resume=True)
        assert second.to_csv() == first.to_csv()
        # The WAL is topped back up for the next resume.
        assert len(wal.read_text().splitlines()) == len(lines)

    def test_write_csv_is_atomic_and_identical(self, tmp_path):
        wal = tmp_path / "sweep.wal"
        first = _sweep(wal_path=wal)
        second = _sweep(wal_path=wal, resume=True)
        a = first.write_csv(tmp_path / "a.csv")
        b = second.write_csv(tmp_path / "b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_resume_with_different_grid_refuses(self, tmp_path):
        wal = tmp_path / "sweep.wal"
        _sweep(wal_path=wal)
        with pytest.raises(CheckpointMismatchError, match="refusing"):
            run_sweep(
                ["fir"],
                block_sizes=(4, 5, 6),  # different grid identity
                tt_capacities=(16,),
                strategies=("greedy",),
                wal_path=wal,
                resume=True,
            )

    def test_fresh_run_discards_stale_wal(self, tmp_path):
        wal = tmp_path / "sweep.wal"
        wal.write_text('{"run_key":"stale"}\n')
        sweep = _sweep(wal_path=wal)
        assert len(sweep) == 2
        assert '"stale"' not in wal.read_text()

    def test_best_for_and_filter_work_on_replayed_records(self, tmp_path):
        wal = tmp_path / "sweep.wal"
        _sweep(wal_path=wal)
        replayed = _sweep(wal_path=wal, resume=True)
        point, record = replayed.best_for("fir")
        assert point.workload == "fir"
        assert record.reduction_percent > 0
        assert len(replayed.filter(block_size=4)) == 1
