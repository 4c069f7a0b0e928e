"""Name -> builder registry for the six paper benchmarks."""

from __future__ import annotations

from typing import Callable

from repro.workloads.common import Workload

#: Benchmark order as printed in Figure 6.
BENCHMARK_ORDER = ("mmul", "sor", "ej", "fft", "tri", "lu")

#: Extended workloads beyond the paper's six (same DSP/numerical
#: domain; useful for wider studies and as public-API examples).
EXTENDED_WORKLOADS = ("fir", "iir", "conv2d")

#: Figure 6 at the paper's data sizes (Section 8: mmul 100x100, sor
#: 256x256, ej 128x128, fft 256, tri and lu 128; the sweep counts are
#: ours), as the ``{name: params}`` mapping
#: :func:`repro.pipeline.experiment.run_sweep` takes.  The default
#: scale is each builder's own defaults.
PAPER_SIZES = {
    "mmul": {"n": 100},
    "sor": {"n": 256, "sweeps": 2},
    "ej": {"n": 128, "sweeps": 4},
    "fft": {"n": 256},
    "tri": {"n": 128, "sweeps": 20},
    "lu": {"n": 128},
}


def _builders() -> dict[str, Callable[..., Workload]]:
    from repro.workloads import conv2d, ej, fft, fir, iir, lu, mmul, sor, tri

    return {
        "mmul": mmul.build,
        "sor": sor.build,
        "ej": ej.build,
        "fft": fft.build,
        "tri": tri.build,
        "lu": lu.build,
        "fir": fir.build,
        "iir": iir.build,
        "conv2d": conv2d.build,
    }


class _LazyBuilders(dict):
    """Defer workload imports until first access (keeps `import
    repro.workloads` cheap and avoids import cycles)."""

    def __missing__(self, key):
        self.update(_builders())
        if key not in self:
            raise KeyError(
                f"unknown workload {key!r}; available: "
                f"{BENCHMARK_ORDER + EXTENDED_WORKLOADS}"
            )
        return self[key]

    def keys(self):  # pragma: no cover - convenience
        self.update(_builders())
        return super().keys()


WORKLOAD_BUILDERS: dict[str, Callable[..., Workload]] = _LazyBuilders()


def build_workload(name: str, **params) -> Workload:
    """Build a benchmark by its Figure-6 name."""
    return WORKLOAD_BUILDERS[name](**params)
