"""Shared helpers for the reproduction benchmarks.

Every bench regenerates one of the paper's tables or figures, prints
it (run with ``-s`` to see the output live) and records it under
``benchmarks/results/`` so EXPERIMENTS.md can cite the artefacts.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def record_result():
    """Write a reproduced table to benchmarks/results/<name>.txt
    (``<name>_paper.txt`` for a Figure 6 sweep at the paper scale)."""

    RESULTS_DIR.mkdir(exist_ok=True)

    def _record(name: str, text: str, scale: str = "default") -> None:
        if scale != "default":
            name = f"{name}_{scale}"
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n--- {name} ---")
        print(text)

    return _record


@pytest.fixture(scope="session", params=("default", "paper"))
def figure6_results(request):
    """``(scale, {benchmark: {k: FlowResult}})``: the Figure 6 sweep
    ``repro suite`` runs, once per session and scale, shared by the
    Fig 6, Fig 7 and baseline-comparison benches.

    ``default`` is each builder's default data size, ``paper`` the
    paper's (:data:`repro.workloads.registry.PAPER_SIZES`).
    """
    from repro.pipeline.experiment import run_sweep
    from repro.workloads.registry import BENCHMARK_ORDER, PAPER_SIZES

    sizes = PAPER_SIZES if request.param == "paper" else BENCHMARK_ORDER
    return request.param, run_sweep(sizes).by_workload()

