"""Collect every reproduced table into one REPORT.md.

Run the benchmark harness first (it writes artefacts under
``benchmarks/results/``), then this script to assemble them, in the
paper's order, into a single reviewable report:

    pytest benchmarks/ --benchmark-only
    python examples/collect_report.py [output.md]
"""

import pathlib
import sys

RESULTS_DIR = pathlib.Path(__file__).parent.parent / "benchmarks" / "results"

#: (artefact stem, section heading) in the paper's order.
SECTIONS = [
    ("fig2_codebook_k3", "Figure 2 — optimal codebook, block size 3"),
    ("fig3_theory_table", "Figure 3 — TTN/RTN/improvement, sizes 2..7"),
    ("fig4_codebook_k5", "Figure 4 — optimal codebook, block size 5 (8-function set)"),
    ("sec52_restricted_set", "Section 5.2 — restricted transformation sets"),
    ("sec6_random_streams", "Section 6 — random-stream experiment"),
    ("fig6_benchmarks", "Figure 6 — benchmark transition reductions"),
    ("fig7_reduction_chart", "Figure 7 — percentage-reduction chart"),
    ("fig6_benchmarks_paper", "Figure 6 at the paper's data sizes"),
    ("fig7_reduction_chart_paper", "Figure 7 at the paper's data sizes"),
    ("baseline_comparison", "Related-work baselines on identical traces"),
    ("hw_cost_model", "Hardware cost model (Section 7.2)"),
    ("ablation_tau_sets", "Ablation A — transformation-set size"),
    ("ablation_overlap", "Ablation B — block overlap"),
    ("ablation_tt_capacity", "Ablation C — TT capacity"),
    ("ablation_strategy", "Ablation D — encoding strategy on real traces"),
    ("ext_history2", "Extension — two-bit history"),
    ("ext_bias_robustness", "Extension — input-distribution robustness"),
    ("ext_storage_independence", "Extension — storage independence"),
    ("ext_workload_suite", "Extension — DSP kernels beyond Figure 6"),
    ("ext_compiled_codegen", "Extension — compiled vs hand-written code"),
    ("ext_compiled_fig6", "Extension — Figure 6 on compiled code"),
    ("ext_regional_reprogramming", "Extension — regional reprogramming"),
    ("serve_latency", "Engineering — encoding service under chaos load"),
]


def main() -> int:
    output = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "REPORT.md")
    if not RESULTS_DIR.is_dir():
        print(
            "no benchmarks/results/ directory — run "
            "`pytest benchmarks/ --benchmark-only` first",
            file=sys.stderr,
        )
        return 1
    parts = [
        "# Reproduction report",
        "",
        "Generated from `benchmarks/results/*.txt` (each file is the",
        "artefact of one benchmark in `benchmarks/`).  Paper-vs-measured",
        "commentary lives in EXPERIMENTS.md.",
        "",
    ]
    missing = []
    for stem, heading in SECTIONS:
        path = RESULTS_DIR / f"{stem}.txt"
        if not path.is_file():
            missing.append(stem)
            continue
        parts += [f"## {heading}", "", "```", path.read_text().rstrip(), "```", ""]
    output.write_text("\n".join(parts))
    print(f"wrote {output} ({len(SECTIONS) - len(missing)} sections)")
    if missing:
        print(f"missing artefacts (bench not run yet?): {', '.join(missing)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
