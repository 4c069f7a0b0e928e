"""One benchmark process: set-up, then the timed part.

Started by ``run.py``; prints one JSON object as its last stdout line.
``--setup-only`` stops after set-up, which is how ``run.py`` samples
set-up time in several fresh processes.  Times are adjusted to the
reference host speed (see ``refclock.py``); the raw values are kept in
the report under ``raw``.
"""

import statistics
import sys
import threading
import time

import refclock


def checked_ref(threads: int = 1) -> float:
    """One reference-kernel sample.  It is refused while something
    slows the kernel and the program alike (a profile or trace hook,
    ``repro`` observability, more threads than the ``threads`` the
    workload keeps idle), because the adjustment would divide that
    cost out of every time."""
    if sys.getprofile() is not None or sys.gettrace() is not None:
        raise RuntimeError("a profile or trace hook is set")
    obs = sys.modules.get("repro.obs")
    if obs is not None and obs.OBS.enabled:
        raise RuntimeError("repro observability is on")
    if threading.active_count() > threads:
        raise RuntimeError(
            f"{threading.active_count()} threads running, at most {threads} expected"
        )
    return refclock.measure()


#: Reference-kernel samples taken before set-up starts; as many are
#: taken after it.
SETUP_REF_SAMPLES = 3
SETUP_REFS = [checked_ref() for _ in range(SETUP_REF_SAMPLES)]

# Set-up time is measured from here: before the first ``import repro``.
T0 = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from dataclasses import InitVar, dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("encode_flow", "select_per_region", "serve_warm")
#: Reference samples taken between two serve passes.
SERVE_REF_SAMPLES = 3
#: How many failed operations a report lists by message.
MAX_ERRORS = 20


def import_harness(workload: str):
    """Import the workload's harness module (and with it ``repro``)
    from this checkout's ``src``; refuse any other copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    src = (ROOT / "src").resolve()
    if src not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"repro imported from {repro.__file__}, not {src}")
    if workload == "serve_warm":
        import serveops

        return serveops
    import flowops

    return flowops


@dataclass
class Pass:
    """One pass, reduced to what the report needs as soon as it ends.
    Only failed operations are kept, so the harness holds the same
    memory however many passes a run fits in, and ``peak_rss_mb`` does
    not follow the host's speed.  Percentiles are raw seconds; a
    positive scale commutes with a nearest-rank percentile, so they are
    adjusted afterwards."""

    ops: InitVar[list]
    #: median reference-kernel time around this pass's operations
    ref_s: float
    #: raw wall time of the pass, reference samples excluded
    wall_s: float
    #: the serve layer's per-pass medians (``layers.serve_pass_p50s``)
    p50s: dict = field(default_factory=dict)
    attempted: int = field(init=False)
    failed: list = field(init=False)
    fetches: int = field(init=False)
    encoded_transitions: int = field(init=False)
    #: nearest-rank percentiles of one operation's wall time
    op_p50_s: float = field(init=False)
    op_p99_s: float = field(init=False)

    def __post_init__(self, ops: list) -> None:
        from tracing import nearest_rank

        walls = [op.wall_s for op in ops]
        self.attempted = len(ops)
        self.failed = [op for op in ops if not op.ok]
        self.fetches = sum(op.fetches for op in ops)
        self.encoded_transitions = sum(op.encoded_transitions for op in ops)
        self.op_p50_s = nearest_rank(walls, 50)
        self.op_p99_s = nearest_rank(walls, 99)

    @property
    def scale(self) -> float:
        return refclock.NOMINAL_S / self.ref_s


def setup_report(import_s: float, threads: int = 1) -> dict:
    """Set-up time so far, adjusted by the kernel samples around it."""
    setup_s = time.perf_counter() - T0
    refs = SETUP_REFS + [checked_ref(threads) for _ in range(SETUP_REF_SAMPLES)]
    scale = refclock.NOMINAL_S / statistics.median(refs)
    return {
        "setup_s": setup_s * scale,
        "import_s": import_s * scale,
        "warmup_s": (setup_s - import_s) * scale,
        "raw": {"setup_s": setup_s, "setup_ref_s": refs},
    }


def timed_passes(run_op, programs, seconds: float, recorder=None) -> list[Pass]:
    """Run whole passes until ``seconds`` have elapsed (at least one).
    The reference kernel runs before every operation and after the
    last one."""
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        refs = [checked_ref()]
        ops = []
        for name, params in programs:
            span = recorder.begin("op") if recorder is not None else None
            ops.append(run_op(name, params))
            if span is not None:
                recorder.end(span)
            refs.append(checked_ref())
        passes.append(
            Pass(ops, statistics.median(refs), sum(op.wall_s for op in ops))
        )
        if time.perf_counter() >= deadline:
            return passes


def run_flow(args, flowops, import_s: float) -> dict:
    import layers
    from tracing import Patcher, SpanRecorder

    programs = flowops.INPUTS[args.workload](args.seed)
    golden = flowops.load_golden()[args.workload]

    def run_op(name, params):
        return flowops.run_op(args.workload, name, params, golden)

    warmup = SpanRecorder()
    patcher = Patcher(warmup)
    if args.trace:
        layers.install_codebook(patcher)
    warm_name = flowops.WARMUP_PROGRAM[args.workload]
    ops = [run_op(warm_name, dict(programs)[warm_name])]
    patcher.restore()
    gc.collect()
    report = setup_report(import_s)
    if args.setup_only:
        return finish(report, ops)

    if not args.trace:
        passes = timed_passes(run_op, programs, args.seconds)
        peak = self_peak_rss_mb()
        report["end_to_end"] = end_to_end(passes, peak)
        report["raw"].update(end_to_end(passes, peak, adjusted=False))
    else:
        untraced = timed_passes(run_op, programs, args.seconds / 2)
        recorder = SpanRecorder()
        patcher = Patcher(recorder)
        layers.install(patcher)
        try:
            traced = timed_passes(run_op, programs, args.seconds / 2, recorder)
        finally:
            patcher.restore()
        passes = untraced + traced
        metrics = layers.flow_layer_metrics(recorder, [p.wall_s for p in traced])
        metrics.update(trace_metrics(report, warmup, untraced, traced))
        report["per_layer"] = layers.complete(metrics)
        report["spans_file"] = write_spans(args, recorder, warmup)
    return finish_passes(report, ops, passes)


async def run_serve(args, serveops, import_s: float) -> dict:
    import layers
    from repro.serve.server import EncodingServer
    from tracing import Patcher, SpanRecorder

    requests = serveops.batch(args.seed)
    warmup = SpanRecorder()
    async with EncodingServer(serveops.config()) as server:
        warm = await serveops.warm_up(server, requests)
        if server.stats["serial_fallbacks"]:
            # The fallback runs in this process and fills the cache the
            # oracle below must start without.
            raise RuntimeError("warm-up jobs ran on the serial fallback")
        # Wrapped only now: the pool has forked and cannot inherit it.
        patcher = Patcher(warmup)
        if args.trace:
            layers.install_codebook(patcher)
        try:
            want = serveops.oracle([raw for raw, _, _ in warm])
        finally:
            patcher.restore()
        ops = [serveops.check(raw, result, want, wall) for raw, result, wall in warm]
        gc.collect()
        # The pool's management thread stays; it idles between passes,
        # which is when the reference samples are taken.
        threads = threading.active_count()
        report = setup_report(import_s, threads)
        if args.setup_only:
            return finish(report, ops)

        async def passes_for(seconds: float, recorder=None) -> list[Pass]:
            passes = []
            deadline = time.perf_counter() + seconds
            before = [checked_ref(threads) for _ in range(SERVE_REF_SAMPLES)]
            while True:
                jobs, wall = await serveops.run_batch(
                    server, requests * serveops.BATCHES_PER_PASS, want, recorder
                )
                after = [checked_ref(threads) for _ in range(SERVE_REF_SAMPLES)]
                ref_s = statistics.median(before + after)
                passes.append(Pass(jobs, ref_s, wall, layers.serve_pass_p50s(jobs)))
                before = after
                if time.perf_counter() >= deadline:
                    return passes

        if not args.trace:
            passes = await passes_for(args.seconds)
            peak = max(self_peak_rss_mb(), serveops.children_peak_rss_mb())
            report["end_to_end"] = end_to_end(passes, peak)
            report["raw"].update(end_to_end(passes, peak, adjusted=False))
        else:
            untraced = await passes_for(args.seconds / 2)
            recorder = SpanRecorder()
            traced = await passes_for(args.seconds / 2, recorder)
            passes = untraced + traced
            metrics = layers.serve_layer_metrics(passes, server.stats)
            metrics.update(trace_metrics(report, warmup, untraced, traced))
            report["per_layer"] = layers.complete(metrics)
            report["spans_file"] = write_spans(args, recorder, warmup)
        report["serve_stats"] = dict(server.stats)
    return finish_passes(report, ops, passes)


def self_peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes: list[Pass], peak_rss_mb: float, adjusted: bool = True) -> dict:
    """Medians over passes; times at reference host speed unless
    ``adjusted`` is false."""

    def scale(p: Pass) -> float:
        return p.scale if adjusted else 1.0

    # The median over passes of each pass's percentile, so a noisy
    # stretch of the run moves only the passes it overlaps.
    return {
        "fetches_per_s": statistics.median(
            p.fetches / (p.wall_s * scale(p)) for p in passes
        ),
        "jobs_per_s": statistics.median(
            p.attempted / (p.wall_s * scale(p)) for p in passes
        ),
        "job_p50_ms": 1000.0
        * statistics.median(p.op_p50_s * scale(p) for p in passes),
        "job_p99_ms": 1000.0
        * statistics.median(p.op_p99_s * scale(p) for p in passes),
        "encoded_transitions": passes[0].encoded_transitions,
        "peak_rss_mb": peak_rss_mb,
    }


def trace_metrics(report: dict, warmup, untraced: list[Pass], traced: list[Pass]) -> dict:
    """The per-layer metrics every traced run reports: tracing
    overhead, set-up split, codebook compile and host speed."""
    import layers

    metrics = layers.overhead_metrics(
        [p.wall_s * p.scale for p in untraced],
        [p.wall_s * p.scale for p in traced],
    )
    metrics["core.codebook_compile_s"] = layers.codebook_compile_s(warmup)
    metrics["setup.import_s"] = report["import_s"]
    metrics["setup.warmup_s"] = report["warmup_s"]
    metrics["host.ref_ms"] = 1000.0 * statistics.median(
        p.ref_s for p in untraced + traced
    )
    return metrics


def finish_passes(report: dict, ops: list, passes: list[Pass]) -> dict:
    """Keep the raw pass walls and check what must repeat across
    passes, then count the run's operations."""
    report["raw"]["pass_walls"] = [p.wall_s for p in passes]
    report["raw"]["pass_ref_s"] = [p.ref_s for p in passes]
    # Every pass of one seed runs the same operations, so its
    # transition total is an exact count that must repeat.
    totals = {p.encoded_transitions for p in passes}
    problems = []
    if len(totals) != 1:
        problems.append(f"encoded transitions differ across passes: {sorted(totals)}")
    return finish(report, ops, passes, problems)


def finish(
    report: dict, ops: list, passes: list[Pass] = (), problems: list[str] = ()
) -> dict:
    """Count attempted and failed operations, those of set-up (``ops``)
    and of ``passes``, into ``report``; ``problems`` are failed checks
    that belong to no single operation."""
    failed = [op for op in ops if not op.ok] + [op for p in passes for op in p.failed]
    report["attempted"] = len(ops) + sum(p.attempted for p in passes)
    report["failed"] = len(failed) + len(problems)
    report["errors"] = [f"{op.label}: {op.error}" for op in failed[:MAX_ERRORS]]
    report["errors"] += list(problems)
    return report


def write_spans(args, recorder, warmup) -> str:
    """Write the run's spans at exit; returns the file name."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "warmup": warmup.to_json(),
                "spans": recorder.to_json(),
            }
        )
    )
    return path.name


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    harness = import_harness(args.workload)
    import_s = time.perf_counter() - T0
    if args.workload == "serve_warm":
        try:
            report = asyncio.run(run_serve(args, harness, import_s))
        finally:
            harness.join_children()
    else:
        report = run_flow(args, harness, import_s)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
