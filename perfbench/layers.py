"""Which bindings the traced run wraps, and the per-layer metrics.

Every entry names a public function of one layer at the binding its
caller looks it up through, and the span it records.  A layer metric
``<span>_s`` is the span's self time (its duration minus the part its
wrapped children cover), summed per pass.
"""

from __future__ import annotations

import importlib
import statistics

from tracing import Patcher, SpanRecorder, nearest_rank, self_times

#: Registered encoder-zoo schemes the selector fits on every region.
SCHEMES = ("bus-invert", "frequency", "gray", "low-weight", "memoryless", "t0")


def _blocks_words(args, kwargs, result) -> dict:
    word_lists = args[0]
    return {"blocks": len(word_lists), "words": sum(len(w) for w in word_lists)}


def _one_block(args, kwargs, result) -> dict:
    return {"blocks": 1, "words": len(args[0])}


def _instructions(args, kwargs, result) -> dict:
    return {"instructions": result[0].steps}


def _decoded_words(args, kwargs, result) -> dict:
    return {"words": len(args[1])}


#: (span, "module" or "module:Class", attribute, count function)
BINDINGS = (
    ("isa.assemble", "repro.workloads.common", "assemble", None),
    ("sim.run", "repro.sim.cpu", "run_program", _instructions),
    ("sim.bus.measure", "repro.pipeline.flow", "count_trace_transitions", None),
    ("sim.bus.measure", "repro.pipeline.selector", "count_trace_transitions", None),
    ("cfg.analyze", "repro.cfg.graph:ControlFlowGraph", "build", None),
    ("cfg.analyze", "repro.pipeline.flow", "profile_trace", None),
    ("cfg.analyze", "repro.pipeline.flow", "find_natural_loops", None),
    ("cfg.analyze", "repro.pipeline.selector", "profile_trace", None),
    ("cfg.select", "repro.pipeline.flow", "select_hot_blocks", None),
    ("core.encode", "repro.pipeline.flow", "encode_basic_blocks", _blocks_words),
    ("core.encode", "repro.pipeline.selector", "encode_basic_block", _one_block),
    ("hw.deploy", "repro.hw.tt:TransformationTable", "allocate", None),
    ("hw.deploy", "repro.hw.bbit:BasicBlockIdentificationTable", "install", None),
    (
        "hw.decode_trace",
        "repro.hw.fetch_decoder:FetchDecoder",
        "decode_trace",
        _decoded_words,
    ),
    ("bundle.build", "repro.pipeline.bundle:EncodingBundle", "from_flow_result", None),
    ("bundle.build", "repro.pipeline.bundle:EncodingBundle", "to_json", None),
    ("bundle.load", "repro.pipeline.bundle:EncodingBundle", "from_json", None),
    ("bundle.load", "repro.pipeline.bundle:EncodingBundle", "validate", None),
    (
        "bundle.deploy_check",
        "repro.pipeline.bundle:EncodingBundle",
        "deploy_and_check",
        None,
    ),
    ("regional.plan", "repro.pipeline.selector", "plan_regions", None),
    ("selector.run", "repro.pipeline.selector:SchemeSelector", "run", None),
    ("flow.run", "repro.pipeline.flow:EncodingFlow", "run", None),
)

#: Wrapped only around the set-up warm-up: the first lookup per k
#: compiles the codebook.
CODEBOOK_BINDING = ("core.get_codebook", "repro.core.program_codec", "get_codebook")

#: span name -> per-layer time metric stem
TIME_METRICS = {
    "isa.assemble": "isa.assemble",
    "sim.run": "sim.run",
    "sim.bus.measure": "sim.bus.measure",
    "cfg.analyze": "cfg.analyze",
    "cfg.select": "cfg.select",
    "core.encode": "core.encode",
    "hw.deploy": "hw.deploy",
    "hw.decode_trace": "hw.decode_trace",
    "bundle.build": "bundle.build",
    "bundle.load": "bundle.load",
    "bundle.deploy_check": "bundle.deploy_check",
    "regional.plan": "regional.plan",
    "selector.run": "selector.self",
    "flow.run": "flow.self",
}
for _scheme in SCHEMES:
    TIME_METRICS[f"baselines.{_scheme}.fit"] = f"baselines.{_scheme}.fit"
    TIME_METRICS[f"baselines.{_scheme}.code"] = f"baselines.{_scheme}.code"

#: Every per-layer metric, in report order; units and directions are
#: in BENCHMARK.json.
PER_LAYER = (
    [f"{stem}_s" for stem in TIME_METRICS.values()]
    + [f"{stem}_share" for stem in TIME_METRICS.values()]
    + [
        "pass.unattributed_s",
        "sim.instr_per_s",
        "sim.instructions",
        "core.blocks_encoded",
        "core.words_encoded",
        "core.codebook_compile_s",
        "hw.decode_words_per_s",
        "hw.decoded_words",
        "setup.import_s",
        "setup.warmup_s",
        "pass.untraced_s",
        "pass.traced_s",
        "trace.overhead_s",
        "trace.overhead_frac",
        "host.ref_ms",
        "serve.compute_ms_p50",
        "serve.wait_ms_p50",
        "serve.encode_ms_p50",
        "serve.deploy_ms_p50",
        "serve.decode_verify_ms_p50",
        "serve.shed",
        "serve.retried",
        "serve.pool_rebuilds",
    ]
)

#: Job kinds of the serve batch, each with its own latency metric.
SERVE_KINDS = ("encode", "deploy", "decode_verify")


def resolve(path: str) -> object:
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def install(patcher: Patcher) -> None:
    """Wrap every layer binding, the zoo backends included."""
    for span, path, attr, count in BINDINGS:
        patcher.wrap(resolve(path), attr, span, count)
    from repro.baselines.protocol import ENCODER_REGISTRY

    for scheme in SCHEMES:
        cls = ENCODER_REGISTRY.get(scheme)
        if cls is None:
            continue
        patcher.wrap(cls, "fit", f"baselines.{scheme}.fit")
        patcher.wrap(cls, "encode", f"baselines.{scheme}.code")
        patcher.wrap(cls, "decode", f"baselines.{scheme}.code")


def install_codebook(patcher: Patcher) -> None:
    span, path, attr = CODEBOOK_BINDING
    patcher.wrap(
        resolve(path), attr, span, lambda args, kwargs, result: {"k": args[0]}
    )


def codebook_compile_s(warmup: SpanRecorder) -> float:
    """Summed duration of the first codebook lookup per block size."""
    seen: set[int] = set()
    total = 0.0
    for span in warmup.spans:
        if span.name == CODEBOOK_BINDING[0] and span.counts["k"] not in seen:
            seen.add(span.counts["k"])
            total += span.duration
    return total


def flow_layer_metrics(
    recorder: SpanRecorder, traced_walls: list[float]
) -> dict[str, float]:
    """Per-pass self times, shares, rates and counts from traced passes."""
    passes = len(traced_walls)
    mean_wall = sum(traced_walls) / passes
    selfs = self_times(recorder.spans)
    totals = {stem: 0.0 for stem in TIME_METRICS.values()}
    counts = {"instructions": 0, "blocks": 0, "words": 0, "decoded": 0}
    unattributed = 0.0
    for span in recorder.spans:
        stem = TIME_METRICS.get(span.name)
        if stem is None:  # the harness's own op spans
            unattributed += selfs[span.id]
            continue
        totals[stem] += selfs[span.id]
        if span.name == "sim.run":
            counts["instructions"] += span.counts["instructions"]
        elif span.name == "core.encode":
            counts["blocks"] += span.counts["blocks"]
            counts["words"] += span.counts["words"]
        elif span.name == "hw.decode_trace":
            counts["decoded"] += span.counts["words"]
    out: dict[str, float] = {}
    for stem, total in totals.items():
        out[f"{stem}_s"] = total / passes
        out[f"{stem}_share"] = total / passes / mean_wall
    out["pass.unattributed_s"] = unattributed / passes
    out["sim.instructions"] = counts["instructions"] / passes
    out["sim.instr_per_s"] = _rate(counts["instructions"], totals["sim.run"])
    out["core.blocks_encoded"] = counts["blocks"] / passes
    out["core.words_encoded"] = counts["words"] / passes
    out["hw.decoded_words"] = counts["decoded"] / passes
    out["hw.decode_words_per_s"] = _rate(
        counts["decoded"], totals["hw.decode_trace"]
    )
    return out


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def serve_pass_p50s(jobs: list) -> dict[str, float]:
    """One serve pass's nearest-rank median latencies, in raw seconds,
    keyed by metric name; a kind the pass did not run is left out."""
    columns = {
        "serve.compute_ms_p50": [job.compute_s for job in jobs],
        "serve.wait_ms_p50": [job.wall_s - job.compute_s for job in jobs],
    }
    for kind in SERVE_KINDS:
        columns[f"serve.{kind}_ms_p50"] = [
            job.wall_s for job in jobs if job.kind == kind
        ]
    return {
        name: nearest_rank(values, 50) for name, values in columns.items() if values
    }


def serve_layer_metrics(passes: list, stats: dict) -> dict[str, float]:
    """The serve layer, from public results and ``server.stats``: pool
    children cannot be wrapped.  Each latency is the nearest-rank
    median within a pass (``Pass.p50s``) at reference host speed, then
    the median over passes."""
    names = ["serve.compute_ms_p50", "serve.wait_ms_p50"]
    names += [f"serve.{kind}_ms_p50" for kind in SERVE_KINDS]
    out = {}
    for name in names:
        per_pass = [p.p50s[name] * p.scale for p in passes if name in p.p50s]
        out[name] = 1000.0 * statistics.median(per_pass) if per_pass else 0.0
    for name in ("shed", "retried", "pool_rebuilds"):
        out[f"serve.{name}"] = stats[name]
    return out


def overhead_metrics(untraced: list[float], traced: list[float]) -> dict:
    base = statistics.median(untraced)
    with_tracing = statistics.median(traced)
    return {
        "pass.untraced_s": base,
        "pass.traced_s": with_tracing,
        "trace.overhead_s": with_tracing - base,
        "trace.overhead_frac": (with_tracing - base) / base,
    }


def complete(metrics: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric, 0 for a layer the workload never runs."""
    return {name: float(metrics.get(name, 0.0)) for name in PER_LAYER}
