"""Self-tests of the benchmark harness.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import flowops
import layers
from tracing import Patcher, Span, SpanRecorder, covered_length, nearest_rank, self_times

ROOT = Path(__file__).resolve().parents[2]


# -- golden values -------------------------------------------------------


def test_wrong_golden_digest_is_a_failed_operation():
    params = dict(flowops.flow_inputs(0))["conv2d"]
    key = flowops.config_key("conv2d", params)
    golden = flowops.load_golden()["encode_flow"]
    wrong = {key: dict(golden[key], sha256="0" * 64)}

    result = flowops.run_op("encode_flow", "conv2d", params, wrong)

    assert not result.ok
    assert "sha256" in result.error
    assert flowops.run_op("encode_flow", "conv2d", params, golden).ok


def test_wrong_golden_transitions_is_a_failed_operation():
    params = dict(flowops.flow_inputs(0))["conv2d"]
    key = flowops.config_key("conv2d", params)
    golden = flowops.load_golden()["encode_flow"]
    wrong = {key: dict(golden[key], encoded_transitions=1)}

    result = flowops.run_op("encode_flow", "conv2d", params, wrong)

    assert not result.ok
    assert "transitions" in result.error


def test_raising_operation_is_a_failed_operation():
    result = flowops.run_op("encode_flow", "fir", {"samples": 1}, None)
    assert not result.ok
    assert result.error.startswith("ValueError")


def test_wrong_serve_result_is_a_failed_job():
    import serveops

    raw = next(r for r in serveops.batch(0) if r["kind"] == "deploy")
    want = {serveops.identity(raw): {"bundle_digest": "a" * 64}}
    result = {
        "tenant": raw["tenant"],
        "job_id": raw["job_id"],
        "kind": raw["kind"],
        "outcome": "ok",
        "payload": {"bundle_digest": "a" * 64},
        "duration_s": 0.002,
    }
    assert serveops.check(raw, result, want, 0.003).ok

    drifted = dict(result, payload={"bundle_digest": "b" * 64})
    job = serveops.check(raw, drifted, want, 0.003)
    assert not job.ok and "payload differs" in job.error

    errored = dict(result, outcome="error", error="boom")
    job = serveops.check(raw, errored, want, 0.003)
    assert not job.ok and "outcome 'error'" in job.error


def test_serve_batch_is_seeded():
    import serveops

    assert serveops.batch(3) == serveops.batch(3)
    assert serveops.batch(3) != serveops.batch(4)
    assert sorted(map(str, serveops.batch(3))) == sorted(map(str, serveops.batch(4)))


def test_every_seed_maps_to_a_golden_configuration():
    golden = flowops.load_golden()
    for workload, inputs in flowops.INPUTS.items():
        reachable = {flowops.config_key(*c) for c in flowops.all_configs(workload)}
        assert reachable == set(golden[workload])
        for seed in range(200):
            keys = {flowops.config_key(n, p) for n, p in inputs(seed)}
            assert keys <= reachable


def test_default_seed_is_the_registry_defaults():
    from repro.workloads.registry import build_workload

    for workload, inputs in flowops.INPUTS.items():
        for name, params in inputs(flowops.DEFAULT_SEED):
            assert build_workload(name, **params).source == build_workload(name).source


@pytest.mark.parametrize(
    "workload, extra, pattern",
    [
        ("encode_flow", [], r"-> (\d+) \("),
        ("select_per_region", ["--select-per-region"], r"-> (\d+) mixed"),
    ],
)
def test_default_golden_matches_cli(workload, extra, pattern):
    out = subprocess.run(
        [sys.executable, "-m", "repro", "encode", "fir", *extra],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    params = dict(flowops.INPUTS[workload](flowops.DEFAULT_SEED))["fir"]
    want = flowops.load_golden()[workload][flowops.config_key("fir", params)]
    assert re.search(r"sha256 (\w+)", out).group(1) == want["sha256"]
    assert int(re.search(pattern, out).group(1)) == want["encoded_transitions"]


# -- statistics on hand-built spans -------------------------------------


def test_nearest_rank():
    values = [5, 1, 4, 2, 3, 10, 9, 8, 7, 6]
    assert nearest_rank(values, 50) == 5
    assert nearest_rank(values, 90) == 9
    assert nearest_rank(values, 99) == 10
    assert nearest_rank(values, 100) == 10
    assert nearest_rank(values, 1) == 1
    assert nearest_rank([7.5], 99) == 7.5
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank(values, 0)


def test_covered_length_merges_and_clips():
    assert covered_length([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
    assert covered_length([], 0, 10) == 0
    assert covered_length([(11, 12)], 0, 10) == 0


def test_self_time_subtracts_covered_children_only():
    spans = [
        Span(0, "parent", 0.0, 10.0),
        Span(1, "a", 1.0, 3.0, parent=0),
        Span(2, "b", 2.0, 5.0, parent=0),  # overlaps a
        Span(3, "grandchild", 2.5, 4.5, parent=2),
        Span(4, "c", 8.0, 10.0, parent=0),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10 - 4 - 2)
    assert selfs[2] == pytest.approx(3 - 2)
    assert selfs[3] == pytest.approx(2)
    assert selfs[4] == pytest.approx(2)


def test_recorder_nests_spans_by_call_stack():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    outer = recorder.begin("outer")
    inner = recorder.begin("inner")
    recorder.end(inner)
    recorder.end(outer)
    assert inner.parent == outer.id
    assert outer.parent is None
    assert self_times(recorder.spans) == {0: 2.0, 1: 1.0}


def test_layer_metrics_split_pass_into_self_times():
    recorder = SpanRecorder()
    spans = [
        Span(0, "pass", 0.0, 4.0),
        Span(1, "sim.run", 0.0, 1.0, parent=0, counts={"instructions": 100}),
        Span(2, "hw.decode_trace", 1.0, 3.0, parent=0, counts={"words": 50}),
        Span(3, "bundle.deploy_check", 3.0, 4.0, parent=0),
    ]
    recorder.spans = spans
    metrics = layers.flow_layer_metrics(recorder, [4.0])
    assert metrics["sim.run_s"] == 1.0
    assert metrics["hw.decode_trace_share"] == 0.5
    assert metrics["sim.instr_per_s"] == 100.0
    assert metrics["hw.decode_words_per_s"] == 25.0
    assert metrics["pass.unattributed_s"] == 0.0


def test_end_to_end_times_are_scaled_to_the_reference_speed():
    import child
    import refclock

    op = flowops.OpResult("fir", {}, 1.0, True, fetches=1000, encoded_transitions=7)
    # The kernel took twice its nominal time: the host ran at half speed.
    slow = child.Pass([op, op], ref_s=2 * refclock.NOMINAL_S, wall_s=2.0)

    adjusted = child.end_to_end([slow], peak_rss_mb=1.0)
    raw = child.end_to_end([slow], peak_rss_mb=1.0, adjusted=False)

    assert adjusted["fetches_per_s"] == pytest.approx(2000.0)
    assert adjusted["job_p50_ms"] == pytest.approx(500.0)
    assert raw["fetches_per_s"] == pytest.approx(1000.0)
    assert raw["jobs_per_s"] == pytest.approx(1.0)
    assert adjusted["encoded_transitions"] == raw["encoded_transitions"] == 14


def test_a_pass_keeps_only_its_failed_operations():
    import child

    ok = flowops.OpResult("fir", {}, 1.0, True, fetches=10)
    bad = flowops.OpResult("iir", {}, 3.0, False, error="digest differs")
    done = child.Pass([ok, bad, ok], ref_s=0.008, wall_s=5.0)

    assert done.failed == [bad]
    assert (done.attempted, done.fetches, done.op_p50_s) == (3, 20, 1.0)
    report = child.finish({}, [ok], [done])
    assert (report["attempted"], report["failed"]) == (4, 1)
    assert report["errors"] == ["iir(): digest differs"]


def test_serve_metrics_split_latency_into_compute_and_wait():
    import child
    import refclock
    from serveops import JobResult

    jobs = [
        JobResult("a", "encode", wall_s=0.003, compute_s=0.002, ok=True),
        JobResult("b", "deploy", wall_s=0.005, compute_s=0.004, ok=True),
        JobResult("c", "decode_verify", wall_s=0.009, compute_s=0.006, ok=True),
    ]
    fast = child.Pass(
        jobs, ref_s=refclock.NOMINAL_S, wall_s=0.01, p50s=layers.serve_pass_p50s(jobs)
    )
    stats = {"shed": 0, "retried": 2, "pool_rebuilds": 0}

    metrics = layers.serve_layer_metrics([fast], stats)

    assert metrics["serve.compute_ms_p50"] == pytest.approx(4.0)
    assert metrics["serve.wait_ms_p50"] == pytest.approx(1.0)
    assert metrics["serve.decode_verify_ms_p50"] == pytest.approx(9.0)
    assert metrics["serve.retried"] == 2


def test_reference_sample_refuses_a_busy_interpreter():
    import threading

    import child

    child.checked_ref()
    release = threading.Event()
    extra = threading.Thread(target=release.wait)
    extra.start()
    try:
        with pytest.raises(RuntimeError, match="threads"):
            child.checked_ref()
        child.checked_ref(threads=2)
    finally:
        release.set()
        extra.join(timeout=10)
    assert not extra.is_alive()
    sys.setprofile(lambda *args: None)
    try:
        with pytest.raises(RuntimeError, match="hook"):
            child.checked_ref()
    finally:
        sys.setprofile(None)


# -- wrappers ------------------------------------------------------------


def _bindings():
    from repro.baselines.protocol import ENCODER_REGISTRY

    entries = [(layers.resolve(path), attr) for _, path, attr, _ in layers.BINDINGS]
    entries.append((layers.resolve(layers.CODEBOOK_BINDING[1]), layers.CODEBOOK_BINDING[2]))
    for scheme in layers.SCHEMES:
        for attr in ("fit", "encode", "decode"):
            entries.append((ENCODER_REGISTRY[scheme], attr))
    return entries


def test_wrappers_restore_every_patched_binding():
    entries = _bindings()
    before = [
        (attr in vars(owner), inspect.getattr_static(owner, attr))
        for owner, attr in entries
    ]
    recorder = SpanRecorder()
    patcher = Patcher(recorder)
    layers.install(patcher)
    layers.install_codebook(patcher)
    for (owner, attr), (_, original) in zip(entries, before):
        assert inspect.getattr_static(owner, attr) is not original, (owner, attr)

    flowops.run_op("select_per_region", "fir", {"samples": 184}, None)
    assert {s.name for s in recorder.spans} >= {
        "sim.run",
        "selector.run",
        "baselines.frequency.fit",
        "bundle.deploy_check",
    }
    patcher.restore()

    after = [
        (attr in vars(owner), inspect.getattr_static(owner, attr))
        for owner, attr in entries
    ]
    assert len(after) == len(before)
    for (owner, attr), (own0, raw0), (own1, raw1) in zip(entries, before, after):
        assert own0 == own1 and raw0 is raw1, (owner, attr)
    seen = len(recorder.spans)
    assert flowops.run_op("encode_flow", "conv2d", {}, None).ok
    assert len(recorder.spans) == seen


def test_benchmark_spec_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER)
    names = {m["name"] for m in spec["end_to_end"]}
    assert "setup_s" in names and "ok_frac" in names
