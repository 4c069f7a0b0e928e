"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the paper's artefacts:

=============  =====================================================
command        what it prints
=============  =====================================================
``codebook``   a Figure-2/4 style optimal codebook for a block size
``theory``     the Figure-3 TTN/RTN/improvement table
``streams``    the Section-6 random-stream experiment
``encode``     the full flow on one named benchmark (Figure-6 cell)
``suite``      the whole Figure-6 table + Figure-7 chart
               (``--paper-scale``: at the paper's data sizes)
``compile``    compile a minicc kernel, run it, encode its hot loops
``cost``       the Section-7.2 hardware cost table
``faults``     the fault-injection campaign: per-model detection and
               recovery rates, written to FAULTS_report.json
``experiment`` the parameter-sweep grid (workloads x block sizes x TT
               capacities x strategies) as CSV
``metrics``    metric families from a RUN_report.json (``--check``
               gates on the expected encode families, or the serve
               families with ``--expect serve``)
``trace``      span timings from a RUN_report.json (``--top N``)
``verify``     the differential verification campaign: seeded inputs
               through every decode path plus exhaustive sweeps,
               written to VERIFY_report.json (``--check`` gates on
               zero mismatches and 100% gated coverage;
               ``--replay`` reproduces a recorded counterexample)
``serve``      the fault-tolerant async encoding service:
               ``--selftest`` runs the seeded chaos/load harness
               (SERVE_report.json), ``--jobs``
               serves a batch file; ``--wal``/``--resume`` make a
               SIGKILLed run replay to byte-identical results
=============  =====================================================

``encode``, ``faults``, ``verify`` and ``serve`` accept ``--metrics``:
the run is executed with the observability layer on and a
machine-readable snapshot (metrics + spans + provenance) is written to
``RUN_report.json`` (``verify`` and ``serve`` name it ``--run-report``,
since their ``--report`` is the campaign report itself).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.workloads.registry import BENCHMARK_ORDER, EXTENDED_WORKLOADS

#: Everything ``repro encode`` accepts: the Figure-6 benchmarks plus
#: the extended kernels (``fir`` & co.) the fault campaign deploys.
ENCODABLE_WORKLOADS = BENCHMARK_ORDER + EXTENDED_WORKLOADS


def _obs_begin(args: argparse.Namespace) -> bool:
    """Flip the observability layer on when ``--metrics`` was given."""
    if not getattr(args, "metrics", False):
        return False
    from repro import obs

    obs.reset()
    obs.enable(jsonl_path=args.trace_jsonl)
    return True


def _obs_finish(path: str, command: str, seed: int | None = None) -> None:
    """Snapshot the enabled observability state into the run report at
    ``path`` (``args.report``, or ``args.run_report`` for commands
    whose ``--report`` is the campaign report itself)."""
    from repro import obs

    report = obs.collect_report(command=command, seed=seed)
    written = report.write(path)
    obs.OBS.tracer.close_jsonl()
    print(f"wrote {written}")


def _cmd_codebook(args: argparse.Namespace) -> int:
    from repro.core.codebook import build_codebook
    from repro.core.transformations import ALL_TRANSFORMATIONS, OPTIMAL_SET

    transformations = ALL_TRANSFORMATIONS if args.full else OPTIMAL_SET
    book = build_codebook(args.block_size, transformations)
    print(book.format_table())
    print(
        f"\nTTN = {book.total_transitions}, RTN = {book.reduced_transitions}, "
        f"improvement = {book.improvement_percent:.1f}%"
    )
    return 0


def _cmd_theory(args: argparse.Namespace) -> int:
    from repro.core.theory import format_theory_table, theory_table

    rows = theory_table(tuple(args.sizes))
    print(format_theory_table(rows))
    return 0


def _cmd_streams(args: argparse.Namespace) -> int:
    from repro.core.analysis import random_streams, summarize_streams

    streams = random_streams(args.count, args.length, seed=args.seed)
    summary = summarize_streams(streams, args.block_size, strategy=args.strategy)
    print(
        f"{args.count} x {args.length}-bit uniform streams, "
        f"k={args.block_size}, {args.strategy} strategy"
    )
    print(
        f"pooled reduction {summary.reduction_percent:.2f}% "
        f"(mean {summary.mean_percent:.2f}%, "
        f"stdev {summary.stdev_percent:.2f}%)"
    )
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    import hashlib

    from repro.pipeline.bundle import EncodingBundle
    from repro.pipeline.flow import EncodingFlow
    from repro.workloads.registry import build_workload

    name = args.workload
    observed = _obs_begin(args)
    workload = build_workload(name)
    cpu, trace = workload.run()
    program = cpu.program
    if args.select_per_region:
        code = _encode_select_per_region(args, workload, program, trace)
        if observed:
            _obs_finish(
                args.report, command=f"repro encode {name} --select-per-region"
            )
        return code
    flow = EncodingFlow(
        block_size=args.block_size,
        tt_capacity=args.tt_entries,
        strategy=args.strategy,
    )
    result = flow.run(program, trace, name=workload.name)
    bundle_json = EncodingBundle.from_flow_result(program, result).to_json()
    bundle_digest = hashlib.sha256(bundle_json.encode()).hexdigest()
    print(f"workload:      {workload.description}")
    print(f"trace:         {result.trace_length} fetches")
    print(
        f"blocks:        {len(result.selected_blocks)} encoded, "
        f"{result.tt_entries_used}/{result.tt_capacity} TT entries, "
        f"{result.hot_coverage:.0%} of fetches covered"
    )
    print(
        f"transitions:   {result.baseline_transitions} -> "
        f"{result.encoded_transitions} "
        f"({result.reduction_percent:.1f}% reduction)"
    )
    print(f"decode:        {'verified bit-exact' if result.decode_verified else 'n/a'}")
    # The same digest a serve-side encode job reports for this config:
    # the CLI and the service vouch for each other result-for-result.
    print(f"bundle:        sha256 {bundle_digest} ({args.strategy} strategy)")
    if observed:
        _obs_finish(args.report, command=f"repro encode {name}")
    return 0


def _encode_select_per_region(args, workload, program, trace) -> int:
    """``repro encode --select-per-region``: measure every registered
    backend per hot region, emit and validate the mixed-scheme bundle."""
    import hashlib

    from repro.pipeline.selector import SchemeSelector, SelectorBudget

    selector = SchemeSelector(
        block_size=args.block_size,
        tt_capacity=args.tt_entries,
        budget=SelectorBudget(
            max_table_bits=args.budget_table_bits,
            max_extra_lines=args.budget_extra_lines,
        ),
    )
    result = selector.run(program, trace, name=workload.name)
    print(f"workload:      {workload.description}")
    print(f"trace:         {len(trace)} fetches")
    print(
        f"budget:        <= {args.budget_table_bits} table bits, "
        f"<= {args.budget_extra_lines} extra lines"
    )
    print(f"regions:       {len(result.choices)}")
    for choice in result.choices:
        ranked = ", ".join(
            f"{scheme}={cost if cost is not None else 'over-budget'}"
            for scheme, cost in sorted(
                choice.candidates.items(),
                key=lambda kv: (kv[1] is None, kv[1] if kv[1] is not None else 0),
            )
        )
        print(
            f"  region {choice.header:#010x}: {choice.scheme} "
            f"({choice.raw_transitions} -> {choice.transitions} transitions, "
            f"saves {choice.savings}; {choice.fetches} fetches)"
        )
        print(f"    candidates: {ranked}")
    best_single = result.best_single_transitions()
    print(
        f"transitions:   {result.baseline_transitions} -> "
        f"{result.mixed_transitions} mixed "
        f"({result.reduction_percent:.1f}% reduction; "
        f"best single scheme {best_single})"
    )
    if result.mixed_transitions > best_single:
        print(
            "selector:      REGRESSION: mixed-scheme configuration is worse "
            "than the best single scheme",
            file=sys.stderr,
        )
        return 1
    # the selector already deploy-and-checked; repeat through the
    # serialised form so the gate covers the JSON round trip too
    from repro.pipeline.bundle import EncodingBundle

    bundle_json = result.bundle.to_json()
    reloaded = EncodingBundle.from_json(bundle_json)
    if not reloaded.deploy_and_check(program, trace):
        print("decode:        MISMATCH after bundle round trip", file=sys.stderr)
        return 1
    digest = hashlib.sha256(bundle_json.encode()).hexdigest()
    print("decode:        verified bit-exact (mixed-scheme bundle)")
    print(f"bundle:        sha256 {digest} ({len(bundle_json)} bytes)")
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    from repro.pipeline.experiment import run_sweep
    from repro.pipeline.report import (
        fig6_table,
        fig7_series,
        format_fig6,
        format_fig7_ascii,
    )
    from repro.workloads.registry import PAPER_SIZES

    sweep = run_sweep(
        PAPER_SIZES if args.paper_scale else BENCHMARK_ORDER,
        block_sizes=tuple(args.block_sizes),
    )
    results = sweep.by_workload()
    for name in BENCHMARK_ORDER:
        fetches = next(iter(results[name].values())).trace_length
        print(f"{name}: {fetches} fetches", file=sys.stderr)
    print(format_fig6(fig6_table(results, BENCHMARK_ORDER)))
    if args.chart:
        print()
        print(
            format_fig7_ascii(
                fig7_series(results, BENCHMARK_ORDER), BENCHMARK_ORDER
            )
        )
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    from repro.minicc import compile_kernel
    from repro.pipeline.flow import EncodingFlow

    with open(args.file) as handle:
        source = handle.read()
    kernel = compile_kernel(source, name=args.file, opt_level=args.opt)
    program = kernel.assemble()
    print(f"compiled {args.file}: {len(program.words)} instructions")
    if args.show_asm:
        print(kernel.assembly)
    cpu, trace = kernel.run()
    print(f"executed {cpu.steps} instructions")
    result = EncodingFlow(block_size=args.block_size).run(
        program, trace, args.file
    )
    print(
        f"encoding (k={args.block_size}): {result.baseline_transitions} -> "
        f"{result.encoded_transitions} transitions "
        f"({result.reduction_percent:.1f}% reduction), decode "
        f"{'verified' if result.decode_verified else 'n/a'}"
    )
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    from repro.hw.cost import cost_sweep

    print(
        f"{'k':>2s} {'TT bits':>8s} {'BBIT bits':>9s} {'gates':>6s} "
        f"{'max loop instrs':>15s}"
    )
    for cost in cost_sweep(tuple(args.sizes), tt_entries=args.tt_entries):
        print(
            f"{cost.block_size:2d} {cost.tt_bits:8d} {cost.bbit_bits:9d} "
            f"{cost.decode_gates:6d} {cost.max_instructions:15d}"
        )
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults import DEFAULT_MODELS, MODELS_BY_NAME, CampaignConfig, run_campaign

    if args.storage:
        return _cmd_faults_storage(args)
    if args.models:
        unknown = [name for name in args.models if name not in MODELS_BY_NAME]
        if unknown:
            print(
                f"unknown fault model(s): {', '.join(unknown)}; "
                f"available: {', '.join(MODELS_BY_NAME)}",
                file=sys.stderr,
            )
            return 2
        models = tuple(MODELS_BY_NAME[name] for name in args.models)
    else:
        models = DEFAULT_MODELS
    config = CampaignConfig(
        workloads=tuple(args.workload or ["fir"]),
        mixed_workloads=tuple(args.mixed_workload or []),
        block_size=args.block_size,
        seed=args.seed,
        trials=args.trials,
        models=models,
        parity=not args.no_parity,
        workers=args.workers,
        case_timeout=args.timeout,
    )
    observed = _obs_begin(args)
    for workload in config.workloads:
        print(f"preparing {workload} deployment ...", file=sys.stderr)
    for workload in config.mixed_workloads:
        print(
            f"preparing {workload} mixed-scheme deployment ...",
            file=sys.stderr,
        )
    report = run_campaign(config)
    print(report.format_table())
    silent = len(report.silent_cases())
    print(
        f"\n{len(report.cases)} cases, {silent} silently corrupted, "
        f"protected models "
        f"{'all detected or recovered' if report.protected_ok() else 'NOT fully covered'}"
    )
    path = report.write(args.json, deterministic=args.deterministic)
    print(f"wrote {path}")
    if observed:
        _obs_finish(args.report, command="repro faults", seed=config.seed)
    if args.check and not report.protected_ok():
        print(
            "FAIL: a parity-protected or protocol fault model shows "
            "silent corruption or an escaped exception",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_faults_storage(args: argparse.Namespace) -> int:
    """``repro faults --storage``: the crash-consistency matrix.

    Runs every durability surface through the crash-at-every-syscall-
    prefix sweep plus the non-crash fault models (EIO, ENOSPC, torn),
    prints the matrix, and writes it as the campaign report.  With
    ``--check``, exits 1 on any violation — a lost fsync-acknowledged
    record, a torn report, a bare OSError."""
    from repro.faults.storage import run_storage_campaign

    observed = _obs_begin(args)
    report = run_storage_campaign(
        seed=args.seed, max_states=args.storage_states
    )
    print(report.format_table())
    total = report.total_violations()
    print(
        f"\n{len(report.matrix)} matrix rows, {total} violations, "
        f"crash-consistency "
        f"{'holds on every surface' if report.storage_ok() else 'VIOLATED'}"
    )
    path = report.write(args.json)
    print(f"wrote {path}")
    if observed:
        _obs_finish(
            args.report, command="repro faults --storage", seed=args.seed
        )
    if args.check and not report.storage_ok():
        print(
            "FAIL: a durability surface lost an acknowledged record, "
            "exposed a torn file, or leaked a bare OSError",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.pipeline.experiment import run_sweep

    workloads = args.workload or ["fir"]
    unknown = [name for name in workloads if name not in ENCODABLE_WORKLOADS]
    if unknown:
        print(
            f"unknown workload(s): {', '.join(unknown)}; "
            f"available: {', '.join(ENCODABLE_WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    sweep = run_sweep(
        workloads,
        block_sizes=tuple(args.block_sizes),
        tt_capacities=tuple(args.tt_capacities),
        strategies=tuple(args.strategies),
    )
    print(sweep.to_csv())
    if args.csv:
        path = sweep.write_csv(args.csv)
        print(f"wrote {path}", file=sys.stderr)
    return 0


def _load_report_or_complain(path: str) -> dict | None:
    from repro.obs.report import load_run_report, validate_run_report

    try:
        data = load_run_report(path)
    except FileNotFoundError:
        print(
            f"no run report at {path}; produce one with "
            "`repro encode fir --metrics`",
            file=sys.stderr,
        )
        return None
    problems = validate_run_report(data)
    if problems:
        for problem in problems:
            print(f"invalid report: {problem}", file=sys.stderr)
        return None
    return data


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from repro.obs.report import (
        EXPECTED_ENCODE_FAMILIES,
        EXPECTED_SERVE_FAMILIES,
        EXPECTED_STORAGE_FAMILIES,
        missing_families,
    )

    data = _load_report_or_complain(args.report)
    if data is None:
        return 2
    metrics = data["metrics"]
    if args.json:
        print(json.dumps(metrics, indent=1))
    else:
        meta = data.get("meta", {})
        print(
            f"run {meta.get('run_id', '?')} "
            f"({meta.get('command') or 'unknown command'}, "
            f"git {str(meta.get('git_sha', '?'))[:12]})"
        )
        header = f"{'family':<34s} {'type':<9s} {'series':>6s} {'total':>14s}"
        print(header)
        print("-" * len(header))
        for name in sorted(metrics):
            family = metrics[name]
            series = family.get("series", [])
            if family.get("type") == "histogram":
                total = sum(entry.get("count", 0) for entry in series)
            else:
                total = sum(entry.get("value", 0) for entry in series)
            total_text = (
                f"{total:,.4f}".rstrip("0").rstrip(".")
                if isinstance(total, float)
                else f"{total:,}"
            )
            print(
                f"{name:<34s} {family.get('type', '?'):<9s} "
                f"{len(series):>6d} {total_text:>14s}"
            )
    if args.check:
        expected = {
            "encode": EXPECTED_ENCODE_FAMILIES,
            "serve": EXPECTED_SERVE_FAMILIES,
            "storage": EXPECTED_STORAGE_FAMILIES,
        }[args.expect]
        missing = missing_families(data, expected=expected)
        if missing:
            print(
                "FAIL: expected metric families missing from the report: "
                + ", ".join(missing),
                file=sys.stderr,
            )
            return 1
        print(f"all expected {args.expect} metric families present")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    data = _load_report_or_complain(args.report)
    if data is None:
        return 2
    trace = data["trace"]
    if args.json:
        print(json.dumps(trace, indent=1))
        return 0
    print(
        f"run {trace.get('run_id', '?')}: "
        f"{trace.get('spans_recorded', 0)} spans recorded, "
        f"{trace.get('spans_dropped', 0)} dropped"
    )
    by_name = trace.get("by_name", {})
    if by_name:
        header = (
            f"{'span':<28s} {'count':>6s} {'total s':>10s} "
            f"{'min s':>10s} {'max s':>10s}"
        )
        print(header)
        print("-" * len(header))
        for name in sorted(
            by_name, key=lambda n: by_name[n]["total_s"], reverse=True
        ):
            row = by_name[name]
            print(
                f"{name:<28s} {row['count']:>6d} {row['total_s']:>10.5f} "
                f"{row['min_s']:>10.5f} {row['max_s']:>10.5f}"
            )
    spans = trace.get("spans", [])
    if spans and args.top:
        slowest = sorted(
            spans, key=lambda s: s.get("duration_s", 0.0), reverse=True
        )[: args.top]
        print(f"\nslowest {len(slowest)} spans:")
        for span in slowest:
            indent = "  " * int(span.get("depth", 0))
            attrs = span.get("attrs", {})
            attr_text = (
                " " + " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
                if attrs
                else ""
            )
            print(
                f"  {span.get('duration_s', 0.0):>10.5f}s "
                f"{indent}{span.get('name', '?')}{attr_text}"
            )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    import json

    from repro.verify import (
        MUTATIONS,
        VerifyConfig,
        apply_mutation,
        load_verify_report,
        replay_counterexample,
        run_verify,
    )

    if args.replay is not None:
        try:
            data = load_verify_report(args.replay)
        except FileNotFoundError:
            print(f"no verify report at {args.replay}", file=sys.stderr)
            return 2
        records = data.get("counterexamples", [])
        if not records:
            print(
                f"{args.replay} records no counterexamples; nothing to replay",
                file=sys.stderr,
            )
            return 2
        if not 0 <= args.replay_index < len(records):
            print(
                f"--replay-index {args.replay_index} out of range "
                f"[0, {len(records)})",
                file=sys.stderr,
            )
            return 2
        record = records[args.replay_index]
        for name in record.get("mutations", []):
            apply_mutation(name)
        observed = replay_counterexample(record)
        print(
            f"counterexample {args.replay_index}: kind={record['kind']} "
            f"seed={record.get('seed_key', '?')} "
            f"recorded mismatch={record['mismatch']['kind']}"
        )
        if observed is None:
            print(
                "replay: divergence did NOT reproduce (fixed code, or a "
                "mutation that is no longer armed)"
            )
            return 3
        print(f"replay: reproduced -> {json.dumps(observed)}")
        return 0

    if args.mutation is not None and args.mutation not in MUTATIONS:
        print(
            f"unknown mutation {args.mutation!r}; "
            f"available: {', '.join(MUTATIONS)}",
            file=sys.stderr,
        )
        return 2
    config = VerifyConfig(
        cases=args.cases,
        seed=args.seed,
        bias=tuple(args.bias),
        block_sizes=tuple(args.block_sizes),
        sweeps=not args.no_sweeps,
        workers=args.workers or 0,
        chunk_timeout=args.timeout,
        mutation=args.mutation,
    )
    observed = _obs_begin(args)
    report = run_verify(config)
    print(report.format_summary())
    path = report.write(args.report, deterministic=args.deterministic)
    print(f"wrote {path}")
    if observed:
        _obs_finish(args.run_report, command="repro verify", seed=config.seed)
    if args.check and not report.check_ok:
        print(
            f"FAIL: {report.mismatch_count} differential mismatch(es), "
            f"{len(report.gate_problems)} coverage gate problem(s)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import hashlib
    import json

    from repro.errors import ReproError
    from repro.faults.service import CHAOS_KINDS, parse_chaos_spec

    if bool(args.selftest) == bool(args.jobs):
        print(
            "serve: exactly one of --selftest or --jobs FILE is required",
            file=sys.stderr,
        )
        return 2
    try:
        chaos = (
            CHAOS_KINDS
            if args.chaos is None
            else parse_chaos_spec(args.chaos)
        )
    except ReproError as err:
        print(f"serve: {err}", file=sys.stderr)
        return 2

    observed = _obs_begin(args)
    if args.selftest:
        from repro.serve import SelftestOptions, run_selftest

        options = SelftestOptions(
            seed=args.seed,
            tenants=args.tenants,
            jobs_per_tenant=args.jobs_per_tenant,
            workers=args.workers,
            queue_depth=args.queue_depth,
            chaos=chaos,
            deterministic=args.deterministic,
            default_deadline_s=args.deadline,
            wal_path=args.wal,
            resume=args.resume,
            cache_dir=args.cache_dir,
            report_path=args.report,
        )
        report, problems = run_selftest(options)
        summary = report["summary"]
        outcome_text = ", ".join(
            f"{k}={v}" for k, v in summary["outcomes"].items()
        )
        print(
            f"selftest: {summary['jobs']} jobs, {options.tenants} tenants, "
            f"chaos {'+'.join(sorted(chaos)) or 'off'}"
        )
        print(f"outcomes:  {outcome_text}")
        ops = report.get("ops")
        if ops:
            stats = ops["stats"]
            print(
                f"handled:   {stats['shed']} shed, {stats['retried']} retried, "
                f"{stats['pool_rebuilds']} pool rebuilds, "
                f"{stats['serial_fallbacks']} serial fallbacks, "
                f"{stats['replayed']} replayed from WAL "
                f"(wall {ops['wall_s']:.2f}s)"
            )
        print(f"wrote {args.report}")
        for problem in problems:
            print(f"PROBLEM: {problem}", file=sys.stderr)
        if observed:
            _obs_finish(
                args.run_report, command="repro serve --selftest", seed=args.seed
            )
        if problems:
            print(
                f"FAIL: {len(problems)} problem(s) — wrong results or "
                "taxonomy violations",
                file=sys.stderr,
            )
            return 1 if args.check else 0
        print("selftest: zero wrong results, taxonomy holds")
        return 0

    from repro.runtime import atomic_write_text
    from repro.serve import EncodingServer, ServeConfig
    from repro.serve.jobs import deterministic_result

    try:
        with open(args.jobs) as handle:
            text = handle.read()
    except OSError as err:
        print(f"serve: cannot read {args.jobs}: {err}", file=sys.stderr)
        return 2
    try:
        loaded = json.loads(text)
        requests = loaded if isinstance(loaded, list) else [loaded]
    except json.JSONDecodeError:
        # JSONL fallback: one request object per non-blank line.
        requests = [json.loads(line) for line in text.splitlines() if line.strip()]
    batch_key = hashlib.sha256(
        json.dumps(requests, sort_keys=True).encode()
    ).hexdigest()[:16]
    config = ServeConfig(
        workers=args.workers,
        queue_depth=args.queue_depth,
        default_deadline_s=args.deadline,
        seed=args.seed,
        cache_dir=args.cache_dir,
        wal_path=args.wal,
        resume=args.resume,
        batch_key=batch_key,
    )

    async def _run_batch():
        async with EncodingServer(config) as server:
            return await server.run_batch(requests), server

    results, server = asyncio.run(_run_batch())
    outcome_counts: dict[str, int] = {}
    for result in results:
        outcome_counts[result["outcome"]] = (
            outcome_counts.get(result["outcome"], 0) + 1
        )
    print(
        f"batch: {len(results)} jobs, outcomes "
        + ", ".join(f"{k}={v}" for k, v in sorted(outcome_counts.items()))
    )
    ordered = sorted(results, key=lambda r: (r["tenant"], r["job_id"]))
    if args.deterministic:
        ordered = [deterministic_result(r) for r in ordered]
    report = {
        "schema": "repro.serve.batch/1",
        "seed": args.seed,
        "batch_key": batch_key,
        "deterministic": args.deterministic,
        "summary": {
            "jobs": len(results),
            "outcomes": dict(sorted(outcome_counts.items())),
        },
        "jobs": ordered,
    }
    if not args.deterministic:
        report["ops"] = {"stats": dict(server.stats)}
    atomic_write_text(args.report, json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.report}")
    if observed:
        _obs_finish(args.run_report, command="repro serve", seed=args.seed)
    errors = outcome_counts.get("error", 0)
    if args.check and errors:
        print(f"FAIL: {errors} job(s) ended outcome 'error'", file=sys.stderr)
        return 1
    return 0


def _add_obs_arguments(p: argparse.ArgumentParser) -> None:
    """The ``--metrics`` family shared by instrumented commands."""
    p.add_argument(
        "--metrics",
        action="store_true",
        help="run with observability on and write a RUN_report.json",
    )
    p.add_argument(
        "--report",
        default="RUN_report.json",
        metavar="PATH",
        help="where --metrics writes the run report",
    )
    p.add_argument(
        "--trace-jsonl",
        default=None,
        metavar="PATH",
        help="also stream one JSON span event per line to PATH",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("codebook", help="Figure-2/4 style codebook")
    p.add_argument("-k", "--block-size", type=int, default=3)
    p.add_argument(
        "--full", action="store_true", help="search all 16 functions"
    )
    p.set_defaults(func=_cmd_codebook)

    p = sub.add_parser("theory", help="Figure-3 TTN/RTN table")
    p.add_argument(
        "--sizes", type=int, nargs="+", default=[2, 3, 4, 5, 6, 7]
    )
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("streams", help="Section-6 random streams")
    p.add_argument("-k", "--block-size", type=int, default=5)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--length", type=int, default=1000)
    p.add_argument("--seed", type=int, default=2003)
    p.add_argument(
        "--strategy", choices=("greedy", "optimal", "disjoint"), default="greedy"
    )
    p.set_defaults(func=_cmd_streams)

    p = sub.add_parser("encode", help="run the flow on one benchmark")
    p.add_argument(
        "workload", choices=ENCODABLE_WORKLOADS, help="workload to encode"
    )
    p.add_argument("-k", "--block-size", type=int, default=5)
    p.add_argument("--tt-entries", type=int, default=16)
    p.add_argument(
        "--strategy",
        choices=("greedy", "optimal"),
        default="greedy",
        help="block-selection strategy (the same two repro serve accepts)",
    )
    p.add_argument(
        "--select-per-region",
        action="store_true",
        help="measure every registered encoder backend per hot region "
        "and emit a validated mixed-scheme bundle",
    )
    p.add_argument(
        "--budget-table-bits",
        type=int,
        default=8192,
        metavar="BITS",
        help="selector hardware budget: max mapping-table storage per "
        "region scheme (default 8192)",
    )
    p.add_argument(
        "--budget-extra-lines",
        type=int,
        default=8,
        metavar="N",
        help="selector hardware budget: max bus lines beyond the 32 "
        "data lines (default 8)",
    )
    _add_obs_arguments(p)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("suite", help="Figure 6 (+7) over all benchmarks")
    p.add_argument(
        "--block-sizes", type=int, nargs="+", default=[4, 5, 6, 7]
    )
    p.add_argument("--chart", action="store_true", help="also print Figure 7")
    p.add_argument(
        "--paper-scale",
        action="store_true",
        help="run the paper's data sizes (workloads.registry.PAPER_SIZES) "
        "instead of the builders' defaults",
    )
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("compile", help="compile and encode a minicc kernel")
    p.add_argument("file", help="minicc source file")
    p.add_argument("-k", "--block-size", type=int, default=5)
    p.add_argument("-O", "--opt", type=int, choices=(0, 1), default=0)
    p.add_argument("--show-asm", action="store_true")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("cost", help="Section-7.2 hardware cost table")
    p.add_argument("--sizes", type=int, nargs="+", default=[4, 5, 6, 7])
    p.add_argument("--tt-entries", type=int, default=16)
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser(
        "faults",
        help="fault-injection campaign over the decode/deploy path",
    )
    p.add_argument(
        "--workload",
        action="append",
        default=None,
        metavar="NAME",
        help="workload(s) to deploy and corrupt (repeatable; default fir)",
    )
    p.add_argument(
        "--mixed-workload",
        action="append",
        default=None,
        metavar="NAME",
        help="workload(s) additionally deployed as mixed-scheme bundles "
        "through the per-region selector (targets the scheme-tag "
        "corruption model; repeatable)",
    )
    p.add_argument("-k", "--block-size", type=int, default=5)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trials", type=int, default=25, help="trials per model")
    p.add_argument(
        "--models",
        nargs="+",
        default=None,
        metavar="MODEL",
        help="restrict the sweep to these fault models",
    )
    p.add_argument(
        "--no-parity",
        action="store_true",
        help="disable TT/BBIT parity words (measure the unhardened path)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="fan cases out across N worker processes",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        help="per-case worker timeout in seconds",
    )
    p.add_argument(
        "--storage",
        action="store_true",
        help="run the storage crash-consistency matrix instead: every "
        "durability surface under crash-at-every-syscall, EIO, ENOSPC "
        "and torn-append faults",
    )
    p.add_argument(
        "--storage-states",
        type=int,
        default=96,
        metavar="N",
        help="cap on enumerated torn-write states per crash point "
        "(deterministically sampled beyond; --storage only)",
    )
    p.add_argument("--json", default="FAULTS_report.json", metavar="PATH")
    p.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless every protected model is fully detected/recovered "
        "(with --storage: unless the crash matrix is violation-free)",
    )
    p.add_argument(
        "--deterministic",
        action="store_true",
        help="zero wall-clock aggregates so identical runs write "
        "byte-identical reports",
    )
    _add_obs_arguments(p)
    p.set_defaults(func=_cmd_faults)

    p = sub.add_parser(
        "experiment",
        help="parameter-sweep grid over workloads (CSV)",
    )
    p.add_argument(
        "--workload",
        action="append",
        default=None,
        metavar="NAME",
        help="workload(s) to sweep (repeatable; default fir)",
    )
    p.add_argument(
        "--block-sizes", type=int, nargs="+", default=[4, 5, 6, 7]
    )
    p.add_argument("--tt-capacities", type=int, nargs="+", default=[16])
    p.add_argument(
        "--strategies",
        nargs="+",
        choices=("greedy", "optimal"),
        default=["greedy"],
    )
    p.add_argument(
        "--csv",
        default=None,
        metavar="PATH",
        help="also write the grid to PATH (atomic)",
    )
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser(
        "verify",
        help="differential verification of every decode path",
    )
    p.add_argument(
        "--cases",
        type=int,
        default=200,
        help="randomised differential cases to run (plus the sweeps)",
    )
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--bias",
        type=float,
        nargs="+",
        default=[0.05, 0.25, 0.5, 0.75, 0.95],
        metavar="P",
        help="stream one-bit probabilities cycled across stream cases",
    )
    p.add_argument(
        "--block-sizes", type=int, nargs="+", default=[2, 3, 4, 5, 6, 7]
    )
    p.add_argument(
        "--no-sweeps",
        action="store_true",
        help="skip the exhaustive codebook/tau/boundary sweeps "
        "(the coverage gate will not be reachable)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="fan case chunks out across N worker processes",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        help="per-chunk worker timeout in seconds",
    )
    p.add_argument(
        "--report",
        default="VERIFY_report.json",
        metavar="PATH",
        help="where to write the verification report",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless zero mismatches and 100%% gated coverage",
    )
    p.add_argument(
        "--inject-mutation",
        dest="mutation",
        default=None,
        metavar="NAME",
        help="arm a named decoder mutation (self-test: the campaign "
        "MUST then report mismatches)",
    )
    p.add_argument(
        "--replay",
        default=None,
        metavar="REPORT",
        help="re-run a counterexample recorded in REPORT instead of "
        "running a campaign (exit 0 if it reproduces, 3 if stale)",
    )
    p.add_argument(
        "--replay-index",
        type=int,
        default=0,
        metavar="I",
        help="which counterexample in the report to replay",
    )
    p.add_argument(
        "--deterministic",
        action="store_true",
        help="zero wall-clock fields so seed-pinned runs write "
        "byte-identical reports",
    )
    p.add_argument(
        "--metrics",
        action="store_true",
        help="run with observability on and write a run report",
    )
    p.add_argument(
        "--run-report",
        default="RUN_report.json",
        metavar="PATH",
        help="where --metrics writes the observability snapshot "
        "(--report is the verification report)",
    )
    p.add_argument(
        "--trace-jsonl",
        default=None,
        metavar="PATH",
        help="also stream one JSON span event per line to PATH",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "serve",
        help="fault-tolerant async encoding service (selftest or batch)",
    )
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--selftest",
        action="store_true",
        help="run the seeded chaos/load harness against a live server",
    )
    mode.add_argument(
        "--jobs",
        default=None,
        metavar="FILE",
        help="serve a batch of job requests from FILE (JSON list or JSONL)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--tenants", type=int, default=6, help="selftest: concurrent tenants"
    )
    p.add_argument(
        "--jobs-per-tenant",
        type=int,
        default=25,
        help="selftest: jobs each tenant submits",
    )
    p.add_argument(
        "--workers", type=int, default=2, help="encoding worker processes"
    )
    p.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        help="admission-control bound; beyond it jobs are shed with "
        "retry-after",
    )
    p.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="selftest chaos models, comma-separated from "
        "kill,slow,malformed (default all; '' disables)",
    )
    p.add_argument(
        "--deadline",
        type=float,
        default=30.0,
        help="default per-job deadline in seconds",
    )
    p.add_argument(
        "--wal",
        default=None,
        metavar="PATH",
        help="journal finished jobs to a JSONL write-ahead log",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="replay the --wal log and serve already-finished jobs from it",
    )
    p.add_argument(
        "--deterministic",
        action="store_true",
        help="zero attempt/latency fields so identical (and resumed) runs "
        "write byte-identical reports",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="warm-start bundle cache directory shared across runs",
    )
    p.add_argument(
        "--report",
        default="SERVE_report.json",
        metavar="PATH",
        help="where to write the serve report",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="exit 1 on selftest problems (or batch jobs ending 'error')",
    )
    p.add_argument(
        "--metrics",
        action="store_true",
        help="run with observability on and write a run report",
    )
    p.add_argument(
        "--run-report",
        default="RUN_report.json",
        metavar="PATH",
        help="where --metrics writes the observability snapshot "
        "(--report is the serve report)",
    )
    p.add_argument(
        "--trace-jsonl",
        default=None,
        metavar="PATH",
        help="also stream one JSON span event per line to PATH",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "metrics", help="metric families from a RUN_report.json"
    )
    p.add_argument(
        "--report",
        default="RUN_report.json",
        metavar="PATH",
        help="run report to read",
    )
    p.add_argument(
        "--json", action="store_true", help="dump the raw metrics object"
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless every expected metric family is present",
    )
    p.add_argument(
        "--expect",
        choices=("encode", "serve", "storage"),
        default="encode",
        help="which family set --check gates on (default: encode)",
    )
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("trace", help="span timings from a RUN_report.json")
    p.add_argument(
        "--report",
        default="RUN_report.json",
        metavar="PATH",
        help="run report to read",
    )
    p.add_argument(
        "--json", action="store_true", help="dump the raw trace object"
    )
    p.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="how many slowest spans to list (0 to skip)",
    )
    p.set_defaults(func=_cmd_trace)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
