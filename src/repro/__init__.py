"""Reproduction of *Power Efficiency through Application-Specific
Instruction Memory Transformations* (Petrov & Orailoglu, DATE 2003).

The package is organised as one subpackage per subsystem:

``repro.core``
    The paper's contribution: two-input boolean transformation algebra,
    per-block optimal code-word search, chained overlapped-block stream
    encoding, and the vertical per-bit-line program encoder.
``repro.isa``
    A MIPS-like 32-bit instruction set with a two-pass assembler and a
    disassembler (substitute for the SimpleScalar PISA toolchain).
``repro.sim``
    An in-order functional processor simulator with fetch tracing and a
    bus transition/energy model.
``repro.cfg``
    Control-flow analysis: basic blocks, dominators, natural loops, and
    trace-driven profiling.
``repro.hw``
    Behavioural model of the fetch-side decode hardware (Transformation
    Table, Basic Block Identification Table) and its cost model.
``repro.baselines``
    Bus-encoding baselines from the related work (bus-invert, T0, Gray,
    frequency remapping).
``repro.workloads``
    The paper's six DSP/numerical benchmarks written for our ISA.
``repro.pipeline``
    The end-to-end flow: program -> trace -> hot-spot selection ->
    encoding -> transition measurement -> report.
``repro.obs``
    The shared observability layer: metric families, tracing spans,
    and machine-readable run reports (``RUN_report.json``).
"""

from repro.core.transformations import (
    ALL_TRANSFORMATIONS,
    OPTIMAL_SET,
    Transformation,
)
from repro.core.stream_codec import StreamEncoder, decode_stream, encode_stream
from repro.core.program_codec import encode_basic_block

__version__ = "1.0.0"


_LAZY_EXPORTS = {
    "EncodingFlow": ("repro.pipeline.flow", "EncodingFlow"),
    "FlowResult": ("repro.pipeline.flow", "FlowResult"),
    "RegionalEncodingFlow": ("repro.pipeline.regional", "RegionalEncodingFlow"),
    "EncodingBundle": ("repro.pipeline.bundle", "EncodingBundle"),
    "run_sweep": ("repro.pipeline.experiment", "run_sweep"),
    "compile_kernel": ("repro.minicc", "compile_kernel"),
    "build_workload": ("repro.workloads.registry", "build_workload"),
    "ReproError": ("repro.errors", "ReproError"),
    "CampaignConfig": ("repro.faults", "CampaignConfig"),
    "run_campaign": ("repro.faults", "run_campaign"),
    "FaultCampaignReport": ("repro.faults", "FaultCampaignReport"),
    "OBS": ("repro.obs", "OBS"),
    "MetricsRegistry": ("repro.obs", "MetricsRegistry"),
    "Tracer": ("repro.obs", "Tracer"),
    "RunReport": ("repro.obs.report", "RunReport"),
}


def __getattr__(name: str):
    # The flow layers pull in every subsystem; import them lazily so
    # the core encoding library stays usable on its own.
    try:
        module_name, attr = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)

__all__ = [
    "ALL_TRANSFORMATIONS",
    "OPTIMAL_SET",
    "Transformation",
    "StreamEncoder",
    "encode_stream",
    "decode_stream",
    "encode_basic_block",
    "EncodingFlow",
    "FlowResult",
    "RegionalEncodingFlow",
    "EncodingBundle",
    "run_sweep",
    "compile_kernel",
    "build_workload",
    "ReproError",
    "CampaignConfig",
    "run_campaign",
    "FaultCampaignReport",
    "OBS",
    "MetricsRegistry",
    "Tracer",
    "RunReport",
    "__version__",
]
