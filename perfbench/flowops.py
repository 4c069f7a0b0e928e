"""Seeded inputs, operations and their checks for the two flow workloads.

One operation takes one registry program through the same public entry
points ``repro encode`` uses: build, assemble, simulate, the program's
own result check, the flow (or the per-region selector), bundle JSON
and its sha256.  An operation never raises: every failure is returned
in its :class:`OpResult`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

import repro.sim.cpu as sim_cpu
from repro.pipeline.bundle import EncodingBundle
from repro.pipeline.flow import EncodingFlow
from repro.pipeline.selector import SchemeSelector, SelectorBudget
from repro.workloads import registry

GOLDEN_PATH = Path(__file__).resolve().with_name("golden.json")

#: ``repro encode`` defaults: k=5, 16 TT entries, greedy, and the
#: selector's default budget.
BLOCK_SIZE = 5
TT_ENTRIES = 16
STRATEGY = "greedy"
BUDGET = SelectorBudget(max_table_bits=8192, max_extra_lines=8)

#: Seed 0 reproduces the registry defaults, so its golden values are
#: exactly what ``repro encode <wl>`` prints.
DEFAULT_SEED = 0

FLOW_PROGRAMS = ("mmul", "sor", "ej", "fft", "tri", "lu", "fir", "iir", "conv2d")
SELECT_PROGRAMS = ("fft", "fir", "conv2d")

#: Size choices per seed.  sor and ej move their sweeps in opposite
#: directions (about 17k fetches per sweep each), and fir and iir their
#: samples (about 1k fetches per 8 samples each), so every program's
#: input changes while the pass total stays within about 1%.
SWEEP_OFFSETS = (-1, 0, 1)
TRI_SWEEPS = (19, 20, 21)
SAMPLE_OFFSETS = (-16, -8, 0, 8, 16)
#: fir is the only selector program with a linear size parameter; small
#: steps keep the pass's encoded transitions within about 2%.
SELECT_FIR_SAMPLES = (184, 188, 192, 196, 200)


def _flow_params(sweep: int, tri: int, samples: int) -> dict:
    return {
        "sor": {"sweeps": 6 + sweep},
        "ej": {"sweeps": 6 - sweep},
        "tri": {"sweeps": tri},
        "fir": {"samples": 192 + samples},
        "iir": {"samples": 256 - samples},
    }


def _select_params(samples: int) -> dict:
    return {"fir": {"samples": samples}}


def _programs(names: tuple[str, ...], params: dict) -> list[tuple[str, dict]]:
    return [(name, params.get(name, {})) for name in names]


def flow_inputs(seed: int) -> list[tuple[str, dict]]:
    """(program, build params) for one ``encode_flow`` pass."""
    if seed == DEFAULT_SEED:
        return _programs(FLOW_PROGRAMS, _flow_params(0, 20, 0))
    rng = random.Random(f"encode_flow:{seed}")
    choice = (
        rng.choice(SWEEP_OFFSETS),
        rng.choice(TRI_SWEEPS),
        rng.choice(SAMPLE_OFFSETS),
    )
    return _programs(FLOW_PROGRAMS, _flow_params(*choice))


def select_inputs(seed: int) -> list[tuple[str, dict]]:
    """(program, build params) for one ``select_per_region`` pass."""
    if seed == DEFAULT_SEED:
        return _programs(SELECT_PROGRAMS, _select_params(192))
    rng = random.Random(f"select_per_region:{seed}")
    return _programs(SELECT_PROGRAMS, _select_params(rng.choice(SELECT_FIR_SAMPLES)))


def all_configs(workload: str) -> list[tuple[str, dict]]:
    """Every (program, build params) some seed can produce: the
    configurations ``golden.json`` holds values for."""
    if workload == "encode_flow":
        names = FLOW_PROGRAMS
        choices = [
            _flow_params(*c)
            for c in itertools.product(SWEEP_OFFSETS, TRI_SWEEPS, SAMPLE_OFFSETS)
        ]
    else:
        names = SELECT_PROGRAMS
        choices = [_select_params(s) for s in SELECT_FIR_SAMPLES]
    configs = {
        config_key(name, p): (name, p)
        for params in choices
        for name, p in _programs(names, params)
    }
    return list(configs.values())


def config_key(name: str, params: dict) -> str:
    inner = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
    return f"{name}({inner})"


def load_golden() -> dict:
    """``{workload: {config key: {"sha256", "encoded_transitions"}}}``."""
    return json.loads(GOLDEN_PATH.read_text())["values"]


@dataclass
class OpResult:
    name: str
    params: dict
    wall_s: float
    ok: bool
    fetches: int = 0
    encoded_transitions: int = 0
    sha256: str = ""
    error: str = ""

    @property
    def label(self) -> str:
        return config_key(self.name, self.params)


def _prepare(name: str, params: dict):
    """Build, assemble, simulate and self-check one program."""
    workload = registry.build_workload(name, **params)
    program = workload.assemble()
    cpu, trace = sim_cpu.run_program(program)
    if workload.verify is not None:
        workload.verify(cpu)
    return workload, program, trace


def _encode(name: str, params: dict) -> tuple[int, int, str]:
    """``repro encode <wl>``: (fetches, encoded transitions, sha256)."""
    workload, program, trace = _prepare(name, params)
    flow = EncodingFlow(
        block_size=BLOCK_SIZE, tt_capacity=TT_ENTRIES, strategy=STRATEGY
    )
    result = flow.run(program, trace, name=workload.name)
    if result.selected_blocks and not result.decode_verified:
        raise AssertionError("decode replay did not run")
    bundle_json = EncodingBundle.from_flow_result(program, result).to_json()
    digest = hashlib.sha256(bundle_json.encode()).hexdigest()
    return len(trace), result.encoded_transitions, digest


def _select(name: str, params: dict) -> tuple[int, int, str]:
    """``repro encode <wl> --select-per-region``, including its
    never-worse gate and the bundle JSON round trip."""
    workload, program, trace = _prepare(name, params)
    selector = SchemeSelector(
        block_size=BLOCK_SIZE, tt_capacity=TT_ENTRIES, budget=BUDGET
    )
    result = selector.run(program, trace, name=workload.name)
    schemes = {s for c in result.choices for s in c.candidates}
    best_single = min(
        (result.single_scheme_transitions(s) for s in schemes),
        default=result.baseline_transitions,
    )
    if result.mixed_transitions > best_single:
        raise AssertionError(
            f"mixed {result.mixed_transitions} > best single {best_single}"
        )
    bundle_json = result.bundle.to_json()
    if not EncodingBundle.from_json(bundle_json).deploy_and_check(program, trace):
        raise AssertionError("decode mismatch after bundle round trip")
    digest = hashlib.sha256(bundle_json.encode()).hexdigest()
    return len(trace), result.mixed_transitions, digest


OPERATIONS = {"encode_flow": _encode, "select_per_region": _select}
INPUTS = {"encode_flow": flow_inputs, "select_per_region": select_inputs}
#: The set-up warm-up runs the pass's cheapest program once: it pays
#: the first-use codebook compile.
WARMUP_PROGRAM = {"encode_flow": "conv2d", "select_per_region": "fir"}


def run_op(
    workload: str, name: str, params: dict, golden: dict | None
) -> OpResult:
    """One checked operation.  ``golden`` maps config keys to committed
    values; a config it lacks is held to the independent checks only
    (bit-exact decode replay and the program's own result check)."""
    start = time.perf_counter()
    try:
        fetches, transitions, digest = OPERATIONS[workload](name, params)
    except Exception as err:  # a failed operation is a result, not a crash
        return OpResult(
            name, params, time.perf_counter() - start, False,
            error=f"{type(err).__name__}: {err}",
        )
    wall = time.perf_counter() - start
    result = OpResult(name, params, wall, True, fetches, transitions, digest)
    want = (golden or {}).get(config_key(name, params))
    if want is not None:
        if want["sha256"] != digest:
            result.ok = False
            result.error = f"bundle sha256 {digest} != golden {want['sha256']}"
        elif want["encoded_transitions"] != transitions:
            result.ok = False
            result.error = (
                f"encoded transitions {transitions} != golden "
                f"{want['encoded_transitions']}"
            )
    return result
