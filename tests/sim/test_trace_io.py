"""Tests for fetch-trace persistence."""

import pytest

from repro.sim.cpu import run_program
from repro.sim.trace_io import (
    dump_trace,
    load_trace,
    load_trace_file,
    save_trace_file,
)
from repro.workloads.registry import build_workload


@pytest.fixture(scope="module")
def real_trace():
    workload = build_workload("lu", n=8)
    program = workload.assemble()
    cpu, trace = run_program(program)
    return program, trace


class TestRoundTrip:
    def test_real_trace(self, real_trace):
        program, trace = real_trace
        blob = dump_trace(trace, name="lu", text_base=program.text_base)
        header, loaded = load_trace(blob)
        assert loaded == trace.expand()
        assert header.name == "lu"
        assert header.text_base == program.text_base
        assert header.length == len(trace)

    def test_empty_trace(self):
        header, loaded = load_trace(dump_trace([]))
        assert loaded == []
        assert header.length == 0

    def test_compression_is_effective(self, real_trace):
        program, trace = real_trace
        blob = dump_trace(trace)
        # Sequential-heavy delta streams compress far below 4 B/fetch.
        assert len(blob) < len(trace)

    def test_file_roundtrip(self, tmp_path, real_trace):
        program, trace = real_trace
        path = tmp_path / "lu.trace"
        size = save_trace_file(path, trace, name="lu", text_base=program.text_base)
        assert path.stat().st_size == size
        header, loaded = load_trace_file(path)
        assert loaded == trace.expand()

    def test_analysis_equivalence(self, real_trace):
        # A reloaded trace drives the flow to identical results.
        from repro.pipeline.flow import EncodingFlow

        program, trace = real_trace
        header, loaded = load_trace(
            dump_trace(trace, text_base=program.text_base)
        )
        a = EncodingFlow(block_size=5).run(program, trace, "orig")
        b = EncodingFlow(block_size=5).run(program, loaded, "reloaded")
        assert a.baseline_transitions == b.baseline_transitions
        assert a.encoded_transitions == b.encoded_transitions


class TestValidation:
    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            load_trace(b"XXXX" + b"\x00" * 16)

    def test_unaligned_address_rejected(self):
        with pytest.raises(ValueError, match="unaligned"):
            dump_trace([0x400001])

    def test_truncated_payload(self, real_trace):
        program, trace = real_trace
        blob = dump_trace(trace.expand()[:100])
        import json
        import struct
        import zlib

        # Re-wrap with a lying header length.
        (header_len,) = struct.unpack_from("<I", blob, 4)
        header = json.loads(blob[8 : 8 + header_len].decode())
        header["length"] = 999
        header_bytes = json.dumps(header).encode()
        forged = (
            blob[:4]
            + struct.pack("<I", len(header_bytes))
            + header_bytes
            + blob[8 + header_len :]
        )
        with pytest.raises(ValueError, match="corrupt"):
            load_trace(forged)

    def test_unsupported_version(self):
        import json
        import struct

        header = json.dumps({"version": 99, "name": "x", "text_base": 0, "length": 0}).encode()
        blob = b"RPTR" + struct.pack("<I", len(header)) + header + b""
        with pytest.raises(ValueError, match="version"):
            load_trace(blob)

    def test_negative_deltas_supported(self):
        # Loops jump backwards; deltas must be signed.
        trace = [0x400010, 0x400014, 0x400000, 0x400004]
        header, loaded = load_trace(dump_trace(trace))
        assert loaded == trace
