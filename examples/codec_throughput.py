"""Measure codec throughput: production path vs. reference oracle.

Runs the same suite as ``repro bench`` /
``benchmarks/test_codec_throughput.py``: stream encoding under all
three strategies, vertical basic-block encoding, stream, block and
whole-trace decoding.  Each case times the production path (compiled
codebook encode, bitplane decode) against its oracle in
``repro.core.reference`` (per-block solver, bit-serial decode) and
cross-checks the two for bit-identity before timing.  Writes the
machine-readable report to ``BENCH_codec.json``.

Run:  python examples/codec_throughput.py [--repeats N] [--whole-program]

``--whole-program`` additionally times a whole-program encode (the
mmul workload).
"""

import argparse
from pathlib import Path

from repro.pipeline.benchmark import (
    run_codec_benchmarks,
    workload_encode_benchmark,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--stream-length", type=int, default=5000)
    parser.add_argument("--words", type=int, default=64)
    parser.add_argument("-k", "--block-size", type=int, default=5)
    parser.add_argument(
        "--json",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_codec.json"),
    )
    parser.add_argument(
        "--whole-program",
        action="store_true",
        help="also time a whole-program encode of the mmul workload",
    )
    args = parser.parse_args()

    report = run_codec_benchmarks(
        stream_length=args.stream_length,
        num_words=args.words,
        block_size=args.block_size,
        repeats=args.repeats,
    )
    print(report.format_table())
    path = report.write(args.json)
    print(f"\nwrote {path}")

    if args.whole_program:
        timing = workload_encode_benchmark(block_size=args.block_size)
        print(f"\nwhole-program encode (mmul): {timing['serial_seconds']:.3f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
