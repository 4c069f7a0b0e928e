"""Measure codec throughput: production path vs. reference oracle.

Runs the same suite as ``repro bench`` /
``benchmarks/test_codec_throughput.py``: stream encoding under all
three strategies, vertical basic-block encoding, stream, block and
whole-trace decoding.  Each case times the production path (compiled
codebook encode, bitplane decode) against its oracle in
``repro.core.reference`` (per-block solver, bit-serial decode) and
cross-checks the two for bit-identity before timing.  Writes the
machine-readable report to ``BENCH_codec.json``.

Run:  python examples/codec_throughput.py [--repeats N]
"""

import argparse
from pathlib import Path

from repro.pipeline.benchmark import run_codec_benchmarks


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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
