"""The paper's primary contribution: low-power instruction-stream
transformations.

Submodules:

``boolfunc``
    The sixteen two-input boolean functions, their truth-table algebra
    and the global-inversion duality used in the paper's symmetry
    argument (Section 5.2).
``transformations``
    Named :class:`Transformation` objects, the full 16-function space
    and the paper's optimal 8-function subset.
``bitstream``
    Bit-sequence utilities and transition counting.
``block_solver``
    Per-block optimal code-word + transformation search, both anchored
    (Section 5.1) and overlap-constrained (Section 6).
``codebook``
    Codebook generation reproducing Figures 2 and 4.
``theory``
    TTN/RTN/improvement numbers reproducing Figure 3.
``stream_codec``
    Chained overlapped-block encoding/decoding of arbitrary bit streams
    (Section 6), greedy and globally optimal (DP) variants.
``program_codec``
    Vertical per-bus-line encoding of a basic block's instruction words
    (Section 4, Figure 1).
``fastpath``
    The compiled codebook fast path: memoized block solutions and
    integer bit-parallel stream/program encoding (the production
    encoder).
``bitplane``
    The word-major doubling-scan decoder (the production decoder).
``reference``
    The oracles both are checked against: per-block ``block_solver``
    encoders and the bit-serial decoder.
``analysis``
    Reduction summaries and stream statistics.
"""

from repro.core.boolfunc import BoolFunc, all_functions, dual
from repro.core.transformations import (
    ALL_TRANSFORMATIONS,
    OPTIMAL_SET,
    Transformation,
)
from repro.core.bitstream import count_transitions, word_column
from repro.core.block_solver import BlockSolver, BlockSolution
from repro.core.fastpath import CompiledCodebook, get_codebook
from repro.core.stream_codec import StreamEncoder, encode_stream, decode_stream
from repro.core.program_codec import (
    BlockEncoding,
    encode_basic_block,
    encode_basic_blocks,
)

__all__ = [
    "CompiledCodebook",
    "get_codebook",
    "encode_basic_blocks",
    "BoolFunc",
    "all_functions",
    "dual",
    "ALL_TRANSFORMATIONS",
    "OPTIMAL_SET",
    "Transformation",
    "count_transitions",
    "word_column",
    "BlockSolver",
    "BlockSolution",
    "StreamEncoder",
    "encode_stream",
    "decode_stream",
    "BlockEncoding",
    "encode_basic_block",
]
