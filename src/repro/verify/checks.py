"""Differential checks: the production path against the oracle.

Each check runs one input through the production implementation and
the reference oracle (:mod:`repro.core.reference`) of the same
contract and demands bit-identical agreement:

* stream level — compiled codebook encode vs the per-block
  :class:`BlockSolver` oracle, then bitplane decode vs the bit-serial
  oracle decode (:func:`check_stream`);
* program level — vertical block encode vs the oracle, bitplane vs
  bit-serial block decode, the behavioural :class:`FetchDecoder` in
  strict and recover modes against the golden words, and the
  run-group ``decode_trace`` walk against the per-fetch walk in each
  of those modes (:func:`check_program`);
* table-state level — seeded SEC-DED corruption of live TT/BBIT rows,
  checking each decoder mode's *exact* contractual output: strict
  raises, recover serves the documented pass-through region
  (:func:`check_tables`);
* exhaustive sweeps — every codebook entry for a block size against
  the reference solver plus the bit-serial and bitplane decodes
  (:func:`sweep_codebook`), and every τ selector's bitplane decode and
  hardware :class:`TTEntry` gate model against the bit-serial
  recurrence (:func:`sweep_tau`), in the exhaustive-enumeration spirit
  of the bus-encoding literature.

Checks never raise on divergence — they return a
:class:`CheckResult` whose ``mismatch`` names the first disagreement,
so the campaign can shrink and record it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core import bitplane
from repro.core.block_solver import BlockSolver
from repro.core.bitstream import pack_bits
from repro.core.program_codec import (
    decode_basic_block,
    encode_basic_block,
)
from repro.core.reference import (
    decode_basic_block_reference,
    decode_stream_reference,
    encode_basic_block_reference,
    encode_stream_reference,
)
from repro.core.stream_codec import decode_stream, encode_stream
from repro.core.transformations import OPTIMAL_SET
from repro.errors import ReproError, TableIntegrityError
from repro.hw import integrity
from repro.hw.fetch_decoder import FetchDecoder
from repro.hw.tt import TTEntry
from repro.verify.coverage import codebook_key, tau_key
from repro.verify.generators import Deployment, make_deployment

TABLE_FAULTS = ("none", "single_bit", "double_bit_tt", "double_bit_bbit")


@dataclass
class CheckResult:
    """One differential check's verdict plus its coverage footprint."""

    ok: bool = True
    coverage: dict[str, set] = field(default_factory=dict)
    mismatch: dict | None = None

    def cover(self, dimension: str, key: str) -> None:
        self.coverage.setdefault(dimension, set()).add(key)

    def fail(self, kind: str, **detail) -> "CheckResult":
        if self.ok:
            self.ok = False
            self.mismatch = {"kind": kind, **detail}
        return self

    def coverage_lists(self) -> dict[str, list[str]]:
        """JSON/pickle-friendly form of the coverage footprint."""
        return {dim: sorted(keys) for dim, keys in self.coverage.items()}


# ----------------------------------------------------------------------
# Stream level
# ----------------------------------------------------------------------


def check_stream(stream: list[int], block_size: int, strategy: str) -> CheckResult:
    """Production vs oracle encode, then both decodes, for one stream."""
    result = CheckResult()
    result.cover("block_sizes", f"k={block_size}")
    try:
        fast = encode_stream(stream, block_size, strategy=strategy)
        reference = encode_stream_reference(stream, block_size, strategy=strategy)
    except ReproError as err:
        return result.fail("stream_encode_raised", error=repr(err))
    if fast != reference:
        return result.fail(
            "encode_paths_diverge",
            detail="compiled codebook encoding != reference BlockSolver "
            "encoding for the same stream",
        )
    if decode_stream(fast) != list(stream):
        return result.fail("bitplane_decode_wrong")
    if decode_stream_reference(fast) != list(stream):
        return result.fail("bit_serial_decode_wrong")

    # Coverage footprint: which codebook entries this stream resolved
    # through, which boundary/tail classes it ended on.
    encoded = list(fast.encoded)
    for index, segment in enumerate(fast.segments):
        if segment.length != block_size:
            continue  # only full-width entries are in the gated universe
        word_int = pack_bits(stream[segment.start : segment.end])
        if index == 0 or strategy == "disjoint":
            variant = "anchored"
        else:
            variant = f"constrained{encoded[segment.start]}"
        result.cover(
            "codebook_entries", codebook_key(block_size, variant, word_int)
        )
    if stream and block_size >= 2:
        residue = len(stream) % max(1, block_size - 1)
        result.cover("boundary_residues", f"k={block_size}|mod={residue}")
        if fast.segments:
            tail = fast.segments[-1].length
            result.cover("tail_lengths", f"k={block_size}|tail={tail}")
    return result


# ----------------------------------------------------------------------
# Program level
# ----------------------------------------------------------------------


def _fetch_all(
    decoder: FetchDecoder, deployment: Deployment, which: int
) -> list[int]:
    return [
        decoder.fetch(pc, deployment.image[pc])
        for pc in deployment.trace_for(which)
    ]


def check_program(words: list[int], block_size: int) -> CheckResult:
    """Vertical block encode/decode plus the full hardware fetch path."""
    result = CheckResult()
    result.cover("block_sizes", f"k={block_size}")
    try:
        fast = encode_basic_block(words, block_size)
        reference = encode_basic_block_reference(words, block_size)
    except ReproError as err:
        return result.fail("program_encode_raised", error=repr(err))
    if fast != reference:
        return result.fail("program_encode_paths_diverge")
    if decode_basic_block(fast) != list(words):
        return result.fail("program_bitplane_decode_wrong")
    if decode_basic_block_reference(fast) != list(words):
        return result.fail("program_bit_serial_decode_wrong")

    deployment = make_deployment([list(words)], block_size, parity=True)
    for mode in ("strict", "recover"):
        decoder = FetchDecoder(
            deployment.tt,
            deployment.bbit,
            block_size,
            encoded_region=deployment.encoded_region,
            mode=mode,
        )
        try:
            decoded = _fetch_all(decoder, deployment, 0)
            decoder.finalize()
        except ReproError as err:
            return result.fail(
                "decoder_raised_on_clean_tables", mode=mode, error=repr(err)
            )
        if decoded != list(words):
            return result.fail("decoder_output_wrong", mode=mode)
        if decoder.recovery_events:
            return result.fail("decoder_spurious_recovery", mode=mode)
        result.cover("decoder_transitions", f"clean:{mode}")

    # The decode_trace walk (per distinct run, counters scaled by
    # occurrences) must match the per-fetch walk in every mode, on
    # output, counters and recover-mode events, BBIT probes included,
    # over a trace that revisits the block.
    trace = deployment.trace_for(0) * 2
    bbit = deployment.bbit
    for mode in ("strict", "recover"):
        walks = []
        for bulk in (True, False):
            decoder = FetchDecoder(
                deployment.tt,
                bbit,
                block_size,
                encoded_region=deployment.encoded_region,
                mode=mode,
                golden_lookup=deployment.golden_lookup,
            )
            lookups, hits = bbit.lookups, bbit.hits
            try:
                if bulk:
                    decoded = decoder.decode_trace(
                        trace, deployment.image.__getitem__, finalize=True
                    ).expand()
                else:
                    decoded = [
                        decoder.fetch(pc, deployment.image[pc]) for pc in trace
                    ]
                    decoder.finalize()
            except ReproError as err:
                return result.fail(
                    "decode_trace_raised",
                    mode=mode,
                    bitplane=bulk,
                    error=repr(err),
                )
            walks.append(
                (
                    decoded,
                    decoder.decoded_instructions,
                    decoder.passthrough_instructions,
                    decoder.tt_reads,
                    decoder.recovery_events,
                    decoder.golden_served_instructions,
                    bbit.lookups - lookups,
                    bbit.hits - hits,
                )
            )
        if walks[0][0] != list(words) * 2:
            return result.fail("decode_trace_bitplane_output_wrong", mode=mode)
        if walks[0] != walks[1]:
            return result.fail("decode_trace_paths_diverge", mode=mode)
    return result


# ----------------------------------------------------------------------
# Table-state level
# ----------------------------------------------------------------------


def _corrupt_tt_row(deployment: Deployment, rng: random.Random, bits: int) -> None:
    """Flip ``bits`` distinct bits in block 0's base TT row, leaving
    the stored SEC-DED check word stale (the soft-error model)."""
    tt = deployment.tt
    entry = tt.entries[0]
    width = integrity.tt_row_bits(entry.width)
    data = integrity.tt_row_data(entry.selectors, entry.end, entry.count)
    for position in rng.sample(range(width), bits):
        data ^= 1 << position
    selectors, end, count = integrity.tt_row_fields(data, entry.width)
    tt.entries[0] = TTEntry(selectors=selectors, end=end, count=count)


def _corrupt_bbit_row(deployment: Deployment, rng: random.Random, bits: int) -> None:
    """Flip ``bits`` distinct bits in block 0's BBIT row fields."""
    from repro.hw.bbit import BBITEntry

    bbit = deployment.bbit
    pc = deployment.bases[0]
    entry = bbit._by_pc[pc]
    width = integrity.bbit_row_bits()
    data = integrity.bbit_row_data(
        entry.pc, entry.tt_index, entry.num_instructions
    )
    for position in rng.sample(range(width), bits):
        data ^= 1 << position
    new_pc, tt_index, num_instructions = integrity.bbit_row_fields(data)
    bbit._by_pc[pc] = BBITEntry(
        pc=new_pc, tt_index=tt_index, num_instructions=num_instructions
    )


def check_tables(
    blocks: list[list[int]],
    block_size: int,
    fault: str,
    flip_seed: str,
) -> CheckResult:
    """Seeded table corruption against each decoder mode's contract.

    The *same* corruption (regenerated from ``flip_seed``) is applied
    to a fresh deployment for every mode, so the two fault-handling
    strategies are compared on an identical upset.
    """
    result = CheckResult()
    result.cover("block_sizes", f"k={block_size}")
    if fault not in TABLE_FAULTS:
        return result.fail("unknown_table_fault", fault=fault)
    event = {
        "none": "clean",
        "single_bit": "corrected",
        "double_bit_tt": "tt_uncorrectable",
        "double_bit_bbit": "bbit_uncorrectable",
    }[fault]

    for mode in ("strict", "recover"):
        deployment = make_deployment(
            [list(words) for words in blocks], block_size, parity=True
        )
        rng = random.Random(flip_seed)
        if fault == "single_bit":
            _corrupt_tt_row(deployment, rng, 1)
        elif fault == "double_bit_tt":
            _corrupt_tt_row(deployment, rng, 2)
        elif fault == "double_bit_bbit":
            _corrupt_bbit_row(deployment, rng, 2)
        decoder = FetchDecoder(
            deployment.tt,
            deployment.bbit,
            block_size,
            encoded_region=deployment.encoded_region,
            mode=mode,
        )

        decoded: list[list[int] | None] = []
        raised: ReproError | None = None
        for which in range(len(blocks)):
            try:
                decoded.append(_fetch_all(decoder, deployment, which))
            except TableIntegrityError as err:
                decoded.append(None)
                raised = err
                break
            except ReproError as err:
                return result.fail(
                    "decoder_unexpected_error", mode=mode, error=repr(err)
                )

        uncorrectable = fault in ("double_bit_tt", "double_bit_bbit")
        if mode == "strict":
            if uncorrectable and raised is None:
                return result.fail(
                    "strict_missed_uncorrectable", fault=fault
                )
            if not uncorrectable:
                if raised is not None:
                    return result.fail(
                        "strict_raised_on_correctable",
                        fault=fault,
                        error=repr(raised),
                    )
                if decoded != [deployment.golden_words(w) for w in range(len(blocks))]:
                    return result.fail("strict_output_wrong", fault=fault)
        else:
            if raised is not None:
                return result.fail(
                    f"{mode}_mode_raised", fault=fault, error=repr(raised)
                )
            for which in range(len(blocks)):
                golden = deployment.golden_words(which)
                if not uncorrectable or which != 0:
                    expected = golden
                elif fault == "double_bit_bbit":
                    # Recover mode passes the whole faulted block
                    # through raw: its stored (encoded) words.
                    expected = deployment.stored_words(0)
                else:
                    # TT fault fires on instruction 1 (the first read
                    # of the corrupted base row): the anchor decoded
                    # fine, the rest of the block passes through raw.
                    expected = [golden[0]] + deployment.stored_words(0)[1:]
                if decoded[which] != expected:
                    return result.fail(
                        f"{mode}_output_violates_contract",
                        fault=fault,
                        block=which,
                    )
            if uncorrectable and not decoder.recovery_events:
                return result.fail("recover_event_missing", fault=fault)
        if fault == "single_bit":
            corrections = (
                deployment.tt.ecc_corrections + deployment.bbit.ecc_corrections
            )
            if corrections == 0:
                return result.fail("secded_correction_missing", mode=mode)
        result.cover("decoder_transitions", f"{event}:{mode}")
    return result


# ----------------------------------------------------------------------
# Exhaustive sweeps
# ----------------------------------------------------------------------


def _decode_code_bits(code: list[int], tau, history: int | None) -> list[int]:
    """Bit-serial reference decode of one block code word.

    ``history=None`` is the anchored protocol (first decoded bit is
    the stored bit itself); otherwise the first decoded bit is the
    overlap history already produced by the previous block.
    """
    decoded = [code[0] if history is None else history]
    for position in range(1, len(code)):
        decoded.append(tau(code[position], decoded[position - 1]))
    return decoded


def sweep_codebook(block_size: int) -> CheckResult:
    """Every full-width block word through every codebook variant,
    against the reference solver and both decode directions
    (bit-serial, bitplane scan)."""
    from repro.core.fastpath import get_codebook

    result = CheckResult()
    result.cover("block_sizes", f"k={block_size}")
    book = get_codebook(block_size)
    solver = BlockSolver(OPTIMAL_SET)
    for word_int in range(1 << block_size):
        word = [(word_int >> i) & 1 for i in range(block_size)]
        lookups = [("anchored", book.anchored[block_size][word_int], None)]
        for fixed in (0, 1):
            lookups.append(
                (
                    f"constrained{fixed}",
                    book.constrained[block_size][fixed][word_int],
                    fixed,
                )
            )
        for variant, entry, fixed in lookups:
            if fixed is None:
                solution = solver.solve_anchored(word)
            else:
                solution = solver.solve_constrained(word, fixed)
            if entry is None:
                return result.fail(
                    "codebook_entry_missing",
                    k=block_size,
                    variant=variant,
                    word=word_int,
                )
            code_int, tau, cost = entry
            if (
                code_int != pack_bits(list(solution.code))
                or tau != solution.transformation
                or cost != solution.encoded_transitions
            ):
                return result.fail(
                    "codebook_entry_diverges",
                    k=block_size,
                    variant=variant,
                    word=word_int,
                )
            code = [(code_int >> i) & 1 for i in range(block_size)]
            if fixed is not None and code[0] != fixed:
                return result.fail(
                    "codebook_fixed_bit_violated",
                    k=block_size,
                    variant=variant,
                    word=word_int,
                )
            history = None if fixed is None else word[0]
            if _decode_code_bits(code, tau, history) != word:
                return result.fail(
                    "codebook_bit_serial_roundtrip_wrong",
                    k=block_size,
                    variant=variant,
                    word=word_int,
                )
            first_decoded = code[0] if fixed is None else word[0]
            # Bitplane scan leg: the anchor position reproduces the
            # first decoded bit verbatim, so seeding it with the
            # overlap history models the constrained protocol exactly.
            scan_code = (code_int & ~1) | first_decoded
            scanned = bitplane.decode_plan_bitplane(
                scan_code, block_size, ((0, block_size),), (tau,)
            )
            if scanned != word_int:
                return result.fail(
                    "codebook_bitplane_roundtrip_wrong",
                    k=block_size,
                    variant=variant,
                    word=word_int,
                )
            result.cover(
                "codebook_entries",
                codebook_key(block_size, variant, word_int),
            )
    return result


def sweep_tau(block_size: int) -> CheckResult:
    """Every τ selector's decode, exhaustively, through every layer:
    the bitplane doubling scan vs the bit-serial recurrence for every
    (history, stored suffix), and the hardware :class:`TTEntry` masked
    gate model vs per-line function application on seeded words."""
    result = CheckResult()
    result.cover("block_sizes", f"k={block_size}")
    for transformation in OPTIMAL_SET:
        selector = transformation.selector
        func = transformation.func
        for suffix_len in range(1, block_size):
            for history in (0, 1):
                for stored in range(1 << suffix_len):
                    h, expected = history, 0
                    for i in range(suffix_len):
                        h = func((stored >> i) & 1, h)
                        expected |= h << i
                    scanned = bitplane.decode_plan_bitplane(
                        (stored << 1) | history,
                        suffix_len + 1,
                        ((0, suffix_len + 1),),
                        (transformation,),
                    )
                    if scanned != (expected << 1) | history:
                        return result.fail(
                            "bitplane_scan_diverges",
                            k=block_size,
                            selector=selector,
                            suffix_len=suffix_len,
                            history=history,
                            stored=stored,
                        )
        # Hardware gate model: a TT entry applying this τ on all lines.
        entry = TTEntry(selectors=(selector,) * 32)
        rng = random.Random(f"tau:{block_size}:{selector}")
        for _ in range(16):
            stored_word = rng.getrandbits(32)
            previous = rng.getrandbits(32)
            expected = 0
            for line in range(32):
                expected |= (
                    func((stored_word >> line) & 1, (previous >> line) & 1)
                    << line
                )
            if entry.decode(stored_word, previous) != expected:
                return result.fail(
                    "tt_entry_decode_diverges",
                    k=block_size,
                    selector=selector,
                )
        result.cover("tau_selectors", tau_key(block_size, selector))
    return result


def sweep_boundary(block_size: int) -> CheckResult:
    """Deterministic boundary/tail classes: one stream per length in
    ``1..3k`` so every tail length and every length-mod-(k-1) residue
    is exercised regardless of what the random cases draw."""
    result = CheckResult()
    for length in range(1, 3 * block_size + 1):
        rng = random.Random(f"boundary:{block_size}:{length}")
        for stream in (
            [(i ^ (i >> 1)) & 1 for i in range(length)],
            [rng.randint(0, 1) for _ in range(length)],
        ):
            sub = check_stream(stream, block_size, "greedy")
            for dimension, keys in sub.coverage.items():
                for key in keys:
                    result.cover(dimension, key)
            if not sub.ok:
                return result.fail(
                    "boundary_stream_diverges",
                    k=block_size,
                    length=length,
                    inner=sub.mismatch,
                )
    return result


# ----------------------------------------------------------------------
# Encoder zoo (every registered Encoder backend)
# ----------------------------------------------------------------------


def check_encoders(words: list[int], schemes: tuple[str, ...] | None = None) -> CheckResult:
    """Differential check of every registered encoder backend on one
    word stream: fitted-encoder roundtrip (decode(encode(w)) == w),
    fast transition count vs the scheme's independent reference
    counter, config-digest determinism, config round-trip through the
    bundle serialisation form, and — for deployable recoders — the
    per-word path against the stream path."""
    from repro.baselines.protocol import (
        encoder_from_config,
        make_encoder,
        reference_transitions,
        registered_schemes,
    )

    result = CheckResult()
    mask = (1 << 32) - 1
    expected = [w & mask for w in words]
    for scheme in schemes if schemes is not None else registered_schemes():
        result.cover("encoder_schemes", scheme)
        encoder = make_encoder(scheme).fit(words)
        stream = encoder.encode(words)
        decoded = encoder.decode(stream)
        if decoded != expected:
            return result.fail(
                "encoder_roundtrip",
                scheme=scheme,
                first_bad=next(
                    i for i, (a, b) in enumerate(zip(decoded, expected)) if a != b
                )
                if len(decoded) == len(expected)
                else -1,
            )
        fast = stream.transitions()
        reference = reference_transitions(encoder, words)
        if fast != reference:
            return result.fail(
                "encoder_transition_count",
                scheme=scheme,
                fast=fast,
                reference=reference,
            )
        if encoder.transitions(words) != fast:
            return result.fail("encoder_transitions_api", scheme=scheme)
        refit = make_encoder(scheme).fit(words)
        if refit.config_digest() != encoder.config_digest():
            return result.fail("encoder_digest_unstable", scheme=scheme)
        rebuilt = encoder_from_config(scheme, encoder.to_config())
        if rebuilt.encode(words).driven != stream.driven:
            return result.fail("encoder_config_roundtrip", scheme=scheme)
        if rebuilt.config_digest() != encoder.config_digest():
            return result.fail("encoder_config_digest", scheme=scheme)
        if encoder.deployable:
            per_word = [encoder.encode_word(w) for w in words]
            if per_word != stream.driven:
                return result.fail("encoder_word_vs_stream", scheme=scheme)
            if [encoder.decode_word(w) for w in per_word] != expected:
                return result.fail("encoder_word_roundtrip", scheme=scheme)
    return result


def sweep_encoder_tables(schemes: tuple[str, ...] | None = None) -> CheckResult:
    """Deterministic exhaustive half for the encoder zoo.

    * every backend: roundtrip + differential count over canonical
      streams (hot-loop-like small alphabets, uniform words and
      sequential fetch addresses);
    * memoryless: a fitted 4-line sub-bus maps all 16 values
      bijectively, and the exact assignment matches brute force over
      all injective placements on a canonical narrow profile;
    * low-weight: every codeword obeys the weight bound, the
      per-position tables stay injective (unique decodability), and a
      transfer never toggles more than ``chunks * max_weight`` lines.
    """
    from itertools import permutations

    from repro.baselines.lowweight import (
        CODEWORDS,
        MAX_CODEWORD_WEIGHT,
        LowWeightCodeEncoder,
    )
    from repro.baselines.memoryless import MemorylessCodebookEncoder
    from repro.core.transitions import per_transfer_transitions, word_transitions

    result = CheckResult()

    # --- every backend over canonical streams -------------------------
    rng = random.Random("encoder-sweep")
    alphabet = [rng.getrandbits(32) for _ in range(5)]
    canonical = [
        [rng.choice(alphabet) for _ in range(64)],
        [rng.getrandbits(32) for _ in range(48)],
        [0xDEADBEEF] * 8 + [0x00FF00FF, 0xFF00FF00] * 4,
        [],
        [0x12345678],
        # Fetch addresses: two sequential runs split by a branch.
        [0x400000 + 4 * i for i in range(16)] + [0x400100 + 4 * i for i in range(8)],
    ]
    for words in canonical:
        sub = check_encoders(words, schemes=schemes)
        for dimension, keys in sub.coverage.items():
            for key in keys:
                result.cover(dimension, key)
        if not sub.ok:
            return result.fail(
                "encoder_canonical_stream", inner=sub.mismatch
            )

    # --- memoryless: bijectivity + exact-assignment optimality --------
    narrow = MemorylessCodebookEncoder(width=4, subbus_width=4)
    profile = [1, 9, 1, 9, 1, 4, 1, 9, 4, 9]  # 3 distinct values
    narrow.fit(profile)
    table = narrow.to_config()["maps"][0]
    if sorted(table) != list(range(16)):
        return result.fail("memoryless_not_bijective", table=table)
    achieved = narrow.transitions(profile)
    mapped_all = {v for v in profile}
    best = min(
        word_transitions([dict(zip(sorted(mapped_all), perm))[v] for v in profile])
        for perm in permutations(range(16), len(mapped_all))
    )
    if achieved != best:
        return result.fail(
            "memoryless_not_optimal", achieved=achieved, optimal=best
        )
    for value in range(16):
        if narrow.decode_word(narrow.encode_word(value)) != value:
            return result.fail("memoryless_inverse_broken", value=value)

    # --- low-weight: weight bound + unique decodability ---------------
    lw = LowWeightCodeEncoder()
    lw.fit([rng.getrandbits(32) for _ in range(64)])
    tables = lw.to_config()["tables"]
    if len(set(CODEWORDS)) != len(CODEWORDS):
        return result.fail("lowweight_codewords_duplicate")
    for pos, tbl in enumerate(tables):
        if len(set(tbl)) != len(tbl):
            return result.fail("lowweight_table_not_injective", position=pos)
        for value, code in enumerate(tbl):
            if code.bit_count() > MAX_CODEWORD_WEIGHT:
                return result.fail(
                    "lowweight_weight_bound",
                    position=pos,
                    value=value,
                    codeword=code,
                )
    probe = [rng.getrandbits(32) for _ in range(32)]
    per = per_transfer_transitions(lw.encode(probe).driven)
    if any(p > lw.max_weight_per_transfer for p in per):
        return result.fail(
            "lowweight_transfer_bound", worst=max(per)
        )
    if lw.decode(lw.encode(probe)) != probe:
        return result.fail("lowweight_sweep_roundtrip")
    return result
