"""Firmware bundles: the deployable artefact of the flow.

The paper's deployment story (Section 7.1): the *encoded* program
image goes to the instruction memory, and the transformation
information goes to the processor "either when loading the program or
by software prior to entering the application hot spot".  A
:class:`EncodingBundle` captures exactly that shippable pair —
encoded words plus TT/BBIT programming — as JSON, with integrity
checksums, so a build machine can encode once and a loader (or the
generated software-reload prologue) can apply it later.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.program_codec import BlockEncoding
from repro.errors import BundleFormatError
from repro.hw.bbit import BasicBlockIdentificationTable, BBITEntry
from repro.hw.tt import TransformationTable, TTEntry, plain_selectors, tt_rows
from repro.obs import OBS

FORMAT_VERSION = 1

_NUM_SELECTORS = 8  # 3-bit selector space, fixed by OPTIMAL_SET


def _require(condition: bool, message: str) -> None:
    """Raise ``message`` unless ``condition`` holds.  For constant
    messages only: an f-string argument is formatted on every call,
    passing or not, so checks with formatted messages raise inline."""
    if not condition:
        raise BundleFormatError(message)


def _int_field(mapping: dict, key: str, where: str) -> int:
    try:
        value = mapping[key]
    except (KeyError, TypeError):
        raise BundleFormatError(f"{where}: missing field {key!r}") from None
    if isinstance(value, bool) or not isinstance(value, int):
        raise BundleFormatError(
            f"{where}: field {key!r} must be an integer, got "
            f"{type(value).__name__}"
        )
    return value


def _digest(words: Sequence[int]) -> str:
    """sha256 of the words as little-endian 32-bit values."""
    return hashlib.sha256(struct.pack(f"<{len(words)}I", *words)).hexdigest()


def table_programming(
    encodings: Iterable[tuple[int, BlockEncoding]], tt_base: int = 0
) -> tuple[list[dict], list[dict]]:
    """The bundle's TT and BBIT entries for ``(block start, encoding)``
    pairs, the first block's rows landing at TT index ``tt_base``."""
    tt_entries: list[dict] = []
    bbit_entries: list[dict] = []
    for start, encoding in encodings:
        bbit_entries.append(
            {
                "pc": start,
                "tt_index": tt_base + len(tt_entries),
                "num_instructions": len(encoding),
            }
        )
        tt_entries.extend(
            {"selectors": list(row.selectors), "end": row.end, "count": row.count}
            for row in tt_rows(encoding)
        )
    return tt_entries, bbit_entries


@dataclass
class EncodingBundle:
    """Everything a loader needs to deploy one encoded program."""

    name: str
    block_size: int
    text_base: int
    encoded_words: list[int]
    original_digest: str  # sha256 of the pre-encoding image
    tt_entries: list[dict] = field(default_factory=list)
    bbit_entries: list[dict] = field(default_factory=list)
    #: Mixed-scheme metadata from the per-region selector (optional —
    #: absent/empty for classic single-scheme bundles, keeping the
    #: format backward compatible).  One entry per hot region:
    #: ``{"header": pc, "scheme": tag, "config": {...},
    #: "config_digest": sha256, "blocks": [{"pc", "num_instructions"}]}``.
    #: ``scheme`` is ``"ttbbit"`` (table path), ``"raw"`` (left
    #: unencoded), or a registered encoder-zoo scheme whose ``config``
    #: rebuilds the fitted encoder.
    regions: list[dict] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_flow_result(cls, program, result) -> "EncodingBundle":
        """Build a bundle from a :class:`~repro.pipeline.flow.FlowResult`:
        its encoded image plus the table programming of the very
        encodings the flow patched into that image.

        Raises :class:`~repro.errors.EncodingError` for a result the
        TT/BBIT hardware cannot decode (disjoint segments, or a
        transformation outside the optimal 8-set)."""
        with OBS.tracer.span(
            "bundle.build",
            workload=result.name,
            blocks=len(result.encodings),
        ):
            tt_entries, bbit_entries = table_programming(result.encodings)
            bundle = cls(
                name=result.name,
                block_size=result.block_size,
                text_base=program.text_base,
                encoded_words=list(result.encoded_image),
                original_digest=_digest(program.words),
                tt_entries=tt_entries,
                bbit_entries=bbit_entries,
            )
        if OBS.enabled:
            OBS.registry.counter(
                "bundle.builds", "firmware bundles materialised", workload=result.name
            ).inc()
        return bundle

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "format_version": FORMAT_VERSION,
            "name": self.name,
            "block_size": self.block_size,
            "text_base": self.text_base,
            "original_digest": self.original_digest,
            "encoded_digest": _digest(self.encoded_words),
            "encoded_words": [f"{w:08x}" for w in self.encoded_words],
            "tt": self.tt_entries,
            "bbit": self.bbit_entries,
        }
        if self.regions:
            payload["regions"] = self.regions
        return json.dumps(payload, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "EncodingBundle":
        """Parse and fully validate a serialised bundle.

        Every failure — truncated or garbled JSON, a wrong field type,
        a digest mismatch, a dangling BBIT->TT reference — raises
        :class:`~repro.errors.BundleFormatError` naming the offending
        field, *before* anything could be installed into hardware
        tables."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise BundleFormatError(
                f"bundle is not valid JSON: {err}"
            ) from err
        _require(isinstance(data, dict), "bundle JSON root must be an object")
        if data.get("format_version") != FORMAT_VERSION:
            raise BundleFormatError(
                f"unsupported bundle format {data.get('format_version')!r}"
            )
        for key in (
            "name",
            "block_size",
            "text_base",
            "original_digest",
            "encoded_digest",
            "encoded_words",
            "tt",
            "bbit",
        ):
            _require(key in data, f"bundle missing required field {key!r}")
        raw_words = data["encoded_words"]
        _require(
            isinstance(raw_words, list),
            "field 'encoded_words' must be a list of 8-digit hex strings",
        )
        words = []
        for i, raw in enumerate(raw_words):
            try:
                word = int(raw, 16)
            except (TypeError, ValueError):
                raise BundleFormatError(
                    f"encoded_words[{i}]: {raw!r} is not a hex word"
                ) from None
            if not 0 <= word < 1 << 32:
                raise BundleFormatError(
                    f"encoded_words[{i}]: {raw!r} does not fit in 32 bits"
                )
            words.append(word)
        _require(
            isinstance(data["encoded_digest"], str),
            "field 'encoded_digest' must be a hex string",
        )
        if _digest(words) != data["encoded_digest"]:
            raise BundleFormatError(
                "bundle corrupt: encoded image digest mismatch"
            )
        _require(
            isinstance(data["original_digest"], str)
            and len(data["original_digest"]) == 64,
            "field 'original_digest' must be a sha256 hex string",
        )
        _require(isinstance(data["name"], str), "field 'name' must be a string")
        _require(
            isinstance(data["tt"], list), "field 'tt' must be a list of entries"
        )
        _require(
            isinstance(data["bbit"], list),
            "field 'bbit' must be a list of entries",
        )
        regions = data.get("regions", [])
        _require(
            isinstance(regions, list),
            "field 'regions' must be a list of region entries",
        )
        bundle = cls(
            name=data["name"],
            block_size=data["block_size"],
            text_base=data["text_base"],
            encoded_words=words,
            original_digest=data["original_digest"],
            tt_entries=data["tt"],
            bbit_entries=data["bbit"],
            regions=regions,
        )
        bundle.validate()
        return bundle

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def segments_for(self, num_instructions: int) -> int:
        """TT entries one basic block of that length walks through
        (position ``i >= 1`` reads segment ``(i - 1) // (k - 1)``)."""
        if num_instructions <= 1:
            return 1
        return (num_instructions - 2) // (self.block_size - 1) + 1

    def validate(self) -> None:
        """Structural validation of the deployable pair: field types
        and ranges, TT selector ranges, BBIT word ranges against the
        image, and every BBIT->TT cross-reference (no dangling base
        index, the walk must terminate on an E-bit entry)."""
        with OBS.tracer.span("bundle.validate", workload=self.name):
            self._validate()
        if OBS.enabled:
            OBS.registry.counter(
                "bundle.validations", "bundle structural validations passed"
            ).inc()

    def _validate(self) -> None:
        # Every check raises inline, so a message is formatted only
        # for the check that fails.
        if not (
            isinstance(self.block_size, int)
            and not isinstance(self.block_size, bool)
            and self.block_size >= 2
        ):
            raise BundleFormatError(
                f"block_size must be an integer >= 2, got {self.block_size!r}"
            )
        if not (
            isinstance(self.text_base, int)
            and not isinstance(self.text_base, bool)
            and self.text_base >= 0
            and self.text_base % 4 == 0
        ):
            raise BundleFormatError(
                f"text_base must be a non-negative word-aligned address, "
                f"got {self.text_base!r}"
            )
        width = None
        for i, entry in enumerate(self.tt_entries):
            where = f"tt[{i}]"
            if not isinstance(entry, dict):
                raise BundleFormatError(f"{where}: entry must be an object")
            selectors = entry.get("selectors")
            if not (isinstance(selectors, list) and selectors):
                raise BundleFormatError(
                    f"{where}: 'selectors' must be a non-empty list"
                )
            if not plain_selectors(selectors):
                # Name the first offending line; an int subclass passes.
                for line, selector in enumerate(selectors):
                    if not (
                        isinstance(selector, int)
                        and not isinstance(selector, bool)
                        and 0 <= selector < _NUM_SELECTORS
                    ):
                        raise BundleFormatError(
                            f"{where}: selector for line {line} out of range "
                            f"0..{_NUM_SELECTORS - 1}: {selector!r}"
                        )
            if width is None:
                width = len(selectors)
            elif len(selectors) != width:
                raise BundleFormatError(
                    f"{where}: width {len(selectors)} != first entry's {width}"
                )
            if not isinstance(entry.get("end"), bool):
                raise BundleFormatError(f"{where}: 'end' must be a boolean")
            count = _int_field(entry, "count", where)
            if count < 0:
                raise BundleFormatError(
                    f"{where}: 'count' must be >= 0, got {count}"
                )
        image_end = self.text_base + 4 * len(self.encoded_words)
        seen_pcs: set[int] = set()
        for i, entry in enumerate(self.bbit_entries):
            where = f"bbit[{i}]"
            if not isinstance(entry, dict):
                raise BundleFormatError(f"{where}: entry must be an object")
            pc = _int_field(entry, "pc", where)
            tt_index = _int_field(entry, "tt_index", where)
            num_instructions = _int_field(entry, "num_instructions", where)
            if pc % 4:
                raise BundleFormatError(
                    f"{where}: pc {pc:#x} is not word-aligned"
                )
            if pc in seen_pcs:
                raise BundleFormatError(
                    f"{where}: duplicate entry for pc {pc:#x}"
                )
            seen_pcs.add(pc)
            if num_instructions < 1:
                raise BundleFormatError(
                    f"{where}: num_instructions must be >= 1, "
                    f"got {num_instructions}"
                )
            if not (
                self.text_base <= pc
                and pc + 4 * num_instructions <= image_end
            ):
                raise BundleFormatError(
                    f"{where}: block [{pc:#x}, {pc + 4 * num_instructions:#x}) "
                    f"falls outside the image "
                    f"[{self.text_base:#x}, {image_end:#x})"
                )
            segments = self.segments_for(num_instructions)
            if not (
                0 <= tt_index
                and tt_index + segments <= len(self.tt_entries)
            ):
                raise BundleFormatError(
                    f"{where}: dangling BBIT->TT reference: needs TT entries "
                    f"[{tt_index}, {tt_index + segments}) but the bundle has "
                    f"{len(self.tt_entries)}"
                )
            if not self.tt_entries[tt_index + segments - 1].get("end"):
                raise BundleFormatError(
                    f"{where}: TT walk from {tt_index} over {segments} "
                    "segment(s) does not terminate on an E-bit entry"
                )
        self._validate_regions(image_end)

    def _validate_regions(self, image_end: int) -> None:
        """Validate the optional mixed-scheme region metadata: every
        tag must name the table path, ``raw``, or a registered encoder
        backend whose declared ``config_digest`` matches the digest
        recomputed from the shipped config (so a tampered codebook is
        caught at load time, before the decoder trusts it)."""
        if not self.regions:
            return
        from repro.baselines.protocol import ENCODER_REGISTRY, encoder_from_config

        seen_pcs: set[int] = set()
        for i, region in enumerate(self.regions):
            where = f"regions[{i}]"
            if not isinstance(region, dict):
                raise BundleFormatError(f"{where}: entry must be an object")
            header = _int_field(region, "header", where)
            if header % 4:
                raise BundleFormatError(
                    f"{where}: header {header:#x} is not word-aligned"
                )
            scheme = region.get("scheme")
            if not (isinstance(scheme, str) and scheme):
                raise BundleFormatError(
                    f"{where}: 'scheme' must be a non-empty string"
                )
            blocks = region.get("blocks")
            if not (isinstance(blocks, list) and blocks):
                raise BundleFormatError(
                    f"{where}: 'blocks' must be a non-empty list"
                )
            for j, block in enumerate(blocks):
                bwhere = f"{where}.blocks[{j}]"
                if not isinstance(block, dict):
                    raise BundleFormatError(
                        f"{bwhere}: entry must be an object"
                    )
                pc = _int_field(block, "pc", bwhere)
                count = _int_field(block, "num_instructions", bwhere)
                if pc % 4:
                    raise BundleFormatError(
                        f"{bwhere}: pc {pc:#x} is not word-aligned"
                    )
                if count < 1:
                    raise BundleFormatError(
                        f"{bwhere}: num_instructions must be >= 1, got {count}"
                    )
                if not (self.text_base <= pc and pc + 4 * count <= image_end):
                    raise BundleFormatError(
                        f"{bwhere}: block [{pc:#x}, {pc + 4 * count:#x}) falls "
                        f"outside the image [{self.text_base:#x}, {image_end:#x})"
                    )
                addrs = range(pc, pc + 4 * count, 4)
                if not seen_pcs.isdisjoint(addrs):
                    addr = next(a for a in addrs if a in seen_pcs)
                    raise BundleFormatError(
                        f"{bwhere}: address {addr:#x} tagged by two regions"
                    )
                seen_pcs.update(addrs)
            if scheme in ("ttbbit", "raw"):
                continue
            if scheme not in ENCODER_REGISTRY:
                raise BundleFormatError(
                    f"{where}: unknown scheme tag {scheme!r}"
                )
            config = region.get("config")
            if not isinstance(config, dict):
                raise BundleFormatError(
                    f"{where}: scheme {scheme!r} needs a 'config' object"
                )
            declared = region.get("config_digest")
            if not (isinstance(declared, str) and len(declared) == 64):
                raise BundleFormatError(
                    f"{where}: 'config_digest' must be a sha256 hex string"
                )
            try:
                encoder = encoder_from_config(scheme, config)
            except Exception as err:
                raise BundleFormatError(
                    f"{where}: config for scheme {scheme!r} does not "
                    f"rebuild: {err}"
                ) from err
            if encoder.config_digest() != declared:
                raise BundleFormatError(
                    f"{where}: config digest mismatch for scheme {scheme!r}"
                )

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------

    def build_tables(
        self,
        tt_capacity: int = 16,
        bbit_capacity: int = 16,
        parity: bool = False,
    ) -> tuple[TransformationTable, BasicBlockIdentificationTable]:
        """Materialise hardware tables from the bundle (the "load with
        the program" alternative of Section 7.1).  The bundle is fully
        re-validated first, so nothing is installed from a malformed
        bundle; ``parity=True`` arms the tables' per-row parity words."""
        self.validate()
        tt = TransformationTable(
            max(tt_capacity, len(self.tt_entries)), parity=parity
        )
        for entry in self.tt_entries:
            tt.install(
                TTEntry(
                    selectors=tuple(entry["selectors"]),
                    end=bool(entry["end"]),
                    count=int(entry["count"]),
                )
            )
        bbit = BasicBlockIdentificationTable(
            max(bbit_capacity, len(self.bbit_entries) or 1), parity=parity
        )
        for entry in self.bbit_entries:
            bbit.install(
                BBITEntry(
                    pc=int(entry["pc"]),
                    tt_index=int(entry["tt_index"]),
                    num_instructions=int(entry["num_instructions"]),
                )
            )
        return tt, bbit

    def encoded_pc_region(self) -> set[int]:
        """Addresses covered by encoded basic blocks (for the
        decoder's mid-block-entry protocol check)."""
        region: set[int] = set()
        for entry in self.bbit_entries:
            pc = int(entry["pc"])
            region.update(
                range(pc, pc + 4 * int(entry["num_instructions"]), 4)
            )
        return region

    def region_scheme_map(self) -> dict[int, str]:
        """``pc -> scheme tag`` for every address inside a tagged
        region (empty for classic single-scheme bundles)."""
        schemes: dict[int, str] = {}
        for region in self.regions:
            tag = str(region["scheme"])
            for block in region["blocks"]:
                pc = int(block["pc"])
                count = int(block["num_instructions"])
                for addr in range(pc, pc + 4 * count, 4):
                    schemes[addr] = tag
        return schemes

    def scheme_word_decoders(self) -> dict[str, object]:
        """Per-word decode callables for the fetch path, rebuilt from
        each region's shipped encoder config.  Deployable recoders map
        to their ``decode_word``; bus codecs (and ``raw`` regions) map
        to ``None`` — their stored words pass through unchanged."""
        from repro.baselines.protocol import encoder_from_config

        decoders: dict[str, object] = {}
        for region in self.regions:
            tag = str(region["scheme"])
            if tag in decoders or tag == "ttbbit":
                continue
            if tag == "raw":
                decoders[tag] = None
                continue
            encoder = encoder_from_config(tag, region.get("config", {}))
            decoders[tag] = encoder.decode_word if encoder.deployable else None
        return decoders

    def verify_against(self, program) -> bool:
        """Check this bundle belongs to ``program`` (pre-encoding
        image digest match)."""
        return _digest(program.words) == self.original_digest

    def deploy_and_check(self, program, trace: Iterable[int]) -> bool:
        """Full loader path: validate, rebuild tables, decode the
        trace through the hardware model, compare with the original
        program.  Mixed-scheme bundles additionally arm the decoder
        with the per-region scheme tags and their word decoders."""
        from repro.hw.fetch_decoder import FetchDecoder
        from repro.sim.tracer import FetchTrace

        if not self.verify_against(program):
            raise BundleFormatError(
                f"bundle {self.name!r} does not match this program image"
            )
        tt, bbit = self.build_tables()
        decoder = FetchDecoder(
            tt,
            bbit,
            self.block_size,
            encoded_region=self.encoded_pc_region(),
            region_schemes=self.region_scheme_map() or None,
            scheme_word_decoders=self.scheme_word_decoders() or None,
        )
        trace = FetchTrace.of(trace)
        base = self.text_base
        decoded = decoder.decode_trace(
            trace, lambda pc: self.encoded_words[(pc - base) >> 2]
        )
        return trace.matches(decoded, program.words, base)
