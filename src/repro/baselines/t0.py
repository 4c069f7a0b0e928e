"""T0 address-bus encoding (Benini et al., GLS-VLSI 1997) — reference [2].

Instruction addresses are mostly sequential.  T0 adds one redundant
*increment* line: when the new address equals the previous address
plus the fetch stride, the bus is frozen (zero transitions) and the
increment line is asserted; otherwise the raw address is driven.
"""

from __future__ import annotations

from typing import Sequence

from repro.baselines.protocol import (
    EncodedStream,
    Encoder,
    HardwareBudget,
    register_encoder,
    register_reference_counter,
)


@register_encoder
class T0Encoder(Encoder):
    """Stateful T0 codec for an address bus.

    The increment line is packed into bit ``width`` of each driven
    value.  Decoding is a stateful walk: when the increment bit is set
    the receiver regenerates ``previous + stride`` locally, otherwise
    it takes the driven value verbatim.  Its state is the last driven
    value (the frozen bus and the increment line) and the last address.
    """

    scheme = "t0"
    deployable = False

    def __init__(self, width: int = 32, stride: int = 4) -> None:
        self.width = width
        self.stride = stride
        self._mask = (1 << width) - 1

    def encode(
        self, words: Sequence[int], state: tuple[int, int] | None = None
    ) -> EncodedStream:
        """``state`` is ``(last driven value, last address)``."""
        mask, stride, inc = self._mask, self.stride, 1 << self.width
        driven = []
        if state is None:
            bus = expected = None
        else:
            bus = state[0] & mask
            expected = (state[1] + stride) & mask
        for word in words:
            word &= mask
            if word == expected:
                driven.append(inc | bus)  # bus frozen
            else:
                bus = word
                driven.append(bus)
            expected = (word + stride) & mask
        return EncodedStream(
            self.scheme,
            self.width + 1,
            driven,
            entry=None if state is None else state[0],
            exit=self.state_after(driven[-1], words[-1]) if words else state,
        )

    def decode(
        self, stream: EncodedStream, state: tuple[int, int] | None = None
    ) -> list[int]:
        mask, stride = self._mask, self.stride
        previous = None if state is None else state[1]
        out: list[int] = []
        for packed in stream.driven:
            if previous is not None and (packed >> self.width) & 1:
                previous = (previous + stride) & mask
            else:
                previous = packed & mask
            out.append(previous)
        return out

    def state_after(self, driven: int, word: int) -> tuple[int, int]:
        return driven, word & self._mask

    def to_config(self) -> dict:
        return {"width": self.width, "stride": self.stride}

    @classmethod
    def from_config(cls, config: dict) -> "T0Encoder":
        return cls(
            width=int(config.get("width", 32)), stride=int(config.get("stride", 4))
        )

    def budget(self) -> HardwareBudget:
        return HardwareBudget(table_bits=0, extra_lines=1, stateful=True)


def t0_transitions(addresses: Sequence[int], width: int = 32, stride: int = 4) -> int:
    """Transitions (address lines + increment line) of an address
    stream under T0, counted transfer by transfer from the scheme's
    definition: an address that is its predecessor plus ``stride``
    leaves the address lines as they are and holds the increment line
    high; any other address is driven onto the lines with the
    increment line low.  The first address is already on the lines
    (increment low) and costs nothing."""
    mask = (1 << width) - 1
    total = 0
    previous = lines = None
    increment_line = 0
    for address in addresses:
        address &= mask
        if previous is None:
            previous = lines = address
            continue
        sequential = address == (previous + stride) & mask
        if not sequential:
            total += (address ^ lines).bit_count()
            lines = address
        total += sequential != increment_line
        increment_line = int(sequential)
        previous = address
    return total


@register_reference_counter("t0")
def _t0_reference(encoder: Encoder, words: Sequence[int]) -> int:
    return t0_transitions(words, encoder.width, encoder.stride)
