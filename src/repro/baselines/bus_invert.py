"""Bus-invert coding (Stan & Burleson, IEEE TVLSI 1995) — reference [5].

Before driving a new word onto the bus, compare its Hamming distance
from the current bus state with ``width / 2``; if larger, drive the
complemented word and assert an extra *invert* line.  Worst-case
transitions per transfer drop to ``width / 2`` (+1 for the invert
line itself, which we count, as the original paper does).
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
class BusInvertEncoder(Encoder):
    """Stateful bus-invert codec for a ``width``-bit bus.

    The invert line is packed into bit ``width`` of each driven value,
    so ``EncodedStream.transitions`` counts data-line and invert-line
    toggles together.  The first word is driven plain from a bus that
    already holds it, mirroring how the other counters in this package
    treat sequence starts.  Its state is the last driven value: the
    next transfer's decision and toggles need nothing else.
    """

    scheme = "bus-invert"
    deployable = False

    def __init__(self, width: int = 32) -> None:
        self.width = width
        self._mask = (1 << width) - 1

    def encode(self, words: Sequence[int], state: int | None = None) -> EncodedStream:
        """``state`` is the last driven value, invert line included."""
        width, mask, invert = self.width, self._mask, 1 << self.width
        driven = []
        if state is not None:
            bus = state & mask
        else:
            bus = words[0] & mask if words else 0
        for word in words:
            word &= mask
            # Inverting costs width - d data toggles instead of d.
            if 2 * (word ^ bus).bit_count() > width:
                bus = word ^ mask
                driven.append(invert | bus)
            else:
                bus = word
                driven.append(bus)
        return EncodedStream(
            self.scheme,
            width + 1,
            driven,
            entry=state,
            exit=self.state_after(driven[-1], words[-1]) if words else state,
        )

    def decode(self, stream: EncodedStream, state: int | None = None) -> list[int]:
        # each transfer decodes on its own: the invert line says it all
        width, mask = self.width, self._mask
        return [
            (packed & mask) ^ mask if (packed >> width) & 1 else packed & mask
            for packed in stream.driven
        ]

    def state_after(self, driven: int, word: int) -> int:
        return driven

    def budget(self) -> HardwareBudget:
        return HardwareBudget(table_bits=0, extra_lines=1, stateful=True)


def bus_invert_transitions(words: Sequence[int], width: int = 32) -> int:
    """Transitions (data lines + invert line) of a word stream under
    bus-invert, counted transfer by transfer from the scheme's
    definition: a word whose Hamming distance from the lines currently
    driven exceeds half the bus is sent complemented with the invert
    line high, otherwise it is sent as is with the invert line low.
    The first word is already on the lines (invert low) and costs
    nothing."""
    mask = (1 << width) - 1
    total = 0
    lines = None
    invert_line = 0
    for word in words:
        word &= mask
        if lines is None:
            lines = word
            continue
        distance = (word ^ lines).bit_count()
        invert = 1 if distance > width / 2 else 0
        sent = (mask - word) if invert else word
        total += (sent ^ lines).bit_count() + (invert != invert_line)
        lines, invert_line = sent, invert
    return total


@register_reference_counter("bus-invert")
def _bus_invert_reference(encoder: Encoder, words: Sequence[int]) -> int:
    return bus_invert_transitions(words, encoder.width)
