"""T0 address-bus encoding (Benini et al., GLS-VLSI 1997) — reference [2].

Instruction addresses are mostly sequential.  T0 adds one redundant
*increment* line: when the new address equals the previous address
plus the fetch stride, the bus is frozen (zero transitions) and the
increment line is asserted; otherwise the raw address is driven.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass
class T0Coder:
    """Stateful T0 encoder for an address bus."""

    width: int = 32
    stride: int = 4  # instruction word size

    def __post_init__(self) -> None:
        self._mask = (1 << self.width) - 1
        self.reset()

    def reset(self, initial_address: int = 0) -> None:
        self._bus = initial_address & self._mask
        self._expected = (initial_address + self.stride) & self._mask
        self._inc_line = 0
        self.transitions = 0
        self.transfers = 0
        self.frozen_transfers = 0

    def send(self, address: int) -> tuple[int, int]:
        """Encode one address; returns (bus value, increment bit)."""
        address &= self._mask
        if address == self._expected:
            inc = 1
            driven = self._bus  # bus frozen
            self.frozen_transfers += 1
        else:
            inc = 0
            driven = address
        self.transitions += (driven ^ self._bus).bit_count()
        self.transitions += inc ^ self._inc_line
        self._bus = driven
        self._inc_line = inc
        self._expected = (address + self.stride) & self._mask
        self.transfers += 1
        return driven, inc

    def send_all(self, addresses: Iterable[int]) -> int:
        for address in addresses:
            self.send(address)
        return self.transitions


def t0_transitions(addresses: Sequence[int], width: int = 32, stride: int = 4) -> int:
    """Total transitions for an address stream under T0."""
    if not addresses:
        return 0
    coder = T0Coder(width, stride)
    coder.reset(initial_address=addresses[0])
    coder.send_all(addresses[1:])
    return coder.transitions


from repro.baselines.protocol import (  # noqa: E402  (adapter after legacy API)
    EncodedStream,
    Encoder,
    HardwareBudget,
    register_encoder,
    register_reference_counter,
)


@register_encoder
class T0Encoder(Encoder):
    """:class:`T0Coder` behind the common Encoder protocol.

    The increment line is packed into bit ``width`` of each driven
    value.  Decoding is a stateful walk: when the increment bit is set
    the receiver regenerates ``previous + stride`` locally, otherwise
    it takes the driven value verbatim.
    """

    scheme = "t0"
    deployable = False

    def __init__(self, width: int = 32, stride: int = 4) -> None:
        self.width = width
        self.stride = stride
        self._mask = (1 << width) - 1

    def encode(self, words: Sequence[int]) -> EncodedStream:
        stream = EncodedStream(self.scheme, self.width + 1)
        if not words:
            return stream
        coder = T0Coder(self.width, self.stride)
        coder.reset(initial_address=words[0])
        stream.driven.append(words[0] & self._mask)
        for word in words[1:]:
            driven, inc = coder.send(word)
            stream.driven.append((inc << self.width) | driven)
        return stream

    def decode(self, stream: EncodedStream) -> list[int]:
        out: list[int] = []
        for packed in stream.driven:
            if not out:
                out.append(packed & self._mask)
                continue
            inc = (packed >> self.width) & 1
            if inc:
                out.append((out[-1] + self.stride) & self._mask)
            else:
                out.append(packed & self._mask)
        return out

    def to_config(self) -> dict:
        return {"width": self.width, "stride": self.stride}

    @classmethod
    def from_config(cls, config: dict) -> "T0Encoder":
        return cls(
            width=int(config.get("width", 32)), stride=int(config.get("stride", 4))
        )

    def budget(self) -> HardwareBudget:
        return HardwareBudget(table_bits=0, extra_lines=1, stateful=True)


@register_reference_counter("t0")
def _t0_reference(encoder: Encoder, words: Sequence[int]) -> int:
    return t0_transitions(list(words), encoder.width, getattr(encoder, "stride", 4))
