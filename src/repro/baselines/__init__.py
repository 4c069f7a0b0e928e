"""Bus-encoding baselines and competitors (the "encoder zoo").

Classic baselines from the paper's related work (Section 2):

* ``bus_invert`` — Stan & Burleson's bus-invert coding [5], the
  general-purpose data-bus baseline the paper contrasts with
  ("its extremely general nature limits relatively the power savings
  ... on data streams exhibiting regularities").
* ``t0`` — Benini et al.'s T0 sequential-address encoding [2]
  (address-bus technique; included for landscape completeness).
* ``gray`` — Gray address encoding, the classic address-bus baseline.
* ``frequency`` — a static frequency-ranked opcode remapping in the
  spirit of low-power ISA re-encoding [6].

Related-work competitors (see PAPERS.md and docs/encoders.md):

* ``memoryless`` — Chee/Colbourn-style optimal memoryless sub-bus
  codebooks (arXiv:0712.2640).
* ``lowweight`` — Valentini/Chiani-style limited-weight codes with
  transition signalling (arXiv:2606.14203).

Every backend implements the common :class:`Encoder` protocol from
:mod:`repro.baselines.protocol` and registers itself into
``ENCODER_REGISTRY`` so the per-region selector, the verify campaign,
and the fault campaign can enumerate them uniformly.
"""

from repro.baselines.protocol import (
    ENCODER_REGISTRY,
    EncodedStream,
    Encoder,
    HardwareBudget,
    encoder_from_config,
    make_encoder,
    reference_transitions,
    register_encoder,
    registered_schemes,
)
from repro.baselines.bus_invert import BusInvertEncoder, bus_invert_transitions
from repro.baselines.t0 import T0Encoder, t0_transitions
from repro.baselines.gray import GrayEncoder, gray_decode, gray_encode, gray_transitions
from repro.baselines.frequency import FrequencyEncoder
from repro.baselines.memoryless import MemorylessCodebookEncoder
from repro.baselines.lowweight import CODEWORDS, LowWeightCodeEncoder

__all__ = [
    "ENCODER_REGISTRY",
    "EncodedStream",
    "Encoder",
    "HardwareBudget",
    "encoder_from_config",
    "make_encoder",
    "reference_transitions",
    "register_encoder",
    "registered_schemes",
    "BusInvertEncoder",
    "bus_invert_transitions",
    "T0Encoder",
    "t0_transitions",
    "gray_encode",
    "gray_decode",
    "gray_transitions",
    "GrayEncoder",
    "FrequencyEncoder",
    "MemorylessCodebookEncoder",
    "LowWeightCodeEncoder",
    "CODEWORDS",
]
