"""Behavioural model of the fetch-side decode hardware (Section 7).

``tt`` and ``bbit`` model the two SRAM tables of Figure 5; the
``fetch_decoder`` walks a fetch stream exactly as the hardware would —
BBIT lookup on basic-block entry, per-entry transformation selection,
E/CT tail bookkeeping — and restores original instruction words with
one two-input boolean function per bus line.  ``cost`` (the paper's
storage/gate arithmetic) is not re-exported here: import it from its
module.
"""

from repro.errors import TableCapacityError, TableIntegrityError
from repro.hw.tt import TTEntry, TransformationTable
from repro.hw.bbit import BBITEntry, BasicBlockIdentificationTable
from repro.hw.fetch_decoder import FetchDecoder, DecodeFault

__all__ = [
    "TTEntry",
    "TransformationTable",
    "BBITEntry",
    "BasicBlockIdentificationTable",
    "FetchDecoder",
    "DecodeFault",
    "TableCapacityError",
    "TableIntegrityError",
]
