"""End-to-end flow and reporting.

``flow`` wires the whole system together — run a workload on the
simulator, profile its trace, select hot loop blocks under TT
capacity, encode them, verify the hardware decode restores every
fetched instruction, and count bus transitions for the baseline and
encoded memory images.  ``report`` renders Figure-6/7 style tables and
chart series from the results; import it from its module.
"""

from repro.pipeline.flow import EncodingFlow, FlowResult

__all__ = [
    "EncodingFlow",
    "FlowResult",
]
