"""Selector bundle pins: every registry workload at its default
parameters, through ``repro encode --select-per-region`` semantics
(k=5, 16 TT entries, default budget), must keep producing
byte-identical mixed-scheme bundle JSON, the same measured transitions
and the same per-region scheme choices.  A change to a zoo backend's
fit, its encode/decode or the selector's run bookkeeping that moves a
single table entry, config key or stored bit fails here.  The conv2d,
fft and fir values equal the ``select_per_region`` entries of
``perfbench/golden.json`` (fir at its default ``samples=192``).

Every default-budget winner is frequency, so ``EXPECTED_AT_TT_BUDGET``
also pins three programs at ``--budget-table-bits 2144`` (the storage of
a 16-entry TT plus BBIT at k=5), where the paper's TT/BBIT (fft's
``0x4000a0`` region) and low-weight (tri, conv2d) win instead.
"""

import hashlib

import pytest

from repro.pipeline.selector import SchemeSelector, SelectorBudget
from repro.sim.cpu import run_program
from repro.workloads import registry

#: workload -> (sha256 of the bundle JSON, mixed transitions, scheme per region)
EXPECTED = {
    "conv2d": ("a3a41393523c6f3d30864b0216e9a8f74d0b4da67279f8338e871d7b960fab90", 34394, ("frequency",)),
    "ej": ("f7d1e8363e0ec873ca7330906f87142de72da839049f393fc1d6a234ccadfe91", 199288, ("frequency",)),
    "fft": ("2e8548ea5152e93d0d765811be58902c3e583001713133c2174ae0897da6d708", 107430, ("frequency", "frequency")),
    "fir": ("0730a251d65b29fc3fdc37d4d90b964edf22fb802390472cbf3aaa8febed682c", 43277, ("frequency",)),
    "iir": ("895e04dd5f485257b5a9eff478e23c9f533f259dc39ec6af480f575f70204faa", 62510, ("frequency",)),
    "lu": ("9a356a23e47cdce6ee13490d90d3212c270883b869a05c7f37e976919e3cbf1b", 185338, ("frequency",)),
    "mmul": ("1c451d5a669da53d8f18e90014fbd7e8e0baed2b60c1e15f28b1ddeed21defbf", 212245, ("frequency",)),
    "sor": ("1365acc73d7e681252b766164a169c464d731c188cad86e8705748b9cf107833", 198506, ("frequency",)),
    "tri": ("6d3fc7c45ad99d831d49889c23ecdf55923f18c97df7051aaa0f048bde221d97", 159394, ("frequency",)),
}


#: the same pins at ``--budget-table-bits 2144``
EXPECTED_AT_TT_BUDGET = {
    "conv2d": ("f4eb459488f653b42835bcf0b203a5f1f26850af3d7c3fe6821adeb1b51256bd", 122450, ("low-weight",)),
    "fft": ("afe2927707f0c1128466054bce2141fab1386be28ca25e7c28032d4a3aa7b4a1", 171138, ("ttbbit", "frequency")),
    "tri": ("f202f45d1bc86a9bca48cc0ef1b86e28e8658e50c7aa9fc0c98618f26533ca2a", 406445, ("low-weight",)),
}


def _pins(name, budget=None):
    workload = registry.build_workload(name)
    program = workload.assemble()
    _cpu, trace = run_program(program)
    result = SchemeSelector(block_size=5, tt_capacity=16, budget=budget).run(
        program, trace, name=workload.name
    )
    digest = hashlib.sha256(result.bundle.to_json().encode()).hexdigest()
    schemes = tuple(choice.scheme for choice in result.choices)
    return digest, result.mixed_transitions, schemes


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_selector_digest_pinned(name):
    assert _pins(name) == EXPECTED[name]


@pytest.mark.parametrize("name", sorted(EXPECTED_AT_TT_BUDGET))
def test_selector_digest_pinned_at_tt_budget(name):
    budget = SelectorBudget(max_table_bits=2144)
    assert _pins(name, budget) == EXPECTED_AT_TT_BUDGET[name]
