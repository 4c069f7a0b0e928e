"""Bundle identity pins: every registry workload at its default
parameters, through ``repro encode`` semantics (k=5, greedy, 16 TT
entries), must keep producing byte-identical bundle JSON and the same
encoded transition count.  A refactor of the codec, the flow or the
bundle writer that changes a single stored bit, TT selector or JSON key
fails here.  The ej and fft values equal ``perfbench/golden.json``.
"""

import hashlib

import pytest

from repro.pipeline.bundle import EncodingBundle
from repro.pipeline.flow import EncodingFlow
from repro.sim.cpu import run_program
from repro.workloads import registry

#: workload -> (sha256 of the bundle JSON, encoded transitions)
EXPECTED = {
    "mmul": ("41e09fa0ee53919108a08bbe88b7d6bfc739c1bda47d808f4fd89050b8b5c1fb", 919557),
    "sor": ("c4ac9bb81e5a4df7a5677bd9ada1c7209e9ed38f8a975a849ca59ba7e34d5c3c", 461468),
    "ej": ("c0ee5ed20233c4cf61ede1bf3bca0159c3de8a4c9ac8311b6f59008d636f7bdd", 464360),
    "fft": ("886ea0b1af1dcbf9a5004918f107974c068208a5af95298b0accdea79e91d2b3", 280208),
    "tri": ("17d5663445196ebd3d7c8bd0491a24328ca2fc20f5d03c0be134fa6b988f5b94", 431138),
    "lu": ("d91be6b43d5c6f52a7290a5a7f64946a4b41fcd43a209f6f1c2157e8948068ba", 685126),
    "fir": ("c019c0aa62827305212b52003acfbe6fa09485ca51fa473d51cdf2f3d9734527", 128577),
    "iir": ("c14083d222806588e3c0954497f533e66d867d6f41d9e79ee3e578c1afe05ccc", 127012),
    "conv2d": ("33dc329293f2d25d2736e7c6a68b683ed880c426ff08ca49b47467e31590759c", 140507),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_bundle_digest_pinned(name):
    workload = registry.build_workload(name)
    program = workload.assemble()
    _cpu, trace = run_program(program)
    result = EncodingFlow(block_size=5, tt_capacity=16, strategy="greedy").run(
        program, trace, name=workload.name
    )
    bundle_json = EncodingBundle.from_flow_result(program, result).to_json()
    digest = hashlib.sha256(bundle_json.encode()).hexdigest()
    assert (digest, result.encoded_transitions) == EXPECTED[name]
