"""Tests for the CFG wrapper and the dominator computation."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg.dominators import dominates, immediate_dominators, postorder
from repro.cfg.graph import ControlFlowGraph
from repro.isa.assembler import TEXT_BASE, assemble

NESTED_LOOPS = """
        .text
main:   li $s0, 3
outer:  li $s1, 3
inner:  addiu $s1, $s1, -1
        bnez $s1, inner
        addiu $s0, $s0, -1
        bnez $s0, outer
        li $v0, 10
        syscall
"""


@pytest.fixture(scope="module")
def nested_cfg():
    return ControlFlowGraph.build(assemble(NESTED_LOOPS))


class TestControlFlowGraph:
    def test_nodes_match_blocks(self, nested_cfg):
        assert list(nested_cfg.succ) == list(nested_cfg.blocks)
        assert list(nested_cfg.pred) == list(nested_cfg.blocks)

    def test_entry(self, nested_cfg):
        assert nested_cfg.entry == TEXT_BASE

    def test_block_of(self, nested_cfg):
        program = nested_cfg.program
        inner = program.address_of("inner")
        assert nested_cfg.block_of(inner).start == inner
        assert nested_cfg.block_of(inner + 4).start == inner
        with pytest.raises(KeyError):
            nested_cfg.block_of(program.text_end + 100)

    def test_all_blocks_reachable(self, nested_cfg):
        reachable = postorder(nested_cfg.succ, nested_cfg.entry)
        assert set(reachable) == set(nested_cfg.blocks)

    def test_successor_predecessor_symmetry(self, nested_cfg):
        for node in nested_cfg.blocks:
            for succ in nested_cfg.succ[node]:
                assert node in nested_cfg.pred[succ]
        for node in nested_cfg.blocks:
            for pred in nested_cfg.pred[node]:
                assert node in nested_cfg.succ[pred]

    def test_edges_deduplicated(self):
        # A branch to the next instruction has the same target and
        # fall-through; the graph keeps one edge.
        cfg = ControlFlowGraph.build(
            assemble(".text\nmain: beq $0, $0, next\nnext: li $v0, 10\nsyscall\n")
        )
        entry = cfg.entry
        assert cfg.blocks[entry].successors == [entry + 4, entry + 4]
        assert cfg.succ[entry] == [entry + 4]
        assert cfg.pred[entry + 4] == [entry]


class TestDominators:
    def test_entry_dominates_everything(self, nested_cfg):
        idom = immediate_dominators(nested_cfg.succ, nested_cfg.entry)
        for node in idom:
            assert dominates(idom, nested_cfg.entry, node)

    def test_matches_networkx(self, nested_cfg):
        # networkx >= 3.6 omits the start node from its result.
        entry = nested_cfg.entry
        ours = immediate_dominators(nested_cfg.succ, entry)
        graph = nx.DiGraph(
            [(u, v) for u, targets in nested_cfg.succ.items() for v in targets]
        )
        theirs = nx.immediate_dominators(graph, entry)
        assert {k: v for k, v in ours.items() if k != entry} == dict(theirs)

    def test_diamond(self):
        graph = {"entry": ["a", "b"], "a": ["join"], "b": ["join"], "join": []}
        idom = immediate_dominators(graph, "entry")
        assert idom["join"] == "entry"
        assert idom["a"] == "entry"
        assert not dominates(idom, "a", "join")

    def test_chain(self):
        graph = {"a": ["b"], "b": ["c"], "c": []}
        idom = immediate_dominators(graph, "a")
        assert idom == {"a": "a", "b": "a", "c": "b"}
        assert dominates(idom, "a", "c")
        assert dominates(idom, "b", "c")
        assert not dominates(idom, "c", "b")

    def test_unreachable_nodes_absent(self):
        graph = {"a": ["b"], "b": [], "island": ["b"]}
        idom = immediate_dominators(graph, "a")
        assert "island" not in idom

    def test_missing_entry_raises(self):
        with pytest.raises(KeyError):
            immediate_dominators({"a": ["b"], "b": []}, "zzz")

    def test_dominator_tree_shape(self):
        graph = {"a": ["b", "c"], "b": ["c"], "c": []}
        idom = immediate_dominators(graph, "a")
        tree = {(parent, node) for node, parent in idom.items() if node != parent}
        assert tree == {("a", "b"), ("a", "c")}

    @given(st.integers(min_value=0, max_value=2**31), st.integers(2, 12))
    @settings(max_examples=50, deadline=None)
    def test_random_graphs_match_networkx(self, seed, n):
        rng = nx.gnp_random_graph(
            n, 0.35, seed=seed, directed=True
        )
        succ = {node: list(rng.successors(node)) for node in rng.nodes}
        entry = 0
        # Only compare over nodes reachable from the entry; networkx
        # >= 3.6 omits the start node from its result.
        ours = immediate_dominators(succ, entry)
        theirs = nx.immediate_dominators(rng, entry)
        assert {k: v for k, v in ours.items() if k != entry} == dict(theirs)
