"""Segmentation, dependency-edge, and control-flow-view tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ancestors, by_id, random_program, random_retry_program
from quilopt import graphs, ir, metrics, transforms
from quilopt.fixtures import WORKLOADS, fixture_program
from quilopt.graphs import Role


def reference_edges(instructions):
    """All-pairs conflict edges: the definition the one-scan builder in
    ``graphs`` must agree with after reduction."""
    res = [ir.resources(x) for x in instructions]
    return {
        (i, j)
        for j in range(len(res))
        for i in range(j)
        if ir.conflicts(res[i], res[j])
    }


def reference_reduction(n, edges):
    """Set-based transitive reduction of a low -> high DAG."""
    succ = {u: set() for u in range(n)}
    for u, v in edges:
        succ[u].add(v)
    reach = [set() for _ in range(n)]
    for u in range(n - 1, -1, -1):
        for v in succ[u]:
            reach[u] |= {v} | reach[v]
    return {
        (u, v)
        for u in range(n)
        for v in succ[u]
        if not any(v in reach[w] for w in succ[u] if w != v)
    }


def reference_graph(ddg):
    """A Ddg's edges as the all-pairs builder and set reduction give them."""
    instrs = list(ddg.instructions)
    reduced = reference_reduction(len(instrs), reference_edges(instrs))
    return {(ddg.path[i], ddg.path[j]) for i, j in reduced}


def reference_ancestors(ddg):
    """Each trace index's ancestors as an int bitset, from the closure of
    the all-pairs conflict edges."""
    instrs = list(ddg.instructions)
    reach = closure(len(instrs), reference_edges(instrs))
    return tuple(
        sum(1 << i for i in range(len(instrs)) if k in reach[i])
        for k in range(len(instrs))
    )


def closure(n, edges):
    """Reachability sets of an index-based DAG (helper for reduction tests)."""
    succ = {i: set() for i in range(n)}
    for u, v in edges:
        succ[u].add(v)
    reach = {i: set() for i in range(n)}
    for u in range(n - 1, -1, -1):
        for v in succ[u]:
            reach[u] |= {v} | reach[v]
    return reach


def ancestor_bits(n, edges):
    """An index-based DAG closed into the per-index ancestor bitsets that
    ``graphs.transitive_reduction`` takes."""
    reach = closure(n, edges)
    return tuple(
        sum(1 << i for i in range(n) if k in reach[i]) for k in range(n)
    )


class TestSegmentation:
    def test_teleportation_structure(self):
        ddgs = graphs.build_ddgs(fixture_program("teleportation"))
        assert [d.id for d in ddgs] == ["start", "halt1", "halt2"]
        assert [d.role for d in ddgs] == [Role.START, Role.HALT, Role.HALT]
        start, ft, tgt = ddgs
        assert start.path == (0, 1, 2, 3, 4, 5, 6, 7)
        assert ft.path == (8, 9)
        assert tgt.path == (11, 12)  # the label itself is not a node
        assert ft.ends_program and tgt.ends_program
        assert not start.ends_program

    def test_rus_structure(self):
        ddgs = graphs.build_ddgs(fixture_program("rus"))
        assert [len(d) for d in ddgs] == [12, 11, 10, 7]
        assert [d.role for d in ddgs] == [
            Role.START, Role.HALT, Role.HALT, Role.HALT,
        ]
        # Conditional endings: none of these traces literally ends the
        # program, even though the program can stop at each of them.
        assert [d.ends_program for d in ddgs] == [False, False, False, False]

    def test_unconditional_jumps_are_threaded(self):
        p = ir.parse("X 0\nJUMP @end\nY 0\nLABEL @end\nZ 0\n")
        ddgs = graphs.build_ddgs(p)
        assert len(ddgs) == 1
        assert ddgs[0].path == (0, 4)  # jump and label are not nodes

    def test_jump_cycle_is_an_error(self):
        p = ir.parse("LABEL @a\nJUMP @a\n")
        with pytest.raises(graphs.GraphError):
            graphs.build_ddgs(p)

    def test_duplicate_targets_make_duplicate_graphs(self):
        text = (
            "DECLARE c BIT\n"
            "JUMP-WHEN @l c\n"
            "JUMP-WHEN @l c\n"
            "X 0\n"
            "LABEL @l\n"
            "Y 0\n"
        )
        ddgs = graphs.build_ddgs(ir.parse(text))
        assert [d.id for d in ddgs] == [
            "start", "interior1", "halt1", "halt2", "halt3",
        ]
        paths = [d.path for d in ddgs]
        assert paths == [(0, 1), (2,), (3, 5), (5,), (5,)]
        # two jumps to the same label: two identical graphs, both kept

    def test_conditional_jump_ends_its_trace(self):
        p = ir.parse("DECLARE c BIT\nJUMP-WHEN @l c\nX 0\nLABEL @l\n")
        ddgs = graphs.build_ddgs(p)
        assert ddgs[0].path == (0, 1)
        last = ddgs[0].instructions[-1]
        assert isinstance(last, ir.JumpWhen)

    def test_extended_halt_when_fall_through_is_empty(self):
        # The trace ends at a conditional jump, and falling through would
        # leave the program: that trace is a halt trace.
        p = ir.parse("DECLARE c BIT\nLABEL @top\nX 0\nJUMP-WHEN @top c\n")
        ddgs = graphs.build_ddgs(p)
        assert [d.id for d in ddgs] == ["start", "halt1"]
        assert by_id(ddgs)["halt1"].role is Role.HALT
        assert not by_id(ddgs)["halt1"].ends_program

    def test_interior_when_both_continuations_exist(self):
        text = (
            "DECLARE c BIT\n"
            "JUMP-WHEN @l c\n"
            "X 0\n"
            "LABEL @l\n"
            "Y 0\n"
        )
        ddgs = graphs.build_ddgs(ir.parse(text))
        # trace from the fall-through of the *first* jump ends the program
        assert by_id(ddgs)["halt1"].path == (2, 4)
        assert ddgs[0].role is Role.START

    def test_empty_program(self):
        ddgs = graphs.build_ddgs(ir.Program())
        assert len(ddgs) == 1
        assert ddgs[0].path == ()
        assert ddgs[0].role is Role.START

    def test_halt_role_numbering_by_entry_position(self):
        ddgs = graphs.build_ddgs(fixture_program("rus"))
        assert [d.id for d in ddgs] == ["start", "halt1", "halt2", "halt3"]


def reference_joins(ddg):
    """``Ddg.joins`` from source positions alone, without the trace walk:
    index ``k`` joins when the move from the node before it goes backwards
    or passes a ``JUMP`` or a jump-targeted label in the source; on the
    start trace, index 0 when the gap from position 0 holds one."""
    code = ddg.program.instructions
    targets = {
        i.target for i in code if isinstance(i, (ir.Jump, ir.JumpWhen, ir.JumpUnless))
    }

    def crosses(prev, cur):
        if cur == prev + 1:
            return False
        return cur <= prev or any(
            isinstance(i, ir.Jump) or isinstance(i, ir.Label) and i.name in targets
            for i in code[prev + 1 : cur]
        )

    path = ddg.path
    joins = {k for k in range(1, len(path)) if crosses(path[k - 1], path[k])}
    if ddg.role is Role.START and path and crosses(-1, path[0]):
        joins.add(0)
    return joins


class TestJoins:
    def check(self, program):
        for ddg in graphs.build_ddgs(program):
            # Facts start empty on every trace but the start one, so only
            # there does index 0 have a reference.
            got = ddg.joins if ddg.role is Role.START else ddg.joins - {0}
            assert got == reference_joins(ddg), (ir.emit(program), ddg.id)

    def test_fixtures(self):
        for name in WORKLOADS:
            self.check(fixture_program(name))

    def test_random_programs(self):
        for seed in range(400):
            self.check(random_program(random.Random(seed)))

    def test_random_retry_programs(self):
        for seed in range(200):
            self.check(random_retry_program(random.Random(seed)))

    def test_targeted_labels_and_jumps_join_untargeted_labels_do_not(self):
        program = ir.parse(
            "DECLARE c BIT\n"
            "LABEL @top\n"        # 1, targeted below
            "H 0\n"               # 2
            "LABEL @plain\n"      # 3, never targeted
            "X 0\n"               # 4
            "JUMP @skip\n"        # 5
            "Y 0\n"               # 6, unreachable from the start
            "LABEL @skip\n"       # 7
            "Z 0\n"               # 8
            "JUMP-WHEN @top c\n"  # 9
        )
        start, *rest = graphs.build_ddgs(program)
        assert start.path == (0, 2, 4, 8, 9)
        assert start.joins == {1, 3}
        # Entered at @top, the jump's target trace joins at its first node.
        assert [d.joins for d in rest if d.path[0] == 2] == [{0, 2}]


class TestEdges:
    def test_chain_reduces_to_consecutive_edges(self):
        p = ir.parse("DECLARE a INTEGER\nMOVE a 1\nADD a 2\nADD a 3\n")
        ddg = graphs.build_ddgs(p)[0]
        assert ddg.edges == {(0, 1), (1, 2), (2, 3)}

    def test_independent_instructions_have_no_edge(self):
        p = ir.parse("X 0\nY 1\n")
        assert graphs.build_ddgs(p)[0].edges == frozenset()

    def test_redundant_edges_are_removed(self):
        p = ir.parse("H 0\nH 1\nCNOT 0 1\nX 0\nY 1\n")
        ddg = graphs.build_ddgs(p)[0]
        assert ddg.edges == {(0, 2), (1, 2), (2, 3), (2, 4)}

    def test_teleportation_edges(self):
        ddg = graphs.build_ddgs(fixture_program("teleportation"))[0]
        assert (4, 5) in ddg.edges   # CNOT 0 1 -> MEASURE 1 m
        assert (5, 7) in ddg.edges   # MEASURE 1 m -> JUMP-WHEN ... m
        assert (0, 5) in ddg.edges   # DECLARE m -> MEASURE 1 m
        assert (1, 6) in ddg.edges   # DECLARE ro -> MEASURE 2 ro[0]
        assert (3, 5) not in ddg.edges  # subsumed via CNOT 0 1
        assert (0, 7) not in ddg.edges  # subsumed via MEASURE 1 m

    def test_ancestors(self):
        p = ir.parse("H 0\nH 1\nCNOT 0 1\nX 0\n")
        ddg = graphs.build_ddgs(p)[0]
        assert ancestors(ddg, 3) == {0, 1, 2}
        assert ancestors(ddg, 2) == {0, 1}
        assert ancestors(ddg, 0) == set()

    def test_transitive_reduction_unit(self):
        edges = {(0, 1), (1, 2), (0, 2)}
        assert graphs.transitive_reduction(ancestor_bits(3, edges)) == {
            (0, 1), (1, 2),
        }

    def test_random_programs_edge_invariants(self):
        for seed in range(120):
            program = random_program(random.Random(seed))
            for ddg in graphs.build_ddgs(program):
                index = {p: i for i, p in enumerate(ddg.path)}
                res = {p: ir.resources(ddg.program.instructions[p]) for p in ddg.path}
                for u, v in ddg.edges:
                    # edges respect trace order and are true conflicts
                    assert index[u] < index[v]
                    assert ir.conflicts(res[u], res[v])
                # reduction preserves reachability of the full conflict graph
                instrs = list(ddg.instructions)
                raw = reference_edges(instrs)
                reduced = {(index[u], index[v]) for u, v in ddg.edges}
                assert closure(len(instrs), raw) == closure(len(instrs), reduced)
                # and is itself irreducible
                closed = ancestor_bits(len(instrs), reduced)
                assert graphs.transitive_reduction(closed) == reduced


# Straight-line programs on three qubits, weighted towards RESET, so that
# bare resets meet qubit uses, each other and later qubit resets.
_QUBIT = st.integers(0, 2)
_BIT = st.builds(ir.MemoryRef, st.just("ro"), st.integers(0, 1))
_RESET_HEAVY_INSTR = st.one_of(
    st.just(ir.Reset(None)),
    st.builds(ir.Reset, _QUBIT),
    st.builds(lambda q: ir.Gate("H", (), (q,)), _QUBIT),
    st.builds(lambda q: ir.Gate("CNOT", (), (q, (q + 1) % 3)), _QUBIT),
    st.builds(ir.Measure, _QUBIT, _BIT),
    st.builds(lambda c: ir.ParamGate("RZ", (c,), (0,)), _BIT),
    st.builds(lambda c: ir.Classical("NOT", (c,)), _BIT),
)


@st.composite
def _dags(draw):
    """``(n, edges)`` of a random DAG whose edges go low -> high."""
    n = draw(st.integers(0, 24))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    if not pairs:
        return n, set()
    return n, draw(st.sets(st.sampled_from(pairs)))


class TestEdgeBuilder:
    """The one-scan builder against the all-pairs reference."""

    def test_fixtures_match_reference(self):
        for name in WORKLOADS:
            for ddg in graphs.build_ddgs(fixture_program(name)):
                assert ddg.edges == reference_graph(ddg), (name, ddg.id)

    def test_random_programs_match_reference(self):
        for seed in range(200):
            for ddg in graphs.build_ddgs(random_program(random.Random(seed))):
                assert ddg.edges == reference_graph(ddg), (seed, ddg.id)

    @pytest.mark.parametrize(
        "body",
        [
            "H 0\nRESET\nX 0",                 # bare RESET between qubit uses
            "MEASURE 1 ro\nRESET\nRESET\nH 1",  # back-to-back bare RESETs
            "RESET\nH 0\nCNOT 0 1",            # bare RESET before first use
            "H 0\nRESET\nRESET 0\nX 0\nX 1",  # RESET q after a bare RESET
            "RZ(ro) 0\nRESET\nMEASURE 0 ro\nRESET 1\nRESET",
        ],
    )
    def test_reset_cases_match_reference(self, body):
        program = ir.parse("DECLARE ro BIT[2]\n" + body + "\n")
        ddg = graphs.build_ddgs(program)[0]
        assert ddg.edges == reference_graph(ddg)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_RESET_HEAVY_INSTR, max_size=24))
    def test_reset_heavy_programs_match_reference(self, body):
        program = ir.Program((ir.Declare("ro", "BIT", 2),) + tuple(body))
        ddg = graphs.build_ddgs(program)[0]
        assert ddg.edges == reference_graph(ddg)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_RESET_HEAVY_INSTR, max_size=24))
    def test_ancestors_are_the_reference_closure(self, body):
        program = ir.Program((ir.Declare("ro", "BIT", 2),) + tuple(body))
        ddg = graphs.build_ddgs(program)[0]
        assert ddg.ancestors == reference_ancestors(ddg)

    @settings(max_examples=300, deadline=None)
    @given(_dags())
    def test_reduction_matches_set_based(self, dag):
        n, edges = dag
        reduced = graphs.transitive_reduction(ancestor_bits(n, edges))
        assert reduced == reference_reduction(n, edges)


def eager_edges(ddg):
    """A trace's edges built at once from its instructions: the reference
    for the lazily built ``Ddg.edges``."""
    instructions = [ddg.program.instructions[p] for p in ddg.path]
    reduced = graphs.transitive_reduction(graphs._ancestors(instructions))
    return frozenset((ddg.path[i], ddg.path[j]) for i, j in reduced)


class TestLazyEdges:
    """A Ddg's edges and ancestors are built on first read, and only where
    read."""

    def check(self, program):
        for ddg in graphs.build_ddgs(program):
            assert not {"edges", "ancestors"} & set(vars(ddg))
            assert ddg.edges == eager_edges(ddg)
            assert ddg.ancestors == reference_ancestors(ddg)
            assert ddg.edges is ddg.edges
            assert ddg.ancestors is ddg.ancestors

    def test_fixtures_match_eager_build(self):
        for name in WORKLOADS:
            self.check(fixture_program(name))

    def test_random_programs_match_eager_build(self):
        for seed in range(200):
            self.check(random_program(random.Random(seed)))

    @staticmethod
    def count_calls(monkeypatch):
        """Count calls of the two graph builders, by their global names."""
        calls = {"_ancestors": 0, "transitive_reduction": 0}

        def counting(name):
            original = getattr(graphs, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(graphs, name, counting(name))
        return calls

    def test_path_only_users_build_no_edges(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        for name in WORKLOADS:
            program = fixture_program(name)
            transforms.constant_fold(program)
            transforms.dead_code_elim(program)
            metrics.report(program)
            assert calls == {"_ancestors": 0, "transitive_reduction": 0}, name
            transforms.apply_pass(program, "hybrid-deps-reorder")
            transforms.apply_pass(program, "hybrid-deps-latest-quantum")
            assert calls["_ancestors"] > 0, name
            assert calls["transitive_reduction"] == 0, name
            calls["_ancestors"] = 0

    def test_both_views_scan_once(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        for name in WORKLOADS:
            for ddg in graphs.build_ddgs(fixture_program(name)):
                ddg.edges  # the reduction, then the closure it was read off
                ddg.ancestors
                assert calls == {"_ancestors": 1, "transitive_reduction": 1}
                calls.update(_ancestors=0, transitive_reduction=0)


def traces(program):
    """What identifies each trace of ``program``, without its graph."""
    return [
        (d.id, d.role, d.path, d.ends_program)
        for d in graphs.build_ddgs(program)
    ]


class TestSegmentOnce:
    """Reordering passes segment once up front: they must leave every
    trace path where it was."""

    PASSES = ("hybrid-deps-reorder", "hybrid-deps-latest-quantum")

    def check(self, program):
        before = traces(program)
        for name in self.PASSES:
            assert traces(transforms.apply_pass(program, name)) == before

    def test_fixtures(self):
        for name in WORKLOADS:
            self.check(fixture_program(name))

    def test_random_programs(self):
        for seed in range(200):
            self.check(random_program(random.Random(seed)))


class TestCfg:
    def test_parallel_split(self):
        p = ir.parse("DECLARE a INTEGER\nMOVE a 1\nH 0\nX 0\nMEASURE 0\n")
        cfg = graphs.Cfg(p)
        kinds = [b.kind for b in cfg.blocks]
        assert kinds == ["quantum", "classical", "hybrid"]
        q, c, h = cfg.blocks
        assert q.positions == (2, 3)
        assert c.positions == (0, 1)
        assert h.positions == (4,)
        assert cfg.edges == {(q.id, h.id), (c.id, h.id)}

    def test_jump_edges(self):
        p = ir.parse("DECLARE c BIT\nJUMP-WHEN @l c\nX 0\nLABEL @l\nY 0\n")
        cfg = graphs.Cfg(p)
        by_kind = {}
        for b in cfg.blocks:
            by_kind.setdefault(b.kind, []).append(b)
        (hyb,) = by_kind["hybrid"]
        x_block = next(b for b in cfg.blocks if b.positions == (2,))
        y_block = next(b for b in cfg.blocks if b.positions == (4,))
        assert (hyb.id, x_block.id) in cfg.edges  # fall-through
        assert (hyb.id, y_block.id) in cfg.edges  # jump target
        assert (x_block.id, y_block.id) in cfg.edges

    def test_halt_has_no_successors(self):
        p = ir.parse("H 0\nHALT\nX 0\n")
        cfg = graphs.Cfg(p)
        halt_block = next(b for b in cfg.blocks if b.positions == (1,))
        assert not any(u == halt_block.id for u, _ in cfg.edges)

    @staticmethod
    def shape(cfg):
        return [(b.kind, b.positions) for b in cfg.blocks], sorted(cfg.edges)

    def test_label_only_runs_are_skipped(self):
        # Two labels in a row: the jump back lands on @a, and the block it
        # reaches is the first one past both labels.
        p = ir.parse(
            "DECLARE c BIT\nLABEL @a\nLABEL @b\nH 0\nJUMP-WHEN @a c\n"
            "MEASURE 0\nLABEL @z\n"
        )
        assert self.shape(graphs.Cfg(p)) == (
            [("classical", (0,)), ("quantum", (3,)), ("hybrid", (4,)),
             ("hybrid", (5,))],
            [("b0", "b1"), ("b1", "b2"), ("b2", "b1"), ("b2", "b3")],
        )

    def test_control_flow_alone_cuts_a_hybrid_chunk(self):
        p = ir.parse("H 0\nHALT\nMEASURE 0\n")
        assert self.shape(graphs.Cfg(p)) == (
            [("quantum", (0,)), ("hybrid", (1,)), ("hybrid", (2,))],
            [("b0", "b1")],
        )

    def test_jump_into_consecutive_labels(self):
        p = ir.parse(
            "DECLARE c BIT\nJUMP @x\nLABEL @x\nLABEL @y\nMOVE c 1\nH 0\n"
        )
        assert self.shape(graphs.Cfg(p)) == (
            [("classical", (0,)), ("hybrid", (1,)), ("quantum", (5,)),
             ("classical", (4,))],
            [("b0", "b1"), ("b1", "b2"), ("b1", "b3")],
        )

    def test_every_instruction_lands_in_one_block(self):
        for seed in range(60):
            program = random_program(random.Random(seed))
            cfg = graphs.Cfg(program)
            seen = [p for b in cfg.blocks for p in b.positions]
            expected = [
                pos for pos, instr in enumerate(program.instructions)
                if not isinstance(instr, ir.Label)
            ]
            assert sorted(seen) == expected
            ids = {b.id for b in cfg.blocks}
            assert all(u in ids and v in ids for u, v in cfg.edges)


class TestDot:
    def test_ddg_dot(self):
        ddg = graphs.build_ddgs(fixture_program("teleportation"))[0]
        dot = graphs.ddg_to_dot(ddg)
        assert dot.startswith('digraph "start" {')
        for pos in ddg.path:
            assert f"n{pos} [" in dot
        for u, v in ddg.edges:
            assert f"n{u} -> n{v};" in dot
        assert dot.rstrip().endswith("}")

    CFG_DOT = {
        "teleportation": r"""digraph "cfg" {
  rankdir=TB;
  node [shape=box];
  b0 [label="b0 [quantum]\lH 1\lCNOT 1 2\lCNOT 0 1\l", style=filled, fillcolor=lightblue];
  b1 [label="b1 [classical]\lDECLARE m BIT\lDECLARE ro BIT[2]\l", style=filled, fillcolor=lightgoldenrod];
  b2 [label="b2 [hybrid]\lMEASURE 1 m\lMEASURE 2 ro\lJUMP-WHEN @fix m\l", style=filled, fillcolor=lightcoral];
  b3 [label="b3 [hybrid]\lMEASURE 0 ro[1]\lHALT\l", style=filled, fillcolor=lightcoral];
  b4 [label="b4 [quantum]\lX 2\l", style=filled, fillcolor=lightblue];
  b5 [label="b5 [classical]\lNOT ro\l", style=filled, fillcolor=lightgoldenrod];
  b0 -> b2;
  b1 -> b2;
  b2 -> b3;
  b2 -> b4;
  b2 -> b5;
}
""",
        "rus": r"""digraph "cfg" {
  rankdir=TB;
  node [shape=box];
  b0 [label="b0 [quantum]\lH 1\lCNOT 1 0\lT 1\lH 1\l", style=filled, fillcolor=lightblue];
  b1 [label="b1 [classical]\lDECLARE f1 BIT\lDECLARE f2 BIT\lDECLARE ro BIT[2]\l", style=filled, fillcolor=lightgoldenrod];
  b2 [label="b2 [hybrid]\lMEASURE 1 f1\l", style=filled, fillcolor=lightcoral];
  b3 [label="b3 [quantum]\lZ 1\lCNOT 1 2\l", style=filled, fillcolor=lightblue];
  b4 [label="b4 [hybrid]\lMEASURE 2 f2\lJUMP-UNLESS @done f2\l", style=filled, fillcolor=lightcoral];
  b5 [label="b5 [quantum]\lY 2\l", style=filled, fillcolor=lightblue];
  b6 [label="b6 [quantum]\lH 2\lCNOT 2 0\lZ 0\l", style=filled, fillcolor=lightblue];
  b7 [label="b7 [quantum]\lS 0\lT 0\lH 1\l", style=filled, fillcolor=lightblue];
  b8 [label="b8 [classical]\lMOVE ro[1] 1\l", style=filled, fillcolor=lightgoldenrod];
  b9 [label="b9 [hybrid]\lMEASURE 1 ro\lMEASURE 1 f1\lJUMP-WHEN @retry f1\l", style=filled, fillcolor=lightcoral];
  b0 -> b2;
  b1 -> b2;
  b2 -> b3;
  b3 -> b4;
  b4 -> b5;
  b4 -> b7;
  b4 -> b8;
  b5 -> b6;
  b6 -> b7;
  b6 -> b8;
  b7 -> b9;
  b8 -> b9;
  b9 -> b6;
}
""",
    }

    @pytest.mark.parametrize("name", sorted(CFG_DOT))
    def test_cfg_dot_text(self, name):
        cfg = graphs.Cfg(fixture_program(name))
        assert graphs.cfg_to_dot(cfg) == self.CFG_DOT[name]

    def test_cfg_dot(self):
        cfg = graphs.Cfg(fixture_program("teleportation"))
        dot = graphs.cfg_to_dot(cfg)
        assert dot.startswith('digraph "cfg" {')
        for block in cfg.blocks:
            assert block.id in dot
        assert dot.count("->") == len(cfg.edges)
