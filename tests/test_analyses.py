"""Tests for constant propagation, liveness, and hybrid dependencies."""

import random

import numpy as np
import pytest

from quilopt import analyses, graphs, ir, transforms
from quilopt.analyses import PAULI_STATES, PAULI_TRANSITIONS
from quilopt.fixtures import fixture_program

from conftest import (
    REGION_POOL,
    _random_classical,
    ancestors,
    by_id,
    predecessors,
    random_program,
)


UNITARIES = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]]) / np.sqrt(2),
    "S": np.array([[1, 0], [0, 1j]]),
}

STATE_VECTORS = {
    "Z+": np.array([1, 0], dtype=complex),
    "Z-": np.array([0, 1], dtype=complex),
    "X+": np.array([1, 1]) / np.sqrt(2),
    "X-": np.array([1, -1]) / np.sqrt(2),
    "Y+": np.array([1, 1j]) / np.sqrt(2),
    "Y-": np.array([1, -1j]) / np.sqrt(2),
}


def _same_up_to_phase(a, b):
    return abs(abs(np.vdot(a, b)) - 1.0) < 1e-12


def _start_facts(text):
    ddgs = graphs.build_ddgs(ir.parse(text))
    return ddgs[0], analyses.constant_propagation(ddgs[0])


class TestPauliTable:
    def test_all_36_transitions_match_dense_unitaries(self):
        for gate, table in PAULI_TRANSITIONS.items():
            u = UNITARIES[gate]
            for state in PAULI_STATES:
                got = u @ STATE_VECTORS[state]
                expected = STATE_VECTORS[table[state]]
                assert _same_up_to_phase(got, expected), (gate, state)

    def test_transitions_are_permutations(self):
        for table in PAULI_TRANSITIONS.values():
            assert sorted(table.values()) == sorted(PAULI_STATES)

    def test_untracked_gate(self):
        assert "T" not in PAULI_TRANSITIONS
        assert "CNOT" not in PAULI_TRANSITIONS


class TestConstantCells:
    def test_move_literal_creates_fact(self):
        ddg, facts = _start_facts(
            "DECLARE a INTEGER\nMOVE a 5\nADD a 1\n"
        )
        assert facts.cells_before[2].get(("m", "a", 0)) == 5

    def test_binary_with_both_known(self):
        ddg, facts = _start_facts(
            "DECLARE a INTEGER\nDECLARE b INTEGER\n"
            "MOVE a 5\nMOVE b 7\nADD a b\nMOVE b a\n"
        )
        assert facts.cells_before[5].get(("m", "a", 0)) == 12
        # and the copy picks the folded value up again
        ddgs = graphs.build_ddgs(
            ir.parse(
                "DECLARE a INTEGER\nDECLARE b INTEGER\n"
                "MOVE a 5\nMOVE b 7\nADD a b\nMOVE b a\nSUB b 2\nNEG b\n"
            )
        )
        f = analyses.constant_propagation(ddgs[0])
        assert f.cells_before[7].get(("m", "b", 0)) == 10

    def test_unknown_operand_kills_dest(self):
        ddg, facts = _start_facts(
            "DECLARE a INTEGER\nDECLARE b INTEGER\nMOVE a 5\nADD a b\nMOVE b a\n"
        )
        assert facts.cells_before[4].get(("m", "a", 0)) is None

    def test_exchange_swaps_facts(self):
        ddg, facts = _start_facts(
            "DECLARE a INTEGER[2]\nMOVE a[0] 1\nMOVE a[1] 2\n"
            "EXCHANGE a[0] a[1]\nMOVE a[0] a[0]\n"
        )
        assert facts.cells_before[4].get(("m", "a", 0)) == 2
        assert facts.cells_before[4].get(("m", "a", 1)) == 1

    def test_div_by_zero_is_unknown(self):
        ddg, facts = _start_facts(
            "DECLARE a INTEGER\nMOVE a 5\nDIV a 0\nADD a 1\n"
        )
        assert facts.cells_before[3].get(("m", "a", 0)) is None

    def test_integer_division_floors(self):
        ddg, facts = _start_facts(
            "DECLARE a INTEGER\nMOVE a 7\nDIV a 2\nADD a 0\n"
        )
        assert facts.cells_before[3].get(("m", "a", 0)) == 3

    def test_real_division(self):
        ddg, facts = _start_facts(
            "DECLARE r REAL\nMOVE r 7\nDIV r 2\nADD r 0\n"
        )
        assert facts.cells_before[3].get(("m", "r", 0)) == pytest.approx(3.5)

    def test_repeated_squaring_stops_at_what_emit_can_write(self):
        # 20 squarings of 10 would reach 10**(2**20), over a million
        # digits.  Each product is refused before it is computed once it
        # could pass the digit limit of int literals, so no fact ever
        # grows past it and the cell is unknown after the last MUL.
        ddg, facts = _start_facts(
            "DECLARE a INTEGER\nMOVE a 10\n" + "MUL a a\n" * 20 + "ADD a 0\n"
        )
        limit = analyses._emit_int_bits()
        sizes = [
            value.bit_length()
            for cells in facts.cells_before
            for value in cells.values()
            if isinstance(value, int)
        ]
        assert sizes and max(sizes) <= limit
        assert facts.cells_before[22].get(("m", "a", 0)) is None
        folded = transforms.constant_fold(ddg.program)
        assert ir.parse(ir.emit(folded)) == folded

    @pytest.mark.parametrize(
        "kind,literal,expected",
        [("BIT", 2, 0), ("OCTET", 300, 44), ("INTEGER", -3, -3), ("REAL", 2, 2.0)],
    )
    def test_move_coerces_to_kind(self, kind, literal, expected):
        ddg, facts = _start_facts(
            f"DECLARE a {kind}\nMOVE a {literal}\nADD a 0\n"
        )
        assert facts.cells_before[2].get(("m", "a", 0)) == expected

    @pytest.mark.parametrize(
        "kind,start,expected", [("BIT", 0, 1), ("OCTET", 5, 250), ("INTEGER", 5, -6)]
    )
    def test_not_semantics(self, kind, start, expected):
        ddg, facts = _start_facts(
            f"DECLARE a {kind}\nMOVE a {start}\nNOT a\nADD a 0\n"
        )
        assert facts.cells_before[3].get(("m", "a", 0)) == expected

    def test_join_label_kills_facts(self):
        # @merge is a jump target: another path may arrive there with a
        # different value in a, so facts cannot survive past the label.
        text = (
            "DECLARE a INTEGER\nDECLARE ro BIT\nMOVE a 5\n"
            "LABEL @merge\nADD a 1\nMEASURE 0 ro\nJUMP-WHEN @merge ro\n"
        )
        ddgs = graphs.build_ddgs(ir.parse(text))
        facts = analyses.constant_propagation(ddgs[0])
        add_index = ddgs[0].path.index(4)
        assert facts.cells_before[add_index].get(("m", "a", 0)) is None

    def test_unreferenced_label_keeps_facts(self):
        text = (
            "DECLARE a INTEGER\nMOVE a 5\nLABEL @unused\nADD a 1\n"
        )
        ddgs = graphs.build_ddgs(ir.parse(text))
        facts = analyses.constant_propagation(ddgs[0])
        add_index = ddgs[0].path.index(3)
        assert facts.cells_before[add_index].get(("m", "a", 0)) == 5

    def test_facts_match_concrete_machine(self):
        # Independent re-execution: every claimed constant must be the value
        # a zero-initialized classical machine actually holds there.
        rng = random.Random(123)
        for _ in range(120):
            decls = [
                ir.Declare(name, kind, size)
                for name, kind, size in REGION_POOL
            ]
            body = [
                _random_classical(rng, decls) for _ in range(rng.randint(3, 20))
            ]
            program = ir.Program(tuple(decls + body))
            ddgs = graphs.build_ddgs(program)
            facts = analyses.constant_propagation(ddgs[0])
            memory = {
                ("m", d.name, i): 0 if d.kind != "REAL" else 0.0
                for d in decls
                for i in range(d.size)
            }
            for k, pos in enumerate(ddgs[0].path):
                for token, value in facts.cells_before[k].items():
                    assert memory[token] == value, (ir.emit(program), pos)
                _execute_classical(program, program.instructions[pos], memory)


def _execute_classical(program, instr, memory):
    """Minimal classical interpreter used only to cross-check facts."""
    if not isinstance(instr, ir.Classical):
        return
    kind = {}
    for d in program.regions.values():
        kind[d.name] = d.kind

    def coerce(region, value):
        k = kind[region]
        if k == "BIT":
            return int(value) & 1
        if k == "OCTET":
            return int(value) & 255
        if k == "INTEGER":
            return int(value)
        return float(value)

    def read(op):
        if isinstance(op, ir.MemoryRef):
            return memory[ir.ref_token(op)]
        return op

    op = instr.op
    if op == "EXCHANGE":
        a, b = (ir.ref_token(o) for o in instr.operands)
        memory[a], memory[b] = memory[b], memory[a]
        return
    dest = instr.operands[0]
    token = ir.ref_token(dest)
    if op == "MOVE":
        memory[token] = coerce(dest.region, read(instr.operands[1]))
    elif op == "NEG":
        memory[token] = coerce(dest.region, -memory[token])
    elif op == "NOT":
        k = kind[dest.region]
        x = memory[token]
        memory[token] = (
            1 - (int(x) & 1)
            if k == "BIT"
            else (~int(x) & 255 if k == "OCTET" else ~int(x))
        )
    else:
        left, right = memory[token], read(instr.operands[1])
        k = kind[dest.region]
        if op == "ADD":
            result = left + right
        elif op == "SUB":
            result = left - right
        elif op == "MUL":
            result = left * right
        elif op == "DIV":
            result = left // right if k != "REAL" else left / right
        elif op == "AND":
            result = int(left) & int(right)
        elif op == "IOR":
            result = int(left) | int(right)
        else:
            result = int(left) ^ int(right)
        memory[token] = coerce(dest.region, result)


class TestQubitFacts:
    def test_start_segment_begins_in_ground_state(self):
        ddg, facts = _start_facts("H 0\nX 1\n")
        assert facts.qubits_before[0].get(0) == "Z+"
        assert facts.qubits_before[0].get(1) == "Z+"
        assert facts.qubits_before[1].get(0) == "X+"

    def test_non_start_segment_is_unknown(self):
        text = (
            "DECLARE m BIT\nH 0\nMEASURE 0 m\nJUMP-WHEN @l m\n"
            "Y 0\nLABEL @l\nZ 0\nMEASURE 0 m\n"
        )
        ddgs = graphs.build_ddgs(ir.parse(text))
        halt = by_id(ddgs)["halt1"]
        facts = analyses.constant_propagation(halt)
        assert facts.qubits_before[0].get(0) is None

    def test_multi_qubit_gate_destroys_facts(self):
        ddg, facts = _start_facts("X 0\nCNOT 0 1\nZ 0\n")
        assert facts.qubits_before[2].get(0) is None
        assert facts.qubits_before[2].get(1) is None

    def test_non_clifford_destroys_fact(self):
        ddg, facts = _start_facts("T 0\nZ 0\n")
        assert facts.qubits_before[1].get(0) is None

    def test_param_gate_destroys_fact(self):
        ddg, facts = _start_facts("DECLARE r REAL\nRZ(r) 0\nZ 0\n")
        assert facts.qubits_before[2].get(0) is None

    def test_reset_restores_ground_state(self):
        ddg, facts = _start_facts("DECLARE r REAL\nRX(0.5) 0\nRESET 0\nH 0\n")
        assert facts.qubits_before[2].get(0) is None
        assert facts.qubits_before[3].get(0) == "Z+"

    def test_bare_reset_restores_all(self):
        ddg, facts = _start_facts("CNOT 0 1\nRESET\nX 0\nX 1\n")
        assert facts.qubits_before[2].get(0) == "Z+"
        assert facts.qubits_before[2].get(1) == "Z+"

    def test_measure_of_known_basis_state(self):
        ddg, facts = _start_facts(
            "DECLARE m BIT\nX 0\nMEASURE 0 m\nMOVE m m\n"
        )
        assert facts.cells_before[3].get(("m", "m", 0)) == 1
        assert facts.qubits_before[3].get(0) == "Z-"

    def test_measure_of_superposition(self):
        ddg, facts = _start_facts(
            "DECLARE m BIT\nH 0\nMEASURE 0 m\nMOVE m m\n"
        )
        assert facts.cells_before[3].get(("m", "m", 0)) is None
        assert facts.qubits_before[3].get(0) is None

    def test_facts_match_statevector(self):
        rng = random.Random(9)
        names = list(PAULI_TRANSITIONS) + ["RESET"]
        for _ in range(80):
            ops = [rng.choice(names) for _ in range(rng.randint(1, 12))]
            text = "\n".join(
                ("RESET 0" if name == "RESET" else f"{name} 0") for name in ops
            )
            ddgs = graphs.build_ddgs(ir.parse(text + "\n"))
            facts = analyses.constant_propagation(ddgs[0])
            state = STATE_VECTORS["Z+"].copy()
            for k, name in enumerate(ops):
                claimed = facts.qubits_before[k].get(0)
                assert claimed is not None
                assert _same_up_to_phase(state, STATE_VECTORS[claimed]), ops
                state = (
                    STATE_VECTORS["Z+"].copy()
                    if name == "RESET"
                    else UNITARIES[name] @ state
                )


class TestLiveness:
    def test_overwritten_writes_are_dead(self):
        text = (
            "DECLARE a INTEGER\nDECLARE b INTEGER\n"
            "MOVE a 3\nADD a 10\nMOVE b 7\nMOVE a 10\n"
        )
        ddgs = graphs.build_ddgs(ir.parse(text))
        result = analyses.live_variables(ddgs[0], readout=["a"])
        assert (3, ("m", "a", 0)) in result.dead_cells
        assert (4, ("m", "b", 0)) in result.dead_cells
        assert (2, ("m", "a", 0)) not in result.dead_cells
        assert (5, ("m", "a", 0)) not in result.dead_cells

    def test_readout_cells_live_at_end(self):
        ddgs = graphs.build_ddgs(ir.parse("DECLARE a INTEGER\nMOVE a 3\n"))
        result = analyses.live_variables(ddgs[0], readout=["a"])
        assert (1, ("m", "a", 0)) not in result.dead_cells
        dead = analyses.live_variables(ddgs[0], readout=[])
        assert (1, ("m", "a", 0)) in dead.dead_cells

    def test_rejects_trace_that_can_continue(self):
        ddgs = graphs.build_ddgs(fixture_program("rus"))
        for ddg in (d for d in ddgs if d.role is graphs.Role.HALT):
            with pytest.raises(ValueError):
                analyses.live_variables(ddg, readout=["ro"])

    def test_unstored_qubit_is_dead(self):
        ddgs = graphs.build_ddgs(fixture_program("teleportation"))
        halt2 = by_id(ddgs)["halt2"]
        result = analyses.live_variables(halt2, readout=["ro"])
        assert (12, 2) in result.dead_qubits
        assert all(token != ("m", "ro", 0) for _, token in result.dead_cells)

    def test_measured_qubit_is_live_above(self):
        text = "DECLARE m BIT\nH 0\nCNOT 0 1\nMEASURE 1 m\nHALT\n"
        ddgs = graphs.build_ddgs(ir.parse(text))
        result = analyses.live_variables(ddgs[0], readout=["m"])
        assert (1, 0) not in result.dead_qubits
        # The control line itself is unobserved after the entangling gate.
        assert (2, 0) in result.dead_qubits
        assert (2, 1) not in result.dead_qubits

    def test_reset_kills_qubit_liveness(self):
        text = "DECLARE m BIT\nH 0\nRESET 0\nMEASURE 0 m\nHALT\n"
        ddgs = graphs.build_ddgs(ir.parse(text))
        result = analyses.live_variables(ddgs[0], readout=["m"])
        assert (1, 0) in result.dead_qubits

    def test_terminating_traces_never_contain_conditional_jumps(self):
        # A conditional jump always ends its trace without ending the
        # program, so liveness never has to reason about branch conditions.
        rng = random.Random(8)
        for _ in range(60):
            program = random_program(rng)
            for ddg in graphs.build_ddgs(program):
                if not ddg.ends_program:
                    continue
                body = ddg.instructions
                assert not any(
                    isinstance(i, (ir.JumpWhen, ir.JumpUnless)) for i in body
                )

    def test_undeclared_readout_errors(self):
        ddgs = graphs.build_ddgs(ir.parse("DECLARE a INTEGER\nMOVE a 1\n"))
        with pytest.raises(ir.ValidationError):
            analyses.live_variables(ddgs[0], readout=["nope"])


class TestHybridDependencies:
    def test_measurement_feedback_chain(self):
        text = "DECLARE m INTEGER[1]\nH 0\nMEASURE 0 m\nRZ(m) 0\n"
        ddgs = graphs.build_ddgs(ir.parse(text))
        deps = analyses.find_hybrid_dependencies(ddgs[0])
        assert deps[3] == {2}
        assert deps[2] == {0, 1}

    def test_teleportation_start(self):
        ddgs = graphs.build_ddgs(fixture_program("teleportation"))
        deps = analyses.find_hybrid_dependencies(ddgs[0])
        assert deps[7] == {5}
        assert deps[6] == {1, 2, 3}
        assert deps[5] == {0, 2, 3, 4}

    def test_only_hybrids_have_entries(self):
        ddgs = graphs.build_ddgs(fixture_program("teleportation"))
        deps = analyses.find_hybrid_dependencies(ddgs[0])
        for pos in deps:
            instr = ddgs[0].program.instructions[pos]
            assert ir.device_class(instr) is ir.DeviceClass.HYBRID

    def test_deps_are_ancestors_and_cover_direct_preds(self):
        rng = random.Random(42)
        for _ in range(60):
            program = random_program(rng)
            for ddg in graphs.build_ddgs(program):
                deps = analyses.find_hybrid_dependencies(ddg)
                pred = predecessors(ddg)
                for pos, dep_set in deps.items():
                    assert dep_set <= ancestors(ddg, pos)
                    assert pred[pos] <= dep_set

    def test_ipe_start_walks_past_earlier_hybrids(self):
        # RZ(theta) 0 at 28 reaches H 0, X 1 and CZ 0 1 (6-8) along qubit
        # 1's gates, which pass MEASURE 0 m (10), and reaches that
        # measurement through theta's chain; both are deps of it.
        ddg = graphs.build_ddgs(fixture_program("ipe"))[0]
        deps = analyses.find_hybrid_dependencies(ddg)
        assert deps[28] == {2, 3, 4, 6, 7, 8, 10, *range(11, 28)}
        assert deps[40] == set(range(30, 40))
