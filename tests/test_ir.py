"""Parser, emitter, classification, and resource-model tests."""

import random

import pytest

from conftest import random_program
from quilopt import ir
from quilopt.ir import DeviceClass


def parse_one(line, prelude=""):
    program = ir.parse(prelude + line + "\n")
    return program.instructions[-1]


class TestParsing:
    def test_declare_forms(self):
        p = ir.parse("DECLARE ro BIT[2]\nDECLARE flag BIT\nDECLARE x REAL[3]\n")
        assert p.instructions[0] == ir.Declare("ro", "BIT", 2)
        assert p.instructions[1] == ir.Declare("flag", "BIT", 1)
        assert p.instructions[2] == ir.Declare("x", "REAL", 3)

    def test_gate_with_literal_parameter_is_plain_gate(self):
        instr = parse_one("RZ(1.57) 0")
        assert instr == ir.Gate("RZ", (1.57,), (0,))

    def test_gate_with_memory_parameter_is_param_gate(self):
        instr = parse_one("RZ(theta) 0", prelude="DECLARE theta REAL\n")
        assert instr == ir.ParamGate("RZ", (ir.MemoryRef("theta", 0),), (0,))

    def test_indexed_memory_parameter(self):
        instr = parse_one("RX(theta[1]) 2", prelude="DECLARE theta REAL[2]\n")
        assert instr == ir.ParamGate("RX", (ir.MemoryRef("theta", 1),), (2,))

    def test_measure_with_and_without_target(self):
        p = ir.parse("DECLARE m BIT\nMEASURE 0 m\nMEASURE 1\n")
        assert p.instructions[1] == ir.Measure(0, ir.MemoryRef("m", 0))
        assert p.instructions[2] == ir.Measure(1, None)

    def test_reset_forms(self):
        p = ir.parse("RESET 3\nRESET\n")
        assert p.instructions[0] == ir.Reset(3)
        assert p.instructions[1] == ir.Reset(None)

    def test_control_flow(self):
        text = (
            "DECLARE c BIT\n"
            "LABEL @top\n"
            "JUMP-WHEN @top c\n"
            "JUMP-UNLESS @end c\n"
            "LABEL @end\n"
            "JUMP @end\n"
            "HALT\n"
        )
        p = ir.parse(text)
        assert p.instructions[1] == ir.Label("top")
        assert p.instructions[2] == ir.JumpWhen("top", ir.MemoryRef("c", 0))
        assert p.instructions[3] == ir.JumpUnless("end", ir.MemoryRef("c", 0))
        assert p.instructions[5] == ir.Jump("end")
        assert p.instructions[6] == ir.Halt()

    def test_classical_literal_stays_int_or_float(self):
        p = ir.parse("DECLARE a INTEGER\nADD a 10\nMUL a 2.5\n")
        assert p.instructions[1].operands[1] == 10
        assert isinstance(p.instructions[1].operands[1], int)
        assert p.instructions[2].operands[1] == 2.5

    def test_comments_and_blank_lines_are_skipped(self):
        p = ir.parse("# header\n\nX 0  # flip\n\n")
        assert p.instructions == (ir.Gate("X", (), (0,)),)

    def test_labels_map(self):
        p = ir.parse("LABEL @a\nX 0\nLABEL @b\n")
        assert p.labels == {"a": 0, "b": 2}

    def test_regions_and_labels_are_cached_read_only_views(self):
        p = ir.parse("DECLARE ro BIT\nLABEL @a\nX 0\n")
        assert p.regions is p.regions and p.labels is p.labels
        with pytest.raises(TypeError):
            p.regions["ro"] = ir.Declare("ro", "INTEGER", 1)
        with pytest.raises(TypeError):
            p.labels["a"] = 2
        assert p == ir.parse("DECLARE ro BIT\nLABEL @a\nX 0\n")
        assert hash(p) == hash(ir.parse("DECLARE ro BIT\nLABEL @a\nX 0\n"))


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "FOO 0",
            "H 0 1",          # wrong qubit arity
            "CNOT 0",          # wrong qubit arity
            "RZ 0",            # missing required parameter
            "RZ(0.1, 0.2) 0",  # too many parameters
            "H(0.1) 0",        # parameter on a parameterless gate
            "SWAP 1 1",        # duplicate qubit operands
            "CNOT 0 q",        # bad qubit token
            "DECLARE ro FLOAT",
            "DECLARE ro BIT[0]",
            "DECLARE ro",
            "HALT now",
            "MEASURE",
            "JUMP top",        # missing @ prefix
            "MOVE 3 4",        # destination must be a memory cell
            "H \u00b2",        # a digit to str.isdigit(), not to int()
            "RESET \u00b9",
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(ir.ParseError):
            ir.parse(text + "\n")

    @pytest.mark.parametrize(
        "template",
        [
            "H {}",
            "DECLARE a BIT\nMOVE a[{}] 1",
            "DECLARE a INTEGER\nMOVE a -{}",
            "DECLARE a BIT[{}]",
        ],
    )
    def test_integer_past_the_digit_limit(self, template, default_digit_limit):
        with pytest.raises(ir.ParseError, match="characters is too long"):
            ir.parse(template.format("1" * 5000) + "\n")

    def test_error_carries_line_number(self):
        with pytest.raises(ir.ParseError, match="line 3"):
            ir.parse("X 0\nY 0\nBOGUS 0\n")

    @pytest.mark.parametrize(
        "text",
        [
            "MOVE a 1",                          # undeclared region
            "DECLARE a BIT\nMOVE a[1] 1",        # index out of range
            "DECLARE a BIT\nDECLARE a BIT",      # duplicate region
            "LABEL @x\nLABEL @x",                # duplicate label
            "JUMP @nowhere",                     # undefined target
            "DECLARE c BIT\nJUMP-WHEN @gone c",  # undefined target
        ],
    )
    def test_validation_rejected(self, text):
        with pytest.raises(ir.ValidationError):
            ir.parse(text + "\n")


class TestClassification:
    def test_literal_gate_is_quantum(self):
        assert ir.device_class(ir.Gate("RZ", (1.57,), (0,))) == DeviceClass.QUANTUM
        assert ir.device_class(ir.Gate("H", (), (0,))) == DeviceClass.QUANTUM

    def test_param_gate_is_hybrid(self):
        instr = ir.ParamGate("RZ", (ir.MemoryRef("r", 0),), (0,))
        assert ir.device_class(instr) == DeviceClass.HYBRID

    def test_classical_side(self):
        assert ir.device_class(ir.Declare("a", "BIT", 1)) == DeviceClass.CLASSICAL
        move = ir.Classical("MOVE", (ir.MemoryRef("a", 0), 1))
        assert ir.device_class(move) == DeviceClass.CLASSICAL

    @pytest.mark.parametrize(
        "instr",
        [
            ir.Measure(0, None),
            ir.Reset(None),
            ir.Label("l"),
            ir.Jump("l"),
            ir.JumpWhen("l", ir.MemoryRef("c", 0)),
            ir.JumpUnless("l", ir.MemoryRef("c", 0)),
            ir.Halt(),
        ],
    )
    def test_everything_else_is_hybrid(self, instr):
        assert ir.device_class(instr) == DeviceClass.HYBRID


class TestResources:
    def test_gate_reads_and_writes_its_qubits(self):
        r = ir.resources(ir.Gate("CNOT", (), (0, 1)))
        assert r.reads == {("q", 0), ("q", 1)}
        assert r.writes == {("q", 0), ("q", 1)}

    def test_param_gate_also_reads_its_cells(self):
        r = ir.resources(ir.ParamGate("RZ", (ir.MemoryRef("t", 1),), (2,)))
        assert r.reads == {("q", 2), ("m", "t", 1)}
        assert r.writes == {("q", 2)}

    def test_move_reads_source_writes_dest(self):
        r = ir.resources(ir.Classical("MOVE", (ir.MemoryRef("a", 0), ir.MemoryRef("b", 0))))
        assert r.reads == {("m", "b", 0)}
        assert r.writes == {("m", "a", 0)}
        r = ir.resources(ir.Classical("MOVE", (ir.MemoryRef("a", 0), 7)))
        assert r.reads == frozenset()

    def test_add_reads_and_writes_dest(self):
        r = ir.resources(ir.Classical("ADD", (ir.MemoryRef("a", 0), 10)))
        assert r.reads == {("m", "a", 0)}
        assert r.writes == {("m", "a", 0)}

    def test_exchange_touches_both(self):
        r = ir.resources(
            ir.Classical("EXCHANGE", (ir.MemoryRef("a", 0), ir.MemoryRef("a", 1)))
        )
        assert r.reads == {("m", "a", 0), ("m", "a", 1)}
        assert r.writes == {("m", "a", 0), ("m", "a", 1)}

    def test_unary_reads_and_writes(self):
        r = ir.resources(ir.Classical("NOT", (ir.MemoryRef("a", 0),)))
        assert r.reads == r.writes == {("m", "a", 0)}

    def test_measure(self):
        r = ir.resources(ir.Measure(0, ir.MemoryRef("m", 0)))
        assert r.reads == {("q", 0)}
        assert r.writes == {("q", 0), ("m", "m", 0)}
        r = ir.resources(ir.Measure(0, None))
        assert r.writes == {("q", 0)}

    def test_declare_writes_whole_region(self):
        r = ir.resources(ir.Declare("x", "BIT", 3))
        assert r.writes == {("m", "x", 0), ("m", "x", 1), ("m", "x", 2)}
        assert r.reads == frozenset()

    def test_conditional_jump_reads_condition(self):
        r = ir.resources(ir.JumpWhen("l", ir.MemoryRef("c", 1)))
        assert r.reads == {("m", "c", 1)}
        assert r.writes == frozenset()

    def test_markers_have_no_resources(self):
        for instr in (ir.Label("l"), ir.Jump("l"), ir.Halt()):
            r = ir.resources(instr)
            assert r.reads == r.writes == frozenset()

    def test_bare_reset_conflicts_with_any_qubit(self):
        bare = ir.resources(ir.Reset(None))
        assert bare.writes == {ir.WILDCARD_QUBIT}
        assert ir.conflicts(bare, ir.resources(ir.Gate("X", (), (5,))))
        assert ir.conflicts(bare, ir.resources(ir.Reset(None)))
        move = ir.resources(ir.Classical("MOVE", (ir.MemoryRef("a", 0), 1)))
        assert not ir.conflicts(bare, move)

    def test_conflicts(self):
        x0 = ir.resources(ir.Gate("X", (), (0,)))
        x1 = ir.resources(ir.Gate("X", (), (1,)))
        assert ir.conflicts(x0, x0)
        assert not ir.conflicts(x0, x1)
        # write/read through memory
        move = ir.resources(ir.Classical("MOVE", (ir.MemoryRef("a", 0), 1)))
        jw = ir.resources(ir.JumpWhen("l", ir.MemoryRef("a", 0)))
        assert ir.conflicts(move, jw)
        # two pure readers of the same cell do not conflict
        jw2 = ir.resources(ir.JumpUnless("l", ir.MemoryRef("a", 0)))
        assert not ir.conflicts(jw, jw2)


class TestEmit:
    def test_canonical_text(self):
        text = (
            "DECLARE ro BIT[2]\n"
            "DECLARE t REAL\n"
            "H 0\n"
            "RZ(1.57) 0\n"
            "RZ(t) 1\n"
            "MOVE ro[1] 1\n"
            "MEASURE 0 ro\n"
            "JUMP-WHEN @end ro[1]\n"
            "RESET\n"
            "LABEL @end\n"
            "HALT\n"
        )
        assert ir.emit(ir.parse(text)) == text

    def test_index_zero_emits_bare_name(self):
        p = ir.parse("DECLARE m BIT[2]\nMEASURE 0 m[0]\n")
        assert "MEASURE 0 m\n" in ir.emit(p)

    def test_empty_program(self):
        assert ir.emit(ir.Program()) == ""

    @pytest.mark.parametrize(
        "text",
        ["RZ(1e400) 0", "RX(-1e309) 0", "DECLARE a REAL\nMOVE a 1e400",
         "DECLARE a REAL\nADD a -2e308"],
    )
    def test_non_finite_literal_is_rejected(self, text):
        # float() would read these as inf, which emits as "inf" and parses
        # back as an undeclared region: the round trip would break.
        with pytest.raises(ir.ParseError, match="out of the float range"):
            ir.parse(text + "\n")

    def test_largest_finite_literal_round_trips(self):
        program = ir.parse("DECLARE a REAL\nRZ(1.7e308) 0\nMOVE a -1.7e308\n")
        assert ir.parse(ir.emit(program)) == program

    def test_round_trip_random_programs(self):
        for seed in range(200):
            program = random_program(random.Random(seed))
            assert ir.parse(ir.emit(program)) == program


class TestProgram:
    def test_default_readout_prefers_ro(self):
        p = ir.parse("DECLARE ro BIT\nDECLARE tmp BIT\n")
        assert p.readout() == frozenset({"ro"})

    def test_default_readout_falls_back_to_all(self):
        p = ir.parse("DECLARE a BIT\nDECLARE b BIT\n")
        assert p.readout() == frozenset({"a", "b"})
        assert ir.Program().readout() == frozenset()

    def test_readout_names_must_be_declared(self):
        p = ir.parse("DECLARE ro BIT\nDECLARE tmp BIT\n")
        assert p.readout(["tmp"]) == frozenset({"tmp"})
        assert p.readout([]) == frozenset()
        with pytest.raises(ir.ValidationError, match="'nope' is not declared"):
            p.readout(["ro", "nope"])

    def test_qubits_are_every_named_index_ascending(self):
        p = ir.parse("DECLARE ro BIT\nH 3\nCNOT 3 1\nRESET\nMEASURE 5 ro\nRESET 0\n")
        assert p.qubits == (0, 1, 3, 5)
        assert ir.Program().qubits == ()

    def test_successors(self):
        p = ir.parse(
            "DECLARE c BIT\n"       # 0
            "LABEL @top\n"          # 1
            "H 0\n"                 # 2
            "JUMP-WHEN @end c\n"    # 3
            "JUMP-UNLESS @top c\n"  # 4
            "JUMP @end\n"           # 5
            "HALT\n"                # 6
            "LABEL @end\n"          # 7
        )
        assert p.successors == (
            (1,), (2,), (3,), (7, 4), (1, 5), (7,), (8,), (8,)
        )
        assert p.successors is p.successors
        assert ir.Program().successors == ()

    def test_len(self):
        assert len(ir.parse("X 0\nY 0\n")) == 2

    def test_equal_programs_hash_equal_and_share_a_key(self):
        text = "DECLARE ro BIT\nH 0\nMEASURE 0 ro\n"
        first, second = ir.parse(text), ir.parse(text)
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert hash(first) == hash(first)  # cached after the first call
        assert {first: 1, second: 2} == {first: 2}
        assert first != ir.parse("DECLARE ro BIT\nX 0\nMEASURE 0 ro\n")
