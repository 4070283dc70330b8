"""Tests for the optimization passes."""

import random
import sys

import pytest

from quilopt import graphs, ir, metrics, oracle, transforms
from quilopt.fixtures import WORKLOADS, fixture_program
from quilopt.transforms import PASS_PAIRS

from conftest import ancestors, predecessors, random_program, random_retry_program

# Same twelve-line workload as the metrics tests: two measurements with a
# classically parametrized rotation between them.
WALKTHROUGH = """\
DECLARE r REAL
DECLARE m BIT
H 0
Y 0
MEASURE 0 m
H 0
Z 0
MOVE r 2
RZ(r) 0
H 0
MEASURE 0 m
Z 0
"""


def _walls(program):
    return tuple(m.wall_time for m in metrics.report(program).per_ddg)


# ---------------------------------------------------------------------------
# constant folding


class TestConstantFold:
    def test_substitutes_known_source_operand(self):
        program = ir.parse(
            "DECLARE a INTEGER\nDECLARE b INTEGER\nMOVE b 10\nADD a b\n"
        )
        folded, notes = transforms.constant_fold(program)
        assert folded.instructions[3] == ir.Classical(
            "ADD", (ir.MemoryRef("a", 0), 10)
        )
        assert notes == ()

    def test_never_folds_to_a_non_finite_value(self):
        # 1e300 * 1e300 overflows to inf; folding it would emit "MOVE ro inf",
        # which does not parse back.
        program = ir.parse("DECLARE ro REAL\nMOVE ro 1e300\nMUL ro 1e300\n")
        folded, _ = transforms.constant_fold(program)
        assert folded == program
        assert ir.parse(ir.emit(folded)) == folded

    def test_infinite_real_into_integer_is_not_a_constant(self):
        program = ir.parse(
            "DECLARE t REAL\nDECLARE ro INTEGER\n"
            "MOVE t 1e300\nMUL t 1e300\nMOVE ro t\nADD ro 1\n"
        )
        folded, _ = transforms.constant_fold(program)
        assert folded == program

    def test_huge_integer_angle_is_not_folded(self):
        program = ir.parse(
            "DECLARE a INTEGER\nMOVE a 10\n" + "MUL a a\n" * 10 + "RY(a) 0\n"
        )
        folded, _ = transforms.constant_fold(program)
        assert isinstance(folded.instructions[-1], ir.ParamGate)
        assert ir.parse(ir.emit(folded)) == folded

    @pytest.fixture
    def default_digit_limit(self):
        """int <-> str conversion pinned at its default limit of 4,300
        digits, which Python before 3.10.7 lacks and PYTHONINTMAXSTRDIGITS=0
        turns off."""
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("int <-> str conversion has no digit limit here")
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield
        sys.set_int_max_str_digits(saved)

    def test_never_folds_to_an_integer_emit_cannot_write(self, default_digit_limit):
        # 10**(2**13) has 8,193 digits, past the 4,300 that int <-> str
        # conversion allows: the last square stays a MUL (of a by its
        # known 4,097-digit value), and nothing folds to its result.
        program = ir.parse(
            "DECLARE a INTEGER\nMOVE a 10\n" + "MUL a a\n" * 13
        )
        folded, _ = transforms.constant_fold(program)
        big = 10 ** (2**12)
        assert folded.instructions[-2] == ir.Classical(
            "MOVE", (ir.MemoryRef("a", 0), big)
        )
        assert folded.instructions[-1] == ir.Classical(
            "MUL", (ir.MemoryRef("a", 0), big)
        )
        assert ir.parse(ir.emit(folded)) == folded

    def test_all_constant_operation_becomes_move(self):
        program = ir.parse(
            "DECLARE a INTEGER\nDECLARE b INTEGER\n"
            "MOVE a 5\nMOVE b 7\nADD a b\n"
        )
        folded, _ = transforms.constant_fold(program)
        assert folded.instructions[4] == ir.Classical(
            "MOVE", (ir.MemoryRef("a", 0), 12)
        )

    def test_unary_with_known_value_becomes_move(self):
        program = ir.parse("DECLARE a INTEGER\nMOVE a 5\nNEG a\n")
        folded, _ = transforms.constant_fold(program)
        assert folded.instructions[2] == ir.Classical(
            "MOVE", (ir.MemoryRef("a", 0), -5)
        )

    def test_result_respects_region_kind(self):
        # OCTET arithmetic wraps: (300 & 255) + 20 = 64.
        program = ir.parse("DECLARE s OCTET\nMOVE s 300\nADD s 20\n")
        folded, _ = transforms.constant_fold(program)
        assert folded.instructions[2] == ir.Classical(
            "MOVE", (ir.MemoryRef("s", 0), 64)
        )

    def test_parametrized_gate_becomes_plain_gate(self):
        program = ir.parse("DECLARE r REAL\nMOVE r 2\nRZ(r) 0\n")
        folded, _ = transforms.constant_fold(program)
        gate = folded.instructions[2]
        assert gate == ir.Gate("RZ", (2.0,), (0,))
        assert ir.device_class(gate) is ir.DeviceClass.QUANTUM

    def test_unknown_param_stays_parametrized(self):
        program = ir.parse("DECLARE r REAL[2]\nMOVE r 1\nRX(r[1]) 0\n")
        folded, _ = transforms.constant_fold(program)
        assert folded.instructions[2] == program.instructions[2]

    def test_division_by_known_zero_is_reported_not_rewritten(self):
        program = ir.parse(
            "DECLARE a INTEGER\nDECLARE b INTEGER\n"
            "MOVE a 4\nMOVE b 0\nDIV a b\n"
        )
        folded, notes = transforms.constant_fold(program)
        assert folded.instructions[4] == ir.Classical(
            "DIV", (ir.MemoryRef("a", 0), 0)
        )
        assert [(n.position, n.message) for n in notes] == [
            (4, "division by zero")
        ]

    def test_exchange_is_never_rewritten(self):
        program = ir.parse(
            "DECLARE a INTEGER[2]\nMOVE a 1\nMOVE a[1] 2\nEXCHANGE a a[1]\n"
        )
        folded, _ = transforms.constant_fold(program)
        assert folded.instructions[3] == program.instructions[3]

    def test_conditional_jumps_and_measures_untouched(self):
        program = ir.parse(
            "DECLARE m BIT\nMOVE m 1\nJUMP-WHEN @end m\nX 0\n"
            "LABEL @end\nMEASURE 0 m\n"
        )
        folded, _ = transforms.constant_fold(program)
        assert folded.instructions[2] == program.instructions[2]
        assert folded.instructions[5] == program.instructions[5]

    def test_uses_facts_from_before_the_instruction(self):
        program = ir.parse("DECLARE a INTEGER\nDECLARE b INTEGER\nADD a b\nMOVE b 3\n")
        folded, _ = transforms.constant_fold(program)
        assert folded.instructions[2] == program.instructions[2]

    def test_facts_do_not_survive_a_join(self):
        # The label is a jump target, so values known before it cannot be
        # trusted after it.
        program = ir.parse(
            "DECLARE a INTEGER\nDECLARE m BIT\nMOVE a 3\n"
            "LABEL @top\nADD a 1\nMEASURE 0 m\nJUMP-WHEN @top m\n"
        )
        folded, _ = transforms.constant_fold(program)
        assert folded.instructions[4] == program.instructions[4]

    def test_positions_shared_between_traces_are_left_alone(self):
        # Both the fall-through and the jump-target trace run the final ADD;
        # only the fall-through path knows a value for it.
        program = ir.parse(
            "DECLARE a INTEGER\nDECLARE m BIT\nMEASURE 0 m\n"
            "JUMP-WHEN @skip m\nMOVE a 7\nLABEL @skip\nADD a 1\n"
        )
        folded, _ = transforms.constant_fold(program)
        assert folded.instructions == program.instructions

    def test_never_deletes_and_preserves_counts(self):
        program = ir.parse(WALKTHROUGH)
        folded, _ = transforms.constant_fold(program)
        assert len(folded) == len(program)
        report = metrics.report(folded)
        assert report.qin == metrics.report(program).qin == 9
        assert report.total_wall_time == 9
        assert report.qct == 9

    def test_facts_survive_a_later_declare(self):
        # A DECLARE does nothing at run time: the MOVE above it still holds.
        program = ir.parse("MOVE a 5\nDECLARE a INTEGER\nADD a 1\n")
        out, _ = transforms.constant_fold(program)
        assert out == ir.parse("MOVE a 5\nDECLARE a INTEGER\nMOVE a 6\n")

    def test_idempotent(self):
        rng = random.Random(2024)
        programs = [ir.parse(WALKTHROUGH), fixture_program("teleportation")]
        programs += [random_program(rng) for _ in range(40)]
        for program in programs:
            once, _ = transforms.constant_fold(program)
            twice, _ = transforms.constant_fold(once)
            assert twice == once


# ---------------------------------------------------------------------------
# dead code elimination


class TestDeadCodeElim:
    def test_removes_overwritten_and_unread_writes(self):
        program = ir.parse(
            "DECLARE a INTEGER\nDECLARE b INTEGER\n"
            "MOVE a 3\nADD a 10\nMOVE b 7\nMOVE a 10\n"
        )
        out = transforms.dead_code_elim(program, readout=["a"])
        assert out == ir.parse("DECLARE a INTEGER\nMOVE a 3\nMOVE a 10\n")

    def test_keeps_declare_of_readout_region_even_if_unwritten(self):
        program = ir.parse("DECLARE ro BIT\nDECLARE a INTEGER\nMOVE a 1\n")
        out = transforms.dead_code_elim(program, readout=["ro"])
        assert out == ir.parse("DECLARE ro BIT\n")

    def test_removes_gate_on_dead_qubit(self):
        program = fixture_program("teleportation")
        out = transforms.dead_code_elim(program)
        removed = set(program.instructions) - set(out.instructions)
        assert removed == {ir.Gate("X", (), (2,))}
        assert len(out) == len(program) - 1

    def test_teleportation_metrics_after_cleanup(self):
        out = transforms.dead_code_elim(fixture_program("teleportation"))
        report = metrics.report(out)
        assert _walls(out) == (6, 2, 1)
        assert report.qin == 8
        assert report.qct == 10

    def test_measure_with_dead_target_and_qubit_is_removed(self):
        program = ir.parse("DECLARE ro BIT\nDECLARE t BIT\nX 0\nMEASURE 0 t\nMOVE ro 1\n")
        out = transforms.dead_code_elim(program, readout=["ro"])
        # One pass at a time: the discarded measurement keeps its qubit live
        # above it, so X 0 survives until the measure is gone.
        assert out == ir.parse("DECLARE ro BIT\nX 0\nMOVE ro 1\n")
        again = transforms.dead_code_elim(out, readout=["ro"])
        assert again == ir.parse("DECLARE ro BIT\nMOVE ro 1\n")

    def test_stored_measure_with_live_target_is_kept(self):
        program = ir.parse("DECLARE ro BIT\nX 0\nMEASURE 0 ro\n")
        out = transforms.dead_code_elim(program)
        assert out == program

    def test_reset_and_control_never_removed(self):
        program = ir.parse(
            "DECLARE ro BIT\nRESET 3\nJUMP @end\nLABEL @end\nMOVE ro 1\nHALT\n"
        )
        out = transforms.dead_code_elim(program)
        assert out == program

    def test_traces_that_can_continue_are_skipped(self):
        # Every terminating trace of this workload ends at a conditional
        # jump, so nothing is provably dead.
        program = fixture_program("rus")
        assert transforms.dead_code_elim(program, readout=["ro"]) == program

    def test_shared_positions_need_every_trace_to_agree(self):
        # MOVE a 1 runs on both paths; the jump-target trace still reads a.
        program = ir.parse(
            "DECLARE ro BIT\nDECLARE a INTEGER\nMEASURE 0 ro\n"
            "JUMP-WHEN @use ro\nMOVE a 1\nLABEL @use\nMOVE a 2\nMOVE ro a\n"
        )
        out = transforms.dead_code_elim(program)
        assert ir.Classical("MOVE", (ir.MemoryRef("a", 0), 2)) in out.instructions

    def test_declare_after_a_write_is_not_a_write(self):
        program = ir.parse("MOVE ro 1\nDECLARE ro BIT\n")
        out = transforms.dead_code_elim(program)
        assert out == program
        ok, distance = oracle.equivalent(program, out)
        assert ok, f"readout changed by {distance}"

    def test_preserves_semantics_on_random_programs(self):
        rng = random.Random(4242)
        for _ in range(40):
            program = random_program(rng)
            out = transforms.dead_code_elim(program)
            ok, distance = oracle.equivalent(program, out, readout=["ro"])
            assert ok, f"readout changed by {distance}"


# ---------------------------------------------------------------------------
# dependency-balanced reordering


class TestReorder:
    def test_walkthrough_interleaves_devices(self):
        program = ir.parse(WALKTHROUGH)
        out = transforms.reorder_instructions(program)
        order = [1, 2, 3, 0, 4, 5, 6, 7, 8, 9, 10, 11]
        assert out.instructions == tuple(program.instructions[i] for i in order)
        assert metrics.report(out).total_wall_time == 9

    def test_teleportation_start_balances_declares(self):
        program = fixture_program("teleportation")
        out = transforms.reorder_instructions(program)
        expected = ir.parse(
            "DECLARE m BIT\nH 1\nCNOT 1 2\nCNOT 0 1\nDECLARE ro BIT[2]\n"
            "MEASURE 1 m\nMEASURE 2 ro[0]\nJUMP-WHEN @fix m\n"
            "MEASURE 0 ro[1]\nHALT\nLABEL @fix\nX 2\nNOT ro[0]\n"
        )
        assert out == expected
        assert _walls(out) == (6, 2, 1)

    def test_terminating_jump_stays_terminal(self):
        program = fixture_program("rus")
        out = transforms.reorder_instructions(program)
        assert isinstance(out.instructions[11], ir.JumpUnless)
        assert isinstance(out.instructions[24], ir.JumpWhen)
        assert out.instructions[13] == ir.Label("retry")
        assert out.instructions[17] == ir.Label("done")

    def test_rus_metrics_are_stable(self):
        program = fixture_program("rus")
        out = transforms.reorder_instructions(program)
        assert _walls(out) == (9, 10, 9, 6)
        report = metrics.report(out)
        assert report.qin == 34
        assert report.qct == 35
        ok, distance = oracle.equivalent(program, out)
        assert ok, f"readout changed by {distance}"

    def test_matches_ancestor_walk_reference(self):
        programs = [fixture_program(name) for name in WORKLOADS]
        programs += [random_program(random.Random(seed)) for seed in range(200)]
        programs += [random_retry_program(random.Random(seed)) for seed in range(100)]
        for program in programs:
            for ddg in graphs.build_ddgs(program):
                assert transforms._order_balanced(ddg) == (
                    _reference_balanced(ddg)
                ), (program, ddg.id)


def _terminator(ddg):
    """The trace's last position when a jump or halt pins it there."""
    last = ddg.path[-1]
    control = (ir.JumpWhen, ir.JumpUnless, ir.Halt)
    return last if isinstance(ddg.program.instructions[last], control) else None


def _reference_balanced(ddg):
    """The balanced order with each target's pending dependencies found by
    walking ``ddg.edges`` back through all of its ancestors, and each
    balancing pick by checking its direct predecessors."""
    terminator = _terminator(ddg)
    path = list(ddg.path)
    rank = {pos: i for i, pos in enumerate(path)}
    cls = {pos: ir.device_class(ddg.program.instructions[pos]) for pos in path}
    pred = predecessors(ddg)
    relevant = [
        p for p in path if cls[p] is ir.DeviceClass.HYBRID and p != terminator
    ]
    if path[-1] != terminator and path[-1] not in relevant:
        relevant.append(path[-1])
    queued: list[int] = []

    def executable(kind):
        return next(
            (
                p
                for p in path
                if p not in queued
                and p != terminator
                and cls[p] is kind
                and all(a in queued for a in pred[p])
            ),
            None,
        )

    for target in relevant:
        if target in queued:
            continue
        deps = sorted(ancestors(ddg, target) - set(queued), key=rank.__getitem__)
        queued += deps
        counts = {kind: sum(cls[p] is kind for p in deps) for kind in ir.DeviceClass}
        quantum, classical = ir.DeviceClass.QUANTUM, ir.DeviceClass.CLASSICAL
        while counts[quantum] != counts[classical]:
            lagging = classical if counts[quantum] > counts[classical] else quantum
            pick = executable(lagging)
            if pick is None:
                break
            queued.append(pick)
            counts[lagging] += 1
        queued.append(target)
    queued += [p for p in path if p not in queued and p != terminator]
    if terminator is not None:
        queued.append(terminator)
    return queued


# ---------------------------------------------------------------------------
# latest possible quantum execution


class TestLatestQuantum:
    def test_classical_prelude_moves_before_first_gate(self):
        program = ir.parse(
            "DECLARE m BIT\nDECLARE a INTEGER\nDECLARE b INTEGER\n"
            "H 0\nMOVE a 1\nMOVE b 2\nMEASURE 0 m\n"
        )
        out = transforms.latest_possible_quantum(program)
        assert out == ir.parse(
            "DECLARE m BIT\nDECLARE a INTEGER\nDECLARE b INTEGER\n"
            "MOVE a 1\nMOVE b 2\nH 0\nMEASURE 0 m\n"
        )

    def test_no_hybrid_segment_groups_classical_first(self):
        program = ir.parse("DECLARE a INTEGER\nX 0\nMOVE a 1\nY 0\n")
        out = transforms.latest_possible_quantum(program)
        assert out == ir.parse("DECLARE a INTEGER\nMOVE a 1\nX 0\nY 0\n")

    def test_walkthrough_can_get_worse(self):
        # Pulling the rotation's operand forward delays every later gate:
        # this workload pays one extra step, which is acceptable — the
        # experiment harness samples pass sequences instead of trusting
        # any single one.
        program = ir.parse(WALKTHROUGH)
        out = transforms.latest_possible_quantum(program)
        order = [0, 1, 7, 2, 3, 4, 5, 6, 8, 9, 10, 11]
        assert out.instructions == tuple(program.instructions[i] for i in order)
        assert metrics.report(out).total_wall_time == 10

    def test_rus_metrics_are_stable(self):
        program = fixture_program("rus")
        out = transforms.latest_possible_quantum(program)
        assert _walls(out) == (9, 10, 9, 6)
        ok, distance = oracle.equivalent(program, out)
        assert ok, f"readout changed by {distance}"

    def test_matches_ancestor_walk_reference(self):
        for seed in range(200):
            for ddg in graphs.build_ddgs(random_program(random.Random(seed))):
                assert transforms._order_latest_quantum(ddg) == (
                    _reference_latest_quantum(ddg)
                ), (seed, ddg.id)


def _reference_latest_quantum(ddg):
    """The latest-quantum order with its front found by walking every
    classical node's ancestors (quadratic in the trace)."""
    path = list(ddg.path)
    cls = {p: ir.device_class(ddg.program.instructions[p]) for p in path}
    hybrids = [i for i, p in enumerate(path) if cls[p] is ir.DeviceClass.HYBRID]
    if not hybrids:
        return [p for p in path if cls[p] is ir.DeviceClass.CLASSICAL] + [
            p for p in path if cls[p] is ir.DeviceClass.QUANTUM
        ]
    front = [
        p
        for p in path
        if cls[p] is ir.DeviceClass.CLASSICAL
        and all(cls[a] is ir.DeviceClass.CLASSICAL for a in ancestors(ddg, p))
    ]
    prefix = [
        p
        for p in path[: hybrids[0]]
        if p not in front and cls[p] is ir.DeviceClass.QUANTUM
    ]
    return front + prefix + [p for p in path if p not in front + prefix]


# ---------------------------------------------------------------------------
# structural properties shared by every pass


def _assert_topological(ddg, order):
    assert sorted(order) == sorted(ddg.path)
    index = {pos: i for i, pos in enumerate(order)}
    for u, v in ddg.edges:
        assert index[u] < index[v]


class TestPassProperties:
    @pytest.mark.parametrize(
        "order_segment",
        [transforms._order_balanced, transforms._order_latest_quantum],
        ids=["balanced", "latest-quantum"],
    )
    def test_orders_respect_dependencies(self, order_segment):
        rng = random.Random(99)
        for _ in range(150):
            program = random_program(rng)
            for ddg in graphs.build_ddgs(program):
                order = order_segment(ddg)
                _assert_topological(ddg, order)
                terminator = _terminator(ddg)
                if terminator is not None:
                    assert order[-1] == terminator

    @pytest.mark.parametrize("name", sorted(PASS_PAIRS))
    def test_structure_is_preserved(self, name):
        rng = random.Random(31337)
        for _ in range(60):
            program = random_program(rng)
            out = transforms.apply_pass(program, name, readout=["ro"])
            ir.validate(out)
            before = graphs.build_ddgs(program)
            after = graphs.build_ddgs(out)
            if name == "liveness-dce":
                # Removals may leave a trace empty, which drops it.
                assert len(after) <= len(before)
            else:
                assert len(after) == len(before)
                assert [d.role for d in after] == [d.role for d in before]
            if name == "const-prop-fold":
                assert len(out) == len(program)
            elif name in ("hybrid-deps-reorder", "hybrid-deps-latest-quantum"):
                assert sorted(map(ir.instruction_text, out.instructions)) == sorted(
                    map(ir.instruction_text, program.instructions)
                )

    @pytest.mark.parametrize("name", sorted(PASS_PAIRS))
    def test_readout_is_preserved(self, name):
        rng = random.Random(name)
        for _ in range(25):
            program = random_program(rng)
            out = transforms.apply_pass(program, name, readout=["ro"])
            ok, distance = oracle.equivalent(program, out, readout=["ro"])
            assert ok, f"{name} changed the readout by {distance}"

    def test_pass_sequences_preserve_readout(self):
        rng = random.Random(777)
        names = sorted(PASS_PAIRS)
        for _ in range(10):
            program = random_program(rng)
            current = program
            for _ in range(8):
                current = transforms.apply_pass(
                    current, rng.choice(names), readout=["ro"]
                )
            ok, distance = oracle.equivalent(program, current, readout=["ro"])
            assert ok, f"pipeline changed the readout by {distance}"

    def test_unknown_pass_name(self):
        with pytest.raises(ValueError, match="unknown pass"):
            transforms.apply_pass(ir.Program(), "speed-up")

    def test_apply_passes_runs_in_order(self):
        program = ir.parse("DECLARE ro BIT\nDECLARE a INTEGER\nMOVE a 2\nMOVE ro 1\n")
        out = transforms.apply_passes(
            program, ["const-prop-fold", "liveness-dce"], readout=["ro"]
        )
        assert out == ir.parse("DECLARE ro BIT\nMOVE ro 1\n")
