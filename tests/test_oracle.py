"""Tests for the merged-configuration reference interpreter.

``reference_run`` is the earlier branch-per-outcome executor: one pure
statevector per branch, forked at every MEASURE and RESET and walked depth
first.  It shares the classical semantics with ``oracle`` but none of its
quantum state handling, and ``oracle.run`` must agree with it.
"""

import heapq
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quilopt import ir, oracle, transforms
from quilopt.fixtures import WORKLOADS, fixture_program

from conftest import random_program, random_retry_program


def _reference_apply(state, n, unitary, qubits):
    k = len(qubits)
    t = state.reshape([2] * n)
    t = np.moveaxis(t, qubits, range(k))
    shape = t.shape
    t = unitary @ t.reshape(2**k, -1)
    t = np.moveaxis(t.reshape(shape), range(k), qubits)
    return np.ascontiguousarray(t).reshape(-1)


def _outcome_probability(state, n, qubit, outcome):
    slice_ = np.take(state.reshape([2] * n), outcome, axis=qubit)
    return float(np.real(np.vdot(slice_, slice_)))


def _collapse(state, n, qubit, outcome, probability):
    t = state.reshape([2] * n).copy()
    index = [slice(None)] * n
    index[qubit] = 1 - outcome
    t[tuple(index)] = 0
    return t.reshape(-1) / math.sqrt(probability)


def reference_run(program, readout=None, *, max_steps=10_000, prune_epsilon=1e-12):
    """Branch-per-outcome execution; a branch whose probability is at most
    ``prune_epsilon`` or that runs ``max_steps`` instructions is truncated."""
    readout = program.readout(readout)
    n = oracle._qubit_count(program)
    kinds = {d.name: d.kind for d in program.regions.values()}
    labels = program.labels
    code = program.instructions
    initial = np.zeros(2**n, dtype=complex)
    initial[0] = 1.0

    probabilities: dict = {}
    truncated = 0.0
    # (statevector, memory, pc, probability, executed instruction count);
    # outcome-0 branches are pushed last so they are explored first.
    stack = [(initial, oracle._zero_memory(program), 0, 1.0, 0)]
    while stack:
        state, memory, pc, prob, steps = stack.pop()
        finished = False
        while pc < len(code):
            if steps >= max_steps:
                truncated += prob
                break
            instr = code[pc]
            steps += 1
            if isinstance(instr, (ir.Declare, ir.Label)):
                pc += 1
            elif isinstance(instr, ir.Classical):
                oracle._run_classical(instr, memory, kinds)
                pc += 1
            elif isinstance(instr, (ir.Gate, ir.ParamGate)):
                if isinstance(instr, ir.ParamGate):
                    theta = oracle._angle(oracle._read(memory, instr.params[0]), pc)
                    unitary = oracle.rotation_unitary(instr.name, theta)
                elif instr.params:
                    theta = float(instr.params[0])
                    unitary = oracle.rotation_unitary(instr.name, theta)
                else:
                    unitary = oracle.FIXED_UNITARIES[instr.name]
                state = _reference_apply(state, n, unitary, list(instr.qubits))
                pc += 1
            elif isinstance(instr, (ir.Measure, ir.Reset)):
                if isinstance(instr, ir.Measure) or instr.qubit is not None:
                    qubits = (instr.qubit,)
                else:
                    qubits = range(n)
                # (state, probability, outcome of the last qubit)
                branches = [(state, prob, None)]
                for q in qubits:
                    forked = []
                    for st, pr, _ in branches:
                        for outcome in (1, 0):
                            p = _outcome_probability(st, n, q, outcome)
                            if pr * p <= prune_epsilon:
                                truncated += pr * p
                                continue
                            child = _collapse(st, n, q, outcome, p)
                            if isinstance(instr, ir.Reset) and outcome == 1:
                                x = oracle.FIXED_UNITARIES["X"]
                                child = _reference_apply(child, n, x, [q])
                            forked.append((child, pr * p, outcome))
                    branches = forked
                for st, pr, outcome in branches:
                    child_memory = {r: list(v) for r, v in memory.items()}
                    if isinstance(instr, ir.Measure) and instr.target is not None:
                        oracle._write(child_memory, kinds, instr.target, outcome)
                    stack.append((st, child_memory, pc + 1, pr, steps))
                break
            elif isinstance(instr, ir.Jump):
                pc = labels[instr.target]
            elif isinstance(instr, ir.JumpWhen):
                taken = oracle._read(memory, instr.condition) != 0
                pc = labels[instr.target] if taken else pc + 1
            elif isinstance(instr, ir.JumpUnless):
                taken = oracle._read(memory, instr.condition) == 0
                pc = labels[instr.target] if taken else pc + 1
            elif isinstance(instr, ir.Halt):
                finished = True
                break
        else:
            finished = True
        if finished:
            key = oracle._readout_key(memory, readout)
            probabilities[key] = probabilities.get(key, 0.0) + prob
    return oracle.ReadoutDistribution(probabilities, truncated)


def _dist(text, readout=None, **kwargs):
    return oracle.run(ir.parse(text), readout, **kwargs)


def _key(**regions):
    return tuple((name, tuple(values)) for name, values in sorted(regions.items()))


class TestGates:
    def test_x_flips(self):
        d = _dist("DECLARE ro BIT\nX 0\nMEASURE 0 ro\n")
        assert d.probabilities == {_key(ro=(1,)): pytest.approx(1.0)}

    def test_h_splits_evenly(self):
        d = _dist("DECLARE ro BIT\nH 0\nMEASURE 0 ro\n")
        assert d.probabilities[_key(ro=(0,))] == pytest.approx(0.5)
        assert d.probabilities[_key(ro=(1,))] == pytest.approx(0.5)

    def test_cnot_entangles(self):
        d = _dist(
            "DECLARE ro BIT[2]\nH 0\nCNOT 0 1\n"
            "MEASURE 0 ro[0]\nMEASURE 1 ro[1]\n"
        )
        assert d.probabilities[_key(ro=(0, 0))] == pytest.approx(0.5)
        assert d.probabilities[_key(ro=(1, 1))] == pytest.approx(0.5)
        assert len(d.probabilities) == 2

    def test_rotation_gates(self):
        # RX(pi) acts as X up to phase.
        d = _dist("DECLARE ro BIT\nRX(3.141592653589793) 0\nMEASURE 0 ro\n")
        assert d.probabilities[_key(ro=(1,))] == pytest.approx(1.0)

    def test_param_gate_reads_memory(self):
        text = (
            "DECLARE theta REAL\nDECLARE ro BIT\n"
            "MOVE theta 3.141592653589793\nRY(theta) 0\nMEASURE 0 ro\n"
        )
        d = _dist(text, readout=["ro", "theta"])
        assert d.probabilities[_key(ro=(1,), theta=(3.141592653589793,))] == (
            pytest.approx(1.0)
        )

    def test_ccnot(self):
        d = _dist(
            "DECLARE ro BIT\nX 0\nX 1\nCCNOT 0 1 2\nMEASURE 2 ro\n"
        )
        assert d.probabilities == {_key(ro=(1,)): pytest.approx(1.0)}


class TestMeasurementAndReset:
    def test_measurement_collapses(self):
        # Measuring |+> then applying H again is not the identity.
        with_collapse = _dist("DECLARE ro BIT\nH 0\nMEASURE 0\nH 0\nMEASURE 0 ro\n")
        without = _dist("DECLARE ro BIT\nH 0\nH 0\nMEASURE 0 ro\n")
        assert with_collapse.probabilities[_key(ro=(1,))] == pytest.approx(0.5)
        assert without.probabilities == {_key(ro=(0,)): pytest.approx(1.0)}

    def test_reset_returns_to_ground(self):
        d = _dist("DECLARE ro BIT\nH 0\nRESET 0\nMEASURE 0 ro\n")
        assert d.probabilities == {_key(ro=(0,)): pytest.approx(1.0)}

    def test_reset_is_local_to_qubit(self):
        d = _dist(
            "DECLARE ro BIT\nH 0\nCNOT 0 1\nRESET 0\nMEASURE 1 ro\n"
        )
        assert d.probabilities[_key(ro=(0,))] == pytest.approx(0.5)
        assert d.probabilities[_key(ro=(1,))] == pytest.approx(0.5)

    def test_bare_reset_clears_everything(self):
        d = _dist("DECLARE ro BIT[2]\nH 0\nX 1\nRESET\nMEASURE 0 ro[0]\nMEASURE 1 ro[1]\n")
        assert d.probabilities == {_key(ro=(0, 0)): pytest.approx(1.0)}

    def test_measure_into_integer_region(self):
        d = _dist("DECLARE n INTEGER\nX 0\nMEASURE 0 n\n")
        assert d.probabilities == {_key(n=(1,)): pytest.approx(1.0)}


class TestClassical:
    def test_arithmetic_chain(self):
        text = (
            "DECLARE a INTEGER\nDECLARE r REAL\n"
            "MOVE a 7\nADD a 5\nMUL a 2\nSUB a 4\nDIV a 2\n"
            "MOVE r a\nDIV r 4\n"
        )
        d = _dist(text)
        assert d.probabilities == {_key(a=(10,), r=(2.5,)): pytest.approx(1.0)}

    def test_logic_and_unary(self):
        text = (
            "DECLARE b OCTET\nDECLARE f BIT\n"
            "MOVE b 12\nIOR b 3\nXOR b 5\nAND b 14\nNOT b\n"
            "MOVE f 1\nNOT f\nNEG f\n"
        )
        # 12|3=15, 15^5=10, 10&14=10, ~10&255=245; 1 -> 0 -> 0
        d = _dist(text)
        assert d.probabilities == {_key(b=(245,), f=(0,)): pytest.approx(1.0)}

    def test_exchange(self):
        text = "DECLARE a INTEGER[2]\nMOVE a[0] 3\nMOVE a[1] 9\nEXCHANGE a[0] a[1]\n"
        d = _dist(text)
        assert d.probabilities == {_key(a=(9, 3)): pytest.approx(1.0)}

    def test_division_by_zero_raises(self):
        with pytest.raises(oracle.OracleError):
            _dist("DECLARE a INTEGER\nDIV a 0\n")

    def test_angle_past_float_range_raises(self):
        text = (
            "DECLARE ro BIT\nDECLARE a INTEGER\nMOVE a 10\n"
            + "MUL a a\n" * 10
            + "RY(a) 0\nMEASURE 0 ro\n"
        )
        with pytest.raises(oracle.OracleError, match="position 13"):
            _dist(text)

    def test_non_finite_angle_raises(self):
        text = (
            "DECLARE ro BIT\nDECLARE t REAL\nMOVE t 1e300\nMUL t 1e300\n"
            "RY(t) 0\nMEASURE 0 ro\n"
        )
        with pytest.raises(oracle.OracleError, match="position 4"):
            _dist(text)

    def test_infinite_real_into_integer_raises(self):
        text = (
            "DECLARE ro INTEGER\nDECLARE t REAL\nMOVE t 1e300\nMUL t 1e300\n"
            "MOVE ro t\n"
        )
        with pytest.raises(oracle.OracleError, match="position 4"):
            _dist(text)

    def test_bit_add_into_real(self):
        # Measured bits may be accumulated directly into a REAL cell.
        text = (
            "DECLARE r REAL\nDECLARE m BIT\nX 0\nMEASURE 0 m\n"
            "MOVE r 0.5\nADD r m\n"
        )
        d = _dist(text, readout=["r"])
        assert d.probabilities == {_key(r=(1.5,)): pytest.approx(1.0)}


class TestControlFlow:
    def test_jump_skips(self):
        text = (
            "DECLARE a INTEGER\nJUMP @end\nMOVE a 5\nLABEL @end\nADD a 1\n"
        )
        d = _dist(text)
        assert d.probabilities == {_key(a=(1,)): pytest.approx(1.0)}

    def test_conditional_jump_both_ways(self):
        text = (
            "DECLARE m BIT\nDECLARE ro BIT\nH 0\nMEASURE 0 m\n"
            "JUMP-WHEN @set m\nJUMP @end\nLABEL @set\nMOVE ro 1\nLABEL @end\n"
        )
        d = _dist(text, readout=["ro"])
        assert d.probabilities[_key(ro=(0,))] == pytest.approx(0.5)
        assert d.probabilities[_key(ro=(1,))] == pytest.approx(0.5)

    def test_halt_stops_execution(self):
        text = "DECLARE a INTEGER\nMOVE a 1\nHALT\nMOVE a 2\n"
        d = _dist(text)
        assert d.probabilities == {_key(a=(1,)): pytest.approx(1.0)}

    def test_probabilistic_loop_terminates(self):
        # Retry until the measurement comes out 0; geometric decay.
        text = (
            "DECLARE f BIT\nDECLARE ro BIT\nLABEL @top\nH 0\nMEASURE 0 f\n"
            "JUMP-WHEN @top f\nMEASURE 0 ro\n"
        )
        d = _dist(text, readout=["ro"])
        assert d.probabilities[_key(ro=(0,))] == pytest.approx(1.0, abs=1e-9)
        assert d.truncated_mass < 1e-9

    def test_infinite_loop_truncates(self):
        d = _dist("DECLARE a BIT\nLABEL @spin\nJUMP @spin\n", max_steps=64)
        assert d.probabilities == {}
        assert d.truncated_mass == pytest.approx(1.0)

    def test_merged_configuration_keeps_the_larger_step_count(self):
        # The two outcomes reach @join with equal memory after 6 and 11
        # steps and merge; the merged configuration counts 11, so with a
        # budget of 13 the final MEASURE (step 14) truncates both halves.
        text = (
            "DECLARE m BIT\nDECLARE ro BIT\nH 0\nMEASURE 0 m\n"
            "JUMP-WHEN @long m\nJUMP @join\n"
            "LABEL @long\nI 0\nI 0\nI 0\nMOVE m 0\nJUMP @join\n"
            "LABEL @join\nX 1\nMEASURE 1 ro\n"
        )
        assert _dist(text, max_steps=13).truncated_mass == pytest.approx(1.0)
        full = _dist(text, max_steps=14)
        assert full.truncated_mass == 0.0
        assert full.probabilities == {_key(ro=(1,)): pytest.approx(1.0)}

    def test_prune_threshold_moves_mass(self):
        d = _dist("DECLARE ro BIT\nH 0\nMEASURE 0 ro\n", prune_epsilon=0.75)
        assert d.probabilities == {}
        assert d.truncated_mass == pytest.approx(1.0)


class TestDistributionProperties:
    def test_mass_conservation_on_random_programs(self):
        rng = random.Random(2024)
        for _ in range(60):
            program = random_program(rng)
            d = oracle.run(program)
            total = sum(d.probabilities.values()) + d.truncated_mass
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_determinism(self):
        program = fixture_program("teleportation")
        first = oracle.run(program)
        second = oracle.run(program)
        assert first.probabilities == second.probabilities
        assert first.truncated_mass == second.truncated_mass

    def test_qubit_limit(self):
        with pytest.raises(oracle.OracleError):
            _dist("DECLARE ro BIT\nX 11\nMEASURE 11 ro\n")

    def test_undeclared_readout(self):
        with pytest.raises(ir.ValidationError):
            _dist("DECLARE a BIT\nX 0\n", readout=["b"])

    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param({"prune_epsilon": math.nan}, id="nan-prune"),
            pytest.param({"prune_epsilon": -1.0}, id="negative-prune"),
            pytest.param({"max_steps": -5}, id="negative-max-steps"),
        ],
    )
    @pytest.mark.parametrize("check", ["run", "equivalent"])
    def test_bounds_are_checked(self, kwargs, check):
        program = ir.parse("DECLARE ro BIT\nH 0\nMEASURE 0 ro\n")
        with pytest.raises(ir.QuilError):
            if check == "run":
                oracle.run(program, **kwargs)
            else:
                oracle.equivalent(program, program, **kwargs)


class TestFixtures:
    def test_teleportation_is_deterministic_on_readout(self):
        # The classical fix-up guarantees both readout bits end up 0.
        d = oracle.run(fixture_program("teleportation"))
        assert d.probabilities == {_key(ro=(0, 0)): pytest.approx(1.0)}

    def test_rus_terminates(self):
        d = oracle.run(fixture_program("rus"))
        assert sum(d.probabilities.values()) == pytest.approx(1.0, abs=1e-9)
        assert d.truncated_mass < 1e-9


class TestEquivalence:
    def test_program_equivalent_to_itself(self):
        p = fixture_program("teleportation")
        ok, distance = oracle.equivalent(p, p)
        assert ok
        assert distance == 0.0

    def test_detects_difference(self):
        a = ir.parse("DECLARE ro BIT\nX 0\nMEASURE 0 ro\n")
        b = ir.parse("DECLARE ro BIT\nZ 0\nMEASURE 0 ro\n")
        ok, distance = oracle.equivalent(a, b)
        assert not ok
        assert distance == pytest.approx(1.0)

    def test_commuting_reorder_is_equivalent(self):
        a = ir.parse("DECLARE ro BIT\nDECLARE a INTEGER\nMOVE a 3\nX 0\nMEASURE 0 ro\n")
        b = ir.parse("DECLARE ro BIT\nDECLARE a INTEGER\nX 0\nMOVE a 3\nMEASURE 0 ro\n")
        ok, distance = oracle.equivalent(a, b, readout=["ro", "a"])
        assert ok
        assert distance == 0.0

    def test_readout_declaration_mismatch(self):
        a = ir.parse("DECLARE ro BIT[2]\nX 0\nMEASURE 0 ro[0]\n")
        b = ir.parse("DECLARE ro BIT\nX 0\nMEASURE 0 ro\n")
        with pytest.raises(ir.ValidationError):
            oracle.equivalent(a, b)


def _agree(program, tol, **kwargs):
    got = oracle.run(program, **kwargs)
    want = reference_run(program, **kwargs)
    assert got.distance(want) <= tol
    assert abs(got.truncated_mass - want.truncated_mass) <= tol
    return got


class TestReferenceAgreement:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_fixtures(self, name):
        # Without pruning, so the bound measures arithmetic.  Pruning drops
        # each outcome of at most 1e-12 on its own; in rus the two values
        # of the dead flag f1 merge at @done, reach that size one retry
        # later than the reference's separate branches, and leave half its
        # truncated mass (1.8e-12 against 3.6e-12).
        _agree(fixture_program(name), 1e-12, prune_epsilon=0.0)

    def test_random_programs(self):
        for seed in range(200):
            _agree(random_program(random.Random(seed)), 1e-9)

    def test_retry_loops(self):
        # The reference prunes every branch of at most 1e-12 separately,
        # thousands of them per program; merged configurations are pruned
        # as a whole, so the two differ by up to about 1e-10 here.
        for seed in range(100):
            _agree(random_retry_program(random.Random(seed)), 1e-9)

    @pytest.mark.parametrize(
        "text, kwargs",
        [
            pytest.param(
                "DECLARE ro BIT[2]\nH 0\nCNOT 0 1\nRY(0.4) 1\nRESET\nX 1\n"
                "MEASURE 0 ro[0]\nMEASURE 1 ro[1]\n",
                {},
                id="bare-reset",
            ),
            pytest.param(
                "DECLARE ro BIT\nX 0\nRESET 0\nMEASURE 0 ro\n", {}, id="reset-of-one"
            ),
            pytest.param(
                "DECLARE ro BIT\nH 0\nCNOT 0 1\nRESET 0\nH 0\nCNOT 0 1\n"
                "MEASURE 1 ro\n",
                {},
                id="reset-of-entangled",
            ),
            pytest.param(
                "DECLARE ro BIT\nDECLARE f BIT\nLABEL @top\nRESET 0\nRY(1.1) 0\n"
                "MEASURE 0 f\nJUMP-UNLESS @next f\nX 1\nMEASURE 1 ro\nHALT\n"
                "LABEL @next\nH 1\nMEASURE 1 ro\nJUMP-WHEN @top ro\n",
                {},
                id="halt-in-loop",
            ),
            pytest.param(
                "DECLARE a BIT\nLABEL @spin\nJUMP @spin\n",
                {"max_steps": 64},
                id="spin-loop",
            ),
            pytest.param(
                "DECLARE ro BIT\nH 0\nMEASURE 0 ro\n",
                {"prune_epsilon": 0.75},
                id="prune-everything",
            ),
        ],
    )
    def test_hand_written(self, text, kwargs):
        _agree(ir.parse(text), 1e-12, **kwargs)

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_same_verdict_for_every_pass(self, name):
        program = fixture_program(name)
        want = reference_run(program)
        for pass_name in transforms.PASS_PAIRS:
            optimized = transforms.apply_pass(program, pass_name)
            got = reference_run(optimized)
            reference_ok = (
                want.distance(got) <= 1e-9
                and want.truncated_mass <= 1e-9
                and got.truncated_mass <= 1e-9
            )
            ok, _ = oracle.equivalent(program, optimized)
            assert ok == reference_ok, pass_name


class TestFactor:
    def test_compact_refactors_exactly(self):
        rng = np.random.default_rng(7)
        wide = rng.normal(size=(4, 9)) + 1j * rng.normal(size=(4, 9))
        narrow = oracle._compact(wide, 4)
        assert narrow.shape == (4, 4)
        assert np.allclose(narrow @ narrow.conj().T, wide @ wide.conj().T, atol=1e-12)
        square = wide[:, :4]
        assert oracle._compact(square, 4) is square

    @pytest.mark.parametrize(
        "prepare, columns",
        [("", 1), ("X 0\n", 1), ("H 0\n", 2), ("H 0\nMEASURE 0\n", 2)],
    )
    def test_reset_leaves_out_zero_columns(self, prepare, columns, monkeypatch):
        # |0> and |1> each fill one block; |+> fills both; after an
        # untargeted measurement the two merged outcomes fill one each.
        widths = []
        reset = oracle._reset

        def recording_reset(factor, qubit):
            out = reset(factor, qubit)
            widths.append(out.shape[1])
            return out

        monkeypatch.setattr(oracle, "_reset", recording_reset)
        text = "DECLARE ro BIT\n" + prepare + "RESET 0\nMEASURE 0 ro\n"
        d = oracle.run(ir.parse(text))
        assert d.probabilities == {_key(ro=(0,)): pytest.approx(1.0)}
        assert widths == [columns]

    def test_never_wider_than_the_state_space(self, monkeypatch):
        widths = []  # (columns, 2**n) of every factor a gate is applied to
        compacted = []  # columns going into a compaction, against 2**n
        apply, compact = oracle._apply_unitary, oracle._compact

        def recording_apply(factor, n, unitary, qubits):
            widths.append((factor.shape[1], 2**n))
            return apply(factor, n, unitary, qubits)

        def recording_compact(factor, dim):
            compacted.append((factor.shape[1], dim))
            return compact(factor, dim)

        monkeypatch.setattr(oracle, "_apply_unitary", recording_apply)
        monkeypatch.setattr(oracle, "_compact", recording_compact)
        # Untargeted measurements merge both outcomes into one mixed
        # configuration, and the reset of a mixed qubit doubles its width.
        mixing = ir.parse(
            "DECLARE ro BIT\nH 0\nMEASURE 0\nRY(0.3) 0\nRESET 0\nRY(0.9) 0\n"
            "MEASURE 0\nRX(0.5) 0\nRESET 0\nH 0\nMEASURE 0 ro\n"
        )
        oracle.run(mixing)
        assert any(columns > dim for columns, dim in compacted)
        assert max(columns for columns, _ in widths) == 2
        programs = [random_retry_program(random.Random(s)) for s in range(30)]
        programs += [random_program(random.Random(s)) for s in range(60)]
        for program in programs:
            oracle.run(program)
        assert all(columns <= dim for columns, dim in widths)

    def test_chained_loops_merge_at_the_second_head(self, monkeypatch):
        # Every exit of the first loop reaches @b with the same memory, so
        # the second loop runs once on their merged state: gate work grows
        # with the sum of the two loops' iterations, not their product.
        program = ir.parse(
            "DECLARE ro BIT\nDECLARE f BIT[2]\n"
            "LABEL @a\nRESET 1\nH 1\nCNOT 1 0\nMEASURE 1 f[0]\nJUMP-WHEN @a f[0]\n"
            "LABEL @b\nRESET 1\nH 1\nCNOT 1 0\nMEASURE 1 f[1]\nJUMP-WHEN @b f[1]\n"
            "MEASURE 0 ro\n"
        )
        calls = []
        apply = oracle._apply_unitary

        def counting_apply(*args):
            calls.append(args)
            return apply(*args)

        monkeypatch.setattr(oracle, "_apply_unitary", counting_apply)
        _agree(program, 1e-9)
        # About 40 iterations per loop until a retry is below 1e-12.
        assert len(calls) <= 2 * 2 * 45

    def test_a_counter_read_only_inside_its_loop_does_not_split_the_next(
        self, monkeypatch
    ):
        # n counts the first loop's iterations, and nothing after that loop
        # reads it, so every exit reaches @b with n zeroed and the exits
        # merge there as in the test above: no second loop per exit.
        program = ir.parse(
            "DECLARE ro BIT\nDECLARE f BIT[2]\nDECLARE n INTEGER\n"
            "LABEL @a\nRESET 1\nH 1\nADD n 1\nCNOT 1 0\nMEASURE 1 f[0]\n"
            "JUMP-WHEN @a f[0]\n"
            "LABEL @b\nRESET 1\nH 1\nCNOT 1 0\nMEASURE 1 f[1]\nJUMP-WHEN @b f[1]\n"
            "MEASURE 0 ro\n"
        )
        calls = []
        apply = oracle._apply_unitary

        def counting_apply(*args):
            calls.append(args)
            return apply(*args)

        monkeypatch.setattr(oracle, "_apply_unitary", counting_apply)
        _agree(program, 1e-9)
        assert len(calls) <= 2 * 2 * 45

    def test_dead_cells(self):
        program = ir.parse(
            "DECLARE ro BIT\nDECLARE n INTEGER\nDECLARE x REAL\n"
            "MOVE x 0.5\nRX(x) 0\nADD n 1\nMOVE n 2\nMEASURE 0 ro\nHALT\n"
        )
        dead = [
            {(region, i) for region, start, stop, _ in runs for i in range(start, stop)}
            for runs in oracle._dead_cells(program, program.labels, {"ro"}, range(10)).values()
        ]
        # x is live from its MOVE to the RX that reads it; n is read only by
        # the ADD, which writes an n the MOVE overwrites, so n is faint
        # there and dead from the MOVE on; ro is read at the end and dead
        # before the MEASURE that writes it.
        assert ("x", 0) in dead[3] and ("x", 0) not in dead[4]
        assert ("x", 0) in dead[5]
        assert ("n", 0) in dead[5] and ("n", 0) in dead[6]
        assert ("ro", 0) in dead[7] and ("ro", 0) not in dead[8]
        assert dead[8] == dead[9] == {("n", 0), ("x", 0)}

    @staticmethod
    def _dead_at(program, pc):
        runs = oracle._dead_cells(program, program.labels, {"ro"}, [pc])[pc]
        return {(region, i) for region, start, stop, _ in runs for i in range(start, stop)}

    def test_a_div_divisor_stays_live(self):
        # Nothing reads q after the DIV, but DIV raises on a zero divisor,
        # so d is live after the MEASURE: zeroed there, it would divide by
        # 0.  Divided by a literal 2, which cannot raise, q is faint.
        program = ir.parse(
            "DECLARE ro BIT\nDECLARE d INTEGER\nDECLARE q INTEGER\n"
            "MOVE d 2\nH 0\nMEASURE 0 ro\nDIV q d\n"
        )
        assert ("d", 0) not in self._dead_at(program, 6)
        literal = ir.parse(ir.emit(program).replace("DIV q d", "DIV q 2"))
        assert {("d", 0), ("q", 0)} <= self._dead_at(literal, 6)
        assert oracle.run(program).probabilities == {
            _key(ro=(0,)): pytest.approx(0.5),
            _key(ro=(1,)): pytest.approx(0.5),
        }

    def test_a_real_moved_into_an_integer_stays_live(self):
        # k is never read, but MOVE k x converts x to an int, which raises
        # once x has overflowed to inf (the second iteration), so x stays
        # live at the loop head and the error is not zeroed away.
        program = ir.parse(
            "DECLARE ro BIT\nDECLARE x REAL\nDECLARE k INTEGER\nDECLARE f BIT\n"
            "MOVE x 10.0\nLABEL @loop\nMUL x 1e300\nH 1\nMEASURE 1 f\n"
            "JUMP-WHEN @loop f\nMOVE k x\nMEASURE 0 ro\n"
        )
        assert ("x", 0) not in self._dead_at(program, 5)
        assert ("k", 0) in self._dead_at(program, 5)
        with pytest.raises(oracle.OracleError, match="position 10"):
            oracle.run(program)

    def test_a_counter_only_its_own_updates_read_does_not_split_the_next_loop(
        self, monkeypatch
    ):
        # acc is read only by the SUBs that update it, so it is faint: every
        # exit of the first loop reaches @b with acc zeroed, and the second
        # loop runs once on their merged state, not once per exit.
        program = ir.parse(
            "DECLARE ro BIT\nDECLARE f BIT[2]\nDECLARE acc INTEGER\n"
            "LABEL @a\nRESET 1\nH 1\nSUB acc 5\nCNOT 1 0\nMEASURE 1 f[0]\n"
            "JUMP-WHEN @a f[0]\n"
            "LABEL @b\nRESET 1\nH 1\nSUB acc 8\nCNOT 1 0\nMEASURE 1 f[1]\n"
            "JUMP-WHEN @b f[1]\n"
            "MEASURE 0 ro\n"
        )
        calls = _count_gate_work(monkeypatch)
        _agree(program, 1e-9)
        assert len(calls) <= 2 * 2 * 45

    def test_dead_cells_are_zeroed_a_run_at_a_time(self):
        # One (region, start, stop) run for all two million cells of big,
        # zeroed by one slice assignment; one triple per cell took 498 MB.
        program = ir.parse(
            "DECLARE big BIT[2000000]\nDECLARE ro BIT[1]\nH 0\nMEASURE 0 ro[0]\n"
        )
        runs = oracle._dead_cells(program, program.labels, {"ro"}, [0, 4])
        assert runs == {
            0: [("big", 0, 2_000_000, 0), ("ro", 0, 1, 0)],
            4: [("big", 0, 2_000_000, 0)],
        }
        tracemalloc.start()
        try:
            d = oracle.run(program)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(d.probabilities.values()) == pytest.approx([0.5, 0.5])
        assert peak < 150_000_000

    def test_declared_cells_take_linear_memory(self):
        # Liveness keeps one bit per cell in shared bitsets, about 12 MB
        # here; one mask int per cell would be n**2 / 2 bits, over 150 MB.
        program = ir.parse(
            "DECLARE big BIT[50000]\nDECLARE ro BIT\nH 0\nMEASURE 0 ro\n"
        )
        tracemalloc.start()
        try:
            d = oracle.run(program)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(d.probabilities.values()) == pytest.approx([0.5, 0.5])
        assert peak < 40_000_000

    def test_outcomes_past_the_last_label_do_not_wait(self, monkeypatch):
        # Both loop bodies change REAL cells, so no two iterations share a
        # memory and nothing merges.  Run in pc order, the outcomes of the
        # final MEASURE would pile up (742 of them) until the second loop
        # had finished; depth first, few configurations are ever pending.
        program = ir.parse(
            "DECLARE ro BIT[2]\nDECLARE theta REAL[2]\nDECLARE flag BIT[2]\n"
            "RZ(1.25) 0\n"
            "LABEL @a\nRESET 2\nH 2\nADD theta[1] -0.228\nCNOT 1 0\nCNOT 2 0\n"
            "MEASURE 2 flag\nJUMP-WHEN @a flag\n"
            "LABEL @b\nRESET 2\nH 2\nDIV theta 3.818\nDIV theta[1] 2.666\n"
            "CNOT 2 0\nMEASURE 2 flag[1]\nJUMP-WHEN @b flag[1]\n"
            "MEASURE 1 ro\nMOVE ro[1] 1\n"
        )
        sizes = []

        class RecordingHeap:
            heappop = staticmethod(heapq.heappop)

            @staticmethod
            def heappush(heap, item):
                heapq.heappush(heap, item)
                sizes.append(len(heap))

        monkeypatch.setattr(oracle, "heapq", RecordingHeap)
        d = oracle.run(program)
        assert sum(d.probabilities.values()) + d.truncated_mass == pytest.approx(1.0)
        assert max(sizes) <= 100

    def test_ten_qubits_do_no_more_gate_work_than_the_reference(self, monkeypatch):
        # Every gate finds a pure state (one column), so the factored
        # kernel does the reference's arithmetic, once per gate.
        text = "DECLARE ro BIT[3]\n"
        text += "".join(f"H {q}\n" for q in range(10))
        text += "".join(f"CNOT {q} {q + 1}\n" for q in range(9))
        text += "".join(f"RZ({0.1 * (q + 1)!r}) {q}\n" for q in range(10))
        text += "".join(f"MEASURE {q} ro[{q}]\n" for q in range(3))
        program = ir.parse(text)
        columns, reference_calls = [], []
        apply, reference_apply = oracle._apply_unitary, _reference_apply

        def recording_apply(factor, n, unitary, qubits):
            columns.append(factor.shape[1])
            return apply(factor, n, unitary, qubits)

        def recording_reference_apply(state, n, unitary, qubits):
            reference_calls.append(qubits)
            return reference_apply(state, n, unitary, qubits)

        monkeypatch.setattr(oracle, "_apply_unitary", recording_apply)
        monkeypatch.setitem(globals(), "_reference_apply", recording_reference_apply)
        assert _agree(program, 1e-12).truncated_mass == 0.0
        assert len(reference_calls) == 29
        assert columns == [1] * 29


def _record_calls(monkeypatch, name):
    """Every call of ``oracle.<name>`` from now on, as its arguments."""
    calls = []
    function = getattr(oracle, name)

    def recording(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(oracle, name, recording)
    return calls


def _count_gate_work(monkeypatch):
    """Every ``_apply_unitary`` call from now on, as its arguments."""
    return _record_calls(monkeypatch, "_apply_unitary")


def _count_pops(monkeypatch):
    """Every configuration ``oracle.run`` pops from now on, as its heap
    entry."""
    pops = []

    class RecordingHeap:
        heappush = staticmethod(heapq.heappush)

        @staticmethod
        def heappop(heap):
            pops.append(heap[0])
            return heapq.heappop(heap)

    monkeypatch.setattr(oracle, "heapq", RecordingHeap)
    return pops


def _stepped(program, **kwargs):
    """``oracle.run`` with every step stepped: without transfers, nothing
    is replayed and no loop runs in place."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "REPLAY_MAX_QUBITS", -1)
        return oracle.run(program, **kwargs)


CHAINED_LOOPS = (
    "DECLARE ro BIT\nDECLARE f BIT[2]\n"
    "LABEL @a\nRESET 1\nH 1\nCNOT 1 0\nMEASURE 1 f[0]\nJUMP-WHEN @a f[0]\n"
    "LABEL @b\nRESET 1\nH 1\nCNOT 1 0\nMEASURE 1 f[1]\nJUMP-WHEN @b f[1]\n"
    "MEASURE 0 ro\n"
)


class TestReplay:
    def test_each_loop_body_is_stepped_at_most_twice(self, monkeypatch):
        # A retry stops at 1e-6 after about 20 iterations and at 1e-12 after
        # about 40.  Each loop head is stepped twice, the second time also
        # building its two Kraus operators, and replayed from then on, so
        # the gate work is the same for both bounds.  Per loop: 2 gates x 2
        # steps, the X of the reset and 2 gates x 2 operators.
        program = ir.parse(CHAINED_LOOPS)
        calls = _count_gate_work(monkeypatch)
        counts = []
        for prune in (1e-6, 1e-12):
            calls.clear()
            oracle.run(program, prune_epsilon=prune)
            counts.append(len(calls))
        assert counts == [18, 18]
        _agree(program, 1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        max_steps=st.integers(1, 200),
        prune_epsilon=st.sampled_from([0.0, 1e-12, 1e-4]),
    )
    def test_replay_agrees_with_stepping(self, seed, max_steps, prune_epsilon):
        # Small step budgets cut loops mid-step, where a key's transfer no
        # longer fits and the key is stepped instead; at 1e-4 a replayed
        # outcome is pruned several iterations earlier.  (The branch-per-
        # outcome reference is no yardstick there: a merged configuration
        # keeps the larger step count of its members, so it truncates
        # where the reference's separate branches do not.)
        program = random_retry_program(random.Random(seed))
        kwargs = {"max_steps": max_steps, "prune_epsilon": prune_epsilon}
        got = oracle.run(program, **kwargs)
        want = _stepped(program, **kwargs)
        assert got.distance(want) <= 1e-9
        assert abs(got.truncated_mass - want.truncated_mass) <= 1e-9

    @pytest.mark.parametrize(
        "text, calls",
        [
            pytest.param(
                "DECLARE ro BIT\nDECLARE f BIT\nH 0\nH 1\nH 2\nH 3\nH 4\n"
                "LABEL @retry\nRESET 5\nRY(1.1) 5\nCNOT 0 1\nT 2\nCNOT 3 4\n"
                "CNOT 5 4\nMEASURE 5 f\nJUMP-WHEN @retry f\nMEASURE 0 ro\n",
                115,
                id="above-the-qubit-bound",
            ),
            pytest.param(
                "DECLARE ro BIT\nDECLARE f BIT\n"
                "LABEL @retry\nRESET\nRY(1.1) 1\nH 0\nCNOT 1 0\n"
                "MEASURE 1 f\nJUMP-WHEN @retry f\nMEASURE 0 ro\n",
                66,
                id="bare-reset",
            ),
        ],
    )
    def test_what_is_never_replayed_does_todays_gate_work(
        self, text, calls, monkeypatch
    ):
        # The counts are those of the oracle before replay existed: one
        # gate application per gate per iteration, about 21 iterations.
        program = ir.parse(text)
        counted = _count_gate_work(monkeypatch)
        assert oracle.run(program).truncated_mass < 1e-9
        assert len(counted) == calls

    def test_transfers_take_bounded_memory(self):
        """Transfers take at most keys x outputs x operators x 4**n x 16
        bytes, and go when ``run`` returns.

        A three-bit counter in ro[0..2] steps on every retry and is read
        out after the loop, so the loop's keys cycle through its eight
        values: 39 keys at 5 qubits, the most that is replayed.  Each step
        has at most two outputs, and its one RESET gives two operators.
        """
        program = ir.parse(
            "DECLARE ro BIT[4]\nDECLARE f BIT\nDECLARE carry BIT\n"
            "H 0\nH 1\nCNOT 1 2\n"
            "LABEL @retry\nRESET 4\nRY(1.1) 4\nH 3\nCNOT 0 3\nT 1\nCNOT 2 0\n"
            "MOVE carry ro[1]\nAND carry ro[0]\nXOR ro[2] carry\n"
            "XOR ro[1] ro[0]\nNOT ro[0]\n"
            "CNOT 4 3\nMEASURE 4 f\nJUMP-WHEN @retry f\nMEASURE 3 ro[3]\n"
        )
        assert oracle._qubit_count(program) == oracle.REPLAY_MAX_QUBITS
        worst = 39 * 2 * 2 * 4**5 * 16  # about 2.6 MB
        tracemalloc.start()
        try:
            d = oracle.run(program)
            left, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(d.probabilities) == 14
        assert peak < worst
        assert left < 100_000  # the transfers went with the call


class TestInPlace:
    def test_superoperators_match_their_kraus_operators(self):
        rng = np.random.default_rng(0)
        dim = 4

        def stack(k):
            return rng.normal(size=(k, dim, dim)) + 1j * rng.normal(size=(k, dim, dim))

        first, second = stack(16), stack(16)
        rho = stack(1)[0]
        rho = rho @ rho.conj().T
        mapped = sum(k @ rho @ k.conj().T for k in first)
        superop = oracle._superop(first, dim)
        assert np.allclose(superop, sum(np.kron(k, k.conj()) for k in first))
        assert np.allclose(superop @ rho.reshape(-1), mapped.reshape(-1))
        assert np.isclose(oracle._trace_row(first, dim) @ rho.reshape(-1), np.trace(mapped))
        # 256 products, refactored to at most dim**2 operators of the same map.
        composed = oracle._compose(second, first, dim)
        products = (second[:, None] @ first[None]).reshape(-1, dim, dim)
        assert len(composed) <= dim * dim
        assert np.allclose(oracle._superop(composed, dim), oracle._superop(products, dim))
        # A rank-2 state and the zero state factor back exactly.
        v = stack(1)[0][:, :2]
        for state in (v @ v.conj().T, np.zeros((dim, dim))):
            factor = oracle._factor(state.reshape(-1), dim)
            assert factor.shape[1] <= 2
            assert np.allclose(factor @ factor.conj().T, state)

    def test_each_loop_runs_in_place_from_its_third_pop(self, monkeypatch):
        # Each loop head is stepped twice, the second time recording its
        # transfer and those of its outcomes, and runs every later iteration
        # in place at its third pop, however many there are: one pop for
        # the start, 3 per iteration of the first loop and 5 of the second
        # (its exit measures ro), so 1 + (3 + 3 + 1) + (5 + 5 + 1) at both
        # bounds, where iteration by iteration took 154 and 314 pops.
        program = ir.parse(CHAINED_LOOPS)
        pops = _count_pops(monkeypatch)
        counts = []
        for prune in (1e-6, 1e-12):
            pops.clear()
            oracle.run(program, prune_epsilon=prune)
            counts.append(len(pops))
        assert counts == [19, 19]

    def test_a_last_loop_whose_exit_measures_a_data_qubit_runs_in_place(
        self, monkeypatch
    ):
        # The shape of perfbench's retry programs: each exit of the loop
        # measures a data qubit into ro, so its step tree ends in readouts.
        program = ir.parse(
            "DECLARE ro BIT[2]\nDECLARE flag BIT\nH 0\nT 0\n"
            "LABEL @retry\nRESET 2\nH 2\nRX(0.7) 1\nCNOT 0 1\nCNOT 2 1\n"
            "MEASURE 2 flag\nJUMP-WHEN @retry flag\nMEASURE 1 ro\nMOVE ro[1] 1\n"
        )
        loops = _record_calls(monkeypatch, "_run_loop")
        d = _agree(program, 1e-9)
        assert len(d.probabilities) == 2
        assert len(loops) == 1
        events = loops[0][0].events
        assert sum(kind == oracle._READOUT for kind, *_ in events) == 2

    def test_above_the_loop_bound_loops_are_replayed(self, monkeypatch):
        text = CHAINED_LOOPS.replace("MEASURE 0 ro", "H 3\nCNOT 3 2\nMEASURE 0 ro")
        program = ir.parse(text)
        assert oracle._qubit_count(program) == oracle.LOOP_MAX_QUBITS + 1
        plans = _record_calls(monkeypatch, "_loop_plan")
        replays = _record_calls(monkeypatch, "_replay")
        _agree(program, 1e-9)
        assert plans == [] and len(replays) > 100

    def test_stepped_neither_replays_nor_runs_in_place(self, monkeypatch):
        program = ir.parse(CHAINED_LOOPS)
        transfers = _record_calls(monkeypatch, "_transfer")
        plans = _record_calls(monkeypatch, "_loop_plan")
        d = _stepped(program)
        assert transfers == [] and plans == []
        assert d.distance(oracle.run(program)) <= 1e-12

    def test_superoperators_take_bounded_memory(self, monkeypatch):
        """A loop head keeps at most leaves x 4**2n x 16 bytes, and they
        go when ``run`` returns.

        At 3 qubits, the most that runs in place, each superoperator is
        64 x 64 complex, 64 KiB.  The first loop keeps two (its way back
        and its exit), the second one (its exits end in readouts, which
        keep one trace row each).  Building one takes a second 64 KiB
        for a moment, and the transfers and factors take less than one.
        """
        program = ir.parse(
            "DECLARE ro BIT[2]\nDECLARE f BIT[2]\nH 0\nCNOT 0 1\n"
            "LABEL @a\nRESET 2\nRY(1.1) 2\nT 0\nCNOT 2 1\nMEASURE 2 f[0]\n"
            "JUMP-WHEN @a f[0]\n"
            "LABEL @b\nRESET 2\nRY(0.7) 2\nH 1\nCNOT 2 0\nMEASURE 2 f[1]\n"
            "JUMP-WHEN @b f[1]\nMEASURE 0 ro[0]\nMEASURE 1 ro[1]\n"
        )
        assert oracle._qubit_count(program) == oracle.LOOP_MAX_QUBITS
        superops = 3 * 4**6 * 16
        oracle.run(program)  # numpy's one-off set-up is not the oracle's
        loops = _record_calls(monkeypatch, "_run_loop")
        tracemalloc.start()
        try:
            d = oracle.run(program)
            in_place = len(loops)
            loops.clear()  # the recorded arguments hold the plans
            left, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(d.probabilities) == 4 and in_place == 2
        assert peak < 3 * superops
        assert left < 20_000  # the superoperators went with the call
