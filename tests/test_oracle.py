"""Tests for the branching-statevector reference interpreter."""

import random

import pytest

from quilopt import ir, oracle
from quilopt.fixtures import fixture_program

from conftest import random_program


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
