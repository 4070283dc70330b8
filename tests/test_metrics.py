"""Tests for the two-clock schedule metrics."""

import random

import pytest

from quilopt import graphs, ir, metrics
from quilopt.fixtures import WORKLOADS, fixture_program

from conftest import random_program


# Twelve-instruction walkthrough with hybrids in the middle of the trace:
# two classical and two quantum instructions before the first measurement,
# a parametrized rotation fed from classical memory, and a trailing gate.
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

BRANCHY = """\
DECLARE m BIT
H 0
MEASURE 0 m
JUMP-WHEN @label m
Y 0
LABEL @label
Z 0
MEASURE 0 m
"""


def _mk(text):
    return graphs.build_ddgs(ir.parse(text))


class TestSimulate:
    def test_empty(self):
        s = metrics.simulate([])
        assert s.wall == 0
        assert not s.has_hybrid
        assert s.quantum_tail == 0

    def test_parallel_classical_quantum(self):
        # CPU and QPU advance independently; the makespan is the max.
        p = ir.parse("DECLARE a INTEGER\nMOVE a 1\nADD a 2\nH 0\n")
        assert metrics.simulate(p.instructions).wall == 3

    def test_hybrid_synchronizes(self):
        p = ir.parse("DECLARE a INTEGER\nH 0\nX 0\nMEASURE 0 a\n")
        # cpu=1, qpu=2, measure -> max(1, 2) + 1 = 3
        assert metrics.simulate(p.instructions).wall == 3

    def test_all_hybrid_sequence_walls_n(self):
        p = ir.parse("DECLARE a BIT\n" + "MEASURE 0 a\n" * 5)
        assert metrics.simulate(p.instructions[1:]).wall == 5

    def test_labels_are_free(self):
        p = ir.parse("LABEL @a\nH 0\nLABEL @b\nX 0\n")
        assert metrics.simulate(p.instructions).wall == 2

    def test_prefix_and_tail_counters(self):
        p = ir.parse(WALKTHROUGH)
        s = metrics.simulate(p.instructions)
        assert s.classical_before_first_hybrid == 2
        assert s.quantum_before_first_hybrid == 2
        assert s.end_of_last_hybrid == 8
        assert s.quantum_after_last_hybrid == 1
        assert s.wall == 9

    def test_wall_bounds(self):
        rng = random.Random(77)
        for _ in range(60):
            p = random_program(rng, max_jumps=0)
            body = [i for i in p.instructions if not isinstance(i, ir.Label)]
            counts = {cls: 0 for cls in ir.DeviceClass}
            for instr in body:
                counts[ir.device_class(instr)] += 1
            wall = metrics.simulate(p.instructions).wall
            lower = (
                max(counts[ir.DeviceClass.CLASSICAL], counts[ir.DeviceClass.QUANTUM])
                + counts[ir.DeviceClass.HYBRID]
            )
            assert lower <= wall <= len(body)


class TestWallTimes:
    def test_walkthrough(self):
        assert metrics.simulate(ir.parse(WALKTHROUGH).instructions).wall == 9

    def test_branchy_per_segment(self):
        ddgs = _mk(BRANCHY)
        assert [metrics.simulate(d.instructions).wall for d in ddgs] == [3, 3, 2]

    def test_teleportation(self):
        rep = metrics.report(fixture_program("teleportation"))
        assert tuple(s.wall_time for s in rep.per_ddg) == (6, 2, 1)
        assert rep.total_wall_time == 9

    def test_rus(self):
        rep = metrics.report(fixture_program("rus"))
        assert tuple(s.wall_time for s in rep.per_ddg) == (9, 10, 9, 6)
        assert rep.total_wall_time == 34


class TestQin:
    def test_classical_only(self):
        assert metrics.report(ir.parse("DECLARE a INTEGER\nMOVE a 3\n")).qin == 0

    def test_counts_hybrids(self):
        assert metrics.report(ir.parse("DECLARE m BIT\nH 0\nMEASURE 0 m\n")).qin == 2

    def test_branchy(self):
        assert metrics.report(ir.parse(BRANCHY)).qin == 8

    def test_teleportation(self):
        assert metrics.report(fixture_program("teleportation")).qin == 9

    def test_rus(self):
        assert metrics.report(fixture_program("rus")).qin == 34


class TestQct:
    def test_empty_program(self):
        assert metrics.report(ir.parse("")).qct == 0

    def test_classical_only(self):
        assert metrics.report(ir.parse("DECLARE a INTEGER\nMOVE a 1\nADD a 2\n")).qct == 0

    def test_no_hybrid_equals_quantum_count(self):
        assert metrics.report(ir.parse("H 0\nX 0\nZ 1\n")).qct == 3

    def test_hybrid_only_holds_qpu(self):
        # No quantum prefix: the idle QPU anchors the span at time zero and
        # is then held through the final synchronization.
        assert metrics.report(ir.parse("DECLARE m BIT\nMEASURE 0 m\nHALT\n")).qct == 3

    def test_walkthrough_breakdown(self):
        ddgs = _mk(WALKTHROUGH)
        b = metrics.qct_breakdown(
            ddgs, [metrics.simulate(d.instructions) for d in ddgs]
        )
        assert b["n_q_before"] == 2
        assert b["delta_t_between"] == 6
        assert b["n_q_after"] == 1
        assert b["total"] == 9

    def test_branchy(self):
        assert metrics.report(ir.parse(BRANCHY)).qct == 8

    def test_teleportation_worst_case(self):
        assert metrics.report(fixture_program("teleportation")).qct == 10

    def test_rus(self):
        assert metrics.report(fixture_program("rus")).qct == 35

    def test_qct_at_least_quantum_tail_path(self):
        # QCT can never be below the plain quantum count of the start trace.
        rng = random.Random(31)
        for _ in range(40):
            p = random_program(rng, max_jumps=2)
            start = metrics.simulate(graphs.build_ddgs(p)[0].instructions)
            assert metrics.report(p).qct >= min(
                start.quantum, start.quantum_before_first_hybrid
            )


class TestReport:
    def test_teleportation_table(self):
        rep = metrics.report(fixture_program("teleportation"))
        assert tuple(s.instr_count for s in rep.per_ddg) == (8, 2, 2)
        assert tuple(s.wall_time for s in rep.per_ddg) == (6, 2, 1)
        assert rep.qin == 9
        assert rep.qct == 10
        assert rep.instr_total == 12

    def test_rus_table(self):
        rep = metrics.report(fixture_program("rus"))
        assert tuple(s.instr_count for s in rep.per_ddg) == (12, 11, 10, 7)
        assert tuple(s.wall_time for s in rep.per_ddg) == (9, 10, 9, 6)
        assert rep.qin == 34
        assert rep.qct == 35
        assert rep.instr_total == 40

    def test_dict_shape(self):
        rep = metrics.report(ir.parse(BRANCHY))
        d = rep.to_dict()
        assert set(d) == {"per_ddg", "total_wall_time", "qin", "qct"}
        assert [e["id"] for e in d["per_ddg"]] == ["start", "halt1", "halt2"]
        assert all(
            set(e) == {"id", "role", "instr_count", "wall_time"}
            for e in d["per_ddg"]
        )
        assert d["per_ddg"][0]["role"] == "start"

    def test_total_is_sum(self):
        rng = random.Random(5)
        for _ in range(30):
            rep = metrics.report(random_program(rng))
            assert rep.total_wall_time == sum(s.wall_time for s in rep.per_ddg)
            assert rep.instr_total == sum(s.instr_count for s in rep.per_ddg)

    def test_schedules_each_trace_once(self, monkeypatch):
        calls = []
        simulate = metrics.simulate

        def counting_simulate(sequence):
            calls.append(1)
            return simulate(sequence)

        monkeypatch.setattr(metrics, "simulate", counting_simulate)
        for name in WORKLOADS:
            program = fixture_program(name)
            traces = len(graphs.build_ddgs(program))
            calls.clear()
            metrics.report(program)
            assert len(calls) == traces, name

    def test_empty_program(self):
        rep = metrics.report(ir.Program())
        assert tuple(s.instr_count for s in rep.per_ddg) == (0,)
        assert rep.total_wall_time == 0
        assert rep.qin == 0
        assert rep.qct == 0
