"""Acceptance suite: one test per shipped guarantee.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line
per guarantee.  Each test states its tolerance and runtime budget inline;
the workload-table test intentionally reports every mismatched clause in
one message rather than stopping at the first.
"""

import random
import time
from collections import Counter, defaultdict, deque

import numpy as np
import pytest

from quilopt import analyses, graphs, harness, ir, metrics, oracle, transforms
from quilopt.fixtures import WORKLOADS, fixture_program

from conftest import random_program

# Twelve-instruction schedule walkthrough: two classical declares, two
# gates, then measurements around a classically parameterized rotation.
SCHEDULE_EXAMPLE = """\
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

# A conditional jump that splits one program into three traces.
THREE_TRACE_EXAMPLE = """\
DECLARE m BIT
H 0
MEASURE 0 m
JUMP-WHEN @label m
Y 0
LABEL @label
Z 0
MEASURE 0 m
"""

FEEDBACK_EXAMPLE = """\
DECLARE m INTEGER[1]
H 0
MEASURE 0 m
RZ(m) 0
"""


def test_schedule_breakdown_of_walkthrough():
    """QCT decomposition of the twelve-line example; exact, < 1 s."""
    start = time.monotonic()
    ddgs = graphs.build_ddgs(ir.parse(SCHEDULE_EXAMPLE))
    breakdown = metrics.qct_breakdown(
        ddgs, [metrics.simulate(d.instructions) for d in ddgs]
    )
    assert breakdown["n_q_before"] == 2
    assert breakdown["delta_t_between"] == 6
    assert breakdown["n_q_after"] == 1
    assert breakdown["total"] == 9
    assert time.monotonic() - start < 1.0


def test_three_trace_dependency_graphs():
    """Trace split and per-trace dependency edges; exact structure."""
    program = ir.parse(THREE_TRACE_EXAMPLE)
    ddgs = graphs.build_ddgs(program)
    assert [d.id for d in ddgs] == ["start", "halt1", "halt2"]

    def texts(ddg):
        return [ir.instruction_text(program.instructions[p]) for p in ddg.path]

    start, halt1, halt2 = ddgs
    # Start trace: four nodes; the measurement depends on the declare and
    # the gate, the conditional jump on the measurement.
    assert texts(start) == ["DECLARE m BIT", "H 0", "MEASURE 0 m", "JUMP-WHEN @label m"]
    assert start.edges == {(0, 2), (1, 2), (2, 3)}
    # Fall-through trace: Y -> Z -> MEASURE chain.
    assert texts(halt1) == ["Y 0", "Z 0", "MEASURE 0 m"]
    assert halt1.edges == {(4, 6), (6, 7)}
    # Jump-target trace: Z -> MEASURE chain.
    assert texts(halt2) == ["Z 0", "MEASURE 0 m"]
    assert halt2.edges == {(6, 7)}


def test_feedback_chain_hybrid_dependencies():
    """Hybrid instructions report exactly their blocking ancestors."""
    program = ir.parse(FEEDBACK_EXAMPLE)
    deps = analyses.find_hybrid_dependencies(graphs.build_ddgs(program)[0])
    # Positions: 0 DECLARE, 1 H 0, 2 MEASURE 0 m, 3 RZ(m) 0.
    assert deps[3] == {2}
    assert deps[2] == {0, 1}
    assert set(deps) == {2, 3}


def test_pauli_transitions_match_unitary_simulation():
    """All 36 tracked-gate transitions agree with dense 2x2 unitaries."""
    start = time.monotonic()
    eigenvectors = {
        "Z+": np.array([1, 0], dtype=complex),
        "Z-": np.array([0, 1], dtype=complex),
        "X+": np.array([1, 1], dtype=complex) / np.sqrt(2),
        "X-": np.array([1, -1], dtype=complex) / np.sqrt(2),
        "Y+": np.array([1, 1j], dtype=complex) / np.sqrt(2),
        "Y-": np.array([1, -1j], dtype=complex) / np.sqrt(2),
    }
    checked = 0
    for gate in ("I", "X", "Y", "Z", "H", "S"):
        unitary = oracle.FIXED_UNITARIES[gate]
        for state, vector in eigenvectors.items():
            image = unitary @ vector
            matches = [
                name
                for name, candidate in eigenvectors.items()
                if abs(np.vdot(candidate, image)) == pytest.approx(1.0, abs=1e-12)
            ]
            assert len(matches) == 1, f"{gate} on {state} left the Pauli basis"
            assert analyses.PAULI_TRANSITIONS[gate][state] == matches[0]
            checked += 1
    assert checked == 36
    assert time.monotonic() - start < 1.0


def test_constant_fold_rewrites():
    """Known-operand folding: literal substitution and full evaluation."""
    a = ir.MemoryRef("a", 0)
    partial = ir.parse(
        "DECLARE a INTEGER\nDECLARE b INTEGER\nMOVE b 10\nADD a b\nHALT\n"
    )
    folded = transforms.constant_fold(partial)
    assert folded.instructions[3] == ir.Classical("ADD", (a, 10))

    full = ir.parse(
        "DECLARE a INTEGER\nDECLARE b INTEGER\nMOVE a 5\nMOVE b 7\nADD a b\nHALT\n"
    )
    folded = transforms.constant_fold(full)
    assert folded.instructions[4] == ir.Classical("MOVE", (a, 12))


def test_passes_preserve_readout_distributions():
    """Total-variation distance <= 1e-9 for every pass and random
    25-pass sequences, on the workloads and 200 random programs; < 10 min."""
    start = time.monotonic()

    def check(program, label, readout=None):
        for name in harness.PAIR_NAMES:
            ok, distance = oracle.equivalent(
                program, transforms.apply_pass(program, name, readout), readout
            )
            assert ok, f"{name} changed {label} readout by {distance:.3e}"

    for name in WORKLOADS:
        program = fixture_program(name)
        check(program, name)
        for run in range(3):
            sequence = harness.draw_sequence(seed=100, run=run, pairs=25)
            ok, distance = oracle.equivalent(
                program, transforms.apply_passes(program, sequence)
            )
            assert ok, f"sequence {run} changed {name} readout by {distance:.3e}"

    rng = random.Random(1729)
    for index in range(200):
        program = random_program(rng)
        check(program, f"random program {index}", readout=["ro"])
        sequence = [rng.choice(harness.PAIR_NAMES) for _ in range(25)]
        ok, distance = oracle.equivalent(
            program, transforms.apply_passes(program, sequence, ["ro"]), ["ro"]
        )
        assert ok, (
            f"25-pass sequence changed random program {index} "
            f"readout by {distance:.3e}"
        )

    assert time.monotonic() - start < 600.0


def _profile(program):
    report = metrics.report(program)
    return (
        tuple(s.instr_count for s in report.per_ddg),
        tuple(s.wall_time for s in report.per_ddg),
        report.qin,
        report.qct,
    )


def test_workload_optimization_results():
    """Frozen grand tour of the four workloads: exact starting metrics,
    then 500 seeded 25-pass experiment runs per workload; < 5 min.

    Every mismatched clause is reported.  One deviation is expected and
    deliberate: any teleportation program with this exact starting
    profile must place one gate after the readout of its trace (a
    two-instruction trace with wall time 1 forces a classical/quantum
    pair, and a trailing gate that no later measurement observes), so
    dead-code elimination removes that gate.  Instruction count and QIN
    therefore improve, while wall times and QCT stay put.  See
    README.md for the full argument.
    """
    start = time.monotonic()
    failures = []

    def clause(condition, message):
        if not condition:
            failures.append(message)

    expected_initial = {
        "teleportation": ((8, 2, 2), (6, 2, 1), 9, 10),
        "rus": ((12, 11, 10, 7), (9, 10, 9, 6), 34, 35),
        "msd": ((67, 63, 6), (62, 62, 6), 66, 130),
        "ipe": ((55,), (45,), 25, 33),
    }
    programs = {name: fixture_program(name) for name in WORKLOADS}
    for name, expected in expected_initial.items():
        clause(
            _profile(programs[name]) == expected,
            f"{name} starting profile {_profile(programs[name])} != {expected}",
        )

    results = {
        name: harness.run_experiment(programs[name], runs=500, pairs=25, seed=0)
        for name in WORKLOADS
    }

    # Iterative phase estimation: best run and modal-tuple frequency.
    ipe = results["ipe"]
    clause(
        ipe.best == (35, 51, 25, 30),
        f"ipe best {tuple(ipe.best)} != (35, 51, 25, 30)",
    )
    modal_pct = 100.0 * ipe.modal[1] / ipe.runs
    clause(
        39.2 <= modal_pct <= 59.2,
        f"ipe modal tuple frequency {modal_pct:.1f}% outside 49.2% +/- 10",
    )

    # Magic-state distillation: every run lands on the same improved
    # metrics; the reordered program's per-trace wall times drop to
    # (53, 53, 6) while instruction count and QIN stay put.
    msd = results["msd"]
    clause(
        msd.table == ((harness.MetricsVector(112, 136, 66, 112), 500),),
        f"msd table {msd.table} != one row (112, 136, 66, 112) x500",
    )
    reordered = transforms.reorder_instructions(programs["msd"])
    clause(
        _profile(reordered) == ((67, 63, 6), (53, 53, 6), 66, 112),
        f"msd reordered profile {_profile(reordered)}",
    )

    # Teleportation and repeat-until-success: no change expected.
    for name in ("teleportation", "rus"):
        clause(
            results[name].best == results[name].initial,
            f"{name} best {tuple(results[name].best)} != initial "
            f"{tuple(results[name].initial)} (expected: no change)",
        )

    # QIN must never improve, on any run of any workload.
    for name, result in results.items():
        seen = {vector.qin for vector, _ in result.table}
        clause(
            seen == {result.initial.qin},
            f"{name} QIN changed: initial {result.initial.qin}, saw {seen}",
        )

    elapsed = time.monotonic() - start
    clause(elapsed < 300.0, f"experiments took {elapsed:.0f}s (budget 300s)")
    assert not failures, "\n" + "\n".join(failures)


def _assert_edge_respecting_permutation(before, after):
    """Each trace of ``after`` is a reordering of the matching trace of
    ``before`` that keeps every dependency edge pointing forward."""
    old_ddgs = graphs.build_ddgs(before)
    new_ddgs = graphs.build_ddgs(after)
    assert [d.id for d in old_ddgs] == [d.id for d in new_ddgs]
    for old, new in zip(old_ddgs, new_ddgs):
        old_instrs = [before.instructions[p] for p in old.path]
        new_instrs = [after.instructions[p] for p in new.path]
        assert Counter(old_instrs) == Counter(new_instrs)
        # Identical instructions always conflict (they write the same
        # resource), so a legal reordering keeps their relative order and
        # first-come matching recovers the permutation.
        slots = defaultdict(deque)
        for offset, instr in enumerate(new_instrs):
            slots[instr].append(offset)
        offset_of = {
            position: slots[instr].popleft()
            for position, instr in zip(old.path, old_instrs)
        }
        for src, dst in old.edges:
            assert offset_of[src] < offset_of[dst], (
                f"edge {src}->{dst} reversed in trace {old.id}"
            )


def _protected_writer_counts(program, readout):
    """Instructions that write a readout cell observed later in some
    terminating trace (counted once per such position)."""
    protected_positions = set()
    for ddg in graphs.build_ddgs(program):
        if not ddg.ends_program:
            continue
        liveness = analyses.live_variables(ddg, readout)
        for position in ddg.path:
            written = {
                token
                for token in ir.resources(program.instructions[position]).writes
                if token[0] == "m" and token[1] in readout
            }
            if any(
                (position, token) not in liveness.dead_cells for token in written
            ):
                protected_positions.add(position)
    return Counter(program.instructions[p] for p in protected_positions)


def test_structural_properties():
    """Reorderings are per-edge-valid permutations; folding is
    idempotent; dead-code elimination spares live readout writers;
    parse/emit round-trips 200 random programs; < 1 min."""
    start = time.monotonic()

    reorder_passes = (
        transforms.reorder_instructions,
        transforms.latest_possible_quantum,
    )
    rng = random.Random(9001)
    subjects = [fixture_program(name) for name in WORKLOADS]
    subjects += [random_program(rng) for _ in range(60)]
    for program in subjects:
        for reorder in reorder_passes:
            _assert_edge_respecting_permutation(program, reorder(program))
        once = transforms.constant_fold(program)
        twice = transforms.constant_fold(once)
        assert twice == once, "folding twice kept rewriting"

    for _ in range(100):
        program = random_program(rng)
        protected = _protected_writer_counts(program, readout=["ro"])
        removed = Counter(program.instructions) - Counter(
            transforms.dead_code_elim(program, readout=["ro"]).instructions
        )
        budget = Counter(program.instructions) - protected
        for instruction, count in removed.items():
            assert count <= budget[instruction], (
                f"removed live readout writer {ir.instruction_text(instruction)}"
            )

    for _ in range(200):
        program = random_program(rng)
        assert ir.parse(ir.emit(program)) == program

    assert time.monotonic() - start < 60.0
