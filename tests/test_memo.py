"""The content-keyed memo of ``graphs.memo``: it must agree with
unmemoized work, close with the call that opened it, never keep an
error, and spare the repeated work it exists for."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_program, random_retry_program
from quilopt import graphs, harness, ir, transforms
from quilopt.fixtures import WORKLOADS, fixture_program

PASSES = tuple(transforms.PASS_PAIRS)


def sequence(rng: random.Random) -> list[str]:
    """A 25-pass sequence, as in the paper's experiment."""
    return [rng.choice(PASSES) for _ in range(25)]


def unmemoized(program, names):
    """Each pass in turn, with no memo open."""
    assert graphs._memo is None
    for name in names:
        program = transforms.apply_pass(program, name)
    return program


def trace_fields(program) -> list[tuple]:
    """Every field of every trace of ``program``, read where it is called."""
    return [
        (d.id, d.role, d.path, d.ends_program, d.joins, d.ancestors, d.edges)
        for d in graphs.build_ddgs(program)
    ]


class TestAgreement:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_fixture_sequences(self, name):
        program = fixture_program(name)
        rng = random.Random(name)
        for _ in range(4):
            names = sequence(rng)
            assert transforms.apply_passes(program, names) == unmemoized(
                program, names
            )

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), retry=st.booleans())
    def test_memo_agrees_with_unmemoized_work(self, seed, retry):
        rng = random.Random(seed)
        program = (random_retry_program if retry else random_program)(rng)
        names = sequence(rng)
        reached = [program]
        for name in names:
            reached.append(transforms.apply_pass(reached[-1], name))
        assert transforms.apply_passes(program, names) == reached[-1]

        # Every program the sequence reached, all through one open memo.
        expected = [trace_fields(p) for p in reached]
        with graphs.memo():
            assert [trace_fields(p) for p in reached] == expected


class TestHygiene:
    def test_closed_after_apply_passes(self):
        transforms.apply_passes(fixture_program("rus"), ["liveness-dce"] * 3)
        assert graphs._memo is None

    def test_closed_after_run_experiment(self):
        harness.run_experiment(fixture_program("rus"), runs=3, pairs=4)
        assert graphs._memo is None

    def test_closed_when_a_pass_name_is_unknown(self):
        with pytest.raises(ValueError, match="unknown pass"):
            transforms.apply_passes(
                fixture_program("rus"), ["liveness-dce", "speed-up", "liveness-dce"]
            )
        assert graphs._memo is None

    def test_errors_are_never_kept(self):
        program = ir.parse("LABEL @a\nJUMP @a\n")
        with graphs.memo() as memo:
            for _ in range(3):
                with pytest.raises(graphs.GraphError):
                    transforms.apply_passes(program, ["liveness-dce"])
            assert memo == {}

    def test_nested_calls_reuse_and_keep_the_outer_memo(self):
        program = fixture_program("teleportation")
        with graphs.memo() as outer:
            transforms.apply_passes(program, ["const-prop-fold"])
            assert graphs._memo is outer
            assert (transforms.apply_pass, (program, "const-prop-fold", None)) in outer
            harness.run_experiment(program, runs=2, pairs=3)
            assert graphs._memo is outer
            with graphs.memo() as inner:
                assert inner is outer
            assert graphs._memo is outer
        assert graphs._memo is None


def counted(calls: list, name: str, f):
    """``f``, recording ``(name, argument)`` in ``calls`` on each call."""

    def compute(x):
        calls.append((name, x))
        return f(x)

    return compute


class TestRecall:
    def test_functions_on_equal_arguments_are_kept_apart(self):
        calls = []
        double = counted(calls, "double", lambda x: 2 * x)
        square = counted(calls, "square", lambda x: x * x)
        nothing = counted(calls, "nothing", lambda x: None)
        with graphs.memo():
            got = [graphs.recall(f, 3) for f in (double, square, nothing) * 2]
        assert got == [6, 9, None] * 2
        assert calls == [("double", 3), ("square", 3), ("nothing", 3)]

    def test_nothing_is_kept_with_no_memo_open(self):
        calls = []
        double = counted(calls, "double", lambda x: 2 * x)
        assert [graphs.recall(double, 3) for _ in range(2)] == [6, 6]
        assert calls == [("double", 3)] * 2
        assert graphs._memo is None

    def test_a_raising_call_stores_nothing(self):
        calls = []
        fail = counted(calls, "fail", lambda x: x / 0)
        with graphs.memo() as memo:
            for _ in range(2):
                with pytest.raises(ZeroDivisionError):
                    graphs.recall(fail, 3)
            assert memo == {}
        assert calls == [("fail", 3)] * 2


class TestWorkCounts:
    @pytest.mark.parametrize("seed", range(5))
    def test_graph_work_runs_once_per_distinct_content(self, seed, monkeypatch):
        rng = random.Random(seed)
        program = random_program(rng, max_jumps=3)
        names = sequence(rng)

        scans: list[tuple] = []
        reads: list = []
        depth = [0]
        scan, resources = graphs._ancestors, ir.resources

        def counted_scan(instructions):
            scans.append(tuple(instructions))
            depth[0] += 1
            try:
                return scan(instructions)
            finally:
                depth[0] -= 1

        def counted_resources(instr):
            if depth[0]:
                reads.append(instr)
            return resources(instr)

        monkeypatch.setattr(graphs, "_ancestors", counted_scan)
        monkeypatch.setattr(ir, "resources", counted_resources)
        transforms.apply_passes(program, names)
        assert scans and reads
        assert len(scans) == len(set(scans))
        assert len(reads) == len(set(reads))
