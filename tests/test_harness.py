"""Tests for the randomized pass-sequence experiment runner."""

from collections import Counter

import numpy as np
import pytest

from quilopt import harness, ir, oracle, transforms
from quilopt.fixtures import WORKLOADS, fixture_program


def reference_experiment(
    program, runs=500, pairs=25, seed=0, readout=None, verify_runs=10
):
    """``run_experiment`` without memos: every run applies its passes,
    measures its program and, among the first ``verify_runs``, asks the
    oracle afresh."""
    counts = Counter()
    best = None
    verified = 0
    for run in range(runs):
        optimized = program
        for name in harness.draw_sequence(seed, run, pairs):
            optimized = transforms.apply_pass(optimized, name, readout)
        if run < verify_runs:
            ok, distance = oracle.equivalent(program, optimized, readout)
            if not ok:
                raise harness.VerificationError(
                    f"run {run} changed the readout distribution "
                    f"(distance {distance:.3e})"
                )
            verified += 1
        vector = harness.measure(optimized)
        counts[vector] += 1
        best = vector if best is None else harness.MetricsVector(
            *map(min, best, vector)
        )
    return harness.ExperimentResult(
        runs=runs,
        pairs=pairs,
        seed=seed,
        initial=harness.measure(program),
        best=best,
        table=tuple(sorted(counts.items(), key=lambda item: (-item[1], item[0]))),
        verified_runs=verified,
    )


class TestMeasure:
    def test_teleportation_vector(self):
        vec = harness.measure(fixture_program("teleportation"))
        assert vec == harness.MetricsVector(
            wall_time=9, instructions=12, qin=9, qct=10
        )

    def test_labels_are_not_counted(self):
        program = fixture_program("teleportation")
        n_labels = sum(
            1 for instr in program.instructions if isinstance(instr, ir.Label)
        )
        assert n_labels > 0
        assert harness.measure(program).instructions == len(program) - n_labels


class TestDrawSequence:
    def test_reproducible(self):
        assert harness.draw_sequence(7, 3, 25) == harness.draw_sequence(7, 3, 25)

    def test_runs_are_independent_draws(self):
        draws = [harness.draw_sequence(0, run, 12) for run in range(6)]
        assert len({tuple(d) for d in draws}) > 1

    def test_names_come_from_the_catalog(self):
        for run in range(10):
            assert set(harness.draw_sequence(3, run, 20)) <= set(harness.PAIR_NAMES)

    def test_matches_the_seeded_generator(self):
        # Recompute the draw with numpy directly; the sequence is a pure
        # function of (seed, run, pairs).
        picks = np.random.default_rng([11, 4]).integers(
            0, len(harness.PAIR_NAMES), size=9
        )
        expected = [harness.PAIR_NAMES[i] for i in picks]
        assert harness.draw_sequence(11, 4, 9) == expected


class TestPairNames:
    def test_registry_order(self):
        # The stored reference tables pin this draw order.
        assert harness.PAIR_NAMES == (
            "const-prop-fold",
            "liveness-dce",
            "hybrid-deps-reorder",
            "hybrid-deps-latest-quantum",
        )


class TestApplyPasses:
    def test_empty_sequence_is_identity(self):
        program = fixture_program("rus")
        assert transforms.apply_passes(program, []) == program

    def test_single_name_matches_the_pass(self):
        program = fixture_program("teleportation")
        direct = transforms.dead_code_elim(program)
        assert transforms.apply_passes(program, ["liveness-dce"]) == direct


class TestRunExperiment:
    def test_zero_runs_gives_empty_summary(self):
        result = harness.run_experiment(fixture_program("teleportation"), runs=0)
        assert result.table == ()
        assert result.best is None
        assert result.verified_runs == 0
        assert result.to_dict()["best"] is None
        assert result.to_dict()["table"] == []
        assert result.modal is None

    @pytest.mark.parametrize("name", ["runs", "pairs", "verify_runs"])
    def test_negative_counts_are_refused(self, name):
        program = fixture_program("teleportation")
        with pytest.raises(ValueError, match=f"^{name} must be at least 0, got -1$"):
            harness.run_experiment(program, **{"runs": 2, "pairs": 2, name: -1})

    def test_same_seed_same_result(self):
        program = fixture_program("teleportation")
        first = harness.run_experiment(program, runs=8, pairs=6, seed=5)
        second = harness.run_experiment(program, runs=8, pairs=6, seed=5)
        assert first == second

    def test_teleportation_small_experiment(self):
        result = harness.run_experiment(
            fixture_program("teleportation"), runs=20, pairs=8, seed=0
        )
        assert result.best == (9, 11, 8, 10)
        assert result.verified_runs == 10
        # Nearly every sequence draws the dead-code pass at least once.
        assert result.modal == ((9, 11, 8, 10), 19)
        assert sum(count for _, count in result.table) == 20

    def test_rus_never_changes(self):
        result = harness.run_experiment(
            fixture_program("rus"), runs=10, pairs=6, seed=1
        )
        assert result.table == ((result.initial, 10),)
        assert result.best == result.initial == (34, 40, 34, 35)

    def test_verify_runs_capped_by_runs(self):
        result = harness.run_experiment(
            fixture_program("teleportation"), runs=3, pairs=4, seed=2
        )
        assert result.verified_runs == 3

    def test_tampered_pass_raises(self, monkeypatch):
        # Force every pass to flip an extra qubit so the readout
        # distribution moves; verification must catch it.  One pass per
        # run, so the flips cannot cancel out.
        def sabotage(program, name, readout=None):
            tampered = list(program.instructions)
            tampered.insert(1, ir.Gate("X", (), (0,)))
            return ir.Program(tuple(tampered))

        monkeypatch.setattr(transforms, "apply_pass", sabotage)
        with pytest.raises(harness.VerificationError, match="run 0 .*distance"):
            harness.run_experiment(
                fixture_program("teleportation"), runs=2, pairs=1
            )

    def test_table_sorted_by_count_then_vector(self):
        result = harness.run_experiment(
            fixture_program("teleportation"), runs=20, pairs=8, seed=0
        )
        counts = [count for _, count in result.table]
        assert counts == sorted(counts, reverse=True)

    def test_to_dict_fractions(self):
        result = harness.run_experiment(
            fixture_program("teleportation"), runs=20, pairs=8, seed=0
        )
        data = result.to_dict()
        assert sum(row["fraction"] for row in data["table"]) == pytest.approx(1.0)
        assert data["initial"] == {
            "wall_time": 9,
            "instructions": 12,
            "qin": 9,
            "qct": 10,
        }



class TestMemo:
    """``run_experiment`` memoizes passes, metrics and verdicts per call."""

    @pytest.mark.parametrize("name", WORKLOADS)
    @pytest.mark.parametrize(
        "seed,runs,pairs,verify_runs",
        [(0, 12, 8, 10), (3, 10, 25, 4), (7, 6, 3, 0), (11, 4, 12, 20)],
    )
    def test_matches_the_unmemoized_loop(self, name, seed, runs, pairs, verify_runs):
        program = fixture_program(name)
        kwargs = dict(runs=runs, pairs=pairs, seed=seed, verify_runs=verify_runs)
        assert harness.run_experiment(program, **kwargs) == reference_experiment(
            program, **kwargs
        )

    def test_matches_the_unmemoized_loop_with_a_readout(self):
        program = fixture_program("teleportation")
        kwargs = dict(runs=8, pairs=10, seed=2, readout=["ro"], verify_runs=3)
        assert harness.run_experiment(program, **kwargs) == reference_experiment(
            program, **kwargs
        )

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_each_pair_applied_and_each_program_verified_once(
        self, monkeypatch, name
    ):
        program = fixture_program(name)
        runs, pairs, seed, verify_runs = 12, 10, 5, 6
        # What the call should do, from the unmemoized pipeline.
        distinct_pairs = set()
        finals = []
        for run in range(runs):
            current = program
            for pass_name in harness.draw_sequence(seed, run, pairs):
                distinct_pairs.add((current, pass_name))
                current = transforms.apply_pass(current, pass_name)
            finals.append(current)

        applied, checked, measured = [], [], []
        apply_pass, equivalent, measure = (
            transforms.apply_pass,
            oracle.equivalent,
            harness.measure,
        )

        def counting_apply_pass(program, name, readout=None):
            applied.append((program, name))
            return apply_pass(program, name, readout)

        def counting_equivalent(original, candidate, readout=None):
            checked.append(candidate)
            return equivalent(original, candidate, readout)

        def counting_measure(program):
            measured.append(program)
            return measure(program)

        monkeypatch.setattr(transforms, "apply_pass", counting_apply_pass)
        monkeypatch.setattr(oracle, "equivalent", counting_equivalent)
        monkeypatch.setattr(harness, "measure", counting_measure)
        for _ in range(2):  # nothing carries over from one call to the next
            for calls in (applied, checked, measured):
                calls.clear()
            result = harness.run_experiment(
                program, runs=runs, pairs=pairs, seed=seed, verify_runs=verify_runs
            )
            assert result.verified_runs == verify_runs
            assert len(applied) == len(set(applied)) == len(distinct_pairs)
            assert set(applied) == distinct_pairs
            assert len(checked) == len(set(checked))
            assert set(checked) == set(finals[:verify_runs])
            assert len(measured) == len(set(measured))
            assert set(measured) == set(finals) | {program}
        assert len(distinct_pairs) < runs * pairs


class TestCompare:
    def test_identity_comparison(self):
        program = fixture_program("rus")
        vector = harness.measure(program)
        for entry in harness.compare(vector, vector).values():
            assert entry["delta"] == 0
            assert entry["percent"] == 0.0

    def test_dead_code_deltas(self):
        program = fixture_program("teleportation")
        out = harness.compare(
            harness.measure(program),
            harness.measure(transforms.dead_code_elim(program)),
        )
        assert out["instructions"]["delta"] == -1
        assert out["qin"] == {
            "before": 9,
            "after": 8,
            "delta": -1,
            "percent": pytest.approx(100 * 1 / 9),
        }
        assert out["wall_time"]["delta"] == 0
        assert out["qct"]["delta"] == 0

    def test_zero_before_and_field_order(self):
        before = harness.MetricsVector(10, 20, 0, 4)
        after = harness.MetricsVector(8, 20, 1, 2)
        out = harness.compare(before, after)
        assert list(out) == list(harness.MetricsVector._fields)
        assert out["wall_time"] == {
            "before": 10, "after": 8, "delta": -2, "percent": 20.0
        }
        assert out["instructions"]["percent"] == 0.0
        assert out["qin"] == {"before": 0, "after": 1, "delta": 1, "percent": 0.0}
        assert out["qct"]["percent"] == 50.0
