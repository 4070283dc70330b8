"""Golden metrics for the bundled workload programs.

These freeze the starting profile of each fixture and the behaviour of
the optimization passes on them, so fixture edits show up as loud diffs.
"""

import pytest

from quilopt import graphs, harness, ir, metrics, oracle, transforms
from quilopt.fixtures import WORKLOADS, expected_metrics, fixture_program


def _profile(program):
    report = metrics.report(program)
    return {
        "instructions": report.instr_profile,
        "walls": report.wall_profile,
        "qin": report.qin,
        "qct": report.qct,
    }


class TestCatalog:
    def test_workload_names(self):
        assert WORKLOADS == ("teleportation", "rus", "msd", "ipe")

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_fixture_parses_and_validates(self, name):
        program = fixture_program(name)
        ir.validate(program)
        assert len(program) > 0

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_round_trips_through_emitter(self, name):
        program = fixture_program(name)
        assert ir.parse(program.to_text()) == program

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_shipped_baseline_report_is_current(self, name):
        # The packaged JSON must agree with a fresh report (and therefore
        # with the hand-checked profiles below).
        assert expected_metrics()[name] == metrics.report(fixture_program(name)).to_dict()


class TestInitialProfiles:
    def test_teleportation(self):
        assert _profile(fixture_program("teleportation")) == {
            "instructions": (8, 2, 2),
            "walls": (6, 2, 1),
            "qin": 9,
            "qct": 10,
        }

    def test_rus(self):
        assert _profile(fixture_program("rus")) == {
            "instructions": (12, 11, 10, 7),
            "walls": (9, 10, 9, 6),
            "qin": 34,
            "qct": 35,
        }

    def test_msd(self):
        assert _profile(fixture_program("msd")) == {
            "instructions": (67, 63, 6),
            "walls": (62, 62, 6),
            "qin": 66,
            "qct": 130,
        }

    def test_ipe(self):
        assert _profile(fixture_program("ipe")) == {
            "instructions": (55,),
            "walls": (45,),
            "qin": 25,
            "qct": 33,
        }

    def test_ipe_start_schedule(self):
        # Six classical and four quantum slots before the first
        # measurement; the last hybrid lands at tick 33 with a purely
        # classical tail.
        start = graphs.build_ddgs(fixture_program("ipe"))[0]
        sched = metrics.simulate(start.instructions)
        assert sched.classical_before_first_hybrid == 6
        assert sched.quantum_before_first_hybrid == 4
        assert sched.end_of_last_hybrid == 33
        assert sched.quantum_tail == 0


class TestTransformBehaviour:
    def test_teleportation_dce_drops_single_gate(self):
        program = fixture_program("teleportation")
        pruned = transforms.dead_code_elim(program)
        removed = set(program.instructions) - set(pruned.instructions)
        assert removed == {ir.Gate("X", (), (2,))}
        assert _profile(pruned)["walls"] == (6, 2, 1)
        assert _profile(pruned)["qin"] == 8
        assert _profile(pruned)["qct"] == 10

    def test_rus_is_a_fixed_point_of_every_pass(self):
        program = fixture_program("rus")
        before = harness.measure(program)
        for name in harness.PAIR_NAMES:
            assert harness.measure(transforms.apply_pass(program, name)) == before

    def test_msd_fold_and_dce_are_identity(self):
        program = fixture_program("msd")
        folded, notes = transforms.constant_fold(program)
        assert folded == program and notes == ()
        assert transforms.dead_code_elim(program) == program

    def test_msd_reorder_golden(self):
        program = fixture_program("msd")
        reordered = transforms.reorder_instructions(program)
        assert _profile(reordered) == {
            "instructions": (67, 63, 6),
            "walls": (53, 53, 6),
            "qin": 66,
            "qct": 112,
        }
        # The schedule is already as tight as the dependencies allow.
        assert transforms.reorder_instructions(reordered) == reordered

    def test_ipe_dce_removes_stale_diagnostics(self):
        program = fixture_program("ipe")
        pruned = transforms.dead_code_elim(program)
        assert len(program) - len(pruned) == 4
        assert transforms.dead_code_elim(pruned) == pruned

    def test_ipe_reorder_golden(self):
        program = fixture_program("ipe")
        best = transforms.dead_code_elim(transforms.reorder_instructions(program))
        assert harness.measure(best) == (35, 51, 25, 30)
        # Order of the two passes does not matter for the final profile.
        other = transforms.reorder_instructions(transforms.dead_code_elim(program))
        assert harness.measure(other) == (35, 51, 25, 30)

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_passes_preserve_semantics(self, name):
        program = fixture_program(name)
        for pass_name in harness.PAIR_NAMES:
            ok, distance = oracle.equivalent(
                program, transforms.apply_pass(program, pass_name)
            )
            assert ok, f"{pass_name} changed {name} readout by {distance}"


class TestOracleBaselines:
    def test_msd_loop_distribution(self):
        # The retry loop exits with probability one half per round and the
        # X-flipped check qubit alternates, so the readout splits 2:1.
        dist = oracle.run(fixture_program("msd"))
        assert 0 < dist.truncated_mass < 1e-9
        assert dist.probabilities == pytest.approx(
            {
                (("ro", (1, 0)),): 2 / 3,
                (("ro", (0, 0)),): 1 / 3,
            },
            abs=1e-9,
        )

    def test_ipe_outcome_support(self):
        dist = oracle.run(fixture_program("ipe"))
        assert dist.truncated_mass < 1e-12
        outcomes = {key[0][1] for key in dist.probabilities}
        assert outcomes == {(1, 1), (2, 0), (3, 1), (4, 0)}
        assert sum(dist.probabilities.values()) == pytest.approx(1.0, abs=1e-9)
