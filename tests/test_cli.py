"""End-to-end tests for the quilopt command-line interface."""

import json

import pytest

from quilopt import cli, ir, transforms
from quilopt.fixtures import fixture_text

TINY = """\
DECLARE ro BIT[2]
H 0
CNOT 0 1
MEASURE 0 ro[0]
MEASURE 1 ro[1]
HALT
"""


@pytest.fixture
def tiny_file(tmp_path):
    path = tmp_path / "tiny.quil"
    path.write_text(TINY)
    return path


@pytest.fixture
def teleport_file(tmp_path):
    path = tmp_path / "teleportation.quil"
    path.write_text(fixture_text("teleportation"))
    return path


def run_cli(capsys, *argv):
    code = cli.main([str(arg) for arg in argv])
    out, err = capsys.readouterr()
    return code, out, err


class TestMetrics:
    def test_prints_sorted_json(self, capsys, tiny_file):
        code, out, _ = run_cli(capsys, "metrics", tiny_file)
        assert code == 0
        document = json.loads(out)
        assert document["total_wall_time"] == 5
        assert document["qin"] == 5
        assert list(document) == sorted(document)

    def test_json_flag_writes_file(self, capsys, tiny_file, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "metrics", tiny_file, "--json", target)
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["qct"] == 6

    def test_parse_error_is_reported(self, capsys, tmp_path):
        bad = tmp_path / "bad.quil"
        bad.write_text("FROBNICATE 3\n")
        code, _, err = run_cli(capsys, "metrics", bad)
        assert code == 1
        assert "error:" in err


class TestOptimize:
    def test_emits_optimized_program(self, capsys, teleport_file):
        code, out, _ = run_cli(
            capsys, "optimize", teleport_file, "--passes", "liveness-dce"
        )
        assert code == 0
        emitted = ir.parse(out)
        expected = transforms.dead_code_elim(ir.parse(fixture_text("teleportation")))
        assert emitted == expected

    def test_output_flag(self, capsys, teleport_file, tmp_path):
        target = tmp_path / "out.quil"
        code, out, _ = run_cli(
            capsys,
            "optimize", teleport_file,
            "--passes", "liveness-dce,const-prop-fold",
            "--output", target,
        )
        assert code == 0
        assert out == ""
        ir.parse(target.read_text())

    def test_unknown_pass_name(self, teleport_file):
        with pytest.raises(SystemExit, match="unknown pass"):
            cli.main(["optimize", str(teleport_file), "--passes", "mystery"])

    def test_dump_facts(self, capsys, tiny_file, tmp_path):
        target = tmp_path / "facts.json"
        code, _, _ = run_cli(
            capsys,
            "optimize", tiny_file,
            "--passes", "const-prop-fold",
            "--dump-facts", target,
        )
        assert code == 0
        document = json.loads(target.read_text())
        start = document["segments"][0]
        assert start["segment"] == "start"
        assert [p["instruction"] for p in start["points"][:2]] == [
            "DECLARE ro BIT[2]", "H 0",
        ]
        # Every qubit starts in the +Z eigenstate.
        assert start["points"][1]["qubits"] == {"0": "Z+", "1": "Z+"}

    def test_readout_override_protects_region(self, capsys, tmp_path):
        text = (
            "DECLARE ro BIT\n"
            "DECLARE keep BIT\n"
            "MOVE keep 1\n"
            "MEASURE 0 ro\n"
            "HALT\n"
        )
        source = tmp_path / "prog.quil"
        source.write_text(text)
        # Under the default readout (ro) the MOVE is dead ...
        _, out, _ = run_cli(capsys, "optimize", source, "--passes", "liveness-dce")
        assert "MOVE keep 1" not in out
        # ... but naming `keep` as readout keeps it alive.
        _, out, _ = run_cli(
            capsys,
            "optimize", source, "--passes", "liveness-dce",
            "--readout", "ro,keep",
        )
        assert "MOVE keep 1" in out

    @pytest.mark.parametrize("name", list(transforms.PASS_PAIRS))
    def test_undeclared_readout_is_refused_by_every_pass(self, capsys, tiny_file, name):
        code, out, err = run_cli(
            capsys, "optimize", tiny_file, "--passes", name, "--readout", "nope"
        )
        assert code == 1
        assert out == ""
        assert err == "error: readout region 'nope' is not declared\n"


class TestExperiment:
    def test_summary_and_json(self, capsys, teleport_file, tmp_path):
        target = tmp_path / "exp.json"
        code, out, _ = run_cli(
            capsys,
            "experiment", teleport_file,
            "--runs", 12, "--pairs", 6, "--seed", 0,
            "--json", target,
        )
        assert code == 0
        assert "runs=12 pairs=6 seed=0" in out
        assert "initial (9, 12, 9, 10)" in out
        assert "best    (9, 11, 8, 10)" in out
        document = json.loads(target.read_text())
        assert document["best"] == {
            "wall_time": 9, "instructions": 11, "qin": 8, "qct": 10
        }
        assert sum(row["count"] for row in document["table"]) == 12

    def test_zero_runs(self, capsys, teleport_file):
        code, out, _ = run_cli(
            capsys, "experiment", teleport_file, "--runs", 0
        )
        assert code == 0
        assert "best" not in out

    @pytest.mark.parametrize("flags", [("--pairs", "-1"), ("--runs", "-3")])
    def test_negative_counts_are_refused(self, capsys, teleport_file, flags):
        code, out, err = run_cli(capsys, "experiment", teleport_file, *flags)
        assert code == 1
        assert out == ""
        assert err == f"error: {flags[0]} must be at least 0, got {flags[1]}\n"


class TestGraph:
    def test_cfg_dot(self, capsys, teleport_file, tmp_path):
        out_dir = tmp_path / "dots"
        code, out, _ = run_cli(
            capsys, "graph", teleport_file, "--cfg", "--dot", out_dir
        )
        assert code == 0
        dot = (out_dir / "cfg.dot").read_text()
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert str(out_dir / "cfg.dot") in out

    def test_ddg_dot_one_file_per_trace(self, capsys, teleport_file, tmp_path):
        out_dir = tmp_path / "dots"
        code, out, _ = run_cli(
            capsys, "graph", teleport_file, "--ddg", "--dot", out_dir
        )
        assert code == 0
        files = sorted(p.name for p in out_dir.glob("*.dot"))
        assert files == ["ddg_halt1.dot", "ddg_halt2.dot", "ddg_start.dot"]
        for name in files:
            body = (out_dir / name).read_text()
            assert body.startswith("digraph")
            assert body.rstrip().endswith("}")

    def test_cfg_and_ddg_are_exclusive(self, teleport_file, tmp_path):
        with pytest.raises(SystemExit):
            cli.main([
                "graph", str(teleport_file),
                "--cfg", "--ddg", "--dot", str(tmp_path),
            ])


class TestOracle:
    def test_distribution_json(self, capsys, tiny_file):
        code, out, _ = run_cli(capsys, "oracle", tiny_file)
        assert code == 0
        document = json.loads(out)
        assert document["probabilities"] == pytest.approx(
            {"ro=0,0": 0.5, "ro=1,1": 0.5}
        )
        assert document["truncated_mass"] == 0.0

    def test_flags_are_forwarded(self, capsys, tmp_path):
        looping = tmp_path / "loop.quil"
        looping.write_text(
            "DECLARE ro BIT\n"
            "LABEL @again\n"
            "H 0\n"
            "MEASURE 0 ro\n"
            "JUMP-WHEN @again ro\n"
            "HALT\n"
        )
        code, out, _ = run_cli(
            capsys, "oracle", looping, "--max-steps", 12, "--prune", "1e-3"
        )
        assert code == 0
        document = json.loads(out)
        # A tight step budget leaves part of the retry loop unexplored.
        assert document["truncated_mass"] > 0

    @pytest.mark.parametrize(
        "flags", [("--prune", "nan"), ("--prune", "-1"), ("--max-steps", "-5")]
    )
    def test_bad_bounds_are_refused(self, capsys, tiny_file, flags):
        code, out, err = run_cli(capsys, "oracle", tiny_file, *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")


class TestCompare:
    def test_diffs_two_reports(self, capsys, teleport_file, tmp_path):
        before = tmp_path / "before.json"
        after_quil = tmp_path / "after.quil"
        after = tmp_path / "after.json"
        run_cli(capsys, "metrics", teleport_file, "--json", before)
        run_cli(
            capsys,
            "optimize", teleport_file,
            "--passes", "liveness-dce", "--output", after_quil,
        )
        run_cli(capsys, "metrics", after_quil, "--json", after)
        code, out, _ = run_cli(capsys, "compare", before, after)
        assert code == 0
        document = json.loads(out)
        assert document["instructions"] == {
            "before": 12, "after": 11, "delta": -1,
            "percent": pytest.approx(100 / 12),
        }
        assert document["wall_time"]["delta"] == 0

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "compare", tmp_path / "nope.json", tmp_path / "nope.json"
        )
        assert code == 1
        assert "error:" in err
