"""quilopt benchmark: one seeded workload per process, timed or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload fresh-programs --seed 1 --seconds 36 --trace 0

``--trace 0`` times the workload with nothing wrapped and reports the
end-to-end metrics.  ``--trace 1`` runs every unit twice, once untraced
and once with every public layer function wrapped (see ``tracing.py``),
and reports the per-layer metrics plus the tracing overhead.  The last line of standard output is one JSON object; the lines
before it are the same figures for people.  See ``README.md`` for the
workloads, the metrics and what each layer should move.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import generate  # noqa: E402
import tracing  # noqa: E402

MODULES = (
    "ir", "graphs", "analyses", "transforms", "metrics", "oracle", "harness",
    "fixtures",
)
PASSES = tracing.PASSES
SETUP_REPEATS = 9
TOL = 1e-9

# paper-experiment: each group is run_experiment on one fixture.
FIXTURES = ("teleportation", "rus", "msd", "ipe")
EXPERIMENT_RUNS = 4
EXPERIMENT_PAIRS = 25
EXPERIMENT_VERIFY = 1
REFERENCE = HERE / "reference.json"
SPANS_DIR = HERE / "out"


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or references)."""


def load_quilopt() -> dict:
    """Import quilopt from this checkout's ``src``, discarding any earlier
    import, and return its modules by short name."""
    if not (SRC / "quilopt" / "__init__.py").is_file():
        raise BenchError(f"no quilopt sources under {SRC}")
    for name in list(sys.modules):
        if name == "quilopt" or name.startswith("quilopt."):
            del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    importlib.import_module("quilopt")
    mods = {m: importlib.import_module(f"quilopt.{m}") for m in MODULES}
    origin = Path(mods["ir"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"quilopt was imported from {origin}, not {SRC}")
    return mods


# ---------------------------------------------------------------------------
# outcomes


@dataclass
class Outcome:
    """What one unit of work did.  A unit is one program for the generated
    workloads and one cycle over the four fixtures for the experiment."""

    items: int = 0
    time_s: float = 0.0
    item_ms: list = field(default_factory=list)
    verdict_ms: list = field(default_factory=list)
    checks: int = 0
    undecided: int = 0
    failed: int = 0
    vec_in: list = field(default_factory=lambda: [0, 0, 0, 0])
    vec_out: list = field(default_factory=lambda: [0, 0, 0, 0])
    problems: list = field(default_factory=list)


def _add(total: list, vector, weight: int = 1) -> None:
    for i, value in enumerate(vector):
        total[i] += weight * value


def _check_equivalence(mods, original, optimized, out: Outcome) -> bool:
    """Oracle check of one item; returns False when it failed."""
    oracle = mods["oracle"]
    out.checks += 1
    start = time.perf_counter()
    try:
        ok, distance = oracle.equivalent(original, optimized, tol=TOL)
    except oracle.OracleError as exc:
        out.verdict_ms.append(1e3 * (time.perf_counter() - start))
        out.undecided += 1
        out.problems.append(f"undecided: {exc}")
        return True
    out.verdict_ms.append(1e3 * (time.perf_counter() - start))
    if ok:
        return True
    truncated = max(
        oracle.run(original).truncated_mass, oracle.run(optimized).truncated_mass
    )
    if truncated > TOL:
        out.undecided += 1
        out.problems.append(f"undecided: truncated mass {truncated:.3e}")
        return True
    out.problems.append(f"not equivalent: distance {distance:.3e}")
    return False


def _round_trips(mods, *programs) -> bool:
    ir = mods["ir"]
    return all(ir.parse(ir.emit(p)) == p for p in programs)


# ---------------------------------------------------------------------------
# workloads


class Generated:
    """Shared loop of the generated workloads: each unit is one fresh
    program, compiled with its own seeded pass sequence, measured,
    round-tripped and oracle-checked."""

    name = ""
    make_source = None  # rng -> Quil source text
    batch = 16
    passes = 25
    base_units = 0

    def __init__(self, seed: int):
        self.seed = seed

    def sources(self, batch: int) -> list[tuple[str, list[str]]]:
        """Batch ``batch`` of (source text, pass names), fixed by the seed.

        Each sequence holds every pass equally often, plus distinct extra
        passes for the remainder, in seeded order; this keeps the cost of
        a sequence steady while its order still varies.
        """
        rng = random.Random(self.seed * 1_000_003 + batch)
        out = []
        for _ in range(self.batch):
            text = self.make_source(rng)
            names = list(PASSES) * (self.passes // len(PASSES))
            names += rng.sample(PASSES, self.passes % len(PASSES))
            rng.shuffle(names)
            out.append((text, names))
        return out

    def parse(self, mods, batch) -> list:
        return [(mods["ir"].parse(text), names) for text, names in batch]

    def units(self, mods):
        """Endless stream of parsed units; batch 0 is parsed in set-up."""
        index = 0
        while True:
            yield from self.parse(mods, self.sources(index))
            index += 1

    def setup_inputs(self):
        return self.sources(0)

    def run_unit(self, mods, unit) -> Outcome:
        program, names = unit
        transforms, harness = mods["transforms"], mods["harness"]
        out = Outcome(items=1)
        start = time.perf_counter()
        try:
            optimized = transforms.apply_passes(program, names)
            before = harness.measure(program)
            after = harness.measure(optimized)
            if not _round_trips(mods, program, optimized):
                out.problems.append("parse(emit(p)) != p")
                out.failed = 1
            elif not _check_equivalence(mods, program, optimized, out):
                out.failed = 1
            else:
                _add(out.vec_in, before)
                _add(out.vec_out, after)
        except Exception as exc:  # counted as a failed item, run continues
            out.failed = 1
            out.problems.append(f"{type(exc).__name__}: {exc}")
        out.time_s = time.perf_counter() - start
        out.item_ms.append(1e3 * out.time_s)
        return out


class FreshPrograms(Generated):
    name = "fresh-programs"
    make_source = staticmethod(generate.fresh_program)
    base_units = 24


class RetryLoops(Generated):
    name = "retry-loops"
    make_source = staticmethod(generate.retry_program)
    batch = 64
    passes = 5
    base_units = 64


class PaperExperiment:
    """``harness.run_experiment`` on the four bundled fixtures.

    A unit is one cycle: one call per fixture, each with
    ``EXPERIMENT_RUNS`` runs of ``EXPERIMENT_PAIRS`` passes.  An item is
    one experiment run, a pass sequence applied to every fixture, so a
    cycle holds ``EXPERIMENT_RUNS`` items.  Cycle ``c`` uses the
    experiment seed ``order[c]``, a seeded permutation of the seeds whose
    reference tables are stored in ``reference.json``.
    """

    name = "paper-experiment"
    base_units = 1

    def __init__(self, seed: int):
        if not REFERENCE.is_file():
            raise BenchError(f"missing {REFERENCE}")
        self.reference = json.loads(REFERENCE.read_text())
        if (
            self.reference["runs"] != EXPERIMENT_RUNS
            or self.reference["pairs"] != EXPERIMENT_PAIRS
        ):
            raise BenchError("reference.json was captured at another run length")
        seeds = sorted(int(s) for s in self.reference["fixtures"][FIXTURES[0]])
        self.order = random.Random(seed).sample(seeds, len(seeds))

    def setup_inputs(self):
        return FIXTURES

    def parse(self, mods, names) -> dict:
        fixtures, ir = mods["fixtures"], mods["ir"]
        return {name: ir.parse(fixtures.fixture_text(name)) for name in names}

    def units(self, mods):
        programs = self.parse(mods, FIXTURES)
        cycle = 0
        while True:
            yield programs, self.order[cycle % len(self.order)]
            cycle += 1

    def run_unit(self, mods, unit) -> Outcome:
        programs, exp_seed = unit
        out = Outcome(items=EXPERIMENT_RUNS)
        ok = [
            self._run_group(mods, name, programs[name], exp_seed, out)
            for name in FIXTURES
        ]
        if not all(ok):
            out.failed = EXPERIMENT_RUNS
        # One sample per cycle: an experiment run covers every fixture, and
        # the fixtures' costs differ thirtyfold, so per-fixture samples
        # would put the median in the gap between two of them.
        out.item_ms = [1e3 * out.time_s / EXPERIMENT_RUNS]
        if out.verdict_ms:
            out.verdict_ms = [statistics.fmean(out.verdict_ms)]
        return out

    def _run_group(self, mods, name, program, exp_seed, out: Outcome) -> bool:
        """One ``run_experiment`` call and its checks; False if it failed."""
        harness, transforms = mods["harness"], mods["transforms"]
        expected = self.reference["fixtures"][name][str(exp_seed)]
        start = time.perf_counter()
        try:
            result = harness.run_experiment(
                program,
                runs=EXPERIMENT_RUNS,
                pairs=EXPERIMENT_PAIRS,
                seed=exp_seed,
                verify_runs=EXPERIMENT_VERIFY,
            )
        except Exception as exc:  # counted as failed items, run continues
            out.time_s += time.perf_counter() - start
            out.problems.append(f"{name}: {type(exc).__name__}: {exc}")
            return False
        out.time_s += time.perf_counter() - start

        got = {
            "table": [[list(v), c] for v, c in result.table],
            "best": list(result.best),
            "modal": [list(result.modal[0]), result.modal[1]],
        }
        problems = [
            f"{name} seed {exp_seed}: {key} {got[key]} != {expected[key]}"
            for key in ("table", "best", "modal")
            if got[key] != expected[key]
        ]
        if result.verified_runs != EXPERIMENT_VERIFY:
            problems.append(f"{name}: verified {result.verified_runs} runs")
        # Independent check of run 0: rebuild its program, oracle-check it,
        # round-trip it and find its metrics in the table.
        try:
            first = transforms.apply_passes(
                program, harness.draw_sequence(exp_seed, 0, EXPERIMENT_PAIRS)
            )
            if not _round_trips(mods, program, first):
                problems.append(f"{name}: parse(emit(p)) != p")
            if list(harness.measure(first)) not in [v for v, _ in got["table"]]:
                problems.append(f"{name}: run 0 is missing from the table")
            if not _check_equivalence(mods, program, first, out):
                problems.append(f"{name}: run 0 failed the oracle check")
        except Exception as exc:  # counted as failed items, run continues
            problems.append(f"{name}: {type(exc).__name__}: {exc}")
        if problems:
            out.problems.extend(problems)
            return False
        _add(out.vec_in, result.initial, EXPERIMENT_RUNS)
        for vector, count in result.table:
            _add(out.vec_out, vector, count)
        return True


WORKLOADS = {w.name: w for w in (PaperExperiment, FreshPrograms, RetryLoops)}


# ---------------------------------------------------------------------------
# measurement


def time_setups(workload, repeats: int) -> tuple[list, dict]:
    """Times of ``repeats`` set-ups (import plus parse/validate of the
    first input batch), with the modules of the last import.

    Each set-up starts from a collected heap, so that garbage left by the
    previous import is not charged to it.  The first import of a process
    also loads numpy, which cannot be imported twice; call this once
    untimed before relying on the times.
    """
    inputs = workload.setup_inputs()
    times = []
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        mods = load_quilopt()
        workload.parse(mods, inputs)
        times.append(time.perf_counter() - start)
    return times, mods


def run_phase(workload, mods, seconds: float) -> list:
    """Run units until ``seconds`` have passed and the base is complete."""
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    for unit in workload.units(mods):
        if (
            len(outcomes) >= workload.base_units
            and time.perf_counter() - start >= seconds
        ):
            break
        outcomes.append(workload.run_unit(mods, unit))
    return outcomes


def percentile(values: list, q: int) -> float:
    """Inclusive ``q``-th percentile; NaN when nothing was measured."""
    if len(values) < 2:
        return values[0] if values else float("nan")
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(outcomes: list, workload) -> dict:
    """End-to-end figures as {name: (value, unit, note)}."""
    items = sum(o.items for o in outcomes)
    busy = sum(o.time_s for o in outcomes)
    item_ms = [ms for o in outcomes for ms in o.item_ms]
    verdicts = [ms for o in outcomes for ms in o.verdict_ms]
    checks = sum(o.checks for o in outcomes)
    undecided = sum(o.undecided for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    base = outcomes[: workload.base_units]
    vec_in, vec_out = [0, 0, 0, 0], [0, 0, 0, 0]
    for o in base:
        _add(vec_in, o.vec_in)
        _add(vec_out, o.vec_out)
    base_note = f"sum over the first {workload.base_units} unit(s), base {{}}"

    def ratio(part, whole):
        return part / whole if whole else float("nan")

    out = {
        "items_per_s": (ratio(items, busy), "1/s", f"{items} items in {busy:.2f} s"),
        "item_ms.p50": (percentile(item_ms, 50), "ms", f"n={len(item_ms)}"),
        "item_ms.p90": (percentile(item_ms, 90), "ms", f"n={len(item_ms)}"),
        "verdict_ms.p50": (percentile(verdicts, 50), "ms", f"n={len(verdicts)}"),
        "undecided_ratio": (ratio(undecided, checks), "ratio", f"{undecided}/{checks}"),
        "decided_ratio": (
            ratio(checks - undecided, checks), "ratio", f"{checks - undecided}/{checks}"
        ),
        "failed_ratio": (ratio(failed, items), "ratio", f"{failed}/{items}"),
        "ok_ratio": (ratio(items - failed, items), "ratio", f"{items - failed}/{items}"),
    }
    for i, metric in enumerate(("wall", "instr", "qin", "qct")):
        out[f"out_{metric}_ratio"] = (
            ratio(vec_out[i], vec_in[i]), "ratio", base_note.format(vec_in[i])
        )
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_lines(title: str, figures: dict) -> None:
    print(title)
    for name, (value, unit, note) in figures.items():
        print(f"  {name:<40} {value:>14.6g} {unit:<6} {note}")


def timed_run(workload, seconds: float) -> tuple[dict, list]:
    """Time the workload untraced.  Set-up is timed before and after the
    units, so that its median does not rest on one moment of a machine
    whose speed drifts."""
    time_setups(workload, 1)
    before, mods = time_setups(workload, SETUP_REPEATS // 2 + 1)
    outcomes = run_phase(workload, mods, seconds)
    after, _ = time_setups(workload, SETUP_REPEATS // 2)
    setup_s = statistics.median(before + after)
    figures = {"setup_s": (setup_s, "s", f"median of {SETUP_REPEATS} set-ups")}
    figures.update(summarize(outcomes, workload))
    figures["peak_rss_mb"] = (peak_rss_mb(), "MB", "ru_maxrss of this process")
    return figures, outcomes


def layer_unit(name: str) -> str:
    if name.endswith("items_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_max", ".per_pass")):
        return "ratio"
    return "count"


def traced_run(workload, seconds: float, seed: int) -> tuple[dict, list]:
    """Run every unit twice, on an untraced and on a traced import of
    quilopt, alternating which goes first.  The per-layer figures come from
    the traced import; the overhead compares the pairs, so a drift in
    machine speed touches both sides alike."""
    plain_mods = load_quilopt()
    traced_mods = load_quilopt()
    tracer = tracing.Tracer()
    tracer.install(traced_mods)
    plain: list[Outcome] = []
    traced: list[Outcome] = []
    start = time.perf_counter()
    try:
        pairs = zip(workload.units(plain_mods), workload.units(traced_mods))
        for index, (plain_unit, traced_unit) in enumerate(pairs):
            if index and time.perf_counter() - start >= seconds:
                break
            if index % 2:
                traced.append(workload.run_unit(traced_mods, traced_unit))
                plain.append(workload.run_unit(plain_mods, plain_unit))
            else:
                plain.append(workload.run_unit(plain_mods, plain_unit))
                traced.append(workload.run_unit(traced_mods, traced_unit))
    finally:
        tracer.uninstall()
    plain_s = sum(o.time_s for o in plain)
    traced_s = sum(o.time_s for o in traced)
    items = sum(o.items for o in traced)
    layers = tracer.layer_metrics()
    layers["trace.items_per_s"] = items / traced_s
    layers["trace.plain_items_per_s"] = items / plain_s
    layers["trace.overhead_ratio"] = traced_s / plain_s - 1.0
    SPANS_DIR.mkdir(exist_ok=True)
    spans = SPANS_DIR / f"spans-{workload.name}-{seed}.jsonl"
    tracer.write(spans)
    paired = f"{len(traced)} units, each run untraced and traced"
    notes = {
        "trace.items_per_s": paired,
        "trace.plain_items_per_s": paired,
        "trace.spans": f"written to {spans.relative_to(ROOT)}",
    }
    figures = {
        name: (value, layer_unit(name), notes.get(name, ""))
        for name, value in sorted(layers.items())
    }
    return figures, plain + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in declared["workloads"]}
    try:
        workload = WORKLOADS[args.workload](args.seed)
        if args.trace:
            figures, outcomes = traced_run(workload, args.seconds, args.seed)
        else:
            figures, outcomes = timed_run(workload, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    problems = [p for o in outcomes for p in o.problems]
    attempted = sum(o.items for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    print_lines(
        f"{workload.name} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}: {why[workload.name]}",
        figures,
    )
    for problem in problems[:20]:
        print(f"  problem: {problem}")

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": figures[m["name"]][0], "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
