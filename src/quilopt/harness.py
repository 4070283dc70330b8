"""Randomized pass-sequence experiments.

A single optimization order is rarely best for every workload, so the
experiment runner samples many random sequences of analysis/transform
pairs, applies each to the program, and tabulates the resulting metric
vectors.  Each run draws its own generator seeded with ``[seed, run]``,
making every run reproducible independently of the others.

Random sequences of a few passes reach only a handful of distinct
programs, and every pass is a pure function of its (frozen, hashable)
input program.  So one experiment call holds the memo of
:mod:`quilopt.graphs` open, in which ``transforms.apply_passes`` applies
each (program, pass) pair once, each distinct program is measured once,
and the oracle is asked about each distinct verified program once.  The
memo lives for one call only; nothing is kept between calls.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from quilopt import graphs, ir, metrics, oracle, transforms

# Canonical draw order for the experiment's random pass choices: the
# registry's order, which the stored reference tables pin.
PAIR_NAMES = tuple(transforms.PASS_PAIRS)


class MetricsVector(NamedTuple):
    wall_time: int
    instructions: int
    qin: int
    qct: int


def measure(program: ir.Program) -> MetricsVector:
    report = metrics.report(program)
    return MetricsVector(
        report.total_wall_time, report.instr_total, report.qin, report.qct
    )


class VerificationError(ir.QuilError):
    """An optimized program no longer matches the original readout."""


@dataclass(frozen=True)
class ExperimentResult:
    runs: int
    pairs: int
    seed: int
    initial: MetricsVector
    best: MetricsVector | None
    table: tuple[tuple[MetricsVector, int], ...]
    verified_runs: int

    @property
    def modal(self) -> tuple[MetricsVector, int] | None:
        return self.table[0] if self.table else None

    def to_dict(self) -> dict:
        return {
            "runs": self.runs,
            "pairs": self.pairs,
            "seed": self.seed,
            "initial": self.initial._asdict(),
            "best": None if self.best is None else self.best._asdict(),
            "table": [
                {
                    "metrics": vector._asdict(),
                    "count": count,
                    "fraction": count / self.runs,
                }
                for vector, count in self.table
            ],
            "verified_runs": self.verified_runs,
        }


def draw_sequence(seed: int, run: int, pairs: int) -> list[str]:
    """The pass sequence of one experiment run, reproducible from its seed."""
    rng = np.random.default_rng([seed, run])
    picks = rng.integers(0, len(PAIR_NAMES), size=pairs)
    return [PAIR_NAMES[i] for i in picks]


def run_experiment(
    program: ir.Program,
    runs: int = 500,
    pairs: int = 25,
    seed: int = 0,
    readout=None,
    verify_runs: int = 10,
) -> ExperimentResult:
    """Sample ``runs`` random pass sequences and tabulate the outcomes.

    The first ``verify_runs`` optimized programs are checked against the
    reference executor; a mismatch raises :class:`VerificationError`.
    ``best`` holds the per-metric minimum over all runs — the columns may
    come from different runs.

    Within the call, each (program, pass name) pair is applied once, each
    distinct program is measured once, and each distinct verified program
    is checked once; the result is that of computing every run afresh.
    """
    for name, count in (("runs", runs), ("pairs", pairs), ("verify_runs", verify_runs)):
        if count < 0:
            raise ValueError(f"{name} must be at least 0, got {count}")
    readout = None if readout is None else frozenset(readout)
    with graphs.memo():
        counts: Counter[MetricsVector] = Counter()
        best = None
        verified = 0
        for run in range(runs):
            optimized = transforms.apply_passes(
                program, draw_sequence(seed, run, pairs), readout
            )
            if run < verify_runs:
                ok, distance = graphs.recall(
                    oracle.equivalent, program, optimized, readout
                )
                if not ok:
                    raise VerificationError(
                        f"run {run} changed the readout distribution "
                        f"(distance {distance:.3e})"
                    )
                verified += 1
            vector = graphs.recall(measure, optimized)
            counts[vector] += 1
            if best is None:
                best = vector
            else:
                best = MetricsVector(*(min(a, b) for a, b in zip(best, vector)))

        table = tuple(
            sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        )
        return ExperimentResult(
            runs=runs,
            pairs=pairs,
            seed=seed,
            initial=graphs.recall(measure, program),
            best=best,
            table=table,
            verified_runs=verified,
        )


def compare(before: MetricsVector, after: MetricsVector) -> dict:
    """Per metric: before, after, the change and the percent saved."""
    return {
        name: {
            "before": x,
            "after": y,
            "delta": y - x,
            "percent": 0.0 if x == 0 else 100.0 * (x - y) / x,
        }
        for name, x, y in zip(MetricsVector._fields, before, after)
    }
