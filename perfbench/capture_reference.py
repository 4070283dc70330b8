"""Capture the paper-experiment reference tables into ``reference.json``.

For every fixture and every experiment seed in ``range(SEEDS)`` this runs
``harness.run_experiment`` at the benchmark's run length and stores the
outcome table, the per-metric best and the modal outcome.  ``run.py``
compares each experiment it times against these values.  Capture them on
a trusted commit, from the repository root:

    python3 perfbench/capture_reference.py
"""

from __future__ import annotations

import json

import run

SEEDS = 32


def main() -> None:
    mods = run.load_quilopt()
    harness, fixtures = mods["harness"], mods["fixtures"]
    out = {"runs": run.EXPERIMENT_RUNS, "pairs": run.EXPERIMENT_PAIRS, "fixtures": {}}
    for name in run.FIXTURES:
        program = fixtures.fixture_program(name)
        per_seed = {}
        for seed in range(SEEDS):
            result = harness.run_experiment(
                program,
                runs=run.EXPERIMENT_RUNS,
                pairs=run.EXPERIMENT_PAIRS,
                seed=seed,
                verify_runs=run.EXPERIMENT_VERIFY,
            )
            per_seed[str(seed)] = {
                "table": [[list(v), c] for v, c in result.table],
                "best": list(result.best),
                "modal": [list(result.modal[0]), result.modal[1]],
            }
        out["fixtures"][name] = per_seed
        print(f"{name}: {SEEDS} seeds", flush=True)
    run.REFERENCE.write_text(json.dumps(out, sort_keys=True, indent=1) + "\n")


if __name__ == "__main__":
    main()
