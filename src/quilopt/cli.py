"""Command-line front end.

Subcommands mirror the library surface: ``metrics`` profiles a program,
``optimize`` applies a pass sequence, ``experiment`` samples random
sequences, ``graph`` renders DOT files, ``oracle`` executes the program
exactly, and ``compare`` diffs two saved metrics reports.  All JSON output
is emitted with sorted keys so reports diff cleanly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from quilopt import analyses, graphs, harness, ir, metrics, oracle, transforms


def _load_program(path: str) -> ir.Program:
    return ir.parse(Path(path).read_text())


def _print_json(data, stream=None) -> None:
    json.dump(data, stream or sys.stdout, indent=2, sort_keys=True)
    (stream or sys.stdout).write("\n")


def _split_csv(text: str) -> list[str]:
    return [item for item in (part.strip() for part in text.split(",")) if item]


def _outcome_key(outcome) -> str:
    return " ".join(
        f"{region}={','.join(str(v) for v in values)}" for region, values in outcome
    )


def _facts_document(program: ir.Program) -> dict:
    """Constant-propagation facts per segment and program point."""
    segments = []
    for ddg in graphs.build_ddgs(program):
        facts = analyses.constant_propagation(ddg)
        points = []
        for offset, position in enumerate(ddg.path):
            points.append(
                {
                    "position": position,
                    "instruction": ir.instruction_text(
                        program.instructions[position]
                    ),
                    "cells": {
                        f"{region}[{index}]": value
                        for (_, region, index), value in sorted(
                            facts.cells_before[offset].items()
                        )
                    },
                    "qubits": {
                        str(qubit): state
                        for qubit, state in sorted(
                            facts.qubits_before[offset].items()
                        )
                    },
                }
            )
        segments.append({"segment": ddg.id, "role": ddg.role.value, "points": points})
    return {"segments": segments}


def _cmd_metrics(args) -> int:
    report = metrics.report(_load_program(args.file))
    document = report.to_dict()
    if args.json:
        with open(args.json, "w") as handle:
            _print_json(document, handle)
    else:
        _print_json(document)
    return 0


def _cmd_optimize(args) -> int:
    names = _split_csv(args.passes)
    unknown = [name for name in names if name not in transforms.PASS_PAIRS]
    if unknown:
        known = ", ".join(transforms.PASS_PAIRS)
        raise SystemExit(f"unknown pass {unknown[0]!r} (choose from: {known})")
    program = _load_program(args.file)
    readout = program.readout(_split_csv(args.readout)) if args.readout else None
    if args.dump_facts:
        with open(args.dump_facts, "w") as handle:
            _print_json(_facts_document(program), handle)
    optimized = transforms.apply_passes(program, names, readout)
    text = ir.emit(optimized)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_experiment(args) -> int:
    counts = (("--runs", args.runs), ("--pairs", args.pairs), ("--seed", args.seed))
    for flag, count in counts:
        if count < 0:
            print(f"error: {flag} must be at least 0, got {count}", file=sys.stderr)
            return 1
    program = _load_program(args.file)
    readout = program.readout(_split_csv(args.readout)) if args.readout else None
    result = harness.run_experiment(
        program,
        runs=args.runs,
        pairs=args.pairs,
        seed=args.seed,
        readout=readout,
    )
    if args.json:
        with open(args.json, "w") as handle:
            _print_json(result.to_dict(), handle)
    print(f"runs={result.runs} pairs={result.pairs} seed={result.seed}")
    print(f"initial {tuple(result.initial)}")
    if result.best is not None:
        print(f"best    {tuple(result.best)}")
    for vector, count in result.table:
        print(f"  {tuple(vector)}  x{count}  ({100.0 * count / result.runs:.1f}%)")
    return 0


def _cmd_graph(args) -> int:
    program = _load_program(args.file)
    out_dir = Path(args.dot)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if args.cfg:
        target = out_dir / "cfg.dot"
        target.write_text(graphs.cfg_to_dot(graphs.Cfg(program)))
        written.append(target)
    else:
        for ddg in graphs.build_ddgs(program):
            target = out_dir / f"ddg_{ddg.id}.dot"
            target.write_text(graphs.ddg_to_dot(ddg))
            written.append(target)
    for path in written:
        print(path)
    return 0


def _cmd_oracle(args) -> int:
    program = _load_program(args.file)
    readout = _split_csv(args.readout) if args.readout else None
    distribution = oracle.run(
        program,
        readout,
        max_steps=args.max_steps,
        prune_epsilon=args.prune,
    )
    _print_json(
        {
            "probabilities": {
                _outcome_key(outcome): probability
                for outcome, probability in distribution.probabilities.items()
            },
            "truncated_mass": distribution.truncated_mass,
        }
    )
    return 0


def _cmd_compare(args) -> int:
    vectors = []
    for path in (args.before, args.after):
        with open(path) as handle:
            try:
                document = json.load(handle)
                vectors.append(harness.MetricsVector(
                    wall_time=document["total_wall_time"],
                    instructions=sum(seg["instr_count"] for seg in document["per_ddg"]),
                    qin=document["qin"],
                    qct=document["qct"],
                ))
            except (ValueError, LookupError, TypeError) as error:
                reason = f"{type(error).__name__}: {error}"
                print(f"error: {path}: not a metrics report ({reason})", file=sys.stderr)
                return 1
    _print_json(harness.compare(*vectors))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quilopt",
        description="Profile and optimize hybrid quantum-classical programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metrics", help="print the metrics report as JSON")
    p.add_argument("file")
    p.add_argument("--json", metavar="FILE", help="write the report here instead")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("optimize", help="apply a pass sequence and emit the result")
    p.add_argument("file")
    p.add_argument(
        "--passes",
        required=True,
        help="comma-separated pass names: " + ", ".join(transforms.PASS_PAIRS),
    )
    p.add_argument("--readout", help="comma-separated readout region names")
    p.add_argument("--output", metavar="FILE", help="write the program here")
    p.add_argument(
        "--dump-facts",
        metavar="FILE",
        help="write constant-propagation facts for the input program as JSON",
    )
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("experiment", help="sample random pass sequences")
    p.add_argument("file")
    p.add_argument("--runs", type=int, default=500)
    p.add_argument("--pairs", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", metavar="FILE", help="write the full summary here")
    p.add_argument("--readout", help="comma-separated readout region names")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("graph", help="write control- or data-dependency DOT files")
    p.add_argument("file")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--cfg", action="store_true", help="control-flow graph")
    mode.add_argument("--ddg", action="store_true", help="one graph per trace")
    p.add_argument("--dot", required=True, metavar="DIR", help="output directory")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("oracle", help="print the exact readout distribution")
    p.add_argument("file")
    p.add_argument(
        "--max-steps",
        type=int,
        default=10000,
        help="instructions one configuration may execute; a merged "
        "configuration keeps the larger count of its members",
    )
    p.add_argument(
        "--prune",
        type=float,
        default=1e-12,
        help="drop a measurement outcome of at most this probability",
    )
    p.add_argument("--readout", help="comma-separated readout region names")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("compare", help="diff two saved metrics reports")
    p.add_argument("before", metavar="before.json")
    p.add_argument("after", metavar="after.json")
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ir.QuilError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
