"""Optimization passes over whole programs.

Every pass takes a :class:`~quilopt.ir.Program` and returns a new one;
the program text is the single source of truth.  Passes work one trace
segment at a time.  Reordering passes call :func:`graphs.build_ddgs` once,
then rebind each trace to the current program just before rewriting it,
so each segment's edges are built after the earlier segments' rewrites.

Reordering passes produce a new execution order for a segment and write
it back by *range projection*: the segment's positions are split into
maximal runs of consecutive program positions (labels and jump targets
break runs), and the new order is projected into each run separately.
Positions outside the segment -- labels, other segments -- never move,
and a trace's terminating jump or halt is pinned to its original slot so
the control structure is preserved exactly.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from quilopt import analyses, graphs, ir
from quilopt.graphs import Ddg

_CONTROL_TERMINATORS = (ir.JumpWhen, ir.JumpUnless, ir.Halt)


# ---------------------------------------------------------------------------
# constant folding


@dataclass(frozen=True)
class FoldDiagnostic:
    position: int
    message: str


def _literal(value):
    """``value`` when it can be written back as a source literal: never a
    non-finite float, which would not parse again, nor an int with more
    digits than ``sys.get_int_max_str_digits()``, which ``ir.emit`` cannot
    write."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, int) and value.bit_length() > 64:  # 20 digits or more
        try:
            repr(value)
        except ValueError:
            return None
    return value


def _fold_classical(instr: ir.Classical, regions, cells):
    """Rewrite one classical instruction; returns (instr, diagnostic)."""
    if instr.op == "EXCHANGE":
        return instr, None

    dest = instr.operands[0]
    token = ir.ref_token(dest)
    kind = regions[dest.region].kind

    operands = list(instr.operands)
    if len(operands) > 1 and isinstance(operands[1], ir.MemoryRef):
        value = _literal(cells.get(ir.ref_token(operands[1])))
        if value is not None:
            operands[1] = value

    diagnostic = None
    if instr.op == "MOVE":
        folded = ir.Classical(instr.op, tuple(operands))
        return (folded if folded != instr else instr), None

    if instr.op in ir.UNARY_OPS:
        current = cells.get(token)
        if current is not None:
            result = _literal(analyses._apply_unary(instr.op, kind, current))
            if result is not None:
                return ir.Classical("MOVE", (dest, result)), None
        return instr, None

    current = cells.get(token)
    source = operands[1]
    if instr.op == "DIV" and not isinstance(source, ir.MemoryRef) and source == 0:
        diagnostic = "division by zero"
    elif current is not None and not isinstance(source, ir.MemoryRef):
        result = _literal(analyses._apply_binary(instr.op, kind, current, source))
        if result is not None:
            return ir.Classical("MOVE", (dest, result)), None
    folded = ir.Classical(instr.op, tuple(operands))
    return (folded if folded != instr else instr), diagnostic


def _fold_param_gate(instr: ir.ParamGate, cells):
    params = list(instr.params)
    changed = False
    for i, param in enumerate(params):
        if isinstance(param, ir.MemoryRef):
            value = cells.get(ir.ref_token(param))
            if value is None:
                continue
            try:
                angle = _literal(float(value))
            except OverflowError:  # an INTEGER cell past the float range
                angle = None
            if angle is not None:
                params[i] = angle
                changed = True
    if not changed:
        return instr
    if any(isinstance(p, ir.MemoryRef) for p in params):
        return ir.ParamGate(instr.name, tuple(params), instr.qubits)
    # Every parameter is now a literal: this is an ordinary gate, and the
    # instruction no longer needs the classical device at all.
    return ir.Gate(instr.name, tuple(params), instr.qubits)


def constant_fold(program: ir.Program):
    """Substitute known-constant cells into operands.

    Returns ``(program, diagnostics)``.  Instructions whose operands are
    all known become plain MOVEs of the computed result; parametrized
    gates whose parameters are all known become ordinary gates.  Nothing
    is ever deleted, and positions shared between several traces are left
    alone (different entry paths may reach them with different values).
    """
    ddgs = graphs.build_ddgs(program)
    owners: dict[int, int] = {}
    for ddg in ddgs:
        for pos in ddg.path:
            owners[pos] = owners.get(pos, 0) + 1

    regions = program.regions
    new_instructions = list(program.instructions)
    diagnostics: list[FoldDiagnostic] = []
    for ddg in ddgs:
        facts = analyses.constant_propagation(ddg)
        for k, pos in enumerate(ddg.path):
            if owners[pos] != 1:
                continue
            instr = new_instructions[pos]
            cells = facts.cells_before[k]
            if isinstance(instr, ir.Classical):
                folded, problem = _fold_classical(instr, regions, cells)
                new_instructions[pos] = folded
                if problem is not None:
                    diagnostics.append(FoldDiagnostic(pos, problem))
            elif isinstance(instr, ir.ParamGate):
                new_instructions[pos] = _fold_param_gate(instr, cells)

    return ir.Program(tuple(new_instructions)), tuple(diagnostics)


# ---------------------------------------------------------------------------
# dead code elimination


def _removable(instr, pos, liveness) -> bool:
    if isinstance(instr, ir.Classical):
        written = ir.resources(instr).writes
        return bool(written) and all(
            (pos, token) in liveness.dead_cells for token in written
        )
    if isinstance(instr, (ir.Gate, ir.ParamGate)):
        return all((pos, q) in liveness.dead_qubits for q in instr.qubits)
    if isinstance(instr, ir.Measure):
        if (pos, instr.qubit) not in liveness.dead_qubits:
            return False
        if instr.target is None:
            return True
        return (pos, ir.ref_token(instr.target)) in liveness.dead_cells
    return False


def dead_code_elim(program: ir.Program, readout=None) -> ir.Program:
    """Drop instructions whose effects can never reach the readout.

    Only positions that lie exclusively on terminating traces are
    candidates: an instruction on a trace that can jump back and continue
    might feed a later iteration.  Declarations are dropped only when no
    surviving instruction references their region and the region is not
    part of the readout.  Resets and control instructions always stay.
    """
    if readout is None:
        readout = program.default_readout()
    ddgs = graphs.build_ddgs(program)

    membership: dict[int, list[Ddg]] = {}
    for ddg in ddgs:
        for pos in ddg.path:
            membership.setdefault(pos, []).append(ddg)

    liveness_by_id = {
        ddg.id: analyses.live_variables(ddg, readout)
        for ddg in ddgs
        if ddg.ends_program
    }

    doomed: set[int] = set()
    for pos, segments in membership.items():
        if not all(seg.ends_program for seg in segments):
            continue
        instr = program.instructions[pos]
        if isinstance(instr, ir.Declare):
            continue
        if all(_removable(instr, pos, liveness_by_id[seg.id]) for seg in segments):
            doomed.add(pos)

    survivors = [
        (pos, instr)
        for pos, instr in enumerate(program.instructions)
        if pos not in doomed
    ]

    referenced: set[str] = set()
    for _, instr in survivors:
        for ref in ir.memory_refs(instr):
            referenced.add(ref.region)

    keep = []
    for pos, instr in survivors:
        if (
            isinstance(instr, ir.Declare)
            and instr.name not in referenced
            and instr.name not in readout
        ):
            continue
        keep.append(instr)
    return ir.Program(tuple(keep))


# ---------------------------------------------------------------------------
# write-back of reordered segments


def _consecutive_ranges(path) -> list[list[int]]:
    ranges: list[list[int]] = []
    for pos in path:
        if ranges and pos == ranges[-1][-1] + 1:
            ranges[-1].append(pos)
        else:
            ranges.append([pos])
    return ranges


def _write_back(program: ir.Program, ddg: Ddg, new_order) -> ir.Program:
    assert sorted(new_order) == sorted(ddg.path)
    instructions = list(program.instructions)
    for slots in _consecutive_ranges(ddg.path):
        members = set(slots)
        ordered = [p for p in new_order if p in members]
        for slot, source in zip(slots, ordered):
            instructions[slot] = program.instructions[source]
    return ir.Program(tuple(instructions))


def _apply_orderings(program: ir.Program, order_segment) -> ir.Program:
    """Run ``order_segment(ddg) -> new order`` over every segment in turn.

    Write-back never moves labels, jumps or pinned terminators, so the
    trace paths found up front stay valid; each segment's graph is built
    on the current program, after the earlier segments were rewritten.
    """
    for ddg in graphs.build_ddgs(program):
        if len(ddg) < 2:
            continue
        ddg = dataclasses.replace(ddg, program=program)
        program = _write_back(program, ddg, order_segment(ddg))
    return program


def _pinned_terminator(ddg: Ddg):
    if ddg.path and isinstance(
        ddg.instruction_at(ddg.path[-1]), _CONTROL_TERMINATORS
    ):
        return ddg.path[-1]
    return None


# ---------------------------------------------------------------------------
# dependency-balanced reordering


def _order_balanced(ddg: Ddg) -> list[int]:
    """Queue hybrid instructions with their dependencies, keeping the two
    devices' instruction counts balanced along the way.

    A target's pending dependencies are its hybrid dependencies not yet
    queued.  Those are all its pending ancestors: the queue only ever
    takes an instruction after all of its predecessors, and every hybrid
    ancestor of a target is an earlier target, so everything behind it is
    queued already.
    """
    terminator = _pinned_terminator(ddg)
    path = list(ddg.path)
    rank = {pos: i for i, pos in enumerate(path)}
    cls = {pos: ir.device_class(ddg.instruction_at(pos)) for pos in path}

    relevant = [
        pos
        for pos in path
        if cls[pos] is ir.DeviceClass.HYBRID and pos != terminator
    ]
    last = path[-1]
    if last != terminator and last not in relevant:
        relevant.append(last)

    queued: list[int] = []
    queued_set: set[int] = set()

    def executable(kind):
        for pos in path:
            if pos in queued_set or pos == terminator or cls[pos] is not kind:
                continue
            if all(p in queued_set for p in ddg.pred.get(pos, ())):
                return pos
        return None

    for target in relevant:
        if target in queued_set:
            continue
        deps = sorted(
            analyses.hybrid_dependencies(ddg, target) - queued_set,
            key=rank.__getitem__,
        )
        quantum = sum(1 for p in deps if cls[p] is ir.DeviceClass.QUANTUM)
        classical = sum(1 for p in deps if cls[p] is ir.DeviceClass.CLASSICAL)
        queued.extend(deps)
        queued_set.update(deps)
        while quantum != classical:
            lagging = (
                ir.DeviceClass.CLASSICAL
                if quantum > classical
                else ir.DeviceClass.QUANTUM
            )
            pick = executable(lagging)
            if pick is None:
                break
            queued.append(pick)
            queued_set.add(pick)
            if lagging is ir.DeviceClass.QUANTUM:
                quantum += 1
            else:
                classical += 1
        queued.append(target)
        queued_set.add(target)

    for pos in path:
        if pos not in queued_set and pos != terminator:
            queued.append(pos)
            queued_set.add(pos)
    if terminator is not None:
        queued.append(terminator)
    return queued


def reorder_instructions(program: ir.Program) -> ir.Program:
    """Interleave classical and quantum work evenly between syncs."""
    return _apply_orderings(program, _order_balanced)


# ---------------------------------------------------------------------------
# latest possible quantum execution


def _order_latest_quantum(ddg: Ddg) -> list[int]:
    path = list(ddg.path)
    rank = {pos: i for i, pos in enumerate(path)}
    cls = {pos: ir.device_class(ddg.instruction_at(pos)) for pos in path}

    first_hybrid = next(
        (pos for pos in path if cls[pos] is ir.DeviceClass.HYBRID), None
    )
    if first_hybrid is None:
        ordered = [p for p in path if cls[p] is ir.DeviceClass.CLASSICAL]
        ordered += [p for p in path if cls[p] is ir.DeviceClass.QUANTUM]
        return ordered

    # Classical nodes with only classical ancestors, in one sweep: the
    # path is a topological order, so every predecessor is decided first.
    pure: dict[int, bool] = {}
    for p in path:
        pure[p] = cls[p] is ir.DeviceClass.CLASSICAL and all(
            pure[a] for a in ddg.pred[p]
        )
    front = [p for p in path if pure[p]]
    taken = set(front)
    prefix = [
        p
        for p in path
        if p not in taken
        and cls[p] is ir.DeviceClass.QUANTUM
        and rank[p] < rank[first_hybrid]
    ]
    taken.update(prefix)
    rest = [p for p in path if p not in taken]
    return front + prefix + rest


def latest_possible_quantum(program: ir.Program) -> ir.Program:
    """Front-load sync-independent classical work so the quantum device
    can start as late as possible."""
    return _apply_orderings(program, _order_latest_quantum)


# ---------------------------------------------------------------------------
# pass registry


# Analysis/transform pairs, keyed by the names the CLI and the experiment
# harness use; each maps (program, readout) to the rewritten program.
PASS_PAIRS = {
    "const-prop-fold": lambda program, readout=None: constant_fold(program)[0],
    "liveness-dce": dead_code_elim,
    "hybrid-deps-reorder": lambda program, readout=None: reorder_instructions(program),
    "hybrid-deps-latest-quantum": (
        lambda program, readout=None: latest_possible_quantum(program)
    ),
}


def apply_pass(program: ir.Program, name: str, readout=None) -> ir.Program:
    try:
        step = PASS_PAIRS[name]
    except KeyError:
        raise ValueError(
            f"unknown pass {name!r}; expected one of {sorted(PASS_PAIRS)}"
        ) from None
    return step(program, readout)


def apply_passes(program: ir.Program, names, readout=None) -> ir.Program:
    for name in names:
        program = apply_pass(program, name, readout)
    return program
