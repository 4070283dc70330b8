"""Optimization passes over whole programs.

Every pass takes a :class:`~quilopt.ir.Program` and returns a new one;
the program text is the single source of truth.  Passes work one trace
segment at a time.  Reordering passes call :func:`graphs.build_ddgs` once,
then rebind each trace to the current program just before rewriting it,
so each segment's dependencies are found after the earlier segments'
rewrites.  They order trace indices by ``Ddg.ancestors`` alone (what must
run before what, from one scan of the trace) and never read ``Ddg.edges``,
the reduction derived from it.

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


def _bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# dependency-balanced reordering


def _order_balanced(ddg: Ddg) -> list[int]:
    """Queue hybrid instructions with their dependencies, keeping the two
    devices' instruction counts balanced along the way.

    Works on trace indices.  A target's pending dependencies are all its
    ancestors not yet queued, taken in path order; a balancing pick is the
    first unqueued instruction of the lagging device whose ancestors are
    all queued.  A trailing jump or halt is pinned last.
    """
    instructions = ddg.instructions
    ancestors = ddg.ancestors
    n = len(instructions)
    pinned = isinstance(instructions[-1], _CONTROL_TERMINATORS)
    movable = n - 1 if pinned else n
    cls = [ir.device_class(instr) for instr in instructions]
    quantum, classical = ir.DeviceClass.QUANTUM, ir.DeviceClass.CLASSICAL
    masks = dict.fromkeys(ir.DeviceClass, 0)
    for k in range(movable):
        masks[cls[k]] |= 1 << k

    targets = list(_bits(masks[ir.DeviceClass.HYBRID]))
    if not pinned and cls[-1] is not ir.DeviceClass.HYBRID:
        targets.append(n - 1)

    order: list[int] = []
    done = 0
    for target in targets:
        if done >> target & 1:
            continue
        pending = ancestors[target] & ~done
        order.extend(_bits(pending))
        done |= pending
        counts = {
            quantum: (pending & masks[quantum]).bit_count(),
            classical: (pending & masks[classical]).bit_count(),
        }
        while counts[quantum] != counts[classical]:
            lagging = classical if counts[quantum] > counts[classical] else quantum
            pick = next(
                (
                    k
                    for k in _bits(masks[lagging] & ~done)
                    if not ancestors[k] & ~done
                ),
                None,
            )
            if pick is None:
                break
            order.append(pick)
            done |= 1 << pick
            counts[lagging] += 1
        order.append(target)
        done |= 1 << target

    order += [k for k in range(n) if not done >> k & 1]
    return [ddg.path[k] for k in order]


def reorder_instructions(program: ir.Program) -> ir.Program:
    """Interleave classical and quantum work evenly between syncs."""
    return _apply_orderings(program, _order_balanced)


# ---------------------------------------------------------------------------
# latest possible quantum execution


def _order_latest_quantum(ddg: Ddg) -> list[int]:
    cls = [ir.device_class(instr) for instr in ddg.instructions]
    n = len(cls)
    classical = [k for k in range(n) if cls[k] is ir.DeviceClass.CLASSICAL]
    hybrid = [k for k in range(n) if cls[k] is ir.DeviceClass.HYBRID]
    front = classical
    if hybrid:
        # Only classical nodes whose ancestors are all classical move up.
        ancestors = ddg.ancestors
        nonclassical = sum(
            1 << k for k in range(n) if cls[k] is not ir.DeviceClass.CLASSICAL
        )
        front = [k for k in classical if not ancestors[k] & nonclassical]
    prefix = [
        k
        for k in range(hybrid[0] if hybrid else n)
        if cls[k] is ir.DeviceClass.QUANTUM
    ]
    taken = set(front + prefix)
    rest = [k for k in range(n) if k not in taken]
    return [ddg.path[k] for k in front + prefix + rest]


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
