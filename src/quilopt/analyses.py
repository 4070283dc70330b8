"""Dataflow analyses over single trace segments.

All analyses here are per-segment and intentionally conservative:

* :func:`constant_propagation` tracks classical cells that provably hold a
  literal (only a ``MOVE cell literal`` introduces one) and single-qubit
  states restricted to the six Pauli eigenstates.  At a join of the trace
  (``Ddg.joins``: :mod:`quilopt.graphs` records where its walk passes a
  label some jump targets) every fact is discarded, because another path
  may enter there with different values.
* :func:`live_variables` runs backwards from the readout cells over a
  terminating trace and records writes that can never be observed.
* :func:`find_hybrid_dependencies` gives, for every hybrid instruction,
  the instructions it reaches by walking the DDG's edges backwards, each
  branch stopping at the first hybrid instruction it meets.  Only that
  branch stops: another branch can go round the same hybrid along
  another qubit's gates, so the result can hold instructions that an
  earlier hybrid in it also depends on.

A ``DECLARE`` changes nothing at run time (memory starts zeroed from the
program's regions, wherever the declaration sits), so no analysis here
treats it as a write.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Mapping

from quilopt import ir
from quilopt.graphs import Ddg, Role

# States are Pauli eigenstates written as axis plus sign, e.g. "Z+" is
# |0>, "X-" is |->.  Unknown states are simply absent from fact maps.
PAULI_STATES = ("Z+", "Z-", "X+", "X-", "Y+", "Y-")

# How each tracked single-qubit gate permutes the Pauli eigenstates
# (global phases dropped).  Gates outside this table destroy the fact.
PAULI_TRANSITIONS: Mapping[str, Mapping[str, str]] = {
    "I": {s: s for s in PAULI_STATES},
    "X": {"Z+": "Z-", "Z-": "Z+", "X+": "X+", "X-": "X-", "Y+": "Y-", "Y-": "Y+"},
    "Y": {"Z+": "Z-", "Z-": "Z+", "X+": "X-", "X-": "X+", "Y+": "Y+", "Y-": "Y-"},
    "Z": {"Z+": "Z+", "Z-": "Z-", "X+": "X-", "X-": "X+", "Y+": "Y-", "Y-": "Y+"},
    "H": {"Z+": "X+", "Z-": "X-", "X+": "Z+", "X-": "Z-", "Y+": "Y-", "Y-": "Y+"},
    "S": {"Z+": "Z+", "Z-": "Z-", "X+": "Y+", "X-": "Y-", "Y+": "X-", "Y-": "X+"},
}


def _coerce(kind: str, value):
    if kind == "BIT":
        return int(value) & 1
    if kind == "OCTET":
        return int(value) & 255
    if kind == "INTEGER":
        return int(value)
    return float(value)


def _emit_int_bits() -> int:
    """Bits below which every int has few enough digits for ``ir.emit``:
    the interpreter's int <-> str digit limit, or its default of 4,300
    where there is none."""
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    return int(digits * math.log2(10))


def _apply_binary(op: str, kind: str, left, right):
    """Evaluate a classical binary op; None when undefined (DIV 0, or a
    result the kind cannot hold, such as int(inf)) or when a product of
    ints could have more digits than ``ir.emit`` writes.  Only MUL grows
    an int faster than one bit per instruction, so only it is bounded;
    the check comes before the product, whose cost grows with its size."""
    if op == "DIV" and right == 0:
        return None
    if (
        op == "MUL"
        and isinstance(left, int)
        and isinstance(right, int)
        and left.bit_length() + right.bit_length() > _emit_int_bits()
    ):
        return None
    try:
        if op == "ADD":
            result = left + right
        elif op == "SUB":
            result = left - right
        elif op == "MUL":
            result = left * right
        elif op == "DIV":
            integral = kind in ("BIT", "OCTET", "INTEGER")
            result = left // right if integral else left / right
        elif op == "AND":
            result = int(left) & int(right)
        elif op == "IOR":
            result = int(left) | int(right)
        elif op == "XOR":
            result = int(left) ^ int(right)
        else:  # pragma: no cover - parser restricts the op set
            raise ValueError(f"not a binary op: {op}")
        return _coerce(kind, result)
    except (OverflowError, ValueError):
        return None


def _apply_unary(op: str, kind: str, value):
    if op == "NEG":
        return _coerce(kind, -value)
    if kind == "BIT":
        return 1 - (int(value) & 1)
    if kind == "OCTET":
        return ~int(value) & 255
    if kind == "INTEGER":
        return ~int(value)
    return None  # NOT on a REAL value is not meaningful


@dataclass(frozen=True)
class SegmentFacts:
    """Known-constant cells and known qubit states before each node.

    ``cells_before[k]`` and ``qubits_before[k]`` describe the state right
    before executing the k-th node of the segment's path.  Cells map
    ``("m", region, index)`` tokens to numbers; qubits map indices to a
    state from :data:`PAULI_STATES`.
    """

    cells_before: tuple[Mapping, ...]
    qubits_before: tuple[Mapping, ...]


def constant_propagation(ddg: Ddg) -> SegmentFacts:
    program = ddg.program
    regions = program.regions

    cells: dict = {}
    qubits: dict[int, str] = {}
    if ddg.role is Role.START:
        # Execution starts on a freshly initialized machine.
        qubits = dict.fromkeys(program.qubits, "Z+")

    cells_before = []
    qubits_before = []
    for k, pos in enumerate(ddg.path):
        if k in ddg.joins:
            cells.clear()
            qubits.clear()
        cells_before.append(dict(cells))
        qubits_before.append(dict(qubits))

        instr = program.instructions[pos]
        if isinstance(instr, ir.Classical):
            _transfer_classical(instr, regions, cells)
        elif isinstance(instr, ir.Gate):
            _transfer_gate(instr, qubits)
        elif isinstance(instr, ir.ParamGate):
            for q in instr.qubits:
                qubits.pop(q, None)
        elif isinstance(instr, ir.Measure):
            _transfer_measure(instr, regions, cells, qubits)
        elif isinstance(instr, ir.Reset):
            if instr.qubit is None:
                qubits.update(dict.fromkeys(program.qubits, "Z+"))
            else:
                qubits[instr.qubit] = "Z+"
        # Control instructions only read; facts pass through.

    return SegmentFacts(tuple(cells_before), tuple(qubits_before))


def _operand_value(operand, cells):
    if isinstance(operand, ir.MemoryRef):
        return cells.get(ir.ref_token(operand))
    return operand


def _transfer_classical(instr: ir.Classical, regions, cells) -> None:
    op = instr.op
    if op == "EXCHANGE":
        a = ir.ref_token(instr.operands[0])
        b = ir.ref_token(instr.operands[1])
        va, vb = cells.get(a), cells.get(b)
        for token, value in ((a, vb), (b, va)):
            if value is None:
                cells.pop(token, None)
            else:
                cells[token] = value
        return

    dest = instr.operands[0]
    token = ir.ref_token(dest)
    kind = regions[dest.region].kind
    if op == "MOVE":
        value = _operand_value(instr.operands[1], cells)
        try:
            result = None if value is None else _coerce(kind, value)
        except (OverflowError, ValueError):  # int(inf): not a constant
            result = None
    elif op in ir.UNARY_OPS:
        value = cells.get(token)
        result = None if value is None else _apply_unary(op, kind, value)
    else:
        left = cells.get(token)
        right = _operand_value(instr.operands[1], cells)
        result = (
            None
            if left is None or right is None
            else _apply_binary(op, kind, left, right)
        )
    if result is None:
        cells.pop(token, None)
    else:
        cells[token] = result


def _transfer_gate(instr: ir.Gate, qubits) -> None:
    if len(instr.qubits) == 1 and instr.name in PAULI_TRANSITIONS:
        q = instr.qubits[0]
        state = qubits.get(q)
        if state is not None:
            qubits[q] = PAULI_TRANSITIONS[instr.name][state]
        return
    for q in instr.qubits:
        qubits.pop(q, None)


def _transfer_measure(instr: ir.Measure, regions, cells, qubits) -> None:
    state = qubits.get(instr.qubit)
    target = instr.target
    if state == "Z+" or state == "Z-":
        if target is not None:
            kind = regions[target.region].kind
            cells[ir.ref_token(target)] = _coerce(kind, 0 if state == "Z+" else 1)
        return
    qubits.pop(instr.qubit, None)
    if target is not None:
        cells.pop(ir.ref_token(target), None)


@dataclass(frozen=True)
class LivenessResult:
    """Writes along a terminating trace that no later read can observe.

    ``dead_cells`` holds ``(program position, cell token)`` pairs whose
    written value is never read before being overwritten (or before the
    program ends, for non-readout cells).  ``dead_qubits`` holds
    ``(program position, qubit)`` pairs where the qubit's state after that
    instruction can no longer influence any stored measurement.
    """

    dead_cells: frozenset
    dead_qubits: frozenset


def live_variables(ddg: Ddg, readout) -> LivenessResult:
    """Backward liveness over a trace that actually ends the program."""
    if not ddg.ends_program:
        raise ValueError(
            f"liveness needs a terminating trace; {ddg.id} can continue"
        )
    program = ddg.program
    live = {
        ("m", name, i)
        for name in program.readout(readout)
        for i in range(program.regions[name].size)
    }
    live_qubits: set[int] = set()
    dead_cells = set()
    dead_qubits = set()

    for pos in reversed(ddg.path):
        instr = program.instructions[pos]
        if isinstance(instr, ir.Classical):
            res = ir.resources(instr)
            for token in res.writes:
                if token not in live:
                    dead_cells.add((pos, token))
            live = (live - res.writes) | res.reads
        elif isinstance(instr, (ir.Gate, ir.ParamGate)):
            for q in instr.qubits:
                if q not in live_qubits:
                    dead_qubits.add((pos, q))
            if len(instr.qubits) > 1:
                live_qubits.update(instr.qubits)
            if isinstance(instr, ir.ParamGate):
                live.update(
                    ir.ref_token(p)
                    for p in instr.params
                    if isinstance(p, ir.MemoryRef)
                )
        elif isinstance(instr, ir.Measure):
            if instr.target is not None:
                token = ir.ref_token(instr.target)
                if token not in live:
                    dead_cells.add((pos, token))
                live.discard(token)
            if instr.qubit not in live_qubits:
                dead_qubits.add((pos, instr.qubit))
            if instr.target is not None:
                live_qubits.add(instr.qubit)
        elif isinstance(instr, ir.Reset):
            if instr.qubit is None:
                live_qubits.clear()
            else:
                live_qubits.discard(instr.qubit)
        # Conditional jumps never appear here: they end a trace without
        # ending the program, and this analysis only accepts terminating
        # traces.

    return LivenessResult(frozenset(dead_cells), frozenset(dead_qubits))


def find_hybrid_dependencies(ddg: Ddg) -> dict[int, frozenset[int]]:
    """The closest instructions each hybrid node depends on, keyed by its
    program position in path order.

    Walks the DDG's edges back from each hybrid node, stopping at the
    first hybrid encountered on each branch.
    """
    pred: dict[int, list[int]] = {pos: [] for pos in ddg.path}
    for u, v in ddg.edges:
        pred[v].append(u)
    hybrids = [
        pos
        for pos, instr in zip(ddg.path, ddg.instructions)
        if ir.device_class(instr) is ir.DeviceClass.HYBRID
    ]
    stops = set(hybrids)
    found = {}
    for pos in hybrids:
        deps: set[int] = set()
        stack = list(pred[pos])
        while stack:
            p = stack.pop()
            if p not in deps:
                deps.add(p)
                if p not in stops:
                    stack.extend(pred[p])
        found[pos] = frozenset(deps)
    return found
