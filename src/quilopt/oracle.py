"""Reference interpreter: exact readout distributions for small programs.

Executes a program on a worklist of *configurations*: a program counter,
the classical memory and one sub-normalized mixed state rho = V Vᴴ, kept as
a factor ``V`` of shape 2**n x r (r = 1 for a pure state).

- A gate applies its unitary to every column of ``V``.
- A measurement splits a configuration into its two outcomes, weighted by
  the Born rule: each keeps the rows where the qubit reads that outcome,
  and its probability is the squared norm of what it keeps.
- A reset does not split: it maps ``V`` to [P0·V | X·P1·V], dropping
  all-zero columns (a measured qubit leaves one block empty).
- Configurations with equal pc and memory follow the same control path
  from there on, and everything after that point is linear in rho, so
  they merge exactly into one by concatenating their factors' columns.  A
  factor wider than 2**n is refactored to 2**n columns (V <- Rᴴ, where
  Vᴴ = QR), so a step never costs more than one on a density matrix.
  Memory cells that are not strongly live at pc (see below) are zeroed
  before keying, so a value nothing reads later, such as a loop counter,
  does not keep configurations apart.

Configurations waiting at a label, where control paths join, are
expanded lowest pc first (ties in insertion order), so that paths meet
and merge there before they run on.  Measurement outcomes are expanded
before them, last in first out, as in a depth-first search: held back in
pc order, the outcomes past a program's last label would all wait until
every loop before it had finished.  The order is fixed, so every run
gives the same result: the exact joint distribution over the readout
regions' final contents, which optimization passes must preserve.

A measurement outcome whose probability is at most ``prune_epsilon``, and
a configuration that has executed ``max_steps`` instructions, are
abandoned; their probability is reported as ``truncated_mass`` instead of
being silently dropped.  Steps are counted per configuration, and a merged
configuration carries the larger count of its members.

A retry loop comes back to the same (pc, memory) key once per iteration,
and the step from a key -- the instructions run until the next join,
measurement or end -- is the same every time: the classical work depends
only on the memory, and the quantum work is a fixed linear map on rho.
So the second time a key is popped, its step is run as usual and also
recorded as a *transfer*: the step's instruction count and, for each
output (both outcomes of a measurement, a pruned one included; the join
it reaches; or its readout key), the Kraus operators {K_i} of the step's
gates, resets and projection, so that the output is
rho -> sum_i K_i rho K_iᴴ, or the factor [K_1·V | K_2·V | ...].  Every
later pop of the key that can run the whole step within ``max_steps``
replays it, one matrix product per operator, and then treats each output
as stepping would: the same prune test, merge and heap order.  Pruning,
truncation and errors are therefore those of stepping, and only float
rounding differs.  A step with a bare ``RESET``, one of more than 2**n
operators, and every step of a program above ``REPLAY_MAX_QUBITS`` are
always stepped.  Transfers live for one ``run`` call and take at most
keys x outputs x operators x 4**n x 16 bytes, with at most two outputs
per key and 2**n operators per output.

A cell is strongly live at pc where some path from there reads it for a
gate parameter, a jump condition, the readout at the end, or a classical
instruction that writes a strongly live cell.  A cell read only by
instructions whose results nothing uses, such as ``SUB acc 5`` on an acc
nothing else reads, is *faint* (Khedker, Sanyal and Karkare, *Data Flow
Analysis: Theory and Practice*, 2009), so each exit of a loop that
counts in it reaches the next loop with the same key.  An instruction
that can raise on its values keeps what it reads live even so: a DIV by
a cell or by 0, and one that converts between REAL and the integer kinds
(``int(inf)``, ``float`` of a huge int).  Zeroed cells thus flow only
into other zeroed cells, and results and errors are those of the unzeroed
run, except where more merging changes what pruning and the merged step
count cut off.  The dead cells of a pc are kept as runs of adjacent
cells, each zeroed by one slice assignment.

A *loop head* is a key at a label, popped while no label at or below its
pc is pending, so that stepping would pop it next when it comes back.
Its *step tree* is its transfer, followed through the transfers of the
outcome keys it reaches, down to joins and readouts.  Where every key in
that tree has a transfer, no two outcomes of one step merge, exactly one
path leads back to the head, every other join is a label above its pc and
the program has at most ``LOOP_MAX_QUBITS`` qubits, the head runs the
loop in place, in density form: rho flattened to v, one 4**n x 4**n
superoperator S (the sum of kron(K, conj K) over the Kraus operators of
the path back) and one per exit, and one trace row per outcome and
readout, stacked in a matrix F, all built once per ``run`` call.  An
iteration is one product F·v, which gives every mass; stepping's prune
test on each outcome, skipping a pruned outcome's subtree; the readout
masses; v added to the sum of each exit reached; and v <- S·v (Ying and
Feng, "Quantum loop programs", Acta Informatica 47, 2010, sum the same
series in closed form).  The loop stops when the way back is pruned, or
hands its state back to replay when the next iteration's deepest leaf
would pass ``max_steps``; each exit's sum is mapped once, refactored by
pivoted Cholesky and enqueued with the step count of its last member.
Traversal, pruning, step counts and merges are stepping's, so only float
rounding differs; the closed form is not used because it would sum the
tail past ``prune_epsilon`` too.  A head keeps at most leaves x 4**2n x
16 bytes of superoperators (64 KiB each at 3 qubits), where its leaves
are its exits and the way back, for one ``run`` call.

The classical semantics here are deliberately implemented from scratch,
independent of the constant-propagation code, so the two can act as
cross-checks on each other.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import re
import types
from dataclasses import dataclass

import numpy as np

from quilopt import ir

MAX_QUBITS = 10
# Replaying a step costs dense 2**n x 2**n products.  On two chained retry
# loops they beat stepping 1.3-2x up to 5 qubits; at 6 they range from
# 0.86x (two gates per iteration) to 1.6x (three per data qubit), and at 7
# they lose, so steps above this bound are never replayed.
REPLAY_MAX_QUBITS = 5
# Running a loop in place costs 4**n x 4**n superoperator products.  On two
# chained retry loops it beats replay 2x at 2 qubits and 1.5x at 3; at 4 it
# runs at 0.57x and at 5 at 0.08x, so only loops of programs up to this
# bound run in place.
LOOP_MAX_QUBITS = 3


class OracleError(ir.QuilError):
    pass


_S2 = 1.0 / math.sqrt(2.0)

FIXED_UNITARIES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}

_CCNOT = np.eye(8, dtype=complex)
_CCNOT[6, 6] = _CCNOT[7, 7] = 0
_CCNOT[6, 7] = _CCNOT[7, 6] = 1
FIXED_UNITARIES["CCNOT"] = _CCNOT


def rotation_unitary(name: str, theta: float) -> np.ndarray:
    half = theta / 2.0
    c, s = math.cos(half), math.sin(half)
    if name == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if name == "RY":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if name == "RZ":
        return np.array(
            [[np.exp(-1j * half), 0], [0, np.exp(1j * half)]], dtype=complex
        )
    if name == "PHASE":
        return np.array([[1, 0], [0, np.exp(1j * theta)]], dtype=complex)
    raise OracleError(f"unknown parametrized gate {name}")


@functools.lru_cache(maxsize=None)
def _axes(n: int, qubits: tuple) -> tuple:
    """The axis permutation that brings ``qubits`` of an n-qubit factor,
    viewed as a (2,) * n + (r,) tensor, to the front (the column axis
    stays last), and its inverse."""
    perm = (*qubits, *(q for q in range(n) if q not in qubits), n)
    inverse = tuple(perm.index(axis) for axis in range(n + 1))
    return perm, inverse


def _apply_unitary(factor, n, unitary, qubits):
    """``unitary`` on ``qubits`` of every column of ``factor`` (2**n x r)."""
    perm, inverse = _axes(n, qubits)
    t = factor.reshape((2,) * n + (factor.shape[1],)).transpose(perm)
    permuted = t.shape
    t = unitary @ t.reshape(unitary.shape[0], -1)
    return t.reshape(permuted).transpose(inverse).reshape(factor.shape)


def _mass(factor) -> float:
    """Trace of V Vᴴ: the probability a configuration carries."""
    return float(np.vdot(factor, factor).real)


def _compact(factor, dim):
    """``factor`` with at most ``dim`` columns for the same V Vᴴ: with
    Vᴴ = QR, V Vᴴ = Rᴴ R, so a wider V is replaced by Rᴴ, less the
    columns that are exactly zero (R of a rank-deficient V can have some)."""
    if factor.shape[1] <= dim:
        return factor
    factor = np.linalg.qr(factor.conj().T, mode="r").conj().T
    return factor[:, factor.any(axis=0)]


def _project(factor, qubit, outcome):
    """The rows of ``factor`` where ``qubit`` reads ``outcome``; the other
    rows are zero."""
    part = factor.reshape(1 << qubit, 2, -1).copy()
    part[:, 1 - outcome] = 0
    return part.reshape(factor.shape)


def _reset(factor, qubit):
    """[P0·V | X·P1·V]: ``qubit`` back to |0> in every column.  All-zero
    columns are left out, so a block that is exactly zero, as after
    measuring the qubit, adds none."""
    t = factor.reshape(1 << qubit, 2, -1, factor.shape[1])
    if not t[:, 1].any():
        return factor
    stacked = np.concatenate((t[:, 0], t[:, 1]), axis=-1)
    kept = stacked[..., stacked.any(axis=(0, 1))]
    out = np.zeros(t.shape[:3] + kept.shape[-1:], dtype=complex)
    out[:, 0] = kept
    return out.reshape(factor.shape[0], -1)


@dataclass(frozen=True)
class ReadoutDistribution:
    """Joint distribution over the final contents of readout regions.

    Keys are tuples of (region name, tuple of cell values), sorted by
    region name.  ``truncated_mass`` is the probability lost to pruned
    measurement outcomes and over-long configurations.
    """

    probabilities: dict
    truncated_mass: float

    def distance(self, other: "ReadoutDistribution") -> float:
        keys = set(self.probabilities) | set(other.probabilities)
        return 0.5 * sum(
            abs(self.probabilities.get(k, 0.0) - other.probabilities.get(k, 0.0))
            for k in keys
        )


def _qubit_count(program: ir.Program) -> int:
    return program.qubits[-1] + 1 if program.qubits else 0


def _coerce(kind: str, value):
    if kind == "BIT":
        return int(value) & 1
    if kind == "OCTET":
        return int(value) & 255
    if kind == "INTEGER":
        return int(value)
    return float(value)


def _zero_memory(program: ir.Program) -> dict:
    return {
        d.name: [0.0 if d.kind == "REAL" else 0] * d.size
        for d in program.regions.values()
    }


def _read(memory, operand):
    if isinstance(operand, ir.MemoryRef):
        return memory[operand.region][operand.index]
    return operand


def _write(memory, kinds, ref: ir.MemoryRef, value) -> None:
    memory[ref.region][ref.index] = _coerce(kinds[ref.region], value)


def _run_classical(instr: ir.Classical, memory, kinds) -> None:
    op = instr.op
    if op == "EXCHANGE":
        a, b = instr.operands
        va = memory[a.region][a.index]
        vb = memory[b.region][b.index]
        _write(memory, kinds, a, vb)
        _write(memory, kinds, b, va)
        return
    dest = instr.operands[0]
    current = memory[dest.region][dest.index]
    kind = kinds[dest.region]
    if op == "MOVE":
        _write(memory, kinds, dest, _read(memory, instr.operands[1]))
    elif op == "NEG":
        _write(memory, kinds, dest, -current)
    elif op == "NOT":
        if kind == "BIT":
            result = 1 - (int(current) & 1)
        elif kind == "OCTET":
            result = ~int(current) & 255
        elif kind == "INTEGER":
            result = ~int(current)
        else:
            raise OracleError("NOT is undefined for REAL values")
        _write(memory, kinds, dest, result)
    else:
        other = _read(memory, instr.operands[1])
        if op == "ADD":
            result = current + other
        elif op == "SUB":
            result = current - other
        elif op == "MUL":
            result = current * other
        elif op == "DIV":
            if other == 0:
                raise OracleError("division by zero")
            result = current / other if kind == "REAL" else current // other
        elif op == "AND":
            result = int(current) & int(other)
        elif op == "IOR":
            result = int(current) | int(other)
        elif op == "XOR":
            result = int(current) ^ int(other)
        else:  # pragma: no cover
            raise OracleError(f"unknown classical op {op}")
        _write(memory, kinds, dest, result)


def _angle(value, pc: int) -> float:
    try:
        theta = float(value)
    except OverflowError:
        theta = math.inf
    if not math.isfinite(theta):
        raise OracleError(f"position {pc}: rotation angle is not a finite float")
    return theta


def _readout_key(memory, readout):
    return tuple((name, tuple(memory[name])) for name in sorted(readout))


_ONES = re.compile("1+")


def _can_raise(instr: ir.Classical, kinds) -> bool:
    """Whether ``_run_classical`` can raise on the values ``instr`` reads:
    a DIV by a cell or by 0, or a conversion between REAL and the integer
    kinds (``int(inf)``, ``int(nan)``, ``float`` of an int past the float
    range), which mixing the two kinds or a bitwise op on a REAL makes.
    (A float quotient past the float range is inf, not an error.)"""
    ops = instr.operands
    if instr.op == "DIV" and (isinstance(ops[1], ir.MemoryRef) or ops[1] == 0):
        return True
    real = {
        kinds.get(o.region) == "REAL" if isinstance(o, ir.MemoryRef) else isinstance(o, float)
        for o in ops
    }
    return True in real and (len(real) == 2 or instr.op in ("AND", "IOR", "XOR", "NOT"))


def _dead_cells(program: ir.Program, labels, readout, at) -> dict:
    """For every pc in ``at``, the cells that are not strongly live there,
    as runs ``(region, start, stop, zero value)`` of adjacent cells.

    A cell is strongly live where some path from there reads it for a
    gate parameter, a jump condition, the readout at the end (readout
    regions) or a classical instruction that writes a strongly live cell
    or can raise on what it reads (``_can_raise``).  A cell only its own
    updates read, such as a counter nothing else looks at, is *faint*
    (Khedker, Sanyal and Karkare, *Data Flow Analysis*, 2009) and so not
    live either.

    A configuration's future does not depend on these cells: their values
    flow only into other such cells, through instructions that cannot
    raise.  So ``run`` zeroes them before keying it on (pc, memory):
    otherwise a loop that counts in a cell nothing else reads would leave
    each exit with its own memory, and every later loop would run once
    per exit.
    """
    code = program.instructions
    kinds = {d.name: d.kind for d in program.regions.values()}
    # The bitsets below hold one bit per cell: region ``name`` takes bits
    # ``first`` to ``first + size - 1``, so no mask is kept per cell.
    spans, start = [], 0
    for d in program.regions.values():
        spans.append((d.name, start, d.size, 0.0 if d.kind == "REAL" else 0))
        start += d.size
    place = {name: (first, size) for name, first, size, _ in spans}

    def mask(refs):
        found = 0
        for ref in refs:
            if isinstance(ref, ir.MemoryRef) and ref.region in place:
                first, size = place[ref.region]
                if ref.index < size:
                    found |= 1 << (first + ref.index)
        return found

    # Per pc: the cells always read, (written, read for it) pairs, the
    # complement of the cells written, and the successors.
    always, uses, kept, successors = [], [], [], []
    for pc, instr in enumerate(code):
        read, pairs, written, following = 0, (), 0, (pc + 1,)
        if isinstance(instr, ir.Classical):
            ops = instr.operands
            if instr.op == "EXCHANGE":
                a, b = mask(ops[:1]), mask(ops[1:])
                pairs, written, read = ((a, b), (b, a)), a | b, a | b
            else:
                written = mask(ops[:1])
                read = mask(ops[1:] if instr.op == "MOVE" else ops)
                pairs = ((written, read),)
            if not _can_raise(instr, kinds):
                read = 0
        elif isinstance(instr, ir.ParamGate):
            read = mask(instr.params)
        elif isinstance(instr, ir.Measure):
            written = mask((instr.target,))
        elif isinstance(instr, (ir.JumpWhen, ir.JumpUnless)):
            read = mask((instr.condition,))
            following = (labels[instr.target], pc + 1)
        elif isinstance(instr, ir.Jump):
            following = (labels[instr.target],)
        elif isinstance(instr, ir.Halt):
            following = (len(code),)
        always.append(read)
        uses.append(pairs)
        kept.append(~written)
        successors.append(following)
    # Backward strong liveness as bitsets, to a fixed point.
    at_end = sum(
        ((1 << size) - 1) << first
        for name, first, size, _ in spans
        if name in readout
    )
    live = [0] * len(code) + [at_end]
    changed = True
    while changed:
        changed = False
        for pc in reversed(range(len(code))):
            out = 0
            for successor in successors[pc]:
                out |= live[successor]
            now = always[pc] | out & kept[pc]
            for written, read in uses[pc]:
                if out & written:
                    now |= read
            if now != live[pc]:
                live[pc] = now
                changed = True
    everything = (1 << start) - 1

    def dead_at(pc):
        # Bit k of the dead mask is character k of its reversed binary
        # text, so each run of dead cells is a run of "1"s in it.
        bits = format(everything & ~live[pc], "b")[::-1]
        return [
            (name, run.start() - first, run.end() - first, zero)
            for name, first, size, zero in spans
            for run in _ONES.finditer(bits, first, first + size)
        ]

    return {pc: dead_at(pc) for pc in at}


def _transfer(n, ops, count, outputs):
    """A recorded step as replay needs it: ``(count, [(kind, target,
    kraus)])``, where ``kraus`` stacks the k Kraus operators of ``ops``,
    followed by the output's projection if it has one, as a k x 2**n x
    2**n array (None for the identity).  None past 2**n operators.

    Each operator is built from the identity with the functions stepping
    uses, one 2**n-wide block at a time, so no factor is ever wider than
    2**n.  A reset, recorded as ``(None, (qubit,))``, splits every block
    into P0 and X·P1 and leaves out the blocks that are exactly zero.
    """
    blocks = [np.eye(2**n, dtype=complex)]
    flip = FIXED_UNITARIES["X"]
    for unitary, qubits in ops:
        if unitary is not None:
            blocks = [_apply_unitary(b, n, unitary, qubits) for b in blocks]
            continue
        (qubit,) = qubits
        split = []
        for b in blocks:
            split.append(_project(b, qubit, 0))
            split.append(_apply_unitary(_project(b, qubit, 1), n, flip, qubits))
        blocks = [b for b in split if b.any()]
        if len(blocks) > 2**n:
            return None
    stacked = []
    for kind, target, projection in outputs:
        if projection is not None:
            kraus = np.stack([_project(b, *projection) for b in blocks])
        else:
            kraus = np.stack(blocks) if ops else None
        stacked.append((kind, target, kraus))
    return count, stacked


def _replay(kraus, factor):
    """[K_1·V | K_2·V | ...] for the operators stacked in ``kraus`` (None
    for the identity), one matrix product each.  With more than one
    operator, all-zero columns are left out, as a reset leaves them out."""
    if kraus is None:
        return factor
    out = np.matmul(kraus, factor)
    if len(kraus) == 1:
        return out[0]
    out = out.transpose(1, 0, 2).reshape(len(factor), -1)
    return out[:, out.any(axis=0)]


def _compose(kraus, before, dim):
    """The Kraus operators of ``before`` followed by those of ``kraus``
    (None for the identity), at most dim**2 of them: a longer list is
    refactored as ``_compact`` refactors a factor, on the operators
    flattened into columns, which keeps sum_i vec(K_i) vec(K_i)ᴴ and so
    the map."""
    if kraus is None or before is None:
        return before if kraus is None else kraus
    ops = (kraus[:, None] @ before[None]).reshape(-1, dim, dim)
    if len(ops) > dim * dim:
        ops = _compact(ops.reshape(len(ops), -1).T, dim * dim).T.reshape(-1, dim, dim)
    return ops


def _trace_row(kraus, dim):
    """The row r with r · vec(rho) = tr(sum_i K_i rho K_iᴴ), for rho
    flattened row by row: tr(M rho) with M = sum_i K_iᴴ K_i, Hermitian, so
    r = vec(Mᵀ) = vec(conj M)."""
    if kraus is None:
        return np.eye(dim).reshape(-1)
    flat = kraus.reshape(-1, dim)
    return (flat.T @ flat.conj()).reshape(-1)


def _superop(kraus, dim):
    """rho -> sum_i K_i rho K_iᴴ on rho flattened row by row: the sum of
    kron(K_i, conj K_i), entry [(a, b), (i, j)] = sum_k K_k[a, i] conj
    K_k[b, j] (None for the identity)."""
    if kraus is None:
        return None
    flat = kraus.reshape(len(kraus), -1)
    pairs = (flat.T @ flat.conj()).reshape(dim, dim, dim, dim)
    return pairs.transpose(0, 2, 1, 3).reshape(dim * dim, dim * dim)


def _factor(vec, dim):
    """A factor V with V Vᴴ = rho, for rho flattened row by row in ``vec``,
    by Cholesky with diagonal pivoting: each column takes the largest
    diagonal entry left, until none is above 2**n x machine epsilon x the
    largest at the start.  What is left of a rank-deficient rho is then
    rounding, which would only add columns; it is below 4**n x epsilon of
    the trace.  At least one column.

    Plain numpy, so it loads no LAPACK routine that stepping does not
    (``eigh`` would add about 1 MB to a run's peak RSS)."""
    rest = vec.reshape(dim, dim)
    rest = (rest + rest.conj().T) / 2
    tolerance = dim * np.finfo(float).eps * rest.diagonal().real.max()
    columns = []
    for _ in range(dim):
        diagonal = rest.diagonal().real
        pivot = int(diagonal.argmax())
        if not diagonal[pivot] > tolerance:
            break
        column = rest[:, pivot] / math.sqrt(diagonal[pivot])
        columns.append(column)
        rest = rest - np.outer(column, column.conj())
    if not columns:
        return np.zeros((dim, 1), dtype=complex)
    return np.stack(columns, axis=1)


_TEST, _READOUT, _EXIT, _RETURN = range(4)


def _loop_plan(head, transfers, dim):
    """``head``'s step tree, its transfer followed through the transfers of
    the outcome keys it reaches down to joins and readouts, as
    superoperators on the head's state v.  False while a key in the tree
    has no transfer yet; None where the in-place path can never apply: a
    key that is never replayed, two outcomes of one step that merge, an
    exit to a label at or below the head's pc, or other than one way back
    to the head.

    The plan's ``events`` list what stepping does per iteration, in its
    order: the prune test on an outcome (``_TEST``, with its row of
    ``masses`` and the index past its subtree), a readout (row, key), an
    exit (index into ``exits``, its depth) and the return to the head.
    ``masses`` stacks one trace row per outcome and readout, so
    ``masses @ v`` gives every mass of an iteration; ``step`` maps v to
    the next iteration's (None: the identity); ``exits`` holds each
    exit's label key and superoperator from v; ``cycle`` and ``deepest``
    count the instructions from the head back to itself and to its
    deepest leaf.

    The walk only collects each path's Kraus stacks; only a plan that
    applies composes them into trace rows and superoperators."""
    rows, events, exits, back = [], [], [], []
    deepest = 0
    # (key, Kraus stacks from the head to it, depth, its mass row), or
    # (None, None, None, event index of a prune test) past that test's
    # subtree.  Last in first out, as stepping expands outcomes.
    stack = [(head, (), 0, None)]
    while stack:
        key, before, depth, row = stack.pop()
        if key is None:  # the subtree of the prune test at events[row] ends
            events[row] = (_TEST, events[row][1], len(events), 0)
            continue
        if row is not None:
            stack.append((None, None, None, len(events)))
            events.append((_TEST, row, None, 0))
        transfer = transfers.get(key, False)
        if not transfer:
            return transfer
        count, outputs = transfer
        depth += count
        deepest = max(deepest, depth)
        targets = [t for kind, t, _ in outputs if kind == "outcome"]
        if len(set(targets)) < len(targets):
            return None
        for kind, target, kraus in outputs:
            after = before if kraus is None else before + (kraus,)
            if kind == "join":
                if target == head:
                    back.append((after, depth))
                    events.append((_RETURN, 0, None, 0))
                elif target[0] > head[0]:
                    events.append((_EXIT, len(exits), None, depth))
                    exits.append((target, after))
                else:
                    return None
                continue
            rows.append(after)
            if kind == "readout":
                events.append((_READOUT, len(rows) - 1, target, 0))
            else:
                stack.append((target, after, depth, len(rows) - 1))
    if len(back) != 1:
        return None
    ((step, cycle),) = back

    def composed(path):
        ops = None
        for kraus in path:
            ops = _compose(kraus, ops, dim)
        return ops

    masses = [_trace_row(composed(path), dim) for path in rows]
    return types.SimpleNamespace(
        cycle=cycle,
        deepest=deepest,
        masses=np.array(masses).reshape(len(rows), dim * dim),
        events=events,
        step=_superop(composed(step), dim),
        exits=[(target, _superop(composed(path), dim)) for target, path in exits],
    )


def _run_loop(loop, v, steps, max_steps, prune_epsilon, probabilities):
    """Iterate ``loop`` from state ``v`` at ``steps`` as stepping would:
    prune, read out and exit each iteration, until the way back is pruned
    or the next iteration's deepest leaf would pass ``max_steps``.

    Returns the truncated mass, the exits as ``(key, rho flattened, step
    count of its last member)`` in the order stepping first reaches them,
    and the state and step count to continue stepping from (None once the
    loop is done).  Adds readout masses to ``probabilities``."""
    truncated = 0.0
    reached: dict = {}  # exit index -> [sum of v, step count]
    events, count = loop.events, len(loop.events)
    while steps + loop.deepest <= max_steps:
        masses = (loop.masses @ v).real.tolist()
        returned = False
        i = 0
        while i < count:
            kind, row, target, depth = events[i]
            i += 1
            if kind == _TEST:
                mass = masses[row]
                if mass <= prune_epsilon or not mass:
                    truncated += mass
                    i = target
            elif kind == _READOUT:
                probabilities[target] = probabilities.get(target, 0.0) + masses[row]
            elif kind == _EXIT:
                entry = reached.get(row)
                if entry is None:
                    reached[row] = [v, steps + depth]
                else:
                    entry[0] = entry[0] + v
                    entry[1] = steps + depth
            else:
                returned = True
        if not returned:
            v = None
            break
        if loop.step is not None:
            v = loop.step @ v
        steps += loop.cycle
    exits: dict = {}
    for index, (total, last) in reached.items():
        target, superop = loop.exits[index]
        rho = total if superop is None else superop @ total
        if target in exits:
            earlier, before = exits[target]
            rho, last = earlier + rho, max(before, last)
        exits[target] = (rho, last)
    return truncated, [(t, rho, last) for t, (rho, last) in exits.items()], v, steps


def run(
    program: ir.Program,
    readout=None,
    *,
    max_steps: int = 10_000,
    prune_epsilon: float = 1e-12,
) -> ReadoutDistribution:
    """Execute every configuration of the program and tally readout outcomes."""
    if not prune_epsilon >= 0:  # also refuses NaN, which would never prune
        raise OracleError(f"prune_epsilon must be at least 0, got {prune_epsilon}")
    if max_steps < 0:
        raise OracleError(f"max_steps must be at least 0, got {max_steps}")
    readout = program.readout(readout)

    n = _qubit_count(program)
    if n > MAX_QUBITS:
        raise OracleError(
            f"program touches {n} qubits; the oracle supports at most {MAX_QUBITS}"
        )
    regions = program.regions
    kinds = {d.name: d.kind for d in regions.values()}
    names = tuple(regions)
    labels = program.labels
    joins = frozenset(labels.values())
    code = program.instructions
    dim = 2**n
    outcomes_at = (pc + 1 for pc, i in enumerate(code) if isinstance(i, ir.Measure))
    dead = _dead_cells(program, labels, readout, {0, *joins, *outcomes_at})

    probabilities: dict = {}
    truncated = 0.0
    # (pc, memory as a tuple of region tuples) -> [factor, executed
    # instruction count].  The heap orders those keys: measurement outcomes
    # last in first out, then configurations at labels by (pc, insertion).
    pending: dict = {}
    heap: list = []
    order = itertools.count()
    # The keys popped so far, and key -> its transfer, or None where none
    # can be replayed.
    popped: set = set()
    transfers: dict = {}
    # Loop head key -> its ``_loop_plan``, or None where it never runs in
    # place.
    loops: dict = {}

    def settle(pc, memory):
        """The key of a configuration at ``pc``, its dead cells zeroed."""
        for region, lo, hi, zero in dead[pc]:
            memory[region][lo:hi] = [zero] * (hi - lo)
        return (pc, tuple(map(tuple, memory.values())))

    def enqueue(key, factor, steps):
        entry = pending.get(key)
        if entry is None:
            pending[key] = [factor, steps]
            seq = next(order)
            pc = key[0]
            heapq.heappush(heap, (pc, seq, key) if pc in joins else (-1, -seq, key))
        else:
            entry[0] = _compact(np.concatenate((entry[0], factor), axis=1), dim)
            entry[1] = max(entry[1], steps)

    initial = np.zeros((dim, 1), dtype=complex)
    initial[0, 0] = 1.0
    enqueue(settle(0, _zero_memory(program)), initial, 0)

    while heap:
        _, _, key = heapq.heappop(heap)
        factor, steps = pending.pop(key)
        # A loop head: a label key with a transfer, and no label at or
        # below it pending, so stepping would come back to it next.
        if (
            n <= LOOP_MAX_QUBITS
            and key[0] in joins
            and transfers.get(key)
            and (not heap or heap[0][0] > key[0])
        ):
            loop = loops.get(key, False)
            if loop is False:
                loop = _loop_plan(key, transfers, dim)
                if loop is not False:
                    loops[key] = loop
            if loop and steps + loop.deepest <= max_steps:
                lost, exits, v, steps = _run_loop(
                    loop,
                    (factor @ factor.conj().T).reshape(-1),
                    steps,
                    max_steps,
                    prune_epsilon,
                    probabilities,
                )
                truncated += lost
                for target, rho, last in exits:
                    enqueue(target, _factor(rho, dim), last)
                if v is None:
                    continue
                factor = _factor(v, dim)
        transfer = transfers.get(key)
        if transfer is not None and steps + transfer[0] <= max_steps:
            count, outputs = transfer
            for kind, target, kraus in outputs:
                out = _replay(kraus, factor)
                mass = _mass(out)
                if kind == "readout":
                    probabilities[target] = probabilities.get(target, 0.0) + mass
                elif kind == "outcome" and (mass <= prune_epsilon or not mass):
                    truncated += mass
                else:
                    enqueue(target, _compact(out, dim), steps + count)
            continue
        # A key's first pop is stepped; its second is stepped and recorded:
        # ``ops`` lists its quantum operations, ``outputs`` what it reaches.
        ops = outputs = None
        if n <= REPLAY_MAX_QUBITS:
            if key in popped and key not in transfers:
                ops, outputs = [], []
            popped.add(key)
        start = steps
        pc = key[0]
        memory = {name: list(values) for name, values in zip(names, key[1])}
        while pc < len(code):
            if steps >= max_steps:
                truncated += _mass(factor)
                factor = ops = None
                break
            instr = code[pc]
            steps += 1
            if isinstance(instr, (ir.Declare, ir.Label)):
                pc += 1
            elif isinstance(instr, ir.Classical):
                try:
                    _run_classical(instr, memory, kinds)
                except (OverflowError, ValueError) as exc:  # int(inf), int(nan)
                    raise OracleError(f"position {pc}: {exc}") from None
                pc += 1
            elif isinstance(instr, (ir.Gate, ir.ParamGate)):
                if isinstance(instr, ir.ParamGate):
                    theta = _angle(_read(memory, instr.params[0]), pc)
                    unitary = rotation_unitary(instr.name, theta)
                elif instr.params:
                    unitary = rotation_unitary(instr.name, float(instr.params[0]))
                else:
                    unitary = FIXED_UNITARIES[instr.name]
                factor = _apply_unitary(factor, n, unitary, instr.qubits)
                if ops is not None:
                    ops.append((unitary, instr.qubits))
                pc += 1
            elif isinstance(instr, ir.Measure):
                for outcome in (0, 1):
                    part = _project(factor, instr.qubit, outcome)
                    mass = _mass(part)
                    pruned = mass <= prune_epsilon or not mass
                    if pruned:
                        truncated += mass
                        if ops is None:
                            continue
                    child = memory
                    if instr.target is not None:
                        child = {r: list(v) for r, v in memory.items()}
                        _write(child, kinds, instr.target, outcome)
                    target = settle(pc + 1, child)
                    if ops is not None:
                        outputs.append(("outcome", target, (instr.qubit, outcome)))
                    if not pruned:
                        enqueue(target, part, steps)
                factor = None
                break
            elif isinstance(instr, ir.Reset):
                if instr.qubit is None:
                    mass = _mass(factor)
                    factor = np.zeros((dim, 1), dtype=complex)
                    factor[0, 0] = math.sqrt(mass)
                    if ops is not None:
                        transfers[key] = ops = None
                else:
                    factor = _compact(_reset(factor, instr.qubit), dim)
                    if ops is not None:
                        ops.append((None, (instr.qubit,)))
                pc += 1
            elif isinstance(instr, ir.Jump):
                pc = labels[instr.target]
            elif isinstance(instr, ir.JumpWhen):
                taken = _read(memory, instr.condition) != 0
                pc = labels[instr.target] if taken else pc + 1
            elif isinstance(instr, ir.JumpUnless):
                taken = _read(memory, instr.condition) == 0
                pc = labels[instr.target] if taken else pc + 1
            elif isinstance(instr, ir.Halt):
                break
            else:  # pragma: no cover
                raise OracleError(f"cannot execute {instr!r}")
            if pc in joins:
                target = settle(pc, memory)
                enqueue(target, factor, steps)
                if ops is not None:
                    outputs.append(("join", target, None))
                factor = None
                break
        if factor is not None:  # ran off the end or halted
            target = _readout_key(memory, readout)
            probabilities[target] = probabilities.get(target, 0.0) + _mass(factor)
            if ops is not None:
                outputs.append(("readout", target, None))
        if ops is not None:
            transfers[key] = _transfer(n, ops, steps - start, outputs)

    return ReadoutDistribution(probabilities, truncated)


def equivalent(
    original: ir.Program,
    candidate: ir.Program,
    readout=None,
    *,
    tol: float = 1e-9,
    max_steps: int = 10_000,
    prune_epsilon: float = 1e-12,
) -> tuple[bool, float]:
    """Compare readout distributions; returns (within tolerance, distance).

    Both programs must declare every readout region identically -- an
    optimization is not allowed to change the observable interface.
    """
    readout = original.readout(readout)
    for name in readout:
        left = original.regions.get(name)
        right = candidate.regions.get(name)
        if left is None or right is None or left != right:
            raise ir.ValidationError(
                f"readout region {name!r} differs between the two programs"
            )
    kwargs = {"max_steps": max_steps, "prune_epsilon": prune_epsilon}
    first = run(original, readout, **kwargs)
    second = run(candidate, readout, **kwargs)
    distance = first.distance(second)
    ok = (
        distance <= tol
        and first.truncated_mass <= tol
        and second.truncated_mass <= tol
    )
    return ok, distance
