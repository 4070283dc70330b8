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
and a key's step -- the instructions run until the next join,
measurement or end -- is a fixed linear map on rho.  So the second pop of
a key also records its step as a *transfer*: its instruction count and,
per output (each outcome, a pruned one included; the join; or the
readout key), the Kraus operators {K_i} of its gates, resets and
projection (never for a bare ``RESET``).  Later pops run the key's
*region*, what stepping would pop from it before it next goes back to
the heap: for a loop head (a label key popped while no label at or below
its pc is pending) its step, its outcome keys last in first out and the
labels reached in pc order until the way back, a strongly connected part
of the key graph (Tarjan, SIAM J. Comput. 1, 1972); for another key the
key alone, which is replay.  A loop runs one iteration at a time without
the heap (Ying and Feng, Acta Informatica 47, 2010, sum the same series
in closed form, which would also sum the tail past ``prune_epsilon``): a
key's input is the sum of its unpruned incoming outputs, prune tests,
readouts and step counts are stepping's, and exits are summed and
enqueued once the way back is pruned, so only float rounding differs.
Its head goes back to the pop loop rather than commit an iteration that
could pass ``max_steps`` or reaches a key with no transfer, and a loop
with such a key waits for a pop of its head after which nothing was new.
The state is a factor, replayed one product per operator, or in density
form rho flattened to v: the Kraus operators of each path from a key
whose input is summed give each output's trace row, stacked so that one
product gives every mass of a stretch without merges, and, where a state
is delivered, the superoperator S (the sum of kron(K, conj K)).  One rule
picks the form: a transfer is kept while its stacks hold at most
``DENSE_ENTRIES`` entries together, and a loop runs in density form while
one superoperator (16**n entries) does, up to 3 qubits.  On two chained
retry loops, density form ran 1.8-2.1x as fast as factor form at 2
qubits, 1.0-1.4x at 3 and 0.3x at 4; factor form ran 1.1-2x as fast as
stepping up to 5 qubits, 0.7-1.4x at 6 and 0.4-0.9x at 7.  A ``run`` call
keeps ``DENSE_ENTRIES`` x 16 bytes per recorded key and 16**n x 16 per
delivered output of a density loop.

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
# Dense operators pay only while small: a recorded step keeps its Kraus
# stacks while they hold at most this many entries together, and a loop
# runs in density form while one superoperator does (module docstring).
DENSE_ENTRIES = 4096


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


def _dead_cells(program: ir.Program, readout, at) -> dict:
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

    # Per pc: the cells always read, (written, read for it) pairs and the
    # complement of the cells written.
    always, uses, kept = [], [], []
    for instr in code:
        read, pairs, written = 0, (), 0
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
        always.append(read)
        uses.append(pairs)
        kept.append(~written)
    # Backward strong liveness as bitsets, to a fixed point.
    at_end = sum(
        ((1 << size) - 1) << first
        for name, first, size, _ in spans
        if name in readout
    )
    live = [0] * len(code) + [at_end]
    successors = program.successors
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
    """A recorded step as regions need it: ``(count, [(kind, target,
    kraus)])``, where ``kraus`` stacks the k Kraus operators of ``ops``,
    followed by the output's projection if it has one, as a k x 2**n x
    2**n array (None for the identity).  None where the stacks would hold
    more than ``DENSE_ENTRIES`` entries together.

    Each operator is built from the identity with the functions stepping
    uses, one 2**n-wide block at a time, so no factor is ever wider than
    2**n.  A reset, recorded as ``(None, (qubit,))``, splits every block
    into P0 and X·P1 and leaves out the blocks that are exactly zero.
    """
    stacks = sum(bool(ops) or projection is not None for _, _, projection in outputs)
    if stacks * 4**n > DENSE_ENTRIES:
        return None
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
        if stacks * len(blocks) * 4**n > DENSE_ENTRIES:
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


def _superop(kraus, dim):
    """rho -> sum_i K_i rho K_iᴴ on rho flattened row by row: the sum of
    kron(K_i, conj K_i), entry [(a, b), (i, j)] = sum_k K_k[a, i] conj
    K_k[b, j]."""
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


def _region(head, transfers, joins, n, loop, partial):
    """Recorded key ``head`` alone, or with ``loop`` what stepping pops
    from it until it pops it again: its step, its outcome keys last in
    first out, then the labels reached in pc order.  None where that never
    comes back, reaches a key popped already or whose transfer is None,
    has two labels at one pc waiting at once, or leaves at or below
    ``top``, its highest label; False while a key has no transfer, unless
    ``partial``.  ``sources`` are the nodes whose input is summed, in pop
    order, as (events or None, trace rows, most instructions): all in
    factor form, and in density form node 0 and each node with other than
    one incoming edge, the others running inline after the edge into them.
    An event is an edge (tested, slot, op, row, skip, offset): its slot is
    a source's, the way back's, an exit's, a readout's or None (inline),
    ``skip`` passes its inline subtree, ``offset`` counts instructions from
    the source, and ``op`` is its Kraus stack or superoperator."""
    # ``waiting`` holds the labels reached, in the order first reached.
    slots, raw, stack, waiting = {}, [], [head], {}
    while stack:
        key = stack.pop()
        slots[key] = len(raw)
        raw.append(transfers.get(key, False))
        if raw[-1] is None:
            return None
        for kind, target, _ in raw[-1][1] if loop and raw[-1] else ():
            if kind == "readout":
                continue
            if target in slots and target != head:
                return None
            if target[0] in joins:
                waiting[target] = None
            elif target not in stack:  # two outcomes of one step merge
                stack.append(target)
        if not stack and waiting:
            pc = min(key[0] for key in waiting)
            low = [key for key in waiting if key[0] == pc]
            if len(low) > 1:  # which one stepping pops first depends on pruning
                return None
            if low[0] != head:
                del waiting[low[0]]
                stack.append(low[0])
    top = max((key[0] for key in slots if key[0] in joins), default=head[0])
    if loop and (head not in waiting or any(key[0] <= top for key in waiting if key != head)):
        return None
    if loop and not partial and not all(raw):
        return False
    size, dim, dense = len(raw), 2**n, loop and 16**n <= DENSE_ENTRIES
    # Incoming edges; exits numbered in the order their nodes are popped.
    incoming, exits = [0] * size, {}
    for i, transfer in enumerate(raw):
        for e, (kind, target, _) in enumerate(transfer[1] if transfer else ()):
            if kind != "readout" and not (loop and target == head):
                if loop and target in slots:
                    incoming[slots[target]] += 1
                else:
                    exits[i, e] = len(exits)
    inline = [dense and i and incoming[i] == 1 and raw[i] for i in range(size)]
    source = {i: s for s, i in enumerate(i for i in range(size) if not inline[i])}
    ops, reads, sources = {}, [], []
    for i in source:
        # A task is an edge (node, output, the Kraus operators into the
        # node, instructions to the end of its step), last output first; an
        # int closes the inline subtree of the edge at that event.
        events, rows = [], []
        tasks = [(i, e, None, raw[i][0]) for e in range(len(raw[i][1]))] if raw[i] else None
        while tasks:
            task = tasks.pop()
            if isinstance(task, int):
                events[task][4] = len(events)
                continue
            j, e, into, offset = task
            kind, target, kraus = raw[j][1][e]
            if kind == "readout":
                dest = len(source) + 1 + len(exits) + len(reads)
                reads.append(target)
            elif (j, e) in exits:
                dest = len(source) + 1 + exits[j, e]
            else:
                dest = len(source) if target == head else source.get(slots[target])
            op, row = kraus, None
            if dense:
                # The path's Kraus operators, refactored to at most 4**n as
                # _compact refactors a factor; the trace row is vec(conj M) for
                # M = sum_i K_iᴴ K_i, the superoperator formed only if delivered.
                if kraus is None or into is None:
                    op = into if kraus is None else kraus
                else:
                    op = (kraus[:, None] @ into[None]).reshape(-1, dim * dim).T
                    op = _compact(op, dim * dim).T.reshape(-1, dim, dim)
                if kind != "join":
                    flat = np.eye(dim) if op is None else op.reshape(-1, dim)
                    rows.append((flat.T @ flat.conj()).reshape(-1))
                    row = len(rows) - 1
            if dest is None:
                t = slots[target]
                tasks += [len(events)] + [(t, f, op, offset + raw[t][0]) for f in range(len(raw[t][1]))]
            if kind == "readout" or dest is None:
                op = None  # a step keeps the trace; an inline edge only leads on
            elif dense:
                op = ops[j, e] = None if op is None else _superop(op, dim)
            events.append([kind == "outcome", dest, op, row, len(events) + 1, offset])
        rows = np.array(rows).reshape(-1, dim * dim) if dense else None
        reach = max((event[5] for event in events), default=0)
        sources.append((events if raw[i] else None, rows, reach))
    exits = [(raw[i][1][e][1], ops.get((i, e))) for i, e in exits]
    return types.SimpleNamespace(sources=sources, exits=exits, reads=reads, top=top, dense=dense)


def _gather(items, dim):
    """What reached a source: its factors side by side, or the sum of op·v."""
    if not isinstance(items[0], tuple):
        return _compact(items[0] if len(items) == 1 else np.concatenate(items, axis=1), dim)
    states = [v if op is None else op @ v for op, v in items]
    return states[0] if len(states) == 1 else sum(states)


def _run_region(region, factor, steps, max_steps, prune_epsilon, probabilities):
    """Run ``region`` from ``factor`` at ``steps`` one iteration at a time,
    as stepping pops it, until the way back is pruned or an iteration
    reaches a node with no transfer or past ``max_steps`` (not committed).
    Adds readout masses to ``probabilities``; returns the truncated mass,
    the exits as (key, factor, step count) in the order stepping first
    reaches them, and what goes on at the head (or None)."""
    sources, dense, n_exits = region.sources, region.dense, len(region.exits)
    size, dim, truncated, iteration = len(sources), len(factor), 0.0, 0
    reads_at = size + 1 + n_exits
    # Per exit: [its states summed (density: before its op), step count,
    # the iteration that first reached it].
    reached = [None] * n_exits
    back = [(None, (factor @ factor.conj().T).reshape(-1)) if dense else factor]
    while back:
        # Per source, then the way back: what reaches it, its step count.
        inputs, depths = [back] + [None] * size, [steps] * (size + 1)
        outs, lost = [], 0.0
        for s, (events, rows, reach) in enumerate(sources):
            items = inputs[s]
            if items is None:
                continue
            if events is None or depths[s] + reach > max_steps:
                back = inputs[0]  # a key with no transfer, or one cut short
                break
            v = _gather(items, dim)
            if dense:
                masses = (rows @ v).real.tolist()
            at, end, start = 0, len(events), depths[s]
            while at < end:
                tested, dest, op, row, skip, offset = events[at]
                at += 1
                if dense:
                    out, mass = v, None if row is None else masses[row]
                else:
                    out = _replay(op, v)
                    mass = _mass(out) if tested or dest >= reads_at else None
                if tested and (mass <= prune_epsilon or not mass):
                    lost += mass
                    at = skip
                elif dest is None:
                    continue
                elif dest > size:
                    outs.append((dest - size - 1, mass if dest >= reads_at else out, start + offset))
                else:
                    inputs[dest] = (inputs[dest] or []) + [(op, v) if dense else out]
                    depths[dest] = max(depths[dest], start + offset)
        else:
            truncated += lost
            for j, out, here in outs:
                entry = reached[j] if j < n_exits else region.reads[j - n_exits]
                if j >= n_exits:
                    probabilities[entry] = probabilities.get(entry, 0.0) + out
                elif entry is None:
                    reached[j] = [out, here, iteration]
                else:
                    entry[0] = entry[0] + out if dense else _compact(
                        np.concatenate((entry[0], out), axis=1), dim
                    )
                    entry[1] = max(entry[1], here)
            back, steps, iteration = inputs[size] or [], depths[size], iteration + 1
            continue
        break
    exits = []
    for _, j in sorted((entry[2], j) for j, entry in enumerate(reached) if entry):
        (key, op), (out, last, _) = region.exits[j], reached[j]
        exits.append((key, _factor(out if op is None else op @ out, dim) if dense else out, last))
    if not back:
        return truncated, exits, None
    state = _gather(back, dim)
    return truncated, exits, (_factor(state, dim) if dense else state, steps)


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
    dead = _dead_cells(program, readout, {0, *joins, *outcomes_at})

    probabilities: dict = {}
    truncated = 0.0
    # (pc, memory as a tuple of region tuples) -> [factor, executed
    # instruction count].  The heap orders those keys: measurement outcomes
    # last in first out, then configurations at labels by (pc, insertion).
    pending: dict = {}
    heap: list = []
    order = itertools.count()
    # The keys popped so far; key -> its transfer, or None where none is
    # kept; and (key, loop) -> (when built, its region or False).
    popped: set = set()
    transfers: dict = {}
    cache: dict = {}

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
        if transfers.get(key):
            # A label key with no label at or below it pending is a loop
            # head: stepping pops it again next when it comes back.
            head = key[0] in joins and (not heap or heap[0][0] > key[0])
            for loop in (True, False)[not head :]:
                # A loop missing a transfer waits until nothing new is popped.
                version = len(transfers) + len(popped) if loop else 0
                built = cache.get((key, loop), (None, False))
                if built[0] != version or built[1] is False:
                    stable = built[0] == version
                    cache[key, loop] = (version, _region(key, transfers, joins, n, loop, stable))
                ran = cache[key, loop][1]
                if not ran or loop and heap and heap[0][0] <= ran.top:
                    continue
                lost, exits, rest = _run_region(
                    ran, factor, steps, max_steps, prune_epsilon, probabilities
                )
                truncated += lost
                for target, out, last in exits:
                    enqueue(target, out, last)
                if rest is None:
                    break
                factor, steps = rest
            else:
                ran = None
            if ran is not None:
                continue
        # A key's first pop is stepped; its second is stepped and recorded:
        # ``ops`` lists its quantum operations, ``outputs`` what it reaches.
        ops = outputs = None
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
