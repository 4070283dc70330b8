"""Reference interpreter: exact readout distributions for small programs.

Executes a program on a dense statevector, forking on every measurement
(and reset) into the outcome-0 and outcome-1 branches weighted by the Born
rule.  The result is the exact joint distribution over the readout
regions' final contents, which optimization passes must preserve.

Branches whose cumulative probability drops below ``prune_epsilon``, and
branches that run longer than ``max_steps`` instructions, are abandoned;
their probability is reported as ``truncated_mass`` instead of being
silently dropped.

The classical semantics here are deliberately implemented from scratch,
independent of the constant-propagation code, so the two can act as
cross-checks on each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from quilopt import ir

MAX_QUBITS = 10


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


def _apply_unitary(state, n, unitary, qubits):
    k = len(qubits)
    t = state.reshape([2] * n)
    t = np.moveaxis(t, qubits, range(k))
    shape = t.shape
    t = unitary @ t.reshape(2**k, -1)
    t = np.moveaxis(t.reshape(shape), range(k), qubits)
    return np.ascontiguousarray(t).reshape(-1)


def _outcome_probability(state, n, qubit, outcome):
    t = state.reshape([2] * n)
    slice_ = np.take(t, outcome, axis=qubit)
    return float(np.real(np.vdot(slice_, slice_)))


def _collapse(state, n, qubit, outcome, probability):
    t = state.reshape([2] * n).copy()
    index = [slice(None)] * n
    index[qubit] = 1 - outcome
    t[tuple(index)] = 0
    return t.reshape(-1) / math.sqrt(probability)


@dataclass(frozen=True)
class ReadoutDistribution:
    """Joint distribution over the final contents of readout regions.

    Keys are tuples of (region name, tuple of cell values), sorted by
    region name.  ``truncated_mass`` is the probability lost to pruned or
    over-long branches.
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
    highest = -1
    for instr in program.instructions:
        if isinstance(instr, (ir.Gate, ir.ParamGate)):
            highest = max(highest, *instr.qubits)
        elif isinstance(instr, ir.Measure):
            highest = max(highest, instr.qubit)
        elif isinstance(instr, ir.Reset) and instr.qubit is not None:
            highest = max(highest, instr.qubit)
    return highest + 1


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


def run(
    program: ir.Program,
    readout=None,
    *,
    max_steps: int = 10_000,
    prune_epsilon: float = 1e-12,
) -> ReadoutDistribution:
    """Execute every branch of the program and tally readout outcomes."""
    if readout is None:
        readout = program.default_readout()
    for name in readout:
        if name not in program.regions:
            raise ir.ValidationError(f"readout region {name!r} is not declared")

    n = _qubit_count(program)
    if n > MAX_QUBITS:
        raise OracleError(
            f"program touches {n} qubits; the oracle supports at most {MAX_QUBITS}"
        )
    kinds = {d.name: d.kind for d in program.regions.values()}
    labels = program.labels
    code = program.instructions
    dim = 2**n if n else 1

    initial = np.zeros(dim, dtype=complex)
    initial[0] = 1.0

    probabilities: dict = {}
    truncated = 0.0
    # Stack entries: (statevector, memory, program counter, probability,
    # executed instruction count).  Outcome-0 branches are pushed last so
    # they are explored first.
    stack = [(initial, _zero_memory(program), 0, 1.0, 0)]

    while stack:
        state, memory, pc, prob, steps = stack.pop()
        finished = False
        while pc < len(code):
            if steps >= max_steps:
                truncated += prob
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
            elif isinstance(instr, ir.Gate):
                unitary = (
                    FIXED_UNITARIES[instr.name]
                    if not instr.params
                    else rotation_unitary(instr.name, float(instr.params[0]))
                )
                state = _apply_unitary(state, n, unitary, list(instr.qubits))
                pc += 1
            elif isinstance(instr, ir.ParamGate):
                theta = _angle(_read(memory, instr.params[0]), pc)
                unitary = rotation_unitary(instr.name, theta)
                state = _apply_unitary(state, n, unitary, list(instr.qubits))
                pc += 1
            elif isinstance(instr, ir.Measure):
                branches = []
                for outcome in (1, 0):
                    p = _outcome_probability(state, n, instr.qubit, outcome)
                    child_prob = prob * p
                    if child_prob <= prune_epsilon:
                        truncated += child_prob
                        continue
                    child_state = _collapse(state, n, instr.qubit, outcome, p)
                    child_memory = {r: list(v) for r, v in memory.items()}
                    if instr.target is not None:
                        _write(child_memory, kinds, instr.target, outcome)
                    branches.append(
                        (child_state, child_memory, pc + 1, child_prob, steps)
                    )
                stack.extend(branches)
                break
            elif isinstance(instr, ir.Reset):
                qubits = (
                    range(n) if instr.qubit is None else (instr.qubit,)
                )
                branches = [(state, prob)]
                for q in qubits:
                    next_branches = []
                    for st, pr in branches:
                        for outcome in (1, 0):
                            p = _outcome_probability(st, n, q, outcome)
                            child_prob = pr * p
                            if child_prob <= prune_epsilon:
                                truncated += child_prob
                                continue
                            child = _collapse(st, n, q, outcome, p)
                            if outcome == 1:
                                child = _apply_unitary(
                                    child, n, FIXED_UNITARIES["X"], [q]
                                )
                            next_branches.append((child, child_prob))
                    branches = next_branches
                stack.extend(
                    (st, {r: list(v) for r, v in memory.items()}, pc + 1, pr, steps)
                    for st, pr in branches
                )
                break
            elif isinstance(instr, ir.Jump):
                pc = labels[instr.target]
            elif isinstance(instr, ir.JumpWhen):
                taken = _read(memory, instr.condition) != 0
                pc = labels[instr.target] if taken else pc + 1
            elif isinstance(instr, ir.JumpUnless):
                taken = _read(memory, instr.condition) == 0
                pc = labels[instr.target] if taken else pc + 1
            elif isinstance(instr, ir.Halt):
                finished = True
                break
            else:  # pragma: no cover
                raise OracleError(f"cannot execute {instr!r}")
        else:
            finished = True
        if finished:
            key = _readout_key(memory, readout)
            probabilities[key] = probabilities.get(key, 0.0) + prob

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
    if readout is None:
        readout = original.default_readout()
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
