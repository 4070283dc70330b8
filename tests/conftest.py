"""Shared test helpers: a seeded random-program generator, and lookups
on the traces of ``graphs.build_ddgs`` that only tests need.

The generator only emits forward jumps, so every generated program
terminates and can be run through the reference simulator.  Classical ops
are kind-aware (no bitwise ops on REAL cells, DIV only by nonzero
literals) so that folding and simulation are both well defined.
"""

from __future__ import annotations

import random

from quilopt import ir

REGION_POOL = [
    ("ro", "BIT", 2),
    ("m", "BIT", 3),
    ("acc", "INTEGER", 2),
    ("theta", "REAL", 2),
    ("scratch", "OCTET", 2),
]

_1Q_GATES = ["I", "X", "Y", "Z", "H", "S", "T"]
_ROTATIONS = ["RX", "RY", "RZ", "PHASE"]
_2Q_GATES = ["CNOT", "CZ", "SWAP"]

_INT_OPS = ["ADD", "SUB", "MUL", "AND", "IOR", "XOR"]
_REAL_OPS = ["ADD", "SUB", "MUL"]


def by_id(ddgs) -> dict:
    """The traces of ``graphs.build_ddgs`` by their id."""
    return {d.id: d for d in ddgs}


def predecessors(ddg) -> dict[int, set[int]]:
    """Each position's direct predecessors in ``ddg.edges``."""
    pred: dict[int, set[int]] = {pos: set() for pos in ddg.path}
    for u, v in ddg.edges:
        pred[v].add(u)
    return pred


def ancestors(ddg, pos: int) -> set[int]:
    """All positions ``pos`` transitively depends on: a full walk of the
    predecessor edges, the reference for walks that stop early."""
    pred = predecessors(ddg)
    out: set[int] = set()
    stack = list(pred[pos])
    while stack:
        p = stack.pop()
        if p not in out:
            out.add(p)
            stack.extend(pred[p])
    return out


def _random_classical(rng: random.Random, declares: list[ir.Declare]) -> ir.Classical:
    decl = rng.choice(declares)
    dest = ir.MemoryRef(decl.name, rng.randrange(decl.size))
    kind = decl.kind

    roll = rng.random()
    if roll < 0.15:
        return ir.Classical("NOT" if kind != "REAL" else "NEG", (dest,))
    if roll < 0.30 and decl.size > 1:
        other = ir.MemoryRef(decl.name, rng.randrange(decl.size))
        return ir.Classical("EXCHANGE", (dest, other))
    if roll < 0.50:
        if kind == "BIT":
            src = rng.randint(0, 1)
        elif kind == "REAL":
            src = round(rng.uniform(-4.0, 4.0), 3)
        else:
            src = rng.randint(0, 20)
        return ir.Classical("MOVE", (dest, src))

    if kind == "REAL":
        op = rng.choice(_REAL_OPS + ["DIV"])
        if op == "DIV":
            src = round(rng.uniform(0.5, 4.0), 3)
        elif rng.random() < 0.5:
            src = round(rng.uniform(-4.0, 4.0), 3)
        else:
            src = ir.MemoryRef(decl.name, rng.randrange(decl.size))
    elif kind == "BIT":
        op = rng.choice(["AND", "IOR", "XOR", "ADD"])
        src = rng.randint(0, 1)
    else:
        op = rng.choice(_INT_OPS + ["DIV"])
        if op == "DIV":
            src = rng.randint(1, 6)
        elif rng.random() < 0.6:
            src = rng.randint(0, 20)
        else:
            src = ir.MemoryRef(decl.name, rng.randrange(decl.size))
    return ir.Classical(op, (dest, src))


def _random_instruction(
    rng: random.Random, n_qubits: int, declares: list[ir.Declare]
) -> ir.Instruction:
    angle_regions = [d for d in declares if d.kind in ("REAL", "INTEGER")]
    bit_regions = [d for d in declares if d.kind == "BIT"]
    roll = rng.random()

    if roll < 0.30:
        return ir.Gate(rng.choice(_1Q_GATES), (), (rng.randrange(n_qubits),))
    if roll < 0.40 and n_qubits >= 2:
        qubits = tuple(rng.sample(range(n_qubits), 2))
        return ir.Gate(rng.choice(_2Q_GATES), (), qubits)
    if roll < 0.48:
        angle = round(rng.uniform(-3.14, 3.14), 3)
        return ir.Gate(rng.choice(_ROTATIONS), (angle,), (rng.randrange(n_qubits),))
    if roll < 0.56 and angle_regions:
        decl = rng.choice(angle_regions)
        ref = ir.MemoryRef(decl.name, rng.randrange(decl.size))
        return ir.ParamGate(rng.choice(_ROTATIONS), (ref,), (rng.randrange(n_qubits),))
    if roll < 0.62:
        if rng.random() < 0.85:
            return ir.Reset(rng.randrange(n_qubits))
        return ir.Reset(None)
    if roll < 0.78:
        qubit = rng.randrange(n_qubits)
        if bit_regions and rng.random() < 0.7:
            decl = rng.choice(bit_regions)
            return ir.Measure(qubit, ir.MemoryRef(decl.name, rng.randrange(decl.size)))
        return ir.Measure(qubit)
    return _random_classical(rng, declares)


def random_program(rng: random.Random, max_jumps: int = 2) -> ir.Program:
    """A small, valid, terminating program; structure varies with the seed."""
    n_extra = rng.randint(0, len(REGION_POOL) - 1)
    chosen = [REGION_POOL[0]] + rng.sample(REGION_POOL[1:], n_extra)
    declares = [ir.Declare(name, kind, size) for name, kind, size in chosen]
    n_qubits = rng.randint(1, 4)

    body: list[ir.Instruction] = []
    for _ in range(rng.randint(3, 26)):
        body.append(_random_instruction(rng, n_qubits, declares))
    if rng.random() < 0.6:
        body.append(ir.Measure(rng.randrange(n_qubits), ir.MemoryRef("ro", 0)))

    bit_cells = [
        ir.MemoryRef(d.name, i)
        for d in declares
        if d.kind == "BIT"
        for i in range(d.size)
    ]
    for k in range(rng.randint(0, max_jumps)):
        # Insert a forward jump: the label always lands after the jump.
        jump_at = rng.randrange(len(body))
        label_at = rng.randint(jump_at + 1, len(body))
        name = f"L{k}"
        kind = rng.random()
        if kind < 0.25:
            jump: ir.Instruction = ir.Jump(name)
        elif kind < 0.65:
            jump = ir.JumpWhen(name, rng.choice(bit_cells))
        else:
            jump = ir.JumpUnless(name, rng.choice(bit_cells))
        body.insert(label_at, ir.Label(name))
        body.insert(jump_at, jump)

    if rng.random() < 0.3:
        body.append(ir.Halt())

    program = ir.Program(tuple(declares) + tuple(body))
    ir.validate(program)
    return program


def random_retry_program(rng: random.Random, max_blocks: int = 2) -> ir.Program:
    """Chained repeat-until-success loops, each a backward JUMP-WHEN on a
    freshly measured ancilla bit.

    Each block resets the ancilla inside the loop, rotates it by a random
    angle, runs a random body on the data qubits, entangles the ancilla
    with one of them and measures it, so every iteration retries with
    probability sin²(angle / 2).  Loop bodies never touch the ancilla,
    never fork (no MEASURE or RESET) and never multiply a cell by a cell,
    which would square its value on every iteration; a forking body would
    split every branch of a branch-per-outcome executor once per
    iteration.  The prelude before the first loop may measure and reset.
    """
    n_extra = rng.randint(0, len(REGION_POOL) - 1)
    chosen = [REGION_POOL[0]] + rng.sample(REGION_POOL[1:], n_extra)
    declares = [ir.Declare(name, kind, size) for name, kind, size in chosen]
    n_data = rng.randint(1, 3)
    ancilla = n_data
    blocks = rng.randint(1, max_blocks)

    def loop_instruction() -> ir.Instruction:
        while True:
            instr = _random_instruction(rng, n_data, declares)
            forks = isinstance(instr, (ir.Measure, ir.Reset))
            squares = (
                isinstance(instr, ir.Classical)
                and instr.op == "MUL"
                and isinstance(instr.operands[1], ir.MemoryRef)
            )
            if not forks and not squares:
                return instr

    body: list[ir.Instruction] = [
        _random_instruction(rng, n_data, declares) for _ in range(rng.randint(0, 4))
    ]
    for b in range(blocks):
        bit = ir.MemoryRef("flag", b)
        angle = round(rng.uniform(0.5, 1.6), 3)
        body += [
            ir.Label(f"retry{b}"),
            ir.Reset(ancilla),
            ir.Gate("RY", (angle,), (ancilla,)),
        ]
        body += [loop_instruction() for _ in range(rng.randint(1, 5))]
        body += [
            ir.Gate("CNOT", (), (ancilla, rng.randrange(n_data))),
            ir.Measure(ancilla, bit),
            ir.JumpWhen(f"retry{b}", bit),
        ]
    body.append(ir.Measure(rng.randrange(n_data), ir.MemoryRef("ro", 0)))

    flag = ir.Declare("flag", "BIT", blocks)
    program = ir.Program(tuple(declares) + (flag,) + tuple(body))
    ir.validate(program)
    return program
