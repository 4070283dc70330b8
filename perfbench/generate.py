"""Seeded Quil source generators for the ``fresh-programs`` and
``retry-loops`` workloads.

Programs are written as source text, so the program under test only ever
sees parsed inputs.  Literals come from the same ranges as the test
suite's random-program generator (``tests/conftest.py``): BIT 0/1,
INTEGER and OCTET 0..20, REAL in [-4, 4] to three decimals, DIV by 1..6 or
0.5..4.0, rotation angles in [-3.14, 3.14].  That module is read, not
imported, so the benchmark does not depend on the test tree.

Nothing here checks or filters what it generates: a program the tool
cannot handle is counted as a failure by ``run.py``.
"""

from __future__ import annotations

import random

# (name, kind, size): the region pool of the test-suite generator.
REGIONS = (
    ("ro", "BIT", 2),
    ("m", "BIT", 3),
    ("acc", "INTEGER", 2),
    ("theta", "REAL", 2),
    ("scratch", "OCTET", 2),
)
BIT_REGIONS = [r for r in REGIONS if r[1] == "BIT"]
ANGLE_REGIONS = [r for r in REGIONS if r[1] in ("REAL", "INTEGER")]
_1Q_GATES = ("I", "X", "Y", "Z", "H", "S", "T")
_ROTATIONS = ("RX", "RY", "RZ", "PHASE")
_2Q_GATES = ("CNOT", "CZ", "SWAP")
_INT_OPS = ("ADD", "SUB", "MUL", "AND", "IOR", "XOR")
_REAL_OPS = ("ADD", "SUB", "MUL")

# fresh-programs shape: long straight-line traces on three qubits.  The
# instruction mix is fixed and only the order and operands vary, so item
# cost is steady from seed to seed.
FRESH_QUBITS = 3
FRESH_GATES = {"fixed": 45, "two-qubit": 20, "rotation": 20, "parametrized": 15}
FRESH_CLASSICAL = 100
# Every forking instruction sits in a fixed window (shares of the body
# length) and is executed on every path, so the oracle's work is steady:
# an X-basis measurement (H, then MEASURE) near the start, one right
# before each of the two forward conditional jumps, which tests the bit
# it measured, and one into ``ro`` at the end.  X-basis measurements
# almost always fork, which keeps the branch count at sixteen.  Resets
# are left to ``retry_program``.
FRESH_FIRST_MEASURE = (0.05, 0.12)
# (jump window, label window) of each conditional jump.
FRESH_JUMPS = (((0.15, 0.35), (0.40, 0.60)), ((0.65, 0.75), (0.80, 0.95)))

# retry-loops shape: a chain of repeat-until-success blocks on two data
# qubits and one ancilla, each block with as many gates as classical
# instructions between the ancilla's reset and its measurement.
RETRY_BLOCKS = 2
RETRY_DATA = 2
RETRY_PRELUDE = 2
RETRY_BODY = 4


def _ref(name: str, index: int) -> str:
    return name if index == 0 else f"{name}[{index}]"


def _cell(rng: random.Random, region) -> str:
    name, _, size = region
    return _ref(name, rng.randrange(size))


def _angle(rng: random.Random) -> str:
    return f"{round(rng.uniform(-3.14, 3.14), 3)!r}"


def _real(rng: random.Random, low: float = -4.0, high: float = 4.0) -> str:
    return f"{round(rng.uniform(low, high), 3)!r}"


def classical(rng: random.Random, in_loop: bool = False) -> str:
    """One kind-aware classical instruction (MOVE, unary, binary, EXCHANGE).

    With ``in_loop``, MUL always takes a literal source.  A loop body runs
    as often as the oracle follows its retries, up to about forty times.
    A cell multiplied by a cell, such as ``MUL acc acc``, squares its value
    on every iteration, which leaves the float range of a rotation angle
    within ten iterations.  A literal factor (at most 20) keeps it within
    about 20**80 over that depth.
    """
    region = rng.choice(REGIONS)
    name, kind, size = region
    dest = _cell(rng, region)
    roll = rng.random()
    if roll < 0.15:
        return f"{'NEG' if kind == 'REAL' else 'NOT'} {dest}"
    if roll < 0.30 and size > 1:
        return f"EXCHANGE {dest} {_cell(rng, region)}"
    if roll < 0.50:
        if kind == "BIT":
            src = str(rng.randint(0, 1))
        elif kind == "REAL":
            src = _real(rng)
        else:
            src = str(rng.randint(0, 20))
        return f"MOVE {dest} {src}"
    if kind == "REAL":
        op = rng.choice(_REAL_OPS + ("DIV",))
        if op == "DIV":
            src = _real(rng, 0.5, 4.0)
        elif rng.random() < 0.5 or (in_loop and op == "MUL"):
            src = _real(rng)
        else:
            src = _cell(rng, region)
    elif kind == "BIT":
        op = rng.choice(("AND", "IOR", "XOR", "ADD"))
        src = str(rng.randint(0, 1))
    else:
        op = rng.choice(_INT_OPS + ("DIV",))
        if op == "DIV":
            src = str(rng.randint(1, 6))
        elif rng.random() < 0.6 or (in_loop and op == "MUL"):
            src = str(rng.randint(0, 20))
        else:
            src = _cell(rng, region)
    return f"{op} {dest} {src}"


def gate(rng: random.Random, kind: str, n_qubits: int) -> str:
    """One non-forking quantum instruction of the given kind (a key of
    ``FRESH_GATES``)."""
    if kind == "two-qubit" and n_qubits >= 2:
        a, b = rng.sample(range(n_qubits), 2)
        return f"{rng.choice(_2Q_GATES)} {a} {b}"
    if kind == "parametrized":
        ref = _cell(rng, rng.choice(ANGLE_REGIONS))
        return f"{rng.choice(_ROTATIONS)}({ref}) {rng.randrange(n_qubits)}"
    if kind == "rotation":
        return f"{rng.choice(_ROTATIONS)}({_angle(rng)}) {rng.randrange(n_qubits)}"
    return f"{rng.choice(_1Q_GATES)} {rng.randrange(n_qubits)}"


def unitary(rng: random.Random, n_qubits: int) -> str:
    """A gate whose kind is drawn in the proportions of ``FRESH_GATES``."""
    kinds = list(FRESH_GATES)
    kind = rng.choices(kinds, weights=[FRESH_GATES[k] for k in kinds])[0]
    return gate(rng, kind, n_qubits)


DECLARES = [
    f"DECLARE {name} {kind}" + ("" if size == 1 else f"[{size}]")
    for name, kind, size in REGIONS
]


def _measure_x(rng: random.Random, bit: str) -> list[str]:
    qubit = rng.randrange(FRESH_QUBITS)
    return [f"H {qubit}", f"MEASURE {qubit} {bit}"]


def fresh_program(rng: random.Random) -> str:
    """A long program of straight-line traces split by two forward
    conditional jumps on freshly measured bits.

    Half the body is quantum and half classical, so traces carry dense
    conflict edges on both devices.
    """
    body = [
        gate(rng, kind, FRESH_QUBITS)
        for kind, count in FRESH_GATES.items()
        for _ in range(count)
    ]
    body += [classical(rng) for _ in range(FRESH_CLASSICAL)]
    rng.shuffle(body)

    # Insert from the back so that earlier windows keep their positions.
    n = len(body)
    for k in reversed(range(len(FRESH_JUMPS))):
        (j_lo, j_hi), (l_lo, l_hi) = FRESH_JUMPS[k]
        jump_at = rng.randint(int(j_lo * n), int(j_hi * n))
        label_at = rng.randint(int(l_lo * n), int(l_hi * n))
        bit = _cell(rng, rng.choice(BIT_REGIONS))
        op = rng.choice(("JUMP-WHEN", "JUMP-UNLESS"))
        body.insert(label_at, f"LABEL @F{k}")
        body[jump_at:jump_at] = _measure_x(rng, bit) + [f"{op} @F{k} {bit}"]
    lo, hi = FRESH_FIRST_MEASURE
    at = rng.randint(int(lo * n), int(hi * n))
    body[at:at] = _measure_x(rng, _cell(rng, rng.choice(BIT_REGIONS)))
    body += _measure_x(rng, "ro")
    return "\n".join(DECLARES + body) + "\n"


def retry_program(rng: random.Random) -> str:
    """Chained repeat-until-success blocks, shaped like the loop in ``rus``.

    Each block resets its ancilla inside the loop, entangles it with the
    data qubits, measures it into a flag and jumps back on that flag, so
    every iteration retries with probability one half.  The body between
    reset and measurement draws its gates and classical instructions from
    the same mix as ``fresh_program``, except that MUL takes a literal
    source (see ``classical``).
    """
    ancilla = RETRY_DATA
    lines = DECLARES + [f"DECLARE flag BIT[{RETRY_BLOCKS}]"]
    lines += [unitary(rng, RETRY_DATA) for _ in range(RETRY_PRELUDE)]
    for block in range(RETRY_BLOCKS):
        lines.append(f"LABEL @retry{block}")
        lines.append(f"RESET {ancilla}")
        lines.append(f"H {ancilla}")
        body = [unitary(rng, RETRY_DATA) for _ in range(RETRY_BODY // 2)]
        body += [classical(rng, True) for _ in range(RETRY_BODY - len(body))]
        rng.shuffle(body)
        lines += body
        lines.append(f"CNOT {ancilla} {rng.randrange(RETRY_DATA)}")
        lines.append(f"MEASURE {ancilla} {_ref('flag', block)}")
        lines.append(f"JUMP-WHEN @retry{block} {_ref('flag', block)}")
    lines.append(f"MEASURE {rng.randrange(RETRY_DATA)} ro")
    lines.append(f"MOVE ro[1] {rng.randint(0, 1)}")
    return "\n".join(lines) + "\n"
