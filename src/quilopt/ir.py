"""Intermediate representation for a small hybrid Quil dialect.

The dialect covers memory declarations, classical scratch arithmetic, a
fixed quantum gate set, measurement, reset, and label/jump control flow.
Every instruction is a frozen dataclass and a :class:`Program` is an
immutable sequence of them, so analyses can hash and compare freely.

Three device classes drive everything downstream:

* ``QUANTUM``   -- gates whose parameters (if any) are literal numbers
* ``CLASSICAL`` -- memory declarations and classical arithmetic/logic
* ``HYBRID``    -- anything coupling the two sides: gates parameterized by
  memory, measurement, reset, and all control flow

The resource model is deliberately coarse: an instruction reads and writes
whole qubits and individual memory cells.  A bare ``RESET`` touches every
qubit, which is modeled with a wildcard token.
"""

from __future__ import annotations

import enum
import functools
import math
import re
import types
from dataclasses import dataclass
from typing import Iterator, Mapping, Union


class QuilError(Exception):
    """Base class for parse and validation failures."""


class ParseError(QuilError):
    """Raised for malformed source text (carries the 1-based line)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(QuilError):
    """Raised for structurally well-formed but inconsistent programs."""


class DeviceClass(enum.Enum):
    QUANTUM = "quantum"
    CLASSICAL = "classical"
    HYBRID = "hybrid"


MEMORY_KINDS = ("BIT", "OCTET", "INTEGER", "REAL")

# gate name -> (number of qubits, number of parameters)
GATE_SIGNATURES = {
    "I": (1, 0),
    "X": (1, 0),
    "Y": (1, 0),
    "Z": (1, 0),
    "H": (1, 0),
    "S": (1, 0),
    "T": (1, 0),
    "RX": (1, 1),
    "RY": (1, 1),
    "RZ": (1, 1),
    "PHASE": (1, 1),
    "CNOT": (2, 0),
    "CZ": (2, 0),
    "CCNOT": (3, 0),
    "SWAP": (2, 0),
}

BINARY_OPS = ("MOVE", "EXCHANGE", "ADD", "SUB", "MUL", "DIV", "AND", "IOR", "XOR")
UNARY_OPS = ("NEG", "NOT")
CLASSICAL_OPS = BINARY_OPS + UNARY_OPS


@dataclass(frozen=True)
class MemoryRef:
    """A single memory cell, ``region[index]``; a bare name means index 0."""

    region: str
    index: int = 0


@dataclass(frozen=True)
class Declare:
    name: str
    kind: str
    size: int = 1


@dataclass(frozen=True)
class Gate:
    """A gate whose parameters are all literal, e.g. ``RZ(1.57) 0``."""

    name: str
    params: tuple[float, ...]
    qubits: tuple[int, ...]


@dataclass(frozen=True)
class ParamGate:
    """A gate with at least one memory-reference parameter, e.g. ``RZ(theta) 0``."""

    name: str
    params: tuple[Union[float, MemoryRef], ...]
    qubits: tuple[int, ...]


@dataclass(frozen=True)
class Classical:
    """A classical op; the first operand is the destination for all ops."""

    op: str
    operands: tuple[Union[MemoryRef, int, float], ...]


@dataclass(frozen=True)
class Measure:
    qubit: int
    target: MemoryRef | None = None


@dataclass(frozen=True)
class Reset:
    """RESET of one qubit, or of every qubit when ``qubit`` is None."""

    qubit: int | None = None


@dataclass(frozen=True)
class Label:
    name: str


@dataclass(frozen=True)
class Jump:
    target: str


@dataclass(frozen=True)
class JumpWhen:
    target: str
    condition: MemoryRef


@dataclass(frozen=True)
class JumpUnless:
    target: str
    condition: MemoryRef


@dataclass(frozen=True)
class Halt:
    pass


Instruction = Union[
    Declare, Gate, ParamGate, Classical, Measure, Reset,
    Label, Jump, JumpWhen, JumpUnless, Halt,
]

# Instructions that end a trace where they stand.
TERMINATORS = (JumpWhen, JumpUnless, Halt)


@dataclass(frozen=True)
class Program:
    instructions: tuple[Instruction, ...] = ()

    # Computed on first read and kept on the instance, read-only; equality
    # and hashing stay on ``instructions`` alone.
    @functools.cached_property
    def _hash(self) -> int:
        return hash(self.instructions)

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def regions(self) -> Mapping[str, Declare]:
        """Declared memory regions, in declaration order."""
        return types.MappingProxyType(
            {i.name: i for i in self.instructions if isinstance(i, Declare)}
        )

    @functools.cached_property
    def labels(self) -> Mapping[str, int]:
        """Label name -> position of the LABEL instruction."""
        return types.MappingProxyType({
            i.name: pos
            for pos, i in enumerate(self.instructions)
            if isinstance(i, Label)
        })

    @functools.cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        """Per position, the positions control can go to next: a ``JUMP``'s
        label, a conditional jump's label then its fall-through,
        ``len(self)`` (the end) after ``HALT``, and the next position after
        anything else."""
        labels = self.labels
        following = []
        for pos, i in enumerate(self.instructions):
            if isinstance(i, Jump):
                following.append((labels[i.target],))
            elif isinstance(i, (JumpWhen, JumpUnless)):
                following.append((labels[i.target], pos + 1))
            elif isinstance(i, Halt):
                following.append((len(self.instructions),))
            else:
                following.append((pos + 1,))
        return tuple(following)

    @functools.cached_property
    def qubits(self) -> tuple[int, ...]:
        """Every qubit index an instruction names, ascending."""
        seen: set[int] = set()
        for i in self.instructions:
            if isinstance(i, (Gate, ParamGate)):
                seen.update(i.qubits)
            elif isinstance(i, (Measure, Reset)) and i.qubit is not None:
                seen.add(i.qubit)
        return tuple(sorted(seen))

    def readout(self, names=None) -> frozenset[str]:
        """The regions treated as program output: ``names``, each of which
        must be declared, or by default ``ro`` if declared, else all."""
        regions = self.regions
        if names is None:
            return frozenset({"ro"} if "ro" in regions else regions)
        for name in names:
            if name not in regions:
                raise ValidationError(f"readout region {name!r} is not declared")
        return frozenset(names)

    def __len__(self) -> int:
        return len(self.instructions)


def device_class(instr: Instruction) -> DeviceClass:
    if isinstance(instr, Gate):
        return DeviceClass.QUANTUM
    if isinstance(instr, (Declare, Classical)):
        return DeviceClass.CLASSICAL
    return DeviceClass.HYBRID


# ---------------------------------------------------------------------------
# Resource model
# ---------------------------------------------------------------------------

# Resource tokens: ("q", i) a qubit, ("m", region, index) a memory cell,
# and the wildcard below for instructions that touch every qubit.
Token = tuple
WILDCARD_QUBIT: Token = ("q", "*")


def qubit_token(index: int) -> Token:
    return ("q", index)


def ref_token(ref: "MemoryRef") -> Token:
    return ("m", ref.region, ref.index)


@dataclass(frozen=True)
class Resources:
    reads: frozenset
    writes: frozenset

    @property
    def accesses(self) -> frozenset:
        return self.reads | self.writes


def _is_qubit_token(token: Token) -> bool:
    return token[0] == "q"


def tokens_overlap(a: frozenset, b: frozenset) -> bool:
    """True when the token sets can touch the same physical resource."""
    if a & b:
        return True
    if WILDCARD_QUBIT in a and any(_is_qubit_token(t) for t in b):
        return True
    if WILDCARD_QUBIT in b and any(_is_qubit_token(t) for t in a):
        return True
    return False


def conflicts(a: Resources, b: Resources) -> bool:
    """True when one instruction writes something the other touches."""
    return tokens_overlap(a.writes, b.accesses) or tokens_overlap(b.writes, a.accesses)


def memory_refs(instr: Instruction) -> Iterator[MemoryRef]:
    """All memory cells an instruction mentions (reads or writes)."""
    if isinstance(instr, ParamGate):
        for p in instr.params:
            if isinstance(p, MemoryRef):
                yield p
    elif isinstance(instr, Classical):
        for operand in instr.operands:
            if isinstance(operand, MemoryRef):
                yield operand
    elif isinstance(instr, Measure):
        if instr.target is not None:
            yield instr.target
    elif isinstance(instr, (JumpWhen, JumpUnless)):
        yield instr.condition


def resources(instr: Instruction) -> Resources:
    """What the instruction reads and writes, as resource tokens."""
    reads: set = set()
    writes: set = set()
    if isinstance(instr, (Gate, ParamGate)):
        for q in instr.qubits:
            reads.add(qubit_token(q))
            writes.add(qubit_token(q))
        if isinstance(instr, ParamGate):
            for p in instr.params:
                if isinstance(p, MemoryRef):
                    reads.add(ref_token(p))
    elif isinstance(instr, Classical):
        dest = instr.operands[0]
        writes.add(ref_token(dest))
        if instr.op == "MOVE":
            src = instr.operands[1]
            if isinstance(src, MemoryRef):
                reads.add(ref_token(src))
        elif instr.op == "EXCHANGE":
            other = instr.operands[1]
            reads.add(ref_token(dest))
            reads.add(ref_token(other))
            writes.add(ref_token(other))
        elif instr.op in UNARY_OPS:
            reads.add(ref_token(dest))
        else:  # ADD SUB MUL DIV AND IOR XOR: dest is read and written
            reads.add(ref_token(dest))
            src = instr.operands[1]
            if isinstance(src, MemoryRef):
                reads.add(ref_token(src))
    elif isinstance(instr, Measure):
        reads.add(qubit_token(instr.qubit))
        writes.add(qubit_token(instr.qubit))
        if instr.target is not None:
            writes.add(ref_token(instr.target))
    elif isinstance(instr, Reset):
        if instr.qubit is None:
            writes.add(WILDCARD_QUBIT)
        else:
            writes.add(qubit_token(instr.qubit))
    elif isinstance(instr, Declare):
        for i in range(instr.size):
            writes.add(("m", instr.name, i))
    elif isinstance(instr, (JumpWhen, JumpUnless)):
        reads.add(ref_token(instr.condition))
    # Label, Jump, Halt: no resources
    return Resources(frozenset(reads), frozenset(writes))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_REF_RE = re.compile(rf"^({_IDENT})(?:\[(\d+)\])?$")
_INT_RE = re.compile(r"^[-+]?\d+$")
_NUM_RE = re.compile(r"^[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$")
_DECLARE_KIND_RE = re.compile(rf"^({'|'.join(MEMORY_KINDS)})(?:\[(\d+)\])?$")
_GATE_RE = re.compile(rf"^({_IDENT})(?:\(([^()]*)\))?((?:\s+\S+)*)\s*$")
_LABEL_RE = re.compile(rf"^@({_IDENT})$")


def _int(token: str, line: int) -> int:
    """A decimal literal already matched as one; a ParseError past the
    interpreter's int <-> str digit limit, where ``int()`` gives up."""
    try:
        return int(token)
    except ValueError:
        raise ParseError(
            f"integer of {len(token)} characters is too long", line
        ) from None


def _parse_ref(token: str, line: int) -> MemoryRef:
    m = _REF_RE.match(token)
    if not m:
        raise ParseError(f"expected a memory reference, got {token!r}", line)
    return MemoryRef(m.group(1), _int(m.group(2), line) if m.group(2) else 0)


def _parse_qubit(token: str, line: int) -> int:
    if not token.isdecimal():
        raise ParseError(f"expected a qubit index, got {token!r}", line)
    return _int(token, line)


def _parse_float(token: str, line: int) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ParseError(f"number {token!r} is out of the float range", line)
    return value


def _parse_number(token: str, line: int):
    if _INT_RE.match(token):
        return _int(token, line)
    if _NUM_RE.match(token):
        return _parse_float(token, line)
    raise ParseError(f"expected a number, got {token!r}", line)


def _parse_gate(line_text: str, line: int) -> Instruction:
    m = _GATE_RE.match(line_text)
    if not m:
        raise ParseError(f"unrecognized instruction: {line_text!r}", line)
    name, params_src, qubits_src = m.group(1), m.group(2), m.group(3)
    if name not in GATE_SIGNATURES:
        raise ParseError(f"unknown gate or instruction {name!r}", line)
    n_qubits, n_params = GATE_SIGNATURES[name]

    params: list[Union[float, MemoryRef]] = []
    if params_src is not None:
        for piece in params_src.split(","):
            piece = piece.strip()
            if not piece:
                raise ParseError(f"empty parameter in {name}", line)
            if _NUM_RE.match(piece):
                params.append(_parse_float(piece, line))
            else:
                params.append(_parse_ref(piece, line))
    if len(params) != n_params:
        raise ParseError(
            f"{name} takes {n_params} parameter(s), got {len(params)}", line
        )

    qubit_tokens = qubits_src.split()
    if len(qubit_tokens) != n_qubits:
        raise ParseError(
            f"{name} acts on {n_qubits} qubit(s), got {len(qubit_tokens)}", line
        )
    qubits = tuple(_parse_qubit(t, line) for t in qubit_tokens)
    if len(set(qubits)) != len(qubits):
        raise ParseError(f"{name} qubit operands must be distinct", line)

    if any(isinstance(p, MemoryRef) for p in params):
        return ParamGate(name, tuple(params), qubits)
    return Gate(name, tuple(float(p) for p in params), qubits)


def _parse_label_name(token: str, line: int) -> str:
    m = _LABEL_RE.match(token)
    if not m:
        raise ParseError(f"expected @label, got {token!r}", line)
    return m.group(1)


def _parse_line(line_text: str, line: int) -> Instruction:
    tokens = line_text.split()
    op = tokens[0]

    if op == "DECLARE":
        if len(tokens) != 3:
            raise ParseError("DECLARE takes a name and a kind", line)
        m = _DECLARE_KIND_RE.match(tokens[2])
        if not m:
            raise ParseError(f"bad memory kind {tokens[2]!r}", line)
        size = _int(m.group(2), line) if m.group(2) else 1
        if size < 1:
            raise ParseError("region size must be at least 1", line)
        if not re.match(rf"^{_IDENT}$", tokens[1]):
            raise ParseError(f"bad region name {tokens[1]!r}", line)
        return Declare(tokens[1], m.group(1), size)

    if op == "LABEL":
        if len(tokens) != 2:
            raise ParseError("LABEL takes one @name", line)
        return Label(_parse_label_name(tokens[1], line))

    if op == "JUMP":
        if len(tokens) != 2:
            raise ParseError("JUMP takes one @target", line)
        return Jump(_parse_label_name(tokens[1], line))

    if op in ("JUMP-WHEN", "JUMP-UNLESS"):
        if len(tokens) != 3:
            raise ParseError(f"{op} takes a @target and a condition bit", line)
        target = _parse_label_name(tokens[1], line)
        condition = _parse_ref(tokens[2], line)
        cls = JumpWhen if op == "JUMP-WHEN" else JumpUnless
        return cls(target, condition)

    if op == "HALT":
        if len(tokens) != 1:
            raise ParseError("HALT takes no operands", line)
        return Halt()

    if op == "MEASURE":
        if len(tokens) not in (2, 3):
            raise ParseError("MEASURE takes a qubit and an optional target", line)
        qubit = _parse_qubit(tokens[1], line)
        target = _parse_ref(tokens[2], line) if len(tokens) == 3 else None
        return Measure(qubit, target)

    if op == "RESET":
        if len(tokens) not in (1, 2):
            raise ParseError("RESET takes an optional qubit", line)
        qubit = _parse_qubit(tokens[1], line) if len(tokens) == 2 else None
        return Reset(qubit)

    if op in CLASSICAL_OPS:
        if op in UNARY_OPS:
            if len(tokens) != 2:
                raise ParseError(f"{op} takes one operand", line)
            return Classical(op, (_parse_ref(tokens[1], line),))
        if len(tokens) != 3:
            raise ParseError(f"{op} takes two operands", line)
        dest = _parse_ref(tokens[1], line)
        if op == "EXCHANGE":
            return Classical(op, (dest, _parse_ref(tokens[2], line)))
        src_token = tokens[2]
        if _NUM_RE.match(src_token):
            return Classical(op, (dest, _parse_number(src_token, line)))
        return Classical(op, (dest, _parse_ref(src_token, line)))

    return _parse_gate(line_text, line)


def parse(text: str) -> Program:
    """Parse source text into a :class:`Program`.

    Raises :class:`ParseError` on malformed lines and
    :class:`ValidationError` on semantic problems (undeclared regions,
    out-of-range indices, duplicate or missing labels).
    """
    instructions = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        instructions.append(_parse_line(stripped, lineno))
    program = Program(tuple(instructions))
    validate(program)
    return program


def validate(program: Program) -> None:
    """Check cross-instruction consistency of a program."""
    regions: dict[str, Declare] = {}
    labels: set[str] = set()
    for pos, instr in enumerate(program.instructions):
        if isinstance(instr, Declare):
            if instr.name in regions:
                raise ValidationError(f"region {instr.name!r} declared twice")
            regions[instr.name] = instr
        elif isinstance(instr, Label):
            if instr.name in labels:
                raise ValidationError(f"label @{instr.name} defined twice")
            labels.add(instr.name)

    for pos, instr in enumerate(program.instructions):
        for ref in memory_refs(instr):
            decl = regions.get(ref.region)
            if decl is None:
                raise ValidationError(
                    f"instruction {pos} references undeclared region {ref.region!r}"
                )
            if not (0 <= ref.index < decl.size):
                raise ValidationError(
                    f"instruction {pos}: {ref.region}[{ref.index}] is out of "
                    f"range for size {decl.size}"
                )
        if isinstance(instr, (Jump, JumpWhen, JumpUnless)):
            if instr.target not in labels:
                raise ValidationError(
                    f"instruction {pos} jumps to undefined label @{instr.target}"
                )


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _fmt_ref(ref: MemoryRef) -> str:
    return ref.region if ref.index == 0 else f"{ref.region}[{ref.index}]"


def _fmt_value(value) -> str:
    if isinstance(value, MemoryRef):
        return _fmt_ref(value)
    return repr(value)


def instruction_text(instr: Instruction) -> str:
    """Canonical single-line source form of one instruction."""
    if isinstance(instr, Declare):
        suffix = "" if instr.size == 1 else f"[{instr.size}]"
        return f"DECLARE {instr.name} {instr.kind}{suffix}"
    if isinstance(instr, (Gate, ParamGate)):
        params = ""
        if instr.params:
            params = "(" + ", ".join(_fmt_value(p) for p in instr.params) + ")"
        qubits = " ".join(str(q) for q in instr.qubits)
        return f"{instr.name}{params} {qubits}"
    if isinstance(instr, Classical):
        return " ".join([instr.op] + [_fmt_value(o) for o in instr.operands])
    if isinstance(instr, Measure):
        if instr.target is None:
            return f"MEASURE {instr.qubit}"
        return f"MEASURE {instr.qubit} {_fmt_ref(instr.target)}"
    if isinstance(instr, Reset):
        return "RESET" if instr.qubit is None else f"RESET {instr.qubit}"
    if isinstance(instr, Label):
        return f"LABEL @{instr.name}"
    if isinstance(instr, Jump):
        return f"JUMP @{instr.target}"
    if isinstance(instr, JumpWhen):
        return f"JUMP-WHEN @{instr.target} {_fmt_ref(instr.condition)}"
    if isinstance(instr, JumpUnless):
        return f"JUMP-UNLESS @{instr.target} {_fmt_ref(instr.condition)}"
    if isinstance(instr, Halt):
        return "HALT"
    raise TypeError(f"not an instruction: {instr!r}")


def emit(program: Program) -> str:
    """Canonical source text; ``parse(emit(p)) == p`` for any valid ``p``."""
    lines = [instruction_text(i) for i in program.instructions]
    return "\n".join(lines) + ("\n" if lines else "")
