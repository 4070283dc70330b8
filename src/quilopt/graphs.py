"""Trace segmentation and dependency graphs.

A program is cut into straight-line *traces*: one starting at position 0,
plus, for every conditional jump, one starting at its target label and one
at its fall-through position.  Labels are never trace nodes and
unconditional jumps are threaded through.
:func:`build_ddgs` is the one place that turns a program into its traces,
each a :class:`Ddg`: a data-dependency graph over the trace's
instructions with conflict edges (one instruction writes a resource
another touches) restricted to trace order.  A Ddg gives its dependencies
in two forms, each built on first read, so passes and metrics that need
the path alone pay for neither:

* ``ancestors`` -- one int bitset per trace index of everything that must
  run before it, for the reordering passes.  One scan of the trace builds
  it, tracking each resource's last writer and readers since that write.
* ``edges`` -- the paper's DDG, the transitive reduction of
  ``ancestors`` (unique on a DAG), for DOT output and the
  hybrid-dependency analysis.  It is read off the closure without a
  second scan.

Trace roles:

* ``START``    -- the trace from position 0
* ``HALT``     -- ends at HALT, runs off the end of the program, or ends at
  a conditional jump from which the program can terminate (one of the two
  continuations is an empty trace)
* ``INTERIOR`` -- everything else

Only traces that *literally* end the program (HALT / end of source) are
safe grounds for dead-code elimination; a conditional ending may loop back
into code with unknown future uses.  That distinction is
:attr:`Ddg.ends_program`, independent of the role.

The :class:`Cfg` at the bottom is a block-level control-flow view used for
visualization: runs of quantum-only and classical-only instructions become
parallel blocks between hybrid synchronization points.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Sequence

from quilopt import ir
from quilopt.ir import QuilError


class GraphError(QuilError):
    """Raised for control flow we cannot trace (unconditional jump cycles)."""


class Role(enum.Enum):
    START = "start"
    INTERIOR = "interior"
    HALT = "halt"


def _trace(
    program: ir.Program, labels: dict[str, int], entry: int
) -> tuple[int, ...]:
    """Follow execution from ``entry``; return its node positions."""
    instructions = program.instructions
    path: list[int] = []
    seen_jumps: set[int] = set()
    pos = entry
    while pos < len(instructions):
        instr = instructions[pos]
        if isinstance(instr, ir.Label):
            pos += 1
            continue
        if isinstance(instr, ir.Jump):
            if pos in seen_jumps:
                raise GraphError(
                    f"unconditional jump cycle through position {pos}"
                )
            seen_jumps.add(pos)
            pos = labels[instr.target]
            continue
        path.append(pos)
        if isinstance(instr, (ir.Halt, ir.JumpWhen, ir.JumpUnless)):
            break
        pos += 1
    return tuple(path)


def _ancestors(instructions: Sequence[ir.Instruction]) -> tuple[int, ...]:
    """Per index ``j``, an int whose bit ``i`` is set when instruction
    ``i`` must run before ``j``: the transitive closure of the conflict
    relation (one side writes a resource the other touches) in trace order.

    One scan keeps, per resource token, the last writer and the readers
    since that write: a write depends on both, a read on the writer only.
    A bare ``RESET`` writes every qubit: it depends on every pending qubit
    writer and reader and on the previous bare ``RESET``, then clears them,
    so a qubit with no writer of its own since then falls back to it.
    Each index's set is the union of its dependencies' sets and themselves.
    """
    anc: list[int] = []
    writer: dict[ir.Token, int] = {}
    readers: dict[ir.Token, list[int]] = {}
    wildcard: int | None = None  # the last bare RESET
    for j, instr in enumerate(instructions):
        res = ir.resources(instr)
        deps: set[int] = set()
        if ir.WILDCARD_QUBIT in res.writes:
            deps.update(i for t, i in writer.items() if t[0] == "q")
            for t, rs in readers.items():
                if t[0] == "q":
                    deps.update(rs)
            if wildcard is not None:
                deps.add(wildcard)
            for t in [t for t in writer if t[0] == "q"]:
                del writer[t]
            for t in [t for t in readers if t[0] == "q"]:
                del readers[t]
            wildcard = j
        else:
            for t in res.reads | res.writes:
                i = writer.get(t, wildcard if t[0] == "q" else None)
                if i is not None:
                    deps.add(i)
            for t in res.writes:
                deps.update(readers.pop(t, ()))
                writer[t] = j
            for t in res.reads - res.writes:
                readers.setdefault(t, []).append(j)
        mask = 0
        for i in deps:
            mask |= anc[i] | 1 << i
        anc.append(mask)
    return tuple(anc)


def transitive_reduction(ancestors: Sequence[int]) -> set[tuple[int, int]]:
    """Unique transitive reduction of a DAG given by its closure: bit ``i``
    of ``ancestors[j]`` is set when ``i`` reaches ``j``, and ``i < j``.

    The highest ancestor of ``j`` still left is a direct predecessor, since
    anything between them would be higher; striking it and its own
    ancestors leaves the ancestors of ``j`` that do not reach it.
    """
    reduced = set()
    for j, rest in enumerate(ancestors):
        while rest:
            i = rest.bit_length() - 1
            reduced.add((i, j))
            rest &= ~(ancestors[i] | 1 << i)
    return reduced


@dataclass(frozen=True, eq=False)
class Ddg:
    """Data-dependency graph of one trace.

    Nodes are source positions (``path``, in execution order).
    ``ancestors`` holds, per trace index ``k``, an int whose bit ``i`` is
    set when ``path[i]`` must run before ``path[k]``; one scan of the
    trace builds it, and the reordering passes need only that.  ``edges``
    are its transitive reduction mapped to positions: the paper's DDG,
    which DOT output and the analyses read.  The path order is always a
    valid topological order.  Both are built on first read and kept for
    the life of the graph; ``dataclasses.replace(ddg, program=...)`` gives
    the same trace over another program, with neither built yet.
    """

    program: ir.Program = field(repr=False)
    id: str
    role: Role
    path: tuple[int, ...]
    ends_program: bool

    @functools.cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        path = self.path
        return frozenset(
            (path[i], path[j]) for i, j in transitive_reduction(self.ancestors)
        )

    @functools.cached_property
    def ancestors(self) -> tuple[int, ...]:
        return _ancestors(self.instructions)

    @property
    def instructions(self) -> tuple[ir.Instruction, ...]:
        return tuple(self.program.instructions[p] for p in self.path)

    def __len__(self) -> int:
        return len(self.path)


def build_ddgs(program: ir.Program) -> tuple[Ddg, ...]:
    """Cut a program into its traces, one Ddg each.

    Order: the start trace first, then the others by the source position
    where they enter.  Two jumps to the same label produce two (identical)
    graphs; each is scheduled independently.  Paths depend only on the
    positions of labels, jumps and halts.
    """
    labels = program.labels
    traces: dict[int, tuple[int, ...]] = {}

    def trace(entry: int):
        if entry not in traces:
            traces[entry] = _trace(program, labels, entry)
        return traces[entry]

    def classify_end(path) -> tuple[Role, bool]:
        """Role (ignoring START) and whether the trace literally ends the
        program."""
        if not path:
            return Role.HALT, True
        last = program.instructions[path[-1]]
        if isinstance(last, ir.Halt):
            return Role.HALT, True
        if isinstance(last, (ir.JumpWhen, ir.JumpUnless)):
            fall = trace(path[-1] + 1)
            target = trace(labels[last.target])
            if not fall or not target:
                # The program can terminate at this jump.
                return Role.HALT, False
            return Role.INTERIOR, False
        return Role.HALT, True  # ran off the end of the program

    start_path = trace(0)
    ddgs = [
        Ddg(program, "start", Role.START, start_path, classify_end(start_path)[1])
    ]

    entries: list[int] = []
    for pos, instr in enumerate(program.instructions):
        if isinstance(instr, (ir.JumpWhen, ir.JumpUnless)):
            entries.append(labels[instr.target])
            entries.append(pos + 1)
    entries.sort()

    counters = {Role.INTERIOR: 0, Role.HALT: 0}
    for entry in entries:
        path = trace(entry)
        if not path:  # empty traces are dropped
            continue
        role, ends = classify_end(path)
        counters[role] += 1
        ddgs.append(
            Ddg(program, f"{role.value}{counters[role]}", role, path, ends)
        )
    return tuple(ddgs)


# ---------------------------------------------------------------------------
# Control-flow view (visualization only)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Block:
    id: str
    kind: str  # "quantum" | "classical" | "hybrid"
    positions: tuple[int, ...]


class Cfg:
    """Block-level control-flow graph.

    Between hybrid instructions, quantum-only and classical-only work is
    split into *parallel* blocks (they can run concurrently); hybrid
    instructions and control flow form their own blocks, split at labels
    and after jumps.
    """

    def __init__(self, program: ir.Program):
        self.program = program
        self.blocks: list[Block] = []
        self.edges: set[tuple[str, str]] = set()
        self._build()

    def _build(self) -> None:
        program = self.program
        n = len(program.instructions)

        # Cut into runs: a boundary before every label, after every jump
        # and after HALT.
        runs: list[list[int]] = []
        current: list[int] = []
        for pos in range(n):
            instr = program.instructions[pos]
            if isinstance(instr, ir.Label) and current:
                runs.append(current)
                current = []
            current.append(pos)
            if isinstance(instr, (ir.Jump, ir.JumpWhen, ir.JumpUnless, ir.Halt)):
                runs.append(current)
                current = []
        if current:
            runs.append(current)

        # Blocks per run: alternate hybrid / non-hybrid chunks, splitting
        # non-hybrid chunks into parallel quantum and classical blocks.
        run_chunks: list[list[list[int]]] = []  # run -> chunk -> block index
        for run in runs:
            chunks: list[list[int]] = []
            group: list[int] = []
            group_hybrid: bool | None = None
            body = [p for p in run if not isinstance(program.instructions[p], ir.Label)]
            for pos in body:
                is_hybrid = ir.device_class(program.instructions[pos]) is ir.DeviceClass.HYBRID
                if group and is_hybrid != group_hybrid:
                    chunks.append(self._emit_chunk(group, group_hybrid))
                    group = []
                group.append(pos)
                group_hybrid = is_hybrid
            if group:
                chunks.append(self._emit_chunk(group, group_hybrid))
            run_chunks.append(chunks)

        run_start = {run[0]: i for i, run in enumerate(runs)}

        def entry_blocks(run_index: int) -> list[int]:
            """First chunk of the first block-bearing run at/after
            run_index."""
            i = run_index
            while i < len(runs):
                if run_chunks[i]:
                    return run_chunks[i][0]
                i += 1
            return []

        def run_of_label(name: str) -> int:
            pos = self.program.labels[name]
            return run_start[pos]

        # Intra-run edges between consecutive chunks.
        for chunks in run_chunks:
            for a, b in zip(chunks, chunks[1:]):
                for u in a:
                    for v in b:
                        self._edge(u, v)

        # Run-to-run edges.
        for i, run in enumerate(runs):
            if not run_chunks[i]:
                continue
            last_chunk = run_chunks[i][-1]
            last_instr = program.instructions[run[-1]]
            targets: list[int] = []
            if isinstance(last_instr, ir.Halt):
                pass
            elif isinstance(last_instr, ir.Jump):
                targets = entry_blocks(run_of_label(last_instr.target))
            elif isinstance(last_instr, (ir.JumpWhen, ir.JumpUnless)):
                targets = entry_blocks(run_of_label(last_instr.target))
                targets = targets + entry_blocks(i + 1)
            else:
                targets = entry_blocks(i + 1)
            for u in last_chunk:
                for v in targets:
                    self._edge(u, v)

    def _emit_chunk(self, positions: list[int], hybrid: bool | None) -> list[int]:
        """Create the block(s) for one chunk; return their indices."""
        created: list[int] = []
        if hybrid:
            created.append(self._add_block("hybrid", positions))
        else:
            quantum = [
                p for p in positions
                if ir.device_class(self.program.instructions[p]) is ir.DeviceClass.QUANTUM
            ]
            classical = [
                p for p in positions
                if ir.device_class(self.program.instructions[p]) is ir.DeviceClass.CLASSICAL
            ]
            if quantum:
                created.append(self._add_block("quantum", quantum))
            if classical:
                created.append(self._add_block("classical", classical))
        return created

    def _add_block(self, kind: str, positions: list[int]) -> int:
        index = len(self.blocks)
        self.blocks.append(Block(f"b{index}", kind, tuple(positions)))
        return index

    def _edge(self, u: int, v: int) -> None:
        self.edges.add((self.blocks[u].id, self.blocks[v].id))


# ---------------------------------------------------------------------------
# DOT rendering
# ---------------------------------------------------------------------------

_CLASS_COLORS = {
    ir.DeviceClass.QUANTUM: "lightblue",
    ir.DeviceClass.CLASSICAL: "lightgoldenrod",
    ir.DeviceClass.HYBRID: "lightcoral",
}

_KIND_COLORS = {"quantum": "lightblue", "classical": "lightgoldenrod", "hybrid": "lightcoral"}


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def ddg_to_dot(ddg: Ddg) -> str:
    """Render one Ddg as a GraphViz digraph."""
    lines = [f'digraph "{_dot_escape(ddg.id)}" {{', "  rankdir=TB;"]
    for pos, instr in zip(ddg.path, ddg.instructions):
        color = _CLASS_COLORS[ir.device_class(instr)]
        label = _dot_escape(f"{pos}: {ir.instruction_text(instr)}")
        lines.append(
            f'  n{pos} [label="{label}", style=filled, fillcolor={color}];'
        )
    for u, v in sorted(ddg.edges):
        lines.append(f"  n{u} -> n{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cfg_to_dot(cfg: Cfg) -> str:
    """Render the control-flow view as a GraphViz digraph."""
    lines = ['digraph "cfg" {', "  rankdir=TB;", "  node [shape=box];"]
    for block in cfg.blocks:
        body = "\\l".join(
            _dot_escape(ir.instruction_text(cfg.program.instructions[p]))
            for p in block.positions
        )
        label = f"{block.id} [{block.kind}]\\l{body}\\l"
        color = _KIND_COLORS[block.kind]
        lines.append(
            f'  {block.id} [label="{label}", style=filled, fillcolor={color}];'
        )
    for u, v in sorted(cfg.edges):
        lines.append(f"  {u} -> {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
