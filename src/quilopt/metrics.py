"""Schedule metrics for hybrid programs under a unit-cost two-device model.

Three metrics, all computed from one two-clock schedule per trace of
:func:`~quilopt.graphs.build_ddgs`:

* **wall time** -- makespan of each trace when the CPU and QPU run their
  own instructions in parallel and synchronize at hybrid instructions,
  every instruction costing one time unit (labels cost nothing).  Summed
  over all traces for program-level comparison.
* **QIN** -- quantum instruction number: quantum plus hybrid instructions,
  summed over all traces (duplicated traces count every time).
* **QCT** -- quantum calculation time: how long the QPU must keep qubits
  coherent, assuming it starts as late as possible before the first
  synchronization and stops as early as possible after the last.  It is
  reported as ``n_q_before + delta_t_between + n_q_after``: quantum work
  before the first hybrid instruction, the synchronized span between the
  first and last hybrid instruction (through every middle trace in full),
  and quantum work after the last hybrid instruction, taking the
  worst-case (longest) choice of final trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from quilopt import graphs, ir
from quilopt.graphs import Ddg, Role


@dataclass(frozen=True)
class SegmentSchedule:
    """Two-clock simulation summary for one instruction sequence."""

    wall: int
    classical_before_first_hybrid: int
    quantum_before_first_hybrid: int
    end_of_last_hybrid: int
    quantum_after_last_hybrid: int
    quantum: int
    hybrid: int

    @property
    def has_hybrid(self) -> bool:
        return self.hybrid > 0

    @property
    def quantum_tail(self) -> int:
        """Quantum instructions after the last hybrid; all of them when
        the sequence has no hybrid at all."""
        if self.has_hybrid:
            return self.quantum_after_last_hybrid
        return self.quantum_before_first_hybrid


def simulate(sequence: Iterable[ir.Instruction]) -> SegmentSchedule:
    """Run the two-clock model over a linearized sequence.

    Classical instructions advance the CPU clock, quantum instructions the
    QPU clock; a hybrid instruction waits for both devices and moves both
    clocks to max(cpu, qpu) + 1.  Labels are free.
    """
    cpu = qpu = 0
    quantum = hybrid = 0
    classical_prefix = quantum_prefix = 0
    end_last_hybrid = 0
    quantum_tail = 0
    for instr in sequence:
        if isinstance(instr, ir.Label):
            continue
        cls = ir.device_class(instr)
        if cls is ir.DeviceClass.CLASSICAL:
            cpu += 1
            if not hybrid:
                classical_prefix += 1
        elif cls is ir.DeviceClass.QUANTUM:
            qpu += 1
            quantum += 1
            if not hybrid:
                quantum_prefix += 1
            else:
                quantum_tail += 1
        else:
            cpu = qpu = max(cpu, qpu) + 1
            hybrid += 1
            end_last_hybrid = cpu
            quantum_tail = 0
    return SegmentSchedule(
        wall=max(cpu, qpu),
        classical_before_first_hybrid=classical_prefix,
        quantum_before_first_hybrid=quantum_prefix,
        end_of_last_hybrid=end_last_hybrid,
        quantum_after_last_hybrid=quantum_tail,
        quantum=quantum,
        hybrid=hybrid,
    )


def _qct_breakdown(
    ddgs: Sequence[Ddg], schedules: Sequence[SegmentSchedule]
) -> dict:
    first = schedules[0]
    anchor = min(
        first.classical_before_first_hybrid, first.quantum_before_first_hybrid
    )
    n_q_before = first.quantum_before_first_hybrid

    def breakdown(k: int, delta: int, n_q_after: int) -> dict:
        return {
            "n_q_before": n_q_before,
            "delta_t_between": delta,
            "n_q_after": n_q_after,
            "total": n_q_before + delta + n_q_after,
            "final_ddg": ddgs[k].id,
        }

    if len(ddgs) == 1:
        # With no synchronization anywhere the QPU is busy exactly for its
        # own instructions, all of them counted in n_q_before.
        delta = first.end_of_last_hybrid - anchor if first.has_hybrid else 0
        return breakdown(0, delta, first.quantum_after_last_hybrid)

    # Every trace but the start and the final one runs in full in between.
    spans = first.wall - anchor + sum(s.wall for s in schedules[1:])
    finals = [k for k, d in enumerate(ddgs) if d.role is Role.HALT]
    return max(
        (
            breakdown(
                k,
                spans - schedules[k].wall + schedules[k].end_of_last_hybrid,
                schedules[k].quantum_tail,
            )
            for k in finals or range(1, len(ddgs))
        ),
        key=lambda b: b["total"],
    )


def qct_breakdown(ddgs: Sequence[Ddg]) -> dict:
    """QCT with its three components and the chosen final trace.

    Returns a dict with keys ``n_q_before``, ``delta_t_between``,
    ``n_q_after``, ``total``, and ``final_ddg``; of several final traces
    with the same total, the first is chosen.
    """
    return _qct_breakdown(ddgs, [simulate(d.instructions) for d in ddgs])


@dataclass(frozen=True)
class SegmentMetrics:
    id: str
    role: str
    instr_count: int
    wall_time: int


@dataclass(frozen=True)
class MetricsReport:
    per_ddg: tuple[SegmentMetrics, ...]
    total_wall_time: int
    qin: int
    qct: int

    @property
    def instr_total(self) -> int:
        return sum(s.instr_count for s in self.per_ddg)

    @property
    def instr_profile(self) -> tuple[int, ...]:
        return tuple(s.instr_count for s in self.per_ddg)

    @property
    def wall_profile(self) -> tuple[int, ...]:
        return tuple(s.wall_time for s in self.per_ddg)

    def to_dict(self) -> dict:
        return {
            "per_ddg": [
                {
                    "id": s.id,
                    "role": s.role,
                    "instr_count": s.instr_count,
                    "wall_time": s.wall_time,
                }
                for s in self.per_ddg
            ],
            "total_wall_time": self.total_wall_time,
            "qin": self.qin,
            "qct": self.qct,
        }


def report(program: ir.Program) -> MetricsReport:
    """Segment the program, schedule each trace once, and evaluate all
    three metrics from those schedules."""
    ddgs = graphs.build_ddgs(program)
    schedules = [simulate(ddg.instructions) for ddg in ddgs]
    return MetricsReport(
        per_ddg=tuple(
            SegmentMetrics(ddg.id, ddg.role.value, len(ddg), s.wall)
            for ddg, s in zip(ddgs, schedules)
        ),
        total_wall_time=sum(s.wall for s in schedules),
        qin=sum(s.quantum + s.hybrid for s in schedules),
        qct=_qct_breakdown(ddgs, schedules)["total"],
    )
