"""One SAT decision, on either machine: the circuit or the generalized QTM.

``solve`` runs the whole pipeline on the chosen backend. The circuit backend
counts the models r exactly on the bit-plane simulation and drives
q² = r/2^n through the logistic map. The machine backend runs the unitary
stage and the collapse as quantum Turing machine phases, which leave the same
r branches accepting, each of weight 2^-n. Both backends take the orbit and
the verdict from :func:`~satchaos.amplifier.amplify_detect`; on the machine
(:func:`~satchaos.gqtm.program.run_sat_gqtm`) the iteration counter's tables
(``compare``, ``increment``) step beside that orbit and must reach their limit
exactly when the window ends. Both fill the same :class:`SolveReport`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .amplifier import AmplifierTrace, LogisticParams, amplify_detect
from .circuit import CircuitLayout, layout
from .circuit import run as circuit_run
from .gqtm.program import run_sat_gqtm
from .sat import SatInstance

BACKENDS = ("circuit", "gqtm")


@dataclass(frozen=True)
class SolveReport:
    """What one run decided and how it got there."""

    backend: str                        # circuit | gqtm
    n: int
    m: int
    decision: str                       # SAT | UNSAT | INCONCLUSIVE
    q_squared: float                    # r/2^n, from the exact count r
    trace: AmplifierTrace
    layout: CircuitLayout               # the circuit's register, on both backends
    gate_counts: dict[str, int] | None  # circuit backend only
    machine: dict[str, int] | None      # gqtm only: branch_count, unitary_steps
    warnings: tuple[str, ...]
    timings: dict[str, float]           # run_s, amplify_s, total_s

    def to_dict(self) -> dict:
        """The JSON fields of ``satchaos solve``, less the oracle's count."""
        lay, trace = self.layout, self.trace
        bounds = trace.bounds
        return {
            "n": self.n,
            "m": self.m,
            "backend": self.backend,
            "decision": self.decision,
            "q_squared": self.q_squared,
            "layout": {
                "s": list(lay.s),
                "s_f": lay.s_f,
                "mu": lay.mu,
                "single_clause": lay.single_clause,
                "total_qubits": lay.total_qubits,
            },
            "amplifier": {
                "a": trace.params.a,
                "threshold": trace.params.threshold,
                "k_star": trace.first_crossing,
                "k_low": None if bounds is None else bounds[0],
                "k_high": None if bounds is None else bounds[1],
                "iterations": len(trace.x) - 1,
                "decision": trace.decision,
            },
            "warnings": list(self.warnings),
            "timings": self.timings,
            "gate_counts": self.gate_counts,
            "machine": self.machine,
        }


def solve(inst: SatInstance, backend: str = "circuit",
          params: LogisticParams = LogisticParams()) -> SolveReport:
    """Decide ``inst`` on one backend.

    Each backend guards its own cost (the circuit its bit-plane bytes, the
    machine its variable count) and raises
    :class:`~satchaos.config.GuardExceeded` past it.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}, expected one of {BACKENDS}")
    start = time.perf_counter()
    if backend == "circuit":
        result = circuit_run(inst)
        run_s = time.perf_counter() - start
        q_squared = result.q_squared
        t0 = time.perf_counter()
        trace = amplify_detect(q_squared, inst.num_vars, params)
        amplify_s = time.perf_counter() - t0
        lay, gate_counts, machine = result.layout, result.gate_counts, None
    else:
        machine_run = run_sat_gqtm(inst, params)
        run_s = time.perf_counter() - start
        amplify_s = 0.0  # run_sat_gqtm calls amplify_detect within run_s
        q_squared, trace = machine_run.q_squared, machine_run.trace
        lay, gate_counts = layout(inst), None
        machine = {
            "branch_count": machine_run.branch_count,
            "unitary_steps": machine_run.unitary_steps,
        }
    timings = {"run_s": run_s, "amplify_s": amplify_s,
               "total_s": time.perf_counter() - start}
    return SolveReport(
        backend, inst.num_vars, inst.num_clauses, trace.decision, q_squared, trace,
        lay, gate_counts, machine, tuple(inst.warnings), timings,
    )
