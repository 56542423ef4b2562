"""satchaos: a desk-scale simulator of chaos-amplified quantum SAT solving.

Three cooperating engines:

* a reversible truth-value circuit that loads a CNF instance into a register
  of qubits and leaves the satisfying-assignment weight q^2 = r/2^n on its
  last qubit (:mod:`satchaos.circuit`),
* a logistic-map amplifier that stretches that weight until it either crosses
  a detection threshold or provably never will (:mod:`satchaos.amplifier`),
* a multi-track quantum Turing machine that runs the same pipeline as one
  program: unitary stage, measurement/erasure channel, counter-bounded
  detection loop (:mod:`satchaos.gqtm`).

Both backends agree with a brute-force model counter to float precision.
:func:`solve` runs the whole pipeline on either one; the ``satchaos`` command
line exposes solve/trace/verify/sweep workflows.
"""

from .amplifier import (
    AmplifierTrace,
    LogisticParams,
    amplify_detect,
    iteration_window,
    k_bounds,
    snap_dyadic,
    sweep_crossing_bounds,
)
from .circuit import CircuitLayout, CircuitRun, build_circuit, layout, run, sat_decision_exact
from .config import GuardExceeded
from .gates import GateKind, PlacedGate, decompose, gate_matrix, placed
from .gqtm import GqtmRun, check_wellformed, dump_transition, run_sat_gqtm, sat_machine
from .pipeline import SolveReport, solve
from .quantum import StateVector, apply_placed_gate, apply_sequence, basis_state
from .sat import (
    Clause,
    DimacsError,
    Literal,
    SatInstance,
    count_models,
    eval_instance,
    instance_from_ints,
    parse_dimacs,
    satisfying_indices,
    to_dimacs,
)

__version__ = "0.1.0"

__all__ = [
    "AmplifierTrace",
    "CircuitLayout",
    "CircuitRun",
    "Clause",
    "DimacsError",
    "GateKind",
    "GqtmRun",
    "GuardExceeded",
    "Literal",
    "LogisticParams",
    "PlacedGate",
    "SatInstance",
    "SolveReport",
    "StateVector",
    "amplify_detect",
    "apply_placed_gate",
    "apply_sequence",
    "basis_state",
    "build_circuit",
    "check_wellformed",
    "count_models",
    "decompose",
    "dump_transition",
    "eval_instance",
    "gate_matrix",
    "instance_from_ints",
    "iteration_window",
    "k_bounds",
    "layout",
    "parse_dimacs",
    "placed",
    "run",
    "run_sat_gqtm",
    "sat_decision_exact",
    "sat_machine",
    "satisfying_indices",
    "snap_dyadic",
    "solve",
    "sweep_crossing_bounds",
    "to_dimacs",
    "__version__",
]
