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

Both backends count the models r exactly and agree with a brute-force model
counter as integers. :func:`solve` runs the whole pipeline on either one; the
``satchaos`` command line exposes solve/trace/verify/sweep workflows.

The pipeline runs on plain integers. Only the dense statevector reference
(:mod:`satchaos.quantum`) and the self-checks (:mod:`satchaos.verify`) use
numpy, so ``import satchaos`` imports neither: the two submodules, and the
names exported from ``quantum``, load on first use through :func:`__getattr__`.
"""

import importlib

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
from .gates import GateKind, PlacedGate, check_gates, decompose, placed
from .gqtm import GqtmRun, check_wellformed, dump_transition, run_sat_gqtm, sat_machine
from .pipeline import SolveReport, solve
from .sat import (
    Clause,
    DimacsError,
    Literal,
    SatInstance,
    count_models,
    eval_instance,
    instance_from_ints,
    parse_dimacs,
    to_dimacs,
)

__version__ = "0.1.0"

# Exported names defined in satchaos.quantum, which imports numpy.
_QUANTUM_NAMES = frozenset({
    "StateVector",
    "apply_placed_gate",
    "apply_sequence",
    "basis_state",
    "gate_matrix",
    "satisfying_indices",
})


def __getattr__(name):
    """Load a reference name, or the ``quantum`` or ``verify`` submodule, on
    first access (PEP 562).

    Nothing is cached here: a submodule, once imported, is an attribute of
    the package, and a name is read from its module on each access.
    """
    if name in ("quantum", "verify"):
        return importlib.import_module(f"{__name__}.{name}")
    if name in _QUANTUM_NAMES:
        return getattr(importlib.import_module(f"{__name__}.quantum"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    "check_gates",
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
