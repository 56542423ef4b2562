import copy
import pickle

import pytest

import satchaos
import satchaos.circuit
import satchaos.gqtm
from satchaos import GuardExceeded, instance_from_ints, parse_dimacs, solve
from satchaos.gates import GateKind, placed
from satchaos.gqtm.machine import make_configuration
from satchaos.verify import EDGE_INSTANCES, suite_bounds

WORKED = parse_dimacs("p cnf 3 3\n1 2 -3 0\n3 -2 0\n1 -2 -3 0\n")


@pytest.mark.parametrize(
    "inst", [WORKED] + [inst for _, inst in EDGE_INSTANCES],
    ids=["worked"] + [name for name, _ in EDGE_INSTANCES],
)
def test_backends_report_the_same_run(inst):
    circuit, machine = solve(inst, "circuit"), solve(inst, "gqtm")
    assert (circuit.backend, machine.backend) == ("circuit", "gqtm")
    assert circuit.decision == machine.decision == circuit.trace.decision
    assert circuit.q_squared == machine.q_squared
    assert circuit.trace.x == machine.trace.x
    assert circuit.layout == machine.layout
    assert (circuit.n, circuit.m) == (machine.n, machine.m) == (inst.num_vars, inst.num_clauses)
    assert circuit.machine is None and machine.gate_counts is None
    assert sum(circuit.gate_counts.values()) > 0
    assert machine.machine["branch_count"] >= 1


def test_circuit_guard(monkeypatch):
    def unreachable(*args):
        raise AssertionError("the guard must refuse before simulating")

    monkeypatch.setattr(satchaos.circuit, "bit_planes", unreachable)
    with pytest.raises(GuardExceeded):
        solve(instance_from_ints(30, [[1, 2, 3]]))  # 33 planes of 2^30 bits: 4.1 GiB


def test_unknown_backend():
    with pytest.raises(ValueError, match="unknown backend"):
        solve(WORKED, "dense")


@pytest.mark.parametrize("module", [satchaos, satchaos.gqtm])
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


# SatMachine is left out: its tables compare by identity, so a round-tripped
# copy is unequal to the original by design.
PUBLIC_VALUES = {
    "Configuration": lambda: make_configuration("q", [{0: "1", -2: "X"}], [0]),
    "PlacedGate": lambda: placed(GateKind.OR, 1, 2, 3),
    "SatInstance": lambda: WORKED,
    "CircuitLayout": lambda: satchaos.circuit.layout(WORKED),
    "CircuitRun": lambda: satchaos.circuit.run(WORKED),
    "GqtmRun": lambda: satchaos.gqtm.run_sat_gqtm(WORKED),
    "SolveReport": lambda: solve(WORKED, "gqtm"),
    "SuiteResult": lambda: suite_bounds(2, 4),
}


@pytest.mark.parametrize("name", PUBLIC_VALUES)
def test_public_values_survive_pickle_and_deepcopy(name):
    value = PUBLIC_VALUES[name]()
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value
