"""The verify suites: their corpora, check counts and findings stay fixed.

``suite_gates`` rewrites its states as stacked registers; the reference
here rewrites them one state at a time, as the dense engine is called on
its own, and both must report the same checks and findings.
"""

import hashlib
import json
import random

import numpy as np
import pytest

import satchaos.verify
from satchaos.cli import main
from satchaos.config import DEFAULT_SEED, SINGLE_OP_ATOL
from satchaos.gates import GateKind, decompose, placed
from satchaos.gqtm.program import sat_machine
from satchaos.quantum import StateVector, apply_sequence, basis_state
from satchaos.sat import to_dimacs
from satchaos.verify import RANDOM_STATES, random_instance, suite_gates, suite_tables


def test_random_corpora_do_not_move():
    """300 draws at each of three (seed, max_n) pairs, as the oracle and
    gates suites (and the benchmark's prediction of them) consume them."""
    digest = hashlib.sha256()
    for seed, max_n in ((DEFAULT_SEED, 10), (87863613, 10), (7, 18)):
        rng = random.Random(seed)
        for _ in range(300):
            digest.update(to_dimacs(random_instance(rng, max_n)).encode())
    assert digest.hexdigest() == (
        "464c7493d1888b68d14b5bbedf488be670b9a9c8f8c913052b471b7e6a3a263a"
    )


def _rewrites_one_state_at_a_time(seed: int) -> tuple[int, list[str]]:
    """The rewrite-identity checks of ``suite_gates``, each state run alone."""
    checks, findings = 0, []
    for gate in (placed(GateKind.AND, 1, 2, 3), placed(GateKind.OR, 1, 2, 3),
                 placed(GateKind.COPY, 1, 2)):
        n = max(gate.positions)
        for index in range(1 << n):
            direct = apply_sequence(basis_state(n, index), [gate])
            rewritten = apply_sequence(basis_state(n, index), satchaos.verify.decompose(gate))
            checks += 1
            if not np.array_equal(direct.amplitudes, rewritten.amplitudes):
                findings.append(f"{gate!r} decomposition differs on basis state |{index}>")
    rng = np.random.default_rng(seed)
    for _ in range(RANDOM_STATES):
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        state = StateVector(4, amps)
        for gate in (placed(GateKind.AND, 3, 1, 4), placed(GateKind.OR, 2, 4, 1),
                     placed(GateKind.COPY, 4, 2)):
            direct = apply_sequence(state, [gate])
            rewritten = apply_sequence(state, satchaos.verify.decompose(gate))
            dev = float(np.max(np.abs(direct.amplitudes - rewritten.amplitudes)))
            checks += 1
            if dev > SINGLE_OP_ATOL:
                findings.append(
                    f"{gate!r} decomposition drifts {dev:.3e} on a random state "
                    f"(seed {seed})"
                )
    return checks, findings


def _drop_or_last_gate(gate):
    rewrite = decompose(gate)
    return rewrite[:-1] if gate.kind is GateKind.OR else rewrite


def _drop_every_last_gate(gate):
    return decompose(gate)[:-1]


@pytest.mark.parametrize("planted, found", [
    (None, 0),
    # Qubit 1 set: 4 basis states, and every random state.
    (_drop_or_last_gate, 4 + RANDOM_STATES),
    # AND and COPY become empty rewrites: every gate fails on every state.
    (_drop_every_last_gate, 2 + 4 + 2 + 3 * RANDOM_STATES),
], ids=["clean", "or-drops-a-cn", "every-rewrite-drops-a-gate"])
def test_gates_suite_finds_what_one_state_at_a_time_finds(monkeypatch, planted, found):
    """Planted rewrite defects are found with the same texts, in the same
    order, as when each state runs alone."""
    if planted:
        monkeypatch.setattr(satchaos.verify, "decompose", planted)
    result = suite_gates()
    checks, findings = _rewrites_one_state_at_a_time(DEFAULT_SEED)
    assert list(result.findings) == findings
    assert len(findings) == found
    assert result.checks == 1013
    assert checks == 8 + 8 + 4 + 3 * RANDOM_STATES


def test_gates_suite_refuses_a_rewrite_outside_the_state(monkeypatch):
    """The stacked register is wider than a state; a rewrite that reaches
    past the state's qubits is refused as on the state alone."""
    monkeypatch.setattr(satchaos.verify, "decompose", lambda gate: (placed(GateKind.CN, 1, 5),))
    with pytest.raises(ValueError, match="out of range 1..3"):
        suite_gates()


def test_gates_suite_holds_each_state_to_its_norm_budget(monkeypatch):
    """A norm drift on one state of the stacked register raises, naming the
    state; junk in the padding rows past the last state is ignored."""
    apply = satchaos.verify.apply_placed_gate

    def drift_on(block):
        def planted(state, gate):
            out = apply(state, gate)
            if state.num_qubits == 4 + (RANDOM_STATES - 1).bit_length():
                amps = out.amplitudes.copy()
                amps[16 * block:16 * (block + 1)] *= 1 + 1e-6
                amps[16 * RANDOM_STATES:] = 1.0
                out = StateVector(out.num_qubits, amps)
            return out
        return planted

    monkeypatch.setattr(satchaos.verify, "apply_placed_gate", drift_on(37))
    with pytest.raises(ArithmeticError, match="state 37: norm drifted"):
        suite_gates()
    monkeypatch.setattr(satchaos.verify, "apply_placed_gate", drift_on(RANDOM_STATES))
    assert suite_gates().ok


def test_tables_suite_certifies_each_table_once_per_call(monkeypatch):
    """The six tables every machine shares are certified once per call, and
    again on the next call: no report outlives the call that made it."""
    certify = satchaos.verify.check_wellformed
    seen = []

    def counted(delta):
        seen.append(delta)
        return certify(delta)

    monkeypatch.setattr(satchaos.verify, "check_wellformed", counted)
    tables = {p.delta for n in (1, 2, 3) for p in sat_machine(n).phases}
    first = suite_tables()
    assert sorted(map(id, seen)) == sorted(map(id, tables))
    assert len(tables) == 6 + 2 * 3  # shared, plus setup and compare per count
    seen.clear()
    assert suite_tables() == first
    assert len(seen) == len(tables)
    census = satchaos.verify._census_findings
    shared = {}
    assert [census(n, shared) for n in (1, 2, 3)] == [census(n, {}) for n in (1, 2, 3)]


def test_verify_all_check_count_is_pinned(tmp_path, capsys):
    report = tmp_path / "verify.json"
    assert main(["verify", "all", "--json", str(report)]) == 0
    suites = {s["suite"]: s["checks"] for s in json.loads(report.read_text())["suites"]}
    assert suites == {"bounds": 157, "gates": 1013, "oracle": 242, "tables": 2861}
    assert sum(suites.values()) == 4273
    capsys.readouterr()
