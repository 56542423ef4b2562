"""Acceptance gate: eight pinned criteria, one printed verdict line each.

Every test prints ``[criterion N] PASS/FAIL — label`` through the capture
escape hatch so the verdicts are visible in a plain ``pytest -v`` run.  The
tolerances and runtime caps are part of the contract and are asserted, not
just measured.  Criterion 4 deliberately reports the known empirical failure
of the lower crossing bound instead of hiding it: the violation list is
cross-pinned against an independent recomputation.
"""

import io
import itertools
import json
import math
import random
import time
from contextlib import contextmanager

import numpy as np

from satchaos.amplifier import (
    amplify_detect,
    logistic_step,
    snap_dyadic,
    sweep_crossing_bounds,
)
from satchaos.circuit import build_circuit, layout
from satchaos.circuit import run as circuit_run
from satchaos.gates import GateKind, decompose, placed
from satchaos.gqtm.machine import (
    ConfigSuperposition,
    check_wellformed,
    make_configuration,
    step,
)
from satchaos.gqtm.program import run_classical_branch, run_sat_gqtm, sat_machine
from satchaos.quantum import StateVector, apply_placed_gate, apply_sequence, gate_matrix
from satchaos.sat import (
    count_models,
    eval_clause,
    eval_instance,
    instance_from_ints,
    parse_dimacs,
)
from satchaos.verify import random_instance

WORKED = parse_dimacs("p cnf 3 3\n1 2 -3 0\n3 -2 0\n1 -2 -3 0\n")

EDGE_INSTANCES = (
    instance_from_ints(1, [[1], [-1]]),        # contradiction
    instance_from_ints(1, [[1, -1]]),          # tautological clause
    instance_from_ints(2, [[1], [-2]]),        # unit clauses
    instance_from_ints(2, [[1, 1, 2], [-2, -2]]),   # duplicate literals
    instance_from_ints(2, [[1, -1, 2], [2]]),  # opposed duplicates
)


@contextmanager
def criterion(capsys, num: int, label: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\n[criterion {num}] FAIL — {label}")
        raise
    with capsys.disabled():
        print(f"\n[criterion {num}] PASS — {label} ({time.perf_counter() - t0:.1f}s)")


def test_criterion_1_oracle_equivalence(capsys):
    with criterion(capsys, 1, "circuit readout equals the model fraction r/2^n"):
        t0 = time.perf_counter()
        rng = random.Random(20260816)
        corpus = [random_instance(rng) for _ in range(100)] + list(EDGE_INSTANCES)
        assert len(corpus) >= 100
        for inst in corpus:
            result = circuit_run(inst)
            r = count_models(inst)
            assert abs(result.q_squared - r / (1 << inst.num_vars)) < 1e-10, inst
        assert time.perf_counter() - t0 < 60.0


def test_criterion_2_worked_example(capsys):
    with criterion(capsys, 2, "three-clause worked example: layout, readout, crossing"):
        lay = layout(WORKED)
        assert lay.s == (4, 6, 8)
        assert lay.s_f == 10
        assert lay.mu == 6
        # the recurrence and the closed form must agree on the scratch width
        closed_form = sum(
            c.card + (1 if c.card == 1 else 0) for c in WORKED.clauses
        ) - 2
        assert lay.mu == closed_form

        result = circuit_run(WORKED)
        q_squared, r = snap_dyadic(result.q_squared, WORKED.num_vars)
        assert q_squared == 0.5 and r == 4
        assert count_models(WORKED) == 4

        trace = amplify_detect(q_squared, WORKED.num_vars)
        assert trace.decision == "SAT"
        assert trace.first_crossing == 1


def test_criterion_3_gate_identities(capsys):
    with criterion(capsys, 3, "gate unitarity and decomposition identities"):
        for kind in GateKind:
            matrix = gate_matrix(kind)
            eye = np.eye(matrix.shape[0])
            assert np.max(np.abs(matrix @ matrix.conj().T - eye)) <= 1e-14, kind

        minimal = [
            placed(GateKind.OR, 1, 2, 3),
            placed(GateKind.AND, 1, 2, 3),
            placed(GateKind.COPY, 1, 2),
        ]
        for gate in minimal:
            num_qubits = max(gate.positions)
            for index in range(1 << num_qubits):
                start = StateVector(
                    num_qubits,
                    np.eye(1 << num_qubits, dtype=np.complex128)[index],
                )
                direct = apply_placed_gate(start, gate)
                expanded = apply_sequence(start, decompose(gate))
                assert np.array_equal(direct.amplitudes, expanded.amplitudes), gate

        rng = np.random.default_rng(20260816)
        scattered = [
            placed(GateKind.OR, 4, 1, 3),
            placed(GateKind.AND, 2, 4, 1),
            placed(GateKind.COPY, 3, 1),
        ]
        for _ in range(100):
            amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2)))
            state = StateVector(4, amps)
            for gate in scattered:
                direct = apply_placed_gate(state, gate)
                expanded = apply_sequence(state, decompose(gate))
                diff = np.max(np.abs(direct.amplitudes - expanded.amplitudes))
                assert diff < 1e-12, gate


def test_criterion_4_crossing_bounds(capsys):
    with criterion(capsys, 4, "logistic crossing-index bounds for n = 2..40, x0 = 2^-n"):
        t0 = time.perf_counter()
        rows = sweep_crossing_bounds(range(2, 41))
        assert [row.n for row in rows] == list(range(2, 41))
        for row in rows:
            assert row.first_crossing is not None, row
            assert row.first_crossing <= 2 * row.n, row
            assert row.first_crossing <= (5 * (row.n - 1)) // 4, row
        by_n = {row.n: row for row in rows}
        assert by_n[3].first_crossing == 2  # spot anchor

        # The claimed lower bound is checked, and its violations are reported
        # and cross-pinned against an independent recomputation — never
        # silently absorbed.  Two readings are pinned: the integer-rounded
        # window k* >= floor((n-1)/(log2 a - 1)) fails for every n >= 4, and
        # the strict inequality k* > (n-1)/(log2 a - 1) fails for every n.
        violations = [row.n for row in rows if not row.meets_lower]
        lower = lambda n: (n - 1) / (math.log2(3.71) - 1)  # noqa: E731
        recomputed, strict = [], []
        for n in range(2, 41):
            x, k = 2.0 ** -n, 0
            while x <= 0.5:
                x = logistic_step(x)
                k += 1
            if k < math.floor(lower(n)):
                recomputed.append(n)
            if not k > lower(n):
                strict.append(n)
        assert violations == recomputed == list(range(4, 41))
        assert strict == list(range(2, 41))
        assert time.perf_counter() - t0 < 1.0
        with capsys.disabled():
            print(
                f"\n  reported finding: crossing index sits below the claimed "
                f"lower bound (n-1)/(log2(a)-1) — below its floor for "
                f"n = {violations[0]}..{violations[-1]}, and below the strict "
                f"bound for every n in the sweep"
            )


def test_criterion_5_unsat_dichotomy(capsys):
    with criterion(capsys, 5, "unsatisfiable instances: bitwise-zero trace, UNSAT"):
        full_width = lambda n: [  # noqa: E731
            [v if signs & (1 << (v - 1)) else -v for v in range(1, n + 1)]
            for signs in range(1 << n)
        ]
        unsat_corpus = [
            instance_from_ints(1, [[1], [-1]]),
            instance_from_ints(2, full_width(2)),
            instance_from_ints(3, [[1, 2, 3], [-1], [-2], [-3]]),
            instance_from_ints(3, [[1], [-1, 2], [-2, 3], [-3]]),
            instance_from_ints(3, full_width(2) + [[3]]),  # clash plus spectator unit
            instance_from_ints(5, [[1], [-1]]),            # spectator variables
            instance_from_ints(4, [[2], [-2], [1, 3, 4]]),
        ]
        for inst in unsat_corpus:
            assert count_models(inst) == 0  # corpus sanity
            result = circuit_run(inst)
            q_squared, r = snap_dyadic(result.q_squared, inst.num_vars)
            assert q_squared == 0.0 and r == 0
            trace = amplify_detect(q_squared, inst.num_vars)
            assert trace.decision == "UNSAT"
            assert all(x == 0.0 and math.copysign(1.0, x) == 1.0 for x in trace.x)
            assert len(trace.x) == (5 * (inst.num_vars - 1)) // 4 + 2
            if inst.num_vars <= 3:
                machine_run = run_sat_gqtm(inst)
                assert machine_run.decision == "UNSAT"
                assert all(x == 0.0 for x in machine_run.trace.x)
                assert machine_run.weights_raw[1] == 0.0


def _distinct_var_clauses(num_vars):
    out = []
    for width in range(1, min(3, num_vars) + 1):
        for variables in itertools.combinations(range(1, num_vars + 1), width):
            for signs in itertools.product((1, -1), repeat=width):
                out.append([s * v for s, v in zip(signs, variables)])
    return out


def test_criterion_6_machine_cross_validation(capsys):
    with criterion(capsys, 6, "machine weight vs circuit readout on every small instance"):
        t0 = time.perf_counter()
        checked = 0
        for num_vars in (1, 2, 3):
            clause_pool = _distinct_var_clauses(num_vars)
            assignments = list(itertools.product((0, 1), repeat=num_vars))
            for num_clauses in (1, 2, 3):
                for chosen in itertools.product(clause_pool, repeat=num_clauses):
                    inst = instance_from_ints(num_vars, list(chosen))
                    machine_run = run_sat_gqtm(inst)
                    circuit_result = circuit_run(inst)
                    assert abs(
                        machine_run.weights_raw[1] - circuit_result.q_squared
                    ) < 1e-9, inst
                    for bits in assignments:
                        clause_bits, outcome = run_classical_branch(inst, bits)
                        assert outcome == eval_instance(inst, bits), (inst, bits)
                        assert clause_bits == tuple(
                            eval_clause(c, bits) for c in inst.clauses
                        ), (inst, bits)
                    checked += 1
        for inst in EDGE_INSTANCES:  # duplicate-literal shapes sit outside the pool
            machine_run = run_sat_gqtm(inst)
            assert abs(
                machine_run.weights_raw[1] - circuit_run(inst).q_squared
            ) < 1e-9, inst
            checked += 1
        elapsed = time.perf_counter() - t0
        assert checked == 14 + 584 + 18278 + len(EDGE_INSTANCES)
        assert elapsed < 300.0


def test_criterion_7_machine_certificates(capsys):
    with criterion(capsys, 7, "row normalization, full-run norms, interference pruning"):
        machine = sat_machine(3)
        report = check_wellformed(machine.phase("dft").delta)
        assert report.normalization_defects == ()
        assert report.unitary and not report.deterministic

        for inst in (WORKED, instance_from_ints(2, [[1, 2], [-1, -2]])):
            sink = io.StringIO()
            run_sat_gqtm(inst, jsonl_sink=sink)
            rows = [json.loads(line) for line in sink.getvalue().splitlines()]
            assert rows
            assert all(abs(row["norm"] - 1.0) <= 1e-10 for row in rows)

        dft = sat_machine(1).phase("dft")
        track0 = {0: "0", 1: "X"}
        branches = {
            make_configuration(
                "dft_apply", [track0, {0: bit}, {}, {}], [0, 0, 0, 0]
            ): amp
            for bit, amp in (("0", 1 / math.sqrt(2)), ("1", -1 / math.sqrt(2)))
        }
        out = step(ConfigSuperposition(branches), dft.delta, dft.finals)
        assert len(out) == 1  # the opposite-sign write cancelled bitwise
        ((survivor, amplitude),) = out.branches.items()
        assert survivor.symbol_at(1, 0) == "1"
        assert abs(amplitude - 1.0) < 1e-12


def test_criterion_8_complexity_reporting(capsys):
    with criterion(capsys, 8, "gate-count scaling fit and amplifier iteration cap"):
        total_cards, gate_totals = [], []
        for size in range(4, 29):
            clauses = []
            for k in range(size):
                width = 1 + (k % 3)
                clause = [
                    (((k + j) % size) + 1) * (-1 if (k + j) % 2 == 0 else 1)
                    for j in range(width)
                ]
                clauses.append(clause)
            inst = instance_from_ints(size, clauses)
            total_cards.append(sum(inst.cards()))
            gate_totals.append(len(build_circuit(inst)))
        coeffs = np.polyfit(total_cards, gate_totals, deg=2)
        predicted = np.polyval(coeffs, total_cards)
        residual = np.sum((np.array(gate_totals) - predicted) ** 2)
        spread = np.sum((np.array(gate_totals) - np.mean(gate_totals)) ** 2)
        r_squared = 1.0 - residual / spread
        assert r_squared > 0.999

        for n in range(1, 41):
            cap = (5 * (n - 1)) // 4 + 1
            for r in sorted({1, 3, (1 << n) - 1, 1 << (n - 1)}):
                if not 0 < r < (1 << n):
                    continue
                trace = amplify_detect(r * 2.0 ** -n, n)
                assert len(trace.x) - 1 <= cap, (n, r)
