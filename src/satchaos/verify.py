"""Verification suites: gates, bounds, oracle and tables.

Each suite is a plain function returning a :class:`SuiteResult`; the CLI maps
non-empty findings to exit code 3. Findings are hard failures and carry
enough context (seed, index, DIMACS text) to reproduce; warnings record
true-but-tolerated observations, most notably the printed lower crossing
bound, which the actual logistic dynamics beat for every n >= 4.

Random corpora are reproducible by construction: clause widths uniform on
1..3 (capped by n), literal signs uniform, instances resampled until the
circuit fits a small qubit budget, all from a caller-supplied seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .amplifier import amplify_detect, sweep_crossing_bounds
from .circuit import (
    build_circuit,
    layout,
    layout_from_cards,
    run as circuit_run,
    sat_decision_exact,
)
from .config import (
    ACCUMULATED_ATOL,
    DEFAULT_SEED,
    SINGLE_OP_ATOL,
    UNITARITY_ATOL,
    VERIFY_SUITES,
)
from .gates import GateKind, PlacedGate, check_gates, decompose, placed
from .gqtm.machine import (
    ConfigSuperposition,
    TransitionFunction,
    WellformedReport,
    check_wellformed,
    make_configuration,
    step,
)
from .gqtm.program import run_classical_branches, run_sat_gqtm, sat_machine
from .quantum import StateVector, apply_placed_gate, gate_matrix
from .sat import (
    SatInstance,
    count_models,
    eval_clause,
    eval_instance,
    instance_from_ints,
    to_dimacs,
)

MAX_TOTAL_QUBITS = 20  # circuit width a random instance may lay out to
RANDOM_STATES = 100  # random 4-qubit states the gates suite rewrites
GATE_INSTANCES = 40  # seeded instances whose circuits the gates suite checks
RANDOM_TABLE_INSTANCES = 40  # seeded n = 3 instances in the tables suite

# Named edge instances every corpus must contain.
EDGE_INSTANCES: tuple[tuple[str, SatInstance], ...] = (
    ("contradiction", instance_from_ints(1, [[1], [-1]])),
    ("tautology", instance_from_ints(1, [[1, -1]])),
    ("unit-clauses", instance_from_ints(2, [[1], [-2]])),
    ("duplicate-literals", instance_from_ints(2, [[1, 1, 2], [-2, -2]])),
    ("duplicate-opposed", instance_from_ints(2, [[1, -1, 2], [2]])),
    ("forced-chain", instance_from_ints(3, [[1], [-1, 2], [-2, 3]])),
)


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    checks: int
    findings: tuple[str, ...]
    warnings: tuple[str, ...] = ()
    seed: int | None = None

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.findings)} finding(s)"
        tail = f", {len(self.warnings)} warning(s)" if self.warnings else ""
        seed = f", seed={self.seed}" if self.seed is not None else ""
        return f"{self.suite}: {status} ({self.checks} checks{tail}{seed})"


def random_instance(rng: random.Random, max_n: int = 10) -> SatInstance:
    """One reproducible random instance that fits the simulator budget.

    n uniform on 1..max_n, m uniform on 1..2n, widths uniform on 1..min(3, n)
    with distinct variables per clause, signs uniform. Unconstrained m-clause
    formulas can demand ~4n qubits of workspace, so a draw whose layout
    (computed from the widths alone) exceeds :data:`MAX_TOTAL_QUBITS` is
    refused before its instance is built, and the next one is drawn. A
    layout takes at least n + 2 qubits, so a larger ``max_n`` would draw
    forever.
    """
    if max_n > MAX_TOTAL_QUBITS - 2:
        raise ValueError(f"max_n = {max_n}: at most {MAX_TOTAL_QUBITS - 2} variables "
                         f"lay out within {MAX_TOTAL_QUBITS} qubits")
    while True:
        n = rng.randint(1, max_n)
        m = rng.randint(1, 2 * n)
        widths = []
        clauses = []
        for _ in range(m):
            width = rng.randint(1, min(3, n))
            variables = rng.sample(range(1, n + 1), width)
            widths.append(width)
            clauses.append([v if rng.random() < 0.5 else -v for v in variables])
        if layout_from_cards(n, widths).total_qubits <= MAX_TOTAL_QUBITS:
            return instance_from_ints(n, clauses)


# --- suite: gates -----------------------------------------------------------

def _circuit_gate_findings(item: tuple[str, SatInstance]) -> tuple[int, list[str]]:
    """One check per gate ``build_circuit`` emits: is it well formed?"""
    label, inst = item
    lay = layout(inst)
    gates = build_circuit(inst, lay)
    rows = []
    for k, gate in enumerate(gates):
        try:
            check_gates((gate,), lay.total_qubits)
        except ValueError as exc:
            rows.append(f"{label}: gate {k} {gate!r}: {exc}")
    return len(gates), rows


def _rewrite_batch(states: np.ndarray, gate: PlacedGate) -> tuple[np.ndarray, np.ndarray]:
    """``gate`` and its :func:`decompose` rewrite, each applied to every row
    of ``states`` (one 2^q-amplitude state of q qubits per row) at once.

    The rows are stacked as one register of q + b qubits, b the bits that
    index a row: qubits 1..q hold a state and the qubits above pick its row;
    the slots past the last row stay zero and are ignored. Each side runs
    once through the dense engine. The gates must lie in qubits 1..q, and
    each row keeps the norm budget of ``quantum.apply_sequence``. Returns
    both sides, one row per state.
    """
    count, dim = states.shape
    q = dim.bit_length() - 1
    b = (count - 1).bit_length()
    padded = np.zeros((1 << b, dim), dtype=np.complex128)
    padded[:count] = states
    register = StateVector(q + b, padded.reshape(-1))
    sides = []
    for gates in ((gate,), decompose(gate)):
        check_gates(gates, q)
        out = register
        for g in gates:
            out = apply_placed_gate(out, g)
        rows = out.amplitudes.reshape(-1, dim)[:count]
        if gates:  # as apply_sequence: an empty rewrite moves nothing
            budget = ACCUMULATED_ATOL * len(gates)
            drift = np.abs(np.sum(np.abs(rows) ** 2, axis=1) - 1.0)
            worst = int(np.argmax(drift))
            if drift[worst] > budget:
                raise ArithmeticError(
                    f"state {worst}: norm drifted by {drift[worst]:.3e} over {len(gates)} "
                    f"gates (budget {budget:.3e})"
                )
        sides.append(rows)
    direct, rewritten = sides
    return direct, rewritten


def suite_gates(seed: int = DEFAULT_SEED) -> SuiteResult:
    """Unitarity of every gate matrix, the rewrite identities, and the
    well-formedness of every gate the circuit builder places.

    Identities are demanded exactly on basis states (both sides are
    permutations there) and to 1e-12 on :data:`RANDOM_STATES` random states
    of a 4-qubit register with scattered placements, each state one check.
    The states of each kind run as one stacked register
    (:func:`_rewrite_batch`); AND, OR, COPY and their rewrites permute basis
    states, so every amplitude comes out as it would one state at a time.
    Gates are built unchecked, so each gate of the circuits for the edge
    instances and :data:`GATE_INSTANCES` seeded random instances goes
    through :func:`check_gates` here.
    """
    findings: list[str] = []
    checks = 0

    corpus_rng = random.Random(seed)
    corpus = [(f"edge:{name}", inst) for name, inst in EDGE_INSTANCES]
    corpus += [
        (f"random[{i}](seed={seed})", random_instance(corpus_rng))
        for i in range(GATE_INSTANCES)
    ]
    for item in corpus:
        got, rows = _circuit_gate_findings(item)
        checks += got
        findings.extend(rows)

    for kind in GateKind:
        mat = gate_matrix(kind)
        dev = float(np.max(np.abs(mat @ mat.conj().T - np.eye(mat.shape[0]))))
        checks += 1
        if dev > UNITARITY_ATOL:
            findings.append(f"gate {kind.value} matrix not unitary: max dev {dev:.3e}")

    composite = (
        placed(GateKind.AND, 1, 2, 3),
        placed(GateKind.OR, 1, 2, 3),
        placed(GateKind.COPY, 1, 2),
    )
    for gate in composite:
        n = max(gate.positions)
        direct, rewritten = _rewrite_batch(np.eye(1 << n, dtype=np.complex128), gate)
        for index, equal in enumerate(np.all(direct == rewritten, axis=1).tolist()):
            checks += 1
            if not equal:
                findings.append(
                    f"{gate!r} decomposition differs on basis state |{index}>"
                )

    rng = np.random.default_rng(seed)
    states = np.empty((RANDOM_STATES, 16), dtype=np.complex128)
    for i in range(RANDOM_STATES):
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        states[i] = amps
    scattered = (
        placed(GateKind.AND, 3, 1, 4),
        placed(GateKind.OR, 2, 4, 1),
        placed(GateKind.COPY, 4, 2),
    )
    devs = []
    for gate in scattered:
        direct, rewritten = _rewrite_batch(states, gate)
        devs.append(np.max(np.abs(direct - rewritten), axis=1).tolist())
    for per_state in zip(*devs):
        for gate, dev in zip(scattered, per_state):
            checks += 1
            if dev > SINGLE_OP_ATOL:
                findings.append(
                    f"{gate!r} decomposition drifts {dev:.3e} on a random state "
                    f"(seed {seed})"
                )
    return SuiteResult("gates", checks, tuple(findings), seed=seed)


# --- suite: bounds ----------------------------------------------------------

def suite_bounds(n_lo: int = 2, n_hi: int = 40) -> SuiteResult:
    """Sweep first crossings of x0 = 2^-n against the claimed windows.

    Hard findings: a missing crossing, a crossing beyond 2n, or one beyond
    the upper window floor(5(n-1)/4). The printed lower bound is checked too,
    but its violations are warnings: direct iteration shows k*(n) grows like
    (n-1)/log2(a), below that bound for every n >= 4, so a finding here would
    just restate a wrong constant. The n=3 anchor k*=2 stays a hard check.
    """
    findings: list[str] = []
    warnings: list[str] = []
    rows = sweep_crossing_bounds(range(n_lo, n_hi + 1))
    checks = 0
    for row in rows:
        checks += 4
        if row.first_crossing is None:
            findings.append(f"n={row.n}: no crossing within the safety limit")
            continue
        if row.first_crossing > 2 * row.n:
            findings.append(
                f"n={row.n}: k*={row.first_crossing} exceeds 2n={2 * row.n}"
            )
        if not row.within_upper:
            findings.append(
                f"n={row.n}: k*={row.first_crossing} exceeds the upper window "
                f"{row.k_high}"
            )
        if not row.meets_lower:
            warnings.append(
                f"n={row.n}: k*={row.first_crossing} below the printed lower "
                f"bound {row.k_low} (expected for n >= 4)"
            )
    anchors = {row.n: row.first_crossing for row in rows}
    if n_lo <= 3 <= n_hi:
        checks += 1
        if anchors.get(3) != 2:
            findings.append(f"anchor n=3: expected k*=2, got {anchors.get(3)}")
    return SuiteResult("bounds", checks, tuple(findings), tuple(warnings))


# --- suite: oracle ----------------------------------------------------------

def _oracle_checks(item: tuple[str, SatInstance]) -> tuple[int, list[str]]:
    label, inst = item
    result = circuit_run(inst)
    r = count_models(inst)
    n = inst.num_vars
    rows: list[str] = []
    checks = 2

    if result.models != r:
        rows.append(
            f"{label}: circuit model count {result.models} != oracle {r} "
            f"for {to_dimacs(inst)!r}"
        )
    decision = sat_decision_exact(result)
    if (decision == "SAT") != (r > 0):
        rows.append(f"{label}: decision {decision} disagrees with r={r}")
    if r == 0:
        checks += 2
        if result.q_squared != 0.0:
            rows.append(f"{label}: UNSAT weight {result.q_squared!r} not bitwise 0.0")
        trace = amplify_detect(result.q_squared, n)
        if any(x != 0.0 for x in trace.x) or trace.decision != "UNSAT":
            rows.append(f"{label}: UNSAT trace not identically zero")
    return checks, rows


def suite_oracle(count: int = 100, max_n: int = 10,
                 seed: int = DEFAULT_SEED) -> SuiteResult:
    """Brute-force equivalence on the edges plus `count` random instances."""
    rng = random.Random(seed)
    corpus = [(f"edge:{name}", inst) for name, inst in EDGE_INSTANCES]
    corpus += [
        (f"random[{i}](seed={seed})", random_instance(rng, max_n=max_n))
        for i in range(count)
    ]
    results = [_oracle_checks(item) for item in corpus]
    checks = sum(c for c, _ in results)
    findings = [row for _, rows in results for row in rows]
    return SuiteResult("oracle", checks, tuple(findings), seed=seed)


# --- suite: tables ----------------------------------------------------------

# Phases whose tables must pass the full local certificate. The erasure table
# is deliberately irreversible (a reset run on post-measurement components),
# so it is held to determinism and row normalization only.
_CERTIFIED_UNITARY = ("setup", "dft", "or_eval", "and_eval",
                      "handoff", "increment", "compare")


def _census_findings(num_vars: int,
                     reports: dict[TransitionFunction, WellformedReport]) -> tuple[int, list[str]]:
    """The certificate checks of every phase table of ``sat_machine(num_vars)``.

    The machines for different counts share the six tables built at import,
    so ``reports`` keeps each table's :func:`check_wellformed` report (keyed
    by the table object) for the caller's other counts. Each count still
    gets its own checks and rows.
    """
    machine = sat_machine(num_vars)
    rows: list[str] = []
    checks = 0
    for phase in machine.phases:
        report = reports.get(phase.delta)
        if report is None:
            report = reports[phase.delta] = check_wellformed(phase.delta)
        checks += 2
        if report.normalization_defects:
            rows.append(
                f"n={num_vars} {phase.name}: {len(report.normalization_defects)} "
                f"row(s) break normalization"
            )
        if phase.name in _CERTIFIED_UNITARY and not report.unitary:
            rows.append(
                f"n={num_vars} {phase.name}: expected a unitary certificate, "
                f"got {len(report.orthogonality_defects)} overlap defect(s)"
            )
        if phase.name == "dft":
            checks += 1
            if report.deterministic:
                rows.append(
                    f"n={num_vars} dft: table is deterministic — "
                    f"superposition rows lost"
                )
        if phase.name == "erase":
            checks += 1
            if not report.deterministic:
                rows.append(f"n={num_vars} erase: reset table not deterministic")
            for q1, a1, q2, a2, overlap in report.orthogonality_defects:
                checks += 1
                if not (q1.startswith("erase_") and q2.startswith("erase_")):
                    rows.append(
                        f"n={num_vars} erase: overlap outside the reset states: "
                        f"{q1}/{q2} ({overlap:.3e})"
                    )
    return checks, rows


def _all_clauses(num_vars: int) -> list[list[int]]:
    """Every clause over 1..num_vars with distinct variables, width <= 3."""
    out: list[list[int]] = []
    for width in range(1, min(3, num_vars) + 1):
        for variables in combinations(range(1, num_vars + 1), width):
            for signs in product((1, -1), repeat=width):
                out.append([s * v for s, v in zip(signs, variables)])
    return out


def _cross_backend_checks(item: tuple[str, SatInstance]) -> tuple[int, list[str]]:
    label, inst = item
    rows: list[str] = []
    machine_run = run_sat_gqtm(inst)
    circ = circuit_run(inst)
    checks = 2
    if machine_run.models != circ.models:
        rows.append(
            f"{label}: machine model count {machine_run.models} != circuit "
            f"{circ.models} for {to_dimacs(inst)!r}"
        )
    if machine_run.decision != sat_decision_exact(circ):
        rows.append(
            f"{label}: decisions diverge ({machine_run.decision} vs circuit) "
            f"for {to_dimacs(inst)!r}"
        )
    n = inst.num_vars
    assignments = [tuple((index >> k) & 1 for k in range(n)) for index in range(1 << n)]
    replays = run_classical_branches(inst, assignments)
    for bits, (clause_bits, result) in zip(assignments, replays):
        checks += 1 + inst.num_clauses
        if result != eval_instance(inst, bits):
            rows.append(f"{label}: branch {bits} result {result} wrong")
        for got, clause in zip(clause_bits, inst.clauses):
            if got != eval_clause(clause, bits):
                rows.append(f"{label}: branch {bits} clause bit {got} wrong")
    return checks, rows


def _interference_findings() -> tuple[int, list[str]]:
    """A constructed two-branch cancellation must prune exactly one target.

    Two configurations that differ only in the superposed bit under the head,
    weighted (+1/sqrt2, -1/sqrt2), feed the same Hadamard row; the |0>-write
    amplitudes cancel bitwise and the |1>-write target must survive alone
    with amplitude 1.
    """
    machine = sat_machine(1)
    dft = machine.phase("dft")
    track0 = {0: "0", 1: "X"}
    configs = [
        make_configuration("dft_apply", [track0, {0: bit}, {}, {}], [0, 0, 0, 0])
        for bit in ("0", "1")
    ]
    amp = 1.0 / np.sqrt(2.0)
    psi = ConfigSuperposition({configs[0]: amp, configs[1]: -amp})
    out = step(psi, dft.delta, dft.finals)
    rows: list[str] = []
    branches = dict(out.branches)
    if len(branches) != 1:
        rows.append(f"interference: expected 1 surviving branch, got {len(branches)}")
    else:
        (survivor, amplitude), = branches.items()
        if survivor.symbol_at(1, 0) != "1":
            rows.append("interference: wrong branch survived the cancellation")
        if abs(amplitude - 1.0) > SINGLE_OP_ATOL:
            rows.append(f"interference: survivor amplitude {amplitude!r} != 1")
    return 3, rows


def suite_tables(seed: int = DEFAULT_SEED) -> SuiteResult:
    """Machine-table certificates plus machine-vs-circuit agreement.

    Exhaustive over every distinct-variable instance with n <= 2, m <= 2 and
    every single-clause n = 3 instance; a seeded random batch covers n = 3
    with m in 2..3. Each instance is checked for weight/decision agreement
    and for per-branch classical agreement on all 2^n assignments.
    """
    findings: list[str] = []
    checks = 0

    reports: dict[TransitionFunction, WellformedReport] = {}  # dropped with this call
    for n in (1, 2, 3):
        got, rows = _census_findings(n, reports)
        checks += got
        findings.extend(rows)

    corpus: list[tuple[str, SatInstance]] = [
        (f"edge:{name}", inst)
        for name, inst in EDGE_INSTANCES if inst.num_vars <= 3
    ]
    for n in (1, 2):
        clauses = _all_clauses(n)
        for i, c1 in enumerate(clauses):
            corpus.append((f"exhaustive n={n} [{i}]", instance_from_ints(n, [c1])))
            for j, c2 in enumerate(clauses):
                corpus.append(
                    (f"exhaustive n={n} [{i},{j}]", instance_from_ints(n, [c1, c2]))
                )
    for i, c1 in enumerate(_all_clauses(3)):
        corpus.append((f"exhaustive n=3 [{i}]", instance_from_ints(3, [c1])))
    rng = random.Random(seed)
    clauses3 = _all_clauses(3)
    for i in range(RANDOM_TABLE_INSTANCES):
        m = rng.randint(2, 3)
        chosen = [list(rng.choice(clauses3)) for _ in range(m)]
        corpus.append(
            (f"random n=3 [{i}](seed={seed})", instance_from_ints(3, chosen))
        )

    results = [_cross_backend_checks(item) for item in corpus]
    checks += sum(c for c, _ in results)
    findings += [row for _, rows in results for row in rows]

    got, rows = _interference_findings()
    checks += got
    findings.extend(rows)
    return SuiteResult("tables", checks, tuple(findings), seed=seed)


# The names live in config.py, where the CLI's parser reads them without
# importing this module.
SUITES = dict(zip(VERIFY_SUITES, (suite_bounds, suite_gates, suite_oracle, suite_tables),
                  strict=True))
