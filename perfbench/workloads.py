"""Seeded workloads of the satchaos benchmark.

Each workload turns a seed into a fixed list of requests. Reference answers
are computed during set-up from code paths that the timed requests do not
take, and every request's output is checked against them. The program sees
only the generated inputs: DIMACS files for the command line, SatInstance
objects for the machine cross-validation, and a seed for ``verify all``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import satchaos.circuit
import satchaos.cli
import satchaos.gqtm
from satchaos.sat import (
    count_models,
    count_models_clausewise,
    eval_clause,
    eval_instance,
    instance_from_ints,
)

Clauses = list[list[int]]

# Amplitudes of the dense engine are complex128 at the commit the benchmark
# was defined on; the recorded state size uses that width.
AMPLITUDE_BYTES = 16


# --- generators --------------------------------------------------------------

def register_qubits(n: int, clauses: Clauses) -> int:
    """Qubits the circuit layout needs: n variables, clause blocks, result qubit.

    A clause of width w takes w work qubits (w + 1 for a unit clause); the
    clause blocks overlap by one qubit per AND of the cascade.
    """
    widths = [len(c) + (len(c) == 1) for c in clauses]
    if len(clauses) == 1:
        return n + widths[0]
    return n + sum(widths) - 1


def dense_work(n: int, clauses: Clauses) -> int:
    """Estimated amplitude updates of the dense engine: gates x 2^qubits.

    Gates for distinct-variable clauses: the H layer, one OR per extra
    literal (one COPY for a unit clause), a NOT pair around each negated
    literal, and the AND cascade (one COPY for a single clause).
    """
    gates = n + (len(clauses) - 1 if len(clauses) > 1 else 1)
    for clause in clauses:
        gates += max(1, len(clause) - 1) + 2 * sum(lit < 0 for lit in clause)
    return gates << register_qubits(n, clauses)


def random_cnf(rng: random.Random, max_n: int, max_qubits: int) -> tuple[int, Clauses]:
    """The draw of ``satchaos.verify.random_instance``, reproduced here.

    n uniform on 1..max_n, m uniform on 1..2n, widths uniform on 1..min(3, n)
    with distinct variables, signs uniform; redrawn until the register fits
    max_qubits. It consumes the random stream exactly as the program's
    generator does, so it also predicts the oracle corpus of ``verify``.
    """
    while True:
        n = rng.randint(1, max_n)
        m = rng.randint(1, 2 * n)
        clauses = []
        for _ in range(m):
            width = rng.randint(1, min(3, n))
            variables = rng.sample(range(1, n + 1), width)
            clauses.append([v if rng.random() < 0.5 else -v for v in variables])
        if register_qubits(n, clauses) <= max_qubits:
            return n, clauses


def random_3cnf(rng: random.Random, n: int, m: int, negated: int) -> Clauses:
    """m clauses of three distinct variables, `negated` of the 3m literals negated.

    Fixing the number of negations fixes the gate count (each negated
    literal adds a NOT pair), so only which variables and which literals
    vary with the seed.
    """
    signs = [-1] * negated + [1] * (3 * m - negated)
    rng.shuffle(signs)
    return [
        [sign * v for sign, v in zip(signs[3 * j:3 * j + 3], rng.sample(range(1, n + 1), 3))]
        for j in range(m)
    ]


def dimacs_text(n: int, clauses: Clauses) -> str:
    lines = [f"p cnf {n} {len(clauses)}"]
    lines += [" ".join(map(str, clause)) + " 0" for clause in clauses]
    return "\n".join(lines) + "\n"


def distinct_var_clauses(n: int) -> Clauses:
    """Every clause over 1..n with distinct variables and width <= 3."""
    out = []
    for width in range(1, min(3, n) + 1):
        for variables in itertools.combinations(range(1, n + 1), width):
            for signs in itertools.product((1, -1), repeat=width):
                out.append([s * v for s, v in zip(signs, variables)])
    return out


def machine_corpus() -> list[tuple[int, Clauses]]:
    """The corpus of acceptance criterion 6: n, m in {1, 2, 3}, in its order."""
    corpus = []
    for n in (1, 2, 3):
        pool = distinct_var_clauses(n)
        for m in (1, 2, 3):
            corpus += [(n, [list(c) for c in chosen])
                       for chosen in itertools.product(pool, repeat=m)]
    return corpus


# --- requests ----------------------------------------------------------------

@dataclass(frozen=True)
class Request:
    label: str
    payload: object   # what the timed call receives
    expected: object  # the reference answer, computed in set-up


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = satchaos.cli.main(argv)
    return code, out.getvalue()


@dataclass(frozen=True)
class SolveExpected:
    n: int
    m: int
    r: int


def check_solve_report(expected: SolveExpected, output: tuple[int, str]) -> str | None:
    """None when a ``solve`` report matches the reference, else the reason."""
    code, text = output
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(text)
        n, m, r_oracle = report["n"], report["m"], report["r_oracle"]
        scaled = report["q_squared"] * (1 << expected.n)
        decision = report["decision"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    if (n, m) != (expected.n, expected.m):
        return f"report echoes n={n}, m={m}"
    if r_oracle != expected.r:
        return f"r_oracle {r_oracle} != reference {expected.r}"
    if abs(scaled - expected.r) > 1e-6:
        return f"q_squared*2^n = {scaled!r} != reference {expected.r}"
    want = "SAT" if expected.r else "UNSAT"
    if decision != want:
        return f"decision {decision} != reference {want}"
    return None


class SolveWorkload:
    """``satchaos solve FILE`` through ``satchaos.cli.main``, in process."""

    name = ""
    one_thread = True
    warmup_requests = 0
    traced_requests = 1

    def instances(self, seed: int) -> list[tuple[int, Clauses]]:
        raise NotImplementedError

    def setup(self, seed: int, workdir: Path) -> list[Request]:
        workdir.mkdir(parents=True, exist_ok=True)
        requests = []
        for i, (n, clauses) in enumerate(self.instances(seed)):
            path = workdir / f"{i:04d}.cnf"
            path.write_text(dimacs_text(n, clauses))
            r = count_models_clausewise(instance_from_ints(n, clauses))
            requests.append(Request(path.name, ["solve", str(path)],
                                    SolveExpected(n, len(clauses), r)))
        return requests

    def execute(self, request: Request):
        return _cli(request.payload)

    def check(self, request: Request, output) -> str | None:
        return check_solve_report(request.expected, output)

    def describe(self, seed: int) -> dict:
        sizes = [register_qubits(n, c) for n, c in self.instances(seed)]
        return {"instances": len(sizes), "qubits_min": min(sizes),
                "qubits_max": max(sizes)}


class SolveSmall(SolveWorkload):
    """Many small instances: per-call cost (argparse, parse, layout, build).

    The run time of a pass is dominated by its few 15-16 qubit registers, so
    every seed holds the same number of instances of each register size: the
    mix of one fixed reference draw. Instances are drawn as ``verify`` draws
    them and kept while their size still has room.
    """

    name = "solve-small"
    count = 200
    max_n = 10
    max_qubits = 16
    warmup_requests = 20
    traced_requests = 200

    def size_mix(self) -> Counter:
        rng = random.Random(f"{self.name}:reference")
        return Counter(register_qubits(*random_cnf(rng, self.max_n, self.max_qubits))
                       for _ in range(self.count))

    def instances(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        room = self.size_mix()
        out = []
        while len(out) < self.count:
            n, clauses = random_cnf(rng, self.max_n, self.max_qubits)
            size = register_qubits(n, clauses)
            if room[size] > 0:
                room[size] -= 1
                out.append((n, clauses))
        return out


class SolveWide(SolveWorkload):
    """Three 3-CNFs on 20-21 qubit registers: the dense kernel dominates.

    The shapes are fixed (two 21-qubit registers, then one of 20) so that
    every seed holds the same state sizes and gate counts (39 gates on 21
    qubits, 38 on 20); only the clauses' variables and signs come from the
    seed. Three requests make a pass of about 5 s, so a run repeats each
    one several times.
    """

    name = "solve-wide"
    # (n, m, negated literals) of three-literal clauses; n + 3m - 1 qubits.
    schedule = ((4, 6, 9), (7, 5, 9), (3, 6, 9))
    traced_requests = 3

    def instances(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        return [(n, random_3cnf(rng, n, m, negated)) for n, m, negated in self.schedule]

    def describe(self, seed):
        info = super().describe(seed)
        info["state_mib_per_request"] = [
            ((1 << register_qubits(n, c)) * AMPLITUDE_BYTES) / 2**20
            for n, c in self.instances(seed)
        ]
        return info


@dataclass(frozen=True)
class MachineExpected:
    r: int
    branches: tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]


class MachineXval:
    """Criterion 6's body on a seeded sample of its corpus.

    Each request runs the machine, the circuit and every classical replay,
    exactly as the acceptance test does, and is checked against the oracle
    count and clause-by-clause evaluation. 64 requests make a pass of 1-2 s,
    so a run repeats each one more than ten times.
    """

    name = "machine-xval"
    one_thread = True
    count = 64
    warmup_requests = 5
    traced_requests = 64

    def sample(self, seed: int) -> list[tuple[int, Clauses]]:
        corpus = machine_corpus()
        rng = random.Random(f"{self.name}:{seed}")
        return [corpus[i] for i in rng.sample(range(len(corpus)), self.count)]

    def setup(self, seed: int, workdir: Path) -> list[Request]:
        requests = []
        for i, (n, clauses) in enumerate(self.sample(seed)):
            inst = instance_from_ints(n, clauses)
            branches = []
            for index in range(1 << n):
                bits = tuple((index >> k) & 1 for k in range(n))
                branches.append((bits, tuple(eval_clause(c, bits) for c in inst.clauses),
                                 eval_instance(inst, bits)))
            requests.append(Request(
                f"{i}:{dimacs_text(n, clauses)!r}",
                (inst, tuple(bits for bits, _, _ in branches)),
                MachineExpected(count_models(inst), tuple(branches)),
            ))
        return requests

    def execute(self, request: Request):
        inst, assignments = request.payload
        machine = satchaos.gqtm.run_sat_gqtm(inst)
        circuit = satchaos.circuit.run(inst)
        branches = [satchaos.gqtm.run_classical_branch(inst, bits) for bits in assignments]
        return machine, circuit, branches

    def check(self, request: Request, output) -> str | None:
        machine, circuit, branches = output
        expected = request.expected
        inst, _ = request.payload
        weight = expected.r / (1 << inst.num_vars)
        if abs(machine.weights_raw[1] - circuit.q_squared) >= 1e-9:
            return (f"machine weight {machine.weights_raw[1]!r} vs circuit "
                    f"{circuit.q_squared!r}")
        if abs(circuit.q_squared - weight) >= 1e-9:
            return f"circuit q2 {circuit.q_squared!r} vs oracle {weight!r}"
        if machine.decision != ("SAT" if expected.r else "UNSAT"):
            return f"machine decision {machine.decision} with r={expected.r}"
        for (bits, clause_bits, result), got in zip(expected.branches, branches):
            if got != (clause_bits, result):
                return f"branch {bits}: {got} != {(clause_bits, result)}"
        return None

    def describe(self, seed):
        sample = self.sample(seed)
        return {"instances": len(sample),
                "n3_m3_share": sum(n == 3 and len(c) == 3 for n, c in sample) / len(sample)}


class VerifyAll:
    """``satchaos verify all --seed S``: every suite, one pass per request.

    The oracle suite's cost is dominated by its few largest registers, so
    its run time follows the verify seed: one pass took 4.7-8.3 s at verify
    seeds 1-10, 5.2-6.0 s at the seeds chosen here
    (baseline/verify_seed_spread.json). The verify seed
    is therefore the one, among CANDIDATES seeds drawn from the benchmark
    seed, whose oracle corpus (predicted by :func:`random_cnf`) has the
    estimated dense work closest to ORACLE_WORK_TARGET, the median over
    seeds. Every benchmark seed then measures about the same amount of work
    on different instances, and set-up always scans the same number of
    candidates.
    """

    name = "verify-all"
    # `verify all` defaults: 100 random instances, n <= 10, <= 20 qubits.
    oracle_count = 100
    oracle_max_n = 10
    oracle_max_qubits = 20
    ORACLE_WORK_TARGET = 2.35e8
    CANDIDATES = 32
    one_thread = False  # verify's thread pool keeps every CPU
    warmup_requests = 0
    traced_requests = 1

    def oracle_work(self, verify_seed: int) -> int:
        rng = random.Random(verify_seed)
        return sum(
            dense_work(*random_cnf(rng, self.oracle_max_n, self.oracle_max_qubits))
            for _ in range(self.oracle_count)
        )

    def verify_seed(self, seed: int) -> int:
        rng = random.Random(f"{self.name}:{seed}")
        candidates = [rng.randrange(1, 2**31) for _ in range(self.CANDIDATES)]
        return min(candidates,
                   key=lambda c: abs(self.oracle_work(c) - self.ORACLE_WORK_TARGET))

    def setup(self, seed: int, workdir: Path) -> list[Request]:
        workdir.mkdir(parents=True, exist_ok=True)
        report = workdir / "verify-report.json"
        verify_seed = self.verify_seed(seed)
        argv = ["verify", "all", "--seed", str(verify_seed), "--json", str(report)]
        return [Request(f"verify all --seed {verify_seed}", argv, report)]

    def execute(self, request: Request):
        return _cli(request.payload)

    def check(self, request: Request, output) -> str | None:
        code, _ = output
        report_path: Path = request.expected
        try:
            ok = json.loads(report_path.read_text())["ok"]
        except (OSError, ValueError, KeyError) as exc:
            return f"unreadable verify report: {exc!r}"
        finally:
            report_path.unlink(missing_ok=True)
        if code != 0 or ok is not True:
            return f"exit code {code}, ok={ok!r}"
        return None

    def describe(self, seed):
        verify_seed = self.verify_seed(seed)
        return {"verify_seed": verify_seed, "oracle_work": self.oracle_work(verify_seed)}


WORKLOADS = {w.name: w for w in (SolveSmall, SolveWide, MachineXval, VerifyAll)}
