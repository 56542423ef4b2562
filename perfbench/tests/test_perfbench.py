"""Tests of the benchmark itself: inputs, size bands, reference checks, tracing.

    python3 -m pytest perfbench/tests
"""

import json
import os
import random
import time
from collections import Counter
from pathlib import Path

import pytest

import satchaos.circuit
import satchaos.verify
from satchaos.sat import instance_from_ints

import run
import tracing
import workloads
from workloads import MachineXval, Request, SolveExpected, SolveSmall, SolveWide, VerifyAll


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", [SolveSmall, SolveWide])
def test_same_seed_gives_byte_identical_dimacs(workload, tmp_path):
    workload().setup(7, tmp_path / "a")
    workload().setup(7, tmp_path / "b")
    workload().setup(8, tmp_path / "c")
    first = _files(tmp_path / "a")
    assert first == _files(tmp_path / "b")
    assert first != _files(tmp_path / "c")


def test_same_seed_gives_same_machine_sample_and_verify_seed():
    assert MachineXval().sample(7) == MachineXval().sample(7)
    assert MachineXval().sample(7) != MachineXval().sample(8)
    assert VerifyAll().verify_seed(7) == VerifyAll().verify_seed(7)


def test_register_formula_matches_the_circuit_layout():
    rng = random.Random(1)
    for _ in range(300):
        n, clauses = workloads.random_cnf(rng, 10, 24)
        lay = satchaos.circuit.layout(instance_from_ints(n, clauses))
        assert workloads.register_qubits(n, clauses) == lay.total_qubits


def test_random_cnf_reproduces_the_verify_corpus():
    for seed in (1, 20260816):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(100):
            n, clauses = workloads.random_cnf(ours, 10, 20)
            assert satchaos.verify.random_instance(theirs, max_n=10) == \
                instance_from_ints(n, clauses)


def test_solve_small_band():
    wl = SolveSmall()
    instances = wl.instances(3)
    assert len(instances) == wl.count
    sizes = [workloads.register_qubits(n, c) for n, c in instances]
    assert max(sizes) <= 16  # a complex128 state of at most 1 MiB
    assert max(n for n, _ in instances) <= 10
    assert min(sizes) < 8
    # Every seed holds the same mix of register sizes, on different instances.
    other = wl.instances(4)
    assert Counter(sizes) == Counter(workloads.register_qubits(n, c) for n, c in other)
    assert instances != other


def test_solve_wide_band():
    instances = SolveWide().instances(3)
    sizes = [workloads.register_qubits(n, c) for n, c in instances]
    assert sizes == [21, 21, 20]
    for n, clauses in instances:
        assert n <= 8
        assert all(len({abs(lit) for lit in c}) == 3 for c in clauses)


def test_machine_xval_band():
    corpus = workloads.machine_corpus()
    assert len(corpus) == 14 + 584 + 18278
    sample = MachineXval().sample(3)
    assert len(set(map(repr, sample))) == len(sample)
    for n, clauses in sample:
        assert n in (1, 2, 3) and len(clauses) in (1, 2, 3)
        assert all(len({abs(lit) for lit in c}) == len(c) <= 3 for c in clauses)
    share = sum(n == 3 and len(c) == 3 for n, c in sample) / len(sample)
    assert share > 0.85


def test_verify_all_band():
    wl = VerifyAll()
    for seed in (1, 2, 3):
        work = wl.oracle_work(wl.verify_seed(seed))
        assert abs(work - wl.ORACLE_WORK_TARGET) < 0.03 * wl.ORACLE_WORK_TARGET


def test_solve_check_flags_a_planted_wrong_answer(tmp_path):
    wl = SolveSmall()
    request = wl.setup(5, tmp_path)[0]
    output = wl.execute(request)
    assert wl.check(request, output) is None

    wrong_r = Request(request.label, request.payload,
                      SolveExpected(request.expected.n, request.expected.m,
                                    request.expected.r + 1))
    assert "r_oracle" in wl.check(wrong_r, output)

    code, text = output
    report = json.loads(text)
    report["decision"] = "UNSAT" if report["decision"] == "SAT" else "SAT"
    assert "decision" in wl.check(request, (code, json.dumps(report)))
    assert "exit code" in wl.check(request, (2, text))


def test_machine_check_flags_a_planted_wrong_answer(tmp_path):
    wl = MachineXval()
    request = wl.setup(5, tmp_path)[0]
    output = wl.execute(request)
    assert wl.check(request, output) is None

    expected = request.expected
    (bits, clause_bits, result), *rest = expected.branches
    planted = workloads.MachineExpected(
        expected.r, ((bits, clause_bits, 1 - result), *rest))
    assert "branch" in wl.check(Request(request.label, request.payload, planted), output)
    wrong_r = workloads.MachineExpected(expected.r + 1, expected.branches)
    assert wl.check(Request(request.label, request.payload, wrong_r), output)


def test_verify_check_flags_a_failed_report(tmp_path):
    wl = VerifyAll()
    report = tmp_path / "report.json"
    request = Request("verify", [], report)
    report.write_text(json.dumps({"ok": True}))
    assert wl.check(request, (0, "")) is None
    report.write_text(json.dumps({"ok": False}))
    assert wl.check(request, (0, ""))
    report.write_text(json.dumps({"ok": True}))
    assert wl.check(request, (3, ""))
    assert "unreadable" in wl.check(request, (0, ""))  # no report written


class _Sleeper:
    """A workload whose requests sleep for their payload in seconds."""

    warmup_requests = 1
    one_thread = True

    def execute(self, request):
        time.sleep(request.payload)
        return request.payload

    def check(self, request, output):
        return None if output == request.expected else "wrong"


def test_timed_run_makes_whole_passes():
    requests = [Request(str(i), t, t) for i, t in enumerate((0.001, 0.002, 0.003))]
    problems, cpus = [], os.sched_getaffinity(0)
    samples, failures = run.timed_run(_Sleeper(), requests, 0.02, problems)
    assert not failures and not problems
    assert len({len(s) for s in samples}) == 1 and len(samples[0]) >= 2
    for request, latencies in zip(requests, samples):
        assert min(latencies) >= request.payload
    assert os.sched_getaffinity(0) == cpus  # restored after the passes


def _traced(run_requests):
    tracer = tracing.Tracer()
    with tracer:
        run_requests(tracer)
    return tracer


def test_tracer_partitions_request_time_and_restores_the_program(tmp_path):
    original = (satchaos.circuit.run, satchaos.verify.SUITES["oracle"],
                satchaos.gqtm.machine.ConfigSuperposition.norm_sq)
    solve, machine = SolveSmall(), MachineXval()
    requests = solve.setup(2, tmp_path)[:5]
    machine_requests = machine.setup(2, tmp_path)[:2]

    def run_requests(tracer):
        for request in requests:
            with tracer.request():
                solve.execute(request)
        for request in machine_requests:
            with tracer.request():
                machine.execute(request)
        with tracer.request():  # spans on verify's pool threads
            satchaos.verify.suite_oracle(count=4, max_n=3)

    first, second = _traced(run_requests), _traced(run_requests)
    assert (satchaos.circuit.run, satchaos.verify.SUITES["oracle"],
            satchaos.gqtm.machine.ConfigSuperposition.norm_sq) == original
    for tracer in (first, second):
        total = tracer.request_seconds()
        assert sum(tracer.self_times().values()) == pytest.approx(total, rel=1e-9)
        assert tracer.stray_spans() == 0
    a, b = first.metrics(), second.metrics()
    assert set(a) == {name for name, _ in tracing.METRICS}
    for name in tracing.EXACT_COUNTS:
        assert a[name] == b[name]
    assert a["quantum.apply_placed_gate.calls"] == a["circuit.gates"] > 0
    assert a["gqtm.step.calls"] > 0 and a["gqtm.run_classical_branch.calls"] > 0
    assert a["verify.checks"] > 0 and a["verify.suite_oracle.s"] > 0
    assert a["cli.main.self_s"] > 0


def test_tracer_flags_spans_outside_a_request():
    inst = instance_from_ints(2, [[1, -2]])

    def run_requests(tracer):
        with tracer.request():
            satchaos.circuit.run(inst)
        satchaos.circuit.run(inst)  # no request open

    assert _traced(run_requests).stray_spans() > 0


def test_reported_metrics_match_benchmark_json():
    config = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"]) for m in config["per_layer"]]
    assert per_layer == list(tracing.METRICS) + [
        ("bench.traced_request_s", "s"),
        ("bench.untraced_request_s", "s"),
        ("bench.trace_overhead_ratio", "ratio"),
    ]
    assert [m["name"] for m in config["workloads"]] == list(workloads.WORKLOADS)
