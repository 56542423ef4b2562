"""satchaos benchmark: one seeded workload, closed loop, one client thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout; the program is imported from ``src/`` next to
this directory and nowhere else. With ``--trace 0`` the request list is run
pass after pass, back to back, for S seconds, and the end-to-end metrics are
reported from each request's fastest pass. With
``--trace 1`` a fixed prefix of the request list is run three times (traced,
untraced, traced) and the per-layer metrics are reported, with the tracing
overhead and checks that every exact count repeats between the two traced
passes and that every span lies within its request. Human-readable lines come first; the last line of standard output
is the JSON result. A record with the run's environment is also written to
``perfbench/out/``.
"""

import time

STARTED = time.perf_counter()  # set-up time counts the imports below

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUPS = 5  # set-ups per run; setup_s is the import time plus their median


def import_program():
    """Import satchaos from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import satchaos
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import satchaos from {SRC}: {exc}")
    if Path(satchaos.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: satchaos was imported from {satchaos.__file__}, not {SRC}")


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    try:
        l3 = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                            text=True, timeout=30).stdout.strip()
    except OSError:
        l3 = ""
    return {
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "l3_bytes": int(l3) if l3.isdigit() else None,
    }


def execute(workload, request):
    """Run one request: (output, None), or (None, reason) when it raised."""
    try:
        return workload.execute(request), None
    except Exception as exc:  # a raising request is a failed request
        return None, f"{type(exc).__name__}: {exc}"


def check(workload, request, output, error) -> str | None:
    """The failure reason of an executed request, or None when correct."""
    if error is None:
        error = workload.check(request, output)
    return f"{request.label}: {error}" if error else None


def warm_up(workload, requests, problems):
    for request in requests[:workload.warmup_requests]:
        error = check(workload, request, *execute(workload, request))
        if error:
            problems.append(f"warm-up {error}")


def timed_run(workload, requests, seconds, problems):
    """Closed loop over the request list, pass after pass, until `seconds` have
    passed and the pass is complete; returns (latencies per request, failures).

    Only the request itself is timed; its output is checked between requests.
    Every request gets one sample per pass, spread over the whole run, so
    that its fastest sample can come from a fast phase of the host. The
    vCPUs of a shared host slow down independently of each other, so a
    single-threaded workload runs its passes on each CPU in turn.
    """
    warm_up(workload, requests, problems)
    samples: list[list[float]] = [[] for _ in requests]
    failures = []
    cpus = sorted(os.sched_getaffinity(0))
    begin = time.perf_counter()
    while not samples[-1] or time.perf_counter() - begin < seconds:
        if workload.one_thread:  # pass k runs on CPU k mod len(cpus)
            os.sched_setaffinity(0, {cpus[len(samples[0]) % len(cpus)]})
        for request, latencies in zip(requests, samples):
            t0 = time.perf_counter()
            output, error = execute(workload, request)
            latencies.append(time.perf_counter() - t0)
            error = check(workload, request, output, error)
            if error:
                failures.append(error)
    os.sched_setaffinity(0, cpus)
    return samples, failures


def traced_pass(workload, requests, tracer, failures) -> float:
    """Run every request once, each in a root span when traced.

    Returns the seconds spent in requests.
    """
    elapsed = 0.0
    with tracer or contextlib.nullcontext():
        for request in requests:
            t0 = time.perf_counter()
            with tracer.request() if tracer else contextlib.nullcontext():
                output, error = execute(workload, request)
            elapsed += time.perf_counter() - t0
            error = check(workload, request, output, error)
            if error:
                failures.append(error)
    return tracer.request_seconds() if tracer else elapsed


def traced_run(workload, requests, out_dir, problems):
    import tracing

    sample = requests[:workload.traced_requests]
    failures: list[str] = []
    warm_up(workload, requests, problems)
    first, second = tracing.Tracer(), tracing.Tracer()
    traced_a = traced_pass(workload, sample, first, failures)
    untraced = traced_pass(workload, sample, None, failures)
    traced_b = traced_pass(workload, sample, second, failures)

    counts_a, counts_b = first.metrics(), second.metrics()
    for name in tracing.EXACT_COUNTS:
        if counts_a[name] != counts_b[name]:
            problems.append(f"count {name} differs between traced passes: "
                            f"{counts_a[name]} vs {counts_b[name]}")
    for tracer in (first, second):
        if stray := tracer.stray_spans():
            problems.append(f"{stray} spans lie outside their request")
    units = dict(tracing.METRICS)
    metrics = {name: (counts_a[name] + counts_b[name]) / 2 if unit == "s" else counts_a[name]
               for name, unit in units.items()}
    traced = (traced_a + traced_b) / 2
    metrics["bench.traced_request_s"] = traced
    metrics["bench.untraced_request_s"] = untraced
    metrics["bench.trace_overhead_ratio"] = traced / untraced - 1.0
    units |= {"bench.traced_request_s": "s", "bench.untraced_request_s": "s",
              "bench.trace_overhead_ratio": "ratio"}
    first.write_spans(out_dir / "spans.csv.gz")
    extra = {"traced_requests": len(sample), "layer_shares": first.layer_shares()}
    return metrics, units, 3 * len(sample), failures, extra


def main(argv=None) -> int:
    import_program()
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    workload = workloads.WORKLOADS[args.workload]()
    out_dir = OUT / f"{args.workload}-seed{args.seed}"
    import_s = time.perf_counter() - STARTED
    setups = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        requests = workload.setup(args.seed, out_dir / "inputs")
        setups.append(time.perf_counter() - t0)

    info = environment(args.seed) | {"workload": args.workload, "trace": args.trace,
                                     "seconds": args.seconds}
    info |= workload.describe(args.seed)
    problems: list[str] = []  # checks of the benchmark itself, not of requests
    if args.trace:
        metrics, units, attempted, failures, extra = traced_run(
            workload, requests, out_dir, problems)
        info |= extra
    else:
        samples, failures = timed_run(workload, requests, args.seconds, problems)
        latencies = [t for request in samples for t in request]
        # Slowdowns of a shared host only add time, for seconds to minutes at
        # a time; each request's fastest pass is the steadiest estimate of
        # what the program itself costs.
        best = [min(request) for request in samples]
        attempted = len(latencies)
        metrics = {
            "throughput_per_s": len(best) / sum(best),
            "latency_p50_ms": statistics.median(best) * 1e3,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": import_s + statistics.median(setups),
        }
        units = {"throughput_per_s": "1/s", "latency_p50_ms": "ms",
                 "peak_rss_mib": "MiB", "setup_s": "s"}
        info["setup_import_s"] = import_s
        info["setup_samples_s"] = setups
        info["failed_ratio"] = len(failures) / attempted
        info["passes"] = len(samples[0])
        # The same figures over every sample, slow phases of the host included.
        info["all_samples_throughput_per_s"] = (attempted - len(failures)) / sum(latencies)
        info["all_samples_latency_p50_ms"] = statistics.median(latencies) * 1e3
        if attempted >= 100:  # ten samples beyond the 90th percentile
            info["all_samples_latency_p90_ms"] = statistics.quantiles(latencies, n=10)[-1] * 1e3
        info["latency_samples"] = attempted

    info["failures"] = failures[:20]
    info["problems"] = problems
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = {"info": info, "result": result}
    if not args.trace:
        record["latencies_ms"] = [[t * 1e3 for t in request] for request in samples]
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    for key, value in info.items():
        print(f"{key}: {json.dumps(value)}")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
