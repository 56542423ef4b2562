"""Run the benchmark over several seeds and write one BENCH file.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/out/BENCH.json [--traced-seed 1]

For every seed it runs ``run.py --trace 0`` once on each workload of
BENCHMARK.json, for its ``run_seconds``, one run at a time. The workloads
take turns within each seed, so a slow phase of the machine spreads over
all of them instead of covering one workload's whole set. It records each
end-to-end metric's values with their median and quartiles; the spread is
the interquartile distance as a share of the median. With ``--traced-seed``
it also makes two traced runs of that seed per workload and records whether
every exact count repeated between them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]
SECONDS = CONFIG["run_seconds"]


def seed_list(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((BENCH / "out" / f"{workload}-seed{seed}"
                         / f"result-trace{trace}.json").read_text())
    return {"result": result, "info": record["info"]}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    report = {"seconds": SECONDS, "seeds": args.seeds, "workloads": {}}
    all_runs = {workload: [] for workload in WORKLOADS}
    for seed in args.seeds:
        for workload in WORKLOADS:
            all_runs[workload].append(run(workload, seed, 0))
            result = all_runs[workload][-1]["result"]
            print(f"seed {seed} {workload}: " + ", ".join(
                f"{name} {m['value']:.6g}" for name, m in result["metrics"].items()), flush=True)
    report["environment"] = {
        key: all_runs[WORKLOADS[0]][0]["info"][key]
        for key in ("git_commit", "src_sha256", "nproc", "python", "numpy", "l3_bytes")
    }
    for workload, runs in all_runs.items():
        entry = {
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": [r["result"]["attempted"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs],
            "metrics": {
                name: summarize([r["result"]["metrics"][name]["value"] for r in runs])
                | {"unit": runs[0]["result"]["metrics"][name]["unit"]}
                for name in runs[0]["result"]["metrics"]
            },
            "all_samples": {key: [r["info"].get(key) for r in runs]
                            for key in ("all_samples_throughput_per_s",
                                        "all_samples_latency_p50_ms",
                                        "all_samples_latency_p90_ms", "passes")},
            "workload_info": {seed: {k: v for k, v in r["info"].items()
                                     if k in ("verify_seed", "oracle_work",
                                              "state_mib_per_request", "n3_m3_share",
                                              "qubits_min", "qubits_max")}
                              for seed, r in zip(args.seeds, runs)},
        }
        for name, summary in entry["metrics"].items():
            print(f"{workload} {name}: median {summary['median']:.6g} "
                  f"{summary['unit']}, spread {summary['spread']:.3f}", flush=True)
        if args.traced_seed is not None:
            traced = [run(workload, args.traced_seed, 1) for _ in range(2)]
            counts = [{name: m["value"] for name, m in t["result"]["metrics"].items()
                       if m["unit"] != "s" and name != "bench.trace_overhead_ratio"}
                      for t in traced]
            entry["traced"] = {
                "seed": args.traced_seed,
                "correct": all(t["result"]["correct"] for t in traced),
                "counts_repeat_across_runs": counts[0] == counts[1],
                "layer_shares": traced[0]["info"]["layer_shares"],
                "metrics": {name: m["value"]
                            for name, m in traced[0]["result"]["metrics"].items()},
            }
            print(f"{workload} traced: counts repeat {counts[0] == counts[1]}, "
                  f"shares {traced[0]['info']['layer_shares']}", flush=True)
        report["workloads"][workload] = entry
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
