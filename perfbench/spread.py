"""Run one workload over several seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload sweep-dense --seeds 1-10 [--record]

Each seed is one run of perfbench/run.py at BENCHMARK.json's run_seconds.
For every end-to-end metric it prints the median, the quartiles
(statistics.quantiles with n=4) and the spread, (Q3 - Q1) / median,
beside the metric's bound.  With --record the per-seed values, the
summary and the machine block are stored in perfbench/baseline.json
under "runs".
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from record_digests import seed_range

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
RUN_TIMEOUT = 900


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True, cwd=ROOT, timeout=RUN_TIMEOUT)
    if done.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.splitlines()
    machine = next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("machine "))
    print(f"seed {seed}: " + next(l for l in lines if l.startswith("raw ")))
    return json.loads(lines[-1]), machine


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="end-to-end spread over seeds")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 1-10")
    parser.add_argument("--record", action="store_true",
                        help="store the runs in perfbench/baseline.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {name: [] for name in bounds}
    machines = []
    for seed in args.seeds:
        result, machine = run_once(args.workload, seed, spec["run_seconds"])
        machines.append(machine)
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              + " ".join(f"{n}={result['metrics'][n]['value']:.6g}" for n in bounds),
              flush=True)

    summary = {}
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / statistics.median(vals)
        summary[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                         "spread": spread}
        print(f"{name:<14} median {statistics.median(vals):<12.6g} q1 {q1:<12.6g} "
              f"q3 {q3:<12.6g} spread {spread:.4f} bound {bounds[name]}")
    if args.record:
        baseline = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}
        baseline.setdefault("runs", {})[args.workload] = {
            "run_seconds": spec["run_seconds"], "seeds": args.seeds, "values": values,
            "summary": summary, "machine": machines[0]}
        BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
