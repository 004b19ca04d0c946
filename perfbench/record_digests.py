"""Record the output digests every workload is checked against.

Run on the commit whose outputs are the reference (byte-identical
outputs are part of the CLI contract, so they stay valid until a
change means to alter them):

    python3 perfbench/record_digests.py --seeds 0-39

Each workload's commands run once per seed, untimed; the SHA-256 of
every output file is merged into perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record reference output digests")
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-19")
    args = parser.parse_args(argv)
    if not run.prepare():
        return 2

    import bench
    from workloads import WORKLOADS

    baseline = json.loads(bench.BASELINE.read_text()) if bench.BASELINE.is_file() else {}
    table = baseline.setdefault("digests", {})
    for seed in args.seeds:
        for wl in WORKLOADS.values():
            runner = bench.Runner(wl, seed)
            try:
                _, codes = bench.run_commands(wl.commands(runner.inp, runner.info, runner.out))
                if any(c != 0 for c in codes):
                    print(f"{wl.name} seed {seed}: exit codes {codes}", file=sys.stderr)
                    return 1
                table.setdefault(wl.name, {})[str(seed)] = bench.digest(
                    runner.out, wl.outputs(runner.out))
            finally:
                runner.close()
        bench.BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
        print(f"seed {seed} recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
