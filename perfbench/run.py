"""rateconv benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload sweep-dense --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  Inputs are generated from --seed
(cached under .bench_build/perfbench/); the commands then run back to
back in this process through rateconv.cli.main until --seconds are
used, each operation timed as a whole while a short reference loop is
sampled through it (see bench.py: times are reported in reference
seconds, which take out the host's changes of speed).

End-to-end metrics: ``wall_s`` is the median operation, the commands
as a user runs them, reading their model and trace files included;
``setup_s`` is the median of separate fresh-interpreter probes that
import rateconv and read those same files, so a change to the loaders
moves both; ``frames_per_s`` is the workload's decisions or
calibration frames over ``wall_s``; ``peak_rss_mb`` is this process's
peak resident memory.

The report lines come first; the last line is one JSON object with
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, and with --trace 1 the per-layer metrics of a run that
alternates untraced and traced operations.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One process, one thread: pin BLAS before numpy is imported anywhere.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="rateconv benchmark (one workload per run)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 is the README case (default 0)")
    parser.add_argument("--seconds", type=float, required=True,
                        help="command time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def prepare() -> bool:
    """Point imports and child processes at the checkout's sources, one thread each.

    Must run before numpy is imported.  False when there are no sources.
    """
    if not (SRC / "rateconv" / "cli.py").is_file():
        print(f"perfbench: no rateconv sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return False
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("RATECONV_THREADS", None)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not prepare():
        return 2

    import bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    return bench.run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
