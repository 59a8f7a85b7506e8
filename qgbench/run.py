"""Run one quatgan benchmark workload and print its metrics.

Usage, from the repository root:

    python3 qgbench/run.py --workload sngan16_hinge --seed 1 --seconds 36 --trace 0

Prints a JSON line ``{"info": ...}`` (environment, sample counts, digest,
exact counts) and, as the last line, ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``. Run outputs (the digest and
count records, traced spans, scratch checkpoints) go under ``.bench_build/qgbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "quatgan" / "__init__.py").is_file():
        print(f"qgbench: no quatgan sources under {src}", file=sys.stderr)
        return 2
    # One core and one BLAS thread. On a 2-vCPU host a second BLAS thread made
    # dcgan16_qce steps no faster, and the host-speed kernels (hostspeed.py),
    # whose child process inherits this affinity, track the program only on
    # its own core.
    # BLAS reads its thread count when numpy is first imported.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import harness

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    info, result = harness.run(harness.WORKLOADS[args.workload], args.seed, args.seconds,
                               bool(args.trace), ROOT / ".bench_build" / "qgbench",
                               harness.code_id(ROOT))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
