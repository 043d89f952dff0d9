"""Run one diskrot benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; diskrot is imported from the
checkout's src/.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1).  The exit code is 0 when
every command's output passed its checks, 1 when some failed, and 2 when
the checkout holds no diskrot sources.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

WORKLOAD_NAMES = ("acceptance-fast", "winding-sweep", "orbit-averages")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    # one BLAS thread, fixed before numpy is first imported
    os.environ["DISKROT_THREADS"] = "1"
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = Path(__file__).resolve().parent.parent / "src" / "diskrot"
    if not (src / "__init__.py").is_file():
        print(f"error: no diskrot sources at {src}", file=sys.stderr)
        return 2

    import bench

    result, record = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("# meta " + json.dumps(record["meta"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    for name, value in record.get("measured", {}).items():
        print(f"{'measured ' + name:40s} {value:.6g} s")
    print(f"{'fail_ratio':40s} {record['fail_ratio']:.6g} ratio")
    if "pair_iterates_per_s" in record:
        print(f"{'pair_iterates_per_s':40s} {record['pair_iterates_per_s']:.6g} 1/s")
    if record.get("missing_entry_points"):
        print(f"warning: not traced: {', '.join(record['missing_entry_points'])}", file=sys.stderr)
    for r in record["rounds"]:
        for c in r["commands"]:
            for f in c["failures"]:
                print(f"FAILED {' '.join(c['argv'])}: {f}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
