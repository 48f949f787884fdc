#!/usr/bin/env python3
"""Checked-output digests of the benchmark workloads.

Runs one pass of each named workload of bench/workloads.py (all three by
default) in a temporary directory and prints one line per workload:

    workload seed digest problems failed

where digest is the pass's sha256 over its checked outputs, problems the
number of failed checks and failed the number of failed operations.  Two
trees whose arithmetic is the same print the same digests, so comparing
the lines of two checkouts is a bit-identity check of the workloads:

    python3 scripts/checked_digests.py --seed 41 --workload identities-1d

The package comes from this checkout's src/; bench/ is imported, never
written.
"""

import argparse
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: each workload's config seed)")
    ap.add_argument("--workload", nargs="+", default=None, metavar="W",
                    help="workload names (default: every workload)")
    args = ap.parse_args()

    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    sys.dont_write_bytecode = True   # leave bench/ as it is
    from workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        ap.error(f"unknown workload(s) {', '.join(unknown)}; choose from {', '.join(WORKLOADS)}")
    print("workload seed digest problems failed")
    for name in names:
        workload = WORKLOADS[name]
        seed = workload.default_seed if args.seed is None else args.seed
        with tempfile.TemporaryDirectory(prefix=f"{name}-") as out_dir:
            res = workload(seed).run_pass(out_dir)
        print(name, seed, res.digest, len(res.problems), res.failed, flush=True)


if __name__ == "__main__":
    main()
