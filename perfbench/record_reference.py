#!/usr/bin/env python3
"""Record the reference values of the fixed `balls` and `reports` pools.

    python3 perfbench/record_reference.py

Runs every pool op once and writes the named values that `check_op`
compares (sizes, matrix digests, delta, verdicts) to perfbench/reference.json.
Re-record only when a change is meant to alter these results, and say so.
"""

import json
import sys

import workloads


def main():
    reference = {}
    for name in ("balls", "reports"):
        wl = workloads.Workload(name, seed=0, load_reference=False)
        for op in wl.pool:
            result = workloads.run_op(op)
            reference[op.name] = workloads.summarize(op, result)
            print(op.name, reference[op.name], file=sys.stderr)
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
