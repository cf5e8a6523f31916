"""Record input and output digests of every input variant into golden.json.

    python3 perfbench/record.py [WORKLOAD ...]

Run from the repository root, at the commit whose outputs are the reference.
Each variant runs once, untraced; a failed operation aborts the recording.
"""
from __future__ import annotations

import json
import sys
import time

import gen
import run


def main(workloads: list[str]) -> int:
    golden = json.loads(run.GOLDEN.read_text(encoding="utf-8")) if run.GOLDEN.exists() else {}
    for workload in workloads or list(gen.WORKLOADS):
        entries = {}
        for variant in range(gen.N_VARIANTS):
            work, _, inputs = run.prepare(workload, variant)
            res = run.run_rep(workload, work, False, time.monotonic() + run.CHILD_TIMEOUT_S)
            if "error" in res or res["failed"] or res["problems"]:
                print(f"{workload} variant {variant}: {res.get('error') or res['problems']}",
                      file=sys.stderr)
                return 1
            entries[str(variant)] = {"inputs": inputs, "outputs": res["outputs"]}
            print(f"{workload} variant {variant}: wall {res['wall_s']:.2f} s", file=sys.stderr)
        golden[workload] = entries
        run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
