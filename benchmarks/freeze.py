"""Freeze a workload's reference outputs at one seed.

    python3 benchmarks/freeze.py --workload campaign-dense

writes benchmarks/reference/campaign-dense.json: each op's output (a
campaign's TrialRecord JSON lines, dataset-eval's agreement scores) and the
SHA-256 of all of them (for campaigns, of records.jsonl). Every benchmark run
re-runs these ops and counts each mismatch as a failed op. To check a change
on a held-out seed, freeze that seed on the parent commit with --out and
pass the file to run.py --reference.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

# Ops re-run by every benchmark run, about two seconds' worth each.
DEFAULT_OPS = {"campaign-dense": 12, "campaign-sparse": 16, "dataset-eval": 14}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ops", type=int)
    p.add_argument("--out", type=Path)
    args = p.parse_args()
    n = args.ops or DEFAULT_OPS[args.workload]
    out = args.out or HERE / "reference" / f"{args.workload}.json"

    workdir = HERE / "_out" / f"freeze-{args.workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        w = workloads.make(args.workload, 0, workdir)
        lines, digest, problems = w.reference_outputs(args.seed, n)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if problems:
        print(f"not frozen, outputs fail their checks: {problems}", file=sys.stderr)
        return 1
    doc = {"workload": args.workload, "seed": args.seed, "sha256": digest, "outputs": lines}
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}: {n} ops at seed {args.seed}, sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
