"""Run the benchmark several times, one seed each, and report the spread.

    python3 benchmarks/spread.py --workload campaign-dense --runs 10 --first-seed 1

For every metric it prints the median, the quartiles (statistics.quantiles,
n=4) and their distance as a share of the median, next to the metric's bound
in BENCHMARK.json; end-to-end spreads should stay below a third of the bound.
With --out, the machine block and every run's values are written as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=int)
    p.add_argument("--out", type=Path)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    runs, machine = [], None
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(proc.stdout, proc.stderr, sep="\n", file=sys.stderr)
            print(f"seed {seed}: no result (exit {proc.returncode})", file=sys.stderr)
            return 1
        for line in lines:
            if line.startswith("# machine "):
                machine = json.loads(line[len("# machine "):])
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["report"] = [line for line in lines if line.startswith("# ")]
        runs.append(result)
        print(f"seed {seed}: correct {result['correct']}, {result['attempted']} attempted, "
              f"{result['failed']} failed", file=sys.stderr)

    print(f"# {args.workload}, {len(runs)} runs of {seconds} s, trace {args.trace}")
    print(f"# machine {json.dumps(machine, sort_keys=True)}")
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
        verdict = "" if bound is None else f"  bound {bound}  {'ok' if spread < bound / 3 else 'WIDE'}"
        print(f"{name:36s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.4f}{verdict}")
    if args.out:
        args.out.write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds, "trace": args.trace,
             "machine": machine, "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
