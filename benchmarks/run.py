"""traypick benchmark: one workload, one seed, one measured run.

    python3 benchmarks/run.py --workload campaign-dense --seed 1 --seconds 45 --trace 0

Runs from the repository root (or a plain checkout of it) and measures the
package under src/. Each workload runs in its own process, one op at a time
in a closed loop, with BLAS/OpenMP threads pinned to 1. With --trace 0 it
reports the end-to-end metrics; with --trace 1 the per-layer metrics of a
traced run (see tracing.py). Every op's output is checked (see
workloads.py); the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Exits non-zero without that line when the run cannot be made, and with
code 1 when any op failed its checks.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
# A workload exists when it has a frozen reference to be checked against.
WORKLOADS = sorted(path.stem for path in (HERE / "reference").glob("*.json"))
# Claims are validated on this seed too; no tuning uses it.
HELD_OUT_SEED = 4242
# Set-up is sampled this many times per untraced run; setup_s is the median.
SETUP_SAMPLES = 5
# A whole run, set-up samples included, must end within this many seconds.
RUN_LIMIT_S = 170
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_frac"):
        return "ratio"
    if name.startswith("perception.bytes_written"):
        return "B/op"
    return "count/op"


def tree_rss_kb(pid: int) -> int:
    """Resident set of a process and all its descendants, from /proc."""
    total, stack = 0, [pid]
    while stack:
        p = stack.pop()
        try:
            for line in Path(f"/proc/{p}/status").read_text().splitlines():
                if line.startswith("VmRSS:"):
                    total += int(line.split()[1])
            for task in os.listdir(f"/proc/{p}/task"):
                stack += [int(c) for c in Path(f"/proc/{p}/task/{task}/children").read_text().split()]
        except OSError:
            continue
    return total


def spawn(worker_args: list[str], deadline: float) -> tuple[dict, float, int]:
    """Run one workload process; return (its result, seconds from start to
    its first timed op, peak resident set of its process tree in kB)."""
    result_path = OUT / f"result-{os.getpid()}.json"
    result_path.unlink(missing_ok=True)
    env = {**os.environ, **THREAD_ENV}
    cmd = [sys.executable, str(HERE / "worker.py"), *worker_args, "--result", str(result_path)]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    peak = 0
    try:
        while proc.poll() is None:
            peak = max(peak, tree_rss_kb(proc.pid))
            if time.monotonic() > deadline:
                raise RuntimeError(f"run exceeded {RUN_LIMIT_S} s")
            time.sleep(0.1)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    return result, result["ready"] - start, max(peak, result["max_rss_kb"])


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_block(versions: dict) -> dict:
    return {
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "thread_env": THREAD_ENV,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--reference",
        type=Path,
        help="frozen outputs to check against (default: reference/<workload>.json)",
    )
    args = p.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        p.error("--seed must be >= 0 and --seconds within 1..60")
    if not (ROOT / "src" / "traypick" / "__init__.py").is_file():
        print(f"error: no traypick package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = args.reference or HERE / "reference" / f"{args.workload}.json"
    if not reference.is_file():
        print(f"error: no reference file {reference}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    worker_args = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--reference", str(reference.resolve()),
    ]
    # Set-up samples are taken before and after the measured run, so their
    # median spans the run's minute rather than a few seconds of it.
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        setups = []
        before = 0 if args.trace else SETUP_SAMPLES // 2
        after = 0 if args.trace else SETUP_SAMPLES - 1 - before
        for _ in range(before):
            setups.append(spawn([*worker_args, "--setup-only"], deadline)[1])
        result, setup, peak_kb = spawn(worker_args, deadline)
        setups.append(setup)
        for _ in range(after):
            setups.append(spawn([*worker_args, "--setup-only"], deadline)[1])
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}"
          f"  (held-out seed for claims: {HELD_OUT_SEED})")
    print(f"# machine {json.dumps(machine_block(result['versions']), sort_keys=True)}")
    print(f"# ops {result['ops']} timed, {result['attempted']} attempted incl. checks, "
          f"{result['failed']} failed (ops_failed_frac {result['failed'] / result['attempted']:.4f})")
    for key, problem in result["problems"].items():
        print(f"# FAILED {key}: {problem}")
    if args.trace:
        metrics = {k: (v, layer_unit(k)) for k, v in result["per_layer"].items()}
        print(f"# spans in {result['spans_file']}; busy_frac total {result['busy_frac_total']:.9f}")
    else:
        metrics = {
            "ops_per_s": (result["ops_per_s"], "1/s"),
            "op_ms_p50": (result["op_ms_p50"], "ms"),
            "op_ms_p95": (result["op_ms_p95"], "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        }
        print(f"# setup_s samples {', '.join(f'{s:.3f}' for s in setups)}")
        raw = result["raw"]
        print(f"# unscaled wall time: ops_per_s {raw['ops_per_s']:.6g}  op_ms_p50 {raw['op_ms_p50']:.6g}"
              f"  op_ms_p95 {raw['op_ms_p95']:.6g}; calibration kernel median {raw['cal_ms_p50']:.4g} ms"
              f" (op times are scaled to {raw['cal_ref_ms']:g} ms, see worker.py)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
