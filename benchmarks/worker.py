"""One workload process: set-up, the timed closed loop, and output checks.

run.py starts this file once per set-up sample and once for the measured
run; it writes one JSON object to the file named by --result. Set-up is
everything a user pays before the first op: interpreter start, importing
traypick, building and validating the config, and one warm-up op on a seed
outside the timed range.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Machine-speed calibration. On a shared host the CPU's speed drifts by
# 20-30% over seconds to minutes, in CPU time as much as in wall time, so raw
# op times of two runs of the same code differ by that much. A fixed numpy
# kernel that never touches traypick runs, untimed, before every op; each
# op's time is scaled by CAL_REF_S over the median kernel time of the
# CAL_HALF_WINDOW ops on either side, which gives the op's time on a machine
# where the kernel takes CAL_REF_S. The kernel's arrays are small enough to
# stay in cache, so the op before it barely changes its time.
CAL_REF_S = 2.5e-3
CAL_HALF_WINDOW = 5
_CAL_RNG = np.random.default_rng(7)
_CAL_OWNER = _CAL_RNG.integers(0, 40, size=(96, 128)).astype(np.int32)
_CAL_HEIGHT = _CAL_RNG.random((96, 128))


def calibration_kernel() -> float:
    total = 0.0
    for pid in range(40):
        mask = _CAL_OWNER == pid
        ys, xs = np.nonzero(mask)
        total += ys.mean() + xs.mean() + float(_CAL_HEIGHT[mask].max())
    total += float(np.maximum(_CAL_HEIGHT[1:], _CAL_HEIGHT[:-1]).sum())
    return total + float(np.sort(_CAL_HEIGHT, axis=None)[::101].sum())


def scaled_times(times: list[float], cal: list[float]) -> np.ndarray:
    """Op times at the reference machine speed (see CAL_REF_S)."""
    k = CAL_HALF_WINDOW
    local = [statistics.median(cal[max(0, i - k): i + k + 1]) for i in range(len(cal))]
    return np.asarray(times) * CAL_REF_S / np.asarray(local)


class Loop:
    """Outputs, per-op times and problems of one closed-loop pass."""

    def __init__(self) -> None:
        self.results: list = []
        self.outputs: list[str | None] = []
        self.times: list[float] = []
        self.cal: list[float] = []
        self.problems: dict[int, str] = {}
        self.bytes_written = 0

    @property
    def raised(self) -> bool:
        return any(o is None for o in self.outputs)


def closed_loop(w, seconds: float | None = None, n: int | None = None, tracer=None) -> Loop:
    """Run ops 0, 1, ... one at a time until `seconds` of wall time have
    passed (at least one op) or, with `n`, exactly n ops. Only the op itself
    is timed; its checks and clean-up run between ops, and the calibration
    kernel just before it."""
    loop = Loop()
    start = time.perf_counter()
    i = 0
    while (i < n) if n is not None else (i == 0 or time.perf_counter() - start < seconds):
        t0 = time.perf_counter()
        calibration_kernel()
        loop.cal.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        try:
            result = tracer.run_op(i, w.run_op, i) if tracer else w.run_op(i)
        except Exception:
            loop.times.append(time.perf_counter() - t0)
            traceback.print_exc()
            loop.problems[i] = "raised"
            loop.results.append(None)
            loop.outputs.append(None)
            w.reset()
        else:
            loop.times.append(time.perf_counter() - t0)
            kept, output, problem, written = w.after_op(i, result)
            del result  # an op's arrays must not outlive it into the next op
            loop.results.append(kept)
            loop.outputs.append(output)
            loop.bytes_written += written
            if problem:
                loop.problems[i] = problem
        i += 1
    return loop


def measure(w, args) -> dict:
    # With tracing, half the time runs untraced, then the same ops replay
    # traced: outputs must match byte for byte and the time ratio is the
    # tracing overhead.
    run = closed_loop(w, seconds=args.seconds / 2 if args.trace else args.seconds)
    n = len(run.outputs)
    failed = {f"timed:{i}": p for i, p in run.problems.items()}
    attempted = n
    out: dict = {"ops": n}
    checked = run
    if args.trace:
        from tracing import Tracer, layer_metrics

        w.reset()
        tracer = Tracer()
        tracer.install()
        try:
            traced = closed_loop(w, n=n, tracer=tracer)
            if not traced.raised:
                w.persist(traced.results)
        finally:
            tracer.uninstall()
        attempted += n
        failed.update({f"traced:{i}": p for i, p in traced.problems.items()})
        for i, (a, b) in enumerate(zip(run.outputs, traced.outputs)):
            if a is not None and b is not None and a != b:
                failed[f"traced:{i}"] = "traced output differs from untraced"
        metrics = layer_metrics(tracer, n, traced.bytes_written)
        metrics["harness.tracing_overhead_frac"] = 1.0 - sum(run.times) / sum(traced.times)
        busy_total = sum(v for k, v in metrics.items() if k.endswith(".busy_frac"))
        out["busy_frac_total"] = busy_total
        if abs(busy_total - 1.0) > 1e-6:
            failed["trace:busy"] = f"busy_frac values sum to {busy_total}, not 1"
        spans_path = HERE / "_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        out["spans_file"] = str(spans_path.relative_to(ROOT))
        out["per_layer"] = metrics
        checked = traced
    elif not run.raised:
        w.persist(run.results)

    if not checked.raised:
        phase = "traced" if args.trace else "timed"
        failed.update({f"{phase}:{i}": p for i, p in w.loop_check(checked.results).items()})

    ref = json.loads(Path(args.reference).read_text())
    if ref["workload"] != args.workload:
        raise SystemExit(f"reference {args.reference} is for {ref['workload']}")
    lines, digest, problems = w.reference_outputs(ref["seed"], len(ref["outputs"]))
    attempted += len(lines)
    failed.update({f"reference:{i}": p for i, p in problems.items()})
    for i, (got, want) in enumerate(zip(lines, ref["outputs"])):
        if got != want:
            failed[f"reference:{i}"] = "differs from the frozen reference"
    if digest != ref["sha256"] and not any(k.startswith("reference:") for k in failed):
        failed["reference:sha256"] = "output digest differs from the frozen reference"
    if args.seed == ref["seed"]:
        for i, (got, want) in enumerate(zip(run.outputs, ref["outputs"])):
            if got != want:
                failed[f"timed:{i}"] = "differs from the frozen reference"

    scaled = scaled_times(run.times, run.cal)
    out.update(
        attempted=attempted,
        failed=len(failed),
        problems=dict(sorted(failed.items())[:20]),
        ops_per_s=n / float(scaled.sum()),
        op_ms_p50=float(np.percentile(scaled, 50)) * 1e3,
        op_ms_p95=float(np.percentile(scaled, 95)) * 1e3,
        raw=dict(
            ops_per_s=n / sum(run.times),
            op_ms_p50=float(np.percentile(run.times, 50)) * 1e3,
            op_ms_p95=float(np.percentile(run.times, 95)) * 1e3,
            cal_ms_p50=statistics.median(run.cal) * 1e3,
            cal_ref_ms=CAL_REF_S * 1e3,
        ),
    )
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    sys.path.insert(0, str(SRC))
    import traypick

    if Path(traypick.__file__).resolve().parent != (SRC / "traypick").resolve():
        raise SystemExit(f"imported traypick from {traypick.__file__}, not {SRC}")
    import workloads

    workdir = HERE / "_out" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        w = workloads.make(args.workload, args.seed, workdir)
        w.warm_up()
        result = {"ready": time.monotonic()}
        if not args.setup_only:
            result.update(measure(w, args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import scipy

    result["versions"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    result["max_rss_kb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
