"""diarnet benchmark: one workload per run, driven through the CLI in-process.

    python3 bench/run.py --workload train_desk --seed 1 --seconds 10 --trace 0

--trace 0 measures the end-to-end metrics with nothing wrapped; --trace 1
wraps the layer entry points (see spans.py) and reports per-layer metrics.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Workloads and metrics are described in
bench/README.md.
"""

import os
import sys

# Pin BLAS to one thread before numpy is imported, as tests/conftest.py does.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3     # set-up time is the median of at least this many set-ups,
SETUP_MIN_S = 1.0     # and of as many as fit in this time, for cheap set-ups
MIN_OPS = 3           # timed operations per run, however long they take
CAL_DIM = 128         # matrix side of the calibration pass's matmuls
MIB = 2 ** 20


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        sha = sha.stdout.strip() if sha.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"git_sha": sha, "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "cpus": os.cpu_count()}


def calibrate() -> float:
    """Wall time of one pass of a fixed loop that runs no diarnet code.

    The speed of a shared VM drifts by tens of percent over minutes, and wall
    times drift with it. Dividing an operation's time by that of the passes
    next to it measures the program against the machine as it is at that
    moment. The pass mixes interpreter work (dict updates, a sort) with small
    float32 matmuls and elementwise numpy, the mix the workloads run.
    """
    import numpy as np

    a = np.linspace(-1.0, 1.0, CAL_DIM * CAL_DIM, dtype=np.float32).reshape(CAL_DIM, CAL_DIM)
    t0 = time.perf_counter()
    counts = {}
    for i in range(800_000):
        counts[i % 997] = counts.get(i % 997, 0.0) + i * 0.5
    sorted((i * 7919) % 10007 for i in range(200_000))
    for _ in range(400):
        np.tanh(a @ a)
    return time.perf_counter() - t0


def run_op(wl, out: Path):
    from workloads import call_cli

    res = call_cli(wl.argv(out), out)
    wl.check(res)
    shutil.rmtree(out)     # a reference-geometry training run leaves 140 MB of checkpoints
    return res


def measure(wl, work: Path, seed: int, seconds: float):
    """End-to-end run: repeated set-up, one untimed tracemalloc pass, then
    operations back to back for `seconds`, each timed against the
    calibration passes on either side of it."""
    setup_s = []
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_MIN_S:
        shutil.rmtree(work / "setup", ignore_errors=True)
        (work / "setup").mkdir(parents=True)
        t0 = time.perf_counter()
        wl.setup(work / "setup", seed)
        setup_s.append(time.perf_counter() - t0)

    tracemalloc.start()
    try:
        results = [run_op(wl, work / "op0")]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    walls, in_cal = [], []
    cal = calibrate()
    t_end = time.perf_counter() + seconds
    while len(walls) < MIN_OPS or time.perf_counter() < t_end:
        res = run_op(wl, work / f"op{len(results)}")
        results.append(res)
        walls.append(res.wall_s)
        cal_after = calibrate()
        in_cal.append(res.wall_s / ((cal + cal_after) / 2))
        cal = cal_after
    metrics = {
        "throughput_per_cal": (wl.work_per_op / statistics.median(in_cal), "1/cal"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_mib": (peak / MIB, "MiB"),
    }
    return results, metrics, statistics.median(walls)


def measure_traced(wl, work: Path, seed: int, seconds: float):
    """Traced run: one traced set-up, then untraced and traced operations in
    turn; layer metrics come from the traced ones only."""
    from spans import Tracer, instrument, layer_metrics, unit

    setup = Tracer()
    (work / "setup").mkdir(parents=True)
    with instrument(setup):
        wl.setup(work / "setup", seed)
    ops = Tracer()
    results, plain, traced = [], [], []
    t_end = time.perf_counter() + seconds
    while not traced or time.perf_counter() < t_end:
        res = run_op(wl, work / f"op{len(results)}")
        results.append(res)
        plain.append(res.wall_s)
        with instrument(ops):
            res = run_op(wl, work / f"op{len(results)}")
        results.append(res)
        traced.append(res.wall_s)
    metrics = layer_metrics(ops, setup)
    base = statistics.median(plain)
    metrics["trace.overhead_frac"] = (statistics.median(traced) - base) / base
    return results, {k: (v, unit(k)) for k, v in metrics.items()}, base


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return seed


def main(argv=None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    wl = WORKLOADS[args.workload]()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run = measure_traced if args.trace else measure
        results, metrics, op_s = run(wl, work, args.seed, args.seconds)
        for problem in wl.check_once(results, work / "check"):
            for res in results:
                res.problems.append(problem)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in results if r.problems]
    print("# env " + json.dumps(environment()))
    for r in failed[:5]:
        print(f"# failed: {'; '.join(r.problems)}")
    if not args.trace:
        rows = wl.summary(wl.work_per_op / op_s) + [
            ("throughput_per_cal", metrics["throughput_per_cal"][0], "1/cal"),
            ("setup_s", metrics["setup_s"][0], "s"),
            ("peak_mib", metrics["peak_mib"][0], "MiB"),
            ("ops.failed_frac", len(failed) / len(results), "ratio")]
        print(f"# {args.workload} seed {args.seed}, {len(results)} CLI calls: "
              + ", ".join(f"{n} {v:.6g} {u}" for n, v, u in rows))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if os.environ.get("DIARNET_SEED"):
        # cli._seed_override would replace every config seed, so the
        # workload's --seed would silently stop mattering
        print("error: DIARNET_SEED is set; unset it to run the benchmark", file=sys.stderr)
        raise SystemExit(2)
    if not (ROOT / "src" / "diarnet").is_dir():
        print(f"error: no diarnet sources under {ROOT / 'src'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    raise SystemExit(main())
