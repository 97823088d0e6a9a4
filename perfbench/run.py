"""spectemp benchmark: one workload, one process, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload train_small --seed 1 --seconds 15 --trace 0

The run sets up the workload's seeded inputs several times (``setup_s``
is the median), then repeats complete passes of the workload until
``--seconds`` have elapsed. Every time is scaled to the nominal machine
speed with a reference kernel timed next to it (``speed.py``). ``--trace 0`` prints the end-to-end metrics.
``--trace 1`` first repeats the untraced measurement, then measures again
with every layer wrapped in spans, and prints the per-layer metrics and
the tracing overhead. The last line of standard output is the result;
the line before it is a report with the environment, sample counts and
the workload's own metrics. Both, and the spans of a traced run, are
also written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
SETUP_REPEATS = 7
# One BLAS thread, fixed on every commit. The hot paths at the seed are
# einsum and Python, which use one core; a second BLAS thread would make
# the timings depend on whether the machine's second core is free.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = [
    ("setup_s", "s"),
    ("work_ms", "ms"),
    ("output_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train_small", "train_large", "wl_refine", "spectral_probe"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit(root: Path):
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    """SHA-256 over the package's files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(p for p in (src / "spectemp").rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": nproc(),
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(ROOT),
        "source_sha256": source_digest(SOURCE),
        "machine": platform.machine(),
    }


def measure(workload, setup, seconds, checks, probe, tracer=None):
    """Set up, then repeat complete passes until ``seconds`` have elapsed.

    The layer wrappers when ``tracer`` is given, and the step clock outside
    them, are installed for the set-up and the passes and removed
    afterwards. Returns (inputs, pass results, the workload's measured
    metrics).
    """
    import layers
    from tracer import Patches
    from workloads import StepClock

    clock = StepClock(checks, probe)
    with Patches() as patches:
        if tracer is not None:
            layers.install(tracer, patches)
        clock.install(patches)
        inputs = setup()
        results, passes = [], []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            probe.maybe_sample()
            t0 = time.perf_counter()
            results.append(workload.run_pass(inputs, checks, probe))
            passes.append((t0, time.perf_counter()))
        probe.sample()
    return inputs, results, workload.measured(results, passes, clock.steps, probe)


def traced(workload, seed, seconds, checks, untraced_work_ms, spans_path):
    """A traced set-up and measurement; the per-layer metrics and a summary."""
    import layers
    from speed import SpeedProbe
    from tracer import Tracer, reduce_spans

    tracer = Tracer()
    try:
        inputs, results, measured = measure(
            workload, lambda: workload.setup(seed, checks), seconds, checks,
            SpeedProbe(), tracer)
    finally:
        tracer.write(spans_path)
    extra = {
        "window_bytes": getattr(inputs, "window_bytes", 0),
        "max_rel_err": max(r.get("max_rel_err", 0.0) for r in results),
        "rounds": statistics.fmean(r.get("rounds", 0) for r in results),
        "overhead_pct": 100.0 * (measured["work_ms"]["value"] / untraced_work_ms - 1.0),
    }
    metrics = layers.layer_metrics(tracer, passes=len(results), setups=1, extra=extra)
    self_times = {name: round(row["self_s"] / len(results), 9)
                  for name, row in sorted(reduce_spans(tracer.spans).items())}
    return metrics, {"passes": len(results), "spans": len(tracer.spans),
                     "self_s_per_pass": self_times}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "spectemp" / "__init__.py").is_file():
        print(f"perfbench: no spectemp package under {SOURCE}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(SOURCE), str(HERE)]

    import spectemp
    if Path(spectemp.__file__).resolve().parent != SOURCE / "spectemp":
        print(f"perfbench: imported spectemp from {spectemp.__file__}, not {SOURCE}",
              file=sys.stderr)
        return 2
    from speed import SpeedProbe
    from workloads import WORKLOADS, Checks

    workload = WORKLOADS[args.workload]
    checks = Checks()
    probe = SpeedProbe()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        start = time.perf_counter()
        inputs = workload.setup(args.seed, checks)
        setup_times.append((start, time.perf_counter()))
    probe.sample()

    _, results, measured = measure(workload, lambda: inputs, args.seconds, checks, probe)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = {
        "setup_s": statistics.median(probe.scaled(a, b) for a, b in setup_times),
        "work_ms": measured["work_ms"]["value"],
        "output_per_s": measured["output_per_s"]["value"],
        "peak_rss_mb": rss_mb,
    }
    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_info = None
    if args.trace:
        metrics, trace_info = traced(workload, args.seed, args.seconds, checks, e2e["work_ms"],
                                     out_dir / f"{stem}-spans.json")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": environment(),
        "setup_s": {"value": e2e["setup_s"], "unit": "s", "samples": len(setup_times)},
        "setup_s_raw": {"value": statistics.median(b - a for a, b in setup_times),
                        "unit": "s", "samples": len(setup_times)},
        "reference_ms_p50": {"value": statistics.median(probe.seconds) * 1e3,
                             "unit": "ms", "samples": len(probe.seconds)},
        "passes": len(results),
        "measured": measured,
        "end_to_end": {name: e2e[name] for name, _ in END_TO_END},
        "ops_attempted": checks.attempted,
        "ops_failed": checks.failed,
        "error_rate": checks.failed / max(checks.attempted, 1),
        "failures": checks.failures,
        "trace": trace_info,
    }
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    (out_dir / f"{stem}.json").write_text(json.dumps({"report": report, "result": result},
                                                     indent=1))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
