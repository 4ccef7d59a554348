"""Benchmark of the ncrf package: training and decoding, end to end and per layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload desk --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the current directory; the run
stops with exit code 2 if it is not there. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
installs spans and the layer probe and reports the per-layer metrics.
Generated corpora and checkpoints live under ``bench/work/`` until the
run ends; results and traces are written to ``bench/results/``.
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
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 5
MIN_ROUNDS = 3
THREAD_VARIABLES = ("NCRF_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Run:
    """State of one benchmark run: its spans when traced, and its layer metrics."""

    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.spans = None
        self.layer: dict[str, float] = {}
        if tracing:
            from spans import Spans

            self.spans = Spans()

    def span(self, name: str, **attrs):
        return self.spans.span(name, **attrs) if self.tracing else nullcontext()


def _git_sha(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _machine(np) -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except (TypeError, AttributeError):  # numpy before 1.26 prints only
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARIABLES},
    }


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "ncrf" / "__init__.py").is_file():
        print(f"error: no package source at {src / 'ncrf'}; run from a checkout root",
              file=sys.stderr)
        return 2
    # One worker thread for the package; BLAS may use every core, no more.
    os.environ["NCRF_THREADS"] = "1"
    sys.path.insert(0, str(src))
    import numpy as np
    import ncrf

    if Path(ncrf.__file__).resolve().parent != (src / "ncrf").resolve():
        print(f"error: imported ncrf from {ncrf.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads as wl_mod

    workload = wl_mod.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(wl_mod.WORKLOADS)}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    run = Run(bool(args.trace))
    work = BENCH_DIR / "work" / f"{workload.name}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    try:
        result = _measure(workload, args, run, work, wl_mod)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(root),
        "machine": _machine(np),
        "load_average_start": load_start,
        "load_average_end": os.getloadavg(),
        **result,
    }
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{workload.name}-s{args.seed}-t{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if run.tracing:
        (results_dir / f"{stem}.spans.json").write_text(
            json.dumps(run.spans.records, default=str) + "\n")
    for check in result["checks"]:
        if not check["ok"]:
            print(f"check failed: {check['check']}: {check['detail']}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


def _measure(workload, args, run, work: Path, wl_mod) -> dict:
    import numpy as np

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    setup_seconds = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        t0 = time.perf_counter()
        inputs = wl_mod.setup(workload, work, args.seed, run)
        setup_seconds.append(time.perf_counter() - t0)
    wl_mod.load_training_split(inputs)

    if run.tracing:
        wl_mod.install_wrappers(run.spans)
    rounds = []
    start = time.perf_counter()
    try:
        while len(rounds) < MIN_ROUNDS or (
            time.perf_counter() - start + statistics.median(r.seconds for r in rounds)
            <= args.seconds
        ):
            rounds.append(wl_mod.run_round(inputs, run))
    finally:
        if run.tracing:
            run.spans.unwrap_all()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = wl_mod.Checks()
    wl_mod.check_rounds(rounds, checks)
    wl_mod.check_outputs(inputs, rounds[0], checks, run)
    # work done per second over all rounds: stalls last seconds here, and pooling
    # the rounds evens them out where a median of three short rounds does not
    train_rate = sum(r.train_epochs for r in rounds) / sum(r.train_seconds for r in rounds)
    decode_rate = sum(r.decode_epochs for r in rounds) / sum(r.decode_seconds for r in rounds)
    if run.tracing:
        wl_mod.layer_probe(inputs, run, checks)
        wl_mod.span_metrics(run)
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = run.layer
    else:
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            "setup_s": statistics.median(setup_seconds),
            "train_epochs_per_s": train_rate,
            "decode_epochs_per_s": decode_rate,
            "peak_rss_mb": peak_rss_mb,
        }
    missing = sorted(set(wanted) - set(values))
    checks.add("every metric was measured", not missing, f"missing {missing}")
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in wanted.items() if name in values
    }
    return {
        "correct": checks.all_ok and all(np.isfinite(m["value"]) for m in metrics.values()),
        "attempted": sum(r.operations for r in rounds),
        "failed": 0,
        "metrics": metrics,
        "checks": checks.results,
        "rounds": [
            {"seconds": r.seconds, "train_epochs": r.train_epochs, "train_seconds": r.train_seconds,
             "decode_epochs": r.decode_epochs, "decode_seconds": r.decode_seconds}
            for r in rounds
        ],
        "setup_seconds": setup_seconds,
        "train_epochs_per_s": train_rate,
        "decode_epochs_per_s": decode_rate,
        "peak_rss_mb": peak_rss_mb,
    }


if __name__ == "__main__":
    sys.exit(main())
