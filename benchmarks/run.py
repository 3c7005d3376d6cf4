#!/usr/bin/env python3
"""riskprop benchmark launcher.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --all [--seed N] [--seconds S]
    python3 benchmarks/run.py --write-spec

Run from anywhere inside a checkout; the checkout is the parent of this
file's directory. One workload runs per process, as a closed loop with one
caller. BLAS and OpenMP pools are pinned to one thread in this process's own
environment before numpy loads. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the run alternates untraced
and traced iterations and reports the per-layer metrics, including the
traced/untraced time ratio. Spans and a full result record go to
.bench_out/ in the checkout.

--all runs every workload untraced and traced, each in a fresh process, and
prints every metric with its unit. --write-spec regenerates BENCHMARK.json
from the metric tables below.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

PROCESS_START = time.perf_counter()

# numpy is imported later, in import_library, so these reach its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
RUN_SECONDS = 40

WORKLOADS = [
    ("pipeline-default", "the six CLI stages on the default config: what a run-all user waits for; per-op and tape overhead dominate"),
    ("pretrain-4k", "masked pre-training on a 4000-node world: large gather/scatter arrays, so kernel throughput and tape memory dominate"),
    ("world-4k", "generate, cascade, save/load, pairs and classifier on 4000-node worlds with no pretraining: a pretraining change must read no change here"),
]
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("units_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]


def spec() -> dict:
    sys.path.insert(0, str(BENCH_DIR))
    from tracer import per_layer_spec

    return {
        "command": ["python3", "benchmarks/run.py"],
        "paths": ["benchmarks"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer_spec()],
    }


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "git_revision": git_revision(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def git_revision() -> str:
    """HEAD read from the .git directory; 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_library():
    """Import riskprop from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "riskprop" / "__init__.py").is_file() or not (ROOT / "configs" / "default.config").is_file():
        sys.exit(f"error: {ROOT} holds no riskprop checkout (src/riskprop, configs/default.config)")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import numpy
    import riskprop
    from riskprop import autodiff, checkpoint, classify, experiment, gat, graph, hgmae, optim, pairs, synthetic

    if src.resolve() not in Path(riskprop.__file__).resolve().parents:
        sys.exit(f"error: riskprop imported from {riskprop.__file__}, not from {src}")
    return {
        "numpy": numpy,
        "autodiff": autodiff,
        "checkpoint": checkpoint,
        "classify": classify,
        "experiment": experiment,
        "gat": gat,
        "graph": graph,
        "hgmae": hgmae,
        "optim": optim,
        "pairs": pairs,
        "synthetic": synthetic,
    }


def timed_loop(workload, budget: float, tracer=None):
    """Run iterations until another one would overrun `budget` seconds.

    With a tracer, iterations alternate untraced and traced, so both kinds
    see the same machine conditions, and at least one of each runs. Returns
    (untraced seconds, traced seconds, untraced outcomes, traced outcomes,
    traced iteration roots, section seconds)."""
    times, traced_times, outcomes, traced, roots = [], [], [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if tracer is not None and len(times) > len(traced_times):
            tracer.install()
            try:
                with tracer.root("iteration") as root:
                    traced.append(workload.iteration(measure_io=True))
            finally:
                tracer.uninstall()
            roots.append(root)
            traced_times.append(time.perf_counter() - t0)
        else:
            outcomes.append(workload.iteration())
            times.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        done = tracer is None or traced_times
        if done and elapsed + statistics.median(times + traced_times) > budget:
            return times, traced_times, outcomes, traced, roots, elapsed


def run_one(args) -> int:
    modules = import_library()
    import_s = time.perf_counter() - PROCESS_START
    from tracer import Tracer, per_layer_metrics, per_layer_spec
    from workloads import WORKLOADS as CLASSES

    OUT_DIR.mkdir(exist_ok=True)
    workload = CLASSES[args.workload](ROOT, args.seed, OUT_DIR)
    tracer = Tracer(modules) if args.trace else None

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        if tracer is None:
            workload.setup()
        else:
            tracer.install()
            try:
                with tracer.root("setup"):
                    workload.setup()
            finally:
                tracer.uninstall()
        workload.warm_up()
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    times, traced_times, outcomes, traced, roots, section_s = timed_loop(workload, args.seconds, tracer)
    attempted = sum(o.attempted for o in outcomes + traced)
    failed = sum(o.failed for o in outcomes + traced)
    first = outcomes[0]
    quality = dict(first.quality)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "iteration_s": times,
        "stage_s": first.stage_s,
        "quality": quality,
        "error_rate": failed / attempted if attempted else 1.0,
    }

    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(times),
            "units_per_s": sum(o.units for o in outcomes) / section_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {n: u for n, u, _, _ in END_TO_END}
    else:
        metrics = per_layer_metrics(tracer, roots)
        tq = traced[0].quality
        metrics["hgmae.final_loss"] = tq.get("final_loss", metrics["hgmae.final_loss"])
        for cond in ("task_only", "hgmae", "eta0"):
            metrics[f"classify.{cond}_micro_f1"] = tq.get(f"{cond}_micro_f1", 0.0)
        metrics["io.bytes_written"] = float(traced[0].bytes_written)
        metrics["trace.overhead_ratio"] = statistics.median(traced_times) / statistics.median(times)
        record["traced_iteration_s"] = traced_times
        record["absent"] = sorted(tracer.absent)
        units = {n: u for n, u, _ in per_layer_spec()}
        tracer.write_tsv(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv")
    record["metrics"] = metrics
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    env = record["environment"]
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    if tracer is not None and tracer.absent:
        print("absent (reported as 0): " + " ".join(sorted(tracer.absent)))
    for stage, secs in first.stage_s.items():
        print(f"stage {stage}: {secs:.4f} s")
    for name, value in quality.items():
        print(f"{name}: {value!r}")
    print(f"error_rate: {record['error_rate']!r} ({failed} of {attempted} operations failed)")
    if tracer is None:
        print(f"{workload.unit}_per_s: {metrics['units_per_s']!r} 1/s")
    for name, value in metrics.items():
        print(f"{name}: {value!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    for name, _ in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"== {name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                status = 1
            print(f"== {name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for line in lines[:-1]:
                print("  " + line)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--write-spec", action="store_true", help="regenerate BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required unless --all or --write-spec is given")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
