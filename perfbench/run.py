"""seglv benchmark: one workload per run, end-to-end or traced per layer.

    python3 perfbench/run.py --workload chain3_ramp --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; seglv is imported from ``src/``.
Workloads are defined in ``workloads.py``; the metric names and units come
from ``BENCHMARK.json`` at the root.

A run pins BLAS/OpenMP to one thread, then sets up its inputs
``SETUP_REPEATS`` times (``setup_s`` is the median import time, over this
process and fresh interpreters that only import, plus the median set-up),
then repeats the timed operation until ``--seconds`` have passed (at least
once; ``wall_s`` is the median) and checks every output.  With
``--trace 1`` it sets up once with tracing on, runs the same untraced
repeats, then one more timed operation with tracing on, and reports the
per-layer metrics instead.  The last line of standard output is the JSON
result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("chain3_ramp", "chain3_probe", "chain3_spectral")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
# imports can only be repeated in a fresh interpreter; this one imports the
# same modules as the benchmark process and prints the seconds it took
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:3]; "
    "import workloads; print(time.perf_counter() - t)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest():
    """SHA-256 over the package sources, to identify code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "seglv").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def import_seconds(count):
    """Import times of `count` fresh interpreters, run one after another."""
    return [float(subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120).stdout)
        for _ in range(count)]


def environment(np, scipy):
    def blas(config):
        info = config.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__, "numpy_blas": blas(np),
        "scipy": scipy.__version__, "scipy_blas": blas(scipy),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def main(argv=None):
    args = parse_args(argv)
    t_start = time.perf_counter()
    load_before = os.getloadavg()
    if not (SRC / "seglv" / "__init__.py").is_file():
        print(f"no seglv sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import numpy as np
    import scipy
    import scipy.sparse.linalg

    import tracer as tracing
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install_scipy(tracer, scipy.sparse.linalg)
    import seglv
    if Path(seglv.__file__).resolve().parent != SRC / "seglv":
        print(f"seglv imported from {seglv.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if tracer is not None:
        import layers
        tracing.install_package(tracer, "seglv", layers.COUNTERS)
    import workloads  # binds the traced functions, so import after tracing
    import_s = time.perf_counter() - t_start

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    env = environment(np, scipy)
    print("env " + json.dumps(env, sort_keys=True))

    imports = [import_s] if tracer is not None else [import_s] + import_seconds(
        SETUP_REPEATS - 1)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    tally = workloads.Tally()
    setup_walls = []
    if tracer is not None:
        tracer.active = True
    for _ in range(1 if tracer is not None else SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.setup(tally)
        setup_walls.append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.active = False

    walls = []
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < args.seconds:
        workload.before_run()
        t0 = time.perf_counter()
        output = workload.run(inputs)
        walls.append(time.perf_counter() - t0)
        workload.check(inputs, output, tally)
    wall_s = statistics.median(walls)

    if tracer is not None:
        workload.before_run()
        tracer.phase = "run"
        tracer.active = True
        t0 = time.perf_counter()
        output = workload.run(inputs)
        traced_wall = time.perf_counter() - t0
        tracer.active = False
        workload.check(inputs, output, tally)
        computed = layers.layer_metrics(tracer.spans, traced_wall, wall_s)
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"{args.workload}-spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    else:
        computed = {
            "setup_s": statistics.median(imports) + statistics.median(setup_walls),
            "wall_s": wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    for line in tally.lines:
        print(line)
    print(f"import {[round(w, 3) for w in imports]} s; "
          f"set-up {[round(w, 3) for w in setup_walls]} s; "
          f"timed {[round(w, 3) for w in walls]} s")
    print(f"load average before {load_before}, after {os.getloadavg()}")
    fail_frac = tally.failed / tally.attempted
    print(f"{args.workload}: fail_frac {fail_frac:.6g} 1 "
          f"({tally.failed} failed of {tally.attempted} operations)")
    metrics = {}
    for item in declared:
        value = computed[item["name"]]
        metrics[item["name"]] = {"value": value, "unit": item["unit"]}
        print(f"{args.workload}: {item['name']} {value:.6g} {item['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
