"""uniscat benchmark: three closed-loop workloads with checked outputs.

    python3 bench/run.py --workload xfer_verify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One caller runs one operation at a time, repeating whole rounds
of the workload's seeded pool until the operations have taken --seconds,
and checks every output (see workloads.py and checks.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With --trace 0 the
metrics are the end-to-end ones: setup_s (median of several fresh-process
set-ups), ops_per_s, op_p50_s and peak_rss_mb.  With --trace 1 they are the
per-layer figures of a traced run, per round of the pool, and the spans are
written to bench/out/.  The line before it records the machine: nproc,
the BLAS and its thread count.

BLAS is pinned to one thread before numpy loads: with its default two
threads on a two-core machine, one other busy process slows the transfer
matrix products 2.5-3x.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_PROBES = 5
WORKLOAD_NAMES = ("xfer_verify", "screen_sweep", "power_points")

# Layers whose busy time (and, for LAYER_CALLS, call count) a traced run reports.
LAYER_BUSY = (
    "xfermat.evolve_transfer",
    "xfermat.extract_t",
    "xfermat.check_symplectic",
    "xfermat.conserved_current",
    "xfermat.predicates",
    "potentials.PotentialSpec.value",
    "potentials.PotentialSpec.ft",
    "born.amplitude_table",
    "construct.build_potential_2d",
    "empower.screen_power",
    "empower.fig2_curves",
    "born.closed_form_f_left",
    "empower.total_power_changes",
    "cli.main",
)
LAYER_CALLS = (
    "xfermat.evolve_transfer",
    "potentials.PotentialSpec.value",
    "empower.screen_power",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's src/ first on the path; refuse any other uniscat."""
    if not (SRC / "uniscat" / "__init__.py").is_file():
        sys.exit(f"error: no uniscat sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import uniscat

    if Path(uniscat.__file__).resolve().parent != (SRC / "uniscat").resolve():
        sys.exit(f"error: imported uniscat from {uniscat.__file__}, not {SRC}")


def make_workload(name, seed, workdir):
    import workloads

    return workloads.WORKLOADS[name](seed, workdir)


def probe_setup(args) -> list:
    """Wall seconds from spawning a fresh interpreter until it has imported
    the program and built the workload's inputs, SETUP_PROBES times."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


def openblas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded in this process."""
    paths = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower():
                paths.add(path)
    found = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_", "openblas_get_num_threads",
        ):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def machine_facts() -> dict:
    import numpy as np
    import scipy

    facts = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    for mod, key in ((np, "numpy_blas"), (scipy, "scipy_blas")):
        blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts[key] = f"{blas.get('name')} {blas.get('version')}"
    facts["blas_threads"] = openblas_threads()
    return facts


def measure(workload, seconds, tracer=None):
    """Whole rounds of the pool until the operations have taken `seconds`.

    Only the operations are timed; each output is checked right after its
    operation, off the clock and with tracing paused.
    """
    latencies, problems = [], []
    failed = rounds = 0
    gc.collect()
    while True:
        for index, item in enumerate(workload.pool):
            if tracer is not None:
                tracer.op = len(latencies)
                tracer.enabled = True
            t0 = perf_counter()
            try:
                out = workload.run(item)
            except Exception:  # a failed operation is counted, not fatal
                out = None
                failed += 1
                traceback.print_exc()
            latencies.append(perf_counter() - t0)
            if tracer is not None:
                tracer.enabled = False
            if out is not None:
                problems += workload.check(index, out)
        rounds += 1
        if sum(latencies) >= seconds:
            return latencies, failed, rounds, problems


def end_to_end(latencies, setup_times):
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "ops_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
        "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }


def per_layer(tracer, latencies, rounds):
    tot = tracer.totals()
    metrics = {}
    for name in LAYER_BUSY:
        metrics[f"{name}.busy_s"] = {"value": tot["busy"].get(name, 0.0) / rounds, "unit": "s"}
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = {"value": tot["calls"].get(name, 0) / rounds, "unit": "count"}
    metrics["xfermat.slices"] = {
        "value": tot["counts"].get("xfermat.evolve_transfer", 0) / rounds, "unit": "count"
    }
    metrics["empower.integrand_points"] = {
        "value": tot["integrand_points"] / rounds, "unit": "count"
    }
    metrics["cli.self_s"] = {"value": tot["cli_self"] / rounds, "unit": "s"}
    metrics["traced.op_p50_s"] = {"value": statistics.median(latencies), "unit": "s"}
    metrics["traced.ops_per_s"] = {"value": len(latencies) / sum(latencies), "unit": "1/s"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        if args.setup_only:
            make_workload(args.workload, args.seed, workdir)
            print("ready", flush=True)
            return 0
        setup_times = [] if args.trace else probe_setup(args)
        workload = make_workload(args.workload, args.seed, workdir)
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer().install()
        try:
            latencies, failed, rounds, problems = measure(workload, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        for line in problems:
            print(f"CHECK FAILED: {line}", file=sys.stderr)
        facts = machine_facts()
        if tracer is not None:
            metrics = per_layer(tracer, latencies, rounds)
            meta = {"workload": args.workload, "seed": args.seed, "rounds": rounds, "machine": facts}
            tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json", meta)
        else:
            metrics = end_to_end(latencies, setup_times)
        print(json.dumps({"machine": facts, "rounds": rounds, "pool": len(workload.pool)}))
        print(json.dumps({
            "correct": not problems,
            "attempted": len(latencies),
            "failed": failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
