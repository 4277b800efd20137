"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload classify_catalog --seed 1 --seconds 40 --trace 0

Run from the root of a checkout: the library is imported from its ``src/``
directory and nowhere else, so a directory without the library source
makes the run exit with code 2 before any result is printed.

With ``--trace 0`` the timed passes run untraced and the end-to-end metrics
are reported.  With ``--trace 1`` untraced and traced passes alternate and
the per-layer metrics are reported: span self times and computed work counts
from the traced passes, and ``trace.overhead_s``, the traced minus the
untraced pass time.  The spans are written to
``perfbench/traces/<workload>-seed<seed>.json`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (checks of the library's outputs) and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Checks, NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / "perfbench" / "traces"

# How many times a run sets up (a fresh-interpreter import plus the
# workload's inputs); setup_s reports the median.
SETUPS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer time metric -> span names whose self times it adds up
LAYER_TIMES = {
    "criteria.check_B_s": ("criteria.check_B",),
    "criteria.check_C_s": ("criteria.check_C",),
    "criteria.check_D_s": ("criteria.check_D",),
    "criteria.phi_profile_s": ("criteria.phi_profile",),
    "criteria.phi_s": ("criteria.phi",),
    "product.evaluate_s": ("product.evaluate_product",),
    "product.log_modulus_s": ("product.log_modulus_via_counting",),
    "product.jensen_s": ("product.jensen_identity_check",),
    "counting.prereq_s": ("counting.lindelof_sums", "counting.growth_check",
                          "counting.angular_density"),
    "zero_model.load_s": ("zero_model.load_sequence",),
    "zero_model.dump_s": ("zero_model.dump_sequence", "zero_model.dump_sequence_json"),
    "zero_model.shift_s": ("zero_model.shift_origin",),
    "catalog.generate_s": ("catalog.build_generator", "catalog.integer_lattice"),
}
LAYER_COUNTS = (
    "criteria.grid_base_points",
    "criteria.grid_aug_points",
    "criteria.zero_points",
    "product.evaluate_calls",
    "product.zero_points",
    "product.circle_zero_nodes",
    "zero_model.records",
    "catalog.zeros",
)
LAYER_MAXIMA = ("criteria.phi_batch_err",)
PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_TIMES},
    **{name: "count" for name in LAYER_COUNTS},
    "criteria.phi_batch_err": "1",
    "product.point_p50_ms": "ms",
    "product.point_p90_ms": "ms",
    "bench.self_s": "s",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
}


def pin_threads() -> None:
    """One BLAS thread, set before numpy loads, so that the single caller
    is the only source of parallel work."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_library():
    """Import expozeros from this checkout's src/, or return None."""
    if not (SRC / "expozeros" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import expozeros

    if not Path(expozeros.__file__).resolve().is_relative_to(SRC.resolve()):
        return None
    return expozeros


def environment() -> dict:
    """What a result depends on besides the code; results from different
    environments are not compared."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def percentile(samples: list[float], q: int) -> float:
    """q-th percentile (q in 1..99), interpolating between samples."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced pass."""
    self_times = tracer.self_times()
    out = {name: sum(self_times.get(s, 0.0) for s in spans)
           for name, spans in LAYER_TIMES.items()}
    out.update({name: tracer.counts.get(name, 0) for name in LAYER_COUNTS})
    out.update({name: tracer.maxima.get(name, 0.0) for name in LAYER_MAXIMA})
    out["bench.self_s"] = sum(t for s, t in self_times.items() if s.startswith("bench."))
    return out


def module_shares(tracer: Tracer, wall: float) -> dict[str, float]:
    """Share of one traced pass spent in each module's spans (self time)."""
    shares: dict[str, float] = {}
    for name, t in tracer.self_times().items():
        module = name.split(".", 1)[0]
        shares[module] = shares.get(module, 0.0) + t / wall
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def fresh_import_seconds() -> float:
    """Time to import expozeros from SRC in a new interpreter, as a user
    pays it (the library's own process has imported it already)."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import expozeros; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def measure(workload, seed: int, seconds: float, trace: bool,
            import_seconds=fresh_import_seconds) -> dict:
    """Set up SETUPS times, then run passes while another one fits in
    `seconds` of pass time (at least one; a traced run alternates untraced
    and traced passes and makes at least one of each)."""
    setup_times = []
    digests = set()
    for _ in range(SETUPS):
        inputs = None  # drop the previous copy before building the next
        start = time.perf_counter()
        inputs = workload.setup(seed)
        setup_times.append(time.perf_counter() - start + import_seconds())
        digests.add(workload.digest(inputs))

    checks = Checks()
    checks.check(len(digests) == 1, f"seed {seed} gave {len(digests)} different inputs")
    untraced: list[float] = []
    traced: list[tuple[float, Tracer]] = []
    null = NullTracer()
    while True:
        tracer = Tracer() if trace and len(traced) < len(untraced) else null
        start = time.perf_counter()
        workload.run_pass(inputs, tracer, checks)
        wall = time.perf_counter() - start
        if tracer is null:
            untraced.append(wall)
        else:
            traced.append((wall, tracer))
        owed = trace and not traced
        if not owed and sum(untraced) + sum(w for w, _ in traced) + wall > seconds:
            break

    if trace:
        per_pass = [layer_metrics(t) for _, t in traced]
        # median_low keeps the exact counts integers
        metrics = {name: statistics.median_low(p[name] for p in per_pass)
                   for name in per_pass[0]}
        points = [1e3 * s.duration for _, t in traced for s in t.spans if s.name == "bench.point"]
        metrics["product.point_p50_ms"] = statistics.median(points) if points else 0.0
        metrics["product.point_p90_ms"] = percentile(points, 90) if points else 0.0
        traced_wall = statistics.median(w for w, _ in traced)
        metrics["trace.pass_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - statistics.median(untraced)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(untraced),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        units = END_TO_END_UNITS
    return {
        "result": {
            "correct": checks.failed == 0,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        },
        "inputs_sha256": digests.pop(),
        "pass_walls_s": {"untraced": untraced, "traced": [w for w, _ in traced]},
        "traced": traced,
    }


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    if import_library() is None:
        print(f"expozeros source not found under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    env = environment()
    out = measure(workload, args.seed, args.seconds, bool(args.trace))

    print("environment:", json.dumps(env))
    print("inputs_sha256:", out["inputs_sha256"])
    print("pass walls (s):", json.dumps(out["pass_walls_s"]))
    if args.trace:
        wall, tracer = out["traced"][0]
        shares = module_shares(tracer, wall)
        print("traced pass by module:",
              ", ".join(f"{m} {100 * s:.1f}%" for m, s in shares.items()))
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "environment": env,
            "inputs_sha256": out["inputs_sha256"],
            "passes": [{"wall_s": w, **t.to_dict()} for w, t in out["traced"]],
        }))
        print("spans written to", path.relative_to(ROOT))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
