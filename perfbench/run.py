"""quanthom benchmark runner.

    python3 perfbench/run.py --workload hopf-l3 --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all      # hopf-l3, scaling-sweeps, no-solve

Runs one workload (see workloads.py) as a closed loop, one operation at a
time, for about --seconds seconds (at least one operation), checks every
operation's outputs and prints the metrics by name and unit.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.

--trace 0 reports the end-to-end metrics:
  wall_s            median wall time of one operation
  peak_rss_mb       peak RSS of this process (getrusage RUSAGE_SELF)
  setup_s           imports plus workload construction, median of five
                    fresh interpreters
  int_distance_max  largest distance of an invariant from its nearest
                    integer, floored at the solver tolerance 1e-9 (below
                    it a distance is round-off that any reordering of a
                    sum moves); the linking oracle is a cross-check, not
                    an invariant, and is excluded
Failed operations are the JSON's `failed` out of `attempted`.

--trace 1 wraps the calls into each layer (tracing.py) and reports the
per-layer metrics, median over the run's operations; it fails when a span
expected on the workload recorded no call.

The BLAS pool is pinned to one thread before numpy is imported.  Spans,
results and the scaling reports compared between runs of the same seed
are written under .bench_out/ in the checkout.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
BASELINE = os.path.join(HERE, "baseline.json")

# spans that must record calls on each workload (trace completeness)
EXPECTED_SPANS = {
    "hopf-l3": ("cli", "registry.lookup", "geometry.mesh.build",
                "invariants.hardt_riviere", "geometry.forms.project",
                "hodge.d_inverse", "hodge.operator", "hodge.mass_matrix",
                "geometry.forms.wedge"),
    "scaling-sweeps": ("harness", "registry.lookup", "geometry.mesh.build",
                       "invariants.hardt_riviere", "geometry.forms.project",
                       "hodge.d_inverse", "hodge.operator",
                       "hodge.mass_matrix", "geometry.forms.wedge",
                       "seminorms.sobolev"),
    "no-solve": ("harness", "registry.lookup", "geometry.mesh.build",
                 "invariants.hardt_riviere", "geometry.forms.wedge",
                 "seminorms.sobolev", "seminorms.holder", "seminorms.bmo",
                 "seminorms.poisson", "linking", "linking.trace",
                 "linking.gauss"),
}

SETUP_SAMPLES = 5
INT_DISTANCE_FLOOR = 1e-9


def _import_package():
    """Import quanthom from this checkout's src/, never from elsewhere."""
    if not os.path.isdir(os.path.join(SRC, "quanthom")):
        raise SystemExit(f"error: no quanthom sources under {SRC}")
    sys.path.insert(0, SRC)
    import quanthom
    if not os.path.abspath(quanthom.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: quanthom imported from {quanthom.__file__}")
    import workloads
    return workloads


def _setup(workloads, name: str, seed: int, size: str):
    reports = os.path.join(OUT, "reports", _src_digest()[:16])
    os.makedirs(reports, exist_ok=True)
    return workloads.WORKLOADS[name](seed, workloads.SIZES[size], reports)


def _src_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------

def _blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded into this process."""
    import ctypes
    out = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh}
    except OSError:
        return out
    libs = sorted(p for p in paths
                  if "openblas" in os.path.basename(p) and ".so" in p)
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[os.path.basename(lib)] = fn()
                break
    return out


def provenance() -> dict:
    import numpy as np
    import scipy
    commit = None
    try:
        # the ceiling keeps git from searching directories above the checkout
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10, env={**os.environ,
                                              "GIT_CEILING_DIRECTORIES":
                                              os.path.dirname(ROOT)})
        lines = git.stdout.split()
        if git.returncode == 0 and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": _blas_threads(),
        "blas_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------

def _extra_setups(name: str, seed: int, size: str) -> list:
    """Setup times of fresh interpreters, one after another."""
    times = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--size", size, "--setup-only"],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup subprocess failed: {proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def _run_loop(workload, seconds: float, tracer=None):
    ops = []
    t_begin = time.perf_counter()
    while True:
        i = len(ops)
        if tracer is not None:
            tracer.start_op(i)
            overhead0 = tracer.overhead_s
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        rec = {"index": i}
        try:
            values, oracle, checks = workload.op()
            rec.update(values=values, oracle=oracle,
                       checks=[list(c) for c in checks],
                       failed=not all(ok for _, ok, _ in checks))
        except Exception:   # an operation that raises is a failed one
            rec.update(values={}, oracle={}, checks=[], failed=True,
                       error=traceback.format_exc())
            print(rec["error"], file=sys.stderr)
        t1 = time.perf_counter()
        rec["wall_s"] = t1 - t0
        rec["cpu_s"] = time.process_time() - cpu0
        if tracer is not None:
            rec["layers"], rec["calls"] = tracer.op_metrics(
                i, rec["cpu_s"], rec["wall_s"], tracer.overhead_s - overhead0)
        ops.append(rec)
        median_op = statistics.median(o["wall_s"] for o in ops)
        if t1 - t_begin + median_op > seconds:
            return ops


def _int_distance(v: float) -> float:
    return abs(v - round(v))


def _drift(name: str, size: str, ops: list) -> tuple:
    """Largest |value - seed-commit value| over the stored invariants."""
    if size != "full" or not os.path.exists(BASELINE):
        return None, 0
    with open(BASELINE) as fh:
        ref = json.load(fh)["invariants"].get(name, {})
    worst, n = 0.0, 0
    for op in ops:
        for key, v in op["values"].items():
            if key in ref:
                worst = max(worst, abs(v - float.fromhex(ref[key])))
                n += 1
    return worst, n


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def _run_all(names: list, args) -> int:
    """Every workload, each in a fresh interpreter, one after another."""
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            capture_output=True, text=True, timeout=900)
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        try:
            results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            results[name] = {"correct": False, "attempted": 0, "failed": 0,
                             "metrics": {}}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{m}": v for w, r in results.items()
                    for m, v in r["metrics"].items()}}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name, or all: each in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: self-test sizes")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    workloads = _import_package()
    if args.workload == "all":
        return _run_all(list(workloads.WORKLOADS), args)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = _setup(workloads, args.workload, args.seed, args.size)
    setup_main = time.perf_counter() - _T_START
    if args.setup_only:
        print(repr(setup_main))
        return 0
    setup_s = statistics.median(
        [setup_main] + _extra_setups(args.workload, args.seed, args.size))

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        with tracer.installed():
            ops = _run_loop(workload, args.seconds, tracer)
    else:
        ops = _run_loop(workload, args.seconds)

    attempted = len(ops)
    failed = sum(op["failed"] for op in ops)
    distances = [INT_DISTANCE_FLOOR] + [
        _int_distance(v) for op in ops for v in op["values"].values()
        if v == v]
    e2e = {
        "wall_s": (statistics.median(op["wall_s"] for op in ops), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
        "int_distance_max": (max(distances), "1"),
    }
    drift, n_drift = _drift(args.workload, args.size, ops)

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"trace {args.trace}  closed loop, 1 client")
    for name, (value, unit) in e2e.items():
        print(f"  {name:18s} {_fmt(value)} {unit}")
    print(f"  {'failed_ops':18s} {failed} ops of {attempted} attempted")
    if drift is not None:
        label = " (bitwise)" if drift == 0.0 and n_drift else ""
        print(f"  {'invariant_drift':18s} {_fmt(drift)}{label} over "
              f"{n_drift} values against the seed commit")
    for op in ops:
        for check, ok, detail in op["checks"]:
            if not ok:
                print(f"  FAILED op {op['index']}: {check} ({detail})")

    correct = failed == 0
    if args.trace:
        import tracing
        names = list(tracing.PER_LAYER)
        layers = {n: statistics.median(op["layers"][n] for op in ops)
                  for n in names}
        missing = [s for s in EXPECTED_SPANS[args.workload]
                   if any(op["calls"].get(s, 0) == 0 for op in ops)]
        if missing:
            correct = False
            print(f"  FAILED trace completeness: no calls recorded for "
                  f"{missing}")
        for n in names:
            print(f"  {n:34s} {_fmt(layers[n])} {tracing.PER_LAYER[n][0]}")
        metrics = {n: {"value": layers[n], "unit": tracing.PER_LAYER[n][0]}
                   for n in names}
    else:
        metrics = {n: {"value": v, "unit": u} for n, (v, u) in e2e.items()}

    prov = provenance()
    print("provenance " + json.dumps(prov, sort_keys=True))
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-"
                             f"trace{args.trace}-{args.size}")
    with open(stem + ".result.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "size": args.size, "trace": args.trace,
                   "seconds": args.seconds, "provenance": prov,
                   "metrics": metrics,
                   "end_to_end": {n: v for n, (v, _) in e2e.items()},
                   "invariant_drift": drift, "ops": ops},
                  fh, indent=1, sort_keys=True, default=str)
    if tracer is not None:
        with open(stem + ".spans.json", "w") as fh:
            json.dump(tracer.spans, fh)

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
