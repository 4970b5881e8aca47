"""The mfland benchmark.

    python3 bench/run.py --workload {cli,spectrum,flow} --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout whose ``src/mfland`` is the code under
test.  Each workload is a closed loop with one client: the next op starts
when the previous one has returned.  A run is a fixed number of whole cycles
of ops, set by the workload and ``--seconds`` (``worker.untraced_cycles``),
so a seed gives the same ops, attempted and failed counts on every run.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` prints the per-layer metrics of a separate traced run.
Every op's output is checked, and a failed check counts as a failed op.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is a report with the sample
counts, the tail percentile, the environment and every failed op with its
reason.  ``correct`` is false when an op returned a wrong answer; an op that
refused with a typed error, exit code 2 or no convergence counts as failed
but not as wrong.

``setup_s`` is the median over SETUP_REPEATS fresh worker processes of the
time from process start to the end of set-up (imports, inputs, loading every
X, warm-up), each calibrated by the reference time of its own process.

Every timing metric is calibrated for machine speed.  After each op the
worker times a fixed piece of reference work that uses no mfland and
allocates nothing after its first call (``worker.reference_s``); a run's
times are multiplied by the workload's REFERENCE_NOMINAL_S / (median
reference time of the run), so they read as seconds on a machine where the
reference takes REFERENCE_NOMINAL_S.  Each
worker also times the reference right after its set-up, and its set-up time
is scaled by that.  The calibration assumes that the reference's time does
not depend on what mfland does.  On a shared 2-core host whose speed drifts
by up to 2.5x over minutes it cuts the run-to-run spread of the timing
metrics from about 0.25 to 0.2 or less.  The report line keeps the raw wall
times.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("cli", "spectrum", "flow")
SETUP_REPEATS = 5
DEADLINE_S = 170.0  # a run must end within 180 s
# Seconds the reference takes on the nominal machine; the spectrum workload's
# reference does more work (``worker.MEMORY_REFERENCE``).
REFERENCE_NOMINAL_S = {"cli": 0.005, "spectrum": 0.0135, "flow": 0.005}

UNITS = {"ops_per_s": "1/s", "latency_p50_s": "s", "latency_tail_s": "s",
         "peak_rss_mb": "MB", "ok_ratio": "1", "setup_s": "s"}


def spawn(args, workdir, setup_only, deadline):
    """Start a worker; return (seconds until it printed ``ready``, its result)."""
    argv = [sys.executable, str(BENCH_DIR / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", workdir]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ)
    env.pop("MFLAND_THREADS", None)
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or code != 0:
        raise RuntimeError(f"worker exited with {code} before finishing")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def blas_info():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name, version = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, AttributeError):
        name = version = None
    return {"blas": name, "blas_version": version, "blas_threads": blas_threads()}


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if it says."""
    import ctypes
    import glob

    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None
    return {"seed": seed, "nproc": os.cpu_count(), "python": platform.python_version(),
            "executable": sys.executable, "numpy": version("numpy"),
            "scipy": version("scipy"), **blas_info()}


def calibrated_setup_s(setups, nominal):
    """Median set-up time, each scaled by its own process's reference time."""
    return statistics.median(s * nominal / r["setup_reference_s"] for s, r in setups)


def end_to_end(result, setups, nominal):
    speed = nominal / result["reference_s"]
    metrics = {
        "ops_per_s": result["ops_per_s"] / speed,
        "latency_p50_s": result["latency_p50_s"] * speed,
        "latency_tail_s": result["latency_tail_s"] * speed,
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_ratio": result["passed"] / result["samples"],
        "setup_s": calibrated_setup_s(setups, nominal),
    }
    return {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "mfland" / "__init__.py").is_file():
        print(f"error: no mfland package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(spawn(args, workdir, True, deadline))
        setups.append(spawn(args, workdir, False, deadline))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = setups[-1][1]

    if args.trace:
        metrics = result.pop("metrics")
    else:
        metrics = end_to_end(result, setups, REFERENCE_NOMINAL_S[args.workload])
    n = result["samples"]
    failed = result["errors"] + result["wrong"]
    report = {
        "workload": args.workload, "trace": args.trace,
        "samples": n, "cycles": result["cycles"],
        "cut_short": result["cycles"] < result.get("planned_cycles", result["cycles"]),
        "timed_s": result["timed_s"],
        "latency_tail_percentile": result["latency_tail_percentile"],
        "latency_tail_beyond": result["latency_tail_beyond"],
        "attempted": n, "failed": failed, "failed_ratio": failed / n,
        "wrong": result["wrong"],
        "setup_samples": len(setups),
        "raw": {"setup_s": statistics.median(s for s, _ in setups),
                "setup_reference_s": statistics.median(r["setup_reference_s"]
                                                       for _, r in setups),
                **{k: result.get(k) for k in ("ops_per_s", "latency_p50_s",
                                               "latency_tail_s", "reference_s")}},
        "op_p50_s": result["op_p50_s"],
        "metrics": metrics,
        "environment": environment(args.seed),
        "failures": result["failures"],
    }
    print(json.dumps(report))
    print(json.dumps({"correct": result["wrong"] == 0, "attempted": n,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
