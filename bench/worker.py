"""One workload process: set up, print ``ready``, run whole cycles, print a result.

Started by ``run.py``; not meant to be run by hand.  Right after set-up it
times the reference work (``reference_s``), so that run.py can scale set-up
time by a reference from the same process; with ``--setup-only`` it stops
there.  The untraced mode runs a fixed number of cycles, ``untraced_cycles``,
which depends only on the workload and ``--seconds``, and reports the
end-to-end metrics.  So a seed gives the same ops, and the same attempted and
failed counts, on every run, however fast the machine or the code is.  The
traced mode runs a fixed number of cycles untraced, then the same cycles
traced, so that every count repeats
exactly for a given seed, and reports the per-layer metrics and the tracing
overhead (traced over untraced ops per second).  The spectrum workload adds
a pass under tracemalloc first.
"""

import argparse
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from workloads import CheckFailed, NoResult  # noqa: E402

# Cycles of the traced mode; each pass takes a few seconds on 2 cores.
TRACE_CYCLES = {"cli": 1, "spectrum": 1, "flow": 2}

# Seconds one untraced cycle took at the first recorded commit, on the 2-core
# host whose environment bench/baseline.json records, at the slow end of its
# speed swings.  The untraced mode runs round(seconds / CYCLE_S) cycles, so
# that a run lasts at most about ``--seconds`` there; a faster commit ends
# sooner and a slower one later.
CYCLE_S = {"cli": 7.5, "spectrum": 3.3, "flow": 4.2}
# No new cycle starts once the run is projected past this many ``--seconds``,
# so that a very slow spell of the host cannot push a run past its deadline.
# The report says when that cut a run short.
MAX_STRETCH = 2.5

# The tail leaves this many ops of every cycle beyond it, so it is read at the
# same percentile on every commit, also when a run is cut short.  The half op
# puts it in the middle of one op kind's block when the kinds keep their
# order.  A run of at least 4 cli cycles or 7 spectrum or flow cycles has 10
# or more samples beyond it, as every 30-second run has; the report gives the
# count.
TAIL_OPS_BEYOND = {"cli": 2.5, "spectrum": 1.5, "flow": 1.5}
SETUP_REFERENCE_REPEATS = 9

VERIFY_CHECKS = (
    "svd_conventions", "finite_differences", "hessian_symmetry",
    "families_critical", "degenerate_directions", "spectra_match_oracle",
    "eigpair_quality", "lambda_min_formulas", "orbit_identities",
    "congruence_inertia", "lambda_min_bound", "balanced_set",
    "scaling_trichotomy", "flow_conservation",
)

# name -> unit.  Spans are named <layer>.<function>; see spans.py.
PER_LAYER = {
    "cli.main.self_s": "s",
    "cli.interpreter_s": "s",
    "cli.import_numpy_s": "s",
    "cli.import_scipy_s": "s",
    "cli.import_mfland_s": "s",
    "model.load_data_matrix.calls": "count",
    "model.load_data_matrix.self_s": "s",
    "model.read_matrix_csv.self_s": "s",
    "calculus.gradient.calls": "count",
    "calculus.gradient.self_s": "s",
    "calculus.hessian_apply.calls": "count",
    "calculus.hessian_apply.self_s": "s",
    "canonical.build_canonical.self_s": "s",
    "canonical.classify_canonical.self_s": "s",
    "canonical.reduce_to_canonical.calls": "count",
    "canonical.reduce_to_canonical.self_s": "s",
    "canonical.reduce_to_canonical.failed": "count",
    "spectrum.spectrum_full_rank_scaled.self_s": "s",
    "spectrum.spectrum_deficient_rank.self_s": "s",
    "spectrum.spectrum_zero_family.self_s": "s",
    "spectrum.spectrum_balanced.self_s": "s",
    "spectrum.lambda_min_closed_form.self_s": "s",
    "spectrum.eigpairs": "count",
    "spectrum.eigvec_bytes": "B",
    "spectrum.peak_alloc_mb": "MB",
    "oracle.dense_hessian.calls": "count",
    "oracle.dense_hessian.self_s": "s",
    "oracle.dense_hessian.bytes_computed": "B",
    "oracle.numeric_spectrum.self_s": "s",
    "oracle.fd_validate.self_s": "s",
    "orbit.apply_group_action.self_s": "s",
    "orbit.inertia_of.self_s": "s",
    "flow.integrate_flow.calls": "count",
    "flow.integrate_flow.self_s": "s",
    "flow.steps": "count",
    "flow.s_per_step": "s",
    "flow.classify_limit.self_s": "s",
    **{f"verify.{name}.self_s": "s" for name in VERIFY_CHECKS},
    "verify.run_all.self_s": "s",
    "trace_overhead_ratio": "1",
}


class Record:
    __slots__ = ("op", "cycle", "wall", "kind", "reason")

    def __init__(self, op, cycle, wall, kind, reason=None):
        self.op, self.cycle, self.wall, self.kind, self.reason = op, cycle, wall, kind, reason


def run_op(op, c, refusals):
    t0 = time.perf_counter()
    try:
        out = op.run()
    except refusals as exc:
        return Record(op.name, c, time.perf_counter() - t0, "error",
                      f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # an untyped crash is a wrong answer, not a refusal
        return Record(op.name, c, time.perf_counter() - t0, "wrong",
                      f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - t0
    try:
        op.check(out)
    except NoResult as exc:
        return Record(op.name, c, wall, "error", str(exc))
    except CheckFailed as exc:
        return Record(op.name, c, wall, "wrong", str(exc))
    except Exception as exc:  # output too malformed to check, e.g. a missing key
        return Record(op.name, c, wall, "wrong", f"{type(exc).__name__}: {exc}")
    return Record(op.name, c, wall, "ok")


_REF_SMALL = np.random.default_rng(0).standard_normal((20, 30))
_REF_PRODUCT = np.empty((20, 20))
_REF_BIG = np.ones(1 << 18)
_REF_BIG_OUT = np.empty(1 << 18)


# The spectrum ops fill dense N^2 arrays (up to 200 MB), far more than L2
# holds, so their speed also follows memory bandwidth and the L3 use of other
# tenants, which the work above hardly sees.  Their reference adds a pass over
# and random reads from a 32 MB array.  Over 8 seeds on a shared 2-core host
# this cut the spectrum spreads of ops_per_s, p50 and tail from
# 0.080/0.137/0.125 to 0.046/0.108/0.108; on flow it widened them, so flow and
# cli go without.
MEMORY_REFERENCE = {"spectrum"}
_REF_MEMORY = []  # [array, indices, gathered], allocated on first use


def reference_s(memory=False):
    """Wall time of fixed work that uses no mfland: interpreted Python, small
    matrix products and passes over 2 MB arrays, as the workloads mix them,
    and with ``memory`` the 32 MB passes.  Its arrays are allocated once, so
    its time does not depend on what the ops before it left on the heap; one
    untimed pass brings the small ones into cache."""
    if memory and not _REF_MEMORY:
        _REF_MEMORY.extend((np.ones(1 << 22),
                            np.random.default_rng(0).integers(0, 1 << 22, 1 << 18),
                            np.empty(1 << 18)))
    np.multiply(_REF_BIG, 1.0, out=_REF_BIG_OUT)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(25000):
        acc += i * i % 7
    for _ in range(250):
        np.matmul(_REF_SMALL, _REF_SMALL.T, out=_REF_PRODUCT)
        acc += float(_REF_PRODUCT[0, 0])
    for _ in range(10):
        np.multiply(_REF_BIG, 1.0, out=_REF_BIG_OUT)
        acc += float(_REF_BIG_OUT.sum())
    if memory:
        big, idx, gathered = _REF_MEMORY
        np.multiply(big, 1.0, out=big)
        np.take(big, idx, out=gathered)
    return time.perf_counter() - t0


def untraced_cycles(workload, seconds):
    return max(1, round(seconds / CYCLE_S[workload]))


def run_cycles(work, cycles, limit_s=None, tracer=None, refs=None):
    """``cycles`` whole cycles; with ``limit_s``, fewer if the next cycle is
    projected, from the mean length of those run so far, to end after it.
    With ``refs``, the reference work is timed after every op, outside the
    op's time."""
    records = []
    t_start = time.perf_counter()
    c = 0

    def more():
        if c >= cycles:
            return False
        if limit_s is None or c == 0:
            return True
        return (time.perf_counter() - t_start) * (c + 1) / c <= limit_s

    while more():
        for op in work.cycle(c):
            if tracer is not None:
                tracer.op = len(records)
            records.append(run_op(op, c, work.refusals))
            if refs is not None:
                refs.append(reference_s(work.name in MEMORY_REFERENCE))
        c += 1
    return records, c


def summarize(records, cycles, tail_ops_beyond):
    lat = sorted(r.wall for r in records)
    n = len(lat)
    passed = sum(r.kind == "ok" for r in records)
    beyond = min(n - 1, math.floor(tail_ops_beyond * cycles))
    tail_idx = n - 1 - beyond
    return {
        "samples": n,
        "cycles": cycles,
        "passed": passed,
        "errors": sum(r.kind == "error" for r in records),
        "wrong": sum(r.kind == "wrong" for r in records),
        "timed_s": sum(lat),
        "ops_per_s": passed / sum(lat),
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": lat[tail_idx],
        "latency_tail_percentile": 100.0 * (tail_idx + 1) / n,
        "latency_tail_beyond": beyond,
        "op_p50_s": {op: statistics.median(r.wall for r in records if r.op == op)
                     for op in dict.fromkeys(r.op for r in records)},
        "failures": [{"op": r.op, "cycle": r.cycle, "kind": r.kind, "reason": r.reason}
                     for r in records if r.kind != "ok"],
    }


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


# ------------------------------------------------------------ traced -----

def _import_cumulative_s(stderr, package, exclude=()):
    """Cumulative -X importtime of the outermost imports inside ``package``,
    leaving out those made from inside a package in ``exclude``."""
    entries = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)", line)
        if m:
            entries.append((len(m.group(3)) - 1, m.group(4), int(m.group(2))))
    total, stack = 0, []
    # importtime lists children before parents; reversed, parents come first.
    for depth, name, cum in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if _inside(name, (package,)) and not any(
                _inside(n, (package, *exclude)) for _, n in stack):
            total += cum
        stack.append((depth, name))
    return total * 1e-6


def _inside(name, packages):
    return any(name == p or name.startswith(p + ".") for p in packages)


def cli_startup(env, repeats=3):
    def wall(argv):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        return time.perf_counter() - t0, proc.stderr

    interp = statistics.median(wall([sys.executable, "-c", "pass"])[0]
                               for _ in range(repeats))
    runs = [wall([sys.executable, "-X", "importtime", "-c", "import mfland.cli"])[1]
            for _ in range(repeats)]
    # numpy and scipy each count only what is not imported from inside the
    # other, so that the two add up to no more than mfland's total.
    out = {"cli.interpreter_s": interp}
    for pkg, exclude in (("numpy", ("scipy",)), ("scipy", ("numpy",)), ("mfland", ())):
        out[f"cli.import_{pkg}_s"] = statistics.median(
            _import_cumulative_s(err, pkg, exclude) for err in runs)
    return out


def per_layer(tracer, startup, peak_alloc_b, overhead):
    rows = tracer.summary()

    def span(name, field):
        return rows.get(name, {"calls": 0, "self_s": 0.0, "failed": 0})[field]

    steps = tracer.counts.get("flow.steps", 0)
    values = {
        **startup,
        "spectrum.peak_alloc_mb": peak_alloc_b / 2**20,
        "flow.s_per_step": span("flow.integrate_flow", "self_s") / steps if steps else 0.0,
        "trace_overhead_ratio": overhead,
    }
    for metric in PER_LAYER:
        name, _, field = metric.rpartition(".")
        if metric in values:
            continue
        if field in ("calls", "self_s", "failed"):
            if name.startswith("verify.") and name != "verify.run_all":
                name = "verify.check_" + name.split(".")[1]  # ALL_CHECKS name -> function
            values[metric] = span(name, field)
        else:
            values[metric] = tracer.counts.get(metric, 0)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def run_traced(work, name):
    import spans
    cycles = TRACE_CYCLES[name]
    peak_alloc = 0
    if name == "spectrum":  # its own pass: tracemalloc slows every allocation
        tracemalloc.start()
        run_cycles(work, cycles)
        peak_alloc = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    plain, _ = run_cycles(work, cycles)
    tracer = spans.Tracer()
    if name == "cli":
        work.trace_into(tracer)
    else:
        tracer.install()
        work.load()  # so that set-up's load_data_matrix calls are traced too
    traced, _ = run_cycles(work, cycles, tracer=tracer)
    tail = TAIL_OPS_BEYOND[name]
    base, summ = summarize(plain, cycles, tail), summarize(traced, cycles, tail)
    overhead = summ["ops_per_s"] / base["ops_per_s"] if base["ops_per_s"] else 0.0
    env = dict(os.environ, PYTHONPATH=str(workloads.SRC))
    metrics = per_layer(tracer, cli_startup(env), peak_alloc, overhead)
    out_dir = workloads.ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{name}.json")
    summ["metrics"] = metrics
    return summ


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    cls = workloads.WORKLOADS[args.workload]
    work = cls(args.seed, args.workdir) if args.workload == "cli" else cls(args.seed)
    work.load()
    work.warm_up()
    print("ready", flush=True)
    setup_reference_s = statistics.median(
        reference_s(args.workload in MEMORY_REFERENCE)
        for _ in range(SETUP_REFERENCE_REPEATS))
    if args.setup_only:
        result = {}
    elif args.trace:
        result = run_traced(work, args.workload)
    else:
        refs = []
        planned = untraced_cycles(args.workload, args.seconds)
        records, cycles = run_cycles(work, planned, limit_s=MAX_STRETCH * args.seconds,
                                     refs=refs)
        result = summarize(records, cycles, TAIL_OPS_BEYOND[args.workload])
        result["planned_cycles"] = planned
        result["peak_rss_mb"] = peak_rss_mb(args.workload)
        result["reference_s"] = statistics.median(refs)
    result["setup_reference_s"] = setup_reference_s
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
