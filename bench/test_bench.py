"""Tests of the benchmark itself:  python3 -m pytest bench -q

They check that the count metrics repeat exactly for a seed, that the output
checks reject corrupted output, that BENCHMARK.json names what the code
prints, and that the benchmark refuses to run without the package.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed, NoResult  # noqa: E402

COUNT_SUFFIXES = (".calls", ".failed", ".steps", ".eigpairs", ".eigvec_bytes",
                  ".bytes_computed")


def bench(workload, seed, trace, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_exactly_for_a_seed(workload):
    counts = []
    for _ in range(2):
        proc = bench(workload, 3, trace=1)
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        assert set(metrics) == set(worker.PER_LAYER)
        counts.append({k: v["value"] for k, v in metrics.items()
                       if k.endswith(COUNT_SUFFIXES)})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_untraced_run_prints_every_end_to_end_metric():
    proc = bench("flow", 5, trace=0)
    assert proc.returncode == 0, proc.stderr
    report, last = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in last["metrics"].values())
    # The tied and rank-deficient flows fail today; their reasons are listed.
    assert last["failed"] == len(report["failures"]) > 0
    assert all(f["reason"] for f in report["failures"])


def test_untraced_counts_repeat_exactly_for_a_seed():
    runs = []
    for _ in range(2):
        proc = bench("flow", 7, trace=0)
        assert proc.returncode == 0, proc.stderr
        report, last = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
        runs.append((last["attempted"], last["failed"], report["failures"]))
    assert runs[0] == runs[1]


def test_a_run_is_a_fixed_number_of_cycles():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in run.WORKLOADS:
        cycles = worker.untraced_cycles(name, spec["run_seconds"])
        assert cycles * worker.CYCLE_S[name] <= 1.1 * spec["run_seconds"]
        assert int(worker.TAIL_OPS_BEYOND[name] * cycles) >= 10
        assert worker.untraced_cycles(name, 1) == 1


def test_benchmark_json_names_what_the_code_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == worker.PER_LAYER
    from mfland.verify import ALL_CHECKS
    assert tuple(name for name, _ in ALL_CHECKS) == worker.VERIFY_CHECKS


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("spectrum", 1, trace=0, cwd=tmp_path,
                 script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def _spectrum_case():
    from mfland import Selection, load_data_matrix, spectrum_full_rank_scaled
    X = load_data_matrix(np.random.default_rng(0).standard_normal((6, 9)))
    return X, spectrum_full_rank_scaled(X, Selection((0, 2)), a=1.5)


def test_spectrum_check_accepts_the_closed_form():
    X, rep = _spectrum_case()
    workloads.SpectrumChecker().check_report(X, rep, np.random.default_rng(0))


@pytest.mark.parametrize("where", [0, -1])
def test_spectrum_check_rejects_a_corrupted_eigenvalue(where):
    X, rep = _spectrum_case()
    pairs = list(rep.eigpairs)
    shift = 1e-6 * X.sigma[0] ** 2
    pairs[where] = dataclasses.replace(pairs[where], value=pairs[where].value + shift)
    bad = dataclasses.replace(rep, eigpairs=tuple(pairs))
    with pytest.raises(CheckFailed):
        workloads.SpectrumChecker().check_report(X, bad, np.random.default_rng(0))


def test_spectrum_check_rejects_a_missing_eigenpair():
    X, rep = _spectrum_case()
    bad = dataclasses.replace(rep, eigpairs=rep.eigpairs[1:])
    with pytest.raises(CheckFailed, match="count"):
        workloads.SpectrumChecker().check_report(X, bad, np.random.default_rng(0))


def test_cli_checks_reject_corrupted_stdout(tmp_path):
    work = workloads.CliWorkload(0, tmp_path)
    work.load()
    ops = {op.name: op for op in work.ops}
    good = ops["spectrum full-rank"].run()
    ops["spectrum full-rank"].check(good)  # the first run sets the reference
    ops["spectrum full-rank"].check(good)

    def altered(stdout=good.stdout, returncode=0, stderr=b""):
        return subprocess.CompletedProcess(good.args, returncode, stdout, stderr)

    flipped = good.stdout.replace(b"1", b"2", 1)
    with pytest.raises(CheckFailed, match="differs"):
        ops["spectrum full-rank"].check(altered(flipped))
    with pytest.raises(CheckFailed, match="JSON"):
        ops["classify"].check(altered(b"{not json"))
    with pytest.raises(CheckFailed, match="count"):
        doc = json.loads(good.stdout)
        doc["count"] -= 1
        ops["spectrum zero"].check(altered(json.dumps(doc).encode()))
    with pytest.raises(CheckFailed, match="exit 1"):
        ops["verify"].check(altered(returncode=1))
    with pytest.raises(NoResult, match="exit 2"):
        ops["flow tied"].check(altered(b"", 2, b"error: residual\n"))


def test_import_time_counts_outermost_imports_of_a_package():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     numpy._core",
        "import time:        20 |         30 |   numpy",
        "import time:         5 |          5 |     scipy._lib",
        "import time:         7 |         12 |   scipy",
        "import time:         9 |          9 |     numpy.testing",
        "import time:        40 |         49 |   scipy.linalg",
        "import time:       100 |        191 | mfland",
    ])
    times = {pkg: worker._import_cumulative_s(stderr, pkg, exclude)
             for pkg, exclude in (("numpy", ("scipy",)), ("scipy", ("numpy",)),
                                  ("mfland", ()))}
    # numpy.testing is imported from inside scipy, so it counts for scipy only.
    assert times["numpy"] == pytest.approx(30e-6)
    assert times["scipy"] == pytest.approx(61e-6)
    assert times["mfland"] == pytest.approx(191e-6)
    assert times["numpy"] + times["scipy"] <= times["mfland"]


def test_tail_is_read_at_a_fixed_share_of_every_cycle():
    def tail(cycles):
        records = [worker.Record(f"op{i}", c, float(i), "ok")
                   for c in range(cycles) for i in range(11)]
        return worker.summarize(records, cycles, 2.5)

    # Two ops of each cycle of 11 are slower than op8; the tail stays in
    # op8's block however many cycles ran.
    for cycles in (4, 5, 9, 40):
        out = tail(cycles)
        assert out["latency_tail_s"] == 8.0
        assert out["latency_tail_beyond"] == int(2.5 * cycles)
