"""Byte-identity guard: stdout and exit code of fourteen CLI commands.

Eleven commands and their seed-1 inputs are those of the benchmark's cli
workload.  The twelfth runs the verify battery on the tied T.csv, a
non-default X.  The thirteenth runs an imbalanced flow and also compares
every sample of the trajectory CSV it writes.  The fourteenth prints the
saddle bound beta of A.csv at k = 2.  A refactor that keeps the
CLI's behaviour keeps these bytes; a deliberate contract change
regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says so in CHANGES.md.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from mfland.cli import main

GOLDEN = Path(__file__).parent / "golden"
SEED = 1
COMMANDS = {
    "spectrum-full-rank": "spectrum --x A.csv --k 2 --select 1,3",
    "spectrum-deficient-c0": "spectrum --x D.csv --k 2 --select 1 --c0 C0.csv",
    "spectrum-zero": "spectrum --x A.csv --k 2",
    "spectrum-balanced": "spectrum --x A.csv --k 2 --select 1,3 --balanced",
    "spectrum-csv": "spectrum --x A.csv --k 1 --select 2 --format csv",
    "classify": "classify --x A.csv --k 2 --select 1,3",
    "orbit-a": "orbit --x A.csv --k 2 --select 1,3 --a G.csv",
    "orbit-scale": "orbit --x A.csv --k 1 --select 2 --scale 2.0",
    "flow-generic": "flow --x A.csv --k 2 --seed {seed}",
    "flow-tied": "flow --x T.csv --k 1 --seed {seed}",
    "verify": "verify --seed {seed}",
    "verify-tied": "verify --x T.csv --seed {seed}",
    "flow-random-trajectory":
        "flow --x A.csv --k 2 --seed {seed} --init random --trajectory traj.csv",
    "bound": "bound --x A.csv --k 2",
}
# Commands whose output file is compared too, as golden/<name>.csv.
OUTPUT_FILES = {"flow-random-trajectory": "traj.csv"}


def write_inputs(directory):
    """The input CSVs, drawn in the same order from default_rng([SEED, 4, 6])."""
    rng = np.random.default_rng([SEED, 4, 6])
    files = {
        "A.csv": rng.standard_normal((4, 6)),
        "D.csv": rng.standard_normal((4, 2)) @ rng.standard_normal((2, 6)),
        "C0.csv": rng.standard_normal((4, 1)),
        "G.csv": np.eye(2) + 0.3 * rng.standard_normal((2, 2)),
        "T.csv": np.diag([2.0, 2.0, 1.0]) @ np.eye(3, 4),
    }
    for name, arr in files.items():
        lines = (",".join(format(x, ".17g") for x in row) for row in np.atleast_2d(arr))
        (Path(directory) / name).write_text("".join(line + "\n" for line in lines))


def run(name):
    """Exit code and stdout of one command, run in the current directory."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(COMMANDS[name].format(seed=SEED).split())
    return code, out.getvalue()


@pytest.mark.parametrize("name", list(COMMANDS))
def test_cli_bytes_match_golden(name, tmp_path, monkeypatch):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, out = run(name)
    exit_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == exit_codes[name]
    assert out == (GOLDEN / f"{name}.out").read_text()
    if name in OUTPUT_FILES:
        written = (tmp_path / OUTPUT_FILES[name]).read_bytes()
        assert written == (GOLDEN / f"{name}.csv").read_bytes()


if __name__ == "__main__":
    import os
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(tmp)
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for name in COMMANDS:
                codes[name], out = run(name)
                (GOLDEN / f"{name}.out").write_text(out)
                if name in OUTPUT_FILES:
                    (GOLDEN / f"{name}.csv").write_bytes(
                        Path(OUTPUT_FILES[name]).read_bytes()
                    )
        finally:
            os.chdir(cwd)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")
