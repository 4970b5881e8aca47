"""Dependency rules: the package runs on NumPy alone, so scipy must never be
imported, and the closed-form modules and the oracle that checks them are
built independently: neither imports the other."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import contextlib, io, json, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"import of {name} refused")
        return None

sys.meta_path.insert(0, RefuseScipy())

import numpy as np
import mfland, mfland.cli
from mfland import classify_limit, integrate_flow, load_data_matrix, random_balanced_pair

out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = mfland.cli.main(["verify", "--seed", "0"])
assert code == 0 and json.loads(out.getvalue())["all_passed"] is True

X = load_data_matrix(np.diag([2.0, 1.0]) @ np.eye(2, 3))
traj = integrate_flow(X, random_balanced_pair(X, 1, seed=0))
assert traj.status == "Converged"
assert classify_limit(X, traj).kind == "GlobalMinimum"

assert "scipy" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)
print("ok")
"""


def test_runs_without_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def _imports(name):
    """(line, dotted names) of every import statement in mfland/<name>."""
    tree = ast.parse((SRC / "mfland" / name).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield node.lineno, [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            yield node.lineno, [a.name for a in node.names]


def test_closed_form_modules_do_not_import_the_oracle():
    """The oracle checks the closed forms, so they must not be built from it."""
    for name in ("spectrum.py", "canonical.py"):
        for line, names in _imports(name):
            assert not any(part == "oracle" for n in names for part in n.split(".")), (
                f"{name}:{line} imports the oracle"
            )


def test_oracle_imports_only_calculus_errors_and_model():
    """Nor is the oracle built from the closed forms: of the package it uses
    only the derivatives, the errors and the model, never spectrum,
    canonical, orbit or flow."""
    modules = {p.stem for p in (SRC / "mfland").glob("*.py")}
    allowed = {"calculus", "errors", "model"}
    seen = set()
    for line, names in _imports("oracle.py"):
        used = {part for n in names for part in n.split(".")} & modules
        assert used <= allowed, f"oracle.py:{line} imports {sorted(used - allowed)}"
        seen |= used
    assert "calculus" in seen  # the scan reads the oracle's imports at all
