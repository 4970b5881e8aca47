"""Dependency rules: the package runs on NumPy alone, so scipy must never be
imported, and the closed-form modules and the oracle that checks them are
built independently: neither imports the other.  The benchmark under bench/
reaches into the package by name, so every name it uses must exist."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
BENCH = SRC.parent / "bench"

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
    """The oracle checks the closed forms, and the flow against
    balanced_flow_exact, so none of them may be built from it."""
    for name in ("spectrum.py", "canonical.py", "flow.py"):
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


def test_closed_form_modules_import_only_at_module_top():
    """canonical and spectrum state their dependencies up front: no import
    hides inside a function."""
    for name in ("canonical.py", "spectrum.py"):
        tree = ast.parse((SRC / "mfland" / name).read_text(encoding="utf-8"))
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                assert id(node) in top, f"{name}:{node.lineno} imports below module level"


def test_no_import_cycle_between_canonical_spectrum_and_orbit():
    """spectrum is built on canonical (the saddle rule lives there), and
    canonical on orbit (the group action), so neither may import back."""
    for name, banned in (("canonical.py", {"spectrum"}),
                         ("orbit.py", {"canonical", "spectrum"})):
        for line, names in _imports(name):
            used = {part for n in names for part in n.split(".")} & banned
            assert not used, f"{name}:{line} imports {sorted(used)}"


def test_only_canonical_spectrum_picks_a_closed_form_by_q():
    """The command line reaches the canonical spectra through
    spectrum.canonical_spectrum alone: cli.py names none of the builders
    that function picks among by q."""
    builders = {"spectrum_zero_family", "spectrum_full_rank_scaled", "spectrum_deficient_rank"}
    tree = ast.parse((SRC / "mfland" / "cli.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        names = ({a.name for a in node.names} if isinstance(node, (ast.Import, ast.ImportFrom))
                 else {node.id} if isinstance(node, ast.Name)
                 else {node.attr} if isinstance(node, ast.Attribute) else set())
        assert not names & builders, f"cli.py:{node.lineno} names {sorted(names & builders)}"


def _one_based_turns(name, source=None):
    """Every line of mfland/<name> (or of source) that adds 1 to a variable
    bound by a loop, a comprehension or a lambda, outside a subscript: the
    turn of a 0-based index into a 1-based one."""
    if source is None:
        source = (SRC / "mfland" / name).read_text(encoding="utf-8")
    tree = ast.parse(source)
    offsets = {id(n) for s in ast.walk(tree) if isinstance(s, ast.Subscript)
               for n in ast.walk(s.slice)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            targets = [node.target] if isinstance(node, ast.For) else [
                g.target for g in node.generators]
            bound = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, ast.Lambda):
            bound = {a.arg for a in node.args.args}
        else:
            continue
        for sub in ast.walk(node):
            if (isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Add)
                    and id(sub) not in offsets
                    and {type(sub.left), type(sub.right)} == {ast.Name, ast.Constant}):
                var, one = sorted((sub.left, sub.right), key=lambda x: type(x) is ast.Constant)
                if var.id in bound and one.value == 1:
                    yield f"{name}:{sub.lineno}"


def test_one_based_guard_flags_each_kind_of_turn():
    """The guard below fires on i + 1 over a comprehension's, a loop's or a
    lambda's variable, and passes other sums with 1 and index offsets."""
    for source in ("sel = tuple(i + 1 for i in cp.selection.indices)",
                   "sel = [1 + j for j in idx]",
                   "for i in idx:\n    out.append(i + 1)",
                   "f = lambda i: i + 1"):
        assert len(list(_one_based_turns("t.py", source=source))) == 1, source
    for source in ("p = defect + 1", "r = range(1, m + 1)", "n = [i + 2 for i in idx]",
                   "s = [A[c, c + 1:] for c in idx]",
                   "for i in idx:\n    n = k + 1"):
        assert not list(_one_based_turns("t.py", source=source)), source


def test_only_the_command_line_turns_indices_one_based():
    """Selections are 0-based in the library; cli.py turns them 1-based on
    the way out in one place (and back on the way in, by i - 1)."""
    for path in sorted((SRC / "mfland").glob("*.py")):
        turns = list(_one_based_turns(path.name))
        assert len(turns) == (path.name == "cli.py"), turns


def _bare_number(node):
    """Whether node is a nonzero numeric literal, signed or not."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    return (isinstance(node, ast.Constant) and type(node.value) in (int, float)
            and node.value != 0)


def _unit_floors(name, attrs=("tol_scale",), source=None):
    """Every line of mfland/<name> (or of source) that reads one of attrs,
    floors a quantity at max(1, .) or compares a call's result, such as
    np.linalg.norm(...), with a bare nonzero number, with what it does."""
    if source is None:
        source = (SRC / "mfland" / name).read_text(encoding="utf-8")
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in attrs:
            yield f"{name}:{node.lineno} reads {node.attr}"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "max" and node.args
                and isinstance(node.args[0], ast.Constant) and node.args[0].value == 1):
            yield f"{name}:{node.lineno} floors at max(1, .)"
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if (any(isinstance(x, ast.Call) for x in sides)
                    and any(_bare_number(x) for x in sides)):
                yield f"{name}:{node.lineno} compares a call with a bare number"


def test_unit_floor_guard_flags_each_kind_of_floor():
    """The guard below fires on what it is meant to catch, absolute bounds
    on a computed quantity among them, and passes a bound in units of
    sigma_1 and a comparison with 0."""
    flagged = {
        "tol = X.tol_scale": "reads tol_scale",
        "tol = max(1, s1)": "floors at max(1, .)",
        "if np.linalg.norm(self.C0) > 1e-12:\n    pass": "compares a call with a bare number",
        "ok = abs(f(x)) <= 1e-9": "compares a call with a bare number",
        "ok = -1 < float(x)": "compares a call with a bare number",
    }
    for source, what in flagged.items():
        assert [f.split(" ", 1)[1] for f in _unit_floors("t.py", source=source)] == [what]
    for source in ("if np.linalg.norm(C0) > 1e-12 * s1:\n    pass",
                   "ok = float(x) > 0", "ok = n > 1", "ok = len(a) == k"):
        assert not list(_unit_floors("t.py", source=source)), source


def test_closed_form_modules_have_no_unit_floor():
    """A check that depends on the units of X is a bug: canonical and
    spectrum never read X.tol_scale (max(1, ||X||_F)), floor a quantity at
    max(1, .) nor compare a computed quantity with a bare number, so every
    test they make is the same at every scale of X and along every orbit."""
    for name in ("canonical.py", "spectrum.py"):
        assert not list(_unit_floors(name))


def test_inertia_count_has_no_unit_floor():
    """Nor does orbit, where inertia_of counts: it reads neither X.sigma nor
    X.tol_scale and floors nothing at max(1, .), so its default zero floor
    stays a fraction of the largest equilibrated value, which has no unit."""
    assert not list(_unit_floors("orbit.py", ("sigma", "tol_scale")))


def test_only_what_is_built_is_capped_at_MAX_DENSE_DIM():
    """Guard only what is built: the oracle compares MAX_DENSE_DIM in
    dense_hessian, which builds the N x N matrix, and in _blocks, which
    builds the core, and nowhere else, so numeric_spectrum and
    block_spectrum answer at every N where their core fits."""
    tree = ast.parse((SRC / "mfland" / "oracle.py").read_text(encoding="utf-8"))

    def compared(node):
        """The line of every comparison with MAX_DENSE_DIM under node."""
        return {c.lineno for c in ast.walk(node) if isinstance(c, ast.Compare)
                and any(isinstance(x, ast.Name) and x.id == "MAX_DENSE_DIM"
                        for x in [c.left, *c.comparators])}

    guards = {fn.name: compared(fn) for fn in tree.body if isinstance(fn, ast.FunctionDef)
              and fn.name in ("dense_hessian", "_blocks")}
    assert len(guards) == 2 and all(guards.values()), guards
    stray = compared(tree) - set().union(*guards.values())
    assert not stray, f"oracle.py compares MAX_DENSE_DIM on lines {sorted(stray)}"


def _dotted(node):
    """"a.b.c" for a chain of attribute reads on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _constant(tree, name):
    """The literal value assigned to a module-level name."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value


def _mfland_imports(tree):
    """(line, dotted name imported, local name bound, dotted name it binds)
    for every import of mfland in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mfland":
            for a in node.names:
                name = f"{node.module}.{a.name}"
                yield node.lineno, name, a.asname or a.name, name
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "mfland":
                    bound = a.name if a.asname else "mfland"
                    yield node.lineno, a.name, a.asname or "mfland", bound


def _bench_trees():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in BENCH.glob("*.py")}


def _mfland_name(node, bound):
    """The dotted mfland name of node, a name or a chain of attribute reads
    on one that an mfland import bound (bound maps it to its dotted name),
    else None."""
    name = _dotted(node)
    if name and name.split(".")[0] in bound:
        head, _, rest = name.partition(".")
        return ".".join(filter(None, (bound[head], rest)))


def _bench_names():
    """(where, dotted name) for every mfland name bench/*.py reaches: what it
    imports from mfland, the attributes it reads on what those imports bind,
    and the spans it wraps or reads by name (spans.LAYERS and
    SPECTRUM_ENTRIES, and the <layer>.<function>.<metric> keys of
    worker.PER_LAYER, whose verify checks are worker.VERIFY_CHECKS)."""
    trees = _bench_trees()
    for stem, tree in sorted(trees.items()):
        bound = {}
        for line, name, local, dotted in _mfland_imports(tree):
            bound[local] = dotted
            yield f"{stem}:{line}", name
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and (name := _mfland_name(node, bound)):
                yield f"{stem}:{node.lineno}", name
    spans, worker = trees["spans"], trees["worker"]
    for layer in ast.literal_eval(_constant(spans, "LAYERS")):
        yield "spans.LAYERS", f"mfland.{layer}"
    for entry in ast.literal_eval(_constant(spans, "SPECTRUM_ENTRIES")):
        yield "spans.SPECTRUM_ENTRIES", f"mfland.spectrum.{entry}"
    for key in _constant(worker, "PER_LAYER").keys:
        if isinstance(key, ast.Constant) and key.value.count(".") == 2:
            yield "worker.PER_LAYER", "mfland." + key.value.rsplit(".", 1)[0]
    for check in ast.literal_eval(_constant(worker, "VERIFY_CHECKS")):
        yield "worker.VERIFY_CHECKS", f"mfland.verify.check_{check}"


def _bench_keywords():
    """(where, dotted name, keyword) for every keyword argument bench/*.py
    passes by name to an mfland function or class it reaches."""
    for stem, tree in sorted(_bench_trees().items()):
        bound = {local: dotted for *_, local, dotted in _mfland_imports(tree)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (name := _mfland_name(node.func, bound)):
                for kw in node.keywords:
                    if kw.arg is not None:  # None for a **mapping
                        yield f"{stem}:{node.lineno}", name, kw.arg


def _resolve(dotted):
    """The object at the attribute chain, importing submodules on the way;
    AttributeError where it does not resolve."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if not hasattr(obj, part):
            try:
                importlib.import_module(".".join(parts[:i]))
            except ImportError:
                pass
        obj = getattr(obj, part)
    return obj


def _resolves(dotted):
    try:
        _resolve(dotted)
    except AttributeError:
        return False
    return True


def test_every_mfland_name_the_benchmark_uses_exists():
    """A cut to the package surface must not break the benchmark, whose own
    tests are not part of this suite."""
    names = list(_bench_names())
    assert any(n == "mfland.canonical.build_canonical" for _, n in names)
    missing = sorted({f"{where}: {name}" for where, name in names
                      if not _resolves(name)})
    assert not missing, "bench/ uses names mfland lacks:\n" + "\n".join(missing)


def test_every_keyword_the_benchmark_passes_is_a_parameter():
    """Nor may a cut to an option: every keyword argument bench/*.py passes
    to an mfland function or class names one of its parameters."""
    calls = list(_bench_keywords())
    assert ("mfland.flow.integrate_flow", "t_max") in {(n, kw) for _, n, kw in calls}
    unknown = []
    for where, name, kw in calls:
        params = inspect.signature(_resolve(name)).parameters
        named = params.get(kw) is not None and params[kw].kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
        if not (named or any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values())):
            unknown.append(f"{where}: {name}({kw}=...)")
    assert not unknown, "bench/ passes keywords mfland lacks:\n" + "\n".join(sorted(unknown))
