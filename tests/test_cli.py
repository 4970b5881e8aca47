import json
import shlex
import warnings

import numpy as np
import pytest

from mfland import (InvalidInput, Selection, flow, load_data_matrix, spectrum_full_rank_scaled,
                    uniform_saddle_bound, write_matrix_csv)
from mfland import NumericalFailure, cli
from mfland.cli import main
from exact_hessian import hadamard_x
from matrix_kinds import X21, X321, matrix_of_kind

X46 = np.random.default_rng(0).standard_normal((4, 6))
# The matrices the CLI tests read, by the name that stands for their CSV path.
INPUTS = {"x": X21.X, "x46": X46, "x35": np.random.default_rng(0).standard_normal((3, 5)),
          "huge": 1e200 * X46, "tiny": 1e-150 * X321.X,
          "tiny_row": np.array([[1e-150, 0.0]]), "c0": 1.0, "c0nan": np.nan,
          "rank2": matrix_of_kind("rank-deficient", np.random.default_rng(0))}


@pytest.fixture()
def paths(tmp_path):
    """INPUTS written as CSV, and "missing": a path in a directory that does not exist."""
    out = {"missing": str(tmp_path / "missing" / "out.txt")}
    for name, M in INPUTS.items():
        out[name] = str(tmp_path / f"{name}.csv")
        write_matrix_csv(out[name], M)
    return out


@pytest.fixture()
def x_csv(paths):
    return paths["x"]


@pytest.fixture()
def x46_csv(paths):
    return paths["x46"]


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spectrum_json(capsys, x_csv):
    code, out, _ = _run(capsys, "spectrum", "--x", x_csv, "--k", "1", "--select", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["count"] == 1 * (2 + 3)
    assert doc["eigenvalues"] == [-1, 0, 1, 2, 3]
    assert doc["inertia"] == [3, 1, 1]
    assert doc["lambda_min"] == -1


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_bound_prints_beta_and_its_term_one_based(capsys, x46_csv, k):
    """bound prints uniform_saddle_bound's beta exactly and its term in
    1-based indices."""
    code, out, _ = _run(capsys, "bound", "--x", x46_csv, "--k", str(k))
    assert code == 0
    doc = json.loads(out)
    X = load_data_matrix(X46)
    beta, term = uniform_saddle_bound(X, k)
    assert (doc["command"], doc["k"], doc["r"]) == ("bound", k, X.r)
    assert doc["beta"] == beta and doc["term"] == [i + 1 for i in term]


def test_spectrum_floats_round_trip_exactly(capsys, x_csv):
    code, out, _ = _run(
        capsys, "spectrum", "--x", x_csv, "--k", "1", "--select", "2", "--scale", "2"
    )
    assert code == 0
    doc = json.loads(out)
    rep = spectrum_full_rank_scaled(X21, Selection((1,)), a=2.0)
    assert doc["lambda_min"] == rep.lambda_min  # exact, not approximate
    assert doc["eigenvalues"] == sorted(float(v) for v in rep.values)


def test_spectrum_csv_format(capsys, x_csv):
    code, out, _ = _run(
        capsys, "spectrum", "--x", x_csv, "--k", "1", "--select", "1",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "value,provenance,coupling"
    assert len(lines) == 1 + 5


def test_spectrum_deterministic_bytes(capsys, x_csv, tmp_path):
    _, out1, _ = _run(capsys, "spectrum", "--x", x_csv, "--k", "2")
    _, out2, _ = _run(capsys, "spectrum", "--x", x_csv, "--k", "2")
    assert out1 == out2
    path = tmp_path / "out.json"
    code, out3, _ = _run(capsys, "spectrum", "--x", x_csv, "--k", "2", "--output", str(path))
    assert (code, out3, path.read_text()) == (0, "", out1)


def test_classify(capsys, x_csv):
    code, out, _ = _run(capsys, "classify", "--x", x_csv, "--k", "1", "--select", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "StrictSaddle"
    assert doc["lambda_min_closed_form"] == -1
    assert doc["selection"] == [2]
    code, out, _ = _run(capsys, "classify", "--x", x_csv, "--k", "1")
    assert (code, json.loads(out)["maximal"], '\n  "selection": [],\n' in out) == (0, False, True)


def test_classify_rank_deficient_minimum(capsys, tmp_path):
    x = tmp_path / "x.csv"
    x.write_text("3,0,0,0\n0,2,0,0\n0,0,0,0\n")
    code, out, _ = _run(capsys, "classify", "--x", str(x), "--k", "3", "--select", "1,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "GlobalMinimum"
    assert doc["p"] is None and doc["lambda_min_closed_form"] is None


def test_orbit_bound(capsys, x_csv, tmp_path):
    a = tmp_path / "a.csv"
    a.write_text("2\n")
    code, out, _ = _run(
        capsys, "orbit", "--x", x_csv, "--k", "1", "--select", "2", "--a", str(a)
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["induced_norm"] == 2
    assert doc["transported_bound"] == -0.25
    assert doc["lambda_min_transported"] <= doc["transported_bound"] + 1e-10
    assert doc["inertia_base"] == doc["inertia_transported"]


@pytest.mark.parametrize("c", [1e-6, 1e-3, 1.0, 1e4, 1e5, 1e6])
def test_spectrum_inertia_of_a_global_minimum_is_the_same_at_every_scale(capsys, tmp_path, c):
    """--k 2 --select 1,2 on c times the square X of default_rng(1) is a global
    minimum with 4 zeros by formula, its selected cross pairs.  A zero floor
    of 1e-10 max(sigma_1, |largest value|) counted 8 at c = 1e-6, 1e5 and 1e6."""
    x = tmp_path / "x.csv"
    write_matrix_csv(str(x), c * matrix_of_kind("square", np.random.default_rng(1)))
    code, out, _ = _run(capsys, "spectrum", "--x", str(x), "--k", "2", "--select", "1,2")
    assert code == 0 and json.loads(out)["inertia"] == [12, 0, 4]


@pytest.mark.parametrize("c, how", [(1e-5, "--scale 2"), (1e5, "--scale 2"), (1e5, "--a {a}")])
def test_orbit_inertia_of_a_strict_saddle_is_exact_at_every_scale(capsys, tmp_path, c, how):
    """The Hadamard X of exact_hessian.py at k = 2 and --select 2,4 is a strict
    saddle of exact inertia (10, 3, 5) at every scale (tests/exact_hessian.py
    counts it), at the canonical point and along its orbit.  Zero floors
    printed (10, 0, 8) twice at c = 1e-5, with no negative direction, and
    (8, 0, 10) against (13, 3, 2) at c = 1e5."""
    x, a = tmp_path / "x.csv", tmp_path / "a.csv"
    write_matrix_csv(str(x), c * np.array(hadamard_x(), dtype=float))
    write_matrix_csv(str(a), np.array([[2.0, 1.0], [-1.0 / 3.0, 0.5]]))
    argv = ["--x", str(x), "--k", "2", "--select", "2,4"]
    code, out, _ = _run(capsys, "spectrum", *argv)
    assert code == 0 and json.loads(out)["inertia"] == [10, 3, 5]
    code, out, _ = _run(capsys, "orbit", *argv, *shlex.split(how.format(a=a)))
    doc = json.loads(out)
    assert code == 0 and doc["inertia_base"] == doc["inertia_transported"] == [10, 3, 5]
    assert doc["lambda_min_base"] < 0 and doc["lambda_min_transported"] < 0


def test_orbit_counts_the_inertia_at_an_extreme_scale(capsys, x_csv):
    """At X21, --select 1 moved by 1e150 I has W^T W = 1e300 and S S^T =
    4e-300, and eigvalsh returns the pair block's genuine 3e-300 as 0.0,
    whose sign a count of the plain values cannot take; the equilibrated
    block keeps it, and the orbit keeps its inertia."""
    code, out, _ = _run(capsys, "orbit", "--x", x_csv, "--k", "1", "--select", "1",
                        "--scale", "1e150")
    doc = json.loads(out)
    assert code == 0 and doc["inertia_transported"] == doc["inertia_base"] == [4, 0, 1]


@pytest.mark.parametrize("M, argv", [
    (np.diag([2.0, 2.0, 1.0]) @ np.eye(3, 5), "--k 1 --select 1 --scale 1e8"),
    (np.random.default_rng(5).standard_normal((7, 4)), "--k 2 --select 1,2 --scale 1e-3"),
], ids=["diag-1e8", "tall-7x4-1e-3"])
def test_orbit_prints_lambda_min_as_its_inertia_counts_it(capsys, tmp_path, M, argv):
    """At a global minimum lambda_min is 0 in exact arithmetic.  The base
    value is printed as exactly 0, and the transported value's rounding noise
    (4.9e-32 in the first case) as 0, never -0, because it is one of the z
    smallest |values|, z the nullity of the canonical point's closed form,
    whose zeros are zero by formula; the inertia beside it counts those z as
    zero."""
    x = tmp_path / "x.csv"
    write_matrix_csv(str(x), M)
    code, out, _ = _run(capsys, "orbit", "--x", str(x), *shlex.split(argv))
    doc = json.loads(out)
    assert code == 0 and doc["kind"] == "GlobalMinimum"
    for key, inertia in (("lambda_min_base", "inertia_base"),
                         ("lambda_min_transported", "inertia_transported")):
        assert f'"{key}": 0,' in out
        assert doc[inertia][1] == 0 and doc[inertia][2] >= 1


def test_flow_writes_trajectory(capsys, x_csv, tmp_path):
    traj = tmp_path / "traj.csv"
    code, out, _ = _run(
        capsys, "flow", "--x", x_csv, "--k", "1", "--seed", "1",
        "--trajectory", str(traj),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "Converged"
    assert doc["limit"]["kind"] == "GlobalMinimum"
    assert abs(doc["J"] - 0.5) < 1e-6
    rows = np.loadtxt(traj, delimiter=",")
    assert rows.shape[1] == 4
    assert rows[0, 0] == 0.0


def test_flow_with_tied_top_sigma_classifies_its_limit(capsys, tmp_path):
    x = tmp_path / "t.csv"
    x.write_text("2,0,0,0\n0,2,0,0\n0,0,1,0\n")
    code, out, _ = _run(capsys, "flow", "--x", str(x), "--k", "1", "--seed", "1")
    assert code == 0
    limit = json.loads(out)["limit"]
    assert limit["kind"] == "GlobalMinimum"
    assert limit["selection"] == [1]
    assert limit["lambdas"] == [2]


def test_flow_with_loose_grad_tol_classifies_its_limit(capsys, x_csv):
    """grad_tol 1e-5 is looser than the tolerance the limit is reduced at, so
    the flow goes on until the reduction accepts its point."""
    code, out, _ = _run(capsys, "flow", "--x", x_csv, "--k", "1", "--seed", "1",
                        "--grad-tol", "1e-5")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "Converged"
    assert doc["limit"]["kind"] == "GlobalMinimum"
    assert doc["limit"]["lambdas"] == [2]


def test_uncertified_flow_prints_no_limit(capsys, x_csv, monkeypatch):
    def refuse(X, p, tol):
        raise NumericalFailure("orbit reconstruction residual refused")

    monkeypatch.setattr(flow, "reduce_to_canonical", refuse)
    code, out, _ = _run(capsys, "flow", "--x", x_csv, "--k", "1", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "Uncertified"
    assert "limit" not in doc


def _record_keywords(monkeypatch, name):
    """Replace cli.<name> with a wrapper that records the keywords of each
    call; returns the list they go into."""
    seen, real = [], getattr(cli, name)

    def spy(*args, **kwargs):
        seen.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    return seen


@pytest.mark.parametrize("flags,keywords", [
    ([], {}),
    (["--t-max", "50", "--grad-tol", "1e-8"], {"t_max": 50.0, "grad_tol": 1e-8}),
    (["--grad-tol", "0"], {"grad_tol": 0.0}),
], ids=["defaults", "both", "grad-tol"])
def test_flow_leaves_its_defaults_to_integrate_flow(capsys, x_csv, monkeypatch,
                                                    flags, keywords):
    """integrate_flow's t_max and grad_tol are passed only when given, so the
    library's defaults are the CLI's."""
    seen = _record_keywords(monkeypatch, "integrate_flow")
    code, _, _ = _run(capsys, "flow", "--x", x_csv, "--k", "1", *flags)
    assert (code, seen) == (0, [keywords])


@pytest.mark.parametrize("flags,keywords", [
    ([], {}), (["--rank-tol", "1e-6"], {"rank_tol": 1e-6}),
], ids=["default", "given"])
@pytest.mark.parametrize("argv", [
    ["spectrum", "--x", "X", "--k", "1", "--select", "1"],
    ["classify", "--x", "X", "--k", "1", "--select", "1"],
    ["orbit", "--x", "X", "--k", "1", "--select", "1", "--scale", "2"],
    ["flow", "--x", "X", "--k", "1"],
    ["verify", "--x", "X"],
    ["verify", "--seed", "1"],
], ids=["spectrum", "classify", "orbit", "flow", "verify", "verify-default-X"])
def test_rank_tol_is_passed_only_when_given(capsys, x_csv, monkeypatch, argv,
                                            flags, keywords):
    argv = [x_csv if a == "X" else a for a in argv]
    seen = _record_keywords(monkeypatch, "load_data_matrix")
    code, out, _ = _run(capsys, *argv, *flags)
    assert (code, seen) == (0, [keywords])
    assert out == _run(capsys, *argv)[1]
    code, _, err = _run(capsys, *argv, "--rank-tol", "2")
    assert (code, err) == (2, "error: rank_tol must lie in (0, 1), got 2.0\n")


def test_orbit_takes_one_svd_of_A(capsys, x46_csv, tmp_path, monkeypatch):
    """GroupElement.from_matrix's singularity check takes it and keeps it on
    the element, where cond_A, induced_norm and the transported bound read
    it, so no read takes a second one."""
    A = np.array([[1.2, 0.3], [-0.1, 0.9]])
    a_csv = tmp_path / "a.csv"
    np.savetxt(a_csv, A, delimiter=",")
    real, svds_of_A = np.linalg.svd, []

    def svd(M, *args, **kwargs):
        if np.shape(M) == A.shape and np.array_equal(M, A):
            svds_of_A.append(M)
        return real(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    code, _, _ = _run(capsys, "orbit", "--x", x46_csv, "--k", "2", "--select", "1,3",
                      "--a", str(a_csv))
    assert (code, len(svds_of_A)) == (0, 1)


def test_verify_passes(capsys):
    code, out, _ = _run(capsys, "verify", "--seed", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert len(doc["checks"]) >= 10


def test_spectrum_parses_select_once(capsys, x46_csv, monkeypatch):
    seen = []
    parse = cli._parse_selection
    monkeypatch.setattr(cli, "_parse_selection",
                        lambda raw, m: seen.append(raw) or parse(raw, m))
    code, _, _ = _run(capsys, "spectrum", "--x", x46_csv, "--k", "2", "--select", "1,3")
    assert code == 0
    assert seen == ["1,3"]


@pytest.mark.parametrize("value, name", [(float("nan"), "NaN"), (float("inf"), "inf"),
                                         (-np.inf, "-inf"), (np.float64("nan"), "NaN")])
def test_renderer_refuses_non_finite_floats_by_name(value, name):
    with pytest.raises(InvalidInput, match=f"^refusing to serialize {name}$"):
        cli._render({"x": [1.0, value]})


# Every CLI refusal but the no-index --select (below): an argv, {name} a path
# of the paths fixture, and the one stderr line after "error: ".  A line
# ending in "..." is compared up to there; the operating system's text follows.
REFUSALS = [
    ("classify --x {x} --k 1 --select 1,2", "selection has q = 2 > min(k, m) = 1"),
    ("spectrum --x {x} --k 1 --select 1,2", "selection has q = 2 > min(k, m) = 1"),
    ("orbit --x {x} --k 1 --select 1,2 --scale 2", "selection has q = 2 > min(k, m) = 1"),
    ("spectrum --x {x} --k 1 --select 0", "selection indices are 1-based"),
    ("spectrum --x {x} --k 1 --select 1,x", "could not parse selection '1,x'; expect e.g. 1,3"),
    ("spectrum --x {x46} --k 2 --select 1,1", "selection repeats index 1"),
    ("classify --x {x46} --k 2 --select 2,7", "selection index 7 out of range for m = 4"),
    ("spectrum --x /nonexistent.csv --k 1", "cannot read /nonexistent.csv: ..."),
    ("spectrum --x {x46} --k 2 --select 1,3 --output {missing}", "cannot write {missing}: ..."),
    ("flow --x {x46} --k 2 --trajectory {missing}", "cannot write {missing}: ..."),
    ("classify --x {x} --k 2 --select 1 --c0 {c0nan}", "C0 contains non-finite entries"),
    ("spectrum --x {x} --k 2 --select 1 --c0 {c0nan}", "C0 contains non-finite entries"),
    ("spectrum --x {x} --k 1 --select 1 --c0 {c0}", "C0 must be (1, 0), got (1, 1)"),
    ("orbit --x {x} --k 1 --select 1 --c0 {c0} --scale 2", "C0 must be (1, 0), got (1, 1)"),
    ("spectrum --x {x} --k 1 --balanced", "--balanced requires --select"),
    ("spectrum --x {x} --k 2 --select 1 --balanced --c0 {c0}",
     "--c0 is not used with --balanced"),
    ("spectrum --x {x} --k 2 --select 1 --scale 3",
     "an orbit scale a != 1 needs q = k, got q = 1, k = 2"),
    ("spectrum --x {x} --k 1 --scale 2", "an orbit scale a != 1 needs q = k, got q = 0, k = 1"),
    ("spectrum --x {x} --k 1 --select 1 --balanced --scale 2",
     "--scale is not used with --balanced"),
    ("spectrum --x {x46} --k 2 --select 1,3 --scale 1e300",
     "the closed-form spectrum at scale 1e+300 is not finite in float64"),
    ("spectrum --x {x46} --k 2 --select 1,3 --scale 1e-200",
     "the closed-form spectrum at scale 1e-200 is not finite in float64"),
    # the negative lower branch underflows to 0.0, and with it its sign
    *((f"spectrum --x {{tiny}} --k 1 --select 3 --scale 1e100 --format {fmt}",
       "the closed-form value of sigma_lambda_pair(i=0,j=0),branch=- is 0.0 in float64,"
       " but it is not zero by formula") for fmt in ("json", "csv")),
    *((f"spectrum --x {{tiny_row}} --k 1 --select 1 --scale 1e100 --format {fmt}",
       "the closed-form coupling of selected_cross_pair(j=0,s=0),branch=+ at scale 1e+100"
       " is not finite in float64") for fmt in ("json", "csv")),
    ("classify --x {huge} --k 2 --select 1,3",
     "the closed-form lambda_min at scale 1 is not finite in float64"),
    ("classify --x {huge} --k 2 --select 1,2", "the closed-form J is not finite in float64"),
    ("classify --x {huge} --k 2",
     "the closed-form lambda_min at scale 1 is not finite in float64"),
    *((f"orbit --x {{x}} --k 1 --select 2 --scale {scale}",
       f"scale must be a nonzero finite number, got {shown}")
      for scale, shown in (("inf", "inf"), ("nan", "nan"), ("0", "0.0"))),
    # --a names a missing file, which is never opened
    ("orbit --x {x} --k 1 --select 2 --a /nonexistent.csv --scale 2",
     "orbit takes --a FILE or --scale VALUE, not both"),
    ("orbit --x {x} --k 1 --select 2", "orbit needs --a FILE or --scale VALUE"),
    ("orbit --x {x46} --k 2 --select 1,3 --scale 1e300",
     "the Hessian is not finite in float64: max |W| = 9.32e+299, max |S| = 2.59e-300"),
    ("orbit --x {x46} --k 2 --select 1,3 --scale 1e-200",
     "the Hessian is not finite in float64: max |W| = 9.32e-201, max |S| = 2.59e+200"),
    # the count finds the saddle's negative value, which eigvalsh of the plain
    # pair block returns as 0.0
    ("orbit --x {x35} --k 1 --select 2 --scale 1e150",
     "lambda_min_transported = 0 in float64, but the moved point has 1 negative Hessian "
     "eigenvalue(s)"),
    # far along the orbit of a zero-sigma selection the count turns a
    # negative value positive, which Sylvester's law rules out
    ("orbit --x {rank2} --k 2 --select 3,4 --scale 1e9",
     "inertia_transported = [13, 3, 4] in float64, but Sylvester's law gives the orbit "
     "the base's [12, 4, 4]"),
    ("bound --x {x} --k 3", "k = 3 outside [1, min(m, n) = 2]"),
    ("bound --x /nonexistent.csv --k 1", "cannot read /nonexistent.csv: ..."),
    ("flow --x {x} --k 1 --t-max=nan", "t_max must be positive and finite, got nan"),
    ("flow --x {x} --k 1 --t-max=inf", "t_max must be positive and finite, got inf"),
    ("flow --x {x} --k 1 --grad-tol=-1e-9", "grad_tol must be nonnegative, got -1e-09"),
    *((f"flow --x {{x46}} --k {k} --init {init}", f"k = {k} outside [1, min(m, n) = 4]")
      for k in (5, 7) for init in ("balanced", "random")),
    *((f"{cmd} --seed -1", "seed must be a nonnegative integer, got -1")
      for cmd in ("flow --x {x46} --k 1 --init balanced", "flow --x {x46} --k 1 --init random",
                  "verify", "verify --x {x46}")),
]


def _no_step(self, h):
    raise AssertionError("a flow step was attempted")


@pytest.mark.parametrize("argv, message", REFUSALS, ids=[argv for argv, _ in REFUSALS])
def test_refusal(capsys, monkeypatch, paths, argv, message):
    """Exit 2, no stdout, one stderr line and no NumPy warning.  No flow step
    is attempted, except for --trajectory, which is refused after the flow."""
    if "--trajectory" not in argv:
        monkeypatch.setattr(flow._Stepper, "attempt", _no_step)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, *shlex.split(argv.format(**paths)))
    assert (code, out, err.count("\n"), err[-1:]) == (2, "", 1, "\n")
    line = "error: " + message.format(**paths)
    if line.endswith("..."):
        assert err.startswith(line[:-3])
    else:
        assert err == line + "\n"


@pytest.mark.parametrize("select", [",", " , ", ""])
@pytest.mark.parametrize("cmd", ["classify", "spectrum", "spectrum --balanced", "orbit --scale 2"],
                         ids=["classify", "spectrum", "spectrum-balanced", "orbit"])
def test_select_that_lists_no_index_is_exit_2(capsys, monkeypatch, paths, cmd, select):
    """Refused, not read as the empty selection (the zero family or the origin)."""
    test_refusal(capsys, monkeypatch, paths, f"{cmd} --x {{x46}} --k 2 --select '{select}'",
                 f"selection {select!r} lists no index; expect e.g. 1,3")
