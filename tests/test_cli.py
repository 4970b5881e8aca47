import json
import warnings

import numpy as np
import pytest

from mfland import InvalidInput, Selection, spectrum_full_rank_scaled, write_matrix_csv
from mfland import cli
from mfland.cli import main
from matrix_kinds import X21


@pytest.fixture()
def x_csv(tmp_path):
    path = tmp_path / "x.csv"
    write_matrix_csv(path, X21.X)
    return str(path)


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


@pytest.mark.parametrize("cmd", [
    ["classify"], ["spectrum"], ["orbit", "--scale", "2"],
])
def test_selection_larger_than_k_is_exit_2(capsys, x_csv, cmd):
    code, _, err = _run(capsys, *cmd, "--x", x_csv, "--k", "1", "--select", "1,2")
    assert code == 2
    assert "q = 2 > min(k, m) = 1" in err


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
    from mfland import NumericalFailure, flow

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


def test_orbit_takes_two_svds_of_A(capsys, x46_csv, tmp_path, monkeypatch):
    """One in GroupElement.from_matrix's singularity check and one kept on
    the element, which cond_A, induced_norm, the transported bound and the
    transported zero tolerance all read."""
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
    assert (code, len(svds_of_A)) == (0, 2)


def test_missing_file_is_exit_2(capsys):
    code, _, err = _run(capsys, "spectrum", "--x", "/nonexistent.csv", "--k", "1")
    assert code == 2
    assert "error:" in err


def test_bad_selection_is_exit_2(capsys, x_csv):
    code, _, err = _run(capsys, "spectrum", "--x", x_csv, "--k", "1", "--select", "0")
    assert code == 2
    assert "1-based" in err


@pytest.mark.parametrize("flag,value", [
    ("--t-max", "nan"), ("--t-max", "inf"), ("--grad-tol", "-1e-9"),
])
def test_bad_flow_argument_is_exit_2(capsys, x_csv, flag, value):
    code, _, err = _run(capsys, "flow", "--x", x_csv, "--k", "1", f"{flag}={value}")
    assert code == 2
    assert flag[2:].replace("-", "_") in err


@pytest.fixture()
def x46_csv(tmp_path):
    path = tmp_path / "x46.csv"
    np.savetxt(path, np.random.default_rng(0).standard_normal((4, 6)), delimiter=",")
    return str(path)


@pytest.mark.parametrize("init", ["balanced", "random"])
@pytest.mark.parametrize("k", [5, 7])
def test_flow_with_k_above_min_m_n_is_exit_2(capsys, x46_csv, monkeypatch, k, init):
    """k outside [1, min(m, n)] is refused before the start is drawn or any
    step is taken, with the message a canonical point gives."""
    from mfland import flow

    def no_step(self, h):
        raise AssertionError("a step was attempted")

    monkeypatch.setattr(flow._Stepper, "attempt", no_step)
    code, out, err = _run(capsys, "flow", "--x", x46_csv, "--k", str(k), "--init", init)
    assert (code, out) == (2, "")
    assert err == f"error: k = {k} outside [1, min(m, n) = 4]\n"


@pytest.mark.parametrize("argv", [
    ["flow", "--x", "X", "--k", "1", "--init", "balanced"],
    ["flow", "--x", "X", "--k", "1", "--init", "random"],
    ["verify"],
    ["verify", "--x", "X"],
], ids=["flow-balanced", "flow-random", "verify", "verify-x"])
def test_negative_seed_is_exit_2(capsys, x46_csv, argv):
    """A negative seed is invalid input, not a crash or a failed check."""
    argv = [x46_csv if a == "X" else a for a in argv]
    code, out, err = _run(capsys, *argv, "--seed", "-1")
    assert (code, out) == (2, "")
    assert err == "error: seed must be a nonnegative integer, got -1\n"


def test_nonfinite_c0_is_exit_2(capsys, x_csv, tmp_path):
    c0 = tmp_path / "c0.csv"
    c0.write_text("nan\n")
    for cmd in ("classify", "spectrum"):
        code, _, err = _run(
            capsys, cmd, "--x", x_csv, "--k", "2", "--select", "1", "--c0", str(c0)
        )
        assert code == 2
        assert "C0" in err


def test_scale_rejected_for_deficient(capsys, x_csv):
    code, _, err = _run(
        capsys, "spectrum", "--x", x_csv, "--k", "2", "--select", "1", "--scale", "3"
    )
    assert code == 2


@pytest.mark.parametrize("flags", [
    ["--k", "1"], ["--k", "1", "--select", "1", "--balanced"],
], ids=["zero", "balanced"])
def test_spectrum_scale_off_the_full_rank_point_is_exit_2(capsys, x_csv, flags):
    """--scale would otherwise be printed for a spectrum taken at scale 1."""
    code, out, err = _run(capsys, "spectrum", "--x", x_csv, *flags, "--scale", "2")
    assert code == 2
    assert out == ""
    assert "--scale" in err


def test_spectrum_c0_at_full_rank_is_checked_as_in_orbit(capsys, x_csv, tmp_path):
    """At q = k the kernel block has no columns, so a C0 file cannot fit."""
    c0 = tmp_path / "c0.csv"
    c0.write_text("1\n")
    point = ["--x", x_csv, "--k", "1", "--select", "1", "--c0", str(c0)]
    code, _, err = _run(capsys, "spectrum", *point)
    assert code == 2
    assert "C0 must be (1, 0), got (1, 1)" in err
    orbit_code, _, orbit_err = _run(capsys, "orbit", *point, "--scale", "2")
    assert (code, err) == (orbit_code, orbit_err)


def test_spectrum_c0_with_balanced_is_exit_2(capsys, x_csv, tmp_path):
    c0 = tmp_path / "c0.csv"
    c0.write_text("1\n")
    code, out, err = _run(capsys, "spectrum", "--x", x_csv, "--k", "2", "--select", "1",
                          "--balanced", "--c0", str(c0))
    assert code == 2
    assert out == ""
    assert "--c0" in err


def test_verify_stdout_ignores_thread_variable(capsys, monkeypatch):
    monkeypatch.delenv("MFLAND_THREADS", raising=False)
    _, plain, _ = _run(capsys, "verify", "--seed", "0")
    monkeypatch.setenv("MFLAND_THREADS", "4")
    _, threaded, _ = _run(capsys, "verify", "--seed", "0")
    assert plain == threaded


def test_verify_passes(capsys):
    code, out, _ = _run(capsys, "verify", "--seed", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert len(doc["checks"]) >= 10


@pytest.mark.parametrize("scale, shown", [("inf", "inf"), ("nan", "nan"), ("0", "0.0")])
def test_orbit_scale_is_checked_before_A_is_formed(capsys, x_csv, scale, shown):
    """--scale follows the orbit-scale rule of the library, and is refused
    before scale * I is formed, so NumPy has nothing to warn about."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, "orbit", "--x", x_csv, "--k", "1",
                              "--select", "2", "--scale", scale)
    assert (code, out) == (2, "")
    assert err == f"error: scale must be a nonzero finite number, got {shown}\n"


@pytest.mark.parametrize("flags, message", [
    (["--a", "/nonexistent.csv", "--scale", "2"],
     "orbit takes --a FILE or --scale VALUE, not both"),
    ([], "orbit needs --a FILE or --scale VALUE"),
], ids=["both", "neither"])
def test_orbit_takes_one_group_element(capsys, x_csv, flags, message):
    """Exactly one of --a and --scale; both are refused before A is read,
    so the missing file here is never opened."""
    code, out, err = _run(capsys, "orbit", "--x", x_csv, "--k", "1", "--select", "2", *flags)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_spectrum_parses_select_once(capsys, x46_csv, monkeypatch):
    from mfland import cli

    seen = []
    parse = cli._parse_selection
    monkeypatch.setattr(cli, "_parse_selection", lambda raw: seen.append(raw) or parse(raw))
    code, _, _ = _run(capsys, "spectrum", "--x", x46_csv, "--k", "2", "--select", "1,3")
    assert code == 0
    assert seen == ["1,3"]


@pytest.mark.parametrize("scale", ["1e300", "1e-200"])
def test_orbit_point_that_overflows_is_exit_2(capsys, x46_csv, scale):
    """A scale far out on the orbit overflows the dense Hessian of the moved
    point: the oracle refuses it as a numerical failure, with one error line
    and no NumPy warning, instead of a traceback."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, "orbit", "--x", x46_csv, "--k", "2",
                              "--select", "1,3", "--scale", scale)
    assert (code, out) == (2, "")
    assert err.startswith("error: dense Hessian has non-finite entries")
    assert err.count("\n") == 1


@pytest.mark.parametrize("scale", ["1e300", "1e-200"])
def test_spectrum_scale_that_overflows_is_exit_2(capsys, x46_csv, scale):
    """The closed-form spectrum far out on the orbit is refused as a numerical
    failure with one error line naming the scale, not NumPy warnings and a
    NaN that the renderer refuses."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, "spectrum", "--x", x46_csv, "--k", "2",
                              "--select", "1,3", "--scale", scale)
    assert (code, out) == (2, "")
    assert err == (f"error: the closed-form spectrum at scale {float(scale):g} "
                   "is not finite in float64\n")


@pytest.fixture()
def x46_huge_csv(tmp_path):
    path = tmp_path / "x46-huge.csv"
    np.savetxt(path, 1e200 * np.random.default_rng(0).standard_normal((4, 6)), delimiter=",")
    return str(path)


@pytest.mark.parametrize("select, quantity", [(["--select", "1,3"], "lambda_min at scale 1"),
                                              (["--select", "1,2"], "J"),
                                              ([], "lambda_min at scale 1")])
def test_classify_that_overflows_is_exit_2(capsys, x46_huge_csv, select, quantity):
    """At 1e200 X the closed-form scalars overflow: one error line naming the
    quantity, not NumPy warnings and a NaN or an inf in the report."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, "classify", "--x", x46_huge_csv, "--k", "2", *select)
    assert (code, out) == (2, "")
    assert err == f"error: the closed-form {quantity} is not finite in float64\n"


@pytest.mark.parametrize("value, name", [(float("nan"), "NaN"), (float("inf"), "inf"),
                                         (-np.inf, "-inf"), (np.float64("nan"), "NaN")])
def test_renderer_refuses_non_finite_floats_by_name(value, name):
    with pytest.raises(InvalidInput, match=f"^refusing to serialize {name}$"):
        cli._render({"x": [1.0, value]})


@pytest.mark.parametrize("cmd", [
    ["spectrum", "--k", "2", "--select", "1,3", "--output"],
    ["flow", "--k", "2", "--trajectory"],
], ids=["output", "trajectory"])
def test_unwritable_output_path_is_exit_2(capsys, tmp_path, x46_csv, cmd):
    path = str(tmp_path / "missing" / "out.txt")
    code, out, err = _run(capsys, *cmd[:1], "--x", x46_csv, *cmd[1:], path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {path}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("select", [",", " , ", ""])
@pytest.mark.parametrize("cmd", [["classify"], ["spectrum"], ["spectrum", "--balanced"],
                                 ["orbit", "--scale", "2"]],
                         ids=["classify", "spectrum", "spectrum-balanced", "orbit"])
def test_select_that_lists_no_index_is_exit_2(capsys, x46_csv, cmd, select):
    """A --select that lists no index is refused, not read as the empty
    selection (the zero family or the origin)."""
    code, out, err = _run(capsys, *cmd, "--x", x46_csv, "--k", "2", "--select", select)
    assert (code, out) == (2, "")
    assert err == f"error: selection {select!r} lists no index; expect e.g. 1,3\n"
