"""The verify battery passes on every kind of X in matrix_kinds, not only on
the default 4 x 6 Gaussian one; each fault in FAULTS fails the check named
with it; and the README's claims ledger names only real checks and
acceptance criteria."""

import inspect
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest

import mfland.verify as verify
from mfland import calculus, canonical, load_data_matrix, oracle, orbit
from mfland.verify import (ALL_CHECKS, _default_data, check_congruence_inertia,
                           check_scaling_trichotomy, run_all)
from matrix_kinds import KINDS, matrix_of_kind

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("kind", KINDS)
def test_run_all_passes(kind, seed):
    X = load_data_matrix(matrix_of_kind(kind, np.random.default_rng(seed)))
    failed = [c for c in run_all(X, seed=seed) if not c["passed"]]
    assert not failed


@pytest.mark.parametrize("c", [1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_congruence_inertia_holds_at_every_scale(c):
    """Claim (c) on c X for every kind and seeds 0-5, at verify seeds 0 and 1:
    both inertias are counted at the nullity of the canonical point's closed
    form.  Counted at zero floors, the check failed 47 of these 60 at c = 1e6
    and 6 at c = 1e-3."""
    failed = []
    for kind in KINDS:
        for seed in range(6):
            X = load_data_matrix(c * matrix_of_kind(kind, np.random.default_rng(seed)))
            for verify_seed in (0, 1):
                passed, detail = check_congruence_inertia(X, verify_seed)
                if not passed:
                    failed.append((kind, seed, verify_seed, detail))
    assert not failed


def test_scaling_check_reads_lambda_min_past_its_peak():
    """At q = k = 1, |lambda_min| rises with the scale a up to a = sqrt(lambda)
    and falls after it.  With lambda = 2.5 the peak lies beyond a = 1, so the
    monotone run starts at sqrt(sigma_1), which is never before the peak."""
    X = load_data_matrix(np.diag([3.0, 2.5]) @ np.eye(2, 3))
    passed, detail = check_scaling_trichotomy(X, seed=0)
    assert passed, detail


# The X of `mfland verify --seed 1`, and a rank-2 4 x 6 X, whose G rows 2 and 3
# (along X's left kernel) can make block_spectrum's left family, which is
# empty at a full-rank X.
SEED_1_X = load_data_matrix(_default_data(1))
RANK_2_X = load_data_matrix(matrix_of_kind("rank-deficient", np.random.default_rng(0)))

# (module, function, source text, faulty text, the check that must fail, X)
FAULTS = [
    pytest.param(canonical, "first_defect", "lam[j] > tol", "lam[j] > -tol",
                 "families_critical", SEED_1_X, id="first_defect-tie-sign"),
    pytest.param(canonical, "reduce_to_canonical",
                 "E[q:, :q] = -(Sb @ X.V[:, sel_idx]) * inv_lam", "E[q:, :q] = 0.0",
                 "congruence_inertia", SEED_1_X, id="reduce-unipotent-factor"),
    pytest.param(canonical, "reduce_to_canonical",
                 "C0 = X.V0.T @ Sb.T", "C0 = 1.001 * (X.V0.T @ Sb.T)",
                 "congruence_inertia", SEED_1_X, id="reduce-C0-readout"),
    pytest.param(orbit, "balance_residual",
                 "return float(np.linalg.norm(p.W.T @ p.W - p.S @ p.S.T))", "return 0.0",
                 "balanced_set", SEED_1_X, id="balance_residual-zero"),
    pytest.param(orbit, "induced_norm", "return float(max(", "return 1.01 * float(max(",
                 "lambda_min_bound", SEED_1_X, id="induced_norm-inflated"),
    pytest.param(calculus, "hessian_apply", "E = residual(X, p)", "E = 2.0 * residual(X, p)",
                 "spectra_match_oracle", SEED_1_X, id="hessian_apply-E-doubled"),
    pytest.param(oracle, "_blocks", "(SST[None], left.size", "(WTW[None], left.size",
                 "spectra_match_oracle", RANK_2_X, id="block_spectrum-left-rows-WTW"),
]


@pytest.mark.parametrize("module, name, old, new, check, X", FAULTS)
def test_each_fault_fails_its_check(module, name, old, new, check, X, monkeypatch):
    """The function rebuilt from its source with one text replaced, bound
    wherever the battery looks it up, fails the named check at seed 1 on the
    row's X, which passes it unchanged."""
    def outcome():
        return next(c for c in run_all(X, seed=1) if c["name"] == check)

    assert outcome()["passed"]
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(source.replace(old, new), namespace)
    for where in (module, verify, oracle):
        if hasattr(where, name):
            monkeypatch.setattr(where, name, namespace[name])
    result = outcome()
    assert not result["passed"], result["detail"]


def test_readme_ledger_names_real_checks_and_criteria():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Claims ledger\n", 1)[1].split("\n## ", 1)[0]
    # the cells of each claim row: the table rows after the header and its rule
    rows = [[cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
            for line in section.splitlines() if line.startswith("| ")][2:]
    assert [row[0] for row in rows] == list("abcdefg")
    names = {name for name, _ in ALL_CHECKS}
    named = {c for row in rows for c in re.findall(r"`(\w+)`", row[2])}
    assert named <= names, named - names
    assert set(re.findall(r"`(\w+)`", section)) >= names
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    for row in rows:
        for number in re.findall(r"\b\d\d\b", row[3]):
            assert f"def test_criterion_{number}_" in acceptance, (row[0], number)
