"""Inertia against the exact rational Hessian of exact_hessian.py, which has
no zero floor: claim (c) of the README's ledger (a strict saddle stays strict
along its orbit) exactly, and the closed form's and `mfland orbit`'s inertia
at c X for c = 2^e, e in {-20, -10, 0, 10, 20}, where c X is exact in float64.

At k = 2, selection (0, 2) is a global minimum that splits the tied pair
sigma = 2, 2 (exact inertia (13, 0, 5)), and (1, 3) a strict saddle with a
sigma tied to a selected value (10, 3, 5).  A zero floor relative to
max(sigma_1, |largest value|) miscounts both at e = -20 and at e = 20."""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

import exact_hessian as exact
from mfland import Selection, load_data_matrix, spectrum_full_rank_scaled, write_matrix_csv
from mfland.cli import main

EXPONENTS = (-20, -10, 0, 10, 20)
SELECTIONS = ((0, 2), (1, 3))
EXPECTED = {(0, 2): (13, 0, 5), (1, 3): (10, 3, 5)}
A = [[Fraction(2), Fraction(1)], [Fraction(-1, 3), Fraction(1, 2)]]


@lru_cache(maxsize=None)
def exact_inertia(sel, e, moved=False):
    """The exact inertia at the canonical point of sel of 2^e X, or at its
    image under L_A."""
    c = Fraction(2) ** e
    W, S = exact.canonical_point(sel, c)
    if moved:
        W, S = exact.act(W, S, A)
    return exact.inertia(exact.hessian(exact.hadamard_x(c), W, S))


def _x(e):
    return np.array(exact.hadamard_x(Fraction(2) ** e), dtype=float)


@pytest.mark.parametrize("e", EXPONENTS)
@pytest.mark.parametrize("sel", SELECTIONS)
def test_claim_c_the_orbit_keeps_the_exact_inertia(sel, e):
    assert exact_inertia(sel, e) == exact_inertia(sel, e, moved=True) == EXPECTED[sel]


@pytest.mark.parametrize("e", EXPONENTS)
@pytest.mark.parametrize("sel", SELECTIONS)
def test_spectrum_inertia_is_the_exact_one(sel, e):
    X = load_data_matrix(_x(e))
    assert spectrum_full_rank_scaled(X, Selection(sel)).inertia == exact_inertia(sel, e)


@pytest.mark.parametrize("e", EXPONENTS)
@pytest.mark.parametrize("sel", SELECTIONS)
def test_orbit_inertias_are_the_exact_one(tmp_path, sel, e):
    write_matrix_csv(str(tmp_path / "x.csv"), _x(e))
    write_matrix_csv(str(tmp_path / "a.csv"), np.array(A, dtype=float))
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["orbit", "--x", str(tmp_path / "x.csv"), "--k", "2",
                     "--select", ",".join(str(i + 1) for i in sel),
                     "--a", str(tmp_path / "a.csv")])
    doc = json.loads(out.getvalue())
    assert code == 0
    assert doc["inertia_base"] == doc["inertia_transported"] == list(exact_inertia(sel, e))
