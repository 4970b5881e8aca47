"""The uniform saddle gap on M_0 (claim (g)): ``uniform_saddle_bound``'s
closed-form beta against ``balanced_lambda_min_sup``, the enumeration of
every balanced strict saddle, on every test matrix kind and on tied spectra
with trailing zeros, at scales 10^-3 to 10^3."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfland import (
    InvalidSelection,
    NotASaddle,
    Selection,
    lambda_min_balanced,
    load_data_matrix,
    uniform_saddle_bound,
)
from mfland import canonical
from mfland.canonical import balanced_lambda_min_sup
from matrix_kinds import KINDS, X321, fixed_spectrum, matrix_of_kind

LEVELS = (0.2, 0.7, 1.3, 2.1, 3.0)


def _assert_bound_is_the_enumeration(X):
    s1 = float(X.sigma[0])
    for k in range(1, X.m + 1):
        beta, term = uniform_saddle_bound(X, k)
        sup, sel = balanced_lambda_min_sup(X, k)
        assert abs(-beta - sup) <= 1e-12 * s1, (k, beta, term, sup, sel)
        assert lambda_min_balanced(X, sel, k) == sup
        assert beta > 0
        # term names the sigma or the gap that sets beta
        i, *b = term
        assert beta == float(X.sigma[i] - X.sigma[b[0]]) if b else beta == float(X.sigma[i])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(KINDS), st.floats(-3, 3), st.integers(0, 2**16))
def test_bound_is_the_enumeration_on_every_kind(kind, exponent, seed):
    X = load_data_matrix(10.0**exponent * matrix_of_kind(kind, np.random.default_rng(seed)))
    _assert_bound_is_the_enumeration(X)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**16), st.floats(-3, 3))
def test_bound_is_the_enumeration_on_tied_spectra(seed, exponent):
    """m from 2 to 5 and n from m to 7; sigma drawn from five levels, so ties
    are common, and 30% of the X have trailing zero sigma."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 6))
    n = int(rng.integers(m, 8))
    sigma = np.sort(rng.choice(LEVELS, size=m))[::-1]
    if rng.uniform() < 0.3:
        sigma[int(rng.integers(1, m)):] = 0.0
    X = load_data_matrix(10.0**exponent * fixed_spectrum(rng, m, n, sigma))
    _assert_bound_is_the_enumeration(X)


@pytest.mark.parametrize("k, beta, term", [(1, 1.0, (0, 1)), (2, 1.0, (1, 2)), (3, 1.0, (2,))])
def test_bound_names_its_term(k, beta, term):
    """sigma = (3, 2, 1): the gap 3 - 2 at k = 1, the gap 2 - 1 at k = 2,
    and sigma_3 at k = 3, where no gap qualifies."""
    assert uniform_saddle_bound(X321, k) == (beta, term)


@pytest.mark.parametrize("k, term", [(1, (0, 2)), (2, (0, 2)), (3, (2,)), (4, (3,))])
def test_tied_groups_merge_before_their_gap(k, term):
    """sigma = (2, 2, 1, 1): the groups {0, 1} and {2, 3} give one gap, 2 - 1,
    named by the first index of each group, and it qualifies for
    1 <= k <= 0 + 2 - 1 + 2 = 3.  Where it ties sigma_min(k, r) = 1 (k = 3),
    the singular value is named."""
    X = load_data_matrix(np.diag([2.0, 2.0, 1.0, 1.0]) @ np.eye(4, 5))
    assert uniform_saddle_bound(X, k) == (1.0, term)


def test_bound_enumerates_nothing(monkeypatch):
    """O(r): the bound evaluates no lambda_min, so it answers at sizes where
    the enumeration's C(r, k) saddles are out of reach."""
    def refuse(*args, **kwargs):
        raise AssertionError("uniform_saddle_bound evaluated a lambda_min")

    monkeypatch.setattr(canonical, "_lambda_min", refuse)
    sigma = np.linspace(40.0, 1.0, 40)
    X = load_data_matrix(fixed_spectrum(np.random.default_rng(0), 40, 60, sigma))
    beta, term = uniform_saddle_bound(X, 20)
    assert beta == pytest.approx(1.0, rel=1e-12) and len(term) == 2


@pytest.mark.parametrize("k", [0, 4, 2.0])
def test_a_bad_k_is_refused(k):
    for fn in (uniform_saddle_bound, balanced_lambda_min_sup):
        with pytest.raises(InvalidSelection, match="k"):
            fn(X321, k)


def test_enumeration_skips_what_is_not_a_balanced_saddle():
    """At k = 3 = r the top-3 selection is the minimum (NotASaddle) and is
    skipped; the origin and every other selection stay in."""
    with pytest.raises(NotASaddle):
        lambda_min_balanced(X321, Selection((0, 1, 2)), 3)
    sup, sel = balanced_lambda_min_sup(X321, 3)
    assert (sup, sel) == (-1.0, Selection((0, 1)))
