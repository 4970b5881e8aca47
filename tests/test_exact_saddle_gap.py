"""Claim (g) of the README's ledger checked exactly: on M_0 every strict
saddle has lambda_min <= -beta, and -beta is attained.

The points are the balanced critical points of exact_hessian.py's 4 x 5
Hadamard X with perfect-square singular values, so every Hessian is
rational and its characteristic polynomial exact.  At each selection of
positive sigma of size q <= k, the point is a strict saddle exactly when the
polynomial has a negative root (claim (a)); there the roots below -beta and
the multiplicity of -beta are counted with Descartes' rule, with no floor.
beta comes from the uniform-gap rule, written here in Fractions:
beta = min(sigma_min(k, r), gaps), where gaps holds sigma_a - sigma_b for each
pair of adjacent distinct positive values with G + 1 <= k <= G + A - 1 + B,
G = #{sigma > sigma_a} and A, B the multiplicities of sigma_a and sigma_b;
the library's ``uniform_saddle_bound`` must give the same beta.
Only lambda_min is bounded: at the origin of sigma = (9, 4, 4, 1) the other
negative eigenvalues, -4, -4 and -1, lie above -beta = -5.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import exact_hessian as exact
from mfland import (NotASaddle, Selection, lambda_min_balanced, load_data_matrix,
                    uniform_saddle_bound)

# (sigma, k) -> beta, as a float enumeration of the balanced saddles found it.
BETA = {((9, 4, 4, 1), 1): 5, ((9, 4, 4, 1), 2): 3,
        ((16, 9, 1, 1), 1): 7, ((16, 9, 1, 1), 2): 8,
        ((9, 4, 1, 0), 1): 5, ((9, 4, 1, 0), 2): 3}


def gap_beta(sigma, k):
    """beta(sigma, k) by the uniform-gap rule, exactly."""
    pos = sorted((Fraction(s) for s in sigma if s > 0), reverse=True)
    values = sorted(set(pos), reverse=True)
    bound, above = [pos[min(k, len(pos)) - 1]], 0
    for a, b in zip(values, values[1:]):
        if above + 1 <= k <= above + pos.count(a) - 1 + pos.count(b):
            bound.append(a - b)
        above += pos.count(a)
    return min(bound)


@pytest.mark.parametrize("sigma, k", list(BETA),
                         ids=[f"sigma={'-'.join(map(str, s))},k={k}" for s, k in BETA])
def test_claim_g_every_balanced_strict_saddle_is_beta_below_zero(sigma, k):
    beta = gap_beta(sigma, k)
    assert beta == BETA[sigma, k]
    X = exact.hadamard_x(1, sigma)
    Xf = load_data_matrix(np.array(X, dtype=float))
    # the library's closed form is the exact rule, to rounding of the SVD
    assert uniform_saddle_bound(Xf, k)[0] == pytest.approx(beta, rel=0, abs=1e-12 * sigma[0])
    positive = [i for i, s in enumerate(sigma) if s > 0]
    saddles = attained = 0
    for q in range(k + 1):
        for sel in combinations(positive, q):
            p = exact.charpoly(exact.hessian(X, *exact.balanced_point(sel, k, sigma)))
            negative, _ = exact.roots_below(p, 0)
            try:
                lambda_min_balanced(Xf, Selection(sel), k)
            except NotASaddle:
                assert negative == 0, sel
                continue
            assert negative > 0, sel
            below, mult = exact.roots_below(p, -beta)
            assert below + mult >= 1, (sel, below, mult)
            saddles += 1
            attained += below == 0 and mult >= 1
    assert saddles and attained, (saddles, attained)
