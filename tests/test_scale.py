"""Answers do not depend on the unit.

P_g is a cone: Y1 ~ Y2 exactly when c Y1 ~ c Y2, and the reduced form of
c Y is c times that of Y, with the same A.  Scaling by 2^k is exact in
floats, so reduction, equivalence and short-vector search on 2^k Y must
answer as on Y, bit for bit.  Integer input is left out: its exact path
decides more by design (``moduli._exact_integers``).
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from realtori.exactlinalg import random_unimodular
from realtori.moduli import (
    Verdict,
    _exact_integers,
    polarized_tori_equivalent,
    real_ppav_equivalent,
)
from realtori.spdcone import gl_act, minkowski_reduce, quadratic_short_vectors

A3 = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])

# a g = 4 form whose descent stopped early at 2^-60 while the tie width had
# an absolute floor (golden CLI case 304)
Y4 = np.array([[3.5480517952707684, 2.5444167201888903, 4.600289817813028, -2.783195671971391],
               [2.5444167201888903, 3.203221510361961, 5.135617829642161, -2.995172027012061],
               [4.600289817813028, 5.135617829642161, 8.674004339898483, -5.117643582596822],
               [-2.783195671971391, -2.995172027012061, -5.117643582596822, 3.6515489248535493]])


@st.composite
def moved_forms(draw):
    """A form D^(1/2) C D^(1/2), D with entries in [1e-3, 1e3] and C a
    positive definite correlation matrix whose off-diagonal entries are 0 or
    6e-4 to 0.6 in size (a subnormal entry would not scale exactly), moved
    by a random unimodular matrix off the reduced domain; and its seed."""
    g = draw(st.integers(2, 4))
    d = np.sqrt(draw(st.lists(st.floats(1e-3, 1e3), min_size=g, max_size=g)))
    C = np.eye(g)
    for i in range(g):
        for j in range(i + 1, g):
            C[i, j] = C[j, i] = draw(st.sampled_from([-0.6, 0, 0.6])) * draw(st.floats(1e-3, 1))
    assume(np.linalg.eigvalsh(C)[0] > 1e-3)
    seed = draw(st.integers(0, 2**32 - 1))
    U = random_unimodular(g, np.random.default_rng(seed)).astype(float)
    return gl_act(U, d[:, None] * C * d), seed


def _verdict(res):
    witness = None if res.witness is None else res.witness.tolist()
    return res.verdict, res.detail, witness


class TestScaleInvariance:
    @settings(max_examples=60, deadline=None)
    @given(form=moved_forms(), other=moved_forms(), k=st.integers(-200, 200),
           kind=st.sampled_from(["moved", "perturbed", "other"]))
    def test_answers_at_2_to_the_k(self, form, other, k, kind):
        Y1, seed = form
        g = len(Y1)
        U = random_unimodular(g, np.random.default_rng(seed + 1)).astype(float)
        Y2 = {"moved": gl_act(U, Y1), "perturbed": (1 + 1e-6) * gl_act(U, Y1),
              "other": other[0] if len(other[0]) == g else gl_act(U, Y1) * 1.5}[kind]
        Y1k, Y2k = np.ldexp(Y1, k), np.ldexp(Y2, k)
        assume(_exact_integers(Y1, Y2) is None and _exact_integers(Y1k, Y2k) is None)

        R, A = minkowski_reduce(Y1)
        Rk, Ak = minkowski_reduce(Y1k)
        assert Ak.tolist() == A.tolist()
        assert Rk.tobytes() == np.ldexp(R, k).tobytes()

        res = polarized_tori_equivalent(Y1, Y2, cap=10_000)
        assert _verdict(polarized_tori_equivalent(Y1k, Y2k, cap=10_000)) == _verdict(res)
        if kind == "moved":
            assert res.verdict is not Verdict.INEQUIVALENT

    def test_reduction_keeps_its_descent_at_2_to_the_minus_60(self):
        R, A = minkowski_reduce(Y4)
        Rk, Ak = minkowski_reduce(2.0 ** -60 * Y4)
        assert Ak.tolist() == A.tolist() == [[0, 1, 0, 1], [0, 2, -1, 0], [1, 1, -1, 0],
                                             [0, -2, 2, 1]]
        assert Rk.tobytes() == (2.0 ** -60 * R).tobytes()

    @pytest.mark.parametrize("k", [-60, -40, 0, 40, 300])
    def test_short_vectors_of_a_scaled_form(self, k):
        # the enumeration limit is relative to the bound: no box of 7.4e9
        # points at 2^-60, where an absolute margin of 1e-12 dwarfed the bound
        vectors = quadratic_short_vectors(np.ldexp(A3, k), np.ldexp(2.0, k))
        assert len(vectors) == 12
        assert vectors == quadratic_short_vectors(A3, 2.0)


class TestScaledPairs:
    """diag(c, c) against diag(c, 2c): inequivalent at every scale c."""

    @pytest.mark.parametrize("c", [1e-12, 1.5e-12, 1.5, 1.5e150, 1.5e160, 1e305])
    def test_inequivalent_without_warnings(self, c):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = polarized_tori_equivalent(c * np.eye(2), c * np.diag([1.0, 2.0]))
        assert (res.verdict, res.detail) == (Verdict.INEQUIVALENT,
                                             "no witness in the complete candidate set")

    @pytest.mark.parametrize("c", [1.5e-12, 1.5e160])
    def test_cli_answers_as_at_scale_one_point_five(self, run_cli, c):
        def answer(c):
            return run_cli(json.dumps({"cmd": "equiv", "Y1": (c * np.eye(2)).tolist(),
                                       "Y2": (c * np.diag([1.0, 2.0])).tolist()}))

        assert answer(c) == answer(1.5)


class TestHalfIntegrality:
    def test_is_not_tested_within_tol(self):
        # Re Omega1 = 0.3 is 0.1 from half-integral: within tol = 0.45, yet
        # outside the domain
        om1, om2 = 0.3 + 1j * np.eye(1), 0.5 + 1j * np.eye(1)
        for tol in (1e-9, 0.45):
            with pytest.raises(ValueError, match="half-integral real part"):
                real_ppav_equivalent(om1, om2, tol=tol)
