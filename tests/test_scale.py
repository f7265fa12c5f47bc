"""Answers do not depend on the unit.

P_g is a cone: Y1 ~ Y2 exactly when c Y1 ~ c Y2, and the reduced form of
c Y is c times that of Y, with the same A.  Scaling by 2^k is exact in
floats, so reduction, the reduction test, equivalence and short-vector
search on 2^k Y must answer as on Y, bit for bit.  Integer input is left out
of equivalence: its exact path decides more by design
(``moduli._exact_integers``).  The invariant density, metric, Jacobi and
Iwasawa coordinates and operators of P_g follow their scale laws.  The
rational representation of a map between tori c P and c P' is the same
integer matrix, or the same refusal, at every scale c.
"""

import json
import math
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
from realtori.spdcone import (
    gl_act,
    invariant_operator_apply,
    is_minkowski_reduced,
    jacobi_decomposition,
    metric_norm,
    minkowski_reduce,
    partial_iwasawa,
    quadratic_short_vectors,
    random_spd,
    volume_density,
)
from realtori.tori import RealTorus, rational_representation

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


class TestReductionTest:
    """``is_minkowski_reduced`` decides Y read exactly, with no tolerance."""

    @settings(max_examples=60, deadline=None)
    @given(form=moved_forms(), k=st.integers(-200, 200))
    def test_answers_at_2_to_the_k(self, form, k):
        Y = form[0]
        for Z in (Y, minkowski_reduce(Y)[0], np.diag([2.0, 1.0]), np.diag([1.0, 2.0])):
            assert is_minkowski_reduced(np.ldexp(Z, k)) == is_minkowski_reduced(Z)

    @pytest.mark.parametrize("c", [1.0, 1e-12, 2.0 ** -40, 1e12])
    def test_unsorted_diagonal_at_every_scale(self, c):
        assert not is_minkowski_reduced(c * np.diag([2.0, 1.0]))
        assert is_minkowski_reduced(c * np.diag([1.0, 2.0]))

    def test_forms_near_the_largest_double(self):
        """Slacks of 2^1021 (I + J) overflow in floats; they are summed
        again in integers, without a warning."""
        Y = np.ldexp(np.eye(4) + np.ones((4, 4)), 1021)
        Z = Y.copy()
        Z[0, 0] *= 1.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_minkowski_reduced(Y) and not is_minkowski_reduced(Z)
            R, A = minkowski_reduce(Y)
        assert R.tobytes() == Y.tobytes() and A.tolist() == np.eye(4, dtype=int).tolist()

    def test_rounded_form_can_miss_a_tie_of_five_terms(self):
        """Y near 0.3 [[7, -4, -1], [-4, 7, -2], [-1, -2, 4]]: A Y tA is
        exactly reduced, with q(1, -1, 1) = R_22 exactly, a tie of R_00,
        R_11, R_01, R_02 and R_12; rounding R entry by entry breaks it."""
        Y = np.array([[2.1, -1.2, -0.3], [-1.2, 2.1, -0.6], [-0.3, -0.6, 1.2]])
        R, A = minkowski_reduce(Y)
        assert A.tolist() == [[0, 0, 1], [1, 1, 1], [0, 1, 0]]
        assert R.diagonal().tolist() == [1.2, 1.2000000000000002, 2.1]
        assert not is_minkowski_reduced(R)
        _, B = minkowski_reduce(R)
        assert B.tolist() != np.eye(3, dtype=int).tolist()


class TestScaleLaws:
    """The invariant objects of P_g at c Y against those at Y."""

    FORMS = [random_spd(g, np.random.default_rng(g)) for g in (1, 2, 3, 4)]

    @pytest.mark.parametrize("k", [-30, -7, 0, 5, 30])
    @pytest.mark.parametrize("h", [0, 2])
    def test_volume_density(self, k, h):
        c = 2.0 ** k * 1.7
        for Y in self.FORMS:
            g = len(Y)
            expected = c ** (-g * (g + h + 1) / 2) * volume_density(Y, h)
            assert volume_density(c * Y, h) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("c", [2.0 ** -200, 1e-6, 1.7, 2.0 ** 200])
    def test_metric_norm(self, c):
        rng = np.random.default_rng(3)
        for Y in self.FORMS:
            M = rng.normal(size=Y.shape)
            U = M + M.T
            assert metric_norm(c * Y, c * U) == pytest.approx(metric_norm(Y, U), rel=1e-12)

    @pytest.mark.parametrize("c", [2.0 ** -200, 1e-6, 1.7, 2.0 ** 200])
    def test_jacobi_and_iwasawa_scale_blockwise(self, c):
        for Y in self.FORMS:
            fac, scaled = jacobi_decomposition(Y), jacobi_decomposition(c * Y)
            np.testing.assert_allclose(scaled.W, fac.W, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(scaled.d, c * fac.d, rtol=1e-12, atol=0)
            for r in range(1, len(Y)):
                for variant in ("lower", "upper"):
                    b, bc = partial_iwasawa(Y, r, variant), partial_iwasawa(c * Y, r, variant)
                    np.testing.assert_allclose(bc.F, c * b.F, rtol=1e-12, atol=0)
                    np.testing.assert_allclose(bc.G, c * b.G, rtol=1e-12, atol=0)
                    np.testing.assert_allclose(bc.H, b.H, rtol=1e-12, atol=1e-15)

    def test_invariant_operators_of_log_det(self):
        """tr(Y d/dY) log det = g, and the order-2 operator is 0, at c I_2
        for every c = 2^k: the step is relative to Y."""
        def log_det(Z):
            return float(np.log(np.linalg.det(Z)))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(-200, 201):
                Y = 2.0 ** k * np.eye(2)
                assert abs(invariant_operator_apply(1, log_det, Y) - 2) <= 1e-6
                assert abs(invariant_operator_apply(2, log_det, Y)) <= 1e-5

    def test_non_finite_result_is_refused(self):
        with pytest.raises(ValueError, match="not finite"):
            invariant_operator_apply(1, lambda Z: math.inf, np.eye(2))


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


class TestRationalRepresentationScale:
    """Pi = c P and Pi' = c P' at c = 2^k, k = -200..200 in steps of 5: the
    map Phi = P' R0 P^-1 has R0 as its representation at every scale, and
    Phi moved by half a lattice step has none."""

    SCALES = [2.0 ** k for k in range(-200, 201, 5)]

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_answer_is_the_same_in_every_unit(self, g):
        rng = np.random.default_rng(70 + g)
        P, Pp = random_spd(g, rng), random_spd(g, rng) + 0.3 * rng.normal(size=(g, g))
        R0 = rng.integers(-3, 4, size=(g, g))
        Pinv = np.linalg.inv(P)
        true, moved = Pp @ R0 @ Pinv, Pp @ (R0 + 0.5 * np.eye(g)) @ Pinv
        for c in self.SCALES:
            T, Tp = RealTorus(Pi=c * P), RealTorus(Pi=c * Pp)
            R = rational_representation(true, T, Tp)
            assert R is not None and np.array_equal(R.astype(int), R0), c
            assert rational_representation(moved, T, Tp) is None, c

    def test_half_step_is_refused_at_a_small_unit(self):
        T = RealTorus(Pi=1e-12 * np.eye(2))
        assert rational_representation(2.5 * np.eye(2), T, T) is None
