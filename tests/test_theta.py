import cmath
import dataclasses
import itertools
import json
import math
import re
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realtori import cli, spdcone
from realtori import theta as theta_module
from realtori.spdcone import random_spd
from realtori.theta import (
    CanonicalBundle,
    SemiCharacter,
    ThetaSpec,
    automorphic_factor_eval,
    canonical_line_bundle_data,
    canonical_semicharacter,
    canonical_semicharacter_data,
    factor_i_b_rho,
    periodic_function_eval,
    semicharacter_check,
    theta_eval,
    theta_transform_residual,
)


def theta_oracle(spec: ThetaSpec, v, box=8):
    """Independent direct summation over a coordinate box."""
    g = spec.g
    total = 0.0 + 0.0j
    v = np.asarray(v, dtype=float)
    angles = np.angle(spec.rho)
    for n in itertools.product(range(-box, box + 1), repeat=g):
        nv = np.array(n, dtype=float)
        lam = spec.Pi @ nv
        quad = float(lam @ spec.B @ lam)
        lin = float(v @ spec.B @ lam)
        total += cmath.exp(-1j * float(np.dot(angles, n)) - math.pi * quad
                           - 2 * math.pi * lin)
    return total


def unit_spec():
    return ThetaSpec(Pi=np.eye(1), B=np.eye(1), rho=np.ones(1, dtype=complex))


@pytest.fixture
def reductions(monkeypatch):
    """The bases that the enumerator's ``_reduced_basis`` returns while theta
    sums walk their boxes, one for each box it compares with a reduced one."""
    seen = []
    reduced_basis = spdcone._reduced_basis

    def counting(P):
        seen.append(reduced_basis(P))
        return seen[-1]

    monkeypatch.setattr(spdcone, "_reduced_basis", counting)
    return seen


def box_points(spec, v):
    """Points of the box that theta walks for v in the given basis."""
    Q = spec._Q
    ellipsoid = theta_module._ellipsoid(spdcone._Form(Q), theta_module._linear(spec, v))
    return theta_module._tail_box(Q, ellipsoid, 1e-12).count


def sheared_spec(U, d, x):
    """The lattice tU Z^g = Z^g with B = diag(d), at v = tU x, and its theta
    summed in the basis m = tU n where the form is diagonal: the product
    over i of sum_m exp(-pi d_i m^2 - 2 pi d_i v_i m).  For integer U and
    dyadic d the Gram form U diag(d) tU is exact in floats."""
    U, d = np.asarray(U, dtype=float), np.asarray(d, dtype=float)
    spec = ThetaSpec(Pi=U.T, B=np.diag(d), rho=np.ones(len(d)))
    v = U.T @ np.asarray(x, dtype=float)
    m = np.arange(-60, 61)
    ref = math.prod(float(np.sum(np.exp(-math.pi * di * m * m - 2 * math.pi * di * vi * m)))
                    for di, vi in zip(d, v))
    return spec, v, ref


class TestThetaEval:
    def test_classical_value(self):
        val = theta_eval(unit_spec(), [0.0])
        oracle = sum(math.exp(-math.pi * n * n) for n in range(-8, 9))
        assert abs(val - oracle) < 1e-12
        assert abs(val - 1.08643481) < 1e-8

    def test_real_and_at_least_one(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            v = rng.uniform(-2, 2, size=1)
            val = theta_eval(unit_spec(), v)
            assert abs(val.imag) < 1e-12
        assert theta_eval(unit_spec(), [0.0]).real >= 1.0

    def test_matches_oracle_g2(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            Pi = rng.normal(size=(2, 2)) + 2 * np.eye(2)
            B = random_spd(2, rng) + np.eye(2)
            phases = rng.uniform(0, 2 * math.pi, size=2)
            spec = ThetaSpec(Pi=Pi, B=B, rho=np.exp(1j * phases))
            v = rng.uniform(-1, 1, size=2)
            assert abs(theta_eval(spec, v) - theta_oracle(spec, v)) < 1e-9

    def test_symmetry_for_trivial_character(self):
        rng = np.random.default_rng(2)
        spec = ThetaSpec(Pi=np.eye(2), B=random_spd(2, rng) + np.eye(2),
                         rho=np.ones(2, dtype=complex))
        for _ in range(10):
            v = rng.uniform(-1, 1, size=2)
            assert abs(theta_eval(spec, v) - theta_eval(spec, -v)) < 1e-12

    def test_tail_certification(self):
        # widening the box in the oracle does not move the certified value
        rng = np.random.default_rng(3)
        for _ in range(20):
            Pi = np.eye(1) * rng.uniform(0.8, 1.5)
            B = np.eye(1) * rng.uniform(0.8, 2.0)
            spec = ThetaSpec(Pi=Pi, B=B, rho=np.ones(1, dtype=complex))
            v = rng.uniform(-0.5, 0.5, size=1)
            val = theta_eval(spec, v, eps=1e-12)
            assert abs(val - theta_oracle(spec, v, box=12)) < 1e-11

    def test_unreachable_eps(self):
        """1e-3 I at g = 4 needs a box of about 4.1e9 points, more than the
        121^4 of the largest enumeration: refused before any summation."""
        bundle = canonical_line_bundle_data(1e-3 * np.eye(4))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="unreachable"):
            bundle.section(np.zeros(4))
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("eps", [0.0, -1e-12, math.nan])
    def test_tolerance_must_be_positive(self, eps):
        with pytest.raises(ValueError, match="positive"):
            theta_eval(unit_spec(), [0.1], eps=eps)

    def test_overflowing_gram_form_is_refused_without_warnings(self):
        """Pi = 1e200 makes the Gram form overflow to inf.  The factor of a
        far argument is inf, returned for the caller to refuse before the sum
        is sized, and the form has no finite inverse to find the cell of an
        argument in the cell, whose value is NaN; no step warns (warnings are
        errors in this suite)."""
        spec = ThetaSpec(Pi=[[1e200]], B=[[1.0]], rho=[1.0])
        assert not cmath.isfinite(theta_eval(spec, [1e300]))
        assert not cmath.isfinite(factor_i_b_rho(spec, [1], [0.5]))
        assert not cmath.isfinite(theta_eval(spec, [0.5]))

    def test_underflowed_gram_form_is_refused_by_its_cause(self):
        """Pi = diag(1e-200, 1) makes the Gram form round to diag(0, 1),
        finite and without an inverse: ValueError names it, in the cell and
        out of it.  A form whose diagonal is NaN keeps the NaN value."""
        spec = ThetaSpec(Pi=[[1e-200, 0.0], [0.0, 1.0]], B=np.eye(2), rho=np.ones(2))
        assert spec.gram().tolist() == [[0.0, 0.0], [0.0, 1.0]]
        for v in ([0.1, 0.3], [1e300, 0.3]):
            with pytest.raises(ValueError, match="^Gram form is not invertible in floating point$"):
                theta_eval(spec, v)
        nan = ThetaSpec(Pi=np.eye(2), B=np.eye(2), rho=np.ones(2))
        theta_module._set(nan, np.array([[math.nan, 0.0], [0.0, 1.0]]), None, None)
        assert cmath.isnan(theta_eval(nan, [0.1, 0.3]))

    def test_tolerance_is_checked_before_any_other_work(self):
        """An argument whose factor overflows, a residual far out and a form
        that is not integral: the tolerance is refused first."""
        with pytest.raises(ValueError, match="tolerance must be positive"):
            theta_eval(unit_spec(), [1000.3], eps=-1.0)
        with pytest.raises(ValueError, match="tolerance must be positive"):
            theta_transform_residual(unit_spec(), [1000], [0.3], eps=-1.0)
        spec = ThetaSpec(Pi=np.eye(1), B=np.eye(1) * 1.37, rho=np.ones(1, dtype=complex))
        with pytest.raises(ValueError, match="tolerance must be positive"):
            periodic_function_eval(spec, [0.0], eps=0.0)

    def test_large_offset(self):
        """The k = 0 term is 1 and every other one is below e^(-4000 pi); the
        offset w Q^-1 w = 900 is compared in logs, never exponentiated."""
        spec = ThetaSpec(Pi=[[1.0]], B=[[1e4]], rho=[1.0])
        assert abs(theta_eval(spec, [0.3]) - 1.0) < 1e-12

    def test_small_form_matches_product(self):
        """Y = 1e-3 I at g = 2 is a product of two one-dimensional sums."""
        v = [1e-4, 2e-4]
        n = np.arange(-400, 401)
        ref = math.prod(math.fsum(np.exp(-math.pi * 1e-3 * n * n - 2 * math.pi * x * n).tolist())
                        for x in v)
        val = canonical_line_bundle_data(1e-3 * np.eye(2)).section(v)
        assert abs(ref - 1000.15709197033) < 1e-9
        assert abs(val - ref) < 1e-12 * ref

    def test_small_form_matches_mpmath_jtheta(self):
        mpmath = pytest.importorskip("mpmath")
        spec = ThetaSpec(Pi=[[1.0]], B=[[1e-4]], rho=[1.0])
        # sum_n exp(-pi b n^2 - 2 pi b v n) = theta_3(i pi b v, exp(-pi b))
        ref = complex(mpmath.jtheta(3, mpmath.mpc(0, math.pi * 1e-4 * 0.1),
                                    mpmath.exp(-mpmath.pi * 1e-4)))
        assert abs(theta_eval(spec, [0.1]) - ref) < 1e-12 * abs(ref)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_character_is_refused(self, bad):
        with pytest.raises(ValueError, match="modulus one"):
            ThetaSpec(Pi=[[1.0]], B=[[1.0]], rho=[complex(bad, 0.0)])

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_value_does_not_depend_on_the_scale(self, g):
        """(s Pi, B / s^2, s v) has the same Gram form and argument in lattice
        coordinates, so the same value, also where |det(s Pi)| < 1e-12."""
        rng = np.random.default_rng(20 + g)
        Pi = rng.normal(size=(g, g)) + 2 * np.eye(g)
        B = random_spd(g, rng) + np.eye(g)
        rho = np.exp(1j * rng.uniform(0, 2 * math.pi, size=g))
        v = Pi @ rng.uniform(-0.5, 0.5, size=g)
        ref = theta_eval(ThetaSpec(Pi=Pi, B=B, rho=rho), v)
        for s in (1e-7, 1e-3, 1.0, 1e3):
            val = theta_eval(ThetaSpec(Pi=s * Pi, B=B / s**2, rho=rho), s * v)
            assert abs(val - ref) < 1e-12 * abs(ref)

    @pytest.mark.parametrize("Pi", [
        [[1.0, 2.0], [2.0, 4.0]],
        [[0.0, 0.0], [0.0, 1.0]],
        [[1e-7, 2e-7], [2e-7, 4e-7]],
        [[1e7, 1e7], [1e7, 1e7 * (1 + 1e-15)]],
    ])
    def test_singular_basis_is_refused(self, Pi):
        with pytest.raises(ValueError, match="invertible"):
            ThetaSpec(Pi=Pi, B=np.eye(2), rho=np.ones(2, dtype=complex))


def sheared(g):
    """Unimodular shears with entries up to 4 whose inverses stay small."""
    U = np.eye(g)
    U[0, 1] = 4.0
    if g == 3:
        U[2, 1] = -2.0
    return U


class TestReducedSummation:
    # with Q0 >= 2 I and |f| <= 1/4 every term the oracle box misses is below
    # exp(-2 pi 2.75^2) times the largest; a box of 16 holds U^-1 k for |k| <= 3.
    # These boxes are small enough to be walked in the given basis.

    @pytest.mark.parametrize("g", [2, 3])
    def test_sheared_explicit_spec(self, g, reductions):
        rng = np.random.default_rng(40 + g)
        U = sheared(g)
        for _ in range(2):
            Q0 = np.diag(rng.uniform(2.0, 3.0, size=g)) + 0.1 * random_spd(g, rng)
            spec = ThetaSpec(Pi=U, B=Q0, rho=np.exp(1j * rng.uniform(0, 2 * math.pi, size=g)))
            v = U @ rng.uniform(-0.25, 0.25, size=g)
            ref = theta_oracle(spec, v, box=16)
            assert abs(theta_eval(spec, v) - ref) < 1e-10 * max(1.0, abs(ref))
        assert not reductions

    @pytest.mark.parametrize("g", [2, 3])
    def test_sheared_canonical_bundle(self, g, reductions):
        rng = np.random.default_rng(50 + g)
        U = sheared(g)
        Y = U.T @ (np.diag(rng.uniform(2.0, 3.0, size=g)) + 0.1 * random_spd(g, rng)) @ U
        bundle = canonical_line_bundle_data(Y)
        v = Y @ rng.uniform(-0.25, 0.25, size=g)
        ref = theta_oracle(bundle.spec, v, box=16)
        assert abs(bundle.section(v) - ref) < 1e-10 * max(1.0, abs(ref))
        assert not reductions

    def test_g1_matches_mpmath_jtheta(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(60)
        for _ in range(10):
            p, b = rng.uniform(0.5, 1.5, size=2)
            phi = rng.uniform(-math.pi, math.pi)
            v = rng.uniform(-2.0, 2.0)
            spec = ThetaSpec(Pi=[[p]], B=[[b]], rho=[cmath.exp(1j * phi)])
            # sum_n exp(-i phi n - pi p^2 b n^2 - 2 pi p b v n) = theta_3(z, q)
            z = mpmath.mpc(-phi / 2, math.pi * p * b * v)
            ref = complex(mpmath.jtheta(3, z, mpmath.exp(-mpmath.pi * p * p * b)))
            assert abs(theta_eval(spec, [v]) - ref) < 1e-10 * max(1.0, abs(ref))

    def test_g5_runs_unreduced(self):
        rng = np.random.default_rng(70)
        B = np.diag(rng.uniform(2.5, 3.5, size=5)) + 0.1 * random_spd(5, rng)
        spec = ThetaSpec(Pi=np.eye(5), B=B, rho=np.exp(1j * rng.uniform(0, 2 * math.pi, size=5)))
        v = rng.uniform(-0.25, 0.25, size=5)
        ref = theta_oracle(spec, v, box=3)
        assert abs(theta_eval(spec, v) - ref) < 1e-10 * max(1.0, abs(ref))

    def test_reduction_overflow_is_bad_input(self):
        # Y = diag(1e-12, 1): the argument lies about 1e11 cells away, so the
        # factor of the translate overflows; it is evaluated, and returned as
        # inf for the caller to refuse, before the sum walks its box of ~8e7
        # points
        bundle = canonical_line_bundle_data(np.diag([1e-12, 1.0]))
        start = time.perf_counter()
        assert not cmath.isfinite(bundle.section([0.1, 0.2]))
        assert time.perf_counter() - start < 0.5

    def test_large_box_memory_is_bounded(self):
        bundle = canonical_line_bundle_data(0.05 * np.eye(4))
        v = np.array([0.01, 0.02, -0.01, 0.0])
        n = np.arange(-200, 201)
        ref = math.prod(float(np.sum(np.exp(-math.pi * 0.05 * n * n - 2 * math.pi * x * n)))
                        for x in v)
        tracemalloc.start()
        try:
            val = bundle.section(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(val - ref) < 1e-10 * ref
        assert peak < 32 * 2**20


class TestReductionDecision:
    """A theta sum is walked in a reduced basis only where the ellipsoid's
    box in the given basis holds more than ``spdcone._REBASE_ABOVE`` points."""

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_well_conditioned_forms_are_summed_as_given(self, g, reductions):
        rng = np.random.default_rng(80 + g)
        for _ in range(3):
            O, _ = np.linalg.qr(rng.normal(size=(g, g)))
            B = (O * rng.uniform(1.0, 2.0, size=g)) @ O.T
            spec = ThetaSpec(Pi=np.eye(g), B=0.5 * (B + B.T),
                             rho=np.exp(1j * rng.uniform(0, 2 * math.pi, size=g)))
            v = rng.uniform(-0.45, 0.45, size=g)
            ref = theta_oracle(spec, v, box=5)
            assert abs(theta_eval(spec, v) - ref) < 1e-10 * max(1.0, abs(ref))
        assert not reductions

    # a form of each dimension whose boxes hold 2,175-3,996 points
    NEAR_THRESHOLD = {
        2: ([[1, -2], [-3, 7]], [0.375, 0.375]),
        3: ([[1, 3, 0], [0, 1, 0], [0, 1, 1]], [0.4375, 0.625, 0.625]),
        4: ([[1, 3, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]], [2.0, 2.25, 2.25, 2.25]),
    }

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_skewed_box_below_the_threshold(self, g, reductions):
        """A value t(k) Q k + b.k of a skewed basis cancels terms much larger
        than itself; the sums still match the sum in the diagonal basis."""
        U, d = self.NEAR_THRESHOLD[g]
        rng = np.random.default_rng(90 + g)
        for _ in range(3):
            spec, v, ref = sheared_spec(U, d, rng.uniform(-0.45, 0.45, size=g))
            assert spdcone._REBASE_ABOVE / 2 < box_points(spec, v) <= spdcone._REBASE_ABOVE
            assert abs(theta_eval(spec, v) - ref) < 1e-13 * abs(ref)
        assert not reductions

    def test_gram_form_is_symmetric(self):
        """The walk reads one triangle of the Gram form and ``eigvalsh`` the
        other; Pi^T B Pi of a skewed canonical bundle rounds asymmetrically."""
        Y = [[164.94322850390964, 44.67977357088689], [44.67977357088689, 12.116028210103812]]
        Q = canonical_line_bundle_data(Y).spec.gram()
        assert np.array_equal(Q, Q.T)

    def test_large_box_is_reduced_once(self, reductions):
        """A bidiagonal shear by 5 at g = 3: ~7e4 box points in the given
        basis, a few hundred in the reduced one."""
        U = np.eye(3) + 5 * np.eye(3, k=1)
        spec, v, ref = sheared_spec(U, [1.0, 1.0, 1.0], [0.3, -0.2, 0.1])
        assert box_points(spec, v) > 40_000
        assert abs(theta_eval(spec, v) - ref) < 1e-13 * abs(ref)
        assert len(reductions) == 1 and reductions[0] not in (None, np.eye(3, dtype=int).tolist())
        best = math.inf
        for _ in range(5):
            start = time.perf_counter()
            theta_eval(spec, v)
            best = min(best, time.perf_counter() - start)
        assert best < 2e-3


class TestTransformationLaw:
    def test_zero_translate(self):
        assert theta_transform_residual(unit_spec(), [0], [0.4]) < 1e-13

    def test_scalar_case(self):
        assert theta_transform_residual(unit_spec(), [1], [0.3]) < 1e-9

    def test_random_g2(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            Pi = 0.2 * rng.normal(size=(2, 2)) + np.eye(2)
            B = random_spd(2, rng)
            B = 0.4 * B / np.trace(B) + 0.1 * np.eye(2)
            phases = rng.uniform(0, 2 * math.pi, size=2)
            spec = ThetaSpec(Pi=Pi, B=B, rho=np.exp(1j * phases))
            lam = rng.integers(-1, 2, size=2)
            v = rng.uniform(-0.5, 0.5, size=2)
            assert theta_transform_residual(spec, lam, v) < 1e-9

    def test_cell_reduction_consistency(self):
        # theta_eval at shifted arguments uses the law internally
        spec = unit_spec()
        v = np.array([0.3])
        direct = theta_eval(spec, v + 5.0)
        factor = factor_i_b_rho(spec, [5], v)
        assert abs(direct - factor * theta_eval(spec, v)) < 1e-6 * abs(direct)


class TestPeriodicFunction:
    def test_periodicity(self):
        spec = unit_spec()
        rng = np.random.default_rng(5)
        for _ in range(10):
            v = rng.uniform(-1, 1, size=1)
            a = periodic_function_eval(spec, v)
            b = periodic_function_eval(spec, v + 1.0)
            assert abs(a - b) < 1e-10

    def test_value_at_zero(self):
        val = periodic_function_eval(unit_spec(), [0.0])
        oracle = sum(math.exp(-math.pi * n * n) for n in range(-8, 9))
        assert abs(val - oracle) < 1e-12

    def test_non_integral_rejected(self):
        spec = ThetaSpec(Pi=np.eye(1), B=np.eye(1) * 1.37, rho=np.ones(1, dtype=complex))
        with pytest.raises(ValueError):
            periodic_function_eval(spec, [0.0])

    @pytest.mark.parametrize("Pi, B", [
        ([[1e-200]], [[1e-200]]),
        ([[1e-200, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]),
    ])
    def test_float_singular_integral_form_is_refused(self, Pi, B):
        """The Gram form underflows to the integral diag(0, ...), which the
        enumerator cannot invert: every box is infinite, so the sum is
        refused at every argument, and theta, which has no cell, refuses the
        form by that cause."""
        spec = ThetaSpec(Pi=Pi, B=B, rho=np.ones(len(Pi), dtype=complex))
        for x in (0.0, 0.3, 1e300):
            v = np.full(len(Pi), x)
            with pytest.raises(ValueError, match="unreachable: enumeration box of inf points"):
                periodic_function_eval(spec, v)
            with pytest.raises(ValueError, match="Gram form is not invertible in floating point"):
                theta_eval(spec, v)

    def test_periodicity_g2(self):
        spec = ThetaSpec(Pi=np.eye(2), B=np.array([[2.0, 1.0], [1.0, 3.0]]),
                         rho=np.ones(2, dtype=complex))
        rng = np.random.default_rng(6)
        for _ in range(5):
            v = rng.uniform(-1, 1, size=2)
            lam = rng.integers(-2, 3, size=2).astype(float)
            a = periodic_function_eval(spec, v)
            b = periodic_function_eval(spec, v + lam)
            assert abs(a - b) < 1e-10


class TestSemiCharacters:
    def test_canonical_values(self):
        Y = random_spd(2, np.random.default_rng(7))
        assert canonical_semicharacter(Y, [0, 0], [1, 2]) == 1.0
        assert canonical_semicharacter(Y, [1, 2], [0, 0]) == 1.0
        assert canonical_semicharacter(np.eye(1), [1], [1]) == -1.0

    def test_canonical_consistency_with_data(self):
        Y = random_spd(2, np.random.default_rng(8))
        alpha = canonical_semicharacter_data(Y)
        rng = np.random.default_rng(9)
        for _ in range(30):
            kappa = rng.integers(-3, 4, size=2)
            lam = rng.integers(-3, 4, size=2)
            n = np.concatenate([kappa, lam])
            assert abs(alpha.eval(n) - canonical_semicharacter(Y, kappa, lam)) < 1e-12

    def test_extension_rule_canonical(self):
        Y = random_spd(2, np.random.default_rng(10))
        alpha = canonical_semicharacter_data(Y)
        assert semicharacter_check(alpha, trials=100) < 1e-12

    def test_trivial_with_zero_form(self):
        from realtori.theta import SemiCharacter

        basis = np.zeros((1, 2), dtype=complex)
        basis[0, 0] = 1.0
        basis[0, 1] = 1j
        alpha = SemiCharacter(basis=basis, values=np.ones(2, dtype=complex),
                              E=np.zeros((2, 2), dtype=int))
        assert semicharacter_check(alpha, trials=50) == 0.0

    def test_odd_pairing_breaks_trivial_values(self):
        # identically-one values extended as a plain character violate the
        # rule as soon as the claimed pairing is odd somewhere
        from realtori.theta import SemiCharacter

        class PlainCharacter(SemiCharacter):
            def eval(self, n) -> complex:
                return cmath.exp(1j * float(np.dot(np.angle(self.values), n)))

        basis = np.zeros((1, 2), dtype=complex)
        basis[0, 0] = 1.0
        basis[0, 1] = 1j
        E = np.array([[0, 1], [-1, 0]], dtype=int)
        alpha = PlainCharacter(basis=basis, values=np.ones(2, dtype=complex), E=E)
        assert abs(semicharacter_check(alpha, trials=200) - 2.0) < 1e-12


class TestAutomorphicFactors:
    def test_zero_vector_gives_one(self):
        Y = random_spd(2, np.random.default_rng(11))
        bundle = canonical_line_bundle_data(Y)
        z = np.array([0.1 + 0.2j, -0.3 + 0.1j])
        assert abs(automorphic_factor_eval("J_H_alpha", bundle, np.zeros(4, dtype=int), z) - 1) < 1e-14
        assert abs(automorphic_factor_eval("I_alpha", bundle, np.zeros(2, dtype=int), [0.1, 0.2]) - 1) < 1e-14
        assert abs(automorphic_factor_eval("I_B_alpha", bundle, np.zeros(2, dtype=int), [0.1, 0.2]) - 1) < 1e-14
        spec = unit_spec()
        assert abs(automorphic_factor_eval("I_B_rho", spec, [0], [0.0]) - 1) < 1e-14

    def test_scalar_value(self):
        spec = unit_spec()
        val = automorphic_factor_eval("I_B_rho", spec, [1], [0.0])
        assert abs(val - math.exp(math.pi)) < 1e-12

    def test_cocycle_identities(self):
        rng = np.random.default_rng(12)
        spec = ThetaSpec(Pi=0.3 * rng.normal(size=(2, 2)) + np.eye(2),
                         B=random_spd(2, rng) / 3.0 + 0.2 * np.eye(2),
                         rho=np.exp(1j * rng.uniform(0, 2 * math.pi, size=2)))
        for _ in range(30):
            l1 = rng.integers(-1, 2, size=2)
            l2 = rng.integers(-1, 2, size=2)
            v = rng.uniform(-0.5, 0.5, size=2)
            lam2 = spec.Pi @ l2.astype(float)
            lhs = factor_i_b_rho(spec, l1 + l2, v)
            rhs = factor_i_b_rho(spec, l1, lam2 + v) * factor_i_b_rho(spec, l2, v)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_j_factor_cocycle(self):
        rng = np.random.default_rng(13)
        Y = random_spd(2, rng)
        bundle = canonical_line_bundle_data(Y)
        for _ in range(30):
            n1 = rng.integers(-2, 3, size=4)
            n2 = rng.integers(-2, 3, size=4)
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            ell2 = bundle.alpha.vector(n2)
            lhs = automorphic_factor_eval("J_H_alpha", bundle, n1 + n2, z)
            rhs = automorphic_factor_eval("J_H_alpha", bundle, n1, z + ell2) \
                * automorphic_factor_eval("J_H_alpha", bundle, n2, z)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            automorphic_factor_eval("nope", unit_spec(), [0], [0.0])


class TestCanonicalBundle:
    def test_section_matches_direct_sum(self):
        bundle = canonical_line_bundle_data(np.eye(1))
        val = bundle.section([0.0])
        oracle = sum(math.exp(-math.pi * n * n) for n in range(-8, 9))
        assert abs(val - oracle) < 1e-12

    def test_section_property(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            Y = random_spd(2, rng) + np.eye(2)
            bundle = canonical_line_bundle_data(Y)
            n = rng.integers(-1, 2, size=2)
            v = rng.uniform(-0.5, 0.5, size=2)
            lam = Y @ n.astype(float)
            lhs = bundle.section(v + lam, eps=1e-13)
            factor = automorphic_factor_eval("I_B_alpha", bundle, n, v)
            rhs = factor * bundle.section(v, eps=1e-13)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))

    def test_is_dataclass_with_spec(self):
        bundle = canonical_line_bundle_data(np.eye(2))
        assert isinstance(bundle, CanonicalBundle)
        assert np.allclose(bundle.spec.B, np.eye(2))
        assert np.allclose(bundle.spec.rho, 1.0)
        # the spec is the one ThetaSpec builds, and checks, from Y, Y^-1 and ones
        Y = random_spd(3, np.random.default_rng(62)) + np.eye(3)
        spec = canonical_line_bundle_data(Y).spec
        expected = ThetaSpec(Pi=Y, B=np.linalg.inv(Y), rho=np.ones(3, dtype=complex))
        for field in dataclasses.fields(ThetaSpec):
            got, want = getattr(spec, field.name), getattr(expected, field.name)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    @pytest.mark.parametrize("Y, message", [
        ([[1.0, 0.5], [0.4, 1.0]], "SPD matrix must be symmetric"),
        ([[1.0, 2.0], [2.0, 1.0]], "matrix is not positive definite"),
        ([[1.0, math.inf], [math.inf, 1.0]], "SPD matrix must have finite entries"),
    ])
    def test_bad_forms_are_refused(self, Y, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            canonical_line_bundle_data(np.array(Y))

    def test_infinite_inverse_is_refused_when_read(self):
        """Y^-1 = diag(1e320, 1) is not finite.  The bundle and its factors
        read Y alone, and B = Y^-1 is refused when it is read."""
        bundle = canonical_line_bundle_data(np.array([[1e-320, 0.0], [0.0, 1.0]]))
        assert automorphic_factor_eval("I_B_alpha", bundle, [0, 1], [0.0, 0.0]) \
            == cmath.exp(math.pi)
        with pytest.raises(ValueError, match=re.escape("SPD matrix must have finite entries")):
            bundle.spec.B

    @pytest.mark.parametrize("Y", [
        [[1.0, 1 - 1e-14], [1 - 1e-14, 1.0]],
        [[1e-7, 1e-7 - 1e-21], [1e-7 - 1e-21, 1e-7]],
    ])
    def test_nearly_singular_forms_build_and_their_sums_are_refused(self, run_cli, Y):
        """The Cholesky proof passes, so Y is positive definite and hence
        invertible: the bundle builds.  Its section at 0 needs a box of far
        more points than the enumerator walks, and the request is refused."""
        assert canonical_line_bundle_data(np.array(Y)).spec.g == 2
        code, out = run_cli(json.dumps({"cmd": "theta", "Y": Y, "v": [0.0, 0.0]}))
        assert code == 2
        assert re.search(r"unreachable: enumeration box of \S+ points exceeds",
                         json.loads(out)["error"])

    def test_alpha_is_the_canonical_semicharacter(self):
        """``alpha`` equals ``canonical_semicharacter_data`` field by field and
        is built once (a ``theta`` request builds none: ``test_cli.py``)."""
        Y = random_spd(3, np.random.default_rng(61)) + np.eye(3)
        bundle = canonical_line_bundle_data(Y)
        expected = canonical_semicharacter_data(Y)
        for field in dataclasses.fields(SemiCharacter):
            assert np.array_equal(getattr(bundle.alpha, field.name), getattr(expected, field.name))
        assert bundle.alpha is bundle.alpha

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_rho_is_the_semicharacter_on_the_real_lattice(self, g):
        """rho_j = alpha(2 i lam_j), which is one for every j."""
        rng = np.random.default_rng(60 + g)
        for _ in range(5):
            bundle = canonical_line_bundle_data(random_spd(g, rng) + np.eye(g))
            doubled = 2 * np.eye(2 * g, dtype=int)[g:]
            assert bundle.spec.rho.tolist() == [bundle.alpha.eval(n) for n in doubled]


class TestGoldenTheta:
    def test_golden_values_match_the_oracle(self):
        """Every answered theta case of ``golden/cli_out.json`` agrees with the
        brute-force sum within 1e-10 relative, or within the tolerance the
        case asks for when that is looser."""
        golden = Path(__file__).parent / "golden"
        cases = json.loads((golden / "cli_in.json").read_text(encoding="utf-8"))
        answers = json.loads((golden / "cli_out.json").read_text(encoding="utf-8"))
        checked = 0
        for case, answer in zip(cases, answers):
            if answer["code"] != 0 or not case["input"].startswith('{"cmd": "theta"'):
                continue
            request = json.loads(case["input"])
            out = json.loads(answer["output"])
            if "Pi" in request:
                spec = ThetaSpec(Pi=request["Pi"], B=request["B"],
                                 rho=cli.decode_vector(request["rho"], "complex")
                                 if "rho" in request else np.ones(len(request["Pi"])))
            else:
                Y = np.array(request["Y"])
                spec = ThetaSpec(Pi=Y, B=np.linalg.inv(Y), rho=np.ones(len(Y)))
            ref = theta_oracle(spec, request["v"])
            value = complex(out["value"]["re"], out["value"]["im"])
            assert abs(value - ref) <= max(1e-10 * abs(ref), out["eps"])
            checked += 1
        assert checked == 10


def mpmath_section(Y: np.ndarray, v: np.ndarray):
    """sum_k exp(-pi t(k) Y k - 2 pi v.k) at 40 digits, Y and v read exactly,
    over every k whose term is within e^-60 of the largest."""
    mpmath = pytest.importorskip("mpmath")
    g = len(Y)
    c = -np.linalg.solve(Y, v)
    r2 = 60.0 / math.pi
    half = np.sqrt(r2 * np.diag(np.linalg.inv(Y))) + 1
    axes = [np.arange(math.floor(ci - h), math.ceil(ci + h) + 1) for ci, h in zip(c, half)]
    K = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, g)
    d = K - c
    K = K[np.einsum("ni,ij,nj->n", d, Y, d) <= r2].tolist()
    with mpmath.workdps(40):
        Yq = [[mpmath.mpf(x) for x in row] for row in Y.tolist()]
        vq = [mpmath.mpf(x) for x in v.tolist()]
        return sum(mpmath.exp(-mpmath.pi * sum(Yq[i][j] * k[i] * k[j]
                                               for i in range(g) for j in range(g))
                              - 2 * mpmath.pi * sum(a * b for a, b in zip(vq, k)))
                   for k in K)


def workload_form(rng, g: int, sheared: bool) -> np.ndarray:
    """A form with eigenvalues in [1, 2], or 1.1 I in a basis sheared by 4
    (g = 2) or 3 (g = 3) and signed-permuted, as the ``theta`` benchmark
    draws them."""
    if sheared and g > 1:
        U = np.eye(g)
        U[0, 1] = 4.0 if g == 2 else 3.0
        P = np.eye(g)[rng.permutation(g)] * rng.choice([-1.0, 1.0], g)
        Y = (P @ U @ P.T) @ (1.1 * np.eye(g)) @ (P @ U @ P.T).T
    else:
        O, _ = np.linalg.qr(rng.normal(size=(g, g)))
        Y = (O * rng.uniform(1.0, 2.0, size=g)) @ O.T
    return 0.5 * (Y + Y.T)


def cells_out(rng, Y: np.ndarray, f: np.ndarray, cap: float = 200.0) -> np.ndarray:
    """Integer cell coordinates m in [-2, 2]^g with pi (Y[m] + 2 |f Y m|) <= cap."""
    while True:
        m = rng.integers(-2, 3, size=len(Y))
        if math.pi * (m @ Y @ m + 2 * abs(f @ Y @ m)) <= cap:
            return m


def spec_maker(g: int, seed: int, canonical: bool):
    """The lattice basis and Gram form of one datum, with a function that
    builds a new spec of it at each call: the canonical bundle of a sheared
    ``workload_form`` Q, or an explicit spec with that Gram form about Q."""
    rng = np.random.default_rng(seed)
    Q = workload_form(rng, g, sheared=True)
    if canonical:
        return Q, Q, lambda: canonical_line_bundle_data(Q).spec
    Pi = np.eye(g) + 0.2 * rng.normal(size=(g, g))
    Pinv = np.linalg.inv(Pi)
    B = Pinv.T @ Q @ Pinv
    B = 0.5 * (B + B.T)
    rho = np.exp(1j * rng.uniform(0, 2 * math.pi, size=g))
    return Pi, Q, lambda: ThetaSpec(Pi=Pi, B=B, rho=rho)


class TestPlan:
    """Each theta sum forms its own enumerator form and tail terms from the
    spec's fields, and the canonical section is summed from Y itself."""

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_canonical_section_matches_a_40_digit_sum(self, g):
        """Relative error at most 5e-14 at arguments in the cell and a few
        cells out; eps = 1e-17 leaves the truncation far below that.  Summed
        through tY Y^-1 Y, the errors reached 5e-13."""
        rng = np.random.default_rng(1000 + g)
        worst = 0.0
        for sheared in (False, True):
            for _ in range(3):
                Y = workload_form(rng, g, sheared)
                bundle = canonical_line_bundle_data(Y)
                for _ in range(4):
                    f = rng.uniform(-0.45, 0.45, size=g)
                    v = Y @ (cells_out(rng, Y, f) + f)
                    ref = mpmath_section(Y, v)
                    value = bundle.section(v, eps=1e-17)
                    worst = max(worst, float(abs(value - complex(ref)) / abs(ref)))
        assert worst <= 5e-14

    @settings(max_examples=60, deadline=None)
    @given(g=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), sheared=st.booleans(),
           eps=st.sampled_from([1e-6, 1e-12, 1e-15]))
    def test_canonical_section_agrees_with_the_explicit_spec(self, g, seed, sheared, eps):
        """The section summed from Y and the explicit spec (Y, Y^-1, 1)
        summed from its Gram form tY Y^-1 Y agree within both tolerances
        plus 1e-12 relative."""
        rng = np.random.default_rng(seed)
        Y = workload_form(rng, g, sheared)
        f = rng.uniform(-0.45, 0.45, size=g)
        v = Y @ (cells_out(rng, Y, f) + f)
        a = canonical_line_bundle_data(Y).section(v, eps=eps)
        b = theta_eval(ThetaSpec(Pi=Y, B=np.linalg.inv(Y), rho=np.ones(g)), v, eps=eps)
        assert abs(a - b) <= 2 * eps * max(1.0, abs(b)) + 1e-12 * abs(b)

    @settings(max_examples=40, deadline=None)
    @given(g=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), canonical=st.booleans(),
           out=st.booleans())
    def test_one_spec_answers_as_new_specs(self, g, seed, canonical, out):
        """theta_eval over a sequence of arguments of one spec equals, byte for
        byte, each argument summed on a new spec, in the cell or cells out."""
        Pi, Q, make = spec_maker(g, seed, canonical)
        rng = np.random.default_rng(seed)
        spec = make()
        for _ in range(4):
            f = rng.uniform(-0.45, 0.45, size=g)
            v = Pi @ (f + (cells_out(rng, Q, f) if out else 0))
            once = np.array([theta_eval(spec, v)]).tobytes()
            assert once == np.array([theta_eval(make(), v)]).tobytes()

    @pytest.mark.parametrize("canonical", [False, True])
    def test_each_call_forms_its_own_work(self, monkeypatch, canonical):
        """One ``_Form`` and one ``eigvalsh`` per theta_eval call of one spec,
        at the first argument and at the fifth alike, in the cell or out."""
        calls = {"form": 0, "eigvalsh": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(theta_module, "_Form", counted("form", theta_module._Form))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
        Pi, Q, make = spec_maker(3, 1010, canonical)
        spec, rng, seen = make(), np.random.default_rng(1010), []
        for i in range(5):
            f = rng.uniform(-0.45, 0.45, size=3)
            v = Pi @ (f + cells_out(rng, Q, f) * (i % 2))
            before = dict(calls)
            theta_eval(spec, v)
            seen.append((calls["form"] - before["form"], calls["eigvalsh"] - before["eigvalsh"]))
        assert seen == [(1, 1)] * 5

    def test_spec_arrays_are_read_only_copies(self):
        """A spec's arrays cannot change under what was derived from them:
        they are read-only, as are Q, tPi B and the angles, and the caller's
        own arrays stay writable."""
        Pi, rho = 2.0 * np.eye(2), np.ones(2, dtype=complex)
        spec = ThetaSpec(Pi=Pi, B=np.eye(2), rho=rho)
        bundle = canonical_line_bundle_data(np.eye(2))
        for a in (spec.Pi, spec.B, spec.rho, spec._Q, spec._PtB, spec._angles,
                  bundle.Y, bundle.spec.B, bundle.spec.rho, bundle.spec._Q):
            assert not a.flags.writeable
        assert Pi.flags.writeable and rho.flags.writeable
        Pi[0, 0] = 3.0
        assert spec.Pi[0, 0] == 2.0

    def test_canonical_plan_is_the_proved_form(self):
        """tPi B = I (None) and Q = Y exactly, rho = 1 and B = Y^-1 are formed
        only when read, and the factor exponent is pi t(n) Y n + 2 pi v.n."""
        Y = workload_form(np.random.default_rng(1011), 3, True)
        spec = canonical_line_bundle_data(Y).spec
        assert "B" not in vars(spec) and "rho" not in vars(spec)
        assert spec._PtB is None and spec._angles is None and spec._phases is None
        assert spec._Q.tobytes() == Y.tobytes() and not spec._Q.flags.writeable
        assert np.array_equal(spec.rho, np.ones(3)) and not spec.rho.flags.writeable
        assert spec.B.tobytes() == (0.5 * (np.linalg.inv(Y) + np.linalg.inv(Y).T)).tobytes()
        assert np.array_equal(spec.gram(), Y)
        n, v = np.array([1.0, -1.0, 2.0]), np.array([0.1, -0.2, 0.3])
        want = math.exp(math.pi * float(n @ Y @ n) + 2 * math.pi * float(v @ n))
        assert factor_i_b_rho(spec, [1, -1, 2], v) == want


def theta_request(data: dict, v) -> str:
    return json.dumps({"cmd": "theta", **data, "v": np.asarray(v).tolist()})


@pytest.fixture
def linalg_calls(monkeypatch):
    """The names of the ``numpy.linalg`` functions called while the test runs."""
    calls = []

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in np.linalg.__all__:
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            monkeypatch.setattr(np.linalg, name, recorded(name, fn))
    return calls


class TestOneRequest:
    """A CLI ``theta`` request pays for its one argument only."""

    @pytest.mark.parametrize("out", [False, True], ids=["in_cell", "cells_out"])
    @pytest.mark.parametrize("explicit", [False, True], ids=["canonical", "explicit"])
    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_linalg_calls_per_request(self, run_cli, linalg_calls, g, explicit, out):
        """Canonical: the proof of Y, eigvalsh and the inverse of the scaled
        form, which also finds the cell.  Explicit: the determinant test of
        Pi besides."""
        rng = np.random.default_rng(1100 + g)
        Y = workload_form(rng, g, False)
        m = np.eye(g)[0] * out
        data = {"Y": Y.tolist()}
        if explicit:
            data = {"Pi": Y.tolist(), "B": np.linalg.inv(Y).tolist()}
        text = theta_request(data, Y @ (m + rng.uniform(-0.45, 0.45, size=g)))
        linalg_calls.clear()
        code, answer = run_cli(text)
        assert code == 0 and json.loads(answer)["status"] == "ok"
        assert len(linalg_calls) <= (4 if explicit else 3), linalg_calls

    @pytest.mark.parametrize("Y", [0.37, 1.0, 2.5])
    def test_eps_bounds_the_cell_sum_times_the_factor(self, Y):
        """At g = 1 the value at v is I(m, w) theta(w), m = rint(v / Y) and
        w = v - Y m, with the factor I(m, w) = exp(pi Y m^2 + 2 pi w m), and
        ``eps`` bounds the tail of theta(w): the error against a 40-digit
        sum is at most |I(m, w)| eps, up to 1e11 at v = 4.3, Y = 1."""
        eps = 1e-12
        bundle = canonical_line_bundle_data(np.array([[Y]]))
        for x in (0.3, 2.3, 4.3, -3.7, 6.1):
            m = round(x / Y)
            w = x - Y * m
            factor = math.exp(math.pi * Y * m * m + 2 * math.pi * w * m)
            ref = mpmath_section(np.array([[Y]]), np.array([x]))
            value = bundle.section([x], eps=eps)
            assert float(abs(value - complex(ref))) <= factor * eps
