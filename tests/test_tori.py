import math

import numpy as np
import pytest

from realtori.spdcone import random_spd
from realtori.tori import (
    Polarization,
    RealTorus,
    associated_lattice_basis,
    dual_period_matrix,
    hermitian_form_eval,
    is_polarized_symmetric,
    isogeny_degree,
    rational_representation,
    torus_from_spd,
)


class TestConstruction:
    def test_identity_lattice(self):
        T = torus_from_spd(np.eye(3))
        assert T.principally_polarized
        assert np.allclose(T.Pi, np.eye(3))

    def test_irrational_example(self):
        Y = np.array([[math.sqrt(2), math.sqrt(3)], [math.sqrt(3), math.sqrt(5)]])
        T = torus_from_spd(Y)
        assert abs(abs(np.linalg.det(T.Pi)) - np.linalg.det(Y)) < 1e-14

    def test_lattice_basis_independent(self):
        T = torus_from_spd(random_spd(2, np.random.default_rng(0)))
        basis = associated_lattice_basis(T)
        assert basis.shape == (2, 4)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            RealTorus(Pi=np.zeros((2, 2)))


class TestHermitianForm:
    def test_unit(self):
        e1 = np.array([1.0, 0.0])
        assert hermitian_form_eval(np.eye(2), e1, e1) == 1.0

    def test_positive_definite(self):
        rng = np.random.default_rng(1)
        Y = random_spd(3, rng)
        for _ in range(20):
            x = rng.normal(size=3) + 1j * rng.normal(size=3)
            v = hermitian_form_eval(Y, x, x)
            assert abs(v.imag) < 1e-12
            assert v.real > 0

    def test_imaginary_part_integral_on_basis(self):
        rng = np.random.default_rng(2)
        Y = random_spd(2, rng)
        for j in range(2):
            for k in range(2):
                ej = np.zeros(2)
                ek = np.zeros(2)
                ej[j] = 1
                ek[k] = 1
                v = hermitian_form_eval(Y, 1j * (Y @ ej), ek)
                assert abs(v.imag - round(v.imag)) < 1e-12


class TestDual:
    def test_diagonal(self):
        T = RealTorus(Pi=np.diag([2.0, 3.0]))
        D = dual_period_matrix(T)
        assert np.allclose(D.Pi, np.diag([0.5, 1.0 / 3.0]))

    def test_identity(self):
        T = RealTorus(Pi=np.eye(2))
        assert np.allclose(dual_period_matrix(T).Pi, np.eye(2))

    def test_double_dual(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            Pi = rng.normal(size=(3, 3)) + 3 * np.eye(3)
            T = RealTorus(Pi=Pi)
            back = dual_period_matrix(dual_period_matrix(T))
            assert np.max(np.abs(back.Pi - T.Pi)) < 1e-12 * np.max(np.abs(T.Pi))

    def test_large_scale(self):
        # |det Pi| = 1e-14 for the dual: invertibility does not depend on scale
        D = dual_period_matrix(RealTorus(Pi=1e7 * np.eye(2)))
        assert np.allclose(D.Pi, 1e-7 * np.eye(2), rtol=1e-15, atol=0)

    def test_dual_pairing_integral(self):
        rng = np.random.default_rng(4)
        Pi = rng.normal(size=(2, 2)) + 3 * np.eye(2)
        D = dual_period_matrix(RealTorus(Pi=Pi)).Pi
        pairing = D.T @ Pi
        assert np.max(np.abs(pairing - np.round(pairing))) < 1e-12


class TestRationalRepresentation:
    def test_identity(self):
        T = torus_from_spd(random_spd(2, np.random.default_rng(5)))
        R = rational_representation(np.eye(2), T, T)
        assert R is not None
        assert np.array_equal(R.astype(int), np.eye(2, dtype=int))

    def test_multiplication_by_n(self):
        T = torus_from_spd(random_spd(3, np.random.default_rng(6)))
        R = rational_representation(4.0 * np.eye(3), T, T)
        assert R is not None
        assert np.array_equal(R.astype(int), 4 * np.eye(3, dtype=int))

    def test_half_rejected(self):
        T = torus_from_spd(np.eye(2))
        assert rational_representation(0.5 * np.eye(2), T, T) is None

    def test_compatibility_square(self):
        rng = np.random.default_rng(7)
        T = torus_from_spd(random_spd(2, rng))
        Tp = torus_from_spd(random_spd(2, rng))
        R0 = rng.integers(-3, 4, size=(2, 2))
        Phi = Tp.Pi @ R0 @ np.linalg.inv(T.Pi)
        R = rational_representation(Phi, T, Tp)
        assert R is not None
        assert np.array_equal(R.astype(int), R0)
        assert np.max(np.abs(Tp.Pi @ R.astype(float) - Phi @ T.Pi)) <= 1e-8


class TestIsogenyDegree:
    def test_scalar(self):
        assert isogeny_degree(3 * np.eye(2, dtype=int)) == 9

    def test_identity(self):
        assert isogeny_degree(np.eye(4, dtype=int)) == 1

    def test_diagonal(self):
        assert isogeny_degree(np.diag([2, 3])) == 6

    def test_degenerate(self):
        assert isogeny_degree(np.zeros((2, 2), dtype=int)) == 0

    def test_multiplicative(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            R1 = rng.integers(-4, 5, size=(3, 3))
            R2 = rng.integers(-4, 5, size=(3, 3))
            from realtori.exactlinalg import int_matrix

            prod = int_matrix(R1) @ int_matrix(R2)
            assert isogeny_degree(prod) == isogeny_degree(R1) * isogeny_degree(R2)


class TestPolarization:
    def test_spd_polarized(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            assert is_polarized_symmetric(random_spd(2, rng)) is Polarization.POLARIZED

    def test_indefinite_not_polarized(self):
        Q = np.array([[math.sqrt(2), math.sqrt(3)], [math.sqrt(3), -math.sqrt(5)]])
        assert is_polarized_symmetric(Q) is Polarization.NOT_POLARIZED

    def test_negative_definite_polarized(self):
        assert is_polarized_symmetric(-np.eye(2)) is Polarization.POLARIZED

    def test_non_symmetric_unsupported(self):
        with pytest.raises(ValueError):
            is_polarized_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))
