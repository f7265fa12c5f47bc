import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realtori.cohomology import coboundary_witness, fixed_locus_member, is_cocycle
from realtori.siegel import random_symplectic, sp_act
from realtori.spdcone import random_spd


def E(g):
    return np.diag([1] * g + [-1] * g).astype(object)


def J(g):
    Z, I = np.zeros((g, g), dtype=object), np.eye(g, dtype=object)
    return np.block([[Z, I], [-I, Z]])


def tau(x):
    g = x.shape[0] // 2
    return E(g) @ x @ E(g)


def inverse(h):
    """h^-1 = -J th J for symplectic h, independent of the library."""
    g = h.shape[0] // 2
    return -J(g) @ h.T @ J(g)


def coboundary(h):
    return tau(h) @ inverse(h)


def translation(B):
    g = len(B)
    M = np.eye(2 * g, dtype=object)
    M[:g, g:] = np.array(B, dtype=object)
    return M


def dilation(A):
    """diag(A, tA^-1) for a unimodular A."""
    g = len(A)
    M = np.zeros((2 * g, 2 * g), dtype=object)
    M[:g, :g] = np.array(A, dtype=int)
    M[g:, g:] = np.rint(np.linalg.inv(np.array(A, dtype=float))).astype(int).T
    return M


def generators(g):
    """J, -I, the translations by +-(e_ij + e_ji) and the dilations by I +- e_ij."""
    gens = [J(g), -np.eye(2 * g, dtype=object)]
    for i, j in itertools.combinations_with_replacement(range(g), 2):
        B = np.zeros((g, g), dtype=int)
        B[i, j] = B[j, i] = 1
        gens += [translation(B), translation(-B)]
    for i, j in itertools.permutations(range(g), 2):
        for s in (1, -1):
            A = np.eye(g, dtype=int)
            A[i, j] = s
            gens.append(dilation(A))
    return gens


def check_witness(gamma):
    h = coboundary_witness(gamma)
    assert h is not None
    assert h.dtype == object and all(type(v) is int for v in h.flat)
    g = h.shape[0] // 2
    assert np.array_equal(h.T @ J(g) @ h, J(g))
    assert np.array_equal(coboundary(h), gamma)


class TestCoboundaryWitness:
    @pytest.mark.parametrize("g", [1, 2])
    def test_every_short_word(self, g):
        """tau(h) h^-1 is witnessed for every generator word h of length <= 3."""
        gens = generators(g)
        for M in gens:
            assert np.array_equal(M.T @ J(g) @ M, J(g))
        gammas = {}
        for length in range(4):
            for word in itertools.product(gens, repeat=length):
                h = np.eye(2 * g, dtype=object)
                for M in word:
                    h = h @ M
                gamma = coboundary(h)
                gammas.setdefault(repr(gamma.tolist()), gamma)
        assert len(gammas) > 10 * g
        for gamma in gammas.values():
            check_witness(gamma)

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_twisted_j_is_no_coboundary(self, g):
        rng = np.random.default_rng(g)
        for _ in range(10):
            h = random_symplectic(g, rng, length=5)
            gamma = tau(h) @ J(g) @ inverse(h)
            assert is_cocycle(gamma)
            assert coboundary_witness(gamma) is None

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_cocycle_off_identity_mod_2_is_no_coboundary(self, g):
        """tau(h) (I, M; 0, I) h^-1 with M odd somewhere is not I mod 2."""
        rng = np.random.default_rng(10 + g)
        for _ in range(10):
            M = rng.integers(-3, 4, size=(g, g))
            M = M + M.T
            M[0, 0] = 1
            h = random_symplectic(g, rng, length=4)
            gamma = tau(h) @ translation(M) @ inverse(h)
            assert is_cocycle(gamma) and np.any(gamma % 2 != np.eye(2 * g, dtype=int))
            assert coboundary_witness(gamma) is None

    def test_brute_force_g1(self):
        """Every tau(h) h^-1 with h in SL(2, Z), entries in [-3, 3], is witnessed."""
        box = [np.array(m, dtype=object).reshape(2, 2)
               for m in itertools.product(range(-3, 4), repeat=4)
               if m[0] * m[3] - m[1] * m[2] == 1]
        reached = {repr(coboundary(h).tolist()) for h in box}
        cocycles = [gamma for gamma in box
                    if np.array_equal(gamma @ tau(gamma), np.eye(2, dtype=object))]
        answers = {repr(gamma.tolist()): coboundary_witness(gamma) for gamma in cocycles}
        assert any(h is None for h in answers.values())
        for gamma in cocycles:
            if repr(gamma.tolist()) in reached or answers[repr(gamma.tolist())] is not None:
                check_witness(gamma)

    def test_not_a_cocycle(self):
        with pytest.raises(ValueError, match="not a cocycle"):
            coboundary_witness(dilation([[1, 1], [0, 1]]))
        with pytest.raises(ValueError, match="not symplectic"):
            coboundary_witness([[2, 0], [0, 1]])

    @pytest.mark.parametrize("g", [3, 4])
    def test_witness_stays_near_input_size(self, g):
        """Long words give entries of 10-20 digits; so does the witness."""
        rng = np.random.default_rng(50 + g)
        for _ in range(3):
            gamma = coboundary(random_symplectic(g, rng, length=48))
            h = coboundary_witness(gamma)
            digits = [len(str(max(abs(v) for v in M.flat))) for M in (gamma, h)]
            assert digits[1] <= 2 * digits[0]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 8), st.integers(0, 2**32 - 1))
    def test_random_coboundaries(self, g, length, seed):
        h = random_symplectic(g, np.random.default_rng(seed), length=length)
        check_witness(coboundary(h))


def siegel_point(g, rng, X=None):
    X = np.zeros((g, g)) if X is None else X
    return X + 1j * random_spd(g, rng)


class TestFixedLocus:
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_translation_fixes_exactly_minus_half_b(self, g):
        rng = np.random.default_rng(20 + g)
        for _ in range(10):
            B = rng.integers(-3, 4, size=(g, g))
            B = B + B.T
            om = siegel_point(g, rng, X=-0.5 * B)
            assert fixed_locus_member(translation(B), om)
            shift = np.zeros((g, g))
            shift[0, 0] = 1e-3
            assert not fixed_locus_member(translation(B), om + shift)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_transport(self, g):
        """If gamma fixes Omega, tau(h) gamma h^-1 fixes h . Omega."""
        rng = np.random.default_rng(30 + g)
        for _ in range(10):
            B = rng.integers(-2, 3, size=(g, g))
            B = B + B.T
            gamma = translation(B)
            om = siegel_point(g, rng, X=-0.5 * B)
            h = random_symplectic(g, rng, length=3, max_entry=1)
            moved = sp_act(h, om)
            tol = 1e-9 * max(1.0, float(np.max(np.abs(moved))))
            assert fixed_locus_member(tau(h) @ gamma @ inverse(h), moved, tol=tol)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_coboundary_fixes_image_of_imaginary_point(self, g):
        """tau(h) h^-1 fixes h . (iY)."""
        rng = np.random.default_rng(40 + g)
        for _ in range(10):
            h = random_symplectic(g, rng, length=3, max_entry=1)
            moved = sp_act(h, siegel_point(g, rng))
            tol = 1e-9 * max(1.0, float(np.max(np.abs(moved))))
            assert fixed_locus_member(coboundary(h), moved, tol=tol)
            assert not fixed_locus_member(coboundary(h), moved + 1e-3, tol=tol)
