import re
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realtori.exactlinalg import (
    complete_to_unimodular,
    det_int,
    gf2_rank,
    int_matrix,
    integer_solve,
    kernel_basis,
    is_symplectic,
    is_unimodular,
    random_unimodular,
    rat_matrix,
    smith_normal_form,
    symplectic_form,
    symplectic_inverse,
    unimodular_inverse,
)


def det_cofactor(rows):
    """Independent oracle: Laplace expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def determinantal_divisor(M, r):
    """Independent oracle: the gcd of the r x r minors of M, each by ``det_int``."""
    M = int_matrix(M)
    n, m = M.shape
    return gcd(*(det_int(M[np.ix_(rows, cols)])
                 for rows in combinations(range(n), r) for cols in combinations(range(m), r)))


def rank_and_divisor(M):
    """The rank r of M and the gcd of its r x r minors (1 for r = 0)."""
    r = min(int_matrix(M).shape)
    while r and determinantal_divisor(M, r) == 0:
        r -= 1
    return r, determinantal_divisor(M, r)


class TestDet:
    def test_identity(self):
        assert det_int(np.eye(3, dtype=int)) == 1

    def test_two_by_two(self):
        assert det_int([[2, 1], [1, 1]]) == det_cofactor([[2, 1], [1, 1]]) == 1

    def test_j_form(self):
        assert det_int(symplectic_form(2)) == 1

    def test_zero_column(self):
        assert det_int([[0, 1], [0, 2]]) == 0

    def test_matches_cofactor_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            M = rng.integers(-6, 7, size=(4, 4)).tolist()
            assert det_int(M) == det_cofactor(M)

    def test_big_entries_exact(self):
        # beyond float precision: (10^9)^3-scale cofactors stay exact
        M = [[10**9, 1, 0], [0, 10**9, 1], [1, 0, 10**9]]
        assert det_int(M) == det_cofactor(M)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            det_int([[1, 2, 3], [4, 5, 6]])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=9, max_size=9),
       st.lists(st.integers(-5, 5), min_size=9, max_size=9))
def test_det_multiplicative(a_entries, b_entries):
    A = int_matrix(np.array(a_entries, dtype=object).reshape(3, 3))
    B = int_matrix(np.array(b_entries, dtype=object).reshape(3, 3))
    assert det_int(A @ B) == det_int(A) * det_int(B)


class TestUnimodular:
    def test_identity(self):
        assert is_unimodular(np.eye(4, dtype=int))

    def test_example(self):
        assert is_unimodular([[1, -1], [1, 0]])

    def test_diag_two(self):
        assert not is_unimodular([[2, 0], [0, 1]])

    def test_inverse_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            A = random_unimodular(3, rng)
            Ainv = unimodular_inverse(A)
            P = A @ Ainv
            assert all(int(P[i, j]) == int(i == j) for i in range(3) for j in range(3))

    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
    def test_inverse_exact_large_entries(self, g):
        rng = np.random.default_rng(40 + g)
        for _ in range(20):
            A = random_unimodular(g, rng, max_entry=50, steps=40)
            Ainv = unimodular_inverse(A)
            assert all(type(v) is int for v in Ainv.flat)
            assert np.array_equal(A @ Ainv, np.eye(g, dtype=int))
            assert np.array_equal(Ainv @ A, np.eye(g, dtype=int))

    @pytest.mark.parametrize("M", [
        [[1, 2], [2, 4]],
        [[0, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[2, 0], [0, 1]],
        [[1, 1], [1, -1]],
        [[3, 5, 0], [1, 2, 0], [0, 0, -2]],
    ])
    def test_inverse_rejects_non_unimodular(self, M):
        # determinants 0, 0, 2, -2, -2
        with pytest.raises(ValueError):
            unimodular_inverse(M)

    def test_random_unimodular_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            A = random_unimodular(3, rng, max_entry=3)
            assert is_unimodular(A)
            assert max(abs(int(v)) for v in A.flat) <= 3


class TestSymplectic:
    def test_j_is_symplectic(self):
        assert is_symplectic(symplectic_form(3))

    def test_gl_embedding(self):
        A = int_matrix([[1, 2], [0, 1]])
        M = np.zeros((4, 4), dtype=object)
        M[:, :] = 0
        M[:2, :2] = A
        M[2:, 2:] = unimodular_inverse(A).T
        assert is_symplectic(M)

    def test_diag_not_symplectic(self):
        assert not is_symplectic(np.diag([2, 1, 1, 1]))

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            is_symplectic(np.eye(3))

    def test_form_is_a_fresh_writable_array(self):
        J = symplectic_form(2)
        J[0, 2] = 7
        again = symplectic_form(2)
        assert again is not J and again.flags.writeable
        assert again[0, 2] == 1 and is_symplectic(again)

    def test_inverse_blocks(self):
        J = symplectic_form(2)
        assert np.array_equal(symplectic_inverse(J), -J)

    def test_inverse_translation(self):
        B = [[1, 2], [2, -1]]
        M = np.eye(4, dtype=object)
        for i in range(4):
            for j in range(4):
                M[i, j] = int(M[i, j])
        for i in range(2):
            for j in range(2):
                M[i, 2 + j] = B[i][j]
        Minv = symplectic_inverse(M)
        for i in range(2):
            for j in range(2):
                assert int(Minv[i, 2 + j]) == -B[i][j]
        P = M @ Minv
        assert all(int(P[i, j]) == int(i == j) for i in range(4) for j in range(4))

    def test_block_relations(self):
        # A tD - B tC = I and A tB = B tA for exact symplectics
        from realtori.siegel import random_symplectic

        rng = np.random.default_rng(5)
        for _ in range(10):
            M = random_symplectic(2, rng, length=4, max_entry=1)
            assert is_symplectic(M)
            A, B = M[:2, :2], M[:2, 2:]
            C, D = M[2:, :2], M[2:, 2:]
            R1 = A @ D.T - B @ C.T
            assert all(int(R1[i, j]) == int(i == j) for i in range(2) for j in range(2))
            S = A @ B.T - B @ A.T
            assert all(int(v) == 0 for v in S.flat)


class TestGf2:
    def test_zero(self):
        assert gf2_rank(np.zeros((3, 3), dtype=int)) == 0

    def test_identity(self):
        assert gf2_rank(np.eye(4, dtype=int)) == 4

    def test_antidiagonal_pair(self):
        assert gf2_rank([[0, 1], [1, 0]]) == 2

    def test_even_entries_vanish(self):
        assert gf2_rank([[2, 4], [6, 8]]) == 0

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 12), cols=st.integers(1, 12),
           density=st.sampled_from([0.1, 0.5, 0.9]))
    def test_matches_row_elimination(self, seed, rows, cols, density):
        N = (np.random.default_rng(seed).random((rows, cols)) < density).astype(np.uint8)
        M = N.copy()
        rank = 0
        for c in range(cols):
            pivot = next((r for r in range(rank, rows) if M[r, c]), None)
            if pivot is None:
                continue
            M[[rank, pivot]] = M[[pivot, rank]]
            for r in range(rows):
                if r != rank and M[r, c]:
                    M[r] ^= M[rank]
            rank += 1
        assert gf2_rank(N) == rank
        assert gf2_rank(N.T) == rank


class TestSmithNormalForm:
    def check(self, M):
        Me = int_matrix(M)
        U, D, V = smith_normal_form(Me)
        assert is_unimodular(U) and is_unimodular(V)
        P = U @ Me @ V
        assert all(int(x) == int(y) for x, y in zip(P.flat, D.flat))
        diag = [int(D[i, i]) for i in range(min(D.shape))]
        for a, b in zip(diag, diag[1:]):
            if b != 0:
                assert a != 0 and b % a == 0
            assert a >= 0
        # d_1 ... d_r is the gcd of the r x r minors
        for r in range(1, len(diag) + 1):
            assert prod(diag[:r]) == determinantal_divisor(Me, r)
        return diag

    def test_identity(self):
        assert self.check(np.eye(2, dtype=int)) == [1, 1]

    def test_already_diagonal(self):
        assert self.check([[2, 0], [0, 4]]) == [2, 4]
        assert self.check([[4, 0], [0, 6]]) == [2, 12]
        assert self.check([[0, 0, 0], [0, 6, 0], [0, 0, 10]]) == [2, 30, 0]

    def test_hand_elimination(self):
        assert self.check([[1, 1], [1, -1]]) == [1, 2]

    def test_random(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            shape = rng.choice([(3, 3), (2, 4), (4, 2), (3, 4)])
            M = rng.integers(-9, 10, size=tuple(shape))
            self.check(M)

    def test_empty_shapes(self):
        for n, m in [(0, 2), (2, 0), (0, 0)]:
            U, D, V = smith_normal_form(int_matrix(np.zeros((n, m), dtype=int)))
            assert (U.shape, D.shape, V.shape) == ((n, n), (n, m), (m, m))


class TestIntegerSolve:
    def test_hand_example(self):
        G = int_matrix([[2, 0], [0, 3]])
        m = integer_solve(G, [4, -9])
        assert [int(v) for v in m] == [2, -3]
        assert integer_solve(G, [1, 0]) is None

    def test_inexact_right_hand_side(self):
        with pytest.raises(ValueError):
            integer_solve([[2]], [2.5])
        assert integer_solve([[2]], [4.0]).tolist() == [2]

    def test_random(self):
        # solvable exactly when G and [G | x] have one rank r and one gcd of r x r minors
        rng = np.random.default_rng(29)
        for _ in range(60):
            n, m = (int(v) for v in rng.choice([(1, 2), (2, 3), (3, 3), (3, 5), (4, 4)]))
            G = rng.integers(-6, 7, size=(n, m)) * int(rng.choice([1, 1, 2, 3]))
            if rng.random() < 0.3:
                G[-1] = G[0] * rng.integers(-2, 3)
            if rng.random() < 0.5:
                x = G @ rng.integers(-5, 6, size=m)
            else:
                x = rng.integers(-9, 10, size=n)
            sol = integer_solve(G, x)
            solvable = rank_and_divisor(G) == rank_and_divisor(np.column_stack([G, x]))
            assert (sol is not None) == solvable
            if sol is not None:
                assert list(int_matrix(G) @ sol) == [int(v) for v in x]

    def test_solution_size(self):
        # a Smith-form solve of these systems reaches about 1,000 digits
        rng = np.random.default_rng(5)
        for _ in range(10):
            G = rng.integers(-99, 100, size=(6, 12))
            x = G @ rng.integers(-9, 10, size=12)
            sol = integer_solve(G, x)
            assert list(int_matrix(G) @ sol) == [int(v) for v in x]
            assert max(len(str(abs(v))) for v in sol) < 100


class TestCompleteToUnimodular:
    def test_hand_example(self):
        rows = int_matrix([[2, 3, 5]])
        U = complete_to_unimodular(rows)
        assert is_unimodular(U)
        assert [int(v) for v in U[0]] == [2, 3, 5]
        with pytest.raises(ValueError):
            complete_to_unimodular(int_matrix([[2, 4, 6]]))

    def test_random(self):
        # k rows extend to a basis of Z^g exactly when their k x k minors have gcd 1
        rng = np.random.default_rng(31)
        for _ in range(60):
            g = int(rng.integers(1, 6))
            k = int(rng.integers(0, g + 1))
            if rng.random() < 0.5:
                B = rng.integers(-5, 6, size=(k, g))
            else:
                B = np.array(random_unimodular(g, rng)[:k].tolist(), dtype=int).reshape(k, g)
            if rank_and_divisor(B) != (k, 1):
                with pytest.raises(ValueError):
                    complete_to_unimodular(B)
                continue
            U = complete_to_unimodular(B)
            assert U[:k].tolist() == B.tolist()
            assert abs(det_int(U)) == 1


class TestKernelBasis:
    def test_random(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n, m = (int(v) for v in rng.choice([(1, 3), (2, 4), (3, 3), (3, 5), (4, 8)]))
            M = rng.integers(-9, 10, size=(n, m))
            M[-1] = M[0] * rng.integers(-2, 3)
            K = kernel_basis(M)
            assert all(v == 0 for v in (int_matrix(M) @ K).flat)
            rank, _ = rank_and_divisor(M)
            assert K.shape == (m, m - rank)
            # saturated: the columns extend to a basis of Z^m
            assert rank_and_divisor(K) == (m - rank, 1)

    def test_hand_examples(self):
        assert kernel_basis([[2, 4]]).tolist() == [[2], [-1]]
        assert kernel_basis([[1, 1, 1], [1, 2, 3]]).tolist() == [[1], [-2], [1]]
        assert kernel_basis(np.eye(2, dtype=int)).shape == (2, 0)
        assert kernel_basis([[0, 0]]).tolist() == [[1, 0], [0, 1]]


class TestExactEntries:
    """Exact matrices hold Python ints, never numpy scalars."""

    @staticmethod
    def all_int(M):
        return M.dtype == object and all(type(v) is int for v in M.flat)

    def test_symplectic_form(self):
        for g in range(1, 5):
            assert self.all_int(symplectic_form(g))

    @pytest.mark.parametrize("data", [
        [[np.int64(3), True], [2.0, Fraction(-4)]],
        np.array([[3, 1], [2, -4]]),
        np.array([[3.0, 1.0], [2.0, -4.0]]),
        np.array([[3, 1], [2, -4]], dtype=object),
    ], ids=["mixed", "int64", "float", "object"])
    def test_int_matrix(self, data):
        M = int_matrix(data)
        assert self.all_int(M) and M.tolist() == [[3, 1], [2, -4]]
        M[0, 0] = 5
        assert np.asarray(data, dtype=object)[0, 0] == 3

    @pytest.mark.parametrize("data, error", [
        ([[1, 0.5]], "entry 0.5 at (0, 1) is not an exact integer"),
        ([[1], [Fraction(1, 3)]], "entry Fraction(1, 3) at (1, 0) is not an exact integer"),
        ([[1, "2"]], "entry '2' at (0, 1) is not an exact integer"),
        ([1, 2], "integer matrix must be two-dimensional"),
    ])
    def test_int_matrix_refuses(self, data, error):
        with pytest.raises(ValueError, match=re.escape(error)):
            int_matrix(data)

    def test_rat_matrix(self):
        M = rat_matrix([["1/2", 3], [Fraction(2, 4), True]])
        assert all(type(v) is Fraction for v in M.flat)
        assert M.tolist() == [[Fraction(1, 2), 3], [Fraction(1, 2), 1]]
        with pytest.raises(ValueError, match="rational matrix must be two-dimensional"):
            rat_matrix(["1/2"])

    def test_random_symplectic(self):
        from realtori.siegel import random_symplectic

        rng = np.random.default_rng(11)
        for g in (1, 2, 3):
            for _ in range(5):
                assert self.all_int(random_symplectic(g, rng, length=5, max_entry=2))

    def test_minkowski_witness(self):
        from realtori.spdcone import minkowski_reduce, random_spd

        rng = np.random.default_rng(12)
        for g in (1, 2, 3, 4):
            _, A = minkowski_reduce(random_spd(g, rng))
            assert self.all_int(A)

    def test_real_structure_matrix(self):
        from realtori.moduli import real_structure_matrix

        om = np.array([[0.5, -1.0], [-1.0, 1.5]]) + 1j * np.array([[2.0, 0.3], [0.3, 1.0]])
        Ms = real_structure_matrix(om)
        assert self.all_int(Ms)
        assert Ms.tolist() == [[-1, 0, 0, 0], [0, -1, 0, 0], [1, -2, 1, 0], [-2, 3, 0, 1]]


def _integer_inputs():
    """Every public function that takes integer data, as a call with one entry
    ``x``: the GF(2), unimodular, symplectic, Smith/kernel/solve and lattice
    functions and the semi-character coordinates."""
    from realtori import degenerations, moduli, theta, tori
    from realtori.exactlinalg import gf2_matrix

    bundle = theta.canonical_line_bundle_data(np.eye(1))
    alpha = bundle.alpha

    def exact(rows):
        return np.array(rows, dtype=object)

    return {
        "int_matrix": lambda x: int_matrix([[1, x]]),
        "gf2_matrix": lambda x: gf2_matrix([[x, 0], [0, 0]]),
        "gf2_rank": lambda x: gf2_rank([[x, 0], [0, 1]]),
        "mod2_invariants": lambda x: moduli.mod2_invariants([[x]]),
        "mod2_standard_form": lambda x: moduli.mod2_standard_form([[x, 0], [0, 0]]),
        "stabilizer_mod2_member": lambda x: moduli.stabilizer_mod2_member([[1]], [[x]]),
        "sigma_M_matrix": lambda x: moduli.sigma_M_matrix([[x]]),
        "det_int": lambda x: det_int([[x]]),
        "det_int_object": lambda x: det_int(exact([[x]])),
        "is_unimodular": lambda x: is_unimodular([[1, x], [0, 1]]),
        "unimodular_inverse": lambda x: unimodular_inverse([[1, x], [0, 1]]),
        "unimodular_inverse_object": lambda x: unimodular_inverse(exact([[1, x], [0, 1]])),
        "is_symplectic_object": lambda x: is_symplectic(exact([[1, x], [0, 1]])),
        "symplectic_inverse_object": lambda x: symplectic_inverse(exact([[1, x], [0, 1]])),
        "smith_normal_form": lambda x: smith_normal_form([[2, x]]),
        "integer_solve_matrix": lambda x: integer_solve([[2, x]], [2]),
        "integer_solve_vector": lambda x: integer_solve([[2]], [x]),
        "kernel_basis": lambda x: kernel_basis([[1, x]]),
        "complete_to_unimodular": lambda x: complete_to_unimodular([[1, x]]),
        "isogeny_degree": lambda x: tori.isogeny_degree([[x]]),
        "involution_splitting_type": lambda x: degenerations.involution_splitting_type([[x]]),
        "SemiCharacter_E": lambda x: theta.SemiCharacter(basis=alpha.basis, values=alpha.values,
                                                         E=[[0, x], [-x, 0]]),
        "SemiCharacter_eval": lambda x: alpha.eval([x, 1]),
        "SemiCharacter_pairing": lambda x: alpha.pairing([1, 0], [x, 1]),
        "canonical_semicharacter": lambda x: theta.canonical_semicharacter([[1.0]], [x], [1]),
        "J_H_alpha": lambda x: theta.automorphic_factor_eval("J_H_alpha", bundle, [x, 1], [0.1]),
        "I_alpha": lambda x: theta.automorphic_factor_eval("I_alpha", bundle, [x], [0.1]),
        "I_B_alpha": lambda x: theta.automorphic_factor_eval("I_B_alpha", bundle, [x], [0.1]),
        "I_B_rho": lambda x: theta.automorphic_factor_eval("I_B_rho", bundle.spec, [x], [0.1]),
    }


@pytest.mark.parametrize("x", [0.5, 1.9, float("nan")], ids=["half", "1.9", "nan"])
@pytest.mark.parametrize("name", list(_integer_inputs()))
def test_integer_inputs_refuse_non_integers(name, x):
    """One rule for integer data: an entry that is not an exact integer or an
    integral float raises ValueError, nothing rounds or truncates it."""
    call = _integer_inputs()[name]
    call(1)
    with pytest.raises(ValueError, match="not an exact integer"):
        call(x)
