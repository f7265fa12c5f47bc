import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realtori.exactlinalg import (
    int_matrix,
    is_unimodular,
    random_unimodular,
    symplectic_form,
    unimodular_inverse,
)
from realtori.siegel import (
    JacobiGroupElement,
    cayley_to_disk,
    cayley_to_halfspace,
    disk_act,
    gamma_star_act,
    gamma_star_member,
    in_script_H,
    in_siegel_fundamental_set,
    jacobi_compose,
    jacobi_group_act,
    jacobi_identity,
    random_symplectic,
    real_locus_embed,
    require_siegel,
    sp_act,
    tau_group,
    tau_point,
)
from realtori.spdcone import random_spd


def random_siegel(g, rng):
    X = rng.normal(size=(g, g))
    return 0.5 * (X + X.T) + 1j * random_spd(g, rng)


def translation(g, B):
    M = np.eye(2 * g, dtype=object)
    for i in range(2 * g):
        for j in range(2 * g):
            M[i, j] = int(M[i, j])
    for i in range(g):
        for j in range(g):
            M[i, g + j] = int(B[i][j])
    return M


class TestSpAct:
    def test_identity(self):
        om = random_siegel(2, np.random.default_rng(0))
        assert np.allclose(sp_act(np.eye(4), om), om)

    def test_j_fixes_i_identity(self):
        J = symplectic_form(2)
        om = 1j * np.eye(2)
        assert np.max(np.abs(sp_act(J, om) - om)) < 1e-12

    def test_translation(self):
        B = [[1, 2], [2, -3]]
        om = random_siegel(2, np.random.default_rng(1))
        out = sp_act(translation(2, B), om)
        assert np.max(np.abs(out - (om + np.array(B)))) < 1e-12

    def test_cocycle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            M1 = random_symplectic(2, rng, length=3, max_entry=1)
            M2 = random_symplectic(2, rng, length=3, max_entry=1)
            om = random_siegel(2, rng)
            lhs = sp_act(M1 @ M2, om)
            rhs = sp_act(M1, sp_act(M2, om))
            assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(lhs)))

    def test_result_validated(self):
        rng = np.random.default_rng(3)
        M = random_symplectic(3, rng, length=5, max_entry=1)
        om = random_siegel(3, rng)
        require_siegel(sp_act(M, om))


class TestTau:
    def test_point_examples(self):
        Y = random_spd(2, np.random.default_rng(4))
        om = 1j * Y
        assert np.max(np.abs(tau_point(om) - om)) < 1e-15
        om2 = np.array([[0.3]]) + 1j * np.eye(1)
        assert np.allclose(tau_point(om2), np.array([[-0.3]]) + 1j * np.eye(1))
        omr = random_siegel(2, np.random.default_rng(5))
        assert np.allclose(tau_point(tau_point(omr)), omr)

    def test_group_examples(self):
        J = symplectic_form(2)
        assert np.array_equal(tau_group(J), -J)
        # GL-embedded elements are fixed
        A = np.array([[0, 1], [1, 0]], dtype=object)
        M = np.zeros((4, 4), dtype=object)
        M[:, :] = 0
        M[:2, :2] = A
        M[2:, 2:] = A  # tA^-1 = A for this A
        assert np.array_equal(tau_group(M), M)
        assert np.array_equal(tau_group(tau_group(J)), J)

    def test_equivariance(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = random_symplectic(2, rng, length=4, max_entry=1)
            om = random_siegel(2, rng)
            lhs = tau_point(sp_act(x, om))
            rhs = sp_act(tau_group(x), tau_point(om))
            assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(lhs)))


class TestCayley:
    def test_center(self):
        assert np.max(np.abs(cayley_to_disk(1j * np.eye(3)))) < 1e-15

    def test_scalar_value(self):
        W = cayley_to_disk(np.array([[2j]]))
        assert abs(W[0, 0] - 1.0 / 3.0) < 1e-15

    def test_inverse_scalar(self):
        om = cayley_to_halfspace(np.array([[1.0 / 3.0]], dtype=complex))
        assert abs(om[0, 0] - 2j) < 1e-14

    def test_origin_to_i(self):
        om = cayley_to_halfspace(np.zeros((2, 2), dtype=complex))
        assert np.max(np.abs(om - 1j * np.eye(2))) < 1e-15

    def test_roundtrips(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            om = random_siegel(2, rng)
            back = cayley_to_halfspace(cayley_to_disk(om))
            assert np.max(np.abs(back - om)) < 1e-12 * max(1.0, np.max(np.abs(om)))

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            cayley_to_halfspace(np.eye(2, dtype=complex))


class TestDiskAct:
    def test_identity(self):
        W = cayley_to_disk(random_siegel(2, np.random.default_rng(8)))
        assert np.max(np.abs(disk_act(np.eye(4), W) - W)) < 1e-14

    def test_unitary_type_fixes_origin(self):
        # (A, B; -B, A) with A + iB unitary stabilizes the origin
        th = 0.3
        A = np.array([[np.cos(th)]])
        B = np.array([[np.sin(th)]])
        M = np.block([[A, B], [-B, A]])
        out = disk_act(M, np.zeros((1, 1), dtype=complex))
        assert np.max(np.abs(out)) < 1e-14

    def test_compatibility_with_halfspace(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            M = random_symplectic(2, rng, length=4, max_entry=1)
            om = random_siegel(2, rng)
            lhs = disk_act(M, cayley_to_disk(om))
            rhs = cayley_to_disk(sp_act(M, om))
            assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestGammaStar:
    def build(self, A, B):
        from realtori.exactlinalg import int_matrix, unimodular_inverse

        A = int_matrix(A)
        g = A.shape[0]
        M = np.zeros((2 * g, 2 * g), dtype=object)
        M[:, :] = 0
        M[:g, :g] = A
        M[:g, g:] = int_matrix(B)
        M[g:, g:] = unimodular_inverse(A).T
        return M

    def test_identity(self):
        om = 0.5 * np.eye(2) + 1j * np.eye(2)
        M = self.build(np.eye(2, dtype=int), np.zeros((2, 2), dtype=int))
        assert gamma_star_member(M)
        assert np.allclose(gamma_star_act(M, om), om)

    def test_translation(self):
        B = [[2, 1], [1, 0]]
        M = self.build(np.eye(2, dtype=int), B)
        om = 1j * random_spd(2, np.random.default_rng(10))
        out = gamma_star_act(M, om)
        assert np.max(np.abs(out - (om + np.array(B, dtype=float)))) < 1e-12

    def test_membership_requires_compatibility(self):
        # A tB != B tA fails membership
        A = [[1, 1], [0, 1]]
        B = [[0, 1], [0, 0]]
        assert not gamma_star_member(self.build(A, B))

    def test_agrees_with_sp_act_and_closure(self):
        rng = np.random.default_rng(11)
        from realtori.exactlinalg import random_unimodular

        count = 0
        for _ in range(100):
            A = random_unimodular(2, rng, max_entry=2)
            S = rng.integers(-2, 3, size=(2, 2))
            S = S + S.T
            B = (np.array([[int(v) for v in row] for row in A.astype(int)]) @ S)
            # B tA = A S tA symmetric, so A tB = B tA holds
            M = self.build(A, B.astype(int).tolist())
            if not gamma_star_member(M):
                continue
            count += 1
            Xint = rng.integers(-2, 3, size=(2, 2))
            Xint = Xint + Xint.T
            om = 0.5 * Xint.astype(float) + 1j * random_spd(2, rng)
            out1 = gamma_star_act(M, om)
            out2 = sp_act(M, om)
            assert np.max(np.abs(out1 - out2)) < 1e-10 * max(1.0, np.max(np.abs(out1)))
            assert in_script_H(out1)
            # closure under product
            M2 = self.build(random_unimodular(2, rng, max_entry=2),
                            np.zeros((2, 2), dtype=int))
            assert gamma_star_member(M @ M2)
        assert count >= 90


def gamma_star_blocks(M) -> bool:
    """Reference for an exact 2g x 2g matrix M = (A, B; C, D): C = 0, A
    unimodular, D = tA^-1 and A tB = B tA, each tested on its own."""
    g = M.shape[0] // 2
    A, B, C, D = M[:g, :g], M[:g, g:], M[g:, :g], M[g:, g:]
    if any(C.flat) or not is_unimodular(A):
        return False
    return np.array_equal(D, unimodular_inverse(A).T) and np.array_equal(A @ B.T, B @ A.T)


class TestGammaStarMember:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), g=st.integers(1, 3),
           block=st.sampled_from(["A", "B", "C", "D", "none"]), delta=st.integers(-1, 1))
    def test_agrees_with_block_conditions(self, seed, g, block, delta):
        """A member (A, S tA^-1; 0, tA^-1), S symmetric, with one entry of one
        block moved by delta, is a member exactly when the block conditions
        hold."""
        rng = np.random.default_rng(seed)
        A = random_unimodular(g, rng, max_entry=2)
        S = rng.integers(-2, 3, size=(g, g))
        Dt = unimodular_inverse(A).T
        M = np.zeros((2 * g, 2 * g), dtype=object)
        M[:g, :g] = A
        M[:g, g:] = int_matrix(S + S.T) @ Dt
        M[g:, g:] = Dt
        if block != "none":
            i, j = rng.integers(0, g, size=2) + (g * (block in "CD"), g * (block in "BD"))
            M[i, j] += delta
        expected = gamma_star_blocks(M)
        assert gamma_star_member(M) is expected
        assert gamma_star_member(M.astype(float)) is expected

    @pytest.mark.parametrize("M", [
        [[1, 0.5], [0, 1]],
        [[1, float("nan")], [0, 1]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 0], [0, 1], [0, 0]],
    ], ids=["half", "nan", "odd", "not_square"])
    def test_non_members(self, M):
        assert gamma_star_member(np.array(M)) is False

    def test_beyond_int64(self):
        assert gamma_star_member(np.array([[1.0, 1e20], [0.0, 1.0]]))
        assert not gamma_star_member(np.array([[1.0, 1e20], [1.0, 1.0]]))


class TestScriptH:
    def test_pure_imaginary(self):
        assert in_script_H(1j * np.eye(2))

    def test_half_integral(self):
        M = np.array([[1, 0], [0, 1]])
        assert in_script_H(0.5 * M + 1j * np.eye(2))

    def test_rejects_generic(self):
        assert not in_script_H(np.array([[0.3]]) + 1j * np.eye(1))


class TestJacobiGroup:
    def test_identity_action(self):
        om = random_siegel(2, np.random.default_rng(12))
        Z = np.array([[0.3, -0.2]])
        om2, Z2 = jacobi_group_act(jacobi_identity(2, 1), om, Z)
        assert np.max(np.abs(om2 - om)) < 1e-14
        assert np.max(np.abs(Z2 - Z)) < 1e-14

    def test_heisenberg_translation(self):
        g, h = 2, 1
        rng = np.random.default_rng(13)
        om = random_siegel(g, rng)
        lam = rng.normal(size=(h, g))
        mu = rng.normal(size=(h, g))
        kappa = np.zeros((h, h))
        elem = JacobiGroupElement(M=np.eye(2 * g, dtype=int), lam=lam, mu=mu,
                                  kappa=kappa - 0.5 * (mu @ lam.T - lam @ mu.T))
        Z = rng.normal(size=(h, g)) + 1j * rng.normal(size=(h, g))
        om2, Z2 = jacobi_group_act(elem, om, Z)
        assert np.max(np.abs(om2 - om)) < 1e-13
        assert np.max(np.abs(Z2 - (Z + lam @ om + mu))) < 1e-12

    def test_cocycle(self):
        g, h = 2, 1
        rng = np.random.default_rng(14)
        for _ in range(10):
            def rand_elem():
                lam = rng.normal(size=(h, g))
                mu = rng.normal(size=(h, g))
                k0 = rng.normal(size=(h, h))
                kappa = 0.5 * (k0 + k0.T) - 0.5 * (mu @ lam.T - lam @ mu.T)
                return JacobiGroupElement(
                    M=random_symplectic(g, rng, length=3, max_entry=1),
                    lam=lam, mu=mu, kappa=kappa)

            e1, e2 = rand_elem(), rand_elem()
            om = random_siegel(g, rng)
            Z = rng.normal(size=(h, g)) + 1j * rng.normal(size=(h, g))
            om_a, Z_a = jacobi_group_act(jacobi_compose(e1, e2), om, Z)
            om_m, Z_m = jacobi_group_act(e1, *jacobi_group_act(e2, om, Z))
            assert np.max(np.abs(om_a - om_m)) < 1e-10 * max(1.0, np.max(np.abs(om_a)))
            assert np.max(np.abs(Z_a - Z_m)) < 1e-10 * max(1.0, np.max(np.abs(Z_a)))

    def test_invalid_heisenberg(self):
        with pytest.raises(ValueError):
            JacobiGroupElement(M=np.eye(4, dtype=int),
                               lam=np.array([[1.0, 0.0], [0.0, 1.0]]),
                               mu=np.array([[0.0, 1.0], [0.0, 0.0]]),
                               kappa=np.array([[0.0, 5.0], [0.0, 0.0]]))


class TestFundamentalSet:
    def test_inside(self):
        assert in_siegel_fundamental_set(2j * np.eye(3), u=3.0)

    def test_large_real_part(self):
        assert not in_siegel_fundamental_set(np.array([[10.0]]) + 1j * np.eye(1), u=3.0)

    def test_diagonal_ordering(self):
        assert not in_siegel_fundamental_set(1j * np.diag([9.0, 1.0]), u=3.0)

    def test_u_validation(self):
        with pytest.raises(ValueError):
            in_siegel_fundamental_set(1j * np.eye(2), u=1.0)


class TestRealLocus:
    def test_embed(self):
        Y = random_spd(2, np.random.default_rng(15))
        om, V = real_locus_embed(Y)
        assert V is None
        assert np.max(np.abs(om - 1j * Y)) == 0
        assert np.max(np.abs(tau_point(om) - om)) < 1e-15

    def test_embed_with_companion(self):
        Y = random_spd(2, np.random.default_rng(16))
        V0 = np.array([[0.1, 0.2]])
        om, V = real_locus_embed(Y, V0)
        assert np.max(np.abs(V - V0)) == 0
        assert np.max(np.abs(V.imag)) == 0
