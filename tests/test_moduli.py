import functools
import importlib.util
import itertools
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realtori.exactlinalg import (
    _det_rows,
    det_int,
    int_matrix,
    is_symplectic,
    random_unimodular,
    symplectic_form,
    unimodular_inverse,
)
from realtori.moduli import (
    ModuliInvariant,
    _exact_integers,
    _witness_search,
    Verdict,
    classify_spd,
    congruence_witnesses,
    mod2_invariants,
    mod2_standard_form,
    polarized_tori_equivalent,
    real_ppav_equivalent,
    real_structure_matrix,
    sigma_M_matrix,
    sigma_involution_image,
    stabilizer_mod2_member,
    standard_form_matrix,
    valid_invariants,
)
from realtori import moduli
from realtori.siegel import sp_act
from realtori.spdcone import (
    gl_act,
    minkowski_reduce,
    quadratic_short_vectors,
    random_spd,
    require_spd,
)


# ---------------------------------------------------------------------------
# independent GF(2) oracle: full orbit enumeration under GL(g, F2)


def all_gl_f2(g):
    """All invertible g x g matrices over GF(2), by brute force."""
    out = []
    for bits in itertools.product([0, 1], repeat=g * g):
        A = np.array(bits, dtype=np.uint8).reshape(g, g)
        # rank over GF(2) via elimination
        M = A.copy()
        rank = 0
        for c in range(g):
            piv = next((r for r in range(rank, g) if M[r, c]), None)
            if piv is None:
                continue
            M[[rank, piv]] = M[[piv, rank]]
            for r in range(g):
                if r != rank and M[r, c]:
                    M[r] ^= M[rank]
            rank += 1
        if rank == g:
            out.append(A)
    return out


def all_symmetric_f2(g):
    out = []
    idx = [(i, j) for i in range(g) for j in range(i, g)]
    for bits in itertools.product([0, 1], repeat=len(idx)):
        N = np.zeros((g, g), dtype=np.uint8)
        for (i, j), b in zip(idx, bits):
            N[i, j] = N[j, i] = b
        out.append(N)
    return out


def orbit_of(N, group):
    key = lambda M: M.tobytes()
    return {key((A @ N @ A.T) % 2) for A in group}


class TestMod2Invariants:
    def test_zero(self):
        assert mod2_invariants(np.zeros((3, 3), dtype=int)) == ModuliInvariant(0, 1)

    def test_identity(self):
        assert mod2_invariants(np.eye(3, dtype=int)) == ModuliInvariant(3, 0)

    def test_hyperbolic(self):
        assert mod2_invariants([[0, 1], [1, 0]]) == ModuliInvariant(2, 1)

    def test_orbit_invariance_exhaustive(self):
        for g in (1, 2, 3):
            group = all_gl_f2(g)
            for N in all_symmetric_f2(g):
                inv = mod2_invariants(N)
                for A in group[:: max(1, len(group) // 20)]:
                    assert mod2_invariants((A @ N @ A.T) % 2) == inv


class TestStandardForm:
    def test_examples(self):
        S, A = mod2_standard_form(np.diag([1, 0]).astype(int))
        assert np.array_equal(S, np.diag([1, 0]).astype(np.uint8))
        S, A = mod2_standard_form([[1, 1], [1, 1]])
        assert np.array_equal(S, np.diag([1, 0]).astype(np.uint8))
        S, A = mod2_standard_form([[0, 1], [1, 0]])
        assert np.array_equal(S, np.array([[0, 1], [1, 0]], dtype=np.uint8))

    def test_witness_certifies(self):
        rng = np.random.default_rng(0)
        for g in (1, 2, 3, 4):
            for _ in range(30):
                N = rng.integers(0, 2, size=(g, g)).astype(np.uint8)
                N = ((N + N.T) % 2).astype(np.uint8)
                S, A = mod2_standard_form(N)
                assert np.array_equal((A @ N @ A.T) % 2, S)
                assert mod2_invariants(N) == mod2_invariants(S)

    def test_matches_orbit_enumeration(self):
        # oracle: compare against exhaustive orbit classification
        for g in (1, 2, 3):
            group = all_gl_f2(g)
            if g == 3:
                assert len(group) == 168
            forms = {}
            for N in all_symmetric_f2(g):
                S, A = mod2_standard_form(N)
                assert np.array_equal((A @ N @ A.T) % 2, S)
                orb = orbit_of(N, group)
                # standard form lies in the orbit, and orbits are matched
                assert S.tobytes() in orb
                inv = mod2_invariants(N)
                prev = forms.setdefault((inv.lam, inv.i), (S.tobytes(), frozenset(orb)))
                assert prev[0] == S.tobytes()
                assert prev[1] == frozenset(orb)
            assert len(forms) == len(valid_invariants(g))


class TestValidInvariants:
    def test_g1(self):
        assert {(iv.lam, iv.i) for iv in valid_invariants(1)} == {(0, 1), (1, 0)}

    def test_g2(self):
        assert {(iv.lam, iv.i) for iv in valid_invariants(2)} == {
            (0, 1), (1, 0), (2, 0), (2, 1)}

    def test_count_formula(self):
        for g in range(1, 9):
            assert len(valid_invariants(g)) == g + 1 + g // 2

    def test_restriction_enforced(self):
        with pytest.raises(ValueError):
            ModuliInvariant(1, 1)
        with pytest.raises(ValueError):
            ModuliInvariant(0, 0)


class TestStabilizer:
    def test_identity(self):
        assert stabilizer_mod2_member(np.eye(2, dtype=int), np.diag([1, 0]))

    def test_zero_form(self):
        A = random_unimodular(3, np.random.default_rng(1))
        assert stabilizer_mod2_member(A, np.zeros((3, 3), dtype=int))

    def test_explicit(self):
        assert stabilizer_mod2_member([[1, 1], [0, 1]], np.diag([1, 0]))

    def test_non_member(self):
        assert not stabilizer_mod2_member([[0, 1], [1, 0]], np.diag([1, 0]))

    def test_requires_unimodular(self):
        with pytest.raises(ValueError):
            stabilizer_mod2_member(np.diag([2, 1]), np.zeros((2, 2), dtype=int))


class TestSigmaMatrix:
    def test_zero_gives_j(self):
        S = sigma_M_matrix(np.zeros((2, 2), dtype=int))
        assert np.array_equal(S.astype(int), symplectic_form(2).astype(int))

    def test_all_standard_forms(self):
        for g in (1, 2, 3, 4):
            for inv in valid_invariants(g):
                M = standard_form_matrix(g, inv).astype(int)
                S = sigma_M_matrix(M)
                assert is_symplectic(S)
                neg = S @ (-S)
                n = 2 * g
                assert all(int(neg[i, j]) == int(i == j)
                           for i in range(n) for j in range(n))

    def test_conjugation_relation(self):
        # (tS)^-1 (-I,0;M,I) tS = (I,0;-M,-I) exactly for standard M
        for g in (1, 2, 3, 4):
            for inv in valid_invariants(g):
                M = int_matrix(standard_form_matrix(g, inv).astype(int))
                S = sigma_M_matrix(M)
                I = int_matrix(np.eye(g, dtype=int))
                Z = np.zeros((g, g), dtype=object)
                Z[:, :] = 0
                lhs_mid = np.block([[-I, Z], [M, I]])
                rhs = np.block([[I, Z], [-M, -I]])
                St = S.T
                St_inv = unimodular_inverse(St)
                out = St_inv @ lhs_mid @ St
                assert all(int(x) == int(y) for x, y in zip(out.flat, rhs.flat))

    def test_requires_m_cubed(self):
        with pytest.raises(ValueError):
            sigma_M_matrix(2 * np.eye(2, dtype=int))


class TestSigmaInvolutionImage:
    def test_zero_form_inversion(self):
        Y = random_spd(2, np.random.default_rng(2))
        out = sigma_involution_image(np.zeros((2, 2), dtype=int), Y)
        assert np.max(np.abs(out - 1j * np.linalg.inv(Y))) < 1e-12

    def test_fixed_point(self):
        out = sigma_involution_image(np.zeros((2, 2), dtype=int), np.eye(2))
        assert np.max(np.abs(out - 1j * np.eye(2))) < 1e-14

    def test_agrees_with_action(self):
        rng = np.random.default_rng(3)
        for g in (2, 3):
            for inv in valid_invariants(g):
                M = standard_form_matrix(g, inv).astype(int)
                S = sigma_M_matrix(M)
                for _ in range(5):
                    Y = random_spd(g, rng)
                    om = 0.5 * M.astype(float) + 1j * Y
                    closed = sigma_involution_image(M, Y)
                    acted = sp_act(S, om)
                    assert np.max(np.abs(closed - acted)) < 1e-10

    @pytest.mark.parametrize("g_M, g_Y", [(2, 1), (1, 3)])
    def test_size_mismatch_is_refused(self, g_M, g_Y):
        with pytest.raises(ValueError, match=f"M is {g_M} x {g_M} but Y is {g_Y} x {g_Y}"):
            sigma_involution_image(np.zeros((g_M, g_M), dtype=int), np.eye(g_Y))

    def test_involution_up_to_class(self):
        # applying twice gives a point equivalent to the original
        rng = np.random.default_rng(4)
        M = standard_form_matrix(2, ModuliInvariant(1, 0)).astype(int)
        Y = random_spd(2, rng)
        om1 = sigma_involution_image(M, Y)
        om2 = sigma_involution_image(M, om1.imag)
        res = real_ppav_equivalent(0.5 * M.astype(float) + 1j * Y, om2)
        assert res.verdict is Verdict.EQUIVALENT


class TestRealStructureMatrix:
    def test_pure_imaginary(self):
        Y = random_spd(2, np.random.default_rng(5))
        Ms = real_structure_matrix(1j * Y)
        expected = np.block([[-np.eye(2, dtype=int), np.zeros((2, 2), dtype=int)],
                             [np.zeros((2, 2), dtype=int), np.eye(2, dtype=int)]])
        assert np.array_equal(Ms.astype(int), expected)

    def test_half_shift(self):
        om = np.array([[0.5]]) + 1j * np.eye(1)
        Ms = real_structure_matrix(om)
        assert np.array_equal(Ms.astype(int), np.array([[-1, 0], [1, 1]]))

    def test_anti_symplectic_random(self):
        rng = np.random.default_rng(6)
        J = symplectic_form(2)
        for _ in range(100):
            Xint = rng.integers(-3, 4, size=(2, 2))
            Xint = Xint + Xint.T
            om = 0.5 * Xint.astype(float) + 1j * random_spd(2, rng)
            Ms = real_structure_matrix(om)
            R = Ms.T @ J @ Ms + J
            assert all(int(v) == 0 for v in R.flat)

    def test_rejects_generic_point(self):
        with pytest.raises(ValueError):
            real_structure_matrix(np.array([[0.3]]) + 1j * np.eye(1))


class TestCongruenceWitnesses:
    def test_identity_pair(self):
        Y = random_spd(2, np.random.default_rng(7))
        ws, complete = congruence_witnesses(Y, Y)
        assert complete
        assert any(np.array_equal(w.astype(int), np.eye(2, dtype=int)) for w in ws)

    def test_transported(self):
        rng = np.random.default_rng(8)
        Y = random_spd(2, rng)
        U = random_unimodular(2, rng, max_entry=2)
        Y2 = gl_act(U.astype(float), Y)
        ws, complete = congruence_witnesses(Y, Y2)
        assert complete and ws
        for w in ws:
            assert np.max(np.abs(gl_act(w.astype(float), Y) - Y2)) < 1e-8

    def test_dimension_mismatch_has_no_witness(self):
        assert congruence_witnesses(np.eye(2), np.eye(3)) == ([], True)

    def test_truncated_at_max_witnesses(self):
        # Aut(I_2) has 8 elements, the signed permutations
        ws, complete = congruence_witnesses(np.eye(2), np.eye(2), max_witnesses=3)
        assert len(ws) == 3 and not complete
        ws, complete = congruence_witnesses(np.eye(2), np.eye(2))
        assert len(ws) == 8 and complete
        # a list of exactly max_witnesses is complete when no witness follows
        ws, complete = congruence_witnesses(np.eye(2), np.eye(2), max_witnesses=8)
        assert len(ws) == 8 and complete
        ws, complete = congruence_witnesses(np.eye(2), np.eye(2), max_witnesses=7)
        assert len(ws) == 7 and not complete

    def test_enumeration_cap(self):
        # I_2 has four vectors of value 1, more than the cap
        assert congruence_witnesses(np.eye(2), np.eye(2), cap=3) == ([], False)

    def test_node_cap(self):
        # the eight vectors of value 1 fit the cap; the rows tried do not
        with pytest.raises(RuntimeError, match="witness search cap exceeded"):
            list(_witness_search(np.eye(4), np.eye(4), 1e-9, 8))
        ws, complete = congruence_witnesses(np.eye(4), np.eye(4), cap=8)
        assert not complete


    def test_matches_a_row_by_row_search(self):
        """The witnesses, their order and the point where the node cap stops
        the search are those of a plain row-by-row backtracking with one
        exact determinant per complete matrix; integer forms keep every float
        value exact."""

        def reference(Y1, Y2, tau, cap):
            g = Y1.shape[0]
            out, nodes = [], 0

            def walk(chosen):
                nonlocal nodes
                i = len(chosen)
                if i == g:
                    if abs(det_int(int_matrix([vecs[c] for c in chosen]))) == 1:
                        out.append([list(vecs[c]) for c in chosen])
                    return
                for c in rows[i]:
                    nodes += 1
                    if nodes > cap:
                        raise RuntimeError
                    if all(abs(X[c] @ Y1 @ X[j] - Y2[i, k]) <= tau for k, j in enumerate(chosen)):
                        walk(chosen + [c])

            try:
                vecs = quadratic_short_vectors(Y1, float(np.max(np.diag(Y2))) + tau, cap=cap)
                X = np.array(vecs, dtype=float).reshape(len(vecs), g)
                rows = [[c for c in range(len(vecs)) if abs(X[c] @ Y1 @ X[c] - Y2[i, i]) <= tau]
                        for i in range(g)]
                walk([])
            except RuntimeError:
                return out, False
            return out, True

        rng = np.random.default_rng(12)
        cases = []
        for trial in range(120):
            # transported pairs, and self-pairs at a tolerance wide enough
            # that the last row has many candidates
            g = 2 + trial % 3
            M = rng.integers(-2, 3, size=(g, g))
            Z = M @ M.T + np.diag(rng.integers(1, 3, size=g))
            U = random_unimodular(g, rng, max_entry=2).astype(np.int64)
            cases.append((Z, U @ Z @ U.T, 1e-9, (7, 40, 300, 10**6)))
            if trial % 4 == 0:
                cases.append((Z, Z, 2.5, (7, 300, 2000)))
        for Z1, Z2, tau, caps in cases:
            Y1, Y2 = (np.array(W, dtype=float) for W in (Z1, Z2))
            for cap in caps:
                out = []
                try:
                    for B in _witness_search(Y1, Y2, tau, cap):
                        out.append(B.tolist())
                    done = True
                except RuntimeError:
                    done = False
                assert (out, done) == reference(Y1, Y2, tau, cap)

    def test_completions_with_large_entries_are_exact(self):
        """Rows with entries near 1e10 put x.C beyond 2^53, where floats
        round: the completions are decided in Python ints, as by _det_rows."""
        rng = np.random.default_rng(3)
        for g in (2, 3, 4):
            # R L, unit upper and lower triangular with entries near 1e5
            L = [[int(rng.integers(50_000, 100_000)) if i > j else int(i == j) for j in range(g)]
                 for i in range(g)]
            R = [[int(rng.integers(50_000, 100_000)) if i < j else int(i == j) for j in range(g)]
                 for i in range(g)]
            U = [[sum(R[i][k] * L[k][j] for k in range(g)) for j in range(g)] for i in range(g)]
            B, last = U[:-1], U[-1]
            vecs = [tuple(last), tuple(-x for x in last), tuple(2 * x for x in last),
                    tuple(x + y for x, y in zip(last, B[0])), tuple(x + 1 for x in last),
                    (1,) + tuple(last[1:])]
            vecs += [tuple(int(x) for x in rng.integers(-10**10, 10**10, size=g)) for _ in range(20)]
            X = np.array(vecs, dtype=float)
            C = [_det_rows([r[:j] + r[j + 1:] for r in B]) for j in range(g)]
            assert g * max(map(abs, C)) * float(np.abs(X).max()) >= 2.0 ** 53
            expected = [k for k, x in enumerate(vecs) if abs(_det_rows(B + [list(x)])) == 1]
            assert expected[:3] == [0, 1, 3]
            assert moduli._unimodular_completions(B, np.arange(len(vecs)), vecs, X) == expected

    @pytest.mark.parametrize("Y1, B", [
        ([[1.0, 0.5], [0.5, 1.0]], [[1, 0], [0, 1]]),
        ([[1.0, 0.5], [0.5, 1.0]], [[1, 0], [1, 1]]),
        ([[1.0, 0.0], [0.0, 1.0]], [[1, 1], [0, 1]]),
        ([[1.0, 0.0], [0.0, 2.0]], [[0, 1], [1, 1]]),
        ([[1.0, 0.3], [0.3, 1.7]], [[1, 0], [-1, 1]]),
        ([[2.0, 0.0], [0.0, 3.0]], [[2, 1], [1, 1]]),
    ])
    def test_brute_force_2x2(self, Y1, B):
        """Every witness equals the brute-force set over entries in [-2, 2]."""
        Y1 = np.array(Y1)
        Y2 = gl_act(np.array(B, dtype=float), Y1)
        box = [np.array(e).reshape(2, 2) for e in itertools.product(range(-2, 3), repeat=4)]
        tau = 1e-9 * max(1.0, float(np.max(np.abs(Y2))))
        for target in (Y2, Y2 + np.diag([0.0, 0.25])):
            brute = {tuple(M.flat) for M in box
                     if round(abs(np.linalg.det(M))) == 1
                     and np.max(np.abs(M @ Y1 @ M.T - target)) <= tau}
            ws, complete = congruence_witnesses(Y1, target)
            assert complete
            found = {tuple(int(v) for v in w.flat) for w in ws}
            assert len(found) == len(ws)
            assert max((abs(v) for w in found for v in w), default=0) <= 2
            assert found == brute
            assert bool(found) == (target is Y2)


class TestPolarizedToriEquivalence:
    def test_same_matrix(self):
        Y = random_spd(2, np.random.default_rng(9))
        res = polarized_tori_equivalent(Y, Y)
        assert res.verdict is Verdict.EQUIVALENT

    def test_transported_pairs(self):
        rng = np.random.default_rng(10)
        for g in (2, 3):
            for _ in range(20):
                Y = random_spd(g, rng)
                U = random_unimodular(g, rng, max_entry=3)
                Y2 = gl_act(U.astype(float), Y)
                res = polarized_tori_equivalent(Y, Y2)
                assert res.verdict is Verdict.EQUIVALENT
                A = res.witness.astype(float)
                assert np.max(np.abs(A @ Y @ A.T - Y2)) < 1e-9 * max(1.0, np.max(np.abs(Y2)))

    def test_determinant_obstruction(self):
        res = polarized_tori_equivalent(np.eye(2), np.diag([1.0, 2.0]))
        assert res.verdict is Verdict.INEQUIVALENT

    def test_ill_conditioned_transported_pairs(self):
        """Float determinants of equivalent forms with cond(Y) up to 1e12 can
        differ by more than 1e-8 relative; no verdict rests on them."""
        rng = np.random.default_rng(0)
        for g in (2, 3, 4):
            for _ in range(300):
                Q, _ = np.linalg.qr(rng.standard_normal((g, g)))
                Y1 = Q @ np.diag(10.0 ** rng.uniform(0, 12, size=g)) @ Q.T
                Y1 = 0.5 * (Y1 + Y1.T)
                Y2 = gl_act(random_unimodular(g, rng, max_entry=3).astype(float), Y1)
                res = polarized_tori_equivalent(Y1, Y2)
                assert res.verdict is Verdict.EQUIVALENT
                A = res.witness.astype(float)
                assert np.max(np.abs(A @ Y1 @ A.T - Y2)) <= 1e-9 * max(1.0, np.max(np.abs(Y2)))

    def test_determinant_decides_integer_pairs_only(self):
        res = polarized_tori_equivalent(np.eye(4), 1000 * np.eye(4))
        assert (res.verdict, res.detail) == (Verdict.INEQUIVALENT, "determinant invariant differs")
        # a non-integral pair rests on the witness search, whose candidates
        # here exceed the cap
        res = polarized_tori_equivalent(np.eye(4), 1000.5 * np.eye(4))
        assert (res.verdict, res.detail) == (Verdict.UNDECIDED, "candidate cap exceeded")

    def test_same_det_inequivalent(self):
        # diag(2, 1/2) and I have equal determinant but different minima
        res = polarized_tori_equivalent(np.diag([2.0, 0.5]), np.eye(2))
        assert res.verdict is Verdict.INEQUIVALENT


class TestExactEquivalence:
    """Integer input below 2^53: a witness is checked as A Y1 tA = Y2 in integers."""

    def test_close_integer_pair_is_inequivalent(self):
        # minima 10^10 and 10^10 + 1; every float test relative to max|Y|
        # passes for the identity, and the eight candidates of the complete
        # search all fail the exact check
        Y1 = np.diag([10**10, 10**10 + 2]).astype(float)
        Y2 = np.diag([10**10 + 1, 10**10 + 1]).astype(float)
        for a, b in ((Y1, Y2), (Y2, Y1)):
            res = polarized_tori_equivalent(a, b)
            assert res.verdict is Verdict.INEQUIVALENT
            assert res.witness is None

    def test_close_integer_ppav_pair(self):
        """The same pair as imaginary parts of real points, and a transported
        copy of the first, which stays EQUIVALENT with an exact witness."""
        Y1 = np.diag([10**10, 10**10 + 2]).astype(float)
        Y2 = np.diag([10**10 + 1, 10**10 + 1]).astype(float)
        assert real_ppav_equivalent(1j * Y1, 1j * Y2).verdict is Verdict.INEQUIVALENT
        U = int_matrix([[1, 1], [0, 1]])
        Z = U @ int_matrix(Y1.astype(np.int64)) @ U.T
        res = real_ppav_equivalent(1j * Y1, 1j * np.array(Z.tolist(), dtype=float))
        assert res.verdict is Verdict.EQUIVALENT
        A = res.witness
        assert np.all(A @ int_matrix(Y1.astype(np.int64)) @ A.T == Z)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), g=st.integers(2, 4),
           scale=st.sampled_from([1, 10**6, 10**10]))
    def test_unit_perturbations_are_never_equivalent(self, seed, g, scale):
        """A transported integer pair is EQUIVALENT with an exact witness; moving
        one entry pair of Y2 by +-1 (keeping it positive definite, changing
        its determinant) makes it INEQUIVALENT, also at 10^10 where the
        perturbation is below every relative float tolerance."""
        rng = np.random.default_rng(seed)
        M = rng.integers(-3, 4, size=(g, g))
        Z1 = int_matrix(scale * (M @ M.T + g * np.eye(g, dtype=np.int64)))
        U = random_unimodular(g, rng, max_entry=2)
        Z2 = U @ Z1 @ U.T
        assert max(abs(v) for v in Z2.flat) < 2**53

        def as_float(Z):
            return np.array(Z.tolist(), dtype=float)

        res = polarized_tori_equivalent(as_float(Z1), as_float(Z2))
        assert res.verdict is Verdict.EQUIVALENT
        A = res.witness
        assert np.all(A @ Z1 @ A.T == Z2)
        det1 = det_int(Z1)
        for i, j in itertools.combinations_with_replacement(range(g), 2):
            for step in (1, -1):
                Z = Z2.copy()
                Z[i, j] += step
                if i != j:
                    Z[j, i] += step
                # Sylvester's criterion, exactly
                if det_int(Z) == det1 or any(det_int(Z[:k, :k]) <= 0 for k in range(1, g + 1)):
                    continue
                res = polarized_tori_equivalent(as_float(Z1), as_float(Z))
                assert res.verdict is Verdict.INEQUIVALENT


def _tied_pair(rng: np.random.Generator, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Y1 = M + M (block sum) with M = Q diag(1, c) tQ, Q a random rotation,
    and Y2 = U Y1 tU for a random unimodular U with entries up to 3."""
    Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    M = Q @ np.diag([1.0, c]) @ Q.T
    Y1 = np.kron(np.eye(2), 0.5 * (M + M.T))
    return Y1, gl_act(random_unimodular(4, rng, max_entry=3).astype(float), Y1)


class TestSuccessiveMinima:
    """Where the identity shortcut does not apply and R1 passes the reduction
    certificate, R1_kk > R2_jj + tau for every j <= k is INEQUIVALENT before
    any enumeration.  The reverse test is not made."""

    def test_minima_decide_without_enumerating(self, monkeypatch):
        enumerated = []
        monkeypatch.setattr(moduli, "quadratic_short_vectors",
                            lambda *a, **k: enumerated.append(1) or quadratic_short_vectors(*a, **k))
        # second minima 1 < 2 and third minima 4 > 2: each order has a k
        a, b = np.diag([1.0, 1.0, 4.0]), np.diag([1.0, 2.0, 2.0])
        for Y1, Y2 in ((a, b), (b, a)):
            res = polarized_tori_equivalent(Y1, Y2)
            assert (res.verdict, res.detail) == (Verdict.INEQUIVALENT, "successive minima differ")
            res = real_ppav_equivalent(1j * Y1, 1j * Y2)
            assert (res.verdict, res.detail) == (Verdict.INEQUIVALENT, "successive minima differ")
        assert not enumerated

    @pytest.mark.parametrize("small, large, search", [
        (np.eye(3), np.diag([1.0, 1.0, 1.5]),
         (Verdict.INEQUIVALENT, "no witness in the complete candidate set")),
        (np.eye(4), 1000.5 * np.eye(4), (Verdict.UNDECIDED, "candidate cap exceeded")),
    ])
    def test_one_sided(self, small, large, search):
        """Minima of Y1 below those of Y2 go to the witness search; the
        reversed pair is decided by its minima."""
        res = polarized_tori_equivalent(small, large)
        assert (res.verdict, res.detail) == search
        res = polarized_tori_equivalent(large, small)
        assert (res.verdict, res.detail) == (Verdict.INEQUIVALENT, "successive minima differ")

    def test_equal_diagonals_go_to_the_search(self):
        res = polarized_tori_equivalent(np.diag([2.0, 3.5]), np.array([[2.0, 0.5], [0.5, 3.5]]))
        assert (res.verdict, res.detail) == (Verdict.INEQUIVALENT,
                                             "no witness in the complete candidate set")


class TestTransportedTiedPairs:
    """Pairs whose reduced forms tie, so that the identity shortcut seldom
    applies and the minima test or the witness search decides: none may
    answer INEQUIVALENT.  A cap of 2,000 keeps each to milliseconds; the
    searches it stops answer UNDECIDED, as they do at the default cap."""

    def test_seeded_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(600):
            Y1, Y2 = _tied_pair(rng, 10.0 ** rng.uniform(0, 11))
            res = polarized_tori_equivalent(Y1, Y2, cap=2000)
            assert res.verdict is not Verdict.INEQUIVALENT
            if res.verdict is Verdict.EQUIVALENT:
                A = res.witness.astype(float)
                assert np.max(np.abs(A @ Y1 @ A.T - Y2)) <= 1e-9 * np.max(np.abs(Y2))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), decades=st.floats(0, 10))
    def test_up_to_cond_1e10(self, seed, decades):
        Y1, Y2 = _tied_pair(np.random.default_rng(seed), 10.0 ** decades)
        for a, b in ((Y1, Y2), (Y2, Y1)):
            assert polarized_tori_equivalent(a, b, cap=2000).verdict is not Verdict.INEQUIVALENT


class TestLongRowWitnesses:
    """Hexagonal ties give witnesses between the reduced forms with rows of
    1-norm 2, whose rounding the search tolerance must cover as well."""

    HEX3 = np.array([[1, 0, 0], [1, -1, 0], [0, 0, 1]])

    def test_search_finds_a_long_row(self):
        # cond about 1e5: the reduced forms differ beyond the identity shortcut
        R = np.array([[2, 1, 0.3], [1, 2, 0.9], [0.3, 0.9, 1e5]])
        T = random_unimodular(3, np.random.default_rng(3), max_entry=3).astype(float)
        Y1, Y2 = gl_act(T, R), gl_act(self.HEX3.astype(float), R)
        (R1, A1), (R2, A2) = minkowski_reduce(Y1), minkowski_reduce(Y2)
        assert np.max(np.abs(R1 - R2)) > 1e-8 * np.max(np.abs(Y2))
        res = polarized_tori_equivalent(Y1, Y2)
        assert res.verdict is Verdict.EQUIVALENT
        B = A2 @ res.witness @ unimodular_inverse(A1)
        assert max(sum(abs(int(x)) for x in row) for row in B.tolist()) == 2

    def test_transported_witnesses_fit_the_tolerance(self):
        # U passes the transport check at t = the exact mismatch of
        # Y2 = fl(U Y1 tU), so that rounding, not t, sets most of tau; then
        # B = A2 U A1^-1 must fit R1 to R2 within tau and keep q_R1 of its rows
        # below q, up to cond 1e10
        rng = np.random.default_rng(7)
        hexagonal = np.array([[2.0, 1.0], [1.0, 2.0]])
        long_rows = 0
        for _ in range(120):
            c = 10.0 ** rng.uniform(0, 10)
            g = int(rng.integers(2, 5))
            M = np.diag([2.0, 2.0] + [c] * (g - 2))
            M[:2, :2] = hexagonal
            if g == 4:
                M[2:, 2:] = c * hexagonal
            Y1 = gl_act(random_unimodular(g, rng, max_entry=3).astype(float), M)
            U = random_unimodular(g, rng, max_entry=3)
            Y2 = gl_act(U.astype(float), Y1)
            (R1, A1), (R2, A2) = minkowski_reduce(Y1), minkowski_reduce(Y2)
            Uq = [[Fraction(int(x)) for x in row] for row in U.tolist()]
            exact = np.array(Uq, dtype=object) @ np.vectorize(Fraction, otypes=[object])(Y1) \
                @ np.array(Uq, dtype=object).T
            t_Y = float(np.max(np.abs(exact - np.vectorize(Fraction, otypes=[object])(Y2))))
            tau, q, _ = moduli._search_tolerance(R1, R2, A2, t_Y / float(np.max(np.abs(Y2))), t_Y)
            B = (A2 @ U @ unimodular_inverse(A1)).astype(float)
            assert np.all(np.abs(B @ R1 @ B.T - R2) <= tau)
            assert np.all(np.einsum("ij,jk,ik->i", B, R1, B) <= q)
            long_rows += np.abs(B).sum(axis=1).max() > 1
            assert polarized_tori_equivalent(Y1, Y2, cap=2000).verdict is Verdict.EQUIVALENT
        assert long_rows > 60


def _skewed_pairs():
    """Pairs at g = 2 and 3: Y1 is a form of eigenvalues 1 and 1e13 moved
    by a unimodular matrix (cond(Y1) about 1e14-1e15 in that skewed basis),
    and Y2 is Y1 moved again; the moved forms too near singular for the
    proof of definiteness (4 of the 40 draws) are left out."""
    rng = np.random.default_rng(14)
    pairs = []
    for i in range(40):
        g = 2 + i % 2
        Q, _ = np.linalg.qr(rng.standard_normal((g, g)))
        M = Q @ np.diag([1.0] + [1e13] * (g - 1)) @ Q.T
        try:
            Y1 = gl_act(random_unimodular(g, rng, max_entry=3).astype(float), 0.5 * (M + M.T))
            Y2 = require_spd(gl_act(random_unimodular(g, rng, max_entry=3).astype(float), Y1))
        except ValueError as exc:
            assert str(exc) == "matrix is not positive definite"
            continue
        pairs.append((Y1, Y2))
    return pairs


class TestUnboundedTolerance:
    """The rounding bound rho of ``_search_tolerance`` reads only the
    reduced form R1, whose correlation matrix is well conditioned, so it
    stays far below 1 however skewed the input basis.  Where rho reaches 1,
    tau is infinite, every candidate passes the filters, and the search ends
    at its cap."""

    @staticmethod
    def _recording(monkeypatch):
        bounds = []
        search_tolerance = moduli._search_tolerance

        def recording(*args):
            tau, q, rho = search_tolerance(*args)
            bounds.append((rho, bool(np.isinf(tau).all() and np.isinf(q).all())))
            return tau, q, rho

        monkeypatch.setattr(moduli, "_search_tolerance", recording)
        return bounds

    def test_skewed_pairs_have_a_small_bound(self, monkeypatch):
        bounds = self._recording(monkeypatch)
        pairs = _skewed_pairs()
        assert len(pairs) == 36
        for Y1, Y2 in pairs:
            res = polarized_tori_equivalent(Y1, Y2, cap=50)
            assert res.verdict is not Verdict.INEQUIVALENT
        assert bounds and max(rho for rho, _ in bounds) < 1e-12

    def test_unbounded_tolerance_is_undecided(self, monkeypatch):
        """A unit roundoff of 0.075 makes gamma_{g^2+3} at least 1 at
        g = 2, 3, and kappa >= 1, so rho >= 1."""
        bounds = self._recording(monkeypatch)
        monkeypatch.setattr(moduli, "_ROUNDING", 0.15)
        undecided = 0
        for Y1, Y2 in _skewed_pairs():
            bounds.clear()
            res = polarized_tori_equivalent(Y1, Y2, cap=50)
            assert res.verdict is not Verdict.INEQUIVALENT
            if bounds:
                assert bounds[0][0] >= 1 and bounds[0][1]
                assert (res.verdict, res.detail) == (Verdict.UNDECIDED, "candidate cap exceeded")
                undecided += 1
        assert undecided >= 2


class TestRealPpavEquivalence:
    def test_reflexive(self):
        om = 0.5 * np.eye(2) + 1j * random_spd(2, np.random.default_rng(11))
        res = real_ppav_equivalent(om, om)
        assert res.verdict is Verdict.EQUIVALENT

    def test_transported(self):
        rng = np.random.default_rng(12)
        from realtori.siegel import gamma_star_act

        for _ in range(10):
            Y = random_spd(2, rng)
            Xint = rng.integers(-1, 2, size=(2, 2))
            Xint = Xint + Xint.T
            om = 0.5 * Xint.astype(float) + 1j * Y
            A = random_unimodular(2, rng, max_entry=2)
            S = rng.integers(-1, 2, size=(2, 2))
            S = S + S.T
            B = int_matrix((np.array([[int(v) for v in r] for r in A.astype(int)]) @ S))
            M = np.zeros((4, 4), dtype=object)
            M[:, :] = 0
            M[:2, :2] = A
            M[:2, 2:] = B
            M[2:, 2:] = unimodular_inverse(A).T
            om2 = gamma_star_act(M, om)
            res = real_ppav_equivalent(om, om2)
            assert res.verdict is Verdict.EQUIVALENT

    def test_invariant_obstruction(self):
        om1 = 1j * np.eye(2)
        om2 = 0.5 * np.eye(2) + 1j * np.eye(2)
        res = real_ppav_equivalent(om1, om2)
        assert res.verdict is Verdict.INEQUIVALENT

    def test_dimension_mismatch(self):
        res = real_ppav_equivalent(1j * np.eye(2), 1j * np.eye(3))
        assert res.verdict is Verdict.INEQUIVALENT and res.detail == "dimension mismatch"

    @pytest.mark.parametrize("inv", valid_invariants(4), ids=lambda inv: f"{inv.lam}-{inv.i}")
    def test_g4_transports_of_each_standard_form(self, inv):
        """Y1 = W D tW with D diagonal of distinct increasing entries, so
        every automorphism of Y1 is W S W^-1 with S a diagonal sign matrix,
        which is the identity mod 2.  The witnesses from Y1 to U Y1 tU are
        then U W S W^-1, all congruent to U mod 2: the pair with 2 Re Omega2
        = U N tU + 2 K is EQUIVALENT, and one whose 2 Re Omega2 is not
        U N tU mod 2 is INEQUIVALENT."""
        def point(M, Y):
            return (np.array(M.tolist(), dtype=float) / 2
                    + 1j * np.array(Y.tolist(), dtype=float))

        N = int_matrix(standard_form_matrix(4, inv))
        rng = np.random.default_rng(400 + 10 * inv.lam + inv.i)
        for _ in range(8):
            D = np.diag(np.sort(rng.choice(np.arange(1, 16), 4, replace=False)))
            W = random_unimodular(4, rng, max_entry=2)
            Y1 = W @ int_matrix(D) @ W.T
            U = random_unimodular(4, rng, max_entry=2)
            Y2 = U @ Y1 @ U.T
            K = rng.integers(-1, 2, (4, 4))
            N2 = U @ N @ U.T + 2 * int_matrix(K + K.T)
            res = real_ppav_equivalent(point(N, Y1), point(N2, Y2))
            assert res.verdict is Verdict.EQUIVALENT
            A = res.witness
            assert np.all(A @ Y1 @ A.T == Y2)
            assert all(v % 2 == 0 for v in (A @ N @ A.T - N2).flat)
            # another matrix of the same component where there is one, else a flip
            broken = None
            for _ in range(50):
                V = random_unimodular(4, rng, max_entry=2)
                B = (V @ N @ V.T) % 2
                if any(v % 2 for v in (B - N2).flat):
                    broken = B
                    break
            if broken is None:
                broken = N2.copy()
                broken[0, 0] += 1
            res = real_ppav_equivalent(point(N, Y1), point(broken, Y2))
            assert res.verdict is Verdict.INEQUIVALENT and res.witness is None
            if inv != ModuliInvariant(0, 1):
                assert res.detail == "no witness in the complete candidate set"

    def test_never_equivalent_without_witness(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            om1 = 0.5 * np.eye(2) + 1j * random_spd(2, rng)
            om2 = 0.5 * np.eye(2) + 1j * random_spd(2, rng)
            res = real_ppav_equivalent(om1, om2)
            if res.verdict is Verdict.EQUIVALENT:
                A = res.witness.astype(float)
                assert np.max(np.abs(A @ om1.imag @ A.T - om2.imag)) < 1e-7


class TestTolerance:
    """A witness search on tolerance tol * max|R2| never goes below the
    rounding level of the reduced forms: tol below 1e-9 searches as 1e-9."""

    def test_ppav_with_tol_zero_finds_the_witness(self):
        # 1.3 [[2, 1], [1, 3]], moved by [[1, 1], [0, 1]]
        X = [[0.5, 0.0], [0.0, 0.0]]
        om1 = np.array(X) + 1j * np.array([[1.4, 0.7], [0.7, 2.0999999999999996]])
        om2 = np.array(X) + 1j * np.array([[4.8999999999999995, 2.8], [2.8, 2.0999999999999996]])
        for tol in (0.0, 1e-12, 1e-9):
            res = real_ppav_equivalent(om1, om2, tol=tol)
            assert res.verdict is Verdict.EQUIVALENT
            assert res.witness.tolist() == [[1, 1], [0, 1]]
            res = polarized_tori_equivalent(om1.imag, om2.imag, tol=tol)
            assert res.verdict is Verdict.EQUIVALENT

    @pytest.mark.parametrize("tol", [0.0, 1e-12])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_workload_ppav_pairs(self, seed, tol):
        """The 36 equivalent and 36 inequivalent real-ppav pairs of the
        ``equiv`` benchmark workload at this seed keep their verdicts."""
        items = [it for it in _workloads().generate("equiv", seed) if it.check == "equiv_ppav"]
        assert len(items) == 72
        for item in items:
            p = item.payload
            om1, om2 = (np.array(p[k]["X"]) + 1j * np.array(p[k]["Y"])
                        for k in ("Omega1", "Omega2"))
            res = real_ppav_equivalent(om1, om2, tol=tol)
            assert res.verdict.value == item.ctx["expected"]
            if res.verdict is Verdict.EQUIVALENT:
                A = res.witness
                Af = A.astype(float)
                assert np.max(np.abs(Af @ om1.imag @ Af.T - om2.imag)) < 1e-8
                N1, N2 = (int_matrix(np.round(2 * om.real).astype(int)) for om in (om1, om2))
                assert all(v % 2 == 0 for v in (A @ N1 @ A.T - N2).flat)


@functools.lru_cache(maxsize=None)
def _workloads():
    """The ``perfbench`` request generators, imported from the checkout."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExactIntegers:
    def test_integers_below_2_53(self):
        big = 2.0 ** 53 - 1
        Z1, Z2 = _exact_integers(np.array([[big, -big], [-big, big]]),
                                 np.array([[-0.0, 1.0], [3.0, -7.0]]))
        assert Z1.dtype == object
        assert Z1.tolist() == [[2**53 - 1, 1 - 2**53], [1 - 2**53, 2**53 - 1]]
        assert Z2.tolist() == [[0, 1], [3, -7]]
        assert all(type(v) is int for v in Z2.flat)
        assert str(Z2[0, 0]) == "0"

    @pytest.mark.parametrize("v", [2.0 ** 53, -(2.0 ** 53), 2.0 ** 60, 0.5, -1.25, 1e-300,
                                   2.0 ** 51 + 0.5])
    def test_others_are_refused(self, v):
        assert _exact_integers(np.eye(2), np.array([[1.0, v], [v, 1.0]])) is None
        assert _exact_integers(np.array([[v]])) is None


class TestClassifySpd:
    def test_bundles(self):
        Y = random_spd(2, np.random.default_rng(14))
        cls = classify_spd(np.zeros((2, 2), dtype=int), Y)
        assert cls.invariant == ModuliInvariant(0, 1)
        assert np.array_equal(cls.standard_M, np.zeros((2, 2), dtype=np.uint8))
