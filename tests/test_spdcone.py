import itertools
import math
import re
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realtori import geodesics, siegel, spdcone, theta, tori
from realtori.exactlinalg import det_int, is_unimodular, random_unimodular
from realtori.spdcone import (
    JacobiFactors,
    gl_act,
    invariant_operator_apply,
    is_minkowski_reduced,
    jacobi_decomposition,
    metric_norm,
    minkowski_reduce,
    partial_iwasawa,
    quadratic_short_vectors,
    random_spd,
    require_spd,
    volume_density,
)


class TestGlAct:
    def test_identity(self):
        Y = random_spd(3, np.random.default_rng(0))
        assert np.allclose(gl_act(np.eye(3), Y), Y)

    def test_diagonal(self):
        out = gl_act(np.diag([2.0, 1.0]), np.eye(2))
        assert np.allclose(out, np.diag([4.0, 1.0]))

    def test_group_law(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            A = rng.normal(size=(3, 3)) + 3 * np.eye(3)
            B = rng.normal(size=(3, 3)) + 3 * np.eye(3)
            Y = random_spd(3, rng)
            lhs = gl_act(A, gl_act(B, Y))
            rhs = gl_act(A @ B, Y)
            assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1, np.max(np.abs(rhs)))

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            gl_act(np.zeros((2, 2)), np.eye(2))


_I2 = np.eye(2)
_Z2 = np.zeros((2, 2))
# every input validated by spdcone._symmetric or spdcone._invertible, with
# the name its error gives and a call that sends it a 2 x 2 matrix X
_CHECKED_INPUTS = {
    "require_spd": ("SPD matrix", lambda X: require_spd(X)),
    "jacobi_decomposition": ("SPD matrix", lambda X: jacobi_decomposition(X)),
    "quadratic_short_vectors": ("SPD matrix", lambda X: quadratic_short_vectors(X, 1.0)),
    "metric_norm": ("tangent vector", lambda X: metric_norm(_I2, X)),
    "require_siegel": ("half-space point", lambda X: siegel.require_siegel(X + 1j * _I2)),
    "sp_act": ("half-space point",
               lambda X: siegel.sp_act(np.eye(4, dtype=int), X + 1j * _I2)),
    "require_disk": ("disk point", lambda X: siegel.require_disk(0.1 * X)),
    "JacobiGroupElement": ("kappa + mu t(lam)", lambda X: siegel.JacobiGroupElement(
        M=np.eye(4, dtype=int), lam=X, mu=_Z2, kappa=_Z2)),
    "is_polarized_symmetric": ("period matrix", lambda X: tori.is_polarized_symmetric(X)),
    "gl_act": ("acting matrix", lambda X: gl_act(X, _I2)),
    "GroupElementGLgh": ("matrix part",
                         lambda X: geodesics.GroupElementGLgh(A=X, a=np.zeros((1, 2)))),
    "RealTorus": ("period matrix", lambda X: tori.RealTorus(Pi=X)),
    "ThetaSpec": ("lattice basis",
                  lambda X: theta.ThetaSpec(Pi=X, B=_I2, rho=np.ones(2, dtype=complex))),
}
# the invertible-matrix inputs, built from A at the scale s of A
_INVERTIBLE_INPUTS = {
    "gl_act": lambda A, s: gl_act(A, _I2 / s),
    "GroupElementGLgh": lambda A, s: geodesics.GroupElementGLgh(A=A, a=np.zeros((1, 2))),
    "RealTorus": lambda A, s: tori.RealTorus(Pi=A),
    "ThetaSpec": lambda A, s: theta.ThetaSpec(Pi=A, B=_I2, rho=np.ones(2, dtype=complex)),
}


class TestSharedChecks:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("site", list(_CHECKED_INPUTS))
    def test_non_finite_entries_are_refused(self, site, bad):
        name, call = _CHECKED_INPUTS[site]
        with pytest.raises(ValueError, match=re.escape(f"{name} must have finite entries")):
            call(np.array([[bad, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("omega", [1e290j, -1e290 + 1j])
    def test_sp_act_refuses_an_image_that_overflows(self, omega):
        # diag(1e10, 1e-10) is symplectic and sends omega to 1e20 omega
        with pytest.raises(ValueError, match="half-space point must have finite entries"):
            siegel.sp_act(np.diag([1e10, 1e-10]), [[omega]])

    @pytest.mark.parametrize("s", [1e-200, 1e-7, 1.0, 1e7, 1e200])
    @pytest.mark.parametrize("site", list(_INVERTIBLE_INPUTS))
    def test_invertibility_does_not_depend_on_scale(self, site, s):
        build = _INVERTIBLE_INPUTS[site]
        build(s * np.array([[2.0, 1.0], [1.0, 3.0]]), s)
        with pytest.raises(ValueError, match="must be invertible"):
            build(s * np.array([[1.0, 2.0], [2.0, 4.0]]), s)


class TestJacobi:
    def test_identity(self):
        fac = jacobi_decomposition(np.eye(3))
        assert np.allclose(fac.W, np.eye(3))
        assert np.allclose(fac.d, np.ones(3))

    def test_hand_example(self):
        fac = jacobi_decomposition(np.array([[2.0, 1.0], [1.0, 1.0]]))
        assert np.allclose(fac.W, [[1.0, 0.5], [0.0, 1.0]])
        assert np.allclose(fac.d, [2.0, 0.5])

    def test_reconstruction_and_d1(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            Y = random_spd(4, rng)
            fac = jacobi_decomposition(Y)
            assert np.max(np.abs(fac.reconstruct() - Y)) < 1e-12 * np.max(np.abs(Y))
            assert abs(fac.d[0] - Y[0, 0]) < 1e-12 * abs(Y[0, 0])
            # unit upper-triangular shape
            assert np.allclose(np.diag(fac.W), 1.0)
            assert np.allclose(np.tril(fac.W, -1), 0.0)

    def test_uniqueness_under_upper_absorption(self):
        # multiplying by a unit upper factor on the right changes W, not d
        rng = np.random.default_rng(3)
        Y = random_spd(3, rng)
        U = np.eye(3)
        U[0, 1] = 0.7
        Y2 = gl_act(U.T, Y)
        d1 = jacobi_decomposition(Y)
        d2 = jacobi_decomposition(Y2)
        assert not np.allclose(d1.W, d2.W)
        # reconstruction certifies both factorizations independently
        assert np.max(np.abs(d2.reconstruct() - Y2)) < 1e-12 * np.max(np.abs(Y2))


def reduced_by_definition(Y, tol=1e-10, box=4):
    """Oracle for the reduction conditions: direct scan of a coordinate box."""
    g = Y.shape[0]
    for k in range(g - 1):
        if Y[k, k + 1] < -tol:
            return False
    for a in itertools.product(range(-box, box + 1), repeat=g):
        if not any(a):
            continue
        v = np.array(a, dtype=float)
        q = float(v @ Y @ v)
        for k in range(g):
            suffix = [abs(t) for t in a[k:]]
            d = 0
            for s in suffix:
                d = np.gcd(d, s)
            if d == 1 and q < Y[k, k] - tol:
                return False
    return True


class TestMinkowskiReduce:
    def test_already_reduced(self):
        R, A = minkowski_reduce(np.diag([1.0, 2.0]))
        assert np.allclose(R, np.diag([1.0, 2.0]))
        assert np.array_equal(A.astype(int), np.eye(2, dtype=int))

    def test_hand_example(self):
        Y = np.array([[1.0, 0.9], [0.9, 1.0]])
        R, A = minkowski_reduce(Y)
        assert np.max(np.abs(R - np.array([[0.2, 0.1], [0.1, 1.0]]))) < 1e-12
        assert is_unimodular(A)
        assert np.max(np.abs(A.astype(float) @ Y @ A.astype(float).T - R)) < 1e-12

    def test_is_reduced_examples(self):
        assert is_minkowski_reduced(np.eye(3))
        assert not is_minkowski_reduced(np.array([[1.0, 0.9], [0.9, 1.0]]))
        assert is_minkowski_reduced(np.array([[0.2, 0.1], [0.1, 1.0]]))

    def test_oracle_agreement(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            Y = random_spd(2, rng)
            R, A = minkowski_reduce(Y)
            assert reduced_by_definition(R)
            assert is_minkowski_reduced(R)

    def test_invariance_interior(self):
        rng = np.random.default_rng(5)
        hits = 0
        for _ in range(30):
            Y = random_spd(3, rng)
            R0, _ = minkowski_reduce(Y)
            U = random_unimodular(3, rng, max_entry=2)
            R1, _ = minkowski_reduce(gl_act(U.astype(float), Y))
            if np.max(np.abs(R0 - R1)) < 1e-8 * max(1.0, np.max(np.abs(R0))):
                hits += 1
        # interior points dominate random draws; allow a couple of boundary ties
        assert hits >= 28

    def test_ordering_and_offdiagonal_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            Y = random_spd(3, rng)
            R, A = minkowski_reduce(Y)
            d = np.diag(R)
            assert np.all(np.diff(d) >= -1e-10)
            for i in range(3):
                for j in range(i + 1, 3):
                    assert abs(R[i, j]) <= d[i] / 2 + 1e-10

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            minkowski_reduce(np.eye(5))

    def test_determinant_preserved(self):
        rng = np.random.default_rng(7)
        Y = random_spd(4, rng)
        R, A = minkowski_reduce(Y)
        assert abs(det_int(A)) == 1
        assert abs(np.linalg.det(R) - np.linalg.det(Y)) < 1e-9 * abs(np.linalg.det(Y))


class TestShortVectors:
    def test_counts_identity(self):
        vecs = quadratic_short_vectors(np.eye(2), 1.0)
        assert sorted(vecs) == [(-1, 0), (0, -1), (0, 1), (1, 0)]

    def test_symmetric_pairs(self):
        Y = random_spd(3, np.random.default_rng(8))
        vecs = quadratic_short_vectors(Y, 2.0 * float(np.max(np.diag(Y))))
        s = set(vecs)
        assert all(tuple(-t for t in v) in s for v in vecs)


    def test_brute_force_box(self):
        rng = np.random.default_rng(9)
        for g in (2, 3, 4):
            Y = random_spd(g, rng)
            bound = 1.5 * float(np.max(np.diag(Y)))
            r = int(np.ceil(np.sqrt(bound * np.max(np.linalg.eigvalsh(np.linalg.inv(Y))))))
            box = np.array(list(itertools.product(range(-r, r + 1), repeat=g)), dtype=float)
            q = np.einsum("ni,ij,nj->n", box, Y, box)
            inside = {tuple(int(v) for v in x) for x in box[(q <= bound - 1e-9) & (q > 0)]}
            near = {tuple(int(v) for v in x) for x in box[np.abs(q - bound) <= 1e-9]}
            vecs = quadratic_short_vectors(Y, bound)
            assert len(set(vecs)) == len(vecs)
            assert inside <= set(vecs) <= inside | near

    def test_cap_counts_vectors(self):
        # 12 nonzero x with |x|^2 <= 4, 8 of them multiples of e_1 or e_2
        assert len(quadratic_short_vectors(np.eye(2), 4.0, cap=12)) == 12
        for cap in (7, 11):
            with pytest.raises(RuntimeError, match="overflow"):
                quadratic_short_vectors(np.eye(2), 4.0, cap=cap)

    def test_hopeless_bound_is_refused_at_once(self):
        # the 2.8e6 multiples of e_1 alone exceed the default cap of 2e6
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="overflow"):
            quadratic_short_vectors(np.diag([1e-12, 1.0]), 2.0)
        assert time.perf_counter() - start < 0.5

    def test_reduce_refuses_hopeless_form(self):
        with pytest.raises(ValueError, match="cannot be reduced"):
            minkowski_reduce(np.diag([1e-12, 1.0]))

    def test_subnormal_diagonal_is_refused_without_warning(self):
        # 1 / 1e-320 overflows: the count of unit multiples is infinite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="cannot be reduced"):
                minkowski_reduce(np.diag([1e-320, 1.0]))
            with pytest.raises(RuntimeError, match="overflow"):
                quadratic_short_vectors(np.diag([1e-320, 1.0]), 2.0)

    def test_unit_multiples_match_the_array_formula(self):
        """The scalar count equals sum(2 floor(sqrt(bound (1 - 1e-9) / diag)))
        in numpy, subnormal and huge entries included: exactly while the sum
        is an exact integer, else to rounding."""
        rng = np.random.default_rng(11)
        extremes = [5e-324, 1e-320, 1e-310, 1e-300, 1.0, 1e300, 1.7e308]
        for _ in range(2000):
            g = int(rng.integers(1, 5))
            diag = 10.0 ** rng.uniform(-320, 308, size=g)
            bound = float(10.0 ** rng.uniform(-320, 308))
            if rng.random() < 0.3:
                diag[int(rng.integers(g))] = extremes[int(rng.integers(len(extremes)))]
            if rng.random() < 0.2:
                bound = extremes[int(rng.integers(len(extremes)))]
            with np.errstate(all="ignore"):
                old = float(np.sum(2.0 * np.floor(np.sqrt(bound * (1 - 1e-9) / diag))))
            new = spdcone._unit_multiples(diag.tolist(), bound)
            if old < 2.0**53:
                assert new == old
            else:
                assert new == old or math.isclose(new, old, rel_tol=1e-15)


def _counting_enumerations(monkeypatch):
    calls = []

    def counting(Y, bound, *args):
        calls.append(bound)
        return quadratic_short_vectors(Y, bound, *args)

    monkeypatch.setattr(spdcone, "quadratic_short_vectors", counting)
    return calls


def _equicorrelated(g, excess):
    """I + a(J - I) with a = -(1 + excess)/3 at g = 3 and -(1 + excess)/4 at
    g = 4: size reduced, and q(1, ..., 1) = 1 - (g - 1) excess, so for
    excess > 0 exactly one vector of {0, +-1}^g (up to sign) beats R_kk."""
    a = -(1 + excess) / (3 if g == 3 else 4)
    return np.eye(g) + a * (np.ones((g, g)) - np.eye(g))


def _brute_force_reduced(Z):
    """Oracle: no integer x with x_k.. coprime has Z[x] < Z_kk, by exact
    integer arithmetic over the box |x_i| <= sqrt(max_k Z_kk (Z^-1)_ii) + 1,
    which holds every x with Z[x] <= max_k Z_kk (Cauchy-Schwarz)."""
    g = Z.shape[0]
    top = int(np.max(np.diag(Z)))
    radii = np.floor(np.sqrt(top * np.diag(np.linalg.inv(Z)))).astype(int) + 1
    X = np.array(list(itertools.product(*[range(-r, r + 1) for r in radii])), dtype=np.int64)
    values = np.einsum("ni,ij,nj->n", X, Z, X)
    gcds = np.abs(X)
    for k in range(g - 2, -1, -1):
        gcds[:, k] = np.gcd(gcds[:, k], gcds[:, k + 1])
    return all(not np.any((gcds[:, k] == 1) & (values < Z[k, k])) for k in range(g))


class TestMinkowskiCertificate:
    """The {0, +-1} conditions checked after size reduction, against enumeration."""

    @pytest.mark.parametrize("g, diagonal, off, sorted_only", [
        (2, range(1, 5), range(-3, 4), False),
        (3, range(1, 4), range(-1, 2), False),
        (4, range(1, 3), range(-1, 2), True),
    ])
    def test_small_integer_forms_match_brute_force(self, g, diagonal, off, sorted_only):
        """Every positive definite integer form with entries in the given
        ranges (at g = 4 with nondecreasing diagonal): certified exactly when
        brute force finds no admissible vector below R_kk."""
        iu = np.triu_indices(g, 1)
        seen = certified = 0
        for d in itertools.product(diagonal, repeat=g):
            if sorted_only and list(d) != sorted(d):
                continue
            for entries in itertools.product(off, repeat=len(iu[0])):
                Z = np.diag(np.array(d, dtype=np.int64))
                Z[iu] = entries
                Z = Z + np.triu(Z, 1).T
                if np.min(np.linalg.eigvalsh(Z)) <= 1e-9:
                    continue
                seen += 1
                cert = spdcone._is_certified_reduced(Z.astype(float))
                certified += cert
                assert cert == _brute_force_reduced(Z), Z.tolist()
        assert 0 < certified < seen

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), g=st.integers(1, 4),
           kind=st.sampled_from(["random", "integer", "scaled"]))
    def test_enumeration_path_gives_identical_bytes(self, seed, g, kind):
        """With the certificate switched off, the greedy enumeration returns
        the same bytes: random forms up to cond 1e6, small integer forms with
        exact ties, and the same times a random real factor (ties at rounding
        level), all moved by a unimodular matrix."""
        rng = np.random.default_rng(seed)
        U = random_unimodular(g, rng, max_entry=3).astype(float)
        if kind == "random":
            eig = np.exp(rng.uniform(0.0, np.log(1e6), size=g))
            Q, _ = np.linalg.qr(rng.normal(size=(g, g)))
            Z = (Q * eig) @ Q.T
        else:
            M = rng.integers(-1, 2, size=(g, g))
            Z = (M @ M.T + np.diag(rng.integers(1, 3, size=g))).astype(float)
        Y = U @ Z @ U.T
        Y = 0.5 * (Y + Y.T)
        if kind == "scaled":
            Y = Y * float(rng.uniform(0.5, 2.0))
        R, A = minkowski_reduce(Y)
        with mock.patch.object(spdcone, "_is_certified_reduced", lambda R: False):
            R2, A2 = minkowski_reduce(Y)
        assert R.tobytes() == R2.tobytes()
        assert A.tolist() == A2.tolist()

    @pytest.mark.parametrize("b, reduced", [
        (0.5, True),
        (np.nextafter(0.5, 0.0), True),
        (np.nextafter(0.5, 1.0), False),
    ])
    def test_sign_inside_the_rounding_band_is_exact(self, b, reduced):
        """q(1, -1) - R_11 = 1 - 2b for [[1, b], [b, 1]]: one ulp decides."""
        assert spdcone._is_certified_reduced(np.array([[1.0, b], [b, 1.0]])) is reduced

    @pytest.mark.parametrize("g", [3, 4])
    def test_violated_condition_goes_to_the_enumeration(self, monkeypatch, g):
        """q(1, ..., 1) below R_kk by a relative 1e-9: the form is enumerated
        and its basis changes."""
        calls = _counting_enumerations(monkeypatch)
        Y = _equicorrelated(g, 1e-9)
        assert not spdcone._is_certified_reduced(Y)
        R, A = minkowski_reduce(Y)
        assert calls
        assert [abs(v) for v in A[0]] == [1] * g
        assert spdcone._is_certified_reduced(R)
        assert np.max(np.abs(A.astype(float) @ Y @ A.astype(float).T - R)) < 1e-12

    def test_reduced_form_is_not_enumerated(self, monkeypatch):
        R, _ = minkowski_reduce(random_spd(4, np.random.default_rng(10)))
        calls = _counting_enumerations(monkeypatch)
        R2, A2 = minkowski_reduce(R)
        assert calls == []
        assert R2.tobytes() == R.tobytes()
        assert A2.tolist() == np.eye(4, dtype=int).tolist()

    def test_failing_form_is_enumerated_once(self, monkeypatch):
        """q(1, 1, 1, 1) = 1 - 3e-14 fails the exact certificate; the greedy
        construction sees a tie, keeps every row and enumerates once."""
        calls = _counting_enumerations(monkeypatch)
        Y = _equicorrelated(4, 1e-14)
        assert not spdcone._is_certified_reduced(Y)
        R, A = minkowski_reduce(Y)
        assert len(calls) == 1
        assert np.array_equal(np.abs(A.astype(int)), np.eye(4, dtype=int))

    def test_skewed_diagonal_form_reduces_at_once(self, monkeypatch):
        """diag(1e-6, 1e-6, 1e-6, 1) is reduced; it has ~4e9 vectors below its
        largest diagonal entry, so enumerating them would hit the cap."""
        calls = _counting_enumerations(monkeypatch)
        Y = np.diag([1e-6, 1e-6, 1e-6, 1.0])
        start = time.perf_counter()
        R, A = minkowski_reduce(Y)
        assert time.perf_counter() - start < 0.1
        assert calls == []
        assert R.tobytes() == Y.tobytes()
        assert A.tolist() == np.eye(4, dtype=int).tolist()


class TestIwasawa:
    def test_identity(self):
        b = partial_iwasawa(np.eye(2), 1)
        assert np.allclose(b.F, 1.0) and np.allclose(b.G, 1.0) and np.allclose(b.H, 0.0)

    def test_hand_example(self):
        b = partial_iwasawa(np.array([[2.0, 1.0], [1.0, 1.0]]), 1, "lower")
        assert np.allclose(b.F, 1.0)
        assert np.allclose(b.G, 1.0)
        assert np.allclose(b.H, 1.0)

    def test_roundtrip_both_variants(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            g = int(rng.integers(2, 5))
            r = int(rng.integers(1, g))
            Y = random_spd(g, rng)
            for variant in ("lower", "upper"):
                b = partial_iwasawa(Y, r, variant)
                assert np.max(np.abs(b.reconstruct() - Y)) < 1e-12 * max(1, np.max(np.abs(Y)))
                require_spd(b.F)
                require_spd(b.G)

    def test_bad_split(self):
        with pytest.raises(ValueError):
            partial_iwasawa(np.eye(2), 2)


class TestVolumeDensity:
    def test_identity(self):
        assert volume_density(np.eye(3), 5) == 1.0

    def test_g1(self):
        assert abs(volume_density(np.array([[4.0]]), 0) - 0.25) < 1e-15

    def test_formula(self):
        # (det Y)^(-(g+h+1)/2) with g = 2, h = 1: det = 4, exponent 2
        assert abs(volume_density(np.diag([2.0, 2.0]), 1) - 4.0**-2) < 1e-15

    def test_density_transformation(self):
        rng = np.random.default_rng(10)
        for h in (0, 1, 2):
            Y = random_spd(2, rng)
            A = rng.normal(size=(2, 2)) + 2 * np.eye(2)
            lhs = volume_density(gl_act(A, Y), h)
            rhs = abs(np.linalg.det(A)) ** (-(2 + h + 1)) * volume_density(Y, h)
            assert abs(lhs - rhs) < 1e-12 * abs(rhs)


class TestMetric:
    def test_identity_value(self):
        assert abs(metric_norm(np.eye(3), np.eye(3)) - 3.0) < 1e-14

    def test_zero(self):
        assert metric_norm(random_spd(2, np.random.default_rng(0)), np.zeros((2, 2))) == 0

    def test_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            Y = random_spd(3, rng)
            U = rng.normal(size=(3, 3))
            U = U + U.T
            A = rng.normal(size=(3, 3)) + 2 * np.eye(3)
            lhs = metric_norm(gl_act(A, Y), A @ U @ A.T)
            rhs = metric_norm(Y, U)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


class TestInvariantOperators:
    def test_log_det_gradient(self):
        rng = np.random.default_rng(12)
        f = lambda Z: float(np.log(np.linalg.det(Z)))
        for g in (1, 2, 3):
            Y = random_spd(g, rng)
            val = invariant_operator_apply(1, f, Y, step=1e-5)
            assert abs(val - g) < 1e-5

    def test_constant(self):
        assert abs(invariant_operator_apply(1, lambda Z: 4.2, np.eye(2))) < 1e-12

    def test_invariance(self):
        rng = np.random.default_rng(13)
        f = lambda Z: float(np.trace(Z) + 0.1 * np.trace(Z @ Z))
        for k in (1, 2):
            for _ in range(5):
                Y = random_spd(2, rng)
                A = rng.normal(size=(2, 2)) + 2 * np.eye(2)
                pulled = lambda Z: f(A @ Z @ A.T)
                lhs = invariant_operator_apply(k, pulled, Y, step=1e-4)
                rhs = invariant_operator_apply(k, f, gl_act(A, Y), step=1e-4)
                assert abs(lhs - rhs) < 1e-3 * max(1.0, abs(rhs))

    def test_step_underflow(self):
        with pytest.raises(ValueError):
            invariant_operator_apply(1, lambda Z: 0.0, np.eye(2), step=0.0)
