import itertools
import json
import math
import re
import time
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realtori import geodesics, siegel, spdcone, theta, tori
from realtori.exactlinalg import (
    complete_to_unimodular,
    det_int,
    is_unimodular,
    random_unimodular,
)
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
    "canonical_line_bundle_data": ("SPD matrix", lambda X: theta.canonical_line_bundle_data(X)),
}


def _decided_by(module, rule, M, call):
    """``call()`` with the ``rule`` (``_invertible`` or ``_cholesky``) of
    ``module`` also applied to M wherever the call applies it.  A site whose
    own matrix cannot take every scale for valid input (I - W and the disk
    action's denominator are invertible, and I - conj(W) W at most I, on the
    disk) shows this way that the rule decides for it."""
    check = getattr(module, rule)

    def both(X, *args, **kwargs):
        check(M, *args, **kwargs)
        return check(X, *args, **kwargs)

    with mock.patch.object(module, rule, both):
        return call()


def _polarized(X):
    if tori.is_polarized_symmetric(X) is not tori.Polarization.POLARIZED:
        raise AssertionError("a definite period matrix reads as not polarized")


# the invertible-matrix inputs, built from A at the scale s of A
_INVERTIBLE_INPUTS = {
    "gl_act": lambda A, s: gl_act(A, _I2 / s),
    "GroupElementGLgh": lambda A, s: geodesics.GroupElementGLgh(A=A, a=np.zeros((1, 2))),
    "RealTorus": lambda A, s: tori.RealTorus(Pi=A),
    "ThetaSpec": lambda A, s: theta.ThetaSpec(Pi=A, B=_I2, rho=np.ones(2, dtype=complex)),
    # C Omega + D = A for M = (A, 0; 0, A), which sends i I to A (i I) A^-1 = i I
    # for symmetric A; the core does not ask M to be symplectic
    "sp_act": lambda A, s: siegel._sp_act(np.kron(_I2, A), 1j * _I2),
    "cayley_to_halfspace": lambda A, s: _decided_by(
        siegel, "_invertible", A, lambda: siegel.cayley_to_halfspace(0.5 * _I2)),
    "disk_act": lambda A, s: _decided_by(
        siegel, "_invertible", A, lambda: siegel.disk_act(np.eye(4, dtype=int), 0.5 * _I2)),
    "is_polarized_symmetric": lambda A, s: _polarized(A),
}
# the positive definite inputs, built from a symmetric X
_DEFINITE_INPUTS = {
    "require_spd": require_spd,
    "jacobi_decomposition": jacobi_decomposition,
    "require_siegel": lambda X: siegel.require_siegel(1j * X),
    "require_disk": lambda X: _decided_by(
        siegel, "_cholesky", X, lambda: siegel.require_disk(0.5 * np.eye(len(X)))),
    "is_polarized_symmetric": _polarized,
    "MinkowskiEuclidPoint": lambda X: geodesics.MinkowskiEuclidPoint(Y=X, V=np.zeros((1, len(X)))),
}
_DEFINITE = [[[2.0, 1.0], [1.0, 3.0]], [[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]]
# singular forms; a plain Cholesky factorization completes on the second
_SINGULAR = [[[1.0, 2.0], [2.0, 4.0]], [[2.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]]]
_SCALES = [1e-200, 1e-7, 1.0, 1e7, 1e200]


class TestSharedChecks:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("site", list(_CHECKED_INPUTS))
    def test_non_finite_entries_are_refused(self, site, bad):
        name, call = _CHECKED_INPUTS[site]
        with pytest.raises(ValueError, match=re.escape(f"{name} must have finite entries")):
            call(np.array([[bad, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("site", ["require_spd", "jacobi_decomposition",
                                      "quadratic_short_vectors", "metric_norm",
                                      "require_siegel", "sp_act", "is_polarized_symmetric"])
    def test_entries_too_large_to_symmetrize_are_refused(self, site):
        # M + tM would overflow; refused without a RuntimeWarning, which is
        # an error under this suite's settings
        name, call = _CHECKED_INPUTS[site]
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must have entries of magnitude at most 8.988e+307")):
            call(np.array([[1e308, 0.0], [0.0, 1.0]]))

    def test_entries_up_to_half_the_largest_float_are_accepted(self):
        Y = np.array([[8.98e307, -8.98e307], [-8.98e307, 8.985e307]])
        assert require_spd(Y).tobytes() == Y.tobytes()

    @pytest.mark.parametrize("omega", [1e290j, -1e290 + 1j])
    def test_sp_act_refuses_an_image_that_overflows(self, omega):
        # diag(1e10, 1e-10) is symplectic and sends omega to 1e20 omega
        with pytest.raises(ValueError, match="half-space point must have finite entries"):
            siegel.sp_act(np.diag([1e10, 1e-10]), [[omega]])

    @pytest.mark.parametrize("s", _SCALES)
    @pytest.mark.parametrize("site", list(_INVERTIBLE_INPUTS))
    def test_invertibility_does_not_depend_on_scale(self, site, s):
        build = _INVERTIBLE_INPUTS[site]
        build(s * np.array([[2.0, 1.0], [1.0, 3.0]]), s)
        with pytest.raises(ValueError, match="must be invertible"):
            build(s * np.array([[1.0, 2.0], [2.0, 4.0]]), s)

    @pytest.mark.parametrize("s", _SCALES)
    @pytest.mark.parametrize("site", list(_DEFINITE_INPUTS))
    def test_definiteness_does_not_depend_on_scale(self, site, s):
        build = _DEFINITE_INPUTS[site]
        for X in _DEFINITE:
            build(s * np.array(X))
        for X in _SINGULAR:
            with pytest.raises(ValueError):
                build(s * np.array(X))


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
    def test_reduced_form_is_one_product(self, monkeypatch):
        """R is ``_act(A, Y)`` in every bit, sign flips and descent steps
        included: the equivalence search's rounding bound rests on it."""
        descents = []
        descend = spdcone._descend
        monkeypatch.setattr(spdcone, "_descend",
                            lambda *args: descents.append(1) or descend(*args))
        rng = np.random.default_rng(31)
        for g in (2, 3, 4):
            for _ in range(150):
                Q, _ = np.linalg.qr(rng.standard_normal((g, g)))
                Y = (Q * 10.0 ** rng.uniform(0, 8, size=g)) @ Q.T
                U = random_unimodular(g, rng, max_entry=3).astype(float)
                for Z in (gl_act(U, 0.5 * (Y + Y.T)), random_spd(g, rng)):
                    R, A = minkowski_reduce(Z)
                    assert np.array_equal(R, spdcone._act(A.astype(float), Z))
        assert len(descents) >= 10

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


    @staticmethod
    def _brute_force(Y, bound, b):
        """The points of a cube around the ellipsoid q(k) + b.k + b Y^-1 tb / 4
        <= bound that lie inside it by more than 1e-9, and those within 1e-9
        of its boundary, with the values q(k) + b.k of all cube points."""
        g = Y.shape[0]
        c = -0.5 * np.linalg.solve(Y, b)
        r = int(np.ceil(np.sqrt(bound * np.max(np.linalg.eigvalsh(np.linalg.inv(Y))))))
        box = np.array(list(itertools.product(*(range(math.floor(x) - r, math.ceil(x) + r + 1)
                                                 for x in c))), dtype=float)
        values = np.einsum("ni,ij,nj->n", box, Y, box) + box @ b
        q = values - 0.5 * float(b @ c)
        inside = {tuple(int(v) for v in x) for x in box[q <= bound - 1e-9]}
        near = {tuple(int(v) for v in x) for x in box[np.abs(q - bound) <= 1e-9]}
        return inside, near, dict(zip((tuple(int(v) for v in x) for x in box), values))

    def test_brute_force_box(self):
        """Every vector of a cube around the ellipsoid, in ascending
        lexicographic order of (x_{g-1}, ..., x_0)."""
        rng = np.random.default_rng(9)
        for g in (1, 2, 3, 4):
            Y = random_spd(g, rng)
            bound = 1.5 * float(np.max(np.diag(Y)))
            inside, near, _ = self._brute_force(Y, bound, np.zeros(g))
            vecs = quadratic_short_vectors(Y, bound)
            assert len(set(vecs)) == len(vecs)
            assert inside - {(0,) * g} <= set(vecs) <= inside | near
            assert vecs == sorted(vecs, key=lambda x: x[::-1])

    def test_centered_enumeration(self):
        """The private enumerator around c = -Y^-1 tb / 2, with the values
        q(k) + b.k, against the same brute-force cube."""
        rng = np.random.default_rng(10)
        for g in (1, 2, 3, 4):
            for _ in range(3):
                Y = random_spd(g, rng) + 0.5 * np.eye(g)
                b = rng.uniform(-6.0, 6.0, size=g)
                bound = 2.0 * float(np.max(np.diag(Y)))
                inside, near, values = self._brute_force(Y, bound, b)
                points, found = [], []
                for K, vals in spdcone._Ellipsoid(spdcone._Form(Y), b.tolist()).box(bound).points():
                    points += [tuple(int(v) for v in k) for k in K.T]
                    found += vals.tolist()
                assert inside <= set(points) <= inside | near
                assert points == sorted(points, key=lambda x: x[::-1])
                for k, val in zip(points, found):
                    assert abs(val - values[k]) <= 1e-12 * max(1.0, abs(val))

    def test_centered_enumeration_of_a_skewed_form(self):
        """A form whose box in its own basis holds ~2e5 points for ~450
        inside is walked in its Minkowski-reduced basis, with the same
        points."""
        Y = np.array([[1.0, 1 - 1e-5], [1 - 1e-5, 1.0]])
        for b in (np.zeros(2), np.array([0.3, -0.7])):
            inside, near, values = self._brute_force(Y, 1.0, b)
            points, found = [], []
            for K, vals in spdcone._Ellipsoid(spdcone._Form(Y), b.tolist()).box(1.0).points():
                points += [tuple(int(v) for v in k) for k in K.T]
                found += vals.tolist()
            assert len(set(points)) == len(points)
            assert inside <= set(points) <= inside | near
            # the brute-force values cancel terms of size |k|^2 ~ 1e8, so
            # the values are checked in exact arithmetic instead
            Yq = [[Fraction(x) for x in row] for row in Y.tolist()]
            for k, val in zip(points, found):
                exact = sum(Yq[i][j] * k[i] * k[j] + (i == j) * Fraction(b[i]) * k[i]
                            for i in range(2) for j in range(2))
                assert abs(val - exact) <= 1e-12 * max(1.0, abs(val))

    @pytest.mark.parametrize("g, shear", [(2, 1000), (3, 6), (4, 4), (5, 3), (6, 3)])
    def test_skewed_boxes_above_the_threshold(self, g, shear):
        """Integer forms U diag(d) tU, U a permuted unit upper triangular
        shear, whose boxes in the given basis hold 4,096-65,536 points, more
        than ``_REBASE_ABOVE``: the vectors walked in a reduced basis equal
        those of a brute-force cube, in exact integer arithmetic (the bounds
        are half-integers, so no value ties with one)."""
        rng = np.random.default_rng(140 + g)
        forms = 0
        while forms < 4:
            U = np.eye(g, dtype=np.int64) + np.triu(rng.integers(-shear, shear + 1, size=(g, g)), 1)
            U, d = U[rng.permutation(g)], rng.integers(1, 4, size=g)
            Y = (U * d) @ U.T
            bound = float(rng.integers(1, 3 * int(d.max()) + 1)) + 0.5
            count = spdcone._Ellipsoid(spdcone._Form(Y.astype(float)), [0.0] * g).box(bound).count
            if not spdcone._REBASE_ABOVE < count <= 1 << 16:
                continue
            forms += 1
            h = np.floor(np.sqrt(bound * np.diag(np.linalg.inv(Y)))).astype(np.int64) + 1
            cube = np.indices(tuple(2 * h + 1)).reshape(g, -1) - h[:, None]
            inside = cube[:, (np.einsum("in,ij,jn->n", cube, Y, cube) <= bound) & cube.any(axis=0)]
            want = sorted(map(tuple, inside.T.tolist()), key=lambda x: x[::-1])
            assert quadratic_short_vectors(Y.astype(float), bound) == want

    @pytest.mark.parametrize("delta", [1e-6, 1e-9])
    def test_nearly_singular_form(self, delta):
        """q(m, -m) = 2 delta m^2 and q(m + 1, -m) = 1 + 2 delta m (m + 1):
        below 1 lie the multiples of (1, -1) and the unit vectors."""
        Y = np.array([[1.0, 1 - delta], [1 - delta, 1.0]])
        top = math.isqrt(int(1 / (2 * delta)))
        want = {(m, -m) for m in range(-top, top + 1) if m} | {(1, 0), (-1, 0), (0, 1), (0, -1)}
        vecs = quadratic_short_vectors(Y, 1.0)
        assert len(vecs) == len(want) and set(vecs) == want
        assert vecs == sorted(vecs, key=lambda x: x[::-1])
        assert not is_minkowski_reduced(Y)

    @pytest.mark.parametrize("spread", [1e8, 1e9])
    def test_wide_diagonal_spread(self, spread):
        """diag(1, s) up to s: the multiples of e_1 and +-e_2, in a box
        whose rounding margin is tiny for a diagonal form."""
        Y = np.diag([1.0, spread])
        top = math.isqrt(int(spread))
        vecs = quadratic_short_vectors(Y, spread)
        assert vecs == [(0, -1)] + [(m, 0) for m in range(-top, top + 1) if m] + [(0, 1)]
        assert is_minkowski_reduced(Y)

    def test_root_lattice_near_singular_reduces(self):
        """A3 + 1e-6 I is pairwise size-reduced, yet q(1, 1, 1) = 3e-6."""
        Y = np.array([[1, -0.5, -0.5], [-0.5, 1, -0.5], [-0.5, -0.5, 1]]) + 1e-6 * np.eye(3)
        R, A = minkowski_reduce(Y)
        assert is_unimodular(A)
        assert abs(R[0, 0] - 3e-6) < 1e-12
        assert np.allclose(R, A.astype(float) @ Y @ A.astype(float).T, atol=1e-12)
        assert is_minkowski_reduced(R)

    def test_numerically_singular_form_is_refused(self):
        # a plain Cholesky factorization passes, but the determinant rounds
        # below zero: validation refuses the form, and the box of its
        # ellipsoid, in either basis, cannot be sized and is not walked.
        # No form that passes validation gave such a box (72,288 seeded
        # forms near the validation threshold tried)
        Y = np.array([[3.831068845210457, -2.2409968040058126],
                      [-2.2409968040058126, 1.3108787334487022]])
        with pytest.raises(ValueError, match="not positive definite"):
            quadratic_short_vectors(Y, 3.831068845210457)
        box = spdcone._Ellipsoid(spdcone._Form(Y), [0.0, 0.0]).box(3.831068845210457)
        with pytest.raises(RuntimeError, match="enumeration box of inf points"):
            box.points()

    def test_box_is_bounded_by_the_cap(self):
        # the ~1.4e6 box points of the ball of radius 17 at g = 4 are more
        # than 64 cap for cap = 2e4, so the walk is refused before it starts
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="exceeds 1280000"):
            quadratic_short_vectors(np.eye(4), 289.0, cap=20_000)
        assert time.perf_counter() - start < 0.1

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
        """The hopeless bound above belongs to enumeration only: the form is
        reduced, and reduction, which enumerates nothing, returns it."""
        Y = np.diag([1e-12, 1.0])
        R, A = minkowski_reduce(Y)
        assert R.tobytes() == Y.tobytes()
        assert A.tolist() == np.eye(2, dtype=int).tolist()

    def test_subnormal_diagonal_is_refused_without_warning(self):
        # 1 / 1e-320 overflows: the count of unit multiples is infinite, so
        # enumeration refuses; reduction returns the form, which is reduced
        Y = np.diag([1e-320, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            R, A = minkowski_reduce(Y)
            with pytest.raises(RuntimeError, match="overflow"):
                quadratic_short_vectors(Y, 2.0)
        assert R.tobytes() == Y.tobytes()
        assert A.tolist() == np.eye(2, dtype=int).tolist()

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


def _unravel_walk(box):
    """``_Box._walk`` with the flat index grid of each chunk from
    np.unravel_index."""
    P, bl, U = box.ellipsoid.form.rows, box.ellipsoid.b, box.ellipsoid.form.U
    g, lo, sides = len(P), box.lo, box.sides
    limit = box.bound * (1 + 1e-12) + 1e-12 - box.ellipsoid.offset
    for start in range(0, box.count, spdcone._CHUNK):
        idx = np.unravel_index(np.arange(start, min(start + spdcone._CHUNK, box.count)), sides[::-1])
        k = [idx[g - 1 - i] + float(lo[i]) for i in range(g)]
        values = 0.0
        for i in range(g):
            row = P[i][i] * k[i] + bl[i]
            for j in range(i + 1, g):
                row += 2.0 * P[i][j] * k[j]
            values += row * k[i]
        keep = values <= limit
        if U:
            k = [sum(U[j][i] * k[j] for j in range(g)) for i in range(g)]
        yield np.array(k)[:, keep], values[keep]


def _congruent_fractions(U, Q):
    """U Q tU summed in Fractions, each entry rounded once: the reference
    for ``spdcone._congruent``, which sums in Python ints."""
    g = len(Q)
    F = [[Fraction(x) for x in row] for row in Q]
    return [[float(sum(U[i][k] * U[j][l] * F[k][l] for k in range(g) for l in range(g)))
             for j in range(g)] for i in range(g)]


class TestCongruentForm:
    def test_matches_fractions_bit_for_bit(self):
        """g = 1..6, entries of either sign from 1e-300 to 1e300 (some zero)
        in one matrix or around one scale, rows of U with entries up to
        2^20: the same bytes, or OverflowError from both."""
        rng = np.random.default_rng(15)

        def outcome(congruent, U, Q):
            try:
                return np.array(congruent(U, Q), dtype=float).tobytes()
            except OverflowError:
                return OverflowError

        for trial in range(600):
            g = 1 + trial % 6
            exponents = rng.uniform(-300, 300, size=(g, g))
            if trial % 2:
                exponents = rng.uniform(-300, 297) + rng.uniform(0, 3, size=(g, g))
            M = rng.choice([-1.0, 1.0], size=(g, g)) * 10.0 ** exponents
            M[rng.random((g, g)) < 0.1] = 0.0
            Q = (np.triu(M) + np.triu(M, 1).T).tolist()
            U = np.round(rng.choice([-1, 1], size=(g, g)) * 2.0 ** rng.uniform(0, 20, size=(g, g)))
            U = U.astype(int).tolist()
            assert outcome(spdcone._congruent, U, Q) == outcome(_congruent_fractions, U, Q)


class TestIndexGrid:
    """A box of one chunk walks an index grid from np.indices; grids of at
    most ``_GRID_CACHED`` points are built once per shape."""

    def test_walk_matches_unravel_index(self):
        rng = np.random.default_rng(12)
        boxes = []
        for trial in range(160):
            g = 1 + trial % 4
            Y = random_spd(g, rng) + 0.2 * np.eye(g)
            b = rng.uniform(-3.0, 3.0, size=g).tolist()
            # points mapped back by tU, as from a reduced basis
            U = random_unimodular(g, rng, max_entry=2).tolist() if trial % 3 == 0 else None
            boxes.append(spdcone._Ellipsoid(spdcone._Form(Y, U), b).box(float(10.0 ** rng.uniform(-1.0, 3.5 - g / 2))))
        # boxes of 301^2 and 51^3 points, walked in two and three chunks
        boxes += [spdcone._Ellipsoid(spdcone._Form(np.eye(2)), [0.5, 0.0]).box(150.0 ** 2),
                  spdcone._Ellipsoid(spdcone._Form(np.eye(3)), [0.0] * 3).box(25.0 ** 2)]
        kinds = set()
        for box in boxes:
            kinds.add((box.count > spdcone._GRID_CACHED) + (box.count > spdcone._CHUNK))
            expected = list(_unravel_walk(box))
            spdcone._cached_index_grid.cache_clear()
            for _ in ("cold", "warm"):
                walked = list(box._walk())
                assert len(walked) == len(expected)
                for (K, values), (K0, values0) in zip(walked, expected):
                    assert (K.dtype, K.shape, K.tobytes()) == (K0.dtype, K0.shape, K0.tobytes())
                    assert (values.dtype, values.tobytes()) == (values0.dtype, values0.tobytes())
        # cached, one chunk beyond the cache, and several chunks
        assert kinds == {0, 1, 2}

    def test_cached_grids_are_read_only_and_small(self):
        spdcone._cached_index_grid.cache_clear()
        grid = spdcone._index_grid((16, 256))
        assert (grid.dtype, grid.shape) == (np.int16, (2, 4096))
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0, 0] = 1
        assert spdcone._index_grid((16, 256)) is grid
        # C order over the reversed axes: k_0 varies fastest
        assert grid[:, :3].tolist() == [[0, 1, 2], [0, 0, 0]]
        large = spdcone._index_grid((17, 256))
        assert large.shape == (2, 4352) and large[:, -1].tolist() == [16, 255]
        assert spdcone._cached_index_grid.cache_info().currsize == 1
        assert spdcone._cached_index_grid.cache_info().maxsize == spdcone._GRID_SHAPES


def _counting_enumerations(monkeypatch):
    """The bounds of every enumeration box sized while the test runs."""
    calls = []
    box = spdcone._Ellipsoid.box

    def counting(self, bound):
        calls.append(bound)
        return box(self, bound)

    monkeypatch.setattr(spdcone._Ellipsoid, "box", counting)
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


def _certified(Y, A):
    """A Y tA, Y read exactly, passes the certificate ``spdcone._failed``."""
    N, den = spdcone._dyadic(np.asarray(Y, dtype=float).tolist())
    return not spdcone._failed(spdcone._act_rows(np.asarray(A).tolist(), N), den)


def _fails_after_size_reduction(Y):
    """Y fails the exact certificate after size reduction, so that
    ``minkowski_reduce`` takes a descent step."""
    N, den = spdcone._dyadic(Y.tolist())
    return bool(spdcone._failed(spdcone._size_reduce(N)[0], den))


def _short_table(Y, bound):
    """Short vectors of Y up to ``bound``, their values x Y tx, and suffix
    gcds: column k of the gcd table is gcd(|x_k|, ..., |x_{g-1}|)."""
    g = Y.shape[0]
    vecs = quadratic_short_vectors(Y, bound)
    X = np.array(vecs, dtype=np.int64).reshape(len(vecs), g)
    Xf = X.astype(float)
    values = np.einsum("ni,ij,nj->n", Xf, Y, Xf)
    gcds = np.abs(X)
    for k in range(g - 2, -1, -1):
        gcds[:, k] = np.gcd(gcds[:, k], gcds[:, k + 1])
    return vecs, values, gcds


def _greedy_reference(Y):
    """Reference Minkowski reduction by enumeration.  After size reduction, a
    form that fails the certificate is rebuilt row by row: row k minimizes the
    form over all integer vectors whose coordinates from k on are coprime, the
    preceding rows staying fixed, with ties (within 1e-12 max(1, R_kk))
    broken toward the current basis vector and then lexicographically; the
    basis is completed by ``complete_to_unimodular``.  One short-vector table,
    up to the largest diagonal entry still to be processed, serves every row
    until a row changes; it raises RuntimeError past the enumeration cap."""
    Y = require_spd(Y)
    g = Y.shape[0]
    N, den = spdcone._dyadic(Y.tolist())
    S, A = spdcone._size_reduce(N)
    R = spdcone._act(np.array(A, dtype=float), Y)
    A = np.array(A, dtype=object)
    table = None
    for k in range(g if spdcone._failed(S, den) else 0):
        if table is None:
            table = _short_table(R, float(np.max(np.diag(R)[k:])) * (1 + 1e-9) + 1e-12)
        vecs, values, gcds = table
        best_val = float(R[k, k])
        scale = max(1.0, best_val)
        best_vec = None
        for idx in np.flatnonzero((gcds[:, k] == 1) & (values <= best_val + 1e-12 * scale)):
            x, q = vecs[idx], float(values[idx])
            if q < best_val - 1e-12 * scale:
                best_val, best_vec = q, x
            elif abs(q - best_val) <= 1e-12 * scale and best_vec is not None:
                if spdcone._canon(x) < spdcone._canon(best_vec):
                    best_vec = x
        if best_vec is None or spdcone._canon(best_vec) == tuple(int(i == k) for i in range(g)):
            continue
        prefix = np.eye(k + 1, g, dtype=object)
        prefix[k] = spdcone._canon(best_vec)
        A = complete_to_unimodular(prefix) @ A
        R = spdcone._act(A.astype(float), Y)
        table = None
    for k in range(g - 1):
        if R[k, k + 1] < 0:
            A[k + 1] = -A[k + 1]
            R[k + 1, :] = -R[k + 1, :]
            R[:, k + 1] = -R[:, k + 1]
    return R, A


class TestMinkowskiCertificate:
    """The {0, +-1} conditions checked after size reduction, and the descent
    on a failed one, against enumeration."""

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
                cert = not spdcone._failed(Z.tolist(), 1)
                certified += cert
                assert cert == _brute_force_reduced(Z), Z.tolist()
        assert 0 < certified < seen

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), g=st.integers(3, 4))
    def test_enumeration_path_gives_identical_bytes(self, seed, g):
        """Float forms that fail the certificate after size reduction: the
        descent returns the bytes of the greedy enumeration reference.  The
        forms have cond(Y) <= 1e12; above about 1e13 the rounding of the
        float A Y tA that the reference reads can exceed its tie width, and
        the two may then end on different bases.  Size reduction settles
        every g = 2 form, so g starts at 3."""
        rng = np.random.default_rng(seed)
        failing = 0
        for _ in range(1000):
            Y = _moved_form(rng, g, "float")
            if np.linalg.cond(Y) > 1e12 or not _fails_after_size_reduction(Y):
                continue
            try:
                R0, A0 = _greedy_reference(Y)
            except RuntimeError:  # the reference's table would exceed its cap
                continue
            R, A = minkowski_reduce(Y)
            assert R.tobytes() == R0.tobytes()
            assert A.tolist() == A0.tolist()
            failing += 1
            if failing == 3:
                break
        assert failing

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), g=st.integers(3, 4),
           kind=st.sampled_from(["integer", "eighths", "scaled"]))
    def test_tied_forms_keep_the_reference_diagonal(self, seed, g, kind):
        """Tied forms that fail the certificate: small integer forms, the same
        times k/8 (ties stay exact) or a real factor in [0.5, 2] (ties at
        rounding level).  Where ties let the descent and the greedy reference
        pick different bases, the diagonal is the same (to rounding for the
        real factor), A is unimodular, and exact forms pass the brute-force
        check in integers.  Size reduction settles the exact g = 2 forms, so
        g starts at 3."""
        rng = np.random.default_rng(seed)
        compared = 0
        for _ in range(400):
            Z = _moved_form(rng, g, "integer")
            factor = {"integer": 1.0, "eighths": int(rng.integers(1, 17)) / 8,
                      "scaled": float(rng.uniform(0.5, 2.0))}[kind]
            Y = require_spd(Z * factor)
            if not _fails_after_size_reduction(Y):
                continue
            R, A = minkowski_reduce(Y)
            R0, _ = _greedy_reference(Y)
            assert is_unimodular(A)
            if kind == "scaled":
                assert np.allclose(R.diagonal(), R0.diagonal(), rtol=1e-12, atol=0)
            else:
                assert R.diagonal().tolist() == R0.diagonal().tolist()
                An = A.astype(np.int64)
                assert _brute_force_reduced(An @ Z.astype(np.int64) @ An.T)
            compared += 1
            if compared == 3:
                break
        assert compared

    @pytest.mark.parametrize("b, reduced", [
        (0.5, True),
        (np.nextafter(0.5, 0.0), True),
        (np.nextafter(0.5, 1.0), False),
    ])
    def test_sign_inside_the_rounding_band_is_exact(self, b, reduced):
        """q(1, -1) - R_11 = 1 - 2b for [[1, b], [b, 1]]: one ulp decides."""
        assert _certified(np.array([[1.0, b], [b, 1.0]]), np.eye(2, dtype=int)) is reduced

    @pytest.mark.parametrize("g", [3, 4])
    def test_violated_condition_goes_to_the_enumeration(self, monkeypatch, g):
        """q(1, ..., 1) below R_kk by a relative 1e-9: the form takes a
        descent step, not an enumeration, its basis changes, and A Y tA
        passes the exact certificate."""
        calls = _counting_enumerations(monkeypatch)
        Y = _equicorrelated(g, 1e-9)
        assert not _certified(Y, np.eye(g, dtype=int))
        R, A = minkowski_reduce(Y)
        assert calls == []
        assert [abs(v) for v in A[0]] == [1] * g
        assert _certified(Y, A)
        assert np.max(np.abs(A.astype(float) @ Y @ A.astype(float).T - R)) < 1e-12

    def test_reduced_form_is_not_enumerated(self, monkeypatch):
        R, _ = minkowski_reduce(random_spd(4, np.random.default_rng(10)))
        calls = _counting_enumerations(monkeypatch)
        R2, A2 = minkowski_reduce(R)
        assert calls == []
        assert R2.tobytes() == R.tobytes()
        assert A2.tolist() == np.eye(4, dtype=int).tolist()

    def test_failing_form_is_enumerated_once(self, monkeypatch):
        """q(1, 1, 1, 1) = 1 - 3e-14 fails the exact certificate: the descent
        step on it is taken, like a step on a larger excess, and nothing is
        enumerated."""
        calls = _counting_enumerations(monkeypatch)
        Y = _equicorrelated(4, 1e-14)
        assert not _certified(Y, np.eye(4, dtype=int))
        R, A = minkowski_reduce(Y)
        assert calls == []
        assert [abs(v) for v in A[0]] == [1] * 4
        assert _certified(Y, A)

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

    def test_form_left_indefinite_by_rounding_is_refused(self):
        """cond(Y) ~ 3e16, below the rounding of its entries: validation
        refuses the form, which size reduction in floats left with a
        negative diagonal entry.  A validated form is exactly positive
        definite, so the exact reduction needs no guard of its own."""
        Y = np.array([
            [6.002820250717284e+16, -4.281690300298462e+16, -2.2529316779466244e+16],
            [-4.281690300298462e+16, 3.054043110066363e+16, 1.6069706087811824e+16],
            [-2.2529316779466244e+16, 1.6069706087811824e+16, 8455527457929380.0]])
        with pytest.raises(ValueError, match="not positive definite"):
            minkowski_reduce(Y)

    def test_step_to_an_indefinite_form_is_not_taken(self):
        """cond(Y) ~ 3e16: validation refuses the form, whose descent step
        in floats gave an A Y tA that was not positive definite.  No step
        of the exact descent can reach an indefinite form."""
        Y = np.array([[1.0311924448930676e+16, -1.3562062047058534e+16],
                      [-1.3562062047058534e+16, 1.783658597182009e+16]])
        with pytest.raises(ValueError, match="not positive definite"):
            minkowski_reduce(Y)


def _near_condition(R, M, offset):
    """R moved along the symmetric direction M (or -M, where no condition
    falls along M) to where the first Minkowski condition that falls along it
    has slack ``offset``."""
    upper, C, _, _, _ = spdcone._minkowski_conditions(R.shape[0])
    slack, rate = C @ R[upper], C @ M[upper]
    if not (rate < 0).any():
        M, rate = -M, -rate
    falling = np.flatnonzero(rate < 0)
    c = falling[np.argmin(slack[falling] / -rate[falling])]
    return R + ((slack[c] - offset) / -rate[c]) * M


class TestIsMinkowskiReduced:
    """``is_minkowski_reduced`` agrees with ``reduced_by_definition`` at its
    tolerance 1e-10, here over the box |a_i| <= 2."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), g=st.integers(2, 4))
    def test_random_forms(self, seed, g):
        rng = np.random.default_rng(seed)
        Y = random_spd(g, rng)
        for Z in (Y, minkowski_reduce(Y)[0], _moved_form(rng, g, "integer")):
            assert is_minkowski_reduced(Z) == reduced_by_definition(Z, box=2)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), g=st.integers(2, 4))
    def test_forms_just_off_a_condition(self, seed, g):
        """1e-9 inside and 1e-9 outside the first condition crossed."""
        rng = np.random.default_rng(seed)
        R, _ = minkowski_reduce(random_spd(g, rng))
        M = rng.normal(size=(g, g))
        for offset in (1e-9, -1e-9):
            Z = _near_condition(R, M + M.T, offset)
            if np.min(np.linalg.eigvalsh(Z)) <= 0:
                continue
            assert is_minkowski_reduced(Z) == reduced_by_definition(Z, box=2)
            assert offset > 0 or not is_minkowski_reduced(Z)


def _moved_form(rng, g, kind, decades=12.0):
    """A form moved off the reduced domain by a unimodular matrix: a small
    integer form, the same times a real factor in [0.5, 2] (ties at rounding
    level), or a float form with cond(Y) up to 10^decades before the move."""
    U = random_unimodular(g, rng, max_entry=3).astype(float)
    if kind == "float":
        cond = 10.0 ** rng.uniform(0.0, decades)
        eig = np.exp(rng.uniform(0.0, np.log(cond), size=g))
        eig[0] = 1.0
        Q, _ = np.linalg.qr(rng.normal(size=(g, g)))
        Z = (Q * eig) @ Q.T
    else:
        M = rng.integers(-2, 3, size=(g, g))
        Z = (M @ M.T + np.diag(rng.integers(1, 4, size=g))).astype(float)
    Y = U @ Z @ U.T
    Y = 0.5 * (Y + Y.T)
    if kind == "scaled":
        Y = Y * float(rng.uniform(0.5, 2.0))
    return require_spd(Y)


def _reduced_in_fractions(Y, A):
    """A Y tA, with Y read exactly and summed in Fractions, meets every
    condition of ``spdcone._minkowski_conditions`` and has a sorted
    diagonal."""
    g = len(A)
    F = [[Fraction(x) for x in row] for row in np.asarray(Y, dtype=float).tolist()]
    A = [[int(a) for a in row] for row in np.asarray(A).tolist()]
    R = [[sum(A[i][k] * F[k][l] * A[j][l] for k in range(g) for l in range(g))
          for j in range(g)] for i in range(g)]
    upper, C, _, _, _ = spdcone._minkowski_conditions(g)
    flat = [R[a][b] for a, b in zip(*upper)]
    return (all(R[k][k] <= R[k + 1][k + 1] for k in range(g - 1))
            and all(sum(int(c) * x for c, x in zip(row, flat)) >= 0 for row in C.tolist()))


class TestExactReduction:
    """A Y tA, Y read exactly, is Minkowski-reduced: checked in Fractions,
    independently of the reduction's own integer arithmetic."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), g=st.integers(1, 4),
           kind=st.sampled_from(["integer", "scaled", "float"]))
    def test_moved_forms(self, seed, g, kind):
        """Integer forms, the same times a real factor (ties at rounding
        level) and float forms with cond(Y) up to 1e15, each moved by a
        unimodular matrix; forms that validation refuses are skipped."""
        rng = np.random.default_rng(seed)
        for _ in range(5):
            try:
                Y = _moved_form(rng, g, kind, decades=15.0)
            except ValueError as exc:
                assert str(exc) == "matrix is not positive definite"
                continue
            R, A = minkowski_reduce(Y)
            assert is_unimodular(A)
            assert _reduced_in_fractions(Y, A)

    @pytest.mark.parametrize("name", ["reduce_in.json", "reduce_ties_in.json"])
    def test_golden_forms(self, name):
        """Every golden ``reduce`` form, 66 seeded and 40 scaled tied ones."""
        requests = json.loads((Path(__file__).parent / "golden" / name).read_text(encoding="utf-8"))
        for request in requests:
            _, A = minkowski_reduce(request["Y"])
            assert _reduced_in_fractions(request["Y"], A)


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

    def test_determinant_below_the_smallest_double(self):
        """det(1e-200 I) = 1e-400 underflows to 0.0; the density 1e600
        overflows to inf."""
        assert volume_density(1e-200 * np.eye(2)) == math.inf

    def test_determinant_above_the_largest_double(self):
        """det(1e200 I) = 1e400 overflows; the density 1e-600 is 0.0,
        without a RuntimeWarning."""
        assert volume_density(1e200 * np.eye(2)) == 0.0


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
