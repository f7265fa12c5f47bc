import math
from collections import Counter

import numpy as np
import pytest

from realtori import geodesics
from realtori.geodesics import MinkowskiEuclidPoint, distance, metric_value
from realtori.spdcone import random_spd


def d_spd(Y0, Y1):
    """Affine-invariant cone distance sqrt(sum log^2) of the pencil eigenvalues."""
    L = np.linalg.cholesky(Y0)
    Li = np.linalg.inv(L)
    t = np.linalg.eigvalsh(Li @ Y1 @ Li.T)
    return math.sqrt(float(np.sum(np.log(t) ** 2)))


def midpoint_path_length(p0, p1, A_c, B_c, steps=2000):
    """Length of Y along its cone geodesic, V linear, by the midpoint rule on metric_value."""
    L = np.linalg.cholesky(p0.Y)
    Li = np.linalg.inv(L)
    t, U = np.linalg.eigh(Li @ p1.Y @ Li.T)
    F = L @ U  # Y(s) = F diag(t^s) tF
    dV = p1.V - p0.V
    total = 0.0
    for s in (np.arange(steps) + 0.5) / steps:
        Y = F @ np.diag(t**s) @ F.T
        dY = F @ np.diag(t**s * np.log(t)) @ F.T
        p = MinkowskiEuclidPoint(Y=0.5 * (Y + Y.T), V=p0.V + s * dV)
        total += math.sqrt(metric_value(p, 0.5 * (dY + dY.T), dV, A_c=A_c, B_c=B_c))
    return total / steps


def random_pair(rng, g, h):
    p0 = MinkowskiEuclidPoint(Y=random_spd(g, rng), V=rng.normal(size=(h, g)))
    p1 = MinkowskiEuclidPoint(Y=random_spd(g, rng), V=rng.normal(size=(h, g)))
    return p0, p1


class TestDistance:
    def test_h_zero_is_scaled_cone_distance(self):
        rng = np.random.default_rng(20)
        for g in (1, 2, 3):
            p0, p1 = random_pair(rng, g, 0)
            A_c = rng.uniform(0.5, 3.0)
            ref = math.sqrt(A_c) * d_spd(p0.Y, p1.Y)
            assert abs(distance(p0, p1, A_c=A_c, B_c=2.0) - ref) < 1e-12 * max(1.0, ref)

    def test_fixed_v_is_scaled_cone_distance(self):
        rng = np.random.default_rng(21)
        p0, p1 = random_pair(rng, 2, 1)
        p1 = MinkowskiEuclidPoint(Y=p1.Y, V=p0.V)
        ref = math.sqrt(2.5) * d_spd(p0.Y, p1.Y)
        assert abs(distance(p0, p1, A_c=2.5) - ref) < 1e-12 * max(1.0, ref)

    def test_at_least_scaled_cone_distance(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            p0, p1 = random_pair(rng, 2, 1)
            A_c, B_c = rng.uniform(0.2, 4.0, size=2)
            lower = math.sqrt(A_c) * d_spd(p0.Y, p1.Y)
            assert distance(p0, p1, A_c=A_c, B_c=B_c) >= lower * (1 - 1e-12)

    def test_matches_midpoint_integral_of_metric(self):
        rng = np.random.default_rng(23)
        for g, h in ((1, 1), (2, 1), (2, 2), (3, 1)):
            p0, p1 = random_pair(rng, g, h)
            A_c, B_c = rng.uniform(0.5, 2.0, size=2)
            ref = midpoint_path_length(p0, p1, A_c, B_c)
            assert abs(distance(p0, p1, A_c=A_c, B_c=B_c) - ref) < 1e-6 * ref

    def test_doubling_constants_scales_by_sqrt2(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            p0, p1 = random_pair(rng, 2, 2)
            A_c, B_c = rng.uniform(0.5, 2.0, size=2)
            one = distance(p0, p1, A_c=A_c, B_c=B_c)
            two = distance(p0, p1, A_c=2 * A_c, B_c=2 * B_c)
            assert abs(two - math.sqrt(2) * one) < 1e-10 * two

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_companion(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MinkowskiEuclidPoint(Y=np.eye(1), V=[[bad]])

    def test_rejects_mismatched_spaces(self):
        p0 = MinkowskiEuclidPoint(Y=np.eye(2), V=np.zeros((1, 2)))
        p1 = MinkowskiEuclidPoint(Y=np.eye(2), V=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            distance(p0, p1)


class TestQuadratureRules:
    @pytest.mark.parametrize("nodes", [8, 16, 32, 64, 128, 256])
    def test_cached_rule_is_leggauss_on_the_unit_interval(self, nodes):
        xm, wts = geodesics._gauss_legendre_rule(nodes)
        x, w = np.polynomial.legendre.leggauss(nodes)
        assert xm.tobytes() == (0.5 * (x + 1.0)).tobytes()
        assert wts.tobytes() == w.tobytes()
        assert not xm.flags.writeable and not wts.flags.writeable
        with pytest.raises(ValueError):
            xm[0] = 0.0

    def test_each_rule_is_built_once(self, monkeypatch):
        built = Counter()
        leggauss = np.polynomial.legendre.leggauss

        def counting(nodes):
            built[nodes] += 1
            return leggauss(nodes)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        geodesics._gauss_legendre_rule.cache_clear()
        rng = np.random.default_rng(25)
        p0, p1 = random_pair(rng, 2, 1)
        # the path length is about 3e13 and never settles: every rule is tried
        far0 = MinkowskiEuclidPoint(Y=[[1.0]], V=[[0.0]])
        far1 = MinkowskiEuclidPoint(Y=[[1e-30]], V=[[1.0]])
        for _ in range(3):
            assert distance(p0, p1) == distance(p0, p1)
            with pytest.raises(ValueError, match="did not settle"):
                distance(far0, far1)
        assert sorted(built) == [8, 16, 32, 64, 128, 256]
        assert set(built.values()) == {1}


class TestWhiteningFrame:
    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_whitens_and_diagonalizes(self, g):
        rng = np.random.default_rng(30 + g)
        for _ in range(10):
            Y0, Y1 = random_spd(g, rng), random_spd(g, rng)
            w, vals = geodesics.whitening_frame(Y0, Y1)
            assert np.max(np.abs(w @ Y0 @ w.T - np.eye(g))) < 1e-12
            assert np.max(np.abs(w @ Y1 @ w.T - np.diag(vals))) < 1e-12 * np.max(vals)
            assert np.all(np.diff(vals) >= 0)
            # the pencil's eigenvalues, from Y0^-1 Y1
            ref = np.sort(np.linalg.eigvals(np.linalg.solve(Y0, Y1)).real)
            assert np.max(np.abs(vals - ref)) < 1e-10 * np.max(ref)
            # each eigenvector w_j L (L the Cholesky factor of Y0) starts positive
            for row in w @ np.linalg.cholesky(Y0):
                assert row[np.flatnonzero(np.abs(row) > 1e-12)[0]] > 0

    def test_sign_rule_on_a_known_pencil(self):
        w, vals = geodesics.whitening_frame(np.eye(2), [[2.0, -1.0], [-1.0, 2.0]])
        r = 1 / math.sqrt(2)
        assert np.allclose(vals, [1.0, 3.0], rtol=0, atol=1e-14)
        assert np.allclose(w, [[r, r], [r, -r]], rtol=0, atol=1e-14)

    def test_refuses_a_form_off_the_cone(self):
        with pytest.raises(ValueError, match="positive definite"):
            geodesics.whitening_frame(np.eye(2), [[1.0, 2.0], [2.0, 1.0]])
