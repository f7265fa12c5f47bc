import itertools

import numpy as np
import pytest

from realtori import spdcone
from realtori.degenerations import (
    FamilySample,
    detect_divergence,
    involution_splitting_type,
    limit_matrix,
    semi_abelian_limit,
    semi_torus_limit,
)
from realtori.exactlinalg import random_unimodular, unimodular_inverse

PARAMS = [1e-1, 1e-2, 1e-3, 1e-4]


def unit_upper(g, rng):
    W = np.eye(g)
    W[np.triu_indices(g, 1)] = rng.uniform(-0.5, 0.5, g * (g - 1) // 2)
    return W


def family(W, diagonals, X=None):
    """Samples tW diag(d) W, one per diagonal; X + i(...) when X is given."""
    mats = [W.T @ np.diag(d) @ W for d in diagonals]
    if X is not None:
        mats = [X + 1j * Y for Y in mats]
    return FamilySample(params=PARAMS[:len(mats)], matrices=mats)


def degenerating(g, t, rng):
    """Leading g - t entries base + xi, trailing t entries base / xi^2."""
    base = rng.uniform(1.0, 2.0, g)
    diagonals = []
    for xi in PARAMS:
        d = base + xi
        d[g - t:] = base[g - t:] / xi ** 2
        diagonals.append(d)
    return diagonals


class TestDetectDivergence:
    @pytest.mark.parametrize("g, t", [(g, t) for g in (1, 2, 3, 4) for t in range(g + 1)])
    @pytest.mark.parametrize("complex_family", [False, True], ids=["real", "complex"])
    def test_known_rank(self, g, t, complex_family):
        rng = np.random.default_rng(10 * g + t)
        A = rng.uniform(-1, 1, (g, g))
        X = 0.5 * (A + A.T) if complex_family else None
        sample = family(unit_upper(g, rng), degenerating(g, t, rng), X)
        report = detect_divergence(sample)
        assert report.status == "ok" and report.t == t
        assert report.verdicts == ["convergent"] * (g - t) + ["divergent"] * t

    def test_no_clear_trend(self):
        rng = np.random.default_rng(1)
        diagonals = [[1.0 + 0.5 * (k % 2), 1.5] for k in range(4)]
        report = detect_divergence(family(unit_upper(2, rng), diagonals))
        assert report.status == "undecided" and report.t is None
        assert report.verdicts == ["undecided", "convergent"]
        assert report.detail == "no clear trend for some diagonal index"

    def test_divergence_not_separated(self):
        # grows by 5 at each step, but ends at 625, far below 1e6 times the rest
        rng = np.random.default_rng(2)
        diagonals = [[1.5, 5.0 ** k] for k in range(1, 5)]
        report = detect_divergence(family(unit_upper(2, rng), diagonals))
        assert report.status == "undecided"
        assert report.verdicts == ["convergent", "divergent"]
        assert report.detail == "divergent entries not separated enough"

    def test_divergence_not_trailing(self):
        rng = np.random.default_rng(3)
        diagonals = [[1.5 / xi ** 2, 1.2] for xi in PARAMS]
        report = detect_divergence(family(unit_upper(2, rng), diagonals))
        assert report.status == "undecided"
        assert report.verdicts == ["divergent", "convergent"]
        assert report.detail == "divergent indices are not trailing"

    def test_unit_triangular_factor_moves(self):
        mats = []
        for k in range(4):
            W = np.array([[1.0, 0.1 * k], [0.0, 1.0]])
            mats.append(W.T @ np.diag([1.5, 1.2]) @ W)
        report = detect_divergence(FamilySample(params=PARAMS, matrices=mats))
        assert report.status == "undecided"
        assert report.verdicts == ["convergent", "convergent"]
        assert report.detail == "unit-triangular factor is not settling"

    @pytest.mark.parametrize("complex_family", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("small_first", [False, True], ids=["large_first", "small_first"])
    def test_samples_of_different_sizes_are_refused(self, complex_family, small_first,
                                                    monkeypatch):
        def refuse(Y):
            pytest.fail("a sample was factored")

        monkeypatch.setattr(spdcone, "_spd_factor", refuse)
        mats = [2.0 * np.eye(2), 2.0 * np.eye(1), 2.0 * np.eye(2)]
        if small_first:
            mats[:2] = mats[1::-1]
        if complex_family:
            mats = [0.5 + 1j * M for M in mats]
        with pytest.raises(ValueError, match="same shape"):
            FamilySample(params=PARAMS[:3], matrices=mats)

    @pytest.mark.parametrize("complex_family", [False, True], ids=["real", "complex"])
    def test_each_sample_is_factored_once(self, complex_family, monkeypatch):
        factored = []
        spd_factor = spdcone._spd_factor

        def counting(Y):
            factored.append(1)
            return spd_factor(Y)

        monkeypatch.setattr(spdcone, "_spd_factor", counting)
        rng = np.random.default_rng(4)
        X = np.array([[0.5, 0.25], [0.25, 0.0]]) if complex_family else None
        sample = family(unit_upper(2, rng), degenerating(2, 1, rng), X)
        report = detect_divergence(sample)
        limit_matrix(sample, report.t)
        detect_divergence(sample)
        assert len(factored) == len(PARAMS)

    def test_needs_three_samples(self):
        with pytest.raises(ValueError, match="three samples"):
            detect_divergence(FamilySample(params=PARAMS[:2], matrices=[np.eye(2)] * 2))


class TestLimitMatrix:
    @pytest.mark.parametrize("g, t", [(g, t) for g in (1, 2, 3, 4) for t in range(g + 1)])
    def test_leading_columns_of_last_sample(self, g, t):
        rng = np.random.default_rng(100 + 10 * g + t)
        sample = family(unit_upper(g, rng), degenerating(g, t, rng))
        limit = limit_matrix(sample, t)
        lead = g - t
        last = sample.matrices[-1]
        assert np.allclose(limit[:, :lead], last[:, :lead], rtol=1e-12, atol=1e-12)
        assert np.all(limit[:, lead:] == 0)

    @pytest.mark.parametrize("g, t", [(2, 1), (3, 1), (3, 2)])
    def test_complex_keeps_real_part(self, g, t):
        rng = np.random.default_rng(200 + 10 * g + t)
        A = rng.uniform(-1, 1, (g, g))
        X = 0.5 * (A + A.T)
        sample = family(unit_upper(g, rng), degenerating(g, t, rng), X)
        limit = limit_matrix(sample, t)
        lead = g - t
        assert np.array_equal(limit[:, :lead].real, X[:, :lead])
        assert np.allclose(limit[:, :lead].imag, sample.matrices[-1].imag[:, :lead],
                           rtol=1e-12, atol=1e-12)
        assert np.all(limit[:, lead:] == 0)

    def test_dtype_decides_the_family(self):
        """The same samples held as complex points X + iY with X = 0 give a
        complex limit whose imaginary part is the real family's limit."""
        rng = np.random.default_rng(300)
        real = family(unit_upper(3, rng), degenerating(3, 1, rng))
        cplx = FamilySample(params=real.params, matrices=[1j * M for M in real.matrices])
        assert detect_divergence(cplx) == detect_divergence(real)
        limit, ref = limit_matrix(cplx, 1), limit_matrix(real, 1)
        assert ref.dtype == float and limit.dtype == complex
        assert np.all(limit.real == 0) and np.array_equal(limit.imag, ref)

    @pytest.mark.parametrize("t", [-1, 3])
    def test_rank_out_of_range(self, t):
        sample = family(np.eye(2), [[1.0, 1.0]] * 3)
        with pytest.raises(ValueError, match="out of range"):
            limit_matrix(sample, t)


class TestLimitSplitting:
    def test_semi_torus_core(self):
        Y0 = np.array([[2.0, 0.0], [0.5, 0.0]])
        lim = semi_torus_limit(Y0, 1)
        assert lim.t == 1 and lim.Y_diamond.tolist() == [[2.0]]

    def test_semi_abelian_core_and_rows(self):
        Z0 = np.array([[0.5 + 2j, 0], [0.25 + 1j, 0]])
        core, rows = semi_abelian_limit(Z0, 1)
        assert core.tolist() == [[0.5 + 2j]] and rows.tolist() == [[0.25 + 1j]]

    @pytest.mark.parametrize("split", [semi_torus_limit, semi_abelian_limit])
    def test_nonzero_trailing_column_is_refused(self, split):
        M = np.array([[2.0, 0.0], [0.0, 1e-300]])
        with pytest.raises(ValueError, match="trailing columns"):
            split(M, 1)

    @pytest.mark.parametrize("split", [semi_torus_limit, semi_abelian_limit])
    @pytest.mark.parametrize("t", [-1, 3])
    def test_rank_out_of_range(self, split, t):
        with pytest.raises(ValueError, match="out of range"):
            split(np.eye(2), t)


def involution(s, p, t):
    """diag(I_s, H^p, -I_t), H the swap of two coordinates."""
    n = s + 2 * p + t
    B = np.zeros((n, n), dtype=int)
    for i in range(s):
        B[i, i] = 1
    for k in range(p):
        i = s + 2 * k
        B[i, i + 1] = B[i + 1, i] = 1
    for i in range(s + 2 * p, n):
        B[i, i] = -1
    return B


def conjugate(S, U):
    return U @ S @ unimodular_inverse(U)


SPLITTINGS = [c for n in range(1, 6) for c in itertools.product(range(n + 1), repeat=3)
              if c[0] + 2 * c[1] + c[2] == n]


class TestInvolutionSplittingType:
    @pytest.mark.parametrize("s, p, t", SPLITTINGS)
    def test_conjugates_keep_the_type(self, s, p, t):
        n = s + 2 * p + t
        rng = np.random.default_rng(300 + 25 * s + 5 * p + t)
        S = conjugate(involution(s, p, t), random_unimodular(n, rng, max_entry=3))
        assert np.all(S @ S == np.eye(n, dtype=int))
        assert involution_splitting_type(S) == (s, p, t)
        again = conjugate(S, random_unimodular(n, rng, max_entry=3))
        assert involution_splitting_type(again) == (s, p, t)

    @pytest.mark.parametrize("S, message", [
        ([[1, 1], [0, 1]], "square to the identity"),
        ([[1, 0, 0], [0, 1, 0]], "must be square"),
    ])
    def test_refusals(self, S, message):
        with pytest.raises(ValueError, match=message):
            involution_splitting_type(S)
