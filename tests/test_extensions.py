import json
from fractions import Fraction

import numpy as np
import pytest

from realtori.extensions import ExtensionDatum, ext_equivalent, ext_normal_form


def rational(rng, lo=-9, hi=10, den=12):
    return Fraction(int(rng.integers(lo, hi)), int(rng.integers(1, den)))


def rat_rows(rng, rows, cols):
    return [[rational(rng) for _ in range(cols)] for _ in range(rows)]


def matmul(X, Y):
    return [[sum(X[i][k] * Y[k][j] for k in range(len(Y))) for j in range(len(Y[0]))]
            for i in range(len(X))]


def normal_form(Pi2, sigma):
    """sigma_2 - sigma_1 Pi2, in Fractions."""
    g2 = len(Pi2)
    s1 = [row[:g2] for row in sigma]
    s2 = [row[g2:] for row in sigma]
    prod = matmul(s1, Pi2)
    return [[a - b for a, b in zip(r2, rp)] for r2, rp in zip(s2, prod)]


def lattice_element(Pi1, Pi2, M):
    """(I, Pi1) M (Pi2; I), in Fractions."""
    g1, g2 = len(Pi1), len(Pi2)
    left = [[Fraction(int(i == j)) for j in range(g1)] + Pi1[i] for i in range(g1)]
    right = Pi2 + [[Fraction(int(i == j)) for j in range(g2)] for i in range(g2)]
    return matmul(matmul(left, M), right)


def payload(Pi1, Pi2, sigma1, sigma2):
    enc = lambda rows: [[str(x) for x in row] for row in rows]  # noqa: E731
    return json.dumps({"cmd": "ext-equiv", "Pi1": enc(Pi1), "Pi2": enc(Pi2),
                       "sigma1": enc(sigma1), "sigma2": enc(sigma2)})


def shifted(Pi2, sigma, delta):
    """A datum whose normal form is that of ``sigma`` minus ``delta``."""
    g2 = len(Pi2)
    return [row[:g2] + [x - d for x, d in zip(row[g2:], drow)]
            for row, drow in zip(sigma, delta)]


class TestExactEquivalence:
    @pytest.mark.parametrize("g1, g2", [(1, 1), (1, 2), (2, 1)])
    def test_witness_spans_the_difference(self, run_cli, g1, g2):
        rng = np.random.default_rng(10 * g1 + g2)
        for _ in range(4):
            Pi1, Pi2 = rat_rows(rng, g1, g1), rat_rows(rng, g2, g2)
            sigma1 = rat_rows(rng, g1, 2 * g2)
            M = [[int(v) for v in row] for row in rng.integers(-3, 4, (2 * g1, 2 * g2))]
            sigma2 = shifted(Pi2, sigma1, lattice_element(Pi1, Pi2, M))
            code, out = run_cli(payload(Pi1, Pi2, sigma1, sigma2))
            res = json.loads(out)
            assert code == 0 and res["verdict"] == "EQUIVALENT"
            witness = res["M"]
            assert len(witness) == 2 * g1 and all(len(r) == 2 * g2 for r in witness)
            diff = [[a - b for a, b in zip(ra, rb)]
                    for ra, rb in zip(normal_form(Pi2, sigma1), normal_form(Pi2, sigma2))]
            assert lattice_element(Pi1, Pi2, witness) == diff

    def test_half_lattice_step_is_inequivalent(self, run_cli):
        rng = np.random.default_rng(3)
        for _ in range(6):
            Pi1, Pi2 = rational(rng, 1, 6, 6), rational(rng, 1, 6, 6)
            # for g1 = g2 = 1 the period lattice is the rank-one group
            # Z Pi2 + Z + Z Pi1 Pi2 + Z Pi1 = Z step
            gens = [Pi2, Fraction(1), Pi1 * Pi2, Pi1]
            den = np.lcm.reduce([x.denominator for x in gens])
            step = Fraction(int(np.gcd.reduce([int(x * den) for x in gens])), int(den))
            sigma1 = rat_rows(rng, 1, 2)
            sigma2 = shifted([[Pi2]], sigma1, [[step / 2]])
            code, out = run_cli(payload([[Pi1]], [[Pi2]], sigma1, sigma2))
            assert code == 0
            assert json.loads(out) == {"status": "ok", "verdict": "INEQUIVALENT"}

    def test_float_input_is_rejected(self):
        # for real periods the generators span a dense subgroup: a float
        # search would call any nearby pair equivalent
        e = ExtensionDatum(Pi1=[[0.5]], Pi2=[[0.3333]], sigma=[[0.1, 0.2]])
        f = ExtensionDatum(Pi1=[[0.5]], Pi2=[[0.3333]], sigma=[[0.1, 1.2]])
        with pytest.raises(ValueError, match="exact"):
            ext_equivalent(e, f)

    def test_normal_form_matches_oracle(self):
        rng = np.random.default_rng(5)
        Pi1, Pi2 = rat_rows(rng, 2, 2), rat_rows(rng, 2, 2)
        sigma = rat_rows(rng, 2, 4)
        e = ExtensionDatum(Pi1=np.array(Pi1, dtype=object), Pi2=np.array(Pi2, dtype=object),
                           sigma=np.array(sigma, dtype=object))
        assert ext_normal_form(e).tolist() == normal_form(Pi2, sigma)
