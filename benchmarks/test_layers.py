"""Per-layer timings of reduction, enumeration, congruence-witness search,
exact inverse, Smith normal form and coboundary witnesses.

Run from the root of a checkout (not part of the tier-1 tests):

    python -m pytest benchmarks --benchmark-json=BENCH_<n>.json

Every input comes from a fixed seed, so two checkouts time the same work.
"Badly conditioned" forms have eigenvalues 1 and 1e6 and are moved off the
reduced domain by a unimodular matrix with entries up to 3, as in
``tests/golden/make_reduce.py``.
"""

import numpy as np
import pytest

from realtori.cohomology import coboundary_witness
from realtori.exactlinalg import (
    random_unimodular,
    smith_normal_form,
    symplectic_inverse,
    unimodular_inverse,
)
from realtori.moduli import congruence_witnesses
from realtori.siegel import random_symplectic, tau_group
from realtori.spdcone import minkowski_reduce, quadratic_short_vectors


def _form(g: int, cond: float, seed: int) -> np.ndarray:
    """An SPD form with condition number ``cond`` before a unimodular move."""
    rng = np.random.default_rng(seed)
    eig = np.exp(rng.uniform(0.0, np.log(cond), size=g))
    eig[0], eig[-1] = 1.0, cond
    Q, _ = np.linalg.qr(rng.normal(size=(g, g)))
    U = random_unimodular(g, rng, max_entry=3).astype(float)
    Y = U @ (Q * eig) @ Q.T @ U.T
    return 0.5 * (Y + Y.T)


CONDITIONING = {"well": 10.0, "bad": 1e6}

# integer forms with 12, 48 and 32 automorphisms, all within the default
# witness cap of 64, so the search runs to completion
TIED = {
    2: [[2, 1], [1, 2]],
    3: [[2, 1, 1], [1, 2, 1], [1, 1, 2]],
    4: [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]],
}


@pytest.mark.parametrize("cond", sorted(CONDITIONING))
@pytest.mark.parametrize("g", [2, 3, 4])
def test_minkowski_reduce(benchmark, g, cond):
    forms = [_form(g, CONDITIONING[cond], seed) for seed in range(10)]
    benchmark(lambda: [minkowski_reduce(Y) for Y in forms])


@pytest.mark.parametrize("g", [2, 3, 4])
def test_quadratic_short_vectors(benchmark, g):
    R, _ = minkowski_reduce(_form(g, 10.0, 100 + g))
    bound = 2.0 * float(np.max(np.diag(R)))
    vecs = benchmark(quadratic_short_vectors, R, bound)
    assert vecs


@pytest.mark.parametrize("g", [2, 3, 4])
def test_congruence_witnesses_automorphisms(benchmark, g):
    R = np.array(TIED[g], dtype=float)
    witnesses, complete = benchmark(congruence_witnesses, R, R)
    assert complete and witnesses


@pytest.mark.parametrize("g", [2, 3, 4])
def test_congruence_witnesses_generic(benchmark, g):
    R1, _ = minkowski_reduce(_form(g, 10.0, 200 + g))
    R2, _ = minkowski_reduce(_form(g, 10.0, 300 + g))
    R2 *= (np.linalg.det(R1) / np.linalg.det(R2)) ** (1.0 / g)
    benchmark(congruence_witnesses, R1, R2)


@pytest.mark.parametrize("g", [2, 4, 6])
def test_unimodular_inverse(benchmark, g):
    rng = np.random.default_rng(400 + g)
    mats = [random_unimodular(g, rng, max_entry=50, steps=40) for _ in range(10)]
    benchmark(lambda: [unimodular_inverse(A) for A in mats])


@pytest.mark.parametrize("g", [2, 4, 6])
def test_smith_normal_form(benchmark, g):
    rng = np.random.default_rng(500 + g)
    mats = [rng.integers(-9, 10, size=(g, g)) for _ in range(10)]
    benchmark(lambda: [smith_normal_form(M) for M in mats])


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_coboundary_witness(benchmark, g):
    rng = np.random.default_rng(600 + g)
    words = [random_symplectic(g, rng, length=6) for _ in range(10)]
    gammas = [tau_group(h) @ symplectic_inverse(h) for h in words]
    witnesses = benchmark(lambda: [coboundary_witness(gamma) for gamma in gammas])
    assert all(h is not None for h in witnesses)
