"""Write the seeded ``reduce`` requests of the golden CLI tests.

    python tests/golden/make_reduce.py > tests/golden/reduce_in.json
    python -m realtori.cli --input tests/golden/reduce_in.json \
        --output tests/golden/reduce_out.json
    python tests/golden/make_reduce.py ties > tests/golden/reduce_ties_in.json
    python -m realtori.cli --input tests/golden/reduce_ties_in.json \
        --output tests/golden/reduce_ties_out.json

Twenty forms for each g = 2, 3, 4: a random rotation of eigenvalues spread
log-uniformly over a condition number between 1 and about 1e6, moved off the
reduced domain by a random unimodular matrix with entries up to 3 (which
raises the condition number of the input itself to at most about 2e7); then six
integer forms with exact ties between vectors (A2, I3, A3, D4, I4, a
diagonal form) moved by such matrices, exactly, to pin the tie-breaking.  The
output file was written once and must not change: reduction is named by its
bytes.

The ``ties`` set holds 40 scaled integer forms, as the benchmark's workloads
send them: a tied integer form (the six above and four more) moved by such a
matrix, exactly, then multiplied by one factor.  Even requests take a random
real factor in [0.5, 2], which leaves ties at rounding level; odd requests
take a factor k/8, which keeps them exact.
"""

import json
import sys

import numpy as np


TIED = [
    [[2, 1], [1, 2]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[2, 1, 1], [1, 2, 1], [1, 1, 2]],
    [[2, 1, 1, 1], [1, 2, 1, 1], [1, 1, 2, 0], [1, 1, 0, 2]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]],
]


MORE_TIED = [
    [[1, 0], [0, 1]],
    [[3, 1, 1], [1, 3, 1], [1, 1, 3]],
    [[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]],
    [[2, 1, 1, 1], [1, 2, 1, 1], [1, 1, 2, 1], [1, 1, 1, 2]],
]


def _unimodular(g: int, rng: np.random.Generator) -> np.ndarray:
    U = np.eye(g)
    for _ in range(8):
        i, j = rng.choice(g, size=2, replace=False)
        V = U.copy()
        V[i] += rng.choice([-1, 1]) * V[j]
        if np.max(np.abs(V)) <= 3:
            U = V
    return U


def requests() -> list[dict]:
    rng = np.random.default_rng(20260501)
    out = []
    for g in (2, 3, 4):
        for _ in range(20):
            cond = 10.0 ** rng.uniform(0.0, 6.0)
            eig = np.exp(rng.uniform(0.0, np.log(cond), size=g))
            eig[0], eig[-1] = 1.0, cond
            Q, _ = np.linalg.qr(rng.normal(size=(g, g)))
            U = _unimodular(g, rng)
            Y = U @ (Q * eig) @ Q.T @ U.T
            Y = 0.5 * (Y + Y.T)
            out.append({"cmd": "reduce", "Y": Y.tolist()})
    for G in TIED:
        U = _unimodular(len(G), rng)
        out.append({"cmd": "reduce", "Y": (U @ np.array(G, dtype=float) @ U.T).tolist()})
    return out


def tie_requests() -> list[dict]:
    rng = np.random.default_rng(20261018)
    forms = TIED + MORE_TIED
    out = []
    for n in range(40):
        G = np.array(forms[n % len(forms)], dtype=float)
        U = _unimodular(len(G), rng)
        s = float(rng.uniform(0.5, 2.0)) if n % 2 == 0 else int(rng.integers(4, 17)) / 8
        out.append({"cmd": "reduce", "Y": ((U @ G @ U.T) * s).tolist()})
    return out


if __name__ == "__main__":
    print(json.dumps(tie_requests() if sys.argv[1:] == ["ties"] else requests()))
