"""Write the seeded requests of the golden CLI test, and their answers.

    python tests/golden/make_cli.py > tests/golden/cli_in.json
    PYTHONPATH=src python tests/golden/make_cli.py answer tests/golden/cli_in.json \
        > tests/golden/cli_out.json

Each case of ``cli_in.json`` is {"args": [...], "input": "<request text>"}:
the command-line arguments besides --input/--output, and the text of the
input file.  The ``answer`` mode runs every case alone through ``cli.main``,
with the input and output in files, and writes {"code": <exit code>,
"output": "<output text>"} for each, in order; ``tests/test_cli.py`` replays
the cases the same way.

Every one of the 22 commands gets good requests at small g and bad ones
(missing fields, wrong shapes or types, values out of range), including
undecided ``equiv`` and ``degenerate`` requests and runs with --tol, --eps,
--bound and the positional command.  A few requests are not commands at
all: invalid JSON, a JSON value that is not an object, an unknown command,
and one batch.  The output file names the command-line front end by its
bytes: it is rewritten only by a change that means to change answers, and
that change lists every case it changed.
"""

import contextlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np


def _fl(M) -> list:
    return np.asarray(M, dtype=float).tolist()


def _il(M) -> list:
    return [[int(x) for x in row] for row in np.asarray(M)]


def _vec(v) -> list:
    return np.asarray(v, dtype=float).ravel().tolist()


def _cplx(M) -> list:
    return [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in np.asarray(M)]


def _rl(M) -> list:
    return [[f"{Fraction(x).numerator}/{Fraction(x).denominator}" for x in row] for row in M]


def _sym(M):
    return 0.5 * (M + M.T)


def _spd(rng, g, lo=1.0, hi=2.0):
    Q, _ = np.linalg.qr(rng.normal(size=(g, g)))
    return _sym((Q * rng.uniform(lo, hi, g)) @ Q.T)


def _sym01(rng, g):
    N = rng.integers(0, 2, (g, g))
    return np.triu(N) + np.triu(N, 1).T


def _unimodular(rng, g, max_entry=2):
    U = np.eye(g, dtype=np.int64)
    for _ in range(8):
        if g < 2:
            break
        i, j = rng.choice(g, size=2, replace=False)
        V = U.copy()
        V[i] += int(rng.choice([-1, 1])) * V[j]
        if np.max(np.abs(V)) <= max_entry:
            U = V
    return U


def _siegel(rng, g):
    return _sym(rng.uniform(-1, 1, (g, g))) + 1j * _spd(rng, g, 0.5, 2.0)


def _omega(om) -> dict:
    return {"X": _fl(om.real), "Y": _fl(om.imag)}


def _to_disk(om):
    g = om.shape[0]
    I = np.eye(g)
    return _sym(np.linalg.solve((om + 1j * I).T, (om - 1j * I).T).T)


def _J(g):
    return np.block([[np.zeros((g, g), np.int64), np.eye(g, dtype=np.int64)],
                     [-np.eye(g, dtype=np.int64), np.zeros((g, g), np.int64)]])


def _translation(B):
    g = B.shape[0]
    T = np.eye(2 * g, dtype=np.int64)
    T[:g, g:] = B
    return T


def _dilation(A):
    g = A.shape[0]
    D = np.zeros((2 * g, 2 * g), dtype=np.int64)
    D[:g, :g] = A
    D[g:, g:] = np.round(np.linalg.inv(A)).astype(np.int64).T
    return D


def _symplectic(rng, g, length=3):
    M = np.eye(2 * g, dtype=np.int64)
    for _ in range(length):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            gen = _translation(_sym01(rng, g) * int(rng.choice([-1, 1])))
        elif kind == 1:
            gen = _dilation(_unimodular(rng, g))
        else:
            gen = _J(g)
        M = M @ gen
    return M


def _tau(M):
    g = M.shape[0] // 2
    out = M.copy()
    out[:g, g:] *= -1
    out[g:, :g] *= -1
    return out


def _symplectic_inverse(M):
    g = M.shape[0] // 2
    A, B, C, D = M[:g, :g], M[:g, g:], M[g:, :g], M[g:, g:]
    return np.block([[D.T, -B.T], [-C.T, A.T]])


def _coboundary(rng, g, length):
    h = _symplectic(rng, g, length)
    return _tau(h) @ _symplectic_inverse(h)


def _int_form(rng, g, diag):
    U = _unimodular(rng, g)
    return U @ np.diag(diag) @ U.T


def _family(rng, g, t, complex_family=False, noise=False):
    W = np.eye(g)
    W[np.triu_indices(g, 1)] = rng.uniform(-0.5, 0.5, g * (g - 1) // 2)
    base = rng.uniform(1.0, 2.0, g)
    X = _sym(rng.uniform(-1, 1, (g, g)))
    params = [1e-1, 1e-2, 1e-3, 1e-4]
    mats = []
    for k, xi in enumerate(params):
        d = base + xi
        if t:
            d[g - t:] = base[g - t:] / xi ** 2
        if noise:
            d[0] = base[0] * (1.0 + 0.5 * (k % 2))
        Y = _sym(W.T @ np.diag(d) @ W)
        if not complex_family:
            mats.append(_fl(Y))
        elif k % 2:
            mats.append(_omega(X + 1j * Y))
        else:
            mats.append(_cplx(X + 1j * Y))
    out = {"cmd": "degenerate", "params": params, "matrices": mats}
    if complex_family:
        out["complex"] = True
    return out


def _involution(rng, s, p, t):
    n = s + 2 * p + t
    B = np.zeros((n, n), dtype=np.int64)
    for i in range(s):
        B[i, i] = 1
    for k in range(p):
        i = s + 2 * k
        B[i, i + 1] = B[i + 1, i] = 1
    for i in range(s + 2 * p, n):
        B[i, i] = -1
    P = _unimodular(rng, n)
    return P @ B @ np.round(np.linalg.inv(P)).astype(np.int64)


def _reduce(rng):
    out = [{"cmd": "reduce", "Y": _fl(_spd(rng, g))} for g in (1, 2, 3, 4)]
    out.append({"cmd": "reduce", "Y": _il(_int_form(rng, 3, [1, 2, 3]))})
    Q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    out.append({"cmd": "reduce", "Y": _fl(_sym((Q * [1.0, 1e4]) @ Q.T))})
    out += [
        {"cmd": "reduce", "Y": [[2]], "tol": 1e-3, "eps": 1e-3, "bound": 1, "g": 7},
        {"cmd": "reduce", "Y": [[1, 2], [2, 1]]},
        {"cmd": "reduce", "Y": [[1, 0]]},
        {"cmd": "reduce"},
        {"cmd": "reduce", "Y": [["a"]]},
        {"cmd": "reduce", "Y": [[1e-12, 0], [0, 1]]},
        {"cmd": "reduce", "Y": _fl(np.eye(5))},
        {"cmd": "reduce", "Y": []},
        {"cmd": "reduce", "Y": [[1, 0], [0]]},
    ]
    cases = [([], r) for r in out]
    cases.append((["--tol", "1e-3", "--eps", "1e-3", "--bound", "1"], out[0]))
    return cases


def _equiv(rng):
    cases = []
    for g in (2, 3):
        Z1 = _int_form(rng, g, rng.integers(1, 4, g))
        U = _unimodular(rng, g)
        cases.append(([], {"cmd": "equiv", "Y1": _il(Z1), "Y2": _il(U @ Z1 @ U.T)}))
    cases.append(([], {"cmd": "equiv", "Y1": _il(_int_form(rng, 2, [1, 4])),
                       "Y2": _il(_int_form(rng, 2, [2, 2]))}))
    Z1 = _int_form(rng, 3, [1, 2, 2])
    U = _unimodular(rng, 3)
    s = float(rng.uniform(0.5, 2.0))
    Y_pair = {"Y1": _fl(Z1 * s), "Y2": _fl(U @ Z1 @ U.T * s)}
    cases += [
        ([], {"cmd": "equiv", **Y_pair}),
        ([], {"cmd": "equiv", **Y_pair, "tol": 1e-6}),
        (["--tol", "1e-7"], {"cmd": "equiv", **Y_pair, "tol": 1e-3}),
        ([], {"cmd": "equiv", "Y1": [[1]], "Y2": [[1, 0], [0, 1]]}),
        ([], {"cmd": "equiv", "Y1": [[1, 2], [2, 1]], "Y2": [[1, 0], [0, 1]]}),
        ([], {"cmd": "equiv", "Y1": [[1]]}),
        ([], {"cmd": "equiv", **Y_pair, "tol": "abc"}),
    ]
    for g in (2, 3):
        M1 = _sym01(rng, g)
        Z1 = _int_form(rng, g, rng.integers(1, 4, g))
        A = _unimodular(rng, g)
        M2 = A @ M1 @ A.T + 2 * _sym01(rng, g)
        om1 = {"X": _fl(0.5 * M1), "Y": _il(Z1)}
        cases.append(([], {"cmd": "equiv", "Omega1": om1,
                           "Omega2": {"X": _fl(0.5 * M2), "Y": _il(A @ Z1 @ A.T)}}))
        cases.append(([], {"cmd": "equiv", "Omega1": om1,
                           "Omega2": {"X": _fl(0.5 * M2), "Y": _il(Z1 + np.eye(g, dtype=int))}}))
    I2 = {"X": [[0, 0], [0, 0]], "Y": [[1, 0], [0, 1]]}
    H2 = {"X": [[0.5, 0], [0, 0]], "Y": [[1, 0], [0, 1]]}
    # inequivalent with equal reduced diagonals, so the minima do not decide:
    # a search capped at one vector is undecided
    D = {"X": [[0, 0], [0, 0]], "Y": [[2, 0], [0, 3.5]]}
    S = {"X": [[0, 0], [0, 0]], "Y": [[2, 0.5], [0.5, 3.5]]}
    cases += [
        ([], {"cmd": "equiv", "Omega1": D, "Omega2": S, "bound": 1}),
        (["--bound", "50"], {"cmd": "equiv", "Omega1": D, "Omega2": S}),
        (["--bound", "1"], {"cmd": "equiv", "Omega1": D, "Omega2": S, "bound": 50}),
        ([], {"cmd": "equiv", "Omega1": I2, "Omega2": H2}),
        ([], {"cmd": "equiv", "Omega1": I2, "Omega2": I2, "bound": "x"}),
        ([], {"cmd": "equiv", "Omega1": I2, "Omega2": I2, "bound": 2.5}),
        ([], {"cmd": "equiv", "Omega1": I2, "Omega2": I2, "bound": True}),
        ([], {"cmd": "equiv", "Omega1": {"X": [[0.3]], "Y": [[1]]},
              "Omega2": {"X": [[0]], "Y": [[1]]}}),
        ([], {"cmd": "equiv", "Omega1": I2}),
        ([], {"cmd": "equiv", "Omega1": [[1]], "Omega2": I2}),
    ]
    return cases


def _classify_mod2(rng):
    out = [{"cmd": "classify-mod2", "N": _il(_sym01(rng, g))} for g in (1, 2, 3, 4)]
    out += [
        {"cmd": "classify-mod2", "N": [[2, 3], [3, 5]]},
        {"cmd": "classify-mod2", "N": [[0, 1], [0, 0]]},
        {"cmd": "classify-mod2", "N": [[0.5]]},
        {"cmd": "classify-mod2", "N": [[1, 0]]},
        {"cmd": "classify-mod2"},
    ]
    return [([], r) for r in out]


def _invariants(rng):
    cases = [([], {"cmd": "invariants", "g": g}) for g in (1, 2, 3, 4, 7)]
    cases += [
        (["invariants"], {"g": 3}),
        (["invariants"], {"cmd": "reduce", "g": 2}),
        ([], {"cmd": "invariants", "g": 2.0}),
        ([], {"cmd": "invariants", "g": 0}),
        ([], {"cmd": "invariants", "g": 1001}),
        ([], {"cmd": "invariants"}),
        ([], {"cmd": "invariants", "g": "2"}),
        ([], {"cmd": "invariants", "g": 2.5}),
        ([], {"cmd": "invariants", "g": True}),
    ]
    return cases


def _sigma(rng):
    standard = [[[1]], [[0]], [[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [0, 0]],
                [[0, 0], [0, 0]]]
    out = [{"cmd": "sigma", "M": M} for M in standard[:2]]
    out += [{"cmd": "sigma", "M": M, "Y": _fl(_spd(rng, len(M)))} for M in standard]
    out += [
        {"cmd": "sigma", "M": [[1, 1], [1, 0]]},
        {"cmd": "sigma", "M": [[1]], "Y": [[-1]]},
        {"cmd": "sigma", "M": [[1]], "g": 5},
        {"cmd": "sigma"},
    ]
    return [([], r) for r in out]


def _real_structure(rng):
    cases = []
    for g in (1, 2, 3):
        om = 0.5 * _sym01(rng, g) + 1j * _spd(rng, g)
        cases.append(([], {"cmd": "real-structure", "Omega": _omega(om)}))
    om = 0.5 * _sym01(rng, 2) + 1j * _spd(rng, 2)
    near = {"X": _fl(om.real + 1e-6), "Y": _fl(om.imag)}
    cases += [
        ([], {"cmd": "real-structure", "Omega": near}),
        (["--tol", "1e-3"], {"cmd": "real-structure", "Omega": near}),
        ([], {"cmd": "real-structure", "Omega": near, "tol": 1e-3}),
        ([], {"cmd": "real-structure", "Omega": {"X": [[0.3]], "Y": [[1]]}}),
        ([], {"cmd": "real-structure", "Omega": {"X": [[0]]}}),
        ([], {"cmd": "real-structure", "Omega": [[1]]}),
        ([], {"cmd": "real-structure", "Omega": {"X": [[0]], "Y": [[-1]]}}),
    ]
    return cases


def _cayley(rng):
    out = []
    for g in (1, 2, 3):
        om = _siegel(rng, g)
        out.append({"cmd": "cayley", "direction": "to_disk", "Omega": _omega(om)})
        out.append({"cmd": "cayley", "direction": "to_halfspace", "W": _cplx(_to_disk(om))})
    out += [
        {"cmd": "cayley", "direction": "to_halfspace", "W": [[{"re": 0.25, "im": 0.5}]]},
        {"cmd": "cayley", "direction": "to_halfspace", "W": [[2]]},
        {"cmd": "cayley", "direction": "sideways", "W": [[0]]},
        {"cmd": "cayley", "Omega": {"X": [[0]], "Y": [[1]]}},
        {"cmd": "cayley", "direction": "to_disk"},
    ]
    return [([], r) for r in out]


def _act(rng):
    out = []
    for g in (1, 2):
        om = _siegel(rng, g)
        out.append({"cmd": "act", "kind": "gl", "A": _fl(rng.normal(size=(g, g)) + 2 * np.eye(g)),
                    "Y": _fl(_spd(rng, g))})
        out.append({"cmd": "act", "kind": "sp", "M": _il(_symplectic(rng, g, 2)),
                    "Omega": _omega(om)})
        out.append({"cmd": "act", "kind": "disk", "M": _il(_symplectic(rng, g, 2)),
                    "W": _cplx(_to_disk(om))})
        M = _dilation(_unimodular(rng, g))
        M[:g, g:] = _sym01(rng, g) @ M[g:, g:]
        out.append({"cmd": "act", "kind": "gamma_star", "M": _il(M),
                    "Omega": {"X": _fl(0.5 * _sym01(rng, g)), "Y": _fl(_spd(rng, g))}})
        h = 3 - g
        out.append({"cmd": "act", "kind": "glgh",
                    "A": _fl(rng.normal(size=(g, g)) + 2 * np.eye(g)),
                    "a": _fl(rng.normal(size=(h, g))), "Y": _fl(_spd(rng, g)),
                    "V": _fl(rng.normal(size=(h, g)))})
    I1 = {"X": [[0]], "Y": [[1]]}
    out += [
        {"cmd": "act", "kind": "sp", "M": [[1, 1], [1, 1]], "Omega": I1},
        {"cmd": "act", "kind": "gamma_star", "M": [[0, 1], [-1, 0]], "Omega": I1},
        {"cmd": "act", "kind": "gl", "A": [[0]], "Y": [[1]]},
        {"cmd": "act", "kind": "glgh", "A": [[0]], "a": [[1]], "Y": [[1]], "V": [[1]]},
        {"cmd": "act", "kind": "rotate", "A": [[1]], "Y": [[1]]},
        {"cmd": "act", "A": [[1]], "Y": [[1]]},
        {"cmd": "act", "kind": "disk", "M": [[1, 0], [0, 1]], "W": [[3]]},
    ]
    return [([], r) for r in out]


def _jacobi_act(rng):
    out = []
    for g, h in ((1, 1), (2, 1), (1, 2), (2, 2)):
        lam = rng.normal(size=(h, g))
        mu = rng.normal(size=(h, g))
        kappa = _sym(rng.normal(size=(h, h))) - mu @ lam.T
        Z = rng.normal(size=(h, g)) + 1j * rng.normal(size=(h, g))
        out.append({"cmd": "jacobi-act", "M": _il(_symplectic(rng, g, 2)), "lam": _fl(lam),
                    "mu": _fl(mu), "kappa": _fl(kappa), "Omega": _omega(_siegel(rng, g)),
                    "Z": _cplx(Z)})
    bad = dict(out[0])
    out += [
        {**bad, "kappa": [[0.5]], "mu": [[1.0]], "lam": [[1.0]], "M": [[1, 1], [1, 1]]},
        {**bad, "kappa": [[1.0, 0.0]]},
        {k: v for k, v in bad.items() if k != "mu"},
    ]
    return [([], r) for r in out]


def _theta(rng):
    cases = []
    for g in (1, 2, 3):
        Y = _spd(rng, g)
        cases.append(([], {"cmd": "theta", "Y": _fl(Y), "v": _vec(Y @ rng.uniform(-1, 1, g))}))
    for g in (1, 2):
        B = _spd(rng, g, 0.5, 2.0)
        Pi = np.eye(g) + 0.1 * rng.normal(size=(g, g))
        phases = rng.uniform(-np.pi, np.pi, g)
        cases.append(([], {"cmd": "theta", "Pi": _fl(Pi), "B": _fl(B),
                           "rho": [{"re": float(np.cos(a)), "im": float(np.sin(a))}
                                   for a in phases],
                           "v": _vec(rng.uniform(-1, 1, g))}))
        cases.append(([], {"cmd": "theta", "Pi": _fl(Pi), "B": _fl(B),
                           "v": _vec(rng.uniform(-1, 1, g))}))
    Y = _spd(rng, 2)
    req = {"cmd": "theta", "Y": _fl(Y), "v": _vec(rng.uniform(-1, 1, 2))}
    cases += [
        ([], {**req, "eps": 1e-6}),
        (["--eps", "1e-8"], req),
        (["--eps", "1e-4"], {**req, "eps": 1e-10}),
        ([], {**req, "eps": "x"}),
        ([], {"cmd": "theta", "Y": [[1]], "v": [1000.3]}),
        ([], {"cmd": "theta", "Y": [[1, 2], [2, 1]], "v": [0, 0]}),
        ([], {"cmd": "theta", "Y": [[1]]}),
        ([], {"cmd": "theta", "Y": [[1]], "v": [[0.5]]}),
        ([], {"cmd": "theta", "Pi": [[1]], "v": [0.5]}),
    ]
    return cases


def _factor(rng):
    out = []
    for g in (1, 2):
        Y = _spd(rng, g)
        phases = rng.uniform(-np.pi, np.pi, g)
        out.append({"cmd": "factor", "kind": "I_B_rho", "Pi": _fl(_spd(rng, g, 0.5, 1.0)),
                    "B": _fl(_spd(rng, g, 0.5, 1.0)),
                    "rho": [{"re": float(np.cos(a)), "im": float(np.sin(a))} for a in phases],
                    "lam": [int(x) for x in rng.integers(-1, 2, g)],
                    "arg": _vec(rng.uniform(-0.5, 0.5, g))})
        out.append({"cmd": "factor", "kind": "I_B_rho", "Pi": _fl(_spd(rng, g, 0.5, 1.0)),
                    "B": _fl(_spd(rng, g, 0.5, 1.0)),
                    "lam": [int(x) for x in rng.integers(-1, 2, g)],
                    "arg": _vec(rng.uniform(-0.5, 0.5, g))})
        z = rng.uniform(-0.5, 0.5, g) + 1j * rng.uniform(-0.5, 0.5, g)
        out.append({"cmd": "factor", "kind": "J_H_alpha", "Y": _fl(Y),
                    "lam": [int(x) for x in rng.integers(-1, 2, 2 * g)],
                    "arg": [{"re": float(c.real), "im": float(c.imag)} for c in z]})
        for kind in ("I_alpha", "I_B_alpha"):
            out.append({"cmd": "factor", "kind": kind, "Y": _fl(Y),
                        "lam": [int(x) for x in rng.integers(-1, 2, g)],
                        "arg": _vec(rng.uniform(-0.5, 0.5, g))})
    out += [
        {"cmd": "factor", "kind": "K", "Y": [[1]], "lam": [1], "arg": [0.5]},
        {"cmd": "factor", "kind": "I_alpha", "Y": [[1]], "lam": [1]},
        {"cmd": "factor", "kind": "I_alpha", "Y": [[1]], "lam": [0.5], "arg": [0.5]},
        {"cmd": "factor", "Y": [[1]], "lam": [1], "arg": [0.5]},
    ]
    return [([], r) for r in out]


def _distance(rng):
    out = []
    for k in range(4):
        g = 1 + k % 2
        V0 = rng.normal(size=(1, g))
        V1 = V0 if k < 2 else rng.normal(size=(1, g))
        req = {"cmd": "distance", "Y0": _fl(_spd(rng, g)), "V0": _fl(V0),
               "Y1": _fl(_spd(rng, g)), "V1": _fl(V1)}
        if k % 2:
            req.update(A=float(rng.uniform(0.5, 2.0)), B=float(rng.uniform(0.5, 2.0)))
        out.append(req)
    out += [
        {**out[0], "A": "x"},
        {**out[0], "A": -1.0},
        {**out[0], "V1": [[1.0, 2.0]]},
        {"cmd": "distance", "Y0": [[1]], "V0": [[0]]},
    ]
    return [([], r) for r in out]


def _geodesic(rng):
    out = []
    for g, h in ((1, 1), (2, 1), (2, 2)):
        k, _ = np.linalg.qr(rng.normal(size=(g, g)))
        out.append({"cmd": "geodesic", "k": _fl(k), "lambdas": _vec(rng.uniform(-1, 1, g)),
                    "Z": _fl(rng.normal(size=(h, g))), "t": float(rng.uniform(-1, 1))})
    out += [
        {**out[0], "t": "1/2"},
        {**out[0], "t": "x"},
        {**out[1], "k": [[1, 1], [0, 1]]},
        {**out[1], "lambdas": [0, 0]},
        {k: v for k, v in out[0].items() if k != "Z"},
    ]
    return [([], r) for r in out]


def _iwasawa(rng):
    out = []
    for g in (2, 3, 4):
        for r in range(1, g):
            variant = ("lower", "upper")[(g + r) % 2]
            out.append({"cmd": "iwasawa", "Y": _fl(_spd(rng, g)), "r": r, "variant": variant})
    out.append({"cmd": "iwasawa", "Y": _fl(_spd(rng, 2)), "r": 1})
    out += [
        {"cmd": "iwasawa", "Y": _fl(_spd(rng, 3)), "r": 0},
        {"cmd": "iwasawa", "Y": _fl(_spd(rng, 3)), "r": 3},
        {"cmd": "iwasawa", "Y": _fl(_spd(rng, 3)), "r": 1.5},
        {"cmd": "iwasawa", "Y": _fl(_spd(rng, 3)), "r": 1, "variant": "middle"},
        {"cmd": "iwasawa", "Y": [[1, 2], [2, 1]], "r": 1},
    ]
    return [([], r) for r in out]


def _rat(rng, lo=-5, hi=5):
    return Fraction(int(rng.integers(lo, hi + 1)), int(rng.choice([1, 2, 3, 4, 6])))


def _ext(rng):
    cases = []
    for g1, g2 in ((1, 1), (1, 2), (2, 1)):
        Pi1 = [[_rat(rng, 1, 5) for _ in range(g1)] for _ in range(g1)]
        Pi2 = [[_rat(rng, 1, 5) for _ in range(g2)] for _ in range(g2)]
        s1 = [[_rat(rng) for _ in range(2 * g2)] for _ in range(g1)]
        s2 = [[_rat(rng) for _ in range(2 * g2)] for _ in range(g1)]
        base = {"Pi1": _rl(Pi1), "Pi2": _rl(Pi2)}
        cases.append({"cmd": "ext-normal", **base, "sigma": _rl(s1)})
        cases.append({"cmd": "ext-add", **base, "sigma1": _rl(s1), "sigma2": _rl(s2)})
        cases.append({"cmd": "ext-equiv", **base, "sigma1": _rl(s1), "sigma2": _rl(s2)})
        # a lattice vector of the period lattice apart: (I,Pi1) E (Pi2; I)
        E = rng.integers(-2, 3, (2 * g1, 2 * g2))
        left = [[Fraction(int(i == j)) for j in range(g1)] + Pi1[i] for i in range(g1)]
        right = Pi2 + [[Fraction(int(i == j)) for j in range(g2)] for i in range(g2)]
        shift = [[sum(left[i][p] * int(E[p, q]) * right[q][j]
                      for p in range(2 * g1) for q in range(2 * g2))
                  for j in range(g2)] for i in range(g1)]
        s3 = [row[:g2] + [a - b for a, b in zip(row[g2:], srow)]
              for row, srow in zip(s1, shift)]
        cases.append({"cmd": "ext-equiv", **base, "sigma1": _rl(s1), "sigma2": _rl(s3)})
    ints = {"Pi1": [[2]], "Pi2": [[3]]}
    floats = {"Pi1": [[0.5]], "Pi2": [[0.3333]]}
    cases += [
        {"cmd": "ext-normal", **ints, "sigma": [[1, 4]]},
        {"cmd": "ext-normal", **floats, "sigma": [[0.1, 0.2]]},
        {"cmd": "ext-normal", "Pi1": [[{"re": 0.5, "im": 1.0}]], "Pi2": [[1]],
         "sigma": [[0.1, 0.2]]},
        {"cmd": "ext-normal", "Pi1": [["1/2"]], "Pi2": [[0.5]], "sigma": [["1/3", "1/4"]]},
        {"cmd": "ext-normal", **ints, "sigma": [[1.0, 4.0]]},
        {"cmd": "ext-normal", **ints, "sigma": [[1, 2, 3]]},
        {"cmd": "ext-normal", **ints, "sigma": [["1/0", "1"]]},
        {"cmd": "ext-normal", "Pi1": [[2]], "sigma": [[1, 4]]},
        {"cmd": "ext-normal", **ints, "sigma": [1, 4]},
        {"cmd": "ext-add", **ints, "sigma1": [[1, 4]], "sigma2": [["1/2", "-3"]]},
        {"cmd": "ext-add", **floats, "sigma1": [[0.1, 0.2]], "sigma2": [[1.5, -0.25]]},
        {"cmd": "ext-add", **ints, "sigma1": [[1, 4]]},
        {"cmd": "ext-equiv", **ints, "sigma1": [[1, 4]], "sigma2": [[1, 1]]},
        {"cmd": "ext-equiv", **ints, "sigma1": [[1, 4]], "sigma2": [[1, 0]]},
        {"cmd": "ext-equiv", **floats, "sigma1": [[0.1, 0.2]], "sigma2": [[0.1, 1.2]]},
        {"cmd": "ext-equiv", **ints, "sigma1": [[1, 4]], "sigma2": [[1.5, 4]]},
        {"cmd": "ext-equiv", **ints, "sigma1": [[1, 4]], "sigma2": [[1, 4, 5]]},
    ]
    return [([], r) for r in cases]


def _degenerate(rng):
    out = [
        _family(rng, 2, 0),
        _family(rng, 2, 1),
        _family(rng, 3, 1),
        _family(rng, 3, 2),
        _family(rng, 2, 1, complex_family=True),
        _family(rng, 3, 0, complex_family=True),
        _family(rng, 2, 0, noise=True),
        _family(rng, 3, 1, complex_family=True, noise=True),
    ]
    fam = _family(rng, 2, 1)
    out += [
        {**fam, "params": fam["params"][:2], "matrices": fam["matrices"][:2]},
        {**fam, "params": fam["params"][::-1]},
        {**fam, "matrices": fam["matrices"][:3]},
        {**fam, "matrices": [[[1, 2], [2, 1]]] * 4},
        {"cmd": "degenerate", "params": [1, 0.5, 0.25]},
    ]
    return [([], r) for r in out]


def _split_involution(rng):
    out = [{"cmd": "split-involution", "S": _il(_involution(rng, s, p, t))}
           for s, p, t in ((1, 0, 0), (0, 0, 1), (0, 1, 0), (1, 1, 0), (1, 0, 2), (0, 2, 0),
                           (1, 1, 1))]
    out += [
        {"cmd": "split-involution", "S": [[1, 1], [0, 1]]},
        {"cmd": "split-involution", "S": [[1, 0]]},
        {"cmd": "split-involution", "S": [[0.5]]},
        {"cmd": "split-involution"},
    ]
    return [([], r) for r in out]


def _cocycle(rng):
    out = []
    for g in (1, 2):
        out.append({"cmd": "cocycle", "gamma": _il(_symplectic(rng, g, 3))})
        out.append({"cmd": "cocycle", "gamma": _il(_coboundary(rng, g, 3))})
    out += [
        {"cmd": "cocycle", "gamma": [[1]]},
        {"cmd": "cocycle", "gamma": [[0.5, 0], [0, 1]]},
        {"cmd": "cocycle", "gamma": [[1, 0]]},
    ]
    return [([], r) for r in out]


def _coboundary_cases(rng):
    cases = [([], {"cmd": "coboundary", "gamma": _il(_coboundary(rng, g, n))})
             for g, n in ((1, 2), (2, 1), (2, 3), (3, 2))]
    cases += [([], {"cmd": "coboundary", "gamma": _il(_J(g))}) for g in (1, 2)]
    gamma = _il(_coboundary(rng, 2, 2))
    cases += [
        ([], {"cmd": "coboundary", "gamma": _il(_symplectic(rng, 2, 3))}),
        ([], {"cmd": "coboundary", "gamma": gamma, "bound": 4}),
        (["--bound", "4"], {"cmd": "coboundary", "gamma": gamma}),
        ([], {"cmd": "coboundary", "gamma": gamma, "bound": None}),
        ([], {"cmd": "coboundary", "gamma": _il(np.eye(10, dtype=int))}),
        ([], {"cmd": "coboundary", "gamma": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}),
        ([], {"cmd": "coboundary", "gamma": [[1, 0]]}),
    ]
    return cases


def _fixed_locus(rng):
    cases = []
    for k in range(4):
        g = 1 + k % 2
        B = _sym01(rng, g) + np.eye(g, dtype=np.int64)
        gamma = np.eye(2 * g, dtype=np.int64)
        gamma[:g, g:] = B
        X = -0.5 * B if k < 2 else _sym(rng.uniform(-1, 1, (g, g)))
        cases.append(([], {"cmd": "fixed-locus", "gamma": _il(gamma),
                           "Omega": {"X": _fl(X), "Y": _fl(_spd(rng, g))}}))
    near = {"cmd": "fixed-locus", "gamma": [[1, 1], [0, 1]],
            "Omega": {"X": [[-0.5 + 1e-6]], "Y": [[1.0]]}}
    cases += [
        ([], near),
        (["--tol", "1e-3"], near),
        ([], {**near, "tol": 1e-3}),
        ([], {**near, "tol": [1]}),
        ([], {"cmd": "fixed-locus", "gamma": [[1, 1], [0, 1]]}),
        ([], {"cmd": "fixed-locus", "gamma": [[1, 1]], "Omega": near["Omega"]}),
    ]
    return cases


def _not_commands():
    texts = ['{"cmd":"reduce",', "5", "[1,", "null", '"reduce"']
    cases = [([], t) for t in texts]
    cases += [
        ([], {"cmd": "nope"}),
        ([], {"Y": [[1]]}),
        ([], {"cmd": 3}),
        (["nope"], {"cmd": "reduce", "Y": [[1]]}),
        (["reduce"], {"cmd": "nope", "Y": [[1]]}),
        ([], [{"cmd": "invariants", "g": 2}, {"cmd": "reduce", "Y": [[1, 2], [2, 1]]},
              {"cmd": "equiv", "Omega1": {"X": [[0]], "Y": [[1]]},
               "Omega2": {"X": [[0]], "Y": [[1]]}, "bound": 1}, 7]),
    ]
    return cases


def _boundary():
    """Forms at the edge of the cone and of the disk: a singular form that a
    plain Cholesky factorization passes, which every command taking an SPD
    form refuses, and two points near the boundary that are answered."""
    Y = [[2, 1, 1], [1, 1, 0], [1, 0, 1]]
    om = {"X": np.zeros((3, 3)).tolist(), "Y": Y}
    I3, V = np.eye(3).tolist(), [[0.5, 0.5, 0.5]]
    out = [
        {"cmd": "reduce", "Y": Y},
        {"cmd": "equiv", "Y1": Y, "Y2": Y},
        {"cmd": "equiv", "Omega1": om, "Omega2": om},
        {"cmd": "distance", "Y0": I3, "V0": V, "Y1": Y, "V1": V},
        {"cmd": "iwasawa", "Y": Y, "r": 1},
        {"cmd": "act", "kind": "gl", "A": I3, "Y": Y},
        {"cmd": "cayley", "direction": "to_disk", "Omega": om},
        {"cmd": "theta", "Y": Y, "v": [0.1, 0.2, 0.3]},
        {"cmd": "factor", "kind": "I_alpha", "Y": Y, "lam": [1, 0, 0], "arg": [0.1, 0.2, 0.3]},
        {"cmd": "cayley", "direction": "to_halfspace", "W": _fl(0.9999 * np.eye(4))},
        {"cmd": "act", "kind": "sp", "M": _il(_J(4)),
         "Omega": {"X": np.zeros((4, 4)).tolist(), "Y": _fl(1e-4 * np.eye(4))}},
    ]
    return [([], r) for r in out]


def _entry_points():
    """``equiv`` requests whose answer depends on the order in which the two
    forms are checked: g = 5, sizes that differ, and a bad form next to
    another bad one.  Then a form that is not symmetric at a small scale,
    and its symmetric counterpart."""
    A5 = [[2, 1, 0, 0, 0], [1, 2, 1, 0, 0], [0, 1, 2, 1, 0], [0, 0, 1, 2, 1], [0, 0, 0, 1, 2]]
    A5_skew = [row[:] for row in A5]
    A5_skew[0][1] = 0
    Y2, Y3 = [[2, 1], [1, 2]], [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
    indefinite, skew = [[1, 2], [2, 1]], [[2, 1], [0, 2]]

    def point(Y, X=None):
        return {"X": X if X is not None else np.zeros((len(Y), len(Y))).tolist(), "Y": Y}

    out = [
        {"cmd": "equiv", "Y1": A5, "Y2": A5},
        {"cmd": "equiv", "Y1": A5_skew, "Y2": A5},
        {"cmd": "equiv", "Y1": Y2, "Y2": A5},
        {"cmd": "equiv", "Y1": A5, "Y2": Y2},
        {"cmd": "equiv", "Y1": indefinite, "Y2": skew},
        {"cmd": "equiv", "Y1": skew, "Y2": indefinite},
        {"cmd": "equiv", "Omega1": point(A5), "Omega2": point(A5)},
        {"cmd": "equiv", "Omega1": point(Y2), "Omega2": point(Y3)},
        {"cmd": "equiv", "Omega1": point(Y2), "Omega2": point(A5)},
        {"cmd": "equiv", "Omega1": point(indefinite), "Omega2": point(Y2, [[0, 0.5], [0, 0]])},
        {"cmd": "equiv", "Omega1": point(Y2, [[0, 0.5], [0, 0]]), "Omega2": point(indefinite)},
        {"cmd": "equiv", "Omega1": point(Y2, [[0.3, 0], [0, 0]]), "Omega2": point(indefinite)},
        {"cmd": "equiv", "Omega1": point(Y2, [[0.5, 0], [0, 0]]), "Omega2": point(indefinite)},
        {"cmd": "reduce", "Y": [[2e-10, 1e-10], [0, 2e-10]]},
        {"cmd": "reduce", "Y": [[2e-10, 1e-10], [1e-10, 2e-10]]},
    ]
    return [([], r) for r in out]


def _scales():
    """One ``equiv`` pair at the scales 1.5e-12, 1.5, 1.5e150 and 1.5e160,
    which answer alike, and ROADMAP item 14's pair at 1e-12, which is
    inequivalent as at scale 1.  Then a form reduced at 1 and at 2^-60, and
    a point whose real part is not half-integral, at a loose ``tol``."""
    # a g = 4 form whose descent the absolute tie width once cut short at 2^-60
    Y4 = np.array([
        [3.5480517952707684, 2.5444167201888903, 4.600289817813028, -2.783195671971391],
        [2.5444167201888903, 3.203221510361961, 5.135617829642161, -2.995172027012061],
        [4.600289817813028, 5.135617829642161, 8.674004339898483, -5.117643582596822],
        [-2.783195671971391, -2.995172027012061, -5.117643582596822, 3.6515489248535493]])
    out = [{"cmd": "equiv", "Y1": _fl(c * np.eye(2)), "Y2": _fl(c * np.diag([1.0, 2.0]))}
           for c in (1.5e-12, 1.5, 1.5e150, 1.5e160, 1e-12)]
    out += [{"cmd": "reduce", "Y": _fl(c * Y4)} for c in (1.0, 2.0 ** -60)]
    out.append({"cmd": "equiv", "Omega1": {"X": [[0.3]], "Y": [[1]]},
                "Omega2": {"X": [[0.5]], "Y": [[1]]}, "tol": 0.45})
    return [([], r) for r in out]


def _tolerance_first():
    """A negative ``eps`` with an argument whose factor overflows: the
    tolerance is refused first."""
    return [([], {"cmd": "theta", "Y": [[1]], "v": [1000.3], "eps": -1})]


def cases() -> list[dict]:
    rng = np.random.default_rng(20261018)
    groups = [_reduce, _equiv, _classify_mod2, _invariants, _sigma, _real_structure, _cayley,
              _act, _jacobi_act, _theta, _factor, _distance, _geodesic, _iwasawa, _ext,
              _degenerate, _split_involution, _cocycle, _coboundary_cases, _fixed_locus]
    out = []
    for make in groups:
        out += make(rng)
    out += _not_commands()
    out += _boundary()
    out += _entry_points()
    out += _scales()
    out += _tolerance_first()
    return [{"args": args, "input": req if isinstance(req, str) else json.dumps(req)}
            for args, req in out]


def answers(cases_: list[dict]) -> list[dict]:
    from realtori import cli

    out = []
    with tempfile.TemporaryDirectory() as tmp:
        src, dst = Path(tmp) / "in.json", Path(tmp) / "out.json"
        for case in cases_:
            src.write_text(case["input"], encoding="utf-8")
            dst.unlink(missing_ok=True)
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([*case["args"], "--input", str(src), "--output", str(dst)])
            text = dst.read_text(encoding="utf-8") if dst.exists() else ""
            out.append({"code": code, "output": text})
    return out


def dump(items: list) -> str:
    """One item per line, so a change shows as a short diff."""
    return "[\n" + ",\n".join(json.dumps(x) for x in items) + "\n]\n"


if __name__ == "__main__":
    if sys.argv[1:2] == ["answer"]:
        sys.stdout.write(dump(answers(json.loads(Path(sys.argv[2]).read_text(encoding="utf-8")))))
    else:
        sys.stdout.write(dump(cases()))
