"""Seeded request generators for the benchmark workloads.

Each workload is a fixed schedule of request slots (command, dimension,
conditioning class, argument placement); the seed only draws the numbers
inside each slot.  That keeps the cost of a batch nearly the same from seed
to seed, so run-to-run spread measures the program and not the draw.

Inputs are built here with numpy and plain integers only, never with the
package under test, so a change to the package cannot change its inputs.
Every item carries the facts its check needs (``ctx``); the program sees
only ``Item.text()``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

import numpy as np

WORKLOADS = ("theta", "equiv", "mixed")

# cell offsets of sheared theta arguments are scaled to this quadratic value,
# which pins the summation radius (and so the cost) of the slowest requests
_SHEARED_OFFSET = 0.25
_OFFSET_DIRECTION = np.array([0.6, -0.3, 0.2, 0.1])
# bound on pi * Q[m] for arguments a few cells out; keeps the true theta
# value and the transformation-law factor far inside double range
_FACTOR_EXPONENT_CAP = 200.0


@dataclass
class Item:
    cmd: str
    payload: dict
    check: str
    ctx: dict = field(default_factory=dict)
    verdict: bool = False  # the command can answer UNDECIDED (exit 3)

    def text(self) -> str:
        return json.dumps({"cmd": self.cmd, **self.payload})


def generate(workload: str, seed: int) -> list[Item]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    items = {"theta": _theta_batch, "equiv": _equiv_batch, "mixed": _mixed_batch}[workload](rng)
    order = rng.permutation(len(items))
    return [items[i] for i in order]


# ---------------------------------------------------------------------------
# small builders


def _fl(M) -> list:
    return [[float(x) for x in row] for row in np.asarray(M, dtype=float)]


def _il(M) -> list:
    return [[int(x) for x in row] for row in np.asarray(M)]


def _vec(v) -> list:
    return [float(x) for x in np.asarray(v, dtype=float).ravel()]


def _sym(M):
    return 0.5 * (M + M.T)


def _spd(rng, g, lo=1.0, hi=2.0):
    O, _ = np.linalg.qr(rng.normal(size=(g, g)))
    return _sym(O @ np.diag(rng.uniform(lo, hi, g)) @ O.T)


def _sqrtm(S):
    w, V = np.linalg.eigh(S)
    return V @ np.diag(np.sqrt(w)) @ V.T


def _signed_perm(rng, g):
    P = np.zeros((g, g), dtype=np.int64)
    P[np.arange(g), rng.permutation(g)] = rng.choice([-1, 1], g)
    return P


def _bidiagonal_shear(g, k):
    U = np.eye(g, dtype=np.int64)
    for i in range(g - 1):
        U[i, i + 1] = k
    return U


def _unimodular(rng, g, max_entry=2, steps=8):
    """Word of elementary row operations and signed permutations, entries bounded."""
    A = np.eye(g, dtype=np.int64)
    done = 0
    while done < steps:
        B = A.copy()
        kind = rng.integers(0, 3)
        if kind == 0 and g >= 2:
            i, j = rng.choice(g, size=2, replace=False)
            B[i] += int(rng.choice([-1, 1])) * B[j]
        elif kind == 1:
            B[int(rng.integers(0, g))] *= -1
        else:
            B = B[rng.permutation(g)]
        if np.max(np.abs(B)) <= max_entry:
            A = B
            done += 1
    return A


# conditioning classes: (low, high) bounds on cond(Y) in the 2-norm
COND_CLASSES = {
    "well": (1.0, 30.0),
    "1e2": (1e2, 1e3),
    "1e4": (1e4, 1e5),
    "1e6": (3e5, 3e6),
}


def _int_spd(rng, g, diag, cond_class):
    """Integer SPD U diag(d) tU, U unimodular, cond(Y) inside the class window."""
    lo, hi = COND_CLASSES[cond_class]
    D = np.diag(np.asarray(diag, dtype=np.int64))
    for _ in range(100_000):
        U = _signed_perm(rng, g)
        for _ in range(64):
            Y = U @ D @ U.T
            c = np.linalg.cond(Y.astype(float))
            if c > hi:
                break
            if c >= lo:
                return Y
            i, j = rng.choice(g, size=2, replace=False)
            U = U.copy()
            U[i] += int(rng.choice([-2, -1, 1, 2])) * U[j]
    raise RuntimeError(f"no integer form in conditioning class {cond_class} at g={g}")


def _snf_pair(g, rng):
    """Two diagonals with the same product and different Smith invariants."""
    p = int(rng.choice([2, 3]))
    a = [1] * g
    b = [1] * g
    a[-1] = p * p
    b[-1] = p
    b[-2] = p
    return a, b


# ---------------------------------------------------------------------------
# theta


def _theta_item(rng, g, explicit, cells_out, shear=None):
    """Theta request; ``shear`` (integer, unimodular) skews the lattice basis."""
    sheared = shear is not None
    if sheared:
        # a scaled cubic lattice in a skewed basis: the cost of the sum then
        # depends on the slot only, so the slow tail is the same for every seed
        P = _signed_perm(rng, g)
        U = P @ shear @ P.T
        Q0 = 1.1 * np.eye(g)
    else:
        U = np.eye(g, dtype=np.int64)
        Q0 = _spd(rng, g, 1.0, 2.0)
    Uf = U.astype(float)
    if explicit:
        B = _spd(rng, g, 0.5, 2.0)
        Pi = np.linalg.solve(_sqrtm(B), _sqrtm(Q0)) @ Uf.T
        phases = rng.uniform(-np.pi, np.pi, g)
        Q = _sym(Pi.T @ B @ Pi)
    else:
        Q = _sym(Uf @ Q0 @ Uf.T)
        Pi = Q
    # fractional cell coordinates f, |f_i| < 1/2; a sheared slot takes one fixed
    # direction in its lattice's own coordinates, so all its sums are alike
    if sheared:
        u = P @ _OFFSET_DIRECTION[:g]
        f = u * np.sqrt(_SHEARED_OFFSET / float(u @ Q @ u))
        if np.max(np.abs(f)) >= 0.5:
            raise ValueError("sheared offset leaves the fundamental cell")
    else:
        f = rng.uniform(-0.45, 0.45, g)
    m = np.zeros(g)
    if cells_out:
        for _ in range(1000):
            m = rng.integers(-2, 3, g).astype(float)
            expo = np.pi * float(m @ Q @ m) + 2 * np.pi * abs(float(f @ Q @ m))
            if np.any(m) and expo <= _FACTOR_EXPONENT_CAP:
                break
        else:
            m = np.zeros(g)
    v = Pi @ (m + f)
    if explicit:
        payload = {"Pi": _fl(Pi), "B": _fl(B),
                   "rho": [{"re": float(np.cos(a)), "im": float(np.sin(a))} for a in phases],
                   "v": _vec(v)}
    else:
        payload = {"Y": _fl(Q), "v": _vec(v)}
    return Item("theta", payload, "theta")


def _theta_batch(rng) -> list[Item]:
    items = []
    # well conditioned half: g = 1..4, canonical and explicit specs alternating;
    # 37 requests below the g = 2 sheared block and 23 above it put p50 at the
    # middle of that block
    for g, count in ((1, 12), (2, 12), (3, 13), (4, 23)):
        for k in range(count):
            items.append(_theta_item(rng, g, explicit=bool(k % 2), cells_out=bool((k // 2) % 2)))
    # sheared half: 45 at g = 2, cond ~3e2 (~20 ms today, they hold p50); 14 at
    # g = 3, cond ~1.2e2 (~0.2 s, they hold p90) and one at cond ~2e2 (~1 s)
    single = np.eye(3, dtype=np.int64)
    single[0, 1] = 3
    shears = [_bidiagonal_shear(2, 4)] * 45 + [single] * 14 + [_bidiagonal_shear(3, 2)]
    for k, U in enumerate(shears):
        items.append(_theta_item(rng, U.shape[0], explicit=bool(k % 2),
                                 cells_out=bool((k // 2) % 2), shear=U))
    return items


# ---------------------------------------------------------------------------
# equivalence and reduction


def _maybe_scaled(rng, scaled, *forms):
    """Integer forms as exact integers, or all times one random real factor."""
    if not scaled:
        return [_il(Z) for Z in forms]
    s = float(rng.uniform(0.5, 2.0))
    return [_fl(Z * s) for Z in forms]


def _reduce_item(rng, g, cond_class, scaled):
    Z = _int_spd(rng, g, rng.integers(1, 4, g), cond_class)
    (Y,) = _maybe_scaled(rng, scaled, Z)
    return Item("reduce", {"Y": Y}, "reduce")


def _equiv_item(rng, g, cond_class, equivalent, scaled):
    if equivalent:
        Z1 = _int_spd(rng, g, rng.integers(1, 4, g), cond_class)
        U = _unimodular(rng, g, max_entry=2, steps=6)
        Z2 = U @ Z1 @ U.T
    else:
        a, b = _snf_pair(g, rng)
        Z1 = _int_spd(rng, g, a, cond_class)
        Z2 = _int_spd(rng, g, b, cond_class)
    Y1, Y2 = _maybe_scaled(rng, scaled, Z1, Z2)
    return Item("equiv", {"Y1": Y1, "Y2": Y2}, "equiv_Y",
                {"expected": "EQUIVALENT" if equivalent else "INEQUIVALENT"}, verdict=True)


def _sym01(rng, g):
    N = rng.integers(0, 2, (g, g))
    return np.triu(N) + np.triu(N, 1).T


def _omega(M, Y):
    return {"X": _fl(0.5 * np.asarray(M, dtype=float)), "Y": _fl(Y)}


def _ppav_item(rng, g, cond_class, equivalent):
    M1 = _sym01(rng, g)
    K = _sym01(rng, g)
    if equivalent:
        Z1 = _int_spd(rng, g, rng.integers(1, 4, g), cond_class)
        A = _unimodular(rng, g, max_entry=2, steps=6)
        Z2 = A @ Z1 @ A.T
        M2 = A @ M1 @ A.T + 2 * K
    else:
        a, b = _snf_pair(g, rng)
        Z1 = _int_spd(rng, g, a, cond_class)
        Z2 = _int_spd(rng, g, b, cond_class)
        P = _unimodular(rng, g, max_entry=2, steps=6)
        M2 = P @ M1 @ P.T + 2 * K
    s = float(rng.uniform(0.5, 2.0))
    return Item("equiv", {"Omega1": _omega(M1, Z1 * s), "Omega2": _omega(M2, Z2 * s)},
                "equiv_ppav",
                {"expected": "EQUIVALENT" if equivalent else "INEQUIVALENT"}, verdict=True)


def _equiv_batch(rng) -> list[Item]:
    items = []
    classes = list(COND_CLASSES)
    for k in range(96):
        g = 2 + k % 3
        items.append(_reduce_item(rng, g, classes[(k // 3) % 4], scaled=bool((k // 12) % 2)))
    for k in range(120):
        g = 2 + k % 3
        items.append(_equiv_item(rng, g, classes[(k // 3) % 4], equivalent=bool((k // 12) % 2),
                                 scaled=bool((k // 24) % 2)))
    for k in range(72):
        g = 2 + k % 2
        items.append(_ppav_item(rng, g, classes[(k // 2) % 3], equivalent=bool((k // 6) % 2)))
    return items


# ---------------------------------------------------------------------------
# mixed: every command, small sizes


def _J(g):
    J = np.zeros((2 * g, 2 * g), dtype=np.int64)
    J[:g, g:] = np.eye(g, dtype=np.int64)
    J[g:, :g] = -np.eye(g, dtype=np.int64)
    return J


def _translation(B):
    g = B.shape[0]
    T = np.eye(2 * g, dtype=np.int64)
    T[:g, g:] = B
    return T


def _dilation(A):
    """diag(A, tA^-1) for unimodular A."""
    g = A.shape[0]
    D = np.zeros((2 * g, 2 * g), dtype=np.int64)
    D[:g, :g] = A
    D[g:, g:] = np.round(np.linalg.inv(A)).astype(np.int64).T
    return D


def _int_symplectic(rng, g, length=4):
    M = np.eye(2 * g, dtype=np.int64)
    for _ in range(length):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            gen = _translation(_sym01(rng, g) * rng.choice([-1, 1]))
        elif kind == 1:
            gen = _dilation(_unimodular(rng, g, max_entry=2, steps=4))
        else:
            gen = _J(g)
        M = M @ gen
    return M


def symplectic_generators(g):
    """J, translations by +-(E_ij + E_ji), dilations by I +- E_ij, and -I."""
    gens = [_J(g)]
    for i in range(g):
        for j in range(i, g):
            for s in (1, -1):
                B = np.zeros((g, g), dtype=np.int64)
                B[i, j] = B[j, i] = s
                gens.append(_translation(B))
    for i in range(g):
        for j in range(g):
            if i != j:
                for s in (1, -1):
                    A = np.eye(g, dtype=np.int64)
                    A[i, j] = s
                    gens.append(_dilation(A))
    gens.append(_dilation(-np.eye(g, dtype=np.int64)))
    return gens


def tau(M):
    g = M.shape[0] // 2
    out = M.copy()
    out[:g, g:] *= -1
    out[g:, :g] *= -1
    return out


def symplectic_inverse(M):
    g = M.shape[0] // 2
    A, B, C, D = M[:g, :g], M[:g, g:], M[g:, :g], M[g:, g:]
    return np.block([[D.T, -B.T], [-C.T, A.T]])


def _coboundary(rng, g, length):
    gens = symplectic_generators(g)
    h = np.eye(2 * g, dtype=np.int64)
    for _ in range(length):
        h = h @ gens[int(rng.integers(0, len(gens)))]
    return tau(h) @ symplectic_inverse(h)


def _rat(rng, lo=-5, hi=5, dens=(1, 2, 3, 4, 6)):
    return Fraction(int(rng.integers(lo, hi + 1)), int(rng.choice(dens)))


def _rl(M) -> list:
    return [[f"{x.numerator}/{x.denominator}" for x in row] for row in M]


def _siegel_point(rng, g):
    X = _sym(rng.uniform(-1, 1, (g, g)))
    return X + 1j * _spd(rng, g, 0.5, 2.0)


def _cplx(M) -> list:
    return [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in np.asarray(M)]


def _mixed_batch(rng) -> list[Item]:
    items: list[Item] = []
    per = 12
    for k in range(per):
        g = 1 + k % 2
        items.append(Item("reduce", {"Y": _fl(_spd(rng, g))}, "reduce", {}))
    for k in range(per):
        items.append(_equiv_item(rng, 2, "well", equivalent=bool(k % 2), scaled=True))
    for k in range(per):
        items.append(Item("classify-mod2", {"N": _il(_sym01(rng, 2 + k % 2))}, "classify-mod2"))
    for k in range(per):
        items.append(Item("invariants", {"g": 1 + k % 4}, "invariants"))
    standard = [np.array([[1]]), np.array([[0]]), np.eye(2, dtype=int),
                np.array([[0, 1], [1, 0]]), np.array([[1, 0], [0, 0]]), np.zeros((2, 2), int)]
    for k in range(per):
        M = standard[k % len(standard)]
        items.append(Item("sigma", {"M": _il(M), "Y": _fl(_spd(rng, M.shape[0]))}, "sigma"))
    for k in range(per):
        g = 1 + k % 2
        items.append(Item("real-structure", {"Omega": _omega(_sym01(rng, g), _spd(rng, g))},
                          "real-structure"))
    for k in range(per):
        g = 1 + k % 2
        om = _siegel_point(rng, g)
        if k % 2:
            I = np.eye(g)
            W = np.linalg.solve((om + 1j * I).T, (om - 1j * I).T).T
            items.append(Item("cayley", {"direction": "to_halfspace", "W": _cplx(_sym(W))},
                              "cayley"))
        else:
            items.append(Item("cayley", {"direction": "to_disk",
                                         "Omega": {"X": _fl(om.real), "Y": _fl(om.imag)}},
                              "cayley"))
    for k in range(per):
        g = 1 + k % 2
        kind = ("gl", "sp", "disk", "gamma_star", "glgh", "sp")[k % 6]
        om = _siegel_point(rng, g)
        if kind == "gl":
            p = {"A": _fl(rng.normal(size=(g, g)) + 2 * np.eye(g)), "Y": _fl(_spd(rng, g))}
        elif kind == "sp":
            p = {"M": _il(_int_symplectic(rng, g, 2)),
                 "Omega": {"X": _fl(om.real), "Y": _fl(om.imag)}}
        elif kind == "disk":
            I = np.eye(g)
            W = _sym(np.linalg.solve((om + 1j * I).T, (om - 1j * I).T).T)
            p = {"M": _il(_int_symplectic(rng, g, 2)), "W": _cplx(W)}
        elif kind == "gamma_star":
            M = _dilation(_unimodular(rng, g, 2, 4))
            M[:g, g:] = _sym01(rng, g) @ M[g:, g:]  # A tB = S stays symmetric
            p = {"M": _il(M), "Omega": _omega(_sym01(rng, g), _spd(rng, g))}
        else:
            h = 1 + k % 2
            p = {"A": _fl(rng.normal(size=(g, g)) + 2 * np.eye(g)),
                 "a": _fl(rng.normal(size=(h, g))), "Y": _fl(_spd(rng, g)),
                 "V": _fl(rng.normal(size=(h, g)))}
        items.append(Item("act", {"kind": kind, **p}, "act"))
    for k in range(per):
        g, h = 1 + k % 2, 1 + (k // 2) % 2
        lam = rng.normal(size=(h, g))
        mu = rng.normal(size=(h, g))
        kappa = _sym(rng.normal(size=(h, h))) - mu @ lam.T
        om = _siegel_point(rng, g)
        Z = rng.normal(size=(h, g)) + 1j * rng.normal(size=(h, g))
        items.append(Item("jacobi-act", {
            "M": _il(_int_symplectic(rng, g, 2)), "lam": _fl(lam), "mu": _fl(mu),
            "kappa": _fl(kappa), "Omega": {"X": _fl(om.real), "Y": _fl(om.imag)},
            "Z": _cplx(Z)}, "jacobi-act"))
    for k in range(per):
        items.append(_theta_item(rng, 1 + k % 2, explicit=bool(k % 2),
                                 cells_out=bool((k // 2) % 2)))
    for k in range(per):
        g = 1 + k % 2
        kind = ("I_B_rho", "J_H_alpha", "I_alpha", "I_B_alpha")[k % 4]
        Y = _spd(rng, g)
        if kind == "I_B_rho":
            phases = rng.uniform(-np.pi, np.pi, g)
            p = {"Pi": _fl(_spd(rng, g, 0.5, 1.0)), "B": _fl(_spd(rng, g, 0.5, 1.0)),
                 "rho": [{"re": float(np.cos(a)), "im": float(np.sin(a))} for a in phases],
                 "lam": [int(x) for x in rng.integers(-1, 2, g)],
                 "arg": _vec(rng.uniform(-0.5, 0.5, g))}
        elif kind == "J_H_alpha":
            z = rng.uniform(-0.5, 0.5, g) + 1j * rng.uniform(-0.5, 0.5, g)
            p = {"Y": _fl(Y), "lam": [int(x) for x in rng.integers(-1, 2, 2 * g)],
                 "arg": [{"re": float(c.real), "im": float(c.imag)} for c in z]}
        else:
            p = {"Y": _fl(Y), "lam": [int(x) for x in rng.integers(-1, 2, g)],
                 "arg": _vec(rng.uniform(-0.5, 0.5, g))}
        items.append(Item("factor", {"kind": kind, **p}, "factor"))
    for k in range(per):
        # k % 4: fixed V at A = B = 1, fixed V, moving V at A = B = 1, moving V
        g = 1 + k % 2
        V0 = rng.normal(size=(1, g))
        V1 = V0 if k % 4 < 2 else rng.normal(size=(1, g))
        A_c, B_c = (1.0, 1.0) if k % 2 == 0 else rng.uniform(0.5, 2.0, 2)
        items.append(Item("distance", {"Y0": _fl(_spd(rng, g)), "V0": _fl(V0),
                                       "Y1": _fl(_spd(rng, g)), "V1": _fl(V1),
                                       "A": float(A_c), "B": float(B_c)}, "distance"))
    for k in range(per):
        g, h = 1 + k % 2, 1 + (k // 2) % 2
        k_mat, _ = np.linalg.qr(rng.normal(size=(g, g)))
        items.append(Item("geodesic", {
            "k": _fl(k_mat), "lambdas": _vec(rng.uniform(-1, 1, g)),
            "Z": _fl(rng.normal(size=(h, g))), "t": float(rng.uniform(-1, 1))}, "geodesic"))
    for k in range(per):
        g = 2 + k % 2
        items.append(Item("iwasawa", {"Y": _fl(_spd(rng, g)), "r": int(1 + k % (g - 1)),
                                      "variant": ("lower", "upper")[(k // 2) % 2]}, "iwasawa"))
    for k in range(per):
        s = [[_rat(rng), _rat(rng)]]
        items.append(Item("ext-normal", {"Pi1": _rl([[_rat(rng)]]), "Pi2": _rl([[_rat(rng)]]),
                                         "sigma": _rl(s)}, "ext-normal"))
    for k in range(per):
        items.append(Item("ext-add", {"Pi1": _rl([[_rat(rng)]]), "Pi2": _rl([[_rat(rng)]]),
                                      "sigma1": _rl([[_rat(rng), _rat(rng)]]),
                                      "sigma2": _rl([[_rat(rng), _rat(rng)]])}, "ext-add"))
    for k in range(per):
        items.append(_ext_equiv_item(rng, equivalent=bool(k % 2)))
    for k in range(per):
        items.append(_degenerate_item(rng, 2 + k % 2, t=(k // 2) % 2))
    for k in range(per):
        items.append(_split_item(rng, 2 + k % 3))
    for k in range(per):
        g = 1 + k % 2
        gamma = _coboundary(rng, g, 3) if k % 2 else _int_symplectic(rng, g, 3)
        items.append(Item("cocycle", {"gamma": _il(gamma)}, "cocycle"))
    for k in range(per):
        items.append(Item("coboundary", {"gamma": _il(_coboundary(rng, 2, 1 + k % 4))},
                          "coboundary", verdict=True))
    for k in range(per):
        g = 1 + k % 2
        B = _sym01(rng, g) + np.eye(g, dtype=np.int64)
        gamma = np.eye(2 * g, dtype=np.int64)
        gamma[:g, g:] = B
        Y = _spd(rng, g)
        X = -0.5 * B if k % 2 else _sym(rng.uniform(-1, 1, (g, g)))
        items.append(Item("fixed-locus", {"gamma": _il(gamma),
                                          "Omega": {"X": _fl(X), "Y": _fl(Y)}}, "fixed-locus"))
    return items


def _ext_equiv_item(rng, equivalent):
    Pi1, Pi2 = _rat(rng, 1, 5), _rat(rng, 1, 5)
    s1 = [_rat(rng), _rat(rng)]
    gens = [Pi2, Fraction(1), Pi1 * Pi2, Pi1]
    coef = [int(c) for c in rng.integers(-3, 4, 4)]
    shift = sum(c * x for c, x in zip(coef, gens))
    if not equivalent:
        shift += _lattice_step(gens) / 2
    s2 = [s1[0], s1[1] - shift]
    return Item("ext-equiv", {"Pi1": _rl([[Pi1]]), "Pi2": _rl([[Pi2]]),
                              "sigma1": _rl([s1]), "sigma2": _rl([s2])}, "ext-equiv",
                {"expected": "EQUIVALENT" if equivalent else "INEQUIVALENT"}, verdict=True)


def _lattice_step(gens):
    """Positive generator of the rank-one group sum Z x over rationals x."""
    den = 1
    for x in gens:
        den = lcm(den, x.denominator)
    num = 0
    for x in gens:
        num = gcd(num, int(x * den))
    return Fraction(num, den)


def _degenerate_item(rng, g, t):
    W = np.eye(g)
    W[np.triu_indices(g, 1)] = rng.uniform(-0.5, 0.5, g * (g - 1) // 2)
    base = rng.uniform(1.0, 2.0, g)
    params = [1e-1, 1e-2, 1e-3, 1e-4]
    mats = []
    for xi in params:
        d = base + xi
        if t:
            d[g - t:] = base[g - t:] / xi ** 2
        mats.append(_fl(_sym(W.T @ np.diag(d) @ W)))
    return Item("degenerate", {"params": params, "matrices": mats}, "degenerate",
                {"t": t, "W": W.tolist(), "base": base.tolist()}, verdict=True)


def _split_item(rng, n):
    p = int(rng.integers(0, n // 2 + 1))
    s = int(rng.integers(0, n - 2 * p + 1))
    t = n - 2 * p - s
    B = np.zeros((n, n), dtype=np.int64)
    for i in range(s):
        B[i, i] = 1
    for k in range(p):
        i = s + 2 * k
        B[i, i + 1] = B[i + 1, i] = 1
    for i in range(s + 2 * p, n):
        B[i, i] = -1
    P = _unimodular(rng, n, max_entry=2, steps=6)
    Pinv = np.round(np.linalg.inv(P)).astype(np.int64)
    return Item("split-involution", {"S": _il(P @ B @ Pinv)}, "split-involution",
                {"type": [s, p, t]})
