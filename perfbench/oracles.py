"""Independent checks of every answer the benchmark receives.

Each check recomputes the answer, or a certificate for it, with numpy,
mpmath or exact integer/Fraction arithmetic written here, never by calling
the package under test.  ``check(item, out)`` returns None when the answer
holds and a short reason when it does not.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from workloads import Item, symplectic_inverse, tau

# The geodesic distance leaves its bracket at the parent of this benchmark: it
# adds the cone and Euclidean path lengths and scales with A instead of
# sqrt(A) (ROADMAP item 3).  Such failures still count in ``failed`` and in
# ``success_rate``; they only leave ``correct`` untouched.
KNOWN_DEFECTS = {"distance: below sqrt(A) d_SPD", "distance: above explicit path length"}

_REL = 1e-8


def check(item: Item, out: dict) -> str | None:
    try:
        return _CHECKS[item.check](item.payload, item.ctx, out)
    except (KeyError, TypeError, ValueError, IndexError, ArithmeticError, np.linalg.LinAlgError) as exc:
        return f"{item.check}: malformed answer ({type(exc).__name__}: {exc})"


# ---------------------------------------------------------------------------
# decoding helpers


def _c(x) -> complex:
    if isinstance(x, dict):
        return complex(float(x["re"]), float(x["im"]))
    return complex(float(x))


def _m(M) -> np.ndarray:
    return np.array([[float(v) for v in row] for row in M], dtype=float)


def _cm(M) -> np.ndarray:
    return np.array([[_c(v) for v in row] for row in M], dtype=complex)


def _im(M) -> list[list[int]]:
    out = []
    for row in M:
        r = []
        for v in row:
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError(f"entry {v!r} is not an exact integer")
            r.append(v)
        out.append(r)
    return out


def _om(p) -> np.ndarray:
    return _m(p["X"]) + 1j * _m(p["Y"])


def _fr(M) -> list[list[Fraction]]:
    return [[Fraction(v) for v in row] for row in M]


def _close(a, b, rel=_REL) -> bool:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    return float(np.max(np.abs(a - b), initial=0.0)) <= rel * scale


def _det(M) -> int:
    """Exact integer determinant by cofactor expansion (g <= 4 here)."""
    n = len(M)
    if n == 1:
        return M[0][0]
    return sum((-1) ** j * M[0][j] * _det([row[:j] + row[j + 1:] for row in M[1:]])
               for j in range(n) if M[0][j])


def _imul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _t(A):
    return [list(r) for r in zip(*A)]


def _ok(out) -> str | None:
    return None if out.get("status") == "ok" else f"status {out.get('status')!r}"


def _sp_act(M, om):
    g = om.shape[0]
    A, B, C, D = M[:g, :g], M[:g, g:], M[g:, :g], M[g:, g:]
    return np.linalg.solve((C @ om + D).T, (A @ om + B).T).T


# ---------------------------------------------------------------------------
# theta


def theta_reference(payload) -> tuple[complex, float]:
    """Brute-force lattice sum over the box around the ellipsoid; returns (value, sum |terms|)."""
    if "Pi" in payload:
        Pi, B = _m(payload["Pi"]), _m(payload["B"])
        Q = Pi.T @ B @ Pi
        w = Pi.T @ B @ np.array(payload["v"], dtype=float)
        phases = np.angle([_c(r) for r in payload["rho"]]) if "rho" in payload \
            else np.zeros(Pi.shape[0])
    else:
        Q = _m(payload["Y"])
        w = np.array(payload["v"], dtype=float)
        phases = np.zeros(Q.shape[0])
    Q = 0.5 * (Q + Q.T)
    g = Q.shape[0]
    center = -np.linalg.solve(Q, w)
    r2 = 45.0 / np.pi  # exp(-45) ~ 3e-20 relative to the largest term
    half = np.sqrt(r2 * np.diag(np.linalg.inv(Q)))
    axes = [np.arange(int(np.floor(c - h)), int(np.ceil(c + h)) + 1) for c, h in zip(center, half)]
    n = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, g).astype(float)
    d = n - center
    expo = -np.pi * np.einsum("ij,jk,ik->i", d, Q, d) + np.pi * float(center @ Q @ center)
    terms = np.exp(expo - 1j * (n @ phases))
    return complex(np.sum(terms)), float(np.sum(np.abs(terms)))


def _jtheta_g1(payload) -> complex:
    import mpmath

    if "Pi" in payload:
        p, b = _m(payload["Pi"])[0, 0], _m(payload["B"])[0, 0]
        q, w = p * p * b, p * b * payload["v"][0]
        phi = float(np.angle(_c(payload["rho"][0]))) if "rho" in payload else 0.0
    else:
        q, w, phi = _m(payload["Y"])[0, 0], payload["v"][0], 0.0
    # sum_n exp(-pi q n^2 - 2 pi w n - i phi n) = theta_3(z, e^{-pi q}), 2iz = -2 pi w - i phi
    z = mpmath.mpc(-phi / 2, np.pi * w)
    return complex(mpmath.jtheta(3, z, mpmath.exp(-mpmath.pi * q)))


def _check_theta(payload, ctx, out):
    bad = _ok(out)
    if bad:
        return bad
    value = _c(out["value"])
    ref, scale = theta_reference(payload)
    if abs(value - ref) > _REL * max(1.0, scale):
        return f"theta: {value} differs from brute-force sum {ref}"
    if len(payload["v"]) == 1:
        jt = _jtheta_g1(payload)
        if abs(value - jt) > _REL * max(1.0, scale):
            return f"theta: {value} differs from mpmath jtheta {jt}"
    return None


def _check_factor(payload, ctx, out):
    bad = _ok(out)
    if bad:
        return bad
    value = _c(out["value"])
    kind = payload["kind"]
    n = np.array(payload["lam"], dtype=float)
    if kind == "I_B_rho":
        Pi, B = _m(payload["Pi"]), _m(payload["B"])
        phases = np.angle([_c(r) for r in payload["rho"]])
        lam = Pi @ n
        v = np.array(payload["arg"], dtype=float)
        ref = np.exp(1j * float(phases @ n) + np.pi * lam @ B @ lam + 2 * np.pi * v @ B @ lam)
    else:
        Y = _m(payload["Y"])
        g = Y.shape[0]
        if kind == "J_H_alpha":
            a, b = n[:g], n[g:]
            ell = a + 1j * (Y @ b)
            z = np.array([_c(x) for x in payload["arg"]])
            Yi = np.linalg.inv(Y)
            sign = -1.0 if int(round(float(a @ b))) % 2 else 1.0
            ref = sign * np.exp(0.5 * np.pi * (ell @ Yi @ np.conj(ell))
                                + np.pi * (z @ Yi @ np.conj(ell)))
        else:
            v = np.array(payload["arg"], dtype=float)
            c = 0.5 if kind == "I_alpha" else 1.0
            ref = np.exp(c * np.pi * float(n @ Y @ n) + 2 * c * np.pi * float(v @ n))
    if abs(value - ref) > _REL * max(1.0, abs(ref)):
        return f"factor {kind}: {value} differs from {ref}"
    return None


# ---------------------------------------------------------------------------
# reduction and equivalence


def _check_reduce(payload, ctx, out):
    bad = _ok(out)
    if bad:
        return bad
    A = _im(out["A"])
    if abs(_det(A)) != 1:
        return "reduce: witness is not unimodular"
    Y, R, Af = _m(payload["Y"]), _m(out["R"]), np.array(A, dtype=float)
    scale = max(1.0, float(np.max(np.abs(Af)))) ** 2 * max(1.0, float(np.max(np.abs(Y))))
    if float(np.max(np.abs(Af @ Y @ Af.T - R))) > 1e-10 * scale:
        return "reduce: residual |A Y tA - R| too large"
    return None


def _check_equiv_common(ctx, out):
    verdict = out.get("verdict")
    if verdict not in ("EQUIVALENT", "INEQUIVALENT"):
        return f"equiv: verdict {verdict!r}"
    if verdict != ctx["expected"]:
        return f"equiv: {verdict}, construction says {ctx['expected']}"
    return None


def _witness(out, Y1, Y2, rel):
    """Unimodular A from the answer with A Y1 tA = Y2 to ``rel``; (A, problem)."""
    A = _im(out["A"])
    if abs(_det(A)) != 1:
        return A, "equiv: witness is not unimodular"
    Af = np.array(A, dtype=float)
    scale = max(1.0, float(np.max(np.abs(Af)))) ** 2 * max(1.0, float(np.max(np.abs(Y1))))
    if float(np.max(np.abs(Af @ Y1 @ Af.T - Y2))) > rel * scale:
        return A, "equiv: witness does not carry Y1 to Y2"
    return A, None


def _check_equiv_Y(payload, ctx, out):
    bad = _ok(out) or _check_equiv_common(ctx, out)
    if bad or out["verdict"] != "EQUIVALENT":
        return bad
    return _witness(out, _m(payload["Y1"]), _m(payload["Y2"]), 1e-9)[1]


def _check_equiv_ppav(payload, ctx, out):
    bad = _ok(out) or _check_equiv_common(ctx, out)
    if bad or out["verdict"] != "EQUIVALENT":
        return bad
    o1, o2 = payload["Omega1"], payload["Omega2"]
    A, bad = _witness(out, _m(o1["Y"]), _m(o2["Y"]), 1e-8)
    if bad:
        return bad
    M1 = [[round(2 * x) for x in row] for row in o1["X"]]
    M2 = [[round(2 * x) for x in row] for row in o2["X"]]
    lhs = _imul(_imul(A, M1), _t(A))
    if any((x - y) % 2 for r1, r2 in zip(lhs, M2) for x, y in zip(r1, r2)):
        return "equiv: witness fails A M1 tA = M2 (mod 2)"
    return None


# ---------------------------------------------------------------------------
# discrete invariants


def _gf2_rank(N) -> int:
    rows = [int("".join(str(v % 2) for v in row), 2) for row in N]
    rank = 0
    for bit in reversed(range(len(N[0]))):
        pivot = next((r for r in rows if r >> bit & 1), None)
        if pivot is None:
            continue
        rows = [r ^ pivot if r >> bit & 1 else r for r in rows if r != pivot]
        rank += 1
    return rank


def _standard(g, lam, i):
    S = [[0] * g for _ in range(g)]
    for k in range(lam):
        if i == 0:
            S[k][k] = 1
        else:
            S[k][lam - 1 - k] = 1
    return S


def _check_classify(payload, ctx, out):
    bad = _ok(out)
    if bad:
        return bad
    N = payload["N"]
    g = len(N)
    lam = _gf2_rank(N)
    i = 1 if all(N[k][k] % 2 == 0 for k in range(g)) else 0
    if (out["lambda"], out["i"], out["form"]) != (lam, i, "II" if i else "I"):
        return "classify-mod2: wrong invariants"
    S, A = _im(out["S"]), _im(out["A"])
    if S != _standard(g, lam, i):
        return "classify-mod2: S is not the standard form"
    if _det(A) % 2 == 0:
        return "classify-mod2: A is singular mod 2"
    lhs = _imul(_imul(A, N), _t(A))
    if any((x - y) % 2 for r1, r2 in zip(lhs, S) for x, y in zip(r1, r2)):
        return "classify-mod2: A N tA differs from S (mod 2)"
    return None


def _check_invariants(payload, ctx, out):
    bad = _ok(out)
    if bad:
        return bad
    g = payload["g"]
    ref = sorted([(0, 1)] + [(lam, 0) for lam in range(1, g + 1)]
                 + [(lam, 1) for lam in range(2, g + 1, 2)])
    got = [tuple(x) for x in out["invariants"]]
    if got != ref or out["count"] != g + 1 + g // 2:
        return "invariants: wrong list"
    return None


def _check_sigma(payload, ctx, out):
    bad = _ok(out)
    if bad:
        return bad
    M = np.array(payload["M"], dtype=np.int64)
    g = M.shape[0]
    I = np.eye(g, dtype=np.int64)
    ref = np.block([[-M, I], [-(I + M @ M), M]])
    if _im(out["Sigma"]) != ref.tolist():
        return "sigma: wrong involution matrix"
    om = 0.5 * M + 1j * _m(payload["Y"])
    if not _close(_om(out["image"]), _sp_act(ref.astype(float), om)):
        return "sigma: image differs from the fractional linear action"
    return None


def _check_real_structure(payload, ctx, out):
    bad = _ok(out)
    if bad:
        return bad
    M = [[round(2 * x) for x in row] for row in payload["Omega"]["X"]]
    g = len(M)
    ref = [[(-1 if i == j else 0) for j in range(g)] + [0] * g for i in range(g)]
    ref += [M[i] + [1 if i == j else 0 for j in range(g)] for i in range(g)]
    return None if _im(out["M"]) == ref else "real-structure: wrong matrix"


def _check_split(payload, ctx, out):
    bad = _ok(out)
    if bad:
        return bad
    got = [out["s_prime"], out["p"], out["t_prime"]]
    return None if got == ctx["type"] else f"split-involution: {got}, built as {ctx['type']}"


def _check_cocycle(payload, ctx, out):
    bad = _ok(out)
    if bad:
        return bad
    G = np.array(payload["gamma"], dtype=object)
    n = G.shape[0]
    ref = bool(np.array_equal(G @ tau(G), np.eye(n, dtype=np.int64).astype(object)))
    return None if out["is_cocycle"] is ref else f"cocycle: answered {out['is_cocycle']}"


def _check_coboundary(payload, ctx, out):
    bad = _ok(out)
    if bad:
        return bad
    h = np.array(_im(out["witness"]), dtype=object)
    g = h.shape[0] // 2
    J = np.zeros((2 * g, 2 * g), dtype=object)
    J[:g, g:] = np.eye(g, dtype=np.int64)
    J[g:, :g] = -np.eye(g, dtype=np.int64)
    if not np.array_equal(h.T @ J @ h, J):
        return "coboundary: witness is not symplectic"
    gamma = np.array(payload["gamma"], dtype=object)
    if not np.array_equal(tau(h) @ symplectic_inverse(h), gamma):
        return "coboundary: tau(h) h^-1 differs from gamma"
    return None


# ---------------------------------------------------------------------------
# Siegel space actions


def _check_cayley(payload, ctx, out):
    bad = _ok(out)
    if bad:
        return bad
    if payload["direction"] == "to_disk":
        W = _cm(out["W"])
        I = np.eye(W.shape[0])
        back = 1j * np.linalg.solve((I - W).T, (I + W).T).T
        ok = _close(back, _om(payload["Omega"]))
    else:
        om = _om(out["Omega"])
        I = np.eye(om.shape[0])
        back = np.linalg.solve((om + 1j * I).T, (om - 1j * I).T).T
        ok = _close(back, _cm(payload["W"]))
    return None if ok else "cayley: round trip does not return the input"


def _check_act(payload, ctx, out):
    bad = _ok(out)
    if bad:
        return bad
    kind = payload["kind"]
    if kind == "gl":
        A, Y = _m(payload["A"]), _m(payload["Y"])
        ok = _close(_m(out["Y"]), A @ Y @ A.T)
    elif kind == "sp":
        ok = _close(_om(out["Omega"]), _sp_act(_m(payload["M"]), _om(payload["Omega"])))
    elif kind == "disk":
        M = _m(payload["M"])
        g = M.shape[0] // 2
        A, B, C, D = M[:g, :g], M[:g, g:], M[g:, :g], M[g:, g:]
        # the disk action is the half-space action conjugated by the Cayley transform
        W = _cm(payload["W"])
        I = np.eye(g)
        om = 1j * np.linalg.solve((I - W).T, (I + W).T).T
        moved = _sp_act(M, om)
        ref = np.linalg.solve((moved + 1j * I).T, (moved - 1j * I).T).T
        ok = _close(_cm(out["W"]), ref)
    elif kind == "gamma_star":
        M = _m(payload["M"])
        g = M.shape[0] // 2
        A, B = M[:g, :g], M[:g, g:]
        om = _om(payload["Omega"])
        ok = _close(_om(out["Omega"]), A @ om @ A.T + B @ A.T)
    else:
        A, a = _m(payload["A"]), _m(payload["a"])
        Y, V = _m(payload["Y"]), _m(payload["V"])
        ok = _close(_m(out["Y"]), A @ Y @ A.T) and _close(_m(out["V"]), (V + a) @ A.T)
    return None if ok else f"act {kind}: differs from the direct formula"


def _check_jacobi(payload, ctx, out):
    bad = _ok(out)
    if bad:
        return bad
    M = _m(payload["M"])
    g = M.shape[0] // 2
    C, D = M[g:, :g], M[g:, g:]
    om = _om(payload["Omega"])
    Z = _cm(payload["Z"])
    lam, mu = _m(payload["lam"]), _m(payload["mu"])
    Z_ref = np.linalg.solve((C @ om + D).T, (Z + lam @ om + mu).T).T
    if not (_close(_om(out["Omega"]), _sp_act(M, om)) and _close(_cm(out["Z"]), Z_ref)):
        return "jacobi-act: differs from the direct formula"
    return None


def _check_fixed_locus(payload, ctx, out):
    bad = _ok(out)
    if bad:
        return bad
    om = _om(payload["Omega"])
    defect = float(np.max(np.abs(_sp_act(_m(payload["gamma"]), om) + np.conj(om))))
    ref = defect <= 1e-10
    return None if out["member"] is ref else f"fixed-locus: answered {out['member']}"


# ---------------------------------------------------------------------------
# cone geometry


def _whiten(Y0, Y1):
    L = np.linalg.cholesky(Y0)
    Li = np.linalg.inv(L)
    vals, vecs = np.linalg.eigh(Li @ Y1 @ Li.T)
    return vecs.T @ Li, vals


def distance_bracket(payload) -> tuple[float, float]:
    """(sqrt(A) d_SPD(Y0, Y1), length of the cone geodesic with V moving linearly)."""
    Y0, Y1 = _m(payload["Y0"]), _m(payload["Y1"])
    dV = _m(payload["V1"]) - _m(payload["V0"])
    A_c, B_c = float(payload.get("A", 1.0)), float(payload.get("B", 1.0))
    w, t = _whiten(Y0, Y1)
    logs = np.log(t)
    d_spd = float(np.sqrt(np.sum(logs ** 2)))
    # along Y(s) = w^-1 diag(t^s) w^-T: tr(Y^-1 dV^T dV) = sum_j delta_j t_j^-s
    deltas = np.sum((dV @ w.T) ** 2, axis=0)
    x, wt = np.polynomial.legendre.leggauss(64)
    s = 0.5 * (x + 1.0)
    speed = np.sqrt(A_c * d_spd ** 2 + B_c * (np.exp(-np.outer(s, logs)) @ deltas))
    return float(np.sqrt(A_c)) * d_spd, 0.5 * float(np.sum(wt * speed))


def _check_distance(payload, ctx, out):
    bad = _ok(out)
    if bad:
        return bad
    d = float(out["value"])
    lo, hi = distance_bracket(payload)
    if d < lo * (1 - 1e-9) - 1e-12:
        return "distance: below sqrt(A) d_SPD"
    if d > hi * (1 + 1e-9) + 1e-12:
        return "distance: above explicit path length"
    return None


def _check_geodesic(payload, ctx, out):
    bad = _ok(out)
    if bad:
        return bad
    k = _m(payload["k"])
    lam = np.array(payload["lambdas"], dtype=float)
    t = float(payload["t"])
    Y = k.T @ np.diag(np.exp(2 * lam * t)) @ k
    V = _m(payload["Z"]) @ (k.T @ np.diag(np.expm1(lam * t) / lam) @ k)
    if not (_close(_m(out["Y"]), Y) and _close(_m(out["V"]), V)):
        return "geodesic: differs from the closed form"
    return None


def _check_iwasawa(payload, ctx, out):
    bad = _ok(out)
    if bad:
        return bad
    Y = _m(payload["Y"])
    F, G, H = _m(out["F"]), _m(out["G"]), _m(out["H"])
    r, g = F.shape[0], Y.shape[0]
    N = np.eye(g)
    if out["variant"] == "lower":
        N[r:, :r] = H
    else:
        N[:r, r:] = H
    D = np.zeros((g, g))
    D[:r, :r], D[r:, r:] = F, G
    ok = r == payload["r"] and out["variant"] == payload["variant"] and _close(N.T @ D @ N, Y)
    return None if ok else "iwasawa: blocks do not rebuild Y"


def _check_degenerate(payload, ctx, out):
    bad = _ok(out)
    if bad:
        return bad
    t = ctx["t"]
    W = np.array(ctx["W"])
    g = W.shape[0]
    lead = g - t
    if out["t"] != t or out["verdicts"] != ["convergent"] * lead + ["divergent"] * t:
        return f"degenerate: t={out['t']}, built with t={t}"
    d = np.array(ctx["base"]) + payload["params"][-1]
    Y0 = np.zeros((g, g))
    full = W.T @ np.diag(d) @ W
    Y0[:, :lead] = full[:, :lead]
    if not (_close(_m(out["Y0"]), Y0, 1e-6) and _close(_m(out["Y_diamond"]), Y0[:lead, :lead], 1e-6)):
        return "degenerate: limit matrix differs"
    return None


# ---------------------------------------------------------------------------
# extensions (exact rationals, g1 = g2 = 1)


def _check_ext_normal(payload, ctx, out):
    bad = _ok(out)
    if bad:
        return bad
    s = _fr(payload["sigma"])[0]
    Pi2 = Fraction(payload["Pi2"][0][0])
    return None if _fr(out["alpha"]) == [[s[1] - s[0] * Pi2]] else "ext-normal: wrong class"


def _check_ext_add(payload, ctx, out):
    bad = _ok(out)
    if bad:
        return bad
    a, b = _fr(payload["sigma1"])[0], _fr(payload["sigma2"])[0]
    return None if _fr(out["sigma"]) == [[x + y for x, y in zip(a, b)]] else "ext-add: wrong sum"


def _check_ext_equiv(payload, ctx, out):
    bad = _ok(out) or _check_equiv_common(ctx, out)
    if bad or out["verdict"] != "EQUIVALENT":
        return bad
    Pi1, Pi2 = Fraction(payload["Pi1"][0][0]), Fraction(payload["Pi2"][0][0])
    s1, s2 = _fr(payload["sigma1"])[0], _fr(payload["sigma2"])[0]
    diff = (s1[1] - s1[0] * Pi2) - (s2[1] - s2[0] * Pi2)
    M = _im(out["M"])
    # (1, Pi1) M (Pi2; 1)
    lattice = (M[0][0] * Pi2 + M[0][1]) + Pi1 * (M[1][0] * Pi2 + M[1][1])
    return None if lattice == diff else "ext-equiv: witness does not span the difference"


_CHECKS = {
    "theta": _check_theta,
    "factor": _check_factor,
    "reduce": _check_reduce,
    "equiv_Y": _check_equiv_Y,
    "equiv_ppav": _check_equiv_ppav,
    "classify-mod2": _check_classify,
    "invariants": _check_invariants,
    "sigma": _check_sigma,
    "real-structure": _check_real_structure,
    "split-involution": _check_split,
    "cocycle": _check_cocycle,
    "coboundary": _check_coboundary,
    "cayley": _check_cayley,
    "act": _check_act,
    "jacobi-act": _check_jacobi,
    "fixed-locus": _check_fixed_locus,
    "distance": _check_distance,
    "geodesic": _check_geodesic,
    "iwasawa": _check_iwasawa,
    "degenerate": _check_degenerate,
    "ext-normal": _check_ext_normal,
    "ext-add": _check_ext_add,
    "ext-equiv": _check_ext_equiv,
}
