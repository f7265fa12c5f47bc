"""The cone of symmetric positive definite matrices.

GL(g,R) acts by congruence A o Y = A Y tA.  This module provides the Jacobi
(unit-triangular LDL) decomposition, Minkowski reduction with an exact
unimodular witness, partial Iwasawa coordinates, the invariant metric and
volume densities, and numerically applied invariant differential operators.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exactlinalg import complete_to_unimodular, is_unimodular

__all__ = [
    "require_spd",
    "random_spd",
    "gl_act",
    "JacobiFactors",
    "jacobi_decomposition",
    "IwasawaBlocks",
    "partial_iwasawa",
    "quadratic_short_vectors",
    "minkowski_reduce",
    "is_minkowski_reduced",
    "volume_density",
    "metric_norm",
    "invariant_operator_apply",
]

MAX_REDUCTION_DIM = 4
_ENUMERATION_CAP = 2_000_000
# twice the unit roundoff of a double
_ROUNDING = 2.0 ** -52
# width, relative to max(1, value), within which two values of the form tie
_TIE = 1e-12


def _symmetric(M, name: str, dtype=float) -> np.ndarray:
    """M symmetrized, after checking that it is square, finite and symmetric
    within 1e-9 max(1, max|M|); ``name`` names M in the error."""
    M = np.asarray(M, dtype=dtype)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square")
    size = float(abs(M).max())
    # false for NaN and inf alike, before M - tM could turn inf into NaN
    if not size < math.inf:
        raise ValueError(f"{name} must have finite entries")
    if float(abs(M - M.T).max()) > 1e-9 * max(1.0, size):
        raise ValueError(f"{name} must be symmetric")
    return 0.5 * (M + M.T)


def _invertible(A, name: str) -> np.ndarray:
    """A as a float matrix, after checking that it is square, finite and
    invertible; ``name`` names A in the error.

    The test does not change when A is scaled: each column is divided by its
    largest entry (which cannot overflow), and the determinant of the scaled
    columns, at most g^(g/2) in size, must exceed 1e-12.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square")
    scale = abs(A).max(axis=0)
    if not (scale < math.inf).all():
        raise ValueError(f"{name} must have finite entries")
    if not (scale.all() and abs(np.linalg.det(A / scale)) > 1e-12):
        raise ValueError(f"{name} must be invertible")
    return A


def _spd_factor(Y) -> tuple[np.ndarray, np.ndarray]:
    """Validated, symmetrized Y and its Cholesky factor L, Y = L tL."""
    Y = _symmetric(Y, "SPD matrix")
    try:
        L = np.linalg.cholesky(Y)
    except np.linalg.LinAlgError as exc:
        raise ValueError("matrix is not positive definite") from exc
    return Y, L


def require_spd(Y) -> np.ndarray:
    """Validate and symmetrize an SPD matrix; raises on failure.

    Positivity is certified by a successful Cholesky factorization.
    """
    return _spd_factor(Y)[0]


def random_spd(g: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random SPD matrix A tA + ridge, moderately conditioned."""
    A = rng.normal(size=(g, g))
    Y = A @ A.T + 0.1 * np.eye(g)
    return scale * 0.5 * (Y + Y.T)


def gl_act(A, Y) -> np.ndarray:
    """Congruence action A o Y = A Y tA, symmetrized to kill roundoff."""
    Y = require_spd(Y)
    return _act(_invertible(A, "acting matrix"), Y)


def _act(Af: np.ndarray, Y: np.ndarray) -> np.ndarray:
    # A Y tA for a float A and a validated Y, without re-validation
    Z = Af @ Y @ Af.T
    return 0.5 * (Z + Z.T)


# ---------------------------------------------------------------------------
# Jacobi decomposition Y = tW D W


@dataclass(frozen=True)
class JacobiFactors:
    """Factors of Y = tW D W with W unit upper-triangular and D = diag(d) > 0."""

    W: np.ndarray
    d: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.W.T @ np.diag(self.d) @ self.W


def jacobi_decomposition(Y) -> JacobiFactors:
    _, L = _spd_factor(Y)
    diag = np.diag(L).copy()
    W = (L / diag).T
    d = diag**2
    return JacobiFactors(W=W, d=d)


# ---------------------------------------------------------------------------
# partial Iwasawa coordinates


@dataclass(frozen=True)
class IwasawaBlocks:
    """Block coordinates of Y: diag(F,G) twisted by a unit triangular factor.

    lower variant: Y = t(I,0;H,I) diag(F,G) (I,0;H,I), H is s x r;
    upper variant: Y = t(I,H;0,I) diag(F,G) (I,H;0,I), H is r x s.
    """

    F: np.ndarray
    G: np.ndarray
    H: np.ndarray
    variant: str

    def reconstruct(self) -> np.ndarray:
        r = self.F.shape[0]
        s = self.G.shape[0]
        g = r + s
        N = np.eye(g)
        if self.variant == "lower":
            N[r:, :r] = self.H
        else:
            N[:r, r:] = self.H
        M = np.zeros((g, g))
        M[:r, :r] = self.F
        M[r:, r:] = self.G
        return N.T @ M @ N


def partial_iwasawa(Y, r: int, variant: str = "lower") -> IwasawaBlocks:
    """Split Y into partial Iwasawa blocks at position ``r`` (0 < r < g)."""
    Y = require_spd(Y)
    g = Y.shape[0]
    if not 0 < r < g:
        raise ValueError(f"split index r={r} out of range for g={g}")
    if variant not in ("lower", "upper"):
        raise ValueError("variant must be 'lower' or 'upper'")
    Y11, Y12 = Y[:r, :r], Y[:r, r:]
    Y21, Y22 = Y[r:, :r], Y[r:, r:]
    if variant == "lower":
        G = Y22
        H = np.linalg.solve(Y22, Y21)
        F = Y11 - Y12 @ H
        return IwasawaBlocks(F=0.5 * (F + F.T), G=G, H=H, variant="lower")
    P = Y11
    R = np.linalg.solve(Y11, Y12)
    Q = Y22 - Y21 @ R
    return IwasawaBlocks(F=P, G=0.5 * (Q + Q.T), H=R, variant="upper")


# ---------------------------------------------------------------------------
# short-vector enumeration for the quadratic form x^T Y x


def quadratic_short_vectors(Y, bound: float, cap: int = _ENUMERATION_CAP) -> list[tuple[int, ...]]:
    """All nonzero integer vectors x with x^T Y x <= bound.

    Complete by the standard backtracking enumeration on the Jacobi factors;
    both x and -x are listed.  Raises if more than ``cap`` vectors would be
    produced, at once when the multiples of the unit vectors alone exceed it.
    """
    Y, L = _spd_factor(Y)
    g = Y.shape[0]
    if bound <= 0:
        return []
    if _unit_multiples(Y.diagonal().tolist(), bound) > cap:
        raise RuntimeError("short-vector enumeration bound overflow")
    diag = np.diag(L)
    W = (L / diag).T.tolist()
    d = (diag**2).tolist()
    out: list[tuple[int, ...]] = []
    x = [0] * g

    def descend(i: int, remaining: float) -> None:
        # level i fixes x[i] given x[i+1..]; quadratic contribution is
        # d[i] * (x[i] + sum_{j>i} W[i,j] x[j])^2
        Wi = W[i]
        shift = sum(Wi[j] * x[j] for j in range(i + 1, g))
        radius = (remaining / d[i]) ** 0.5 if remaining > 0 else 0.0
        lo = math.ceil(-radius - shift - 1e-12)
        hi = math.floor(radius - shift + 1e-12)
        for v in range(lo, hi + 1):
            x[i] = v
            used = d[i] * (v + shift) ** 2
            rem = remaining - used
            if rem < -1e-12:
                continue
            if i == 0:
                if any(x):
                    out.append(tuple(x))
                    if len(out) > cap:
                        raise RuntimeError("short-vector enumeration bound overflow")
            else:
                descend(i - 1, max(rem, 0.0))
        x[i] = 0

    descend(g - 1, float(bound))
    return out


def _unit_multiples(diag: list[float], bound: float) -> float:
    # m e_i is listed whenever m^2 y_ii <= bound; the margin keeps this count
    # a lower bound on the output despite the enumeration's roundoff.  A
    # quotient that overflows (subnormal y_ii) makes the count infinite.
    total = 0.0
    for y in diag:
        root = math.sqrt(bound * (1 - 1e-9) / y)
        total += 2.0 * (math.floor(root) if math.isfinite(root) else root)
    return total


def _short_table(Y: np.ndarray,
                 bound: float) -> tuple[list[tuple[int, ...]], np.ndarray, np.ndarray]:
    """Short vectors of Y up to ``bound``, their values x Y tx, and suffix gcds.

    Column k of the gcd table is gcd(|x_k|, ..., |x_{g-1}|).
    """
    g = Y.shape[0]
    vecs = quadratic_short_vectors(Y, bound)
    X = np.array(vecs, dtype=np.int64).reshape(len(vecs), g)
    Xf = X.astype(float)
    values = np.einsum("ni,ij,nj->n", Xf, Y, Xf)
    gcds = np.abs(X)
    for k in range(g - 2, -1, -1):
        gcds[:, k] = np.gcd(gcds[:, k], gcds[:, k + 1])
    return vecs, values, gcds


def is_minkowski_reduced(Y, tol: float = 1e-10) -> bool:
    """Reduction test: superdiagonal signs plus the finite minimality check.

    Minimality asks a Y ta >= y_kk for every integer a whose entries from
    position k on are coprime; all candidates lie in the certified finite set
    {a : a Y ta <= max_k y_kk + tol}.
    """
    Y = require_spd(Y)
    g = Y.shape[0]
    if g > MAX_REDUCTION_DIM:
        raise ValueError(f"reduction support is limited to g <= {MAX_REDUCTION_DIM}")
    diag = np.diag(Y)
    for k in range(g - 1):
        if Y[k, k + 1] < -tol:
            return False
    _, values, gcds = _short_table(Y, float(np.max(diag)) + tol)
    for k in range(g):
        if np.any((gcds[:, k] == 1) & (values < diag[k] - tol)):
            return False
    return True


def _sign_fix(R: np.ndarray, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # enforce nonnegative superdiagonal by row sign flips (one forward pass)
    g = R.shape[0]
    for k in range(g - 1):
        if R[k, k + 1] < 0:
            A[k + 1, :] = -A[k + 1, :]
            R[k + 1, :] = -R[k + 1, :]
            R[:, k + 1] = -R[:, k + 1]
    return R, A


def _size_reduce(Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # cheap pre-conditioning pass on a validated Y: sort by diagonal, shear
    # off large off-diagonal multiples.  Keeps the later certified
    # enumeration small.  A is kept as rows of Python ints and Af as its
    # float image, row by row.
    g = Y.shape[0]
    A = [[int(i == j) for j in range(g)] for i in range(g)]
    Af = np.eye(g)
    R = _act(Af, Y)
    for _ in range(32):
        Rl = R.tolist()
        order = sorted(range(g), key=lambda i: Rl[i][i])
        if order != list(range(g)):
            A = [A[i] for i in order]
            Af = Af[order]
            R = _act(Af, Y)
            Rl = R.tolist()
        changed = False
        for i in range(g):
            for j in range(g):
                if i == j:
                    continue
                q = round(Rl[i][j] / Rl[j][j])
                if q != 0 and abs(Rl[i][j]) > 0.5 * Rl[j][j] * (1 + 1e-12):
                    A[i] = [a - q * b for a, b in zip(A[i], A[j])]
                    Af[i] = A[i]
                    R = _act(Af, Y)
                    Rl = R.tolist()
                    changed = True
        if not changed:
            break
    return R, np.array(A, dtype=object)


@lru_cache(maxsize=None)
def _minkowski_conditions(g: int) -> tuple:
    """Minkowski's conditions q(s) - R_kk >= 0 of a g x g form.

    One condition for each s in {0, +-1}^g (up to sign) and each k such that
    s has a nonzero entry at position k or later and is not e_k.  Returns
    the upper-triangle indices of R, the matrix C whose row c holds the
    integer coefficients of condition c on those entries, and |C|.
    """
    upper = np.triu_indices(g)
    iu = list(zip(*upper))
    rows = []
    for s in itertools.product((0, 1, -1), repeat=g):
        if not any(s) or _canon(s) != s:
            continue
        for k in range(g):
            if not any(s[k:]) or s == tuple(int(i == k) for i in range(g)):
                continue
            rows.append([(1 if i == j else 2) * s[i] * s[j] - (i == j == k) for i, j in iu])
    C = np.array(rows, dtype=float).reshape(len(rows), len(iu))
    return upper, C, np.abs(C)


def _is_certified_reduced(R: np.ndarray) -> bool:
    """Exact test of every Minkowski condition q(s) >= R_kk, s in {0, +-1}^g.

    A float slack sums at most g(g+1)/2 exact terms c R_ij with |c| <= 2, so
    its error is below (g^2 + 2) 2u times the sum of their magnitudes; slacks
    inside that band are summed again with ``math.fsum`` over the terms, each
    exact in floats, so the sign is exact.
    """
    g = R.shape[0]
    upper, C, Cabs = _minkowski_conditions(g)
    r = R[upper]
    slack = C @ r
    band = (g * g + 2) * _ROUNDING * (Cabs @ abs(r))
    if (slack < -band).any():
        return False
    return all(math.fsum((C[c] * r).tolist()) >= 0
               for c in (slack <= band).nonzero()[0].tolist())


def minkowski_reduce(Y) -> tuple[np.ndarray, np.ndarray]:
    """Minkowski reduction: returns (R, A) with R = A Y tA reduced, A unimodular.

    After size reduction, R is checked against Minkowski's finite conditions:
    for g <= 4 a form is reduced exactly when q(s) >= R_kk for every
    s in {0, +-1}^g that has a nonzero entry at position k or later and is
    not +-e_k (Minkowski 1905; Nguyen & Stehle, "Low-dimensional lattice
    basis reduction revisited", ACM TALG 2009, section 2).  The check is
    exact: floats with a rigorous rounding band, then ``math.fsum`` inside
    it.  A form that passes is returned with fixed signs, because the greedy
    construction below would keep every row.

    Greedy construction: row k is chosen to minimize the form over all
    integer vectors whose coordinates from k on are coprime, the preceding
    rows staying fixed; ties are broken toward the current basis vector and
    then lexicographically, so the output is deterministic.  One enumeration,
    up to the largest diagonal entry still to be processed, serves every row
    until a row changes.  A form too skewed to enumerate raises ValueError.
    """
    Y = require_spd(Y)
    if Y.shape[0] > MAX_REDUCTION_DIM:
        raise ValueError(f"reduction support is limited to g <= {MAX_REDUCTION_DIM}")
    R, A = _size_reduce(Y)
    # refuse before any work when the first enumeration could not hold even
    # the multiples of the unit vectors
    diag = R.diagonal().tolist()
    if _unit_multiples(diag, max(diag) * (1 + 1e-9) + _TIE) > _ENUMERATION_CAP:
        raise ValueError("form cannot be reduced: short-vector enumeration bound overflow")
    if not _is_certified_reduced(R):
        R, A = _greedy_reduce(Y, R, A)
    R, A = _sign_fix(R, A)
    if not is_unimodular(A):
        raise AssertionError("reduction produced a non-unimodular witness")
    return R, A


def _greedy_reduce(Y: np.ndarray, R: np.ndarray,
                   A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the greedy construction of minkowski_reduce, from R = A Y tA
    g = Y.shape[0]
    table = None
    for k in range(g):
        if table is None:
            bound = float(np.max(np.diag(R)[k:])) * (1 + 1e-9) + _TIE
            try:
                table = _short_table(R, bound)
            except RuntimeError as exc:
                raise ValueError(f"form cannot be reduced: {exc}") from exc
        vecs, values, gcds = table
        best_val = float(R[k, k])
        scale = max(1.0, best_val)
        best_vec: tuple[int, ...] | None = None
        e_k = tuple(int(i == k) for i in range(g))
        # a vector above R[k, k] + _TIE * scale can neither win nor tie
        for idx in np.flatnonzero((gcds[:, k] == 1) & (values <= best_val + _TIE * scale)):
            x = vecs[idx]
            q = float(values[idx])
            if q < best_val - _TIE * scale:
                best_val = q
                best_vec = x
            elif abs(q - best_val) <= _TIE * scale and best_vec is not None:
                if _canon(x) < _canon(best_vec):
                    best_vec = x
        if best_vec is None or best_vec == e_k or _neg(best_vec) == e_k:
            continue
        prefix = np.eye(k + 1, g, dtype=object)
        prefix[k] = _canon(best_vec)
        U = complete_to_unimodular(prefix)
        A = U @ A
        R = _act(A.astype(float), Y)
        table = None
    return R, A


def _neg(x: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-v for v in x)


def _canon(x: tuple[int, ...]) -> tuple[int, ...]:
    for v in x:
        if v != 0:
            return x if v > 0 else _neg(x)
    return x


# ---------------------------------------------------------------------------
# invariant densities, metric, operators


def volume_density(Y, h: int = 0) -> float:
    """Density (det Y)^(-(g+h+1)/2) of the invariant volume element."""
    Y = require_spd(Y)
    g = Y.shape[0]
    if h < 0:
        raise ValueError("h must be nonnegative")
    return float(np.linalg.det(Y)) ** (-(g + h + 1) / 2.0)


def metric_norm(Y, U) -> float:
    """Squared length trace((Y^-1 U)^2) of a symmetric tangent vector U."""
    Y = require_spd(Y)
    U = _symmetric(U, "tangent vector")
    T = np.linalg.solve(Y, U)
    return float(np.trace(T @ T))


def _sym_gradient(f, Y: np.ndarray, step: float) -> np.ndarray:
    # symmetrized matrix derivative: entry (i,j) is (1+delta_ij)/2 d/dy_ij,
    # where the off-diagonal variable perturbs both mirror entries
    g = Y.shape[0]
    grad = np.zeros((g, g))
    for i in range(g):
        for j in range(i, g):
            E = np.zeros((g, g))
            E[i, j] = 1.0
            E[j, i] = 1.0
            df = (f(Y + step * E) - f(Y - step * E)) / (2.0 * step)
            if i == j:
                grad[i, i] = df
            else:
                grad[i, j] = grad[j, i] = 0.5 * df
    return grad


def invariant_operator_apply(k: int, f, Y, step: float = 1e-4) -> float:
    """Apply the invariant operator trace((Y d/dY)^k) to a scalar f at Y.

    Derivatives are nested central differences in the symmetrized convention;
    supported orders are k = 1, 2.
    """
    Y = require_spd(Y)
    if step <= 0 or step < 1e-12:
        raise ValueError("step underflow")
    if k not in (1, 2):
        raise ValueError("only operator orders 1 and 2 are supported")
    g = Y.shape[0]
    if k == 1:
        return float(np.trace(Y @ _sym_gradient(f, Y, step)))

    def op_matrix(Z: np.ndarray) -> np.ndarray:
        return Z @ _sym_gradient(f, Z, step)

    # T[p, q, :, :] = (d/dY)_{pq} applied entrywise to the matrix op_matrix
    T = np.zeros((g, g, g, g))
    for p in range(g):
        for q in range(p, g):
            E = np.zeros((g, g))
            E[p, q] = 1.0
            E[q, p] = 1.0
            dM = (op_matrix(Y + step * E) - op_matrix(Y - step * E)) / (2.0 * step)
            if p == q:
                T[p, p] = dM
            else:
                T[p, q] = T[q, p] = 0.5 * dM
    total = 0.0
    for i in range(g):
        for j in range(g):
            for p in range(g):
                total += Y[i, p] * T[p, j, j, i]
    return total
