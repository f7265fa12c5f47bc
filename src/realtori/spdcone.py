"""The cone of symmetric positive definite matrices.

GL(g,R) acts by congruence A o Y = A Y tA.  This module provides the Jacobi
(unit-triangular LDL) decomposition, Minkowski reduction with an exact
unimodular witness, partial Iwasawa coordinates, the invariant metric and
volume densities, and numerically applied invariant differential operators.

Short-vector search and the theta sums walk the integer points of an
ellipsoid's bounding box.  Box shapes repeat from call to call, so the index
grid of a box of at most ``_GRID_CACHED`` points is built once per shape and
kept, read-only, in a per-process cache of at most ``_GRID_SHAPES`` shapes.

A public function checks each argument once, with ``_symmetric``,
``_invertible`` and ``_cholesky``, and passes the checked values to a private
core ``_name``, which package code holding checked values calls directly.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .exactlinalg import _det_rows

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
# points of the largest enumeration box, the cube [-60, 60]^4
_BOX_LIMIT = 121 ** 4
# box points per numpy pass of an enumeration: bounds its working memory
_CHUNK = 1 << 16
# box points up to which the index grid of a box shape is kept, and the number
# of shapes kept (32 KB each at most)
_GRID_CACHED = 4096
_GRID_SHAPES = 128
# twice the unit roundoff of a double
_ROUNDING = 2.0 ** -52
# width, relative to max(1, value), within which two values of the form tie
_TIE = 1e-12
# descent steps after which minkowski_reduce gives up as on a broken invariant
_DESCENT_STEPS = 1000
# the largest entry of a matrix that can be symmetrized without overflow
_HALF_MAX = sys.float_info.max / 2


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
    # M - tM and M + tM below cannot overflow
    if size > _HALF_MAX:
        raise ValueError(f"{name} must have entries of magnitude at most {_HALF_MAX:.4g}")
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


def _cholesky(Y: np.ndarray) -> np.ndarray:
    """Cholesky factor L of an exactly symmetric Y = L tL; raises unless Y is SPD."""
    try:
        return np.linalg.cholesky(Y)
    except np.linalg.LinAlgError as exc:
        raise ValueError("matrix is not positive definite") from exc


def require_spd(Y) -> np.ndarray:
    """Validate and symmetrize an SPD matrix; raises on failure.  Positivity
    is certified by a successful Cholesky factorization."""
    Y = _symmetric(Y, "SPD matrix")
    _cholesky(Y)
    return Y


def random_spd(g: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random SPD matrix A tA + ridge, moderately conditioned."""
    A = rng.normal(size=(g, g))
    Y = A @ A.T + 0.1 * np.eye(g)
    return scale * 0.5 * (Y + Y.T)


def gl_act(A, Y) -> np.ndarray:
    """Congruence action A o Y = A Y tA, symmetrized to kill roundoff."""
    Y = require_spd(Y)
    A = _invertible(A, "acting matrix")
    # a product that overflows comes back as inf or NaN for the caller to refuse
    with np.errstate(over="ignore", invalid="ignore"):
        return _act(A, Y)


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
    return _jacobi(_cholesky(_symmetric(Y, "SPD matrix")))


def _jacobi(L: np.ndarray) -> JacobiFactors:
    # jacobi_decomposition from the Cholesky factor L of Y
    diag = np.diag(L).copy()
    return JacobiFactors(W=(L / diag).T, d=diag**2)


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
    """All nonzero integer vectors x with x^T Y x <= bound, in ascending
    lexicographic order of (x_{g-1}, ..., x_0), from ``_Ellipsoid``.

    Raises if more than ``cap`` vectors would be produced, at once when the
    multiples of the unit vectors alone exceed it or the box walked holds
    more than 64 ``cap`` points.
    """
    Y = require_spd(Y)
    if bound <= 0:
        return []
    if _unit_multiples(Y.diagonal().tolist(), bound) > cap:
        raise RuntimeError("short-vector enumeration bound overflow")
    found, total = [], 0
    # at most a few box points per vector for an LLL-reduced form, so a box
    # far larger than the cap would take long only to overflow it
    box = _Ellipsoid(Y, [0.0] * Y.shape[0]).box(float(bound))
    for K, _ in box.points(box_limit=min(_BOX_LIMIT, 64 * cap)):
        found.append(K[:, K.any(axis=0)])
        total += found[-1].shape[1]
        if total > cap:
            raise RuntimeError("short-vector enumeration bound overflow")
    K = np.concatenate(found, axis=1)
    # np.lexsort sorts by the last row first
    return list(zip(*K[:, np.lexsort(K)].astype(np.int64).tolist()))


class _Ellipsoid:
    """The ellipsoids t(k) P k + b.k + offset <= limit of the form P and the
    linear term b, centered at c = -P^-1 tb / 2, with offset b P^-1 tb / 4:
    ``box(bound)`` bounds the one at limit = bound (1 + 1e-12) + 1e-12, and
    its ``points`` are the integer points k there, with their values
    t(k) P k + b.k.  They map back to the caller's basis by k = tU k' when U
    is given.

    One inverse, of P scaled to unit diagonal (S, with inverse Z), gives the
    center, the offset and the squared half-widths limit (P^-1)_ii.  These
    are widened by a first-order bound on rounding, which is small unless S
    is ill-conditioned: Z is computed to g u cond(S) |Z| <= g^3 u tr(Z)^2
    Z_ii, and a value q(k) to (g + 2) u t|k| |P| |k| <= (g + 2) g u tr(Z) q(k).
    Every box is infinite when P is too near singular to invert: a form
    positive definite in floats need not stay so in another basis.
    """

    def __init__(self, P: np.ndarray, b: list, U: list | None = None):
        g = P.shape[0]
        self.rows, self.b, self.U = P.tolist(), b, U
        self.c, self.offset, self.widths = [0.0] * g, 0.0, None
        if not min(self.rows[i][i] for i in range(g)) > 0:
            return
        s = [self.rows[i][i] ** -0.5 for i in range(g)]
        scale = np.array(s)
        try:
            # P^-1 = diag(s) Z diag(s)
            Z = np.linalg.inv(P * scale[:, None] * scale).tolist()
        except np.linalg.LinAlgError:
            return
        sb = [si * bi for si, bi in zip(s, b)]
        self.c = [-0.5 * si * sum(z * x for z, x in zip(row, sb)) for si, row in zip(s, Z)]
        self.offset = -0.5 * sum(bi * ci for bi, ci in zip(b, self.c))
        trace = sum(Z[i][i] for i in range(g))
        margin = 4 * g * _ROUNDING * trace * (g * g * trace + g + 2)
        # false for NaN and for a negative diagonal alike
        if all(Z[i][i] > 0 for i in range(g)):
            self.widths = [(s[i], Z[i][i], 1 + margin) for i in range(g)]

    def box(self, bound: float) -> _Box:
        """The bounding box |k_i - c_i| <= sqrt(limit (P^-1)_ii), widened
        for rounding; its count is infinite when a half-width or the center
        is not finite or reaches ``_BOX_LIMIT``."""
        if self.widths is None:
            return _Box(self, [], [], math.inf, bound)
        limit = bound * (1 + 1e-12) + 1e-12
        half = [s * math.sqrt(limit * z * m) for s, z, m in self.widths]
        # false for NaN and inf alike
        if not all(abs(ci) + h < _BOX_LIMIT for ci, h in zip(self.c, half)):
            return _Box(self, [], [], math.inf, bound)
        lo = [math.ceil(ci - h) for ci, h in zip(self.c, half)]
        sides = [max(0, math.floor(ci + h) - a + 1) for ci, h, a in zip(self.c, half, lo)]
        return _Box(self, lo, sides, math.prod(sides), bound)


class _Box(NamedTuple):
    """Corner and sides of the bounding box of an ellipsoid at ``bound``,
    and its point count."""

    ellipsoid: _Ellipsoid
    lo: list[int]
    sides: list[int]
    count: float
    bound: float

    def points(self, box_limit: int = _BOX_LIMIT) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The integer points of the ellipsoid, with their values q(k) + b.k.

        The walk covers the box in pieces of ``_CHUNK`` box points
        flat-indexed over the reversed axes: the points, the columns of float
        arrays, come in ascending lexicographic order of (k_{g-1}, ..., k_0).
        A box of more than one piece whose form is not LLL-reduced may be far
        larger than the ellipsoid; the box of the LLL-reduced form U P tU is
        then walked instead when it is smaller, and its points are mapped
        back by k = tU k' in its own order.  Raises RuntimeError, before any
        work, when the box walked holds more than ``box_limit`` points.
        """
        box = self
        if self.count > _CHUNK and math.isfinite(self.bound):
            P, b = self.ellipsoid.rows, self.ellipsoid.b
            U = _lll(P)
            other = _Ellipsoid(np.array(_congruent(U, P)), (np.array(U, dtype=float) @ b).tolist(), U)
            other = other.box(self.bound)
            if other.count < self.count:
                box = other
        if box.count > box_limit:
            raise RuntimeError(f"enumeration box of {box.count:.3g} points exceeds {box_limit}")
        return box._walk()

    def _walk(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        P, bl, U = self.ellipsoid.rows, self.ellipsoid.b, self.ellipsoid.U
        g, sides = len(P), self.sides
        lo = np.array(self.lo, dtype=float)[:, None]
        limit = self.bound * (1 + 1e-12) + 1e-12 - self.ellipsoid.offset
        for start in range(0, self.count, _CHUNK):
            if self.count <= _CHUNK:
                grid = _index_grid(tuple(sides))
            else:
                idx = np.unravel_index(np.arange(start, min(start + _CHUNK, self.count)), sides[::-1])
                grid = np.array(idx[::-1])
            K = grid + lo
            k = list(K)
            values = 0.0
            for i in range(g):
                row = P[i][i] * k[i] + bl[i]
                for j in range(i + 1, g):
                    row += 2.0 * P[i][j] * k[j]
                values += row * k[i]
            keep = values <= limit
            if U:
                K = np.array([sum(U[j][i] * k[j] for j in range(g)) for i in range(g)])
            yield K[:, keep], values[keep]


def _index_grid(sides: tuple) -> np.ndarray:
    """Row i holds k_i - lo_i at every point of a box of one chunk with these
    sides, in the flat C order of the reversed axes; grids of at most
    ``_GRID_CACHED`` points are read-only int16 and built once per shape."""
    if math.prod(sides) <= _GRID_CACHED:
        return _cached_index_grid(sides)
    return np.indices(sides[::-1]).reshape(len(sides), -1)[::-1]


@lru_cache(maxsize=_GRID_SHAPES)
def _cached_index_grid(sides: tuple) -> np.ndarray:
    grid = np.ascontiguousarray(np.indices(sides[::-1], dtype=np.int16).reshape(len(sides), -1)[::-1])
    grid.flags.writeable = False
    return grid


def _congruent(U: list, Q: list) -> list:
    # U Q tU for integer rows U, each entry rounded once from its exact value
    g = len(Q)
    F = [[Fraction(x) for x in row] for row in Q]
    return [[float(sum(U[i][k] * U[j][l] * F[k][l] for k in range(g) for l in range(g)))
             for j in range(g)] for i in range(g)]


def _lll(Q: list) -> list:
    """Integer rows U, unimodular, with U Q tU LLL-reduced (Lovasz constant
    0.99).  The reduction stops early where U Q tU is not numerically
    positive definite, and gives the identity where an entry of U would reach
    2^20: tU k' stays exact in floats for every box point k'."""
    g = len(Q)
    Qa = np.array(Q)
    U = [[int(i == j) for j in range(g)] for i in range(g)]
    k, steps = 1, 0
    while k < g and steps < 100 * g * g:
        steps += 1
        try:
            fac = jacobi_decomposition(_act(np.array(U, dtype=float), Qa))
        except ValueError:
            break
        # Gram-Schmidt coefficients mu (unit lower triangular) and norms d
        mu, d = fac.W.T.tolist(), fac.d.tolist()
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                U[k] = [a - q * e for a, e in zip(U[k], U[j])]
                mu[k] = [m - q * n for m, n in zip(mu[k], mu[j])]
        if max(map(abs, U[k])) >= 1 << 20:
            return [[int(i == j) for j in range(g)] for i in range(g)]
        if d[k] < (0.99 - mu[k][k - 1] ** 2) * d[k - 1]:
            U[k - 1], U[k] = U[k], U[k - 1]
            k = max(k - 1, 1)
        else:
            k += 1
    return U


def _unit_multiples(diag: list[float], bound: float) -> float:
    # m e_i is listed whenever m^2 y_ii <= bound; the margin keeps this count
    # a lower bound on the output despite the enumeration's roundoff.  A
    # quotient that overflows (subnormal y_ii) makes the count infinite.
    total = 0.0
    for y in diag:
        root = math.sqrt(bound * (1 - 1e-9) / y)
        total += 2.0 * (math.floor(root) if math.isfinite(root) else root)
    return total


def is_minkowski_reduced(Y, tol: float = 1e-10) -> bool:
    """Reduction test at tolerance ``tol``: superdiagonal signs, and every
    Minkowski condition q(s) - y_kk with s in {0, +-1}^g at least -tol, which
    for g <= 4 is every condition (see ``minkowski_reduce``)."""
    Y = require_spd(Y)
    g = Y.shape[0]
    if g > MAX_REDUCTION_DIM:
        raise ValueError(f"reduction support is limited to g <= {MAX_REDUCTION_DIM}")
    if any(Y[k, k + 1] < -tol for k in range(g - 1)):
        return False
    upper, C, _, _ = _minkowski_conditions(g)
    return bool((C @ Y[upper] >= -tol).all())


def _size_reduce(Y: np.ndarray) -> tuple[np.ndarray, list]:
    """R = _act(A, Y) and the rows of A (Python ints) that sort a validated Y
    by diagonal and shear off large off-diagonal multiples, a cheap pass after
    which most forms pass the reduction certificate.

    Swaps and shears act on R in place, in Python floats, yet every decision
    (the sort, q and the test of each shear) is the one made on R = _act(A, Y)
    recomputed after every step.  To first order, R_ik is within (g + 1) 2u
    h_i h_k max|Y| of the exact A Y tA after ``_act`` (two dot products of
    length g and a halving), and 2 2u h_i h_k max|Y| further after each
    in-place shear; u is the unit roundoff, and h_i >= |A_i|_1 grows by
    |q| h_j with row i.  A decision within the sum of these bounds of its
    edge (two diagonal entries, or R_ij / R_jj and a half-integer) is made
    again on R recomputed by ``_act``.  Integer Y needs no recomputation:
    both ways every value is the exact integer while h_i^2 max|Y| < 2^52.
    The gain is on integer and untied float forms; a scaled tied form puts
    most decisions in the band and costs about what recomputing every step did.
    """
    g = Y.shape[0]
    R = Y.tolist()
    big = max(max(map(abs, row)) for row in R)
    exact = big < 2.0 ** 52 and all(v.is_integer() for row in R for v in row)
    A, h = [[int(i == j) for j in range(g)] for i in range(g)], [1.0] * g
    # R is within unit h_i h_k = drift 2u h_i h_k max|Y| of _act(A, Y); unit is 0 while
    # R decides as _act(A, Y) does: Y exact, at the start, just recomputed (as Rf)
    drift, unit, Rf = 2 * g + 2, 0.0, None
    for _ in range(32):
        order = sorted(range(g), key=lambda i: R[i][i])
        # (not > is true for NaN too)
        if unit and any(not R[b][b] - R[a][a] > unit * (h[a] * h[a] + h[b] * h[b])
                        for a, b in zip(order, order[1:])):
            Rf, drift, unit = _act(np.array(A, dtype=float), Y), 2 * g + 2, 0.0
            R = Rf.tolist()
            order = sorted(range(g), key=lambda i: R[i][i])
        if order != list(range(g)):
            A, h = [A[i] for i in order], [h[i] for i in order]
            R = [[R[a][b] for b in order] for a in order]
            Rf, unit = None, 0.0 if exact else drift * _ROUNDING * big
        changed = False
        for i in range(g):
            for j in range(g):
                if i == j:
                    continue
                if unit and _on_edge(R, i, j, unit * h[i] * h[j], unit * h[j] * h[j]):
                    Rf, drift, unit = _act(np.array(A, dtype=float), Y), 2 * g + 2, 0.0
                    R = Rf.tolist()
                Ri, Rj = R[i], R[j]
                q = round(Ri[j] / Rj[j])
                if q != 0 and abs(Ri[j]) > 0.5 * Rj[j] * (1 + 1e-12):
                    # rows and columns i -= q j: R_ii - q (R_ij + new R_ij) on the diagonal
                    Ri[i] -= q * (Ri[j] + (Ri[j] - q * Rj[j]))
                    for k in range(g):
                        if k != i:
                            Ri[k] = R[k][i] = Ri[k] - q * Rj[k]
                    A[i] = [a - q * b for a, b in zip(A[i], A[j])]
                    h[i] += abs(q) * h[j]
                    exact = exact and h[i] * h[i] * big < 2.0 ** 52
                    drift, changed = drift + 4, True
                    Rf, unit = None, 0.0 if exact else drift * _ROUNDING * big
        if not changed:
            break
    return (_act(np.array(A, dtype=float), Y) if Rf is None else Rf), A


def _on_edge(R: list, i: int, j: int, e_ij: float, e_jj: float) -> bool:
    # whether q or the shear test (its edge is 1e-12 from 1/2) may change
    # when R_ij and R_jj move by up to e_ij and e_jj; true for NaN
    gap = R[j][j] - e_jj
    if not gap > 0:
        return True
    x = abs(R[i][j] / R[j][j])
    return not abs(x % 1.0 - 0.5) > (e_ij + x * e_jj) / gap + 2 * _ROUNDING * x + 1e-12


@lru_cache(maxsize=None)
def _minkowski_conditions(g: int) -> tuple:
    """Minkowski's conditions q(s) - R_kk >= 0 of a g x g form.

    One condition for each s in {0, +-1}^g (up to sign, first nonzero entry
    positive) and each k such that s has a nonzero entry at position k or
    later and is not e_k.  Returns the upper-triangle indices of R, the
    matrix C whose row c holds the integer coefficients of condition c on
    those entries, |C|, and (k, s, j) for each row, j the last index with
    s_j != 0.
    """
    upper = np.triu_indices(g)
    iu = list(zip(*upper))
    rows, steps = [], []
    for s in itertools.product((0, 1, -1), repeat=g):
        if not any(s) or _canon(s) != s:
            continue
        j = max(i for i in range(g) if s[i])
        for k in range(j + 1):
            if s == tuple(int(i == k) for i in range(g)):
                continue
            rows.append([(1 if a == b else 2) * s[a] * s[b] - (a == b == k) for a, b in iu])
            steps.append((k, s, j))
    C = np.array(rows, dtype=float).reshape(len(rows), len(iu))
    return upper, C, np.abs(C), steps


def _is_certified_reduced(R: np.ndarray) -> bool:
    """Exact test of every Minkowski condition q(s) >= R_kk, s in {0, +-1}^g.

    A float slack sums at most g(g+1)/2 exact terms c R_ij with |c| <= 2, so
    its error is below (g^2 + 2) 2u times the sum of their magnitudes; slacks
    inside that band are summed again with ``math.fsum`` over the terms, each
    exact in floats, so the sign is exact.
    """
    g = R.shape[0]
    upper, C, Cabs, _ = _minkowski_conditions(g)
    r = R[upper]
    slack = C @ r
    band = (g * g + 2) * _ROUNDING * (Cabs @ abs(r))
    if (slack < -band).any():
        return False
    return all(math.fsum((C[c] * r).tolist()) >= 0
               for c in (slack <= band).nonzero()[0].tolist())


def minkowski_reduce(Y) -> tuple[np.ndarray, np.ndarray]:
    """Minkowski reduction: returns (R, A) with R = A Y tA reduced, A unimodular
    (up to rounding on badly conditioned input; see below).

    After size reduction, R is checked against Minkowski's finite conditions:
    for g <= 4 a form is reduced exactly when q(s) >= R_kk for every
    s in {0, +-1}^g that has a nonzero entry at position k or later and is
    not +-e_k (Minkowski 1905; Nguyen & Stehle, "Low-dimensional lattice
    basis reduction revisited", ACM TALG 2009, section 2), exactly
    (``_is_certified_reduced``).

    A form that fails takes descent steps.  Among the conditions whose slack
    q(s) - R_kk is below -_TIE max(1, R_kk), a step takes the one with the
    smallest k, then the smallest q(s), then the smallest s as a tuple (first
    nonzero entry positive).  With j the last index where s_j != 0, row j of
    A becomes sum_i s_i A_i (s_j = +-1 keeps A unimodular) and moves to row
    k; the basis is size-reduced, R = A Y tA.  Each step lowers tr R by more
    than _TIE max(1, R_kk), as R_jj >= R_kk gives way to q(s) and size
    reduction never raises the trace, and finitely many bases have a trace
    below that of the input, so the descent stops.  In floats, where rounding
    can exceed the tie width on a badly conditioned input, it also stops
    before a step that does not lower the computed trace or leaves a computed
    form indefinite, and when every failed condition fails only within the
    tie width.  Then the first failed step, in the order above, is taken if
    its R passes the check; if not, R is reduced only to within the tie
    width or the rounding of A Y tA, and nothing says so.  A form whose
    size-reduced R is not positive definite in floats raises ValueError.

    Signs: row 0 gets a positive first nonzero coordinate in the size-reduced
    basis, and each later row a nonnegative entry on the superdiagonal.
    """
    Y = require_spd(Y)
    g = Y.shape[0]
    if g > MAX_REDUCTION_DIM:
        raise ValueError(f"reduction support is limited to g <= {MAX_REDUCTION_DIM}")
    R, A = _size_reduce(Y)
    if not _is_certified_reduced(R):
        R, A = _descend(Y, R, A)
    # nonnegative superdiagonal by row sign flips (one forward pass)
    for k in range(g - 1):
        if R[k, k + 1] < 0:
            A[k + 1] = [-a for a in A[k + 1]]
            R[k + 1, :] = -R[k + 1, :]
            R[:, k + 1] = -R[:, k + 1]
    if abs(_det_rows(A)) != 1:
        raise AssertionError("reduction produced a non-unimodular witness")
    return R, np.array(A, dtype=object)


def _descend(Y: np.ndarray, R: np.ndarray, S: list) -> tuple[np.ndarray, list]:
    # minkowski_reduce's descent from R = S Y tS, which fails the certificate;
    # returns R and the rows of A = T S, T the change from the basis S
    if not (np.isfinite(R).all() and (np.linalg.eigvalsh(R) > 0).all()):
        raise ValueError("form cannot be reduced: rounding leaves it indefinite")
    upper, C, _, steps = _minkowski_conditions(len(S))
    A, T = S, np.eye(len(S), dtype=int).tolist()
    for _ in range(_DESCENT_STEPS):
        diag = R.diagonal().tolist()
        # (tied, k, q(s), step) of every condition whose float slack is negative
        failed = sorted((x >= -_TIE * max(1.0, diag[st[0]]), st[0], x + diag[st[0]], st)
                        for x, st in zip((C @ R[upper]).tolist(), steps) if x < 0)
        if not failed or failed[0][0]:
            break
        taken = _step(Y, S, T, *failed[0][3])
        if taken is None or not taken[2].trace() < R.trace():
            break
        T, A, R = taken
        if _is_certified_reduced(R):
            failed = []
            break
    else:
        raise AssertionError("reduction did not settle within its step bound")
    # a form left uncertified takes its first failed step if that R certifies
    taken = _step(Y, S, T, *failed[0][3]) if failed else None
    if taken is not None and _is_certified_reduced(taken[2]):
        T, A, R = taken
    # -A where row 0 of T is not canonical: R keeps its bytes
    return R, A if _canon(tuple(T[0])) == tuple(T[0]) else [[-a for a in row] for row in A]


def _step(Y: np.ndarray, S: list, T: list, k: int, s: tuple, j: int) -> tuple | None:
    # the descent step on condition (k, s, j) from the basis T S: row j of T
    # becomes sum_i s_i T_i, moves to row k, and the basis is size-reduced;
    # returns T, A = T S and R = A Y tA, or None if rounding left a form indefinite
    U = T[:k] + _compose([s], T) + T[k:j] + T[j + 1:]
    try:
        P = require_spd(_act(np.array(_compose(U, S), dtype=float), Y))
        U = _compose(_size_reduce(P)[1], U)
        A = _compose(U, S)
        return U, A, require_spd(_act(np.array(A, dtype=float), Y))
    except ValueError:
        return None


def _compose(B: list, A: list) -> list:
    # the product B A of two matrices given as rows of Python ints
    return [[sum(b * a for b, a in zip(row, column)) for column in zip(*A)] for row in B]


def _canon(x: tuple[int, ...]) -> tuple[int, ...]:
    # x or -x, whichever has a positive first nonzero entry
    for v in x:
        if v != 0:
            return x if v > 0 else tuple(-t for t in x)
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
