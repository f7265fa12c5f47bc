"""The cone of symmetric positive definite matrices.

GL(g,R) acts by congruence A o Y = A Y tA.  This module provides the Jacobi
(unit-triangular LDL) decomposition, Minkowski reduction with an exact
unimodular witness, partial Iwasawa coordinates, the invariant metric and
volume densities, and numerically applied invariant differential operators.

Short-vector search and the theta sums walk the integer points of an
ellipsoid's bounding box, or of the box of a reduced basis where that is
smaller (``_Box.points``).  Box shapes repeat from call to call, so the index
grid of a box of at most ``_GRID_CACHED`` points is built once per shape and
kept, read-only, in a per-process cache of at most ``_GRID_SHAPES`` shapes.

A public function checks each argument once, with ``_symmetric``,
``_invertible`` and ``_cholesky``, and passes the checked values to a private
core ``_name``, which package code holding checked values calls directly.
Where a form is reduced anyway, ``minkowski_reduce`` is its one check (see
``moduli``), and ``_symmetrized`` gives the form that ``_symmetric`` returns.
Two rules decide for the whole package: ``_invertible`` whether a matrix is
invertible, and ``_cholesky`` whether a symmetric one is positive definite,
by a proof (see ``require_spd``).  One scale rule: a float test of "equal
within rounding" compares against the scale of its inputs, with no absolute
floor.  P_g is a cone, and 2^k Y gets Y's answers scaled, bit for bit.

Minkowski reduction decides on the exact form: a validated Y is N / 2^e for
integer rows N (``_dyadic``), and every decision is made on A N tA in Python
ints.  2^k Y, away from underflow and overflow, has the rows 2^m N, m >= 0,
which take the same decisions, so it gets the same A by construction.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import mul
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
# box points above which a reduced basis is tried (about its break-even, g = 2..4)
_REBASE_ABOVE = 4096
# box points up to which the index grid of a box shape is kept, and the number
# of shapes kept (32 KB each at most)
_GRID_CACHED = 4096
_GRID_SHAPES = 128
# twice the unit roundoff of a double
_ROUNDING = 2.0 ** -52
# an enumeration at bound keeps the values up to bound * _MARGIN, for rounding
_MARGIN = 1 + 1e-12
# descent steps after which minkowski_reduce gives up as on a broken invariant
_DESCENT_STEPS = 1000
# the largest entry of a matrix that can be symmetrized without overflow
_HALF_MAX = sys.float_info.max / 2


def _symmetric(M, name: str, dtype=float) -> np.ndarray:
    """M symmetrized, after checking that it is square, finite and symmetric
    within 1e-9 max|M|, with no absolute floor; ``name`` names M in the error."""
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
    if float(abs(M - M.T).max()) > 1e-9 * size:
        raise ValueError(f"{name} must be symmetric")
    return _symmetrized(M)


def _symmetrized(M: np.ndarray) -> np.ndarray:
    # (M + tM) / 2, as _symmetric and _act return it
    return 0.5 * (M + M.T)


def _invertible(A, name: str, dtype=float) -> np.ndarray:
    """A as a float (or ``dtype``) matrix, after checking that it is square,
    finite and invertible; ``name`` names A in the error.

    The test does not change when A is scaled: each column is divided by its
    largest entry (which cannot overflow), and the determinant of the scaled
    columns, at most g^(g/2) in size, must exceed 1e-12.
    """
    A = np.asarray(A, dtype=dtype)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square")
    scale = abs(A).max(axis=0)
    if not (scale < math.inf).all():
        raise ValueError(f"{name} must have finite entries")
    if not (scale.all() and abs(np.linalg.det(A / scale)) > 1e-12):
        raise ValueError(f"{name} must be invertible")
    return A


@lru_cache(maxsize=16)
def _shrink(g: int) -> np.ndarray:
    # read-only factors 1 - c on the diagonal and 1 elsewhere (see _cholesky)
    n = (g + 1) * _ROUNDING / 2
    factors = np.ones((g, g))
    np.fill_diagonal(factors, 1 - (g * n / (1 - 2 * n) + _ROUNDING))
    factors.flags.writeable = False
    return factors


def _cholesky(Y: np.ndarray, factor: bool = True) -> np.ndarray | None:
    """Cholesky factor of an exactly symmetric Y without infinite entries
    (None without ``factor``), once Y is proved positive definite as in
    ``require_spd``, with a last pivot that is not NaN (a NaN reaches every
    later pivot); else ValueError."""
    try:
        proved = not math.isnan(np.linalg.cholesky(Y * _shrink(len(Y)))[-1, -1])
    except np.linalg.LinAlgError:
        proved = False
    if not proved:
        raise ValueError("matrix is not positive definite")
    return np.linalg.cholesky(Y) if factor else None


def require_spd(Y) -> np.ndarray:
    """Validate and symmetrize an SPD matrix; raises ValueError unless it is
    proved positive definite.  The proof (``_cholesky``; Rump, "Verification
    of positive definiteness", BIT 46, 2006): floating-point Cholesky of Y
    with its diagonal shrunk by 1 - c, c = g gamma_{g+1} / (1 - gamma_{g+1})
    + 2u, gamma_n = n u / (1 - n u), completes.  Its rounding is below the
    shift c I of the unit-diagonal form, so scale does not matter (away from
    underflow).  A completed Cholesky of Y itself proves nothing: it
    completes on the singular [[2, 1, 1], [1, 1, 0], [1, 0, 1]]."""
    Y = _symmetric(Y, "SPD matrix")
    _cholesky(Y, factor=False)
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
    return _symmetrized(Af @ Y @ Af.T)


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
        H = np.linalg.solve(Y22, Y21)
        F = Y11 - Y12 @ H
        return IwasawaBlocks(F=0.5 * (F + F.T), G=Y22, H=H, variant="lower")
    R = np.linalg.solve(Y11, Y12)
    Q = Y22 - Y21 @ R
    return IwasawaBlocks(F=Y11, G=0.5 * (Q + Q.T), H=R, variant="upper")


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
    # at most a few box points per vector in a reduced basis, so a box far
    # larger than the cap would take long only to overflow it
    box = _Ellipsoid(_Form(Y), [0.0] * Y.shape[0]).box(float(bound))
    for K, _ in box.points(box_limit=min(_BOX_LIMIT, 64 * cap)):
        found.append(K[:, K.any(axis=0)])
        total += found[-1].shape[1]
        if total > cap:
            raise RuntimeError("short-vector enumeration bound overflow")
    K = np.concatenate(found, axis=1)
    # np.lexsort sorts by the last row first
    return list(zip(*K[:, np.lexsort(K)].astype(np.int64).tolist()))


class _Form:
    """The half of ``_Ellipsoid`` that the linear term does not change: the
    rows of the form P, the unit-diagonal scaling s, the inverse Z of the
    scaled form S and the half-width factors, with U, the basis whose points
    map back by k = tU k', or None.  A caller that sizes many ellipsoids of
    one form, as a theta plan does, builds it once."""

    def __init__(self, P: np.ndarray, U: list | None = None):
        g = P.shape[0]
        self.rows, self.U = P.tolist(), U
        self.s = self.Z = self.widths = None
        if not min(self.rows[i][i] for i in range(g)) > 0:
            return
        s = [self.rows[i][i] ** -0.5 for i in range(g)]
        scale = np.array(s)
        try:
            # P^-1 = diag(s) Z diag(s)
            Z = np.linalg.inv(P * scale[:, None] * scale).tolist()
        except np.linalg.LinAlgError:
            return
        self.s, self.Z = s, Z
        trace = sum(Z[i][i] for i in range(g))
        margin = 4 * g * _ROUNDING * trace * (g * g * trace + g + 2)
        # false for NaN and for a negative diagonal alike
        if all(Z[i][i] > 0 for i in range(g)):
            self.widths = [(s[i], Z[i][i], 1 + margin) for i in range(g)]

    @cached_property
    def reduced(self) -> _Form | None:
        """The form U P tU, U from ``_reduced_basis``, or None where that
        gives none; found on first read and kept."""
        U = _reduced_basis(np.array(self.rows))
        return None if U is None else _Form(_congruent(U, self.rows), U)


class _Ellipsoid:
    """The ellipsoids t(k) P k + b.k + offset <= limit of the form P and the
    linear term b, centered at c = -P^-1 tb / 2, with offset b P^-1 tb / 4:
    ``box(bound)`` bounds the one at limit = bound * ``_MARGIN``, and
    its ``points`` are the integer points k there, with their values
    t(k) P k + b.k.  They map back to the caller's basis by k = tU k' when
    the ``_Form`` of P has a basis U.

    One inverse, of P scaled to unit diagonal (S, with inverse Z), gives the
    center, the offset and the squared half-widths limit (P^-1)_ii.  These
    are widened by a first-order bound on rounding, which is small unless S
    is ill-conditioned: Z is computed to g u cond(S) |Z| <= g^3 u tr(Z)^2
    Z_ii, and a value q(k) to (g + 2) u t|k| |P| |k| <= (g + 2) g u tr(Z) q(k).
    Every box is infinite when P is too near singular to invert: a form
    positive definite in floats need not stay so in another basis.
    """

    def __init__(self, form: _Form, b: list):
        self.form, self.b = form, b
        if form.Z is None:
            self.c, self.offset = [0.0] * len(b), 0.0
            return
        sb = list(map(mul, form.s, b))
        self.c = [-0.5 * si * sum(map(mul, row, sb)) for si, row in zip(form.s, form.Z)]
        self.offset = -0.5 * sum(map(mul, b, self.c))

    def box(self, bound: float) -> _Box:
        """The bounding box |k_i - c_i| <= sqrt(limit (P^-1)_ii), widened
        for rounding; its count is infinite when a half-width or the center
        is not finite or reaches ``_BOX_LIMIT``."""
        widths = self.form.widths
        half = [s * math.sqrt(bound * _MARGIN * z * m) for s, z, m in widths or ()]
        # false for NaN and inf alike
        if widths is None or not all(abs(c) + h < _BOX_LIMIT for c, h in zip(self.c, half)):
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
        A box of more than ``_REBASE_ABOVE`` points may be far larger than
        the ellipsoid of a skewed form; the box of U P tU, U from
        ``_reduced_basis`` (found once per ``_Form``), is then walked instead
        if smaller, its points mapped back by k = tU k' in its own order.
        Raises RuntimeError, before any work, when the box walked holds more
        than ``box_limit``.
        """
        box = self
        if self.count > _REBASE_ABOVE and math.isfinite(self.bound):
            reduced = self.ellipsoid.form.reduced
            if reduced is not None:
                b = (np.array(reduced.U, dtype=float) @ self.ellipsoid.b).tolist()
                box = min(self, _Ellipsoid(reduced, b).box(self.bound), key=lambda x: x.count)
        if box.count > box_limit:
            raise RuntimeError(f"enumeration box of {box.count:.3g} points exceeds {box_limit}")
        return box._walk()

    def _walk(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        P, bl, U = self.ellipsoid.form.rows, self.ellipsoid.b, self.ellipsoid.form.U
        g, sides = len(P), self.sides
        lo = np.array(self.lo, dtype=float)[:, None]
        Ut = None if U is None else np.array(U, dtype=float).T
        limit = self.bound * _MARGIN - self.ellipsoid.offset
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
            # exact: entries of U below 2^20, of K below _BOX_LIMIT < 2^28
            yield (K[:, keep] if U is None else Ut @ K[:, keep]), values[keep]


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


def _reduced_basis(P: np.ndarray) -> list | None:
    """Integer rows U, unimodular, with U P tU Minkowski-reduced (``_reduce``)
    for g <= ``MAX_REDUCTION_DIM``, its diagonal the successive minima, and
    LLL-reduced (``_lll``) above; None where P is not finite and positive
    definite in floats or an entry of U reaches 2^20 (tU k' stays exact)."""
    try:
        _cholesky(_symmetric(P, "form"), factor=False)
        U = _reduce(P) if len(P) <= MAX_REDUCTION_DIM else _lll(P)
    except ValueError:
        return None
    return U if max(abs(a) for row in U for a in row) < 1 << 20 else None


def _congruent(U: list, Q: list) -> np.ndarray:
    # U Q tU for integer rows U: U N tU / den, Q = N / den, exact in ints, rounded once
    N, den = _dyadic(Q)
    return np.array([[x / den for x in row] for row in _act_rows(U, N)])


def _dyadic(Q: list) -> tuple[list, int]:
    """Rows N of Python ints and den = 2^e with Q = N / den exactly, for the
    rows Q of a finite float matrix (every double is a dyadic rational)."""
    ratios = [[x.as_integer_ratio() for x in row] for row in Q]
    den = max(d for row in ratios for _, d in row)
    return [[n * (den // d) for n, d in row] for row in ratios], den


def _act_rows(U: list, N: list) -> list:
    # U N tU for matrices given as rows of Python ints
    return [[sum(a * b for a, b in zip(row, u)) for u in U] for row in _compose(U, N)]


def _lll(Q: np.ndarray) -> list:
    """Integer rows U, unimodular, with U Q tU LLL-reduced (Lovasz constant
    0.99).  The reduction stops early where U Q tU is not numerically
    positive definite or an entry of U reaches 2^20."""
    g = len(Q)
    U = [[int(i == j) for j in range(g)] for i in range(g)]
    k, steps = 1, 0
    while k < g and steps < 100 * g * g:
        steps += 1
        try:
            fac = jacobi_decomposition(_act(np.array(U, dtype=float), Q))
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
            break
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
    upper, C, _, _, _ = _minkowski_conditions(g)
    return bool((C @ Y[upper] >= -tol).all())


def _size_reduce(N: list) -> tuple[list, list]:
    """The rows of R = A N tA and of A (Python ints) that sort the positive
    definite integer form N by diagonal and shear off large off-diagonal
    multiples, a cheap pass after which most forms pass the reduction
    certificate.  A shear i -= q j is taken where 2 |R_ij| > R_jj, with q
    the integer nearest R_ij / R_jj (a tie goes to the even one, as with
    ``round``); it lowers R_ii.
    """
    g = len(N)
    R = [list(row) for row in N]
    ids, identity = range(g), list(range(g))
    A = [[int(i == j) for j in ids] for i in ids]
    for _ in range(32):
        order = sorted(ids, key=lambda i: R[i][i])
        if order != identity:
            A = [A[i] for i in order]
            R = [[R[a][b] for b in order] for a in order]
        changed = False
        for i in ids:
            Ri = R[i]
            for j in ids:
                Rj = R[j]
                if i == j or not 2 * abs(Ri[j]) > Rj[j]:
                    continue
                q, rest = divmod(2 * Ri[j] + Rj[j], 2 * Rj[j])
                if not rest and q & 1:
                    q -= 1
                # rows and columns i -= q j: R_ii - q (R_ij + new R_ij) on the diagonal
                Ri[i] -= q * (2 * Ri[j] - q * Rj[j])
                for k in ids:
                    if k != i:
                        Ri[k] = R[k][i] = Ri[k] - q * Rj[k]
                A[i] = [a - q * b for a, b in zip(A[i], A[j])]
                changed = True
        if not changed:
            break
    return R, A


@lru_cache(maxsize=None)
def _minkowski_conditions(g: int) -> tuple:
    """Minkowski's conditions q(s) - R_kk >= 0 of a g x g form.

    One condition for each s in {0, +-1}^g (up to sign, first nonzero entry
    positive) and each k such that s has a nonzero entry at position k or
    later and is not e_k.  Returns the upper-triangle indices of R (row by
    row), the matrix C whose row c holds the integer coefficients of
    condition c on those entries, |C|, the nonzero coefficients of each row
    as (coefficient, index) pairs, and (k, s, j) for each row, j the last
    index with s_j != 0.
    """
    upper = np.triu_indices(g)
    iu = list(zip(*(x.tolist() for x in upper)))
    rows, terms, steps = [], [], []
    for s in itertools.product((0, 1, -1), repeat=g):
        if not any(s) or _canon(s) != s:
            continue
        j = max(i for i in range(g) if s[i])
        for k in range(j + 1):
            if s == tuple(int(i == k) for i in range(g)):
                continue
            rows.append([(1 if a == b else 2) * s[a] * s[b] - (a == b == k) for a, b in iu])
            terms.append(tuple((c, t) for t, c in enumerate(rows[-1]) if c))
            steps.append((k, s, j))
    C = np.array(rows, dtype=float).reshape(len(rows), len(iu))
    return upper, C, np.abs(C), terms, steps


def _failed(R: list, den: int) -> list:
    """(k, q(s), s, j) for each condition of ``_minkowski_conditions`` that
    the form R / den fails, R integer rows and den > 0, decided exactly.

    A numpy prescreen reads each entry R_ij / den rounded once, which is
    exact below 2^-1022 (den divides 2^1074) and cannot overflow (no entry
    exceeds the largest diagonal entry of the input).  A float slack then
    sums at most g(g+1)/2 terms c R_ij with |c| <= 2, so its error is below
    (g^2 + 2) 2u times the sum of their magnitudes; slacks inside that band,
    or NaN, are summed again in Python ints.
    """
    g = len(R)
    _, C, Cabs, terms, steps = _minkowski_conditions(g)
    flat = [x for a, row in enumerate(R) for x in row[a:]]
    r = np.array([x / den for x in flat])
    slack = C @ r
    band = (g * g + 2) * _ROUNDING * (Cabs @ abs(r))
    failed = []
    for c in (~(slack > band)).nonzero()[0].tolist():
        x = sum(a * flat[t] for a, t in terms[c])
        if x < 0:
            k, s, j = steps[c]
            failed.append((k, x + R[k][k], s, j))
    return failed


def minkowski_reduce(Y) -> tuple[np.ndarray, np.ndarray]:
    """Minkowski reduction: returns (R, A) with A unimodular, A Y tA
    Minkowski-reduced for Y read exactly, and R = A Y tA rounded.

    Every double is a dyadic rational, so a validated Y is N / 2^e for an
    integer form N (``_dyadic``); size reduction, the certificate and the
    descent decide on A N tA in Python ints.  After size reduction the form
    is checked against Minkowski's finite conditions: for g <= 4 a form is
    reduced exactly when q(s) >= R_kk for every s in {0, +-1}^g that has a
    nonzero entry at position k or later and is not +-e_k (Minkowski 1905;
    Nguyen & Stehle, "Low-dimensional lattice basis reduction revisited",
    ACM TALG 2009, section 2), with a float prescreen and exact sums
    (``_failed``).

    A form that fails takes descent steps.  A step takes the failed
    condition with the smallest k, then the smallest q(s), then the smallest
    s as a tuple (first nonzero entry positive).  With j the last index
    where s_j != 0, row j of A becomes sum_i s_i A_i (s_j = +-1 keeps A
    unimodular) and moves to row k, and the basis is size-reduced.  Each
    step lowers the trace, as R_jj >= R_kk gives way to q(s) < R_kk and
    size reduction never raises the trace, and finitely many bases have a
    trace below that of the input, so the descent stops.

    R is ``_act(A, Y)``, the rounding of the reduced form, so R's own float
    certificate, or the order of its float diagonal, can miss by the
    rounding of that product.  Signs: row 0 gets a positive first nonzero coordinate in the
    size-reduced basis, and each later row a nonnegative entry on the
    superdiagonal of R.
    """
    Y = require_spd(Y)
    g = Y.shape[0]
    if g > MAX_REDUCTION_DIM:
        raise ValueError(f"reduction support is limited to g <= {MAX_REDUCTION_DIM}")
    A = _reduce(Y)
    R = _act(np.array(A, dtype=float), Y)
    # nonnegative superdiagonal by row sign flips (one forward pass)
    for k in range(g - 1):
        if R[k, k + 1] < 0:
            A[k + 1] = [-a for a in A[k + 1]]
            R[k + 1, :] = -R[k + 1, :]
            R[:, k + 1] = -R[:, k + 1]
    if abs(_det_rows(A)) != 1:
        raise AssertionError("reduction produced a non-unimodular witness")
    return R, np.array(A, dtype=object)


def _reduce(Y: np.ndarray) -> list:
    # the rows of A with A Y tA exactly reduced: minkowski_reduce before its sign rules
    N, den = _dyadic(Y.tolist())
    R, A = _size_reduce(N)
    failed = _failed(R, den)
    return _descend(R, A, den, failed) if failed else A


def _descend(R: list, S: list, den: int, failed: list) -> list:
    # minkowski_reduce's descent from the integer form R = S N tS, which fails
    # the conditions ``failed``; returns the rows of A = T S, T the change
    # from the basis S
    g = len(S)
    T = [[int(i == j) for j in range(g)] for i in range(g)]
    for _ in range(_DESCENT_STEPS):
        k, _, s, j = min(failed)
        # rows e_i, i != j, with s inserted at k
        V = [[int(i == m) for m in range(g)] for i in range(g) if i != j]
        V.insert(k, list(s))
        R, W = _size_reduce(_act_rows(V, R))
        T = _compose(W, _compose(V, T))
        failed = _failed(R, den)
        if not failed:
            A = _compose(T, S)
            # -A where row 0 of T is not canonical
            return A if _canon(tuple(T[0])) == tuple(T[0]) else [[-a for a in row] for row in A]
    raise AssertionError("reduction did not settle within its step bound")


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
    """Density (det Y)^(-(g+h+1)/2) of the invariant volume element, as
    exp(-(g+h+1) sum log L_ii) from the Cholesky factor L, so that det Y
    cannot underflow or overflow; inf where the density overflows."""
    L = _cholesky(_symmetric(Y, "SPD matrix"))
    g = L.shape[0]
    if h < 0:
        raise ValueError("h must be nonnegative")
    try:
        return math.exp(-(g + h + 1) * float(np.log(L.diagonal()).sum()))
    except OverflowError:
        return math.inf


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
            E[i, j] = E[j, i] = 1.0
            df = (f(Y + step * E) - f(Y - step * E)) / (2.0 * step)
            grad[i, j] = grad[j, i] = df if i == j else 0.5 * df
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
            E[p, q] = E[q, p] = 1.0
            dM = (op_matrix(Y + step * E) - op_matrix(Y - step * E)) / (2.0 * step)
            T[p, q] = T[q, p] = dM if p == q else 0.5 * dM
    total = 0.0
    for i in range(g):
        for j in range(g):
            for p in range(g):
                total += Y[i, p] * T[p, j, j, i]
    return total
