"""The product of the SPD cone with a matrix Euclidean factor.

The group of pairs (A, a) acts by (Y, V) -> (A Y tA, (V + a) tA); the
two-parameter invariant metric mixes the affine-invariant cone metric with a
Y-weighted Euclidean term.  Geodesics through the origin are exponential in
a rotated diagonal frame.  ``distance`` returns an upper bound on the
geodesic distance: the length of one explicit path (Y along its cone
geodesic, V linear), a one-dimensional integral in the generalized
eigenvalues of the endpoint pencil handled by node-doubling Gauss-Legendre
quadrature, where each rule is built once per process; a length that has not
settled at 256 nodes is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spdcone import _invertible, require_spd

__all__ = [
    "MinkowskiEuclidPoint",
    "GroupElementGLgh",
    "glgh_act",
    "metric_value",
    "geodesic_through_origin",
    "whitening_frame",
    "distance",
]


@dataclass(frozen=True)
class MinkowskiEuclidPoint:
    """Pair (Y, V) with Y SPD of size g and V an h x g real matrix."""

    Y: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        Y = require_spd(self.Y)
        V = np.asarray(self.V, dtype=float)
        if V.ndim != 2 or V.shape[1] != Y.shape[0]:
            raise ValueError("companion matrix must have g columns")
        if not np.isfinite(V).all():
            raise ValueError("companion matrix must have finite entries")
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "V", V)

    @property
    def g(self) -> int:
        return self.Y.shape[0]

    @property
    def h(self) -> int:
        return self.V.shape[0]


@dataclass(frozen=True)
class GroupElementGLgh:
    """Group element (A, a): invertible A with an h x g translation part."""

    A: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        A = _invertible(self.A, "matrix part")
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or a.shape[1] != A.shape[0]:
            raise ValueError("translation part must have g columns")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "a", a)


def glgh_act(x: GroupElementGLgh, p: MinkowskiEuclidPoint) -> MinkowskiEuclidPoint:
    """Action (A, a) . (Y, V) = (A Y tA, (V + a) tA)."""
    # a product that overflows leaves inf or NaN for MinkowskiEuclidPoint to refuse
    with np.errstate(over="ignore", invalid="ignore"):
        Y = x.A @ p.Y @ x.A.T
        V = (p.V + x.a) @ x.A.T
        Y = 0.5 * (Y + Y.T)
    return MinkowskiEuclidPoint(Y=Y, V=V)


def metric_value(p: MinkowskiEuclidPoint, dY, dV, A_c: float = 1.0,
                 B_c: float = 1.0) -> float:
    """Quadratic value A tr((Y^-1 dY)^2) + B tr(Y^-1 t(dV) dV)."""
    if A_c <= 0 or B_c <= 0:
        raise ValueError("metric constants must be positive")
    dY = np.asarray(dY, dtype=float)
    dV = np.asarray(dV, dtype=float)
    T = np.linalg.solve(p.Y, dY)
    first = float(np.trace(T @ T))
    second = float(np.trace(np.linalg.solve(p.Y, dV.T @ dV)))
    return A_c * first + B_c * second


def geodesic_through_origin(k, lambdas, Z, t: float) -> MinkowskiEuclidPoint:
    """Point at time t of the geodesic through (I, 0) with frame k.

    The SPD part is the conjugated exponential diag(exp(2 lambda_j t)); the
    Euclidean part integrates the decaying frame along the way.
    """
    k = np.asarray(k, dtype=float)
    g = k.shape[0]
    if float(np.max(np.abs(k.T @ k - np.eye(g)))) > 1e-12:
        raise ValueError("frame matrix must be orthogonal")
    lambdas = np.asarray(lambdas, dtype=float).ravel()
    if lambdas.shape[0] != g or not np.any(lambdas):
        raise ValueError("need g exponents, not all zero")
    Z = np.asarray(Z, dtype=float)
    # an exponential that overflows leaves inf or NaN for MinkowskiEuclidPoint to refuse
    with np.errstate(over="ignore", invalid="ignore"):
        Y = k.T @ np.diag(np.exp(2.0 * lambdas * t)) @ k
        integr = np.array([
            (np.expm1(lam * t) / lam) if lam != 0.0 else t for lam in lambdas
        ])
        V = Z @ (k.T @ np.diag(integr) @ k)
        Y = 0.5 * (Y + Y.T)
    return MinkowskiEuclidPoint(Y=Y, V=V)


def whitening_frame(Y0, Y1) -> tuple[np.ndarray, np.ndarray]:
    """Matrix w with w Y0 tw = I and w Y1 tw diagonal; returns (w, eigenvalues).

    Built from the Cholesky factor of Y0 and the spectral decomposition of
    the whitened pencil; eigenvalues are sorted ascending and eigenvector
    signs fixed by the first nonzero component.
    """
    return _whitening_frame(require_spd(Y0), require_spd(Y1))


def _whitening_frame(Y0: np.ndarray, Y1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # whitening_frame on validated forms
    L = np.linalg.cholesky(Y0)
    Linv = np.linalg.inv(L)
    # a product that overflows comes back as inf or NaN for the caller to refuse
    with np.errstate(over="ignore", invalid="ignore"):
        Mid = Linv @ Y1 @ Linv.T
    vals, vecs = np.linalg.eigh(0.5 * (Mid + Mid.T))
    order = np.argsort(vals)
    vals = vals[order]
    vecs = vecs[:, order]
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0:
            vecs[:, j] = -col
    w = vecs.T @ Linv
    return w, vals


# absolute tolerance between successive rules, and the largest rule: each
# rule is built once per process
_QUADRATURE_TOL = 1e-11
_MAX_NODES = 256


@lru_cache(maxsize=None)
def _gauss_legendre_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes of the ``nodes``-point Gauss-Legendre rule mapped from
    [-1, 1] to [0, 1], and its weights (for [-1, 1])."""
    x, wts = np.polynomial.legendre.leggauss(nodes)
    xm = 0.5 * (x + 1.0)
    xm.flags.writeable = False
    wts.flags.writeable = False
    return xm, wts


def _gauss_legendre_adaptive(f) -> float:
    nodes = 8
    prev = None
    while nodes <= _MAX_NODES:
        xm, wts = _gauss_legendre_rule(nodes)
        val = 0.5 * float(np.sum(wts * f(xm)))
        # a value that is not finite is returned at once, for the caller to refuse
        if not np.isfinite(val) or prev is not None and abs(val - prev) < _QUADRATURE_TOL:
            return val
        prev = val
        nodes *= 2
    raise ValueError(f"path length quadrature did not settle within {_MAX_NODES} nodes")


def distance(p0: MinkowskiEuclidPoint, p1: MinkowskiEuclidPoint,
             A_c: float = 1.0, B_c: float = 1.0) -> float:
    """Upper bound on the geodesic distance between (Y0, V0) and (Y1, V1).

    The value is the length of one explicit path: Y along the cone geodesic
    Y(s) = w^-1 diag(t^s) w^-T and V linear.  Its speed is
    sqrt(A sum log^2 t_j + B sum Delta_j t_j^-s), where t_j are the
    generalized eigenvalues of (Y1, Y0) and Delta_j the squared column norms
    of the whitened difference of the Euclidean parts.  When V0 = V1 or
    h = 0 the path is a geodesic and the value is exactly sqrt(A) d_SPD.
    A length that overflows comes back as inf or NaN.
    """
    if p0.g != p1.g or p0.h != p1.h:
        raise ValueError("points live in different spaces")
    if A_c <= 0 or B_c <= 0:
        raise ValueError("metric constants must be positive")
    w, tvals = _whitening_frame(p0.Y, p1.Y)
    if np.any(tvals <= 0):
        raise ArithmeticError("pencil eigenvalues must be positive")
    logs = np.log(tvals)
    cone = A_c * float(np.sum(logs**2))

    def speed(ts: np.ndarray) -> np.ndarray:
        acc = np.full_like(ts, cone)
        for dj, lg in zip(deltas, logs):
            acc = acc + B_c * dj * np.exp(-lg * ts)
        return np.sqrt(acc)

    with np.errstate(over="ignore", invalid="ignore"):
        Vt = (p1.V - p0.V) @ w.T
        deltas = np.sum(Vt**2, axis=0)
        if float(np.max(deltas, initial=0.0)) == 0.0 or p0.h == 0:
            return float(np.sqrt(cone))
        return _gauss_legendre_adaptive(speed)

