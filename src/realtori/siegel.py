"""Siegel upper half-space, generalized disk, and the group actions on them.

Points of the half-space are complex symmetric matrices with positive
definite imaginary part; the symplectic group acts by fractional linear
transformations.  The module also hosts the involution that conjugates the
real sublocus, the Cayley transforms to the bounded disk model, the integral
upper-triangular subgroup acting on half-integral-real points, and the
Jacobi-group action on pairs (Omega, Z).

As in ``spdcone``, a public function checks each argument once and passes
the checked values to a private core (``_sp_act``, ``_tau``, ...).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exactlinalg import (
    _as_exact,
    _symplectic_form,
    int_matrix,
    is_symplectic,
    random_unimodular,
    unimodular_inverse,
)
from .spdcone import _cholesky, _jacobi, _symmetric, require_spd

__all__ = [
    "require_siegel",
    "sp_act",
    "tau_point",
    "tau_group",
    "require_disk",
    "cayley_to_disk",
    "cayley_to_halfspace",
    "disk_act",
    "in_script_H",
    "gamma_star_member",
    "gamma_star_act",
    "JacobiGroupElement",
    "jacobi_identity",
    "jacobi_compose",
    "jacobi_group_act",
    "in_siegel_fundamental_set",
    "real_locus_embed",
    "random_symplectic",
]

def require_siegel(omega) -> np.ndarray:
    """Validate a half-space point: symmetric with SPD imaginary part."""
    return _siegel_factor(omega)[0]


def _siegel_factor(omega) -> tuple[np.ndarray, np.ndarray]:
    # the validated point and the Cholesky factor of its (exactly symmetric) Im
    om = _symmetric(omega, "half-space point", complex)
    return om, _cholesky(om.imag)


def _blocks(M: np.ndarray):
    g = M.shape[0] // 2
    return M[:g, :g], M[:g, g:], M[g:, :g], M[g:, g:]


def sp_act(M, omega) -> np.ndarray:
    """Fractional linear action (A Omega + B)(C Omega + D)^-1."""
    om = require_siegel(omega)
    M = np.asarray(M)
    if not is_symplectic(M):
        raise ValueError("matrix is not symplectic")
    return _sp_act(M.astype(float), om)


def _sp_act(Mf: np.ndarray, om: np.ndarray) -> np.ndarray:
    # sp_act of a symplectic float matrix on a validated point
    A, B, C, D = _blocks(Mf)
    num = A @ om + B
    den = C @ om + D
    if abs(np.linalg.det(den)) < 1e-13 * max(1.0, np.linalg.norm(den)) ** om.shape[0]:
        raise ValueError("denominator C Omega + D is numerically singular")
    return require_siegel(np.linalg.solve(den.T, num.T).T)


def tau_point(omega) -> np.ndarray:
    """The antiholomorphic involution Omega -> -conj(Omega)."""
    om = require_siegel(omega)
    return -np.conj(om)


def tau_group(x) -> np.ndarray:
    """Involution on the symplectic group: flip the signs of the B, C blocks."""
    x = np.asarray(x)
    if not is_symplectic(x):
        raise ValueError("matrix is not symplectic")
    return _tau(x)


def _tau(x: np.ndarray) -> np.ndarray:
    # tau_group of a matrix known to be symplectic
    g = x.shape[0] // 2
    out = x.copy()
    out[:g, g:] = -out[:g, g:]
    out[g:, :g] = -out[g:, :g]
    return out


# ---------------------------------------------------------------------------
# bounded disk model


def require_disk(W) -> np.ndarray:
    """Validate a disk point: symmetric with I - conj(W) W positive definite."""
    W = _symmetric(W, "disk point", complex)
    H = np.eye(W.shape[0]) - np.conj(W) @ W
    if float(np.min(np.linalg.eigvalsh(0.5 * (H + np.conj(H).T)))) <= 0:
        raise ValueError("point lies outside the generalized disk")
    return W


def cayley_to_disk(omega) -> np.ndarray:
    """Half-space to disk: (Omega - iI)(Omega + iI)^-1."""
    om = require_siegel(omega)
    g = om.shape[0]
    I = np.eye(g)
    W = np.linalg.solve((om + 1j * I).T, (om - 1j * I).T).T
    return require_disk(0.5 * (W + W.T))


def cayley_to_halfspace(W) -> np.ndarray:
    """Disk to half-space: i (I + W)(I - W)^-1."""
    W = require_disk(W)
    g = W.shape[0]
    I = np.eye(g)
    if abs(np.linalg.det(I - W)) < 1e-13:
        raise ValueError("boundary input: I - W is singular")
    om = 1j * np.linalg.solve((I - W).T, (I + W).T).T
    return require_siegel(0.5 * (om + om.T))


def disk_act(M, W) -> np.ndarray:
    """Symplectic action on the disk via P = ((A+D)+i(B-C))/2, Q = ((A-D)-i(B+C))/2."""
    W = require_disk(W)
    M = np.asarray(M)
    if not is_symplectic(M):
        raise ValueError("matrix is not symplectic")
    A, B, C, D = _blocks(M.astype(float))
    P = 0.5 * ((A + D) + 1j * (B - C))
    Q = 0.5 * ((A - D) - 1j * (B + C))
    den = np.conj(Q) @ W + np.conj(P)
    if abs(np.linalg.det(den)) < 1e-13:
        raise ValueError("disk action denominator is numerically singular")
    out = np.linalg.solve(den.T, (P @ W + Q).T).T
    return require_disk(0.5 * (out + out.T))


# ---------------------------------------------------------------------------
# half-integral real part locus and its group


def in_script_H(omega, tol: float = 1e-9) -> bool:
    """True iff twice the real part is integral within ``tol``."""
    return _half_integral(require_siegel(omega), tol)


def _half_integral(om: np.ndarray, tol: float) -> bool:
    # in_script_H on a validated point
    twice = 2.0 * om.real
    return bool(np.max(np.abs(twice - np.round(twice))) <= tol)


def gamma_star_member(gamma) -> bool:
    """Exact membership test for integral (A, B; 0, tA^-1) with A tB = B tA.

    These are the integral symplectic matrices with C = 0: for C = 0 the
    condition tM J M = J says D = tA^-1 and A tB = B tA.  A matrix with an
    entry that is not an exact integer is not a member.
    """
    M = np.asarray(gamma)
    n, m = M.shape
    if n != m or n % 2 != 0:
        return False
    try:
        M = _as_exact(M)
    except ValueError:
        return False
    g = n // 2
    return not any(M[g:, :g].flat) and is_symplectic(M)


def gamma_star_act(gamma, omega) -> np.ndarray:
    """Action A Omega tA + B tA of the upper-triangular integral subgroup."""
    if not gamma_star_member(gamma):
        raise ValueError("matrix is not in the upper-triangular integral subgroup")
    om = require_siegel(omega)
    if not _half_integral(om, 1e-9):
        raise ValueError("point does not have half-integral real part")
    M = np.asarray(gamma).astype(float)
    g = om.shape[0]
    A, B = M[:g, :g], M[:g, g:]
    out = A @ om @ A.T + B @ A.T
    return require_siegel(0.5 * (out + out.T))


# ---------------------------------------------------------------------------
# Jacobi group


@dataclass(frozen=True)
class JacobiGroupElement:
    """Pair of a symplectic matrix and a Heisenberg element (lam, mu; kappa)."""

    M: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    kappa: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.M)
        if not is_symplectic(M):
            raise ValueError("matrix part is not symplectic")
        lam = np.asarray(self.lam, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        kappa = np.asarray(self.kappa, dtype=float)
        h, g = lam.shape
        if mu.shape != (h, g) or kappa.shape != (h, h):
            raise ValueError("Heisenberg component shapes are inconsistent")
        # an entry that is not finite makes the sum inf or NaN, refused below
        with np.errstate(invalid="ignore", over="ignore"):
            S = kappa + mu @ lam.T
        _symmetric(S, "kappa + mu t(lam)")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "kappa", kappa)


def jacobi_identity(g: int, h: int) -> JacobiGroupElement:
    return JacobiGroupElement(
        M=np.eye(2 * g, dtype=int),
        lam=np.zeros((h, g)),
        mu=np.zeros((h, g)),
        kappa=np.zeros((h, h)),
    )


def jacobi_compose(g1: JacobiGroupElement, g2: JacobiGroupElement) -> JacobiGroupElement:
    """Group law: the Heisenberg part of the left factor is pushed through M2."""
    M1 = np.asarray(g1.M).astype(float)
    M2 = np.asarray(g2.M).astype(float)
    pair = np.concatenate([g1.lam, g1.mu], axis=1) @ M2
    g = g1.lam.shape[1]
    lt, mt = pair[:, :g], pair[:, g:]
    lam = lt + g2.lam
    mu = mt + g2.mu
    kappa = g1.kappa + g2.kappa + lt @ g2.mu.T - mt @ g2.lam.T
    return JacobiGroupElement(M=M1 @ M2, lam=lam, mu=mu, kappa=kappa)


def jacobi_group_act(elem: JacobiGroupElement, omega, Z) -> tuple[np.ndarray, np.ndarray]:
    """Action (Omega, Z) -> (M.Omega, (Z + lam Omega + mu)(C Omega + D)^-1)."""
    om = require_siegel(omega)
    Z = np.asarray(Z, dtype=complex)
    Mf = np.asarray(elem.M).astype(float)
    g = om.shape[0]
    C, D = Mf[g:, :g], Mf[g:, g:]
    om_new = _sp_act(Mf, om)
    den = C @ om + D
    # a value that overflows comes back as inf or NaN for the caller to refuse
    with np.errstate(over="ignore", invalid="ignore"):
        Z_new = np.linalg.solve(den.T, (Z + elem.lam @ om + elem.mu).T).T
    return om_new, Z_new


# ---------------------------------------------------------------------------
# fundamental set and the real locus


def in_siegel_fundamental_set(omega, u: float) -> bool:
    """Membership in the classical fundamental set with parameter u > 1.

    Checks the bound on |x_ij| plus the Jacobi-factor conditions |w_ij| < u,
    1 < u d_1, d_i < u d_{i+1}.
    """
    if u <= 1:
        raise ValueError("parameter u must exceed 1")
    om, L = _siegel_factor(omega)
    fac = _jacobi(L)
    d = fac.d
    return bool(float(np.max(np.abs(om.real))) < u
                and float(np.max(np.abs(fac.W - np.eye(len(d))))) < u
                and 1.0 < u * d[0] and all(d[i] < u * d[i + 1] for i in range(len(d) - 1)))


def real_locus_embed(Y, V=None) -> tuple[np.ndarray, np.ndarray | None]:
    """Embed (Y, V) as (iY, V): the image is fixed by the involution."""
    Y = require_spd(Y)
    om = 1j * Y.astype(complex)
    if V is None:
        return om, None
    V = np.asarray(V, dtype=complex)
    if V.ndim != 2 or V.shape[1] != Y.shape[0]:
        raise ValueError("companion matrix must have g columns")
    return om, V


# ---------------------------------------------------------------------------
# exact random symplectic elements for tests


def random_symplectic(g: int, rng: np.random.Generator, length: int = 6,
                      max_entry: int = 2) -> np.ndarray:
    """Exact integer symplectic matrix: a bounded word in the generators
    (I, B; 0, I), diag(A, tA^-1), and the standard form J."""
    n = 2 * g
    M = np.eye(n, dtype=object)
    J = _symplectic_form(g)
    for _ in range(length):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            B = rng.integers(-max_entry, max_entry + 1, size=(g, g))
            B = B + B.T
            gen = np.eye(n, dtype=object)
            gen[:g, g:] = int_matrix(B)
        elif kind == 1:
            A = random_unimodular(g, rng, max_entry=max_entry)
            Ainv_t = unimodular_inverse(A).T
            gen = np.zeros((n, n), dtype=object)
            gen[:g, :g] = A
            gen[g:, g:] = Ainv_t
        else:
            gen = J
        M = M @ gen
    return M
