"""Order-two cohomology predicates on the symplectic group.

The involution tau flips the off-diagonal blocks, tau(x) = E x E with
E = diag(I, -I).  An element gamma is a cocycle when gamma tau(gamma) is the
identity and a coboundary when it can be written tau(h) h^-1.  Coboundaries
are decided exactly: every coboundary is congruent to I mod 2, because E is,
and every cocycle congruent to I mod 2 is one, with a witness h built from
the eigenlattices of the involution gamma E (Reiner, Proc. AMS 1957;
Seppala & Silhol, Math. Z. 201, 1989).
"""

from __future__ import annotations

import numpy as np

from .exactlinalg import (
    _as_exact,
    _symplectic_form,
    is_symplectic,
    kernel_basis,
    symplectic_inverse,
    unimodular_inverse,
)
from .siegel import _tau, sp_act

__all__ = [
    "is_cocycle",
    "coboundary_witness",
    "fixed_locus_member",
]


def _is_exact(M: np.ndarray) -> bool:
    return M.dtype == object or np.issubdtype(M.dtype, np.integer)


def is_cocycle(gamma) -> bool:
    """Exact test gamma tau(gamma) = identity (tolerance 1e-12 for floats)."""
    M = np.asarray(gamma)
    if not is_symplectic(M):
        raise ValueError("matrix is not symplectic")
    P = M @ _tau(M)
    I = np.eye(P.shape[0], dtype=int)
    if _is_exact(M):
        return bool(np.all(P == I))
    return float(np.max(np.abs(P - I))) <= 1e-12


def coboundary_witness(gamma) -> np.ndarray | None:
    """An exact h with tau(h) h^-1 = gamma, or None when gamma is no coboundary.

    None is a proof: tau(h) h^-1 = E h E h^-1 is congruent to I mod 2.  For a
    cocycle gamma congruent to I mod 2, sigma = gamma E is an anti-symplectic
    involution congruent to I mod 2, so Z^2g is the direct sum of its
    eigenlattices L+ and L-, both Lagrangian.  J pairs them through the
    unimodular P = tL+ J L-, so k = [L+ | L- P^-1] is symplectic with
    sigma = k E k^-1, and h = tau(k).  The witness is verified exactly.
    """
    gamma = _as_exact(gamma)
    if not is_cocycle(gamma):
        raise ValueError("not a cocycle: gamma tau(gamma) differs from the identity")
    n = gamma.shape[0]
    eye = np.eye(n, dtype=object)
    if np.any((gamma - eye) % 2):
        return None
    g = n // 2
    sigma = gamma.copy()
    sigma[:, g:] = -sigma[:, g:]
    plus = kernel_basis(sigma - eye)
    minus = kernel_basis(sigma + eye)
    P = plus.T @ _symplectic_form(g) @ minus
    k = np.concatenate([plus, minus @ unimodular_inverse(P)], axis=1)
    h = _tau(k)
    # symplectic_inverse checks that h, and so k, is symplectic
    if not np.array_equal(k @ symplectic_inverse(h), gamma):  # k = tau(h)
        raise AssertionError("witness verification failed")
    return h


def fixed_locus_member(gamma, omega, tol: float = 1e-10) -> bool:
    """True iff gamma . Omega = -conj(Omega) within ``tol``."""
    om = np.asarray(omega, dtype=complex)
    moved = sp_act(gamma, om)
    return float(np.max(np.abs(moved + np.conj(om)))) <= tol
