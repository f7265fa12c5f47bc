"""Real tori R^g / Lambda via period matrices.

A torus is stored by an invertible period matrix Pi; the lattice is Pi Z^g.
Homomorphisms are detected through their integral rational representation,
duals through the inverse transpose, and the polarization predicate covers
symmetric period matrices, where definiteness of Pi decides whether the
associated complex torus C^g / (Z^g + i Lambda) is an abelian variety.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .exactlinalg import det_int, int_matrix
from .spdcone import _invertible, _symmetric, require_spd

__all__ = [
    "RealTorus",
    "torus_from_spd",
    "associated_lattice_basis",
    "hermitian_form_eval",
    "dual_period_matrix",
    "rational_representation",
    "isogeny_degree",
    "Polarization",
    "is_polarized_symmetric",
]


@dataclass(frozen=True)
class RealTorus:
    """Torus R^g / (Pi Z^g) with invertible period matrix Pi."""

    Pi: np.ndarray
    principally_polarized: bool = False

    def __post_init__(self):
        object.__setattr__(self, "Pi", _invertible(self.Pi, "period matrix"))

    @property
    def g(self) -> int:
        return self.Pi.shape[0]


def torus_from_spd(Y) -> RealTorus:
    """The principally polarized torus with lattice Y Z^g."""
    Y = require_spd(Y)
    return RealTorus(Pi=Y, principally_polarized=True)


def associated_lattice_basis(T: RealTorus) -> np.ndarray:
    """Basis (columns) of the lattice Z^g + i Lambda of the associated complex torus."""
    g = T.g
    basis = np.zeros((g, 2 * g), dtype=complex)
    basis[:, :g] = np.eye(g)
    basis[:, g:] = 1j * T.Pi
    if np.linalg.matrix_rank(np.concatenate([basis.real, basis.imag], axis=0)) < 2 * g:
        raise ValueError("lattice columns are not R-linearly independent")
    return basis


def hermitian_form_eval(Y, x, y) -> complex:
    """The form tx Y^-1 conj(y) attached to the lattice Y Z^g."""
    return _hermitian(require_spd(Y), x, y)


def _hermitian(Y: np.ndarray, x, y) -> complex:
    # hermitian_form_eval on a validated Y
    x = np.asarray(x, dtype=complex).ravel()
    y = np.asarray(y, dtype=complex).ravel()
    return complex(x @ np.linalg.solve(Y, np.conj(y)))


def dual_period_matrix(T: RealTorus) -> RealTorus:
    """Dual torus: period matrix is the inverse transpose."""
    return RealTorus(Pi=np.linalg.inv(T.Pi.T), principally_polarized=False)


def rational_representation(Phi, T: RealTorus, Tp: RealTorus,
                            tol: float = 1e-8) -> np.ndarray | None:
    """Integral matrix R with Pi' R = Phi Pi, or None if Phi maps no lattice.

    R is the action of the (candidate) torus homomorphism on lattice
    coordinates; it is accepted only when the rounded candidate reproduces
    Phi Pi within ``tol``.
    """
    Phi = np.asarray(Phi, dtype=float)
    target = Phi @ T.Pi
    R_real = np.linalg.solve(Tp.Pi, target)
    R = np.round(R_real)
    if float(np.max(np.abs(Tp.Pi @ R - target))) > tol:
        return None
    return int_matrix(R)


def isogeny_degree(R) -> int:
    """Kernel order |det R| of the lattice map, 0 for a degenerate map."""
    return abs(det_int(R))


class Polarization(Enum):
    POLARIZED = "POLARIZED"
    NOT_POLARIZED = "NOT_POLARIZED"


def is_polarized_symmetric(Pi) -> Polarization:
    """Polarization test for a symmetric invertible period matrix.

    Definite (either sign) means the lattice equals that of an SPD period
    matrix and the associated complex torus is an abelian variety; an
    indefinite symmetric period matrix is not polarized.
    """
    Pi = _symmetric(Pi, "period matrix")
    eigs = np.linalg.eigvalsh(Pi)
    if np.min(np.abs(eigs)) < 1e-12 * max(1.0, float(abs(Pi).max())):
        raise ValueError("period matrix must be invertible")
    if np.all(eigs > 0) or np.all(eigs < 0):
        return Polarization.POLARIZED
    return Polarization.NOT_POLARIZED
